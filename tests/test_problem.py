"""Problem data: Hamiltonians, envelopes, couplings, and the sampled
structure validator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from knet.catalog import all_entries
from knet.errors import InvalidCoefficientSign, VertexNotInterior
from knet.network import star_junction
from knet.problem import (
    Diffusion,
    Hamiltonian,
    NetworkProblem,
    advection,
    constant_diffusion,
    eikonal,
    linear_vanish,
    make_kirchhoff,
    polynomial_diffusion,
    problem_from_json,
    validate_problem,
)


# ---------------------------------------------------------------------------
# Kirchhoff families


def test_classical_values():
    F = make_kirchhoff("classical", 3, B=0.0)
    assert F(0.0, (1.0, 1.0, 1.0)) == pytest.approx(-3.0)
    assert F(0.0, (-1.0, 0.0, 1.0)) == pytest.approx(0.0)
    assert F(5.0, (0.0, 0.0, 0.0)) == pytest.approx(0.0)  # no r dependence


def test_affine_values():
    F = make_kirchhoff("affine", 2, B=1.0, alpha0=0.5, alphas=(2.0, 3.0))
    # 0.5*r + 2*(-p1) + 3*(-p2) - 1
    assert F(2.0, (1.0, -1.0)) == pytest.approx(0.5 * 2 - 2 + 3 - 1)


def test_pm_split_values():
    F = make_kirchhoff("pm-split", 2, B=0.0)
    # s = -p = (2, -3): positive part weighted by alpha, negative by beta
    assert F(0.0, (-2.0, 3.0)) == pytest.approx(2.0 - 3.0)
    F2 = make_kirchhoff("pm-split", 2, alphas=(2.0, 2.0), betas=(0.5, 0.5))
    assert F2(0.0, (-2.0, 3.0)) == pytest.approx(2.0 * 2.0 + 0.5 * (-3.0))


def test_kirchhoff_sign_validation():
    with pytest.raises(InvalidCoefficientSign):
        make_kirchhoff("affine", 2, alpha0=-1.0)
    with pytest.raises(InvalidCoefficientSign):
        make_kirchhoff("affine", 2, alphas=(1.0, 0.0))
    with pytest.raises(InvalidCoefficientSign):
        make_kirchhoff("pm-split", 2, betas=(1.0, -1.0))
    with pytest.raises(ValueError):
        make_kirchhoff("custom", 2)  # needs fn
    with pytest.raises(ValueError):
        make_kirchhoff("unknown", 2)


def test_kirchhoff_arity_check():
    F = make_kirchhoff("classical", 3)
    with pytest.raises(ValueError):
        F(0.0, (1.0, 1.0))


@settings(max_examples=100, deadline=None)
@given(
    family=st.sampled_from(["classical", "affine", "pm-split"]),
    r=st.floats(-5, 5),
    p=st.lists(st.floats(-5, 5), min_size=3, max_size=3),
    c=st.floats(0.0, 5.0),
    seed=st.integers(0, 10**6),
)
def test_quantitative_monotonicity(family, r, p, c, seed):
    """Uniform downward slope shift raises F by at least the declared
    quantitative slope times the shift."""
    rng = np.random.default_rng(seed)
    F = make_kirchhoff(
        family, 3, B=float(rng.uniform(-1, 1)),
        alpha0=(0.0 if family == "classical" else float(rng.uniform(0, 1))),
        alphas=rng.uniform(0.3, 2.0, 3), betas=rng.uniform(0.3, 2.0, 3),
    )
    p = np.asarray(p)
    gain = F(r, p - c) - F(r, p)
    assert gain >= F.quantitative_slope * c - 1e-9


# ---------------------------------------------------------------------------
# Hamiltonians and envelopes


def test_eikonal_values_and_envelopes():
    H = eikonal(2.0, 1.0)
    assert H(0.3, -1.5) == pytest.approx(2.0 * 1.5 - 1.0)
    assert H.coercive and H.lipschitz_p == 2.0
    # min over p <= q of 2|p| - 1
    assert H.min_below(0.0, 1.0) == pytest.approx(-1.0)
    assert H.min_below(0.0, -2.0) == pytest.approx(2.0 * 2.0 - 1.0)
    assert H.min_above(0.0, -1.0) == pytest.approx(-1.0)
    assert H.min_above(0.0, 3.0) == pytest.approx(2.0 * 3.0 - 1.0)
    with pytest.raises(InvalidCoefficientSign):
        eikonal(0.0)


def test_advection_values_and_envelopes():
    H = advection(2.0, -0.5)
    assert H(0.0, 3.0) == pytest.approx(2.0 * 3.0 - 0.5)
    assert not H.coercive
    # b > 0: unbounded below as p -> -inf, so min_below is -inf
    assert H.min_below(0.0, 1.0) == -math.inf
    assert H.min_above(0.0, 1.0) == pytest.approx(2.0 * 1.0 - 0.5)
    Hn = advection(-1.0, 0.25)
    assert Hn.min_below(0.0, 2.0) == pytest.approx(-2.0 + 0.25)
    assert Hn.min_above(0.0, 2.0) == -math.inf
    # callable source term
    Hx = advection(0.0, lambda x: np.sin(x))
    assert Hx(0.5, 7.0) == pytest.approx(math.sin(0.5))
    assert hasattr(Hx, "affine")


def test_sampled_envelope_matches_analytic():
    """A custom Hamiltonian without declared envelopes falls back to the
    sampled one, which must agree with the analytic value for |p|."""
    H = Hamiltonian(lambda x, p: np.abs(p), c_h=1.0, coercive=True)
    ref = eikonal(1.0, 0.0)
    # the fallback samples 257 slopes, so it is exact only to the lattice
    # resolution of the sampled interval
    for q in (-2.0, -0.5, 0.0, 0.5, 1.0, 3.0):
        assert H.min_below(0.0, q) == pytest.approx(ref.min_below(0.0, q), abs=0.02)
        assert H.min_above(0.0, q) == pytest.approx(ref.min_above(0.0, q), abs=0.02)
        assert H.min_below(0.0, q) >= ref.min_below(0.0, q) - 1e-12  # never below


def test_hamiltonian_requires_positive_structure_constant():
    with pytest.raises(InvalidCoefficientSign):
        Hamiltonian(lambda x, p: p, c_h=0.0)


# ---------------------------------------------------------------------------
# Diffusions


def test_constant_diffusion():
    D = constant_diffusion(0.25)
    assert D.a(0.3) == pytest.approx(0.25)
    np.testing.assert_allclose(D.a(np.array([0.0, 1.0])), [0.25, 0.25])
    with pytest.raises(InvalidCoefficientSign):
        constant_diffusion(-1.0)


def test_linear_vanish_diffusion():
    D = linear_vanish(2.0, 1.0, side="low")
    assert D.a(0.0) == pytest.approx(0.0)
    assert D.a(0.5) == pytest.approx((2.0 * 0.5) ** 2)
    Dh = linear_vanish(2.0, 1.0, side="high")
    assert Dh.a(1.0) == pytest.approx(0.0)
    assert Dh.a(0.5) == pytest.approx(1.0)


def test_polynomial_diffusion_clipped():
    D = polynomial_diffusion([-0.25, 1.0])  # negative near x=0, clipped
    assert D.a(0.0) == pytest.approx(0.0)
    assert D.a(1.0) == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# Assembled problems


def test_problem_construction_errors():
    net = star_junction(3)
    hams = {e.id: eikonal() for e in net.edges}
    diffs = {e.id: constant_diffusion(0.0) for e in net.edges}
    with pytest.raises(ValueError):  # missing coupling
        NetworkProblem(net, 1.0, hams, diffs, {}, {1: 0.0, 2: 0.0, 3: 0.0})
    with pytest.raises(ValueError):  # wrong arity
        NetworkProblem(net, 1.0, hams, diffs,
                       {0: make_kirchhoff("classical", 2)},
                       {1: 0.0, 2: 0.0, 3: 0.0})
    with pytest.raises(ValueError):  # missing Dirichlet datum
        NetworkProblem(net, 1.0, hams, diffs,
                       {0: make_kirchhoff("classical", 3)}, {1: 0.0, 2: 0.0})
    with pytest.raises(InvalidCoefficientSign):
        NetworkProblem(net, 0.0, hams, diffs,
                       {0: make_kirchhoff("classical", 3)},
                       {1: 0.0, 2: 0.0, 3: 0.0})


def test_degenerate_set(catalog):
    assert catalog["star3_constant"].problem.degenerate_set(0) == (0, 1, 2)
    assert catalog["star3_mixed"].problem.degenerate_set(0) == (0,)
    assert catalog["star3_linear"].problem.degenerate_set(0) == ()
    with pytest.raises(VertexNotInterior):
        catalog["star3_constant"].problem.degenerate_set(1)


def test_validate_passes_on_catalog(catalog):
    for entry in catalog.values():
        report = validate_problem(entry.problem)
        assert report.ok, (entry.name, [e.name for e in report.failures()])


def test_validate_flags_wrong_lipschitz_constant():
    """H = p^2 is not Lipschitz in p with constant 1; the validator must
    report the violation with a witness rather than raise."""
    net = star_junction(2)
    bad = Hamiltonian(lambda x, p: np.asarray(p, dtype=float) ** 2, c_h=1.0)
    problem = NetworkProblem(
        net, 1.0,
        {e.id: bad for e in net.edges},
        {e.id: constant_diffusion(1.0) for e in net.edges},
        {0: make_kirchhoff("classical", 2)},
        {1: 0.0, 2: 0.0},
    )
    report = validate_problem(problem)
    assert not report.ok
    names = {e.name for e in report.failures()}
    assert "hamiltonian_lipschitz_p" in names
    witness = next(e for e in report.failures()
                   if e.name == "hamiltonian_lipschitz_p").witness
    assert witness is not None and witness["gap"] > 0


def _reference_edge_checks(H, D, length, resolution=16, p_range=8.0):
    """The edge checks as sequential scans, one H call per sample point or
    per x: the reference for validate_problem's first witnesses."""
    slack = 1e-9
    xs = np.linspace(0.0, length, resolution)
    ps = np.linspace(-p_range, p_range, 2 * resolution + 1)
    out = {}
    witness = None
    for p in ps:
        vals = np.array([float(H(x, p)) for x in xs])
        dx = np.abs(xs[:, None] - xs[None, :])
        dv = np.abs(vals[:, None] - vals[None, :])
        bound = H.c_h * (1.0 + abs(p)) * dx + slack
        bad = np.argwhere(dv > bound)
        if bad.size:
            i, j = bad[0]
            witness = {"x": float(xs[i]), "y": float(xs[j]), "p": float(p),
                       "gap": float(dv[i, j] - bound[i, j])}
            break
    out["hamiltonian_lipschitz_x"] = witness
    witness = None
    for x in xs:
        vals = np.asarray(H(x, ps), dtype=float)
        dp = np.abs(ps[:, None] - ps[None, :])
        dv = np.abs(vals[:, None] - vals[None, :])
        bad = np.argwhere(dv > H.c_h * dp + slack)
        if bad.size:
            i, j = bad[0]
            witness = {"x": float(x), "p": float(ps[i]), "q": float(ps[j]),
                       "gap": float(dv[i, j] - H.c_h * dp[i, j])}
            break
    out["hamiltonian_lipschitz_p"] = witness
    if H.coercive:
        witness = None
        for x in xs:
            vals = np.asarray(H(x, ps), dtype=float)
            lower = np.abs(ps) / H.c_h - H.c_h
            bad = np.argwhere(vals < lower - slack)
            if bad.size:
                i = bad[0][0]
                witness = {"x": float(x), "p": float(ps[i]),
                           "gap": float(lower[i] - vals[i])}
                break
        out["hamiltonian_coercive"] = witness
    sig = np.array([float(D.sigma(x)) for x in xs])
    witness = None
    if np.any(sig < -slack):
        i = int(np.argmin(sig))
        witness = {"x": float(xs[i]), "sigma": float(sig[i])}
    else:
        dx = np.abs(xs[:, None] - xs[None, :])
        ds = np.abs(sig[:, None] - sig[None, :])
        bad = np.argwhere(ds > D.c_a * dx + slack)
        if bad.size:
            i, j = bad[0]
            witness = {"x": float(xs[i]), "y": float(xs[j]),
                       "gap": float(ds[i, j] - D.c_a * dx[i, j])}
    out["diffusion_sigma_lipschitz"] = witness
    return out


def test_validate_first_witnesses_match_sequential_scans():
    """The tabulated edge checks report the first violation of the old
    per-sample scans, bit for bit, on Hamiltonians and diffusions that
    violate every edge check."""
    net = star_junction(3, lengths=[1.0, 0.7, 1.3])
    hams = [
        Hamiltonian(lambda x, p: 3.0 * np.abs(p) * (1 + x) - 1.0, c_h=2.0, coercive=True),
        Hamiltonian(lambda x, p: np.sin(7 * x) * (1 + np.abs(p)) + p, c_h=1.5),
        Hamiltonian(lambda x, p: 0.2 * np.abs(p) + x ** 2, c_h=1.2, coercive=True),
        eikonal(1.0, 1.0, c_h=0.6),
    ]
    diffs = [
        Diffusion(lambda x: 3.0 * np.sin(4 * np.asarray(x, dtype=float)), c_a=1.0),
        Diffusion(lambda x: np.asarray(x, dtype=float) - 0.5, c_a=1.0),
        polynomial_diffusion([0.0, 0.0, 4.0], c_a=0.5),
    ]
    failed = set()
    for k in range(len(hams)):
        h = {e: hams[(k + e) % len(hams)] for e in range(3)}
        d = {e: diffs[(k + e) % len(diffs)] for e in range(3)}
        problem = NetworkProblem(net, 1.0, h, d, {0: make_kirchhoff("classical", 3)},
                                 {1: 0.0, 2: 1.0, 3: 0.5})
        report = validate_problem(problem)
        for e in net.edges:
            got = {c.name: c.witness for c in report.entries
                   if c.location == f"edge {e.id}"}
            assert got == _reference_edge_checks(h[e.id], d[e.id], e.length), (k, e.id)
            failed |= {name for name, w in got.items() if w is not None}
    assert failed == {"hamiltonian_lipschitz_x", "hamiltonian_lipschitz_p",
                      "hamiltonian_coercive", "diffusion_sigma_lipschitz"}


def test_validate_flags_noncoercive_degenerate_edge():
    """A degenerate edge with a non-coercive Hamiltonian violates the
    standing assumption at its junction."""
    net = star_junction(2)
    problem = NetworkProblem(
        net, 1.0,
        {0: advection(1.0, 0.0), 1: eikonal()},
        {e.id: constant_diffusion(0.0) for e in net.edges},
        {0: make_kirchhoff("classical", 2)},
        {1: 0.0, 2: 0.0},
    )
    report = validate_problem(problem)
    names = {e.name for e in report.failures()}
    assert "steady_degenerate_coercive" in names
    assert "boundary_elliptic_or_coercive" in names


def test_validation_report_serializable(catalog):
    import json
    doc = validate_problem(catalog["star3_mixed"].problem).to_dict()
    json.dumps(doc)
    assert doc["ok"] is True


def test_problem_from_json():
    net = star_junction(2)
    doc = {
        "lambda": 1.5,
        "edges": {
            "0": {"hamiltonian": {"type": "eikonal", "c": 1.0, "f": 1.0},
                  "diffusion": {"type": "constant", "value": 0.0}},
            "1": {"hamiltonian": {"type": "advection", "b": 0.0, "f": -0.5},
                  "diffusion": {"type": "linear_vanish", "slope": 1.0}},
        },
        "kirchhoff": {"0": {"family": "affine", "alpha0": 0.2,
                            "alphas": [1.0, 2.0], "B": 0.1}},
        "dirichlet": {"1": 0.0, "2": 1.0},
    }
    problem = problem_from_json(doc, net)
    assert problem.lam == 1.5
    assert problem.hamiltonians[0].coercive
    assert problem.kirchhoff[0].family == "affine"
    assert problem.dirichlet[2] == 1.0
    assert problem.a_at_vertex(0, 1) == pytest.approx(0.0)
