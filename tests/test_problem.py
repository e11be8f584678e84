"""Problem data: Hamiltonians, envelopes, couplings, the frozen problem,
and the structure validator."""

import collections
import copy
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import knet.problem
from knet.catalog import all_entries, eikonal_problem, entry_by_name, random_problem
from knet.analysis import diagnostics_report
from knet.discretization import Grid, assemble, resolve_relaxed_edges
from knet.errors import InvalidCoefficientSign, VertexNotInterior
from knet.network import star_junction
from knet.problem import (
    ENVELOPE_LATTICE,
    Diffusion,
    Hamiltonian,
    KirchhoffCondition,
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
from knet.solver import solve_system


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
    with pytest.raises(ValueError):
        F(np.zeros(2), np.zeros((2, 2)))
    # a custom fn that sums over the whole batch instead of each row
    G = make_kirchhoff("custom", 3, fn=lambda r, p: -np.sum(p))
    assert G(0.0, (1.0, 1.0, 1.0)) == -3.0
    with pytest.raises(ValueError):
        G(np.zeros(2), np.ones((2, 3)))


@pytest.mark.parametrize("family", ["classical", "affine", "pm-split"])
@pytest.mark.parametrize("arity", [1, 2, 3, 9])
def test_kirchhoff_batch_equals_single_calls(family, arity):
    """A batch of K input sets gives, bit for bit, the K single values."""
    rng = np.random.default_rng(arity)
    F = make_kirchhoff(family, arity, B=0.3, alpha0=0.7,
                       alphas=rng.uniform(0.3, 2.0, arity),
                       betas=rng.uniform(0.3, 2.0, arity))
    r = rng.uniform(-5.0, 5.0, 40)
    p = rng.uniform(-5.0, 5.0, (40, arity)) * 10.0 ** rng.uniform(-3, 3, (40, arity))
    batch = F(r, p)
    assert batch.shape == (40,)
    assert isinstance(F(r[0], p[0]), float)
    assert batch.tolist() == [F(rk, pk) for rk, pk in zip(r, p)]


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


def test_sampled_envelope_is_monotone_in_q():
    """The sampled envelopes of a custom |p| - 1 are monotone in q on
    4000 steps of [-2, 2] and within 9.4e-3 of the exact eikonal ones (the
    lattice that moved with q gave both a rise and that error); star3_mixed
    with every H rebuilt as a custom one certifies at n = 11, 21 and 41
    (the moving lattice failed n = 21 with the junction's relaxed clause)."""
    H = Hamiltonian(lambda x, p: np.abs(p) - 1.0, c_h=1.0, coercive=True)
    exact = eikonal(1.0, 1.0)
    q = np.linspace(-2.0, 2.0, 4001)
    below, above = H.min_below(0.0, q), H.min_above(0.0, q)
    assert np.all(np.diff(below) <= 0.0) and np.all(np.diff(above) >= 0.0)
    assert np.max(np.abs(below - exact.min_below(0.0, q))) <= 9.4e-3
    assert np.max(np.abs(above - exact.min_above(0.0, q))) <= 9.4e-3
    problem = entry_by_name("star3_mixed").problem
    custom = dataclasses.replace(problem, hamiltonians={
        eid: Hamiltonian(ham, c_h=ham.c_h, coercive=ham.coercive, lipschitz_p=ham.lipschitz_p)
        for eid, ham in problem.hamiltonians.items()})
    for n in (11, 21, 41):
        system = assemble(custom, Grid(custom.network, n), probe_samples=0)
        assert not system.stencil_certificate()
        assert system.certify_monotone() is None, n


HAMILTONIANS = [
    eikonal(2.0, 1.0), eikonal(0.7, -0.4), advection(2.0, -0.5), advection(-1.0, 0.25),
    advection(0.0, 0.3), advection(0.0, lambda x: np.sin(x)),
    advection(-0.6, lambda x: np.cos(3 * x)),
    Hamiltonian(lambda x, p: np.abs(p) * (1 + x) - 0.5, c_h=2.0, coercive=True),
    Hamiltonian(lambda x, p: np.sin(3 * x) + 0.3 * p ** 2 - p, c_h=3.0),
]


def _hamiltonian_id(H):
    return H.name if H.name != "custom" else "sampled"


@pytest.mark.parametrize("H", HAMILTONIANS, ids=_hamiltonian_id)
def test_envelopes_take_arrays(H):
    """min_below and min_above on an array of slopes equal their values at
    each slope alone, element by element."""
    q = np.concatenate([np.linspace(-6.0, 6.0, 25), [-0.0, 1e-12, -40.0]])
    for x in (0.0, 0.35):
        for env in (H.min_below, H.min_above):
            batch = env(x, q)
            assert np.shape(batch) == q.shape
            single = [env(x, float(qk)) for qk in q]
            assert all(isinstance(v, float) for v in single)
            assert batch.tolist() == single, (x, env.__name__)


@pytest.mark.parametrize("H", [H for H in HAMILTONIANS if H.family != "custom"],
                         ids=_hamiltonian_id)
def test_family_facts_agree_with_fn(H):
    """What a built-in derives from its (family, params) record agrees with
    its fn: the closed-form envelopes with the sampled ones, to within the
    sampled lattice's resolution; slope_bound with the largest sampled
    |dH/dp|; affine data, advection's alone, with the values of fn."""
    q = np.linspace(-6.0, 6.0, 25)
    ps = np.linspace(-8.0, 8.0, 321)
    nodes = H.c_h * ENVELOPE_LATTICE
    for x in (0.0, 0.35, 1.0):
        # the widest lattice gap that reaches into [-|q| - span, |q| + span],
        # which holds every slope that can beat H(q)
        reach = np.abs(q) + H.c_h * (H.c_h + np.maximum(H(x, q), 0.0)) + 1.0
        near = np.minimum(np.abs(nodes[:-1]), np.abs(nodes[1:])) <= reach[:, None]
        step = np.max(np.where(near, np.diff(nodes), 0.0), axis=1)
        for below, exact in ((True, H.min_below(x, q)), (False, H.min_above(x, q))):
            sampled = H._sampled_envelope(x, q, below)
            assert np.all(exact <= sampled + 1e-12), (x, below)
            finite = np.isfinite(exact)
            assert np.all(sampled[finite] - exact[finite] <= H.slope_bound * step[finite] + 1e-12)
        hs = H(x, ps)
        assert np.max(np.abs(np.diff(hs)) / np.diff(ps)) == pytest.approx(H.slope_bound, abs=1e-12)
        if H.family == "advection":
            b, f = H.affine
            assert np.array_equal(b * ps + f(x), hs)
        else:
            assert H.affine is None


def test_records_change_only_by_replace():
    """A field of a Hamiltonian or coupling record changes only through
    dataclasses.replace, which derives the facts anew; assigning one in
    place raises, so no derived fact can disagree with fn."""
    for record in (eikonal(2.0), make_kirchhoff("affine", 2, alphas=(1.0, 2.0))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.fn = lambda *args: 0.0
    assert dataclasses.replace(eikonal(2.0), params={"speed": 3.0, "rhs": 0.0}).slope_bound == 3.0


def test_record_params_are_read_only():
    """params is a read-only mapping whose lists are tuples, so no write in
    place can leave a record's facts behind its params, as one once moved
    star3_linear's direct oracle but not its scheme.  replace(params=...)
    derives the facts anew, params still spread into a JSON config, and a
    problem still deep-copies."""
    problem = entry_by_name("star3_linear").problem
    cond = make_kirchhoff("pm-split", 3, B=0.2, alphas=[1, 2, 3])
    for params, key in ((problem.kirchhoff[0].params, "B"), (problem.hamiltonians[0].params, "b"),
                        (cond.params, "alphas"), (cond.params["alphas"], 0)):
        with pytest.raises(TypeError):
            params[key] = 5.0
    direct = KirchhoffCondition(3, None, "affine", {"B": 0.2, "alpha0": 0.0, "alphas": [1.0, 2.0, 3.0]})
    assert cond.params["alphas"] == direct.params["alphas"] == (1.0, 2.0, 3.0)
    assert json.loads(json.dumps({**cond.params})) == {
        "B": 0.2, "alpha0": 0.0, "alphas": [1.0, 2.0, 3.0], "betas": [1.0, 1.0, 1.0]}
    bumped = dataclasses.replace(cond, params={**cond.params, "B": 5.0})
    assert (cond(0.0, np.zeros(3)), bumped(0.0, np.zeros(3))) == (-0.2, -5.0)
    assert copy.deepcopy(problem).kirchhoff == problem.kirchhoff


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
    for lam in (0.0, float("inf"), float("nan")):
        with pytest.raises(InvalidCoefficientSign, match="lam must be finite and positive"):
            NetworkProblem(net, lam, hams, diffs,
                           {0: make_kirchhoff("classical", 3)},
                           {1: 0.0, 2: 0.0, 3: 0.0})
    for g in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="no finite Dirichlet datum at vertex 3"):
            NetworkProblem(net, 1.0, hams, diffs,
                           {0: make_kirchhoff("classical", 3)}, {1: 0.0, 2: 0.0, 3: g})


def test_problem_is_frozen_with_read_only_maps():
    """A problem's maps are read-only copies made at construction and its
    fields cannot be reassigned, so the tables built from it stay true;
    copy.deepcopy and dataclasses.replace still give working problems."""
    problem = entry_by_name("star3_mixed").problem
    hams = dict(problem.hamiltonians)
    built = dataclasses.replace(problem, hamiltonians=hams)
    hams[0] = eikonal(3.0)
    assert built.hamiltonians[0] is problem.hamiltonians[0]
    for name, key, value in (("hamiltonians", 0, eikonal(2.0)), ("diffusions", 0, constant_diffusion(0.5)),
                             ("kirchhoff", 0, make_kirchhoff("classical", 3)), ("dirichlet", 1, 7.0)):
        with pytest.raises(TypeError):
            getattr(problem, name)[key] = value
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(problem, name, {})
    with pytest.raises(dataclasses.FrozenInstanceError):
        problem.lam = 2.0
    deep = copy.deepcopy(problem)
    assert deep is not problem and deep.hamiltonians == problem.hamiltonians
    assert deep.dirichlet == problem.dirichlet and deep.kirchhoff == problem.kirchhoff
    assert validate_problem(deep).to_dict() == validate_problem(problem).to_dict()
    assert deep.degenerate_set(0) == problem.degenerate_set(0) == (0,)
    changed = dataclasses.replace(problem, lam=2.0, dirichlet={**problem.dirichlet, 1: 7.0})
    assert (changed.lam, changed.dirichlet[1], problem.lam, problem.dirichlet[1]) == (2.0, 7.0, 1.0, 0.3)
    with pytest.raises(TypeError):
        changed.dirichlet[1] = 0.0


def test_diffusion_is_frozen():
    """A Diffusion's fields cannot be reassigned, so the problem's
    a_at_incidence table stays true (assigning sigma on star3_eikonal's
    edge 0 used to leave the junction's table at 0.0 while a gave 0.5);
    copy.deepcopy and dataclasses.replace still give working diffusions."""
    problem = entry_by_name("star3_eikonal").problem
    diffusion = problem.diffusions[0]
    inc = problem.network.incidence[0][0]
    before = problem.a_at_incidence(inc)
    for name, value in (("sigma", constant_diffusion(0.5).sigma), ("c_a", 2.0), ("name", "x")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(diffusion, name, value)
    assert problem.a_at_incidence(inc) == before == diffusion.a(inc.vertex_param) == 0.0
    x = np.linspace(0.0, 1.0, 5)
    for d in (constant_diffusion(0.25), linear_vanish(2.0, 1.0, "high"),
              polynomial_diffusion([0.1, 1.0])):
        deep = copy.deepcopy(d)
        assert deep is not d and (deep.c_a, deep.name) == (d.c_a, d.name)
        np.testing.assert_array_equal(deep.a(x), d.a(x))
        changed = dataclasses.replace(d, c_a=7.0)
        assert changed.c_a == 7.0 != d.c_a and changed.name == d.name
        np.testing.assert_array_equal(changed.a(x), d.a(x))
        with pytest.raises(dataclasses.FrozenInstanceError):
            changed.sigma = None


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


def _squared_problem():
    """A two-edge star with H = p^2 declared Lipschitz with constant 1."""
    net = star_junction(2)
    bad = Hamiltonian(lambda x, p: np.asarray(p, dtype=float) ** 2, c_h=1.0)
    return NetworkProblem(
        net, 1.0,
        {e.id: bad for e in net.edges},
        {e.id: constant_diffusion(1.0) for e in net.edges},
        {0: make_kirchhoff("classical", 2)},
        {1: 0.0, 2: 0.0},
    )


def _noncoercive_degenerate_problem():
    """A two-edge star whose degenerate edge 0 carries a non-coercive H."""
    net = star_junction(2)
    return NetworkProblem(
        net, 1.0,
        {0: advection(1.0, 0.0), 1: eikonal()},
        {e.id: constant_diffusion(0.0) for e in net.edges},
        {0: make_kirchhoff("classical", 2)},
        {1: 0.0, 2: 0.0},
    )


def test_validate_flags_wrong_lipschitz_constant():
    """H = p^2 is not Lipschitz in p with constant 1; the validator must
    report the violation with a witness rather than raise."""
    report = validate_problem(_squared_problem())
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


def _failing_problems():
    """The hand-made failing problems, then stars whose Hamiltonians and
    diffusions violate every edge check between them."""
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
    return [_squared_problem(), _noncoercive_degenerate_problem()] + [
        NetworkProblem(net, 1.0, {e: hams[(k + e) % len(hams)] for e in range(3)},
                       {e: diffs[(k + e) % len(diffs)] for e in range(3)},
                       {0: make_kirchhoff("classical", 3)}, {1: 0.0, 2: 1.0, 3: 0.5})
        for k in range(len(hams))]


def test_validate_first_witnesses_match_sequential_scans():
    """The tabulated edge checks report the first violation of the old
    per-sample scans, bit for bit, on the failing problems."""
    problems = _failing_problems()
    failed = set()
    for k, problem in enumerate(problems):
        report = validate_problem(problem)
        for e in problem.network.edges:
            got = {c.name: c.witness for c in report.entries
                   if c.location == f"edge {e.id}"}
            assert got == _reference_edge_checks(problem.hamiltonians[e.id],
                                                 problem.diffusions[e.id], e.length), (k, e.id)
            failed |= {name for name, w in got.items() if w is not None}
    assert failed == {"hamiltonian_lipschitz_x", "hamiltonian_lipschitz_p",
                      "hamiltonian_coercive", "diffusion_sigma_lipschitz"}


def _argwhere_first(bad):
    """validate_problem's first hit as np.argwhere's first row."""
    return tuple(np.argwhere(bad)[0])


def test_validate_first_hits_match_argwhere_scan(monkeypatch):
    """Reports on random_problem draws 0..59 and on the failing problems are
    the same, to the bit, when every check's first hit comes from
    np.argwhere."""
    problems = [random_problem(np.random.default_rng(s)) for s in range(60)] + _failing_problems()
    got = [repr(validate_problem(p).to_dict()) for p in problems]
    monkeypatch.setattr(knet.problem, "_first_hit", _argwhere_first)
    assert got == [repr(validate_problem(p).to_dict()) for p in problems]
    assert sum(doc.count("'gap'") for doc in got) > 10


def _reference_coupling_checks(problem, p_range=8.0, slack=1e-9):
    """The coupling checks as sample-by-sample scans, one generator
    draw at a time: the reference for validate_problem's vertex entries."""
    rng = np.random.default_rng(0)
    out = {}
    for v in problem.network.interior_vertices:
        F, n, witness = problem.kirchhoff[v.id], problem.kirchhoff[v.id].arity, None
        for _ in range(64):
            s = rng.uniform(-p_range, p_range)
            r = s + rng.uniform(0.0, p_range)
            q = rng.uniform(-p_range, p_range, size=n)
            p = q - rng.uniform(0.0, p_range, size=n)
            if F(r, p) < F(s, q) - slack:
                witness = {"r": r, "s": s, "p": p.tolist(), "q": q.tolist()}
                break
            if np.any(p < q) and F(r, p) <= F(s, q):
                witness = {"r": r, "s": s, "p": p.tolist(), "q": q.tolist(),
                           "strict": False}
                break
        out[("kirchhoff_monotone", v.id)] = witness
        witness = None
        for i in range(n):
            probe = np.zeros(n)
            probe[i] = -1e6
            if F(0.0, probe) < 1e3:
                witness = {"component": i, "value": F(0.0, probe)}
                break
        out[("kirchhoff_coercive", v.id)] = witness
    return out


def test_validate_coupling_witnesses_match_sample_loop():
    """The coupling checks, drawn and evaluated in one batch per vertex,
    report the sample-by-sample scan's first witnesses, and a failing
    vertex leaves the generator where the scan stops: on graph5 every
    junction fails, at a later sample, with and without strictness."""
    problem = entry_by_name("graph5_constant").problem
    fns = [
        lambda r, p: np.where(r < 9.0, r - np.sum(p, axis=-1), -100.0),
        lambda r, p: np.where(r > 3.0, 0.0 * r, r - np.sum(p, axis=-1)),
        lambda r, p: 0.0 * r,
    ]
    for shift in range(3):
        kirch = {vid: make_kirchhoff("custom", cond.arity, fn=fns[(k + shift) % 3])
                 for k, (vid, cond) in enumerate(problem.kirchhoff.items())}
        custom = NetworkProblem(problem.network, problem.lam, problem.hamiltonians,
                                problem.diffusions, kirch, problem.dirichlet)
        got = {(e.name, int(e.location.split()[1])): e.witness
               for e in validate_problem(custom).entries if e.name.startswith("kirchhoff")}
        reference = _reference_coupling_checks(custom)
        assert got == reference, shift
        assert all(reference[("kirchhoff_monotone", vid)] for vid in kirch)
        assert {reference[("kirchhoff_monotone", vid)].get("strict") for vid in kirch} == {
            None, False}


def _failing_builtin_problems():
    """Stars whose built-in Hamiltonians fail a check: speed > c_h (the
    p-check), an advection declared coercive, and a coercive eikonal with
    speed < 1/c_h; each failing edge next to a passing one."""
    net = star_junction(3, lengths=[1.0, 0.7, 1.3])
    hams = [eikonal(2.0, 1.0, c_h=1.5),
            Hamiltonian(None, 2.0, True, None, "advection", {"b": 1.0, "f": 0.5}),
            eikonal(0.3, 1.0, c_h=2.0), advection(-1.0, 0.25)]
    return [NetworkProblem(net, 1.0, {e: hams[(k + e) % len(hams)] for e in range(3)},
                           {e: constant_diffusion(0.0) for e in range(3)},
                           {0: make_kirchhoff("pm-split", 3, B=0.3, alpha0=0.5, alphas=[1, 2, 3])},
                           {1: 0.0, 2: 1.0, 3: 0.5})
            for k in range(len(hams))]


def _custom_twin(problem):
    """problem with every Hamiltonian and coupling made custom, with the
    same function: the validator scans all of them."""
    return dataclasses.replace(
        problem, hamiltonians={e: dataclasses.replace(H, fn=H) for e, H in problem.hamiltonians.items()},
        kirchhoff={v: dataclasses.replace(F, fn=F) for v, F in problem.kirchhoff.items()})


def test_builtin_records_validate_as_their_custom_twins():
    """Checks decided from a built-in record's facts give the entries its
    custom twin's scans give, witnesses and all: on the catalog, draws
    0..59, the eikonal family (seeds 0..19, B = 0 and -0.5), the failing
    problems and built-ins whose facts fail."""
    problems = ([e.problem for e in all_entries()]
                + [random_problem(np.random.default_rng(s)) for s in range(60)]
                + [eikonal_problem(np.random.default_rng(s), B=b) for s in range(20) for b in (0.0, -0.5)]
                + _failing_problems() + _failing_builtin_problems())
    failed = set()
    for k, problem in enumerate(problems):
        twin = _custom_twin(problem)
        assert all(H.table is None for H in twin.hamiltonians.values())
        report = validate_problem(problem).to_dict()
        assert report == validate_problem(twin).to_dict(), k
        failed |= {e["name"] for e in report["entries"] if e["witness"] and e["verdict"] == "FAIL"}
    assert {"hamiltonian_lipschitz_x", "hamiltonian_lipschitz_p", "hamiltonian_coercive"} <= failed
    for problem in _failing_builtin_problems():
        assert any(e.name.startswith("hamiltonian") for e in validate_problem(problem).failures())


def test_validate_evaluates_builtin_hamiltonians_at_three_slopes(monkeypatch):
    """On the catalog, every Hamiltonian is built in, and validate_problem
    evaluates each at 3 slopes at most (a scan would take 16 x 33)."""
    slopes = collections.Counter()
    original = Hamiltonian.__call__

    def counted(self, x, p):
        slopes[id(self)] += np.size(p)
        return original(self, x, p)
    monkeypatch.setattr(Hamiltonian, "__call__", counted)
    for entry in all_entries():
        hams = entry.problem.hamiltonians.values()
        assert all(H.table is not None for H in hams), entry.name
        slopes.clear()
        validate_problem(entry.problem)
        assert max(slopes[id(H)] for H in hams) <= 3, entry.name
        assert slopes[id(entry.problem.hamiltonians[0])] == (3 if entry.problem.hamiltonians[0].coercive else 0)


def test_custom_junction_after_a_builtin_one_keeps_its_witness():
    """A built-in coupling, decided by its invariants, still draws its 64
    samples: a custom vertex after it reports the sample-by-sample scan's
    witness, which draws through every vertex."""
    problem = entry_by_name("graph5_constant").problem
    first, *rest = problem.kirchhoff
    assert rest and problem.kirchhoff[first].fn is None
    kirch = {**problem.kirchhoff, **{vid: make_kirchhoff(
        "custom", problem.kirchhoff[vid].arity, fn=lambda r, p: np.where(r < 9.0, r - np.sum(p, axis=-1), -100.0))
        for vid in rest}}
    custom = dataclasses.replace(problem, kirchhoff=kirch)
    got = {(e.name, int(e.location.split()[1])): e.witness
           for e in validate_problem(custom).entries if e.name.startswith("kirchhoff")}
    reference = _reference_coupling_checks(custom)
    assert got == reference
    assert reference[("kirchhoff_monotone", first)] is None
    assert all(reference[("kirchhoff_monotone", vid)] for vid in rest)


def test_validate_flags_noncoercive_degenerate_edge():
    """A degenerate edge with a non-coercive Hamiltonian violates the
    standing assumption at its junction."""
    report = validate_problem(_noncoercive_degenerate_problem())
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
    assert problem.a_at_incidence(net.incidence[0][1]) == pytest.approx(0.0)


def _count_scalar_a_calls(problem) -> collections.Counter:
    """Wrap each of problem's diffusions so that a call of a at one point
    counts under (edge id, x); returns the counter.  A Diffusion is frozen,
    so the counted a is set with object.__setattr__."""
    calls = collections.Counter()
    for eid, diffusion in problem.diffusions.items():
        def counted(x, _eid=eid, _real=diffusion.a):
            if np.ndim(x) == 0:
                calls[_eid, float(x)] += 1
            return _real(x)
        object.__setattr__(diffusion, "a", counted)
    return calls


def test_incidence_diffusion_is_evaluated_once_per_problem():
    """a_at_incidence reads a table built on first use, so assembly under
    two eps, resolve_relaxed_edges, validate_problem,
    degenerate_set and the diagnostics evaluate each incidence's a once in
    all."""
    problem = entry_by_name("star3_loss_elliptic").problem
    calls = _count_scalar_a_calls(problem)
    for eps in (0.0, 0.5):
        system = assemble(problem, Grid(problem.network, 21), eps=eps)
        resolve_relaxed_edges(problem, eps)
    validate_problem(problem)
    for v in problem.network.interior_vertices:
        problem.degenerate_set(v.id)
    u = solve_system(system).u
    diagnostics_report(problem, u, system)
    incidences = {(inc.edge.id, inc.vertex_param)
                  for incs in problem.network.incidence.values() for inc in incs}
    assert {k: calls[k] for k in incidences} == dict.fromkeys(incidences, 1)


def test_problem_from_json_polynomial_diffusion():
    net = star_junction(2)
    spec = {"hamiltonian": {"type": "eikonal"},
            "diffusion": {"type": "polynomial", "coefficients": [-0.25, 1.0],
                          "C_a": 2.0}}
    doc = {"lambda": 1.0, "edges": {"0": spec, "1": spec},
           "kirchhoff": {"0": {"family": "classical"}},
           "dirichlet": {"1": 0.0, "2": 0.0}}
    diffusion = problem_from_json(doc, net).diffusions[0]
    x = np.linspace(0.0, 1.0, 9)
    np.testing.assert_array_equal(diffusion.a(x),
                                  polynomial_diffusion([-0.25, 1.0]).a(x))
    assert diffusion.c_a == 2.0
