"""Finite metric networks: vertices, edges with lengths, geodesic distance.

A network is a connected graph whose edges carry positive lengths and a
parametrization t in [0, len] running from the lower-id endpoint to the
higher-id endpoint.  Degree-1 vertices are boundary vertices, all others are
interior.  Only lengths and topology enter any computation; embedding
positions are optional metadata.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DisconnectedGraph,
    DuplicateEdge,
    IsolatedVertex,
    NonPositiveLength,
    PointsOnDifferentNetworks,
)

INTERIOR = "interior"
BOUNDARY = "boundary"


@dataclass(frozen=True)
class Vertex:
    id: int
    kind: str
    position: Optional[tuple] = None


@dataclass(frozen=True)
class Edge:
    id: int
    tail: int  # endpoint at t = 0, tail < head
    head: int  # endpoint at t = length
    length: float


@dataclass(frozen=True)
class NetworkPoint:
    """A point on a specific edge; vertex points are canonicalized."""

    edge_id: int
    t: float


@dataclass(frozen=True)
class Incidence:
    edge: Edge
    at_tail: bool  # True when the vertex sits at parameter 0

    @property
    def vertex_param(self) -> float:
        return 0.0 if self.at_tail else self.edge.length

    @property
    def sign(self) -> float:
        """+1 when inward coordinate increases with t, else -1."""
        return 1.0 if self.at_tail else -1.0


class Network:
    """Immutable metric graph; safe for concurrent read-only use."""

    def __init__(self, vertices: Sequence[Vertex], edges: Sequence[Edge]):
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self._vmap = {v.id: v for v in self.vertices}
        self._vidx = {v.id: i for i, v in enumerate(self.vertices)}
        self._emap = {e.id: e for e in self.edges}
        inc = {v.id: [] for v in self.vertices}
        for e in self.edges:
            inc[e.tail].append(Incidence(e, True))
            inc[e.head].append(Incidence(e, False))
        # deterministic component ordering for vertex couplings
        self.incidence = {
            vid: tuple(sorted(lst, key=lambda i: i.edge.id))
            for vid, lst in inc.items()
        }

    # -- lookups ------------------------------------------------------------

    def vertex(self, vid: int) -> Vertex:
        return self._vmap[vid]

    def edge(self, eid: int) -> Edge:
        return self._emap[eid]

    @property
    def interior_vertices(self):
        return tuple(v for v in self.vertices if v.kind == INTERIOR)

    @property
    def boundary_vertices(self):
        return tuple(v for v in self.vertices if v.kind == BOUNDARY)

    def degree(self, vid: int) -> int:
        return len(self.incidence[vid])

    @property
    def min_edge_length(self) -> float:
        return min(e.length for e in self.edges)

    # -- points -------------------------------------------------------------

    def point(self, edge_id: int, t: float) -> NetworkPoint:
        """Canonical representation: vertex points live on the lowest
        incident edge id."""
        e = self.edge(edge_id)
        if not -1e-12 <= t <= e.length + 1e-12:
            raise ValueError(f"parameter {t} outside [0, {e.length}]")
        t = min(max(t, 0.0), e.length)
        for vid, param in ((e.tail, 0.0), (e.head, e.length)):
            if t == param:
                return self.vertex_point(vid)
        return NetworkPoint(edge_id, t)

    def vertex_point(self, vid: int) -> NetworkPoint:
        inc = min(self.incidence[vid], key=lambda i: i.edge.id)
        return NetworkPoint(inc.edge.id, inc.vertex_param)

    def point_vertex(self, p: NetworkPoint) -> Optional[int]:
        """Vertex id when p sits on a vertex, else None."""
        e = self.edge(p.edge_id)
        if p.t == 0.0:
            return e.tail
        if p.t == e.length:
            return e.head
        return None

    # -- geodesic distance --------------------------------------------------

    @cached_property
    def vertex_distances(self) -> np.ndarray:
        """Geodesic distance between every two vertices, in vertex order, inf
        across components: Floyd-Warshall, one numpy relaxation per vertex."""
        d = np.full((len(self.vertices),) * 2, np.inf)
        np.fill_diagonal(d, 0.0)
        for e in self.edges:
            d[self._vidx[e.tail], self._vidx[e.head]] = e.length
            d[self._vidx[e.head], self._vidx[e.tail]] = e.length
        for k in range(len(d)):
            np.minimum(d, d[:, k, None] + d[k], out=d)
        return d

    def geodesic_distance(self, p: NetworkPoint, q: NetworkPoint) -> float:
        if p.edge_id not in self._emap or q.edge_id not in self._emap:
            raise PointsOnDifferentNetworks(
                f"edge ids {p.edge_id}, {q.edge_id} not on this network"
            )
        p = self.point(p.edge_id, p.t)
        q = self.point(q.edge_id, q.t)
        best = np.inf
        if p.edge_id == q.edge_id:
            best = abs(p.t - q.t)
        ep, eq = self.edge(p.edge_id), self.edge(q.edge_id)
        dv = self.vertex_distances
        idx = self._vidx
        for va, ta in ((ep.tail, p.t), (ep.head, ep.length - p.t)):
            for vb, tb in ((eq.tail, q.t), (eq.head, eq.length - q.t)):
                best = min(best, ta + dv[idx[va], idx[vb]] + tb)
        return float(best)


def build_network(vertex_specs, edge_specs) -> Network:
    """Assemble and validate a Network.

    vertex_specs: iterable of ints or dicts {"id": .., "position": ..}.
    edge_specs: iterable of (id, from, to, length) tuples or dicts.
    """
    raw_vertices = []
    for spec in vertex_specs:
        if isinstance(spec, dict):
            pos = spec.get("position")
            raw_vertices.append((int(spec["id"]), tuple(pos) if pos else None))
        else:
            raw_vertices.append((int(spec), None))
    vids = [vid for vid, _ in raw_vertices]
    if len(set(vids)) != len(vids):
        raise ValueError("duplicate vertex ids")

    edges = []
    seen_pairs = set()
    for spec in edge_specs:
        if isinstance(spec, dict):
            eid, a, b, length = (
                int(spec["id"]),
                int(spec["from"]),
                int(spec["to"]),
                float(spec["length"]),
            )
        else:
            eid, a, b, length = int(spec[0]), int(spec[1]), int(spec[2]), float(spec[3])
        if not 0 < length < np.inf:
            raise NonPositiveLength(f"edge {eid} has length {length}, not finite and > 0")
        if a == b:
            raise DuplicateEdge(f"edge {eid} is a self-loop at vertex {a}")
        pair = (min(a, b), max(a, b))
        if pair in seen_pairs:
            raise DuplicateEdge(f"multiple edges between vertices {pair}")
        seen_pairs.add(pair)
        edges.append(Edge(eid, pair[0], pair[1], length))
    if len({e.id for e in edges}) != len(edges):
        raise ValueError("duplicate edge ids")

    degree = {vid: 0 for vid in vids}
    for e in edges:
        if e.tail not in degree or e.head not in degree:
            raise ValueError(f"edge {e.id} references unknown vertex")
        degree[e.tail] += 1
        degree[e.head] += 1
    for vid, d in degree.items():
        if d == 0:
            raise IsolatedVertex(f"vertex {vid} has no incident edge")

    vertices = [
        Vertex(vid, INTERIOR if degree[vid] >= 2 else BOUNDARY, pos)
        for vid, pos in raw_vertices
    ]
    network = Network(vertices, edges)
    # the vertices of one component reach the same vertices
    ncomp = len(np.unique(np.isfinite(network.vertex_distances), axis=0))
    if ncomp != 1:
        raise DisconnectedGraph(f"{ncomp} components")
    return network


def star_junction(n_edges: int, lengths=None) -> Network:
    """Star network: center vertex 0, boundary vertices 1..n, unit lengths
    by default."""
    if lengths is None:
        lengths = [1.0] * n_edges
    vertex_specs = list(range(n_edges + 1))
    edge_specs = [(i, 0, i + 1, lengths[i]) for i in range(n_edges)]
    return build_network(vertex_specs, edge_specs)


def network_from_json(doc) -> Network:
    """Build a Network from a JSON document (dict, JSON string, or path)."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError:
            with open(doc) as fh:
                doc = json.load(fh)
    return build_network(doc["vertices"], doc["edges"])
