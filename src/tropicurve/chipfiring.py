"""Chip-firing on the discretized model of a metric graph.

Lattice-supported divisors live on the discrete graph obtained by cutting
every edge into unit segments of a common spacing.  Linear equivalence of
lattice divisors on the metric graph coincides with discrete chip-firing
equivalence there, which gives an independent verification route: the
reduced-Laplacian solve decides equivalence, and Dhar's burning algorithm
computes q-reduced representatives.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import InvalidOffset, WrongDegree
from .graphs import GraphPoint, MetricGraph
from .linalg import solve_linear

Q_REDUCED_ROUNDS = 100_000  # rounds per phase of `q_reduced`, against a runaway loop


class DiscreteGraph:
    """Small connected multigraph with integer chip counts on vertices."""

    def __init__(self, n: int, edges: Sequence[tuple[int, int]]):
        self.n = n
        self.edges = list(edges)
        self.adj: list[dict[int, int]] = [dict() for _ in range(n)]
        for u, v in edges:
            self.adj[u][v] = self.adj[u].get(v, 0) + 1
            self.adj[v][u] = self.adj[v].get(u, 0) + 1
        self.deg = [sum(self.adj[u].values()) for u in range(n)]

    def genus(self) -> int:
        return len(self.edges) - self.n + 1


def lattice_spacing(graph: MetricGraph, divisors) -> Fraction:
    """1 / lcm of all denominators appearing in lengths and support offsets."""
    dens = [e.length.denominator for e in graph.edges.values()]
    for d in divisors:
        for pt, _c in d.terms:
            if not pt.is_vertex:
                dens.append(pt.offset.denominator)
    return Fraction(1, lcm(*dens)) if dens else Fraction(1)


def lattice_model(graph: MetricGraph, spacing: Fraction):
    """Discretize; returns (DiscreteGraph, locate) where locate maps a
    canonical GraphPoint with lattice-rational position to its index."""
    index: dict = {}
    for v in graph.vertices:
        index[("v", v)] = len(index)
    edges = []
    for eid in sorted(graph.edges):
        e = graph.edges[eid]
        steps = e.length / spacing
        if steps.denominator != 1:
            raise InvalidOffset(f"edge {eid!r} not divisible by spacing {spacing}")
        prev = index[("v", e.a)]
        for k in range(1, int(steps)):
            idx = len(index)
            index[("e", eid, k)] = idx
            edges.append((prev, idx))
            prev = idx
        edges.append((prev, index[("v", e.b)]))
    dg = DiscreteGraph(len(index), edges)

    def locate(pt: GraphPoint) -> int:
        cpt = graph.canonical_point(pt)
        if cpt.is_vertex:
            return index[("v", cpt.vertex)]
        k = cpt.offset / spacing
        if k.denominator != 1:
            raise InvalidOffset(f"point {cpt!r} is off the lattice")
        return index[("e", cpt.edge, int(k))]

    return dg, locate


def chips_of(dg: DiscreteGraph, locate, divisor) -> list[int]:
    chips = [0] * dg.n
    for pt, c in divisor.terms:
        chips[locate(pt)] += c
    return chips


def laplacian_equivalent(dg: DiscreteGraph, chips1: Sequence[int], chips2: Sequence[int]) -> bool:
    """chips1 ~ chips2 iff their difference is an integer Laplacian image.

    The reduced Laplacian (vertex 0 dropped) of a connected graph is
    nonsingular, so the difference is such an image exactly when the one
    solution is integral, in any order of rows and unknowns.  Its rows are
    ints, taken by increasing degree: on a lattice model the points inside
    edges come first, path by path, so a step of the forward elimination
    in `solve_linear`, which keeps each row's nonzero entries only, reads
    and rewrites just the next point of its path and the vertex where the
    path starts.  The rows stay about 2 entries wide, where a dense row
    holds one per lattice point."""
    if sum(chips1) != sum(chips2):
        return False
    order = sorted(range(1, dg.n), key=dg.deg.__getitem__)
    index = {v: i for i, v in enumerate(order)}
    rows = []
    for v in order:
        row = [0] * len(order)
        row[index[v]] = dg.deg[v]
        for w, mult in dg.adj[v].items():
            if w:
                row[index[w]] -= mult
        rows.append(row)
    sol = solve_linear(rows, [chips1[v] - chips2[v] for v in order])
    if sol is None:
        return False
    return all(x.denominator == 1 for x in sol)


def dhar_burnt(dg: DiscreteGraph, chips: Sequence[int], q: int) -> set[int]:
    """Vertices burnt by the fire started at q; everything burns iff the
    configuration is q-reduced (requires chips >= 0 away from q)."""
    burnt = {q}
    changed = True
    while changed:
        changed = False
        for v in range(dg.n):
            if v in burnt:
                continue
            incoming = sum(m for w, m in dg.adj[v].items() if w in burnt)
            if incoming > chips[v]:
                burnt.add(v)
                changed = True
    return burnt


def is_q_reduced(dg: DiscreteGraph, chips: Sequence[int], q: int) -> bool:
    if any(chips[v] < 0 for v in range(dg.n) if v != q):
        return False
    return len(dhar_burnt(dg, chips, q)) == dg.n


def q_reduced(dg: DiscreteGraph, chips: Sequence[int], q: int = 0) -> list[int]:
    """The unique q-reduced divisor equivalent to chips.

    Phase 1 clears debt off q by greedy borrowing (terminates because the
    moves form an abelian network with q as a sink); phase 2 fires unburnt
    sets from Dhar's algorithm until the fire consumes the whole graph.
    """
    chips = list(chips)
    for _ in range(Q_REDUCED_ROUNDS):
        debtors = [v for v in range(dg.n) if v != q and chips[v] < 0]
        if not debtors:
            break
        v = debtors[0]
        chips[v] += dg.deg[v]
        for w, mult in dg.adj[v].items():
            chips[w] -= mult
    else:  # pragma: no cover - guarded against runaway loops
        raise WrongDegree("debt clearing did not terminate")
    for _ in range(Q_REDUCED_ROUNDS):
        burnt = dhar_burnt(dg, chips, q)
        if len(burnt) == dg.n:
            return chips
        unburnt = [v for v in range(dg.n) if v not in burnt]
        for v in unburnt:
            chips[v] -= sum(m for w, m in dg.adj[v].items() if w in burnt)
            # edges inside the unburnt set cancel
        for v in burnt:
            chips[v] += sum(m for w, m in dg.adj[v].items() if w not in burnt)
    raise WrongDegree("superstabilization did not terminate")  # pragma: no cover
