"""Seeded random generators shared by the test suite, the rational inverse
of a period matrix that the lattice-search references bound by, the
length pairing in `Fraction`s that the cycle-integral references use, and
`bump`, one trapezoid on the zero function.

Random PL functions are built to be valid by construction: profiles on a
spanning tree are free, and each complement edge gets a two-slope profile
solving the continuity equation exactly (integer slopes s and s+1 around
the rational gap).  Their divisors are therefore principal by construction,
which gives an endless supply of round-trip instances.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from tropicurve.divisors import EdgeProfile, PLFunction, RayProfile
from tropicurve.graphs import MetricGraph, build_graph
from tropicurve.linalg import integer_inverse


def random_length(rng: random.Random, max_den: int = 4) -> Fraction:
    den = rng.choice([1, 2, 4][: max_den.bit_length()])
    return Fraction(rng.randrange(1, 4 * den + 1), den)


def random_graph(rng: random.Random) -> MetricGraph:
    kind = rng.choice(["path", "circle", "theta", "dumbbell", "spider", "cycle-chord"])
    L = lambda: random_length(rng)
    if kind == "path":
        n = rng.randrange(2, 5)
        verts = [f"v{i}" for i in range(n)]
        edges = [(f"e{i}", f"v{i}", f"v{i+1}", L()) for i in range(n - 1)]
        return build_graph(verts, edges)
    if kind == "circle":
        n = rng.randrange(2, 5)
        verts = [f"v{i}" for i in range(n)]
        edges = [(f"e{i}", f"v{i}", f"v{(i+1) % n}", L()) for i in range(n)]
        return build_graph(verts, edges)
    if kind == "theta":
        return build_graph(
            ["u", "v"],
            [("e0", "u", "v", L()), ("e1", "u", "v", L()), ("e2", "u", "v", L())],
        )
    if kind == "dumbbell":
        return build_graph(
            ["u", "v"],
            [("l0", "u", "u", L()), ("bar", "u", "v", L()), ("l1", "v", "v", L())],
        )
    if kind == "spider":
        n = rng.randrange(3, 6)
        verts = ["c"] + [f"t{i}" for i in range(n)]
        edges = [(f"s{i}", "c", f"t{i}", L()) for i in range(n)]
        return build_graph(verts, edges)
    # circle with a chord
    return build_graph(
        ["a", "b", "c"],
        [
            ("e0", "a", "b", L()),
            ("e1", "b", "c", L()),
            ("e2", "c", "a", L()),
            ("chord", "a", "b", L()),
        ],
    )


def _random_tree_profile(rng: random.Random, length: Fraction, start: Fraction) -> EdgeProfile:
    n_breaks = rng.randrange(0, 3)
    cuts = sorted(
        {length * Fraction(rng.randrange(1, 8), 8) for _ in range(n_breaks)}
    )
    slopes = tuple(rng.randrange(-2, 3) for _ in range(len(cuts) + 1))
    return EdgeProfile(start, tuple(cuts), slopes)


def _completion_profile(length: Fraction, start: Fraction, gap: Fraction) -> EdgeProfile:
    """Integer-slope profile from start climbing exactly `gap` over `length`."""
    lo = gap / length
    s2 = lo.numerator // lo.denominator  # floor
    x = gap - s2 * length
    if x == 0:
        return EdgeProfile(start, (), (s2,))
    return EdgeProfile(start, (x,), (s2 + 1, s2))


def ladder(rng: random.Random, rungs: int) -> MetricGraph:
    """Two rails of `rungs` vertices and a rung at every position: genus
    rungs - 1, lengths 1 to 3."""
    edges = []
    for i in range(rungs):
        edges.append((f"r{i}", f"u{i}", f"w{i}", rng.randrange(1, 4)))
        if i + 1 < rungs:
            edges.append((f"a{i}", f"u{i}", f"u{i + 1}", rng.randrange(1, 4)))
            edges.append((f"b{i}", f"w{i}", f"w{i + 1}", rng.randrange(1, 4)))
    return build_graph([f"{side}{i}" for side in "uw" for i in range(rungs)], edges)


def random_tree(rng: random.Random, graph: MetricGraph) -> list[str]:
    """Kruskal over the edges in a random order: a spanning tree, often
    neither the breadth-first one nor Kruskal's by edge id, for the
    references that build a `CycleSpace` on a given tree."""
    parent = {v: v for v in graph.vertices}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    tree = []
    for eid in rng.sample(sorted(graph.edges), len(graph.edges)):
        e = graph.edges[eid]
        ra, rb = find(e.a), find(e.b)
        if ra != rb:
            parent[ra] = rb
            tree.append(eid)
    return tree


def random_pl_function(rng: random.Random, graph: MetricGraph) -> PLFunction:
    tree = graph.canonical_spanning_tree()
    tset = set(tree)
    vals: dict[str, Fraction] = {graph.vertices[0]: Fraction(0)}
    profiles: dict[str, EdgeProfile] = {}
    # walk the tree, choosing free profiles as we go
    stack = [graph.vertices[0]]
    seen_edges = set()
    while stack:
        v = stack.pop()
        for eid, w in graph.adjacency[v]:
            if eid not in tset or eid in seen_edges:
                continue
            seen_edges.add(eid)
            e = graph.edges[eid]
            if e.a == v:
                prof = _random_tree_profile(rng, e.length, vals[v])
                vals[e.b] = prof.end_value(e.length)
            else:
                prof = _random_tree_profile(rng, e.length, Fraction(0))
                prof = EdgeProfile(
                    vals[v] - (prof.end_value(e.length) - prof.start),
                    prof.breaks,
                    prof.slopes,
                )
                vals[e.a] = prof.start
            profiles[eid] = prof
            stack.append(w)
    for eid, e in graph.edges.items():
        if eid in profiles:
            continue
        profiles[eid] = _completion_profile(e.length, vals[e.a], vals[e.b] - vals[e.a])
    return PLFunction(graph, profiles, {})


def negated(f: PLFunction) -> PLFunction:
    """-f, built from the negated profiles and checked for continuity."""
    profiles = {eid: EdgeProfile(-p.start, p.breaks, tuple(-s for s in p.slopes)) for eid, p in f.edge_profiles.items()}
    rays = {rid: RayProfile(-p.start, -p.slope) for rid, p in f.ray_profiles.items()}
    return PLFunction(f.domain, profiles, rays)


def bump(domain, frame: str, offsets, slope: int = 1) -> PLFunction:
    """The zero function plus one trapezoid in `frame`."""
    return PLFunction.zero(domain).add_trapezoids([(frame, offsets, slope)])


def period_inverse(period: list[list[Fraction]]) -> list[list[Fraction]]:
    """period^-1 in `Fraction`s, from the integer inverse of D * period, D
    the common denominator of its entries."""
    den = math.lcm(*(p.denominator for row in period for p in row))
    m, q = integer_inverse([[int(p * den) for p in row] for row in period])
    return [[Fraction(v * den, q) for v in row] for row in m]


def length_pairing(cs, chain) -> list[Fraction]:
    """sum_e L_e chain(e) z_i(e) with each cycle z_i of the cycle space cs,
    summed in `Fraction`s."""
    lengths = {eid: e.length for eid, e in cs.edges.items()}
    return [sum((lengths[eid] * c * chain.get(eid, 0) for eid, c in cyc.items()), Fraction(0)) for cyc in cs.cycles]
