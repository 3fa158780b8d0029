"""Seeded inputs for the three benchmark workloads.

The generators here are the benchmark's own copies of the skeleton and
PL-function generators of ``tests/randgen.py``, so that an edit to the test
helpers cannot silently change a workload.  Every input is a function of the
seed alone; the program under test only ever sees the generated objects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from tropicurve.divisors import (
    Divisor,
    EdgeProfile,
    PLFunction,
    RayProfile,
    divisor_of,
)
from tropicurve.graphs import GraphPoint, MetricGraph, build_extended, build_graph
from tropicurve.synthesis import tate_demo
from tropicurve.tropicalize import Embedding

V = GraphPoint.at_vertex
P = GraphPoint.on_edge

# Size of the seeded-skeleta corpus; seed 0 draws exactly the skeleta of
# random.Random(0) .. random.Random(39), the sweep recorded in ROADMAP.md.
SWEEP_SIZE = 40

KINDS = ["path", "circle", "theta", "dumbbell", "spider", "cycle-chord"]


# -- skeleta ------------------------------------------------------------------------------


def random_length(rng: random.Random, max_den: int = 4) -> Fraction:
    den = rng.choice([1, 2, 4][: max_den.bit_length()])
    return Fraction(rng.randrange(1, 4 * den + 1), den)


def random_graph(rng: random.Random, shape=None) -> tuple[MetricGraph, tuple]:
    """One skeleton from the randgen distribution, with its shape.

    The shape is ``(kind, n)``, ``n`` being the vertex or leg count where the
    kind draws one and ``None`` otherwise.  A given ``shape`` replaces the
    drawn kind and count after the draws are made, so the random stream is
    consumed exactly as in an unforced draw of that shape.
    """
    kind = rng.choice(KINDS)
    if shape is not None:
        kind = shape[0]
    L = lambda: random_length(rng)

    def count(lo, hi):
        n = rng.randrange(lo, hi)
        return n if shape is None else shape[1]

    if kind == "path":
        n = count(2, 5)
        verts = [f"v{i}" for i in range(n)]
        edges = [(f"e{i}", f"v{i}", f"v{i+1}", L()) for i in range(n - 1)]
        return build_graph(verts, edges), (kind, n)
    if kind == "circle":
        n = count(2, 5)
        verts = [f"v{i}" for i in range(n)]
        edges = [(f"e{i}", f"v{i}", f"v{(i+1) % n}", L()) for i in range(n)]
        return build_graph(verts, edges), (kind, n)
    if kind == "theta":
        g = build_graph(
            ["u", "v"],
            [("e0", "u", "v", L()), ("e1", "u", "v", L()), ("e2", "u", "v", L())],
        )
        return g, (kind, None)
    if kind == "dumbbell":
        g = build_graph(
            ["u", "v"],
            [("l0", "u", "u", L()), ("bar", "u", "v", L()), ("l1", "v", "v", L())],
        )
        return g, (kind, None)
    if kind == "spider":
        n = count(3, 6)
        verts = ["c"] + [f"t{i}" for i in range(n)]
        edges = [(f"s{i}", "c", f"t{i}", L()) for i in range(n)]
        return build_graph(verts, edges), (kind, n)
    g = build_graph(
        ["a", "b", "c"],
        [
            ("e0", "a", "b", L()),
            ("e1", "b", "c", L()),
            ("e2", "c", "a", L()),
            ("chord", "a", "b", L()),
        ],
    )
    return g, (kind, None)


def sweep_shapes() -> list[tuple]:
    """Shapes of the ROADMAP sweep, seeds 0..SWEEP_SIZE-1."""
    return [random_graph(random.Random(i))[1] for i in range(SWEEP_SIZE)]


def bare_skeleton(graph: MetricGraph) -> Embedding:
    """A ray at every leaf and no coordinates."""
    leaves = [v for v in graph.vertices if graph.valence(v) == 1]
    return Embedding(build_extended(graph, [(f"r{v}", V(v)) for v in leaves]), [])


# -- PL functions -------------------------------------------------------------------------


def _random_tree_profile(rng: random.Random, length: Fraction, start: Fraction) -> EdgeProfile:
    n_breaks = rng.randrange(0, 3)
    cuts = sorted({length * Fraction(rng.randrange(1, 8), 8) for _ in range(n_breaks)})
    slopes = tuple(rng.randrange(-2, 3) for _ in range(len(cuts) + 1))
    return EdgeProfile(start, tuple(cuts), slopes)


def _completion_profile(length: Fraction, start: Fraction, gap: Fraction) -> EdgeProfile:
    """Integer-slope profile from start climbing exactly `gap` over `length`."""
    lo = gap / length
    s2 = lo.numerator // lo.denominator
    x = gap - s2 * length
    if x == 0:
        return EdgeProfile(start, (), (s2,))
    return EdgeProfile(start, (x,), (s2 + 1, s2))


def random_pl_function(rng: random.Random, graph: MetricGraph) -> PLFunction:
    """Continuous PL function, free on a spanning tree and completed exactly
    on the complement edges; its divisor is principal by construction."""
    tree = set(graph.canonical_spanning_tree())
    vals: dict[str, Fraction] = {graph.vertices[0]: Fraction(0)}
    profiles: dict[str, EdgeProfile] = {}
    stack = [graph.vertices[0]]
    while stack:
        v = stack.pop()
        for eid, w in graph.adjacency[v]:
            if eid not in tree or eid in profiles:
                continue
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
        if eid not in profiles:
            profiles[eid] = _completion_profile(e.length, vals[e.a], vals[e.b] - vals[e.a])
    return PLFunction(graph, profiles, {})


# -- workload inputs ----------------------------------------------------------------------


def tate_leaf(c, attach: str, leaf_length) -> Embedding:
    """``tate_demo(c)`` plus a finite leaf edge at `attach` ending in a ray.

    Both coordinates are constant on the leaf and its ray, so the input is
    not fully faithful and both pipelines have work to do.
    """
    emb, _curve = tate_demo(c)
    skel = emb.skeleton
    fin = skel.finite
    edges = [(e.id, e.a, e.b, e.length) for e in fin.edges.values()]
    edges.append(("leaf", attach, "t", Fraction(leaf_length)))
    fin2 = build_graph(list(fin.vertices) + ["t"], edges)
    rays = [(r.id, V(r.attach)) for r in skel.rays.values()] + [("rt", V("t"))]
    skel2 = build_extended(fin2, rays)
    coords = []
    for f in emb.coords:
        val = f.vertex_value(attach)
        profiles = dict(f.edge_profiles)
        profiles["leaf"] = EdgeProfile(val, (), (0,))
        ray_profiles = dict(f.ray_profiles)
        ray_profiles["rt"] = RayProfile(val, 0)
        coords.append(PLFunction(skel2, profiles, ray_profiles))
    return Embedding(skel2, coords)


def tate_leaf_params(seed: int) -> tuple:
    """The seed's scale ``c``, attach vertex and leaf length."""
    rng = random.Random(seed)
    c = rng.choice([Fraction(1), Fraction(2), Fraction(3, 2), Fraction(3)])
    attach = rng.choice(["p4", "p5", "p6"])
    leaf = rng.choice([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)])
    return c, attach, leaf


def fig1_stars() -> list[Embedding]:
    """The two singular star vertices of the paper's Fig. 1: directions
    +-e1, +-e2 (middle) and (2,-1), (-1,2), (-1,-1) (right)."""
    out = []
    for directions in (
        [(1, 0), (-1, 0), (0, 1), (0, -1)],
        [(2, -1), (-1, 2), (-1, -1)],
    ):
        g = build_graph(["o"], [])
        rays = [(f"r{k}", V("o")) for k in range(len(directions))]
        skel = build_extended(g, rays)
        coords = [
            PLFunction(
                skel,
                {},
                {f"r{k}": RayProfile(Fraction(0), d[axis]) for k, d in enumerate(directions)},
            )
            for axis in (0, 1)
        ]
        out.append(Embedding(skel, coords))
    return out


@dataclass(frozen=True)
class SkeletonInput:
    slot: int
    shape: tuple
    genus: int
    embedding: Embedding


def seeded_skeleta(seed: int) -> list[SkeletonInput]:
    """The sweep's shapes, drawn from the seed's random stream.

    Slot i uses ``random.Random(seed * SWEEP_SIZE + i)`` and keeps the kind
    and size the sweep drew for slot i, so every seed has the same mix of
    genera and sizes and only the edge lengths change.
    """
    out = []
    for i, shape in enumerate(sweep_shapes()):
        graph, _ = random_graph(random.Random(seed * SWEEP_SIZE + i), shape)
        out.append(SkeletonInput(i, shape, graph.betti_number(), bare_skeleton(graph)))
    return out


def ladder(rng: random.Random, rungs: int) -> MetricGraph:
    """Two rails of `rungs` vertices joined by a rung at every position.

    Lengths are whole numbers from 1 to 4, so the cost of an exact solve
    depends on the ladder's size more than on the seed's denominators.
    """
    verts = [f"u{i}" for i in range(rungs)] + [f"w{i}" for i in range(rungs)]
    edges = []
    for i in range(rungs):
        edges.append((f"r{i}", f"u{i}", f"w{i}", rng.randrange(1, 5)))
        if i + 1 < rungs:
            edges.append((f"a{i}", f"u{i}", f"u{i+1}", rng.randrange(1, 5)))
            edges.append((f"b{i}", f"w{i}", f"w{i+1}", rng.randrange(1, 5)))
    return build_graph(verts, edges)


def break_chips(rng: random.Random, graph: MetricGraph) -> Divisor:
    """One chip at a half-integer point of each of g distinct edges.

    Every seed then subdivides the model at exactly g points, and the
    chip-firing cross-check always runs on a lattice of spacing 1/2.
    """
    g = graph.betti_number()
    chips = []
    for eid in rng.sample(sorted(graph.edges), g):
        length = graph.edges[eid].length
        chips.append((P(eid, rng.randrange(0, int(length)) + Fraction(1, 2)), 1))
    return Divisor(chips)


# Ladder sizes: 20 and 40 rungs give E = 58 and 118 (genus 19 and 39) for
# the principality solves; 3..5 rungs give genus 2..4 for break divisors.
# Divisors per ladder: a pass then has four E = 58 solves, two ops that are
# always cheaper (genus 2), three that are always dearer (genus 4, E = 118)
# and one whose cost overlaps theirs (genus 3).  The median op time is then
# the middle of the E = 58 solves for every seed.
PRINCIPAL_RUNGS = (20, 40)
BREAK_RUNGS = (3, 4, 5)
DIVISORS_PER_LADDER = {20: 2, 3: 2}


@dataclass(frozen=True)
class PrincipalInput:
    graph: MetricGraph
    divisor: Divisor
    principal: bool


@dataclass(frozen=True)
class BreakInput:
    graph: MetricGraph
    divisor: Divisor


def ladder_kernels(seed: int) -> tuple[list[PrincipalInput], list[BreakInput]]:
    """Per principality ladder, the divisor of a random PL function and its
    one-chip perturbation; per break ladder, g chips (see `break_chips`).

    Ladders are bridgeless, so ``(p) - (q)`` is never principal for p != q
    and the perturbed divisor is non-principal by construction.
    """
    rng = random.Random(seed)
    principal = []
    for rungs in PRINCIPAL_RUNGS:
        g = ladder(rng, rungs)
        for _ in range(DIVISORS_PER_LADDER.get(rungs, 1)):
            d = divisor_of(random_pl_function(rng, g))
            p, q = rng.sample(list(g.vertices), 2)
            principal.append(PrincipalInput(g, d, True))
            principal.append(PrincipalInput(g, d + Divisor([(V(p), 1), (V(q), -1)]), False))
    breaks = []
    for rungs in BREAK_RUNGS:
        g = ladder(rng, rungs)
        for _ in range(DIVISORS_PER_LADDER.get(rungs, 1)):
            breaks.append(BreakInput(g, break_chips(rng, g)))
    return principal, breaks
