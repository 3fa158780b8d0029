import gc
import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from tropicurve import breakdiv
from tropicurve.breakdiv import BreakCheck, break_divisor_decompose, is_break_divisor
from tropicurve.chipfiring import (
    chips_of,
    dhar_burnt,
    is_q_reduced,
    laplacian_equivalent,
    lattice_model,
    lattice_spacing,
    q_reduced,
    DiscreteGraph,
)
from tropicurve.divisors import Divisor, divisor_of, is_principal, make_divisor
from tropicurve.errors import CertificateFailure, WrongDegree
from tropicurve.graphs import CycleSpace, GraphPoint, build_graph
from tropicurve.linalg import invert_matrix

from randgen import random_graph

V = GraphPoint.at_vertex
P = GraphPoint.on_edge


def circle(length=3):
    return build_graph(["v"], [("loop", "v", "v", length)])


def theta(l1=1, l2=1, l3=1):
    return build_graph(
        ["u", "v"],
        [("e1", "u", "v", l1), ("e2", "u", "v", l2), ("e3", "u", "v", l3)],
    )


def two_triangles():
    return build_graph(
        ["a", "b", "c", "d", "e", "f"],
        [
            ("ab", "a", "b", 1),
            ("bc", "b", "c", 1),
            ("ca", "c", "a", 1),
            ("cd", "c", "d", 1),
            ("de", "d", "e", 1),
            ("ef", "e", "f", 1),
            ("fd", "f", "d", 1),
        ],
    )


class TestDiscrete:
    def test_cycle_classes(self):
        dg = DiscreteGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        one_at = lambda k: [1 if i == k else 0 for i in range(4)]
        assert laplacian_equivalent(dg, one_at(1), one_at(1))
        assert not laplacian_equivalent(dg, one_at(1), one_at(3))
        # firing vertex 1 relates (0,2,0,0) and (1,0,1,0)
        assert laplacian_equivalent(dg, [0, 2, 0, 0], [1, 0, 1, 0])

    def test_q_reduced_fixed_point(self):
        dg = DiscreteGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        chips = [0, 0, 1, 0]
        assert is_q_reduced(dg, chips, 0)
        assert q_reduced(dg, chips, 0) == chips

    def test_q_reduced_handles_debt(self):
        dg = DiscreteGraph(3, [(0, 1), (1, 2), (2, 0)])
        chips = [3, -1, 0]
        red = q_reduced(dg, chips, 0)
        assert sum(red) == 2
        assert all(c >= 0 for c in red[1:])
        assert is_q_reduced(dg, red, 0)
        assert laplacian_equivalent(dg, chips, red)

    def test_dhar_stalls_on_non_reduced(self):
        dg = DiscreteGraph(2, [(0, 1), (0, 1), (0, 1)])  # discrete theta
        assert len(dhar_burnt(dg, [0, 3], 0)) == 1
        assert len(dhar_burnt(dg, [0, 2], 0)) == 2

    def test_q_reduced_fires_the_unburnt_set(self):
        dg = DiscreteGraph(2, [(0, 1), (0, 1), (0, 1)])  # discrete theta
        assert q_reduced(dg, [0, 3], 0) == [3, 0]

    @pytest.mark.parametrize("seed", range(20))
    def test_q_reduced_is_reduced_and_equivalent(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(2, 6)
        edges = [(rng.randrange(v), v) for v in range(1, n)]  # a spanning tree
        edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(4))]
        dg = DiscreteGraph(n, edges)
        for _ in range(5):
            chips = [rng.randrange(-2, 5) for _ in range(n)]
            q = rng.randrange(n)
            red = q_reduced(dg, chips, q)
            assert is_q_reduced(dg, red, q)
            assert laplacian_equivalent(dg, chips, red)

    def test_lattice_model_of_circle(self):
        g = circle(3)
        dg, locate = lattice_model(g, Fraction(1, 2))
        assert dg.n == 6
        assert dg.genus() == 1
        assert locate(P("loop", Fraction(1, 2))) != locate(P("loop", 1))


class TestIsBreak:
    def test_circle_single_point(self):
        g = circle(3)
        for off in (0, Fraction(1, 2), 1, 2):
            b = make_divisor(g, [(P("loop", off), 1)])
            assert is_break_divisor(g, b).ok

    def test_theta_two_on_same_edge_interior(self):
        g = theta()
        b = make_divisor(g, [(P("e1", Fraction(1, 3)), 1), (P("e1", Fraction(2, 3)), 1)])
        # oracle: enumerate complements (pairs of edges); no pair assigns
        # two interior points of e1 to distinct edges
        pairs = list(g.all_complements())
        assert len(pairs) == 3
        assert not is_break_divisor(g, b).ok

    def test_theta_two_on_distinct_edges(self):
        g = theta()
        b = make_divisor(g, [(P("e1", Fraction(1, 3)), 1), (P("e2", Fraction(2, 3)), 1)])
        chk = is_break_divisor(g, b)
        assert chk.ok
        assert chk.certificate in {("e1", "e2")}

    def test_vertex_points_can_split_multiplicity(self):
        g = theta()
        b = make_divisor(g, [(V("u"), 2)])
        assert is_break_divisor(g, b).ok

    def test_wrong_degree(self):
        g = theta()
        assert not is_break_divisor(g, make_divisor(g, [(V("u"), 1)])).ok


class TestDecompose:
    def test_circle_point_is_its_own_break(self):
        g = circle(3)
        p = P("loop", Fraction(1, 2))
        b, f = break_divisor_decompose(g, make_divisor(g, [(p, 1)]))
        assert b == make_divisor(g, [(p, 1)])
        assert divisor_of(f).is_zero()

    def test_circle_two_p_minus_q(self):
        g = circle(3)
        p, q = P("loop", Fraction(1, 2)), P("loop", Fraction(5, 2))
        d = make_divisor(g, [(p, 2), (q, -1)])
        b, f = break_divisor_decompose(g, d)
        assert is_break_divisor(g, b).ok
        assert is_principal(g, d - b).principal
        assert divisor_of(f) == d - b
        # brute-force oracle over the discretization lattice
        spacing = Fraction(1, 2)
        hits = []
        steps = int(Fraction(3) / spacing)
        for k in range(steps):
            cand = make_divisor(g, [(P("loop", spacing * k), 1)])
            if is_principal(g, d - cand).principal:
                hits.append(cand)
        assert hits == [b]

    def test_theta_double_vertex(self):
        g = theta(1, 1, 1)
        d = make_divisor(g, [(V("v"), 2)])
        b, f = break_divisor_decompose(g, d)
        assert is_break_divisor(g, b).ok
        assert is_principal(g, d - b).principal
        # oracle: scan all effective degree-2 divisors on the half-integer lattice
        pts = [V("u"), V("v")]
        for eid in sorted(g.edges):
            e = g.edges[eid]
            k = 1
            while k * Fraction(1, 2) < e.length:
                pts.append(P(eid, k * Fraction(1, 2)))
                k += 1
        hits = set()
        for s, t in combinations_with_replacement(range(len(pts)), 2):
            cand = make_divisor(g, [(pts[s], 1)]) + make_divisor(g, [(pts[t], 1)])
            if is_break_divisor(g, cand).ok and is_principal(g, d - cand).principal:
                hits.add(cand)
        assert hits == {b}

    def test_two_triangle_graph_frozen(self):
        # hand-derived by chip-firing: 2a ~ b + d and no other break divisor
        g = two_triangles()
        d = make_divisor(g, [(V("a"), 2)])
        b, _f = break_divisor_decompose(g, d)
        assert b == make_divisor(g, [(V("b"), 1), (V("d"), 1)])

    def test_genus_zero_returns_empty(self):
        g = build_graph(["a", "b", "c"], [("e1", "a", "b", 1), ("e2", "b", "c", 2)])
        d = Divisor.zero()
        b, f = break_divisor_decompose(g, d)
        assert b.is_zero()
        assert divisor_of(f).is_zero()

    def test_wrong_degree_raises(self):
        g = circle(3)
        with pytest.raises(WrongDegree):
            break_divisor_decompose(g, make_divisor(g, [(V("v"), 2)]))

    def test_failed_result_check_raises_certificate_failure(self, monkeypatch):
        g = circle(3)
        monkeypatch.setattr(breakdiv, "is_break_divisor", lambda *_a: BreakCheck(False))
        with pytest.raises(CertificateFailure):
            break_divisor_decompose(g, make_divisor(g, [(V("v"), 1)]))

    def test_uniqueness_randomized(self):
        rng = random.Random(13)
        g = theta(Fraction(1, 2), Fraction(3, 4), 1)
        lattice = [V("u"), V("v")]
        for eid in sorted(g.edges):
            e = g.edges[eid]
            k = 1
            while k * Fraction(1, 4) < e.length:
                lattice.append(P(eid, k * Fraction(1, 4)))
                k += 1
        for _ in range(12):
            terms = [(rng.choice(lattice), rng.choice([1, 1, 2, -1])) for _ in range(3)]
            d = make_divisor(g, terms)
            deficit = 2 - d.degree()
            d = d + make_divisor(g, [(rng.choice(lattice), deficit)])
            if d.degree() != 2:
                continue
            b, f = break_divisor_decompose(g, d)
            assert is_break_divisor(g, b).ok
            assert divisor_of(f) == d - b


def box_points(period, lower, upper):
    """Every integer k with lower <= period * k <= upper: each k_i ranges
    over the interval the rational inverse maps the box to, and candidates
    are filtered in `Fraction`s."""
    inv = invert_matrix(period)
    ranges = []
    for row in inv:
        lo = sum(c * (lower[j] if c >= 0 else upper[j]) for j, c in enumerate(row))
        hi = sum(c * (upper[j] if c >= 0 else lower[j]) for j, c in enumerate(row))
        ranges.append(range(math.ceil(lo), math.floor(hi) + 1))
    for k in product(*ranges):
        image = [sum(p * kj for p, kj in zip(row, k)) for row in period]
        if all(lo <= y <= hi for lo, y, hi in zip(lower, image, upper)):
            yield k


def model_break_divisors(g, d):
    """Reference decomposition on the model subdivided at the support of d:
    one cycle space per complement of the model, where every chip sits on
    a vertex, and the points mapped back to the frames of g.  Returns every
    break divisor it finds."""
    genus = g.betti_number()
    model = g.subdivide_many(pt for pt in d.support() if not pt.is_vertex)
    dm = make_divisor(model, d.terms)
    back = {}
    for eid in g.edges:
        for _kind, sub, lo, _hi in model.segments_of(eid):
            back[sub] = (eid, lo)
    found = set()
    for comp in model.all_complements():
        cs = CycleSpace(model, [eid for eid in model.edges if eid not in comp])
        base = Divisor([(V(model.edges[eid].a), 1) for eid in comp])
        w = cs.pairing(cs.chain({pt.vertex: c for pt, c in (dm - base).terms}))
        lower = [w[i] - model.edges[eid].length for i, eid in enumerate(comp)]
        for k in box_points(cs.period, lower, w):
            t = [w[i] - sum(cs.period[i][j] * k[j] for j in range(genus)) for i in range(genus)]
            terms = []
            for i, eid in enumerate(comp):
                orig, lo = back[eid]
                terms.append((P(orig, lo + t[i]), 1))
            found.add(make_divisor(g, terms))
    return found


def test_decomposition_matches_the_model_reference(monkeypatch):
    """200 random graphs of genus 1 and 2 and degree-g divisors with chips
    inside edges at denominators 3 and 8 and some at vertices: the
    decomposition on the graph itself equals the only break divisor the
    reference finds on the subdivided model.  The chip-firing cross-check
    is kept to lattices of at most 100 vertices to bound the run time."""
    monkeypatch.setattr(breakdiv, "VERIFY_LATTICE_CAP", 100)
    rng = random.Random(17)
    seen = 0
    interior = 0
    while seen < 200:
        g = random_graph(rng)
        genus = g.betti_number()
        if genus == 0:
            continue
        terms = []
        for _ in range(rng.randrange(1, 4)):
            if rng.random() < 0.3:
                terms.append((V(rng.choice(g.vertices)), rng.choice([1, 2, -1])))
                continue
            eid = rng.choice(sorted(g.edges))
            den = rng.choice([3, 8])
            terms.append((P(eid, g.edges[eid].length * Fraction(rng.randrange(1, den), den)), rng.choice([1, 2, -1])))
        terms.append((V(rng.choice(g.vertices)), genus - sum(c for _pt, c in terms)))
        d = make_divisor(g, terms)
        b, f = break_divisor_decompose(g, d)
        assert model_break_divisors(g, d) == {b}
        assert divisor_of(f) == d - b
        interior += any(not pt.is_vertex for pt in b.support())
        seen += 1
    assert interior > 100


def test_break_check_leaves_no_reference_cycle():
    """A call frees everything it made by reference counting alone."""
    g = theta()
    cases = [
        make_divisor(g, [(V("u"), 2)]),
        make_divisor(g, [(P("e1", Fraction(1, 3)), 1), (P("e2", Fraction(2, 3)), 1)]),
        make_divisor(g, [(P("e1", Fraction(1, 3)), 1), (P("e1", Fraction(2, 3)), 1)]),
    ]
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for b in cases:
            is_break_divisor(g, b)
            assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
