import gc
import math
import random
import weakref
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from tropicurve import breakdiv, chipfiring, graphs, linalg
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

from randgen import ladder, length_pairing, period_inverse, random_graph

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

    def test_laplacian_equivalence_agrees_with_q_reduced_forms(self):
        """Random small multigraphs: two configurations are equivalent
        exactly when their 0-reduced forms agree.  Half the pairs differ by
        a random integer firing, the others are drawn apart, mostly of one
        degree; both verdicts occur."""
        rng = random.Random(23)
        verdicts = Counter()
        for _ in range(40):
            n = rng.randrange(2, 7)
            edges = [(rng.randrange(v), v) for v in range(1, n)]
            edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(5))]
            dg = DiscreteGraph(n, edges)
            for _ in range(10):
                c1 = [rng.randrange(-2, 4) for _ in range(n)]
                if rng.random() < 0.5:
                    fire = [rng.randrange(-2, 3) for _ in range(n)]
                    c2 = [
                        c - dg.deg[v] * fire[v] + sum(m * fire[w] for w, m in dg.adj[v].items())
                        for v, c in enumerate(c1)
                    ]
                else:
                    c2 = [rng.randrange(-2, 4) for _ in range(n)]
                    if rng.random() < 0.8:
                        c2[rng.randrange(n)] += sum(c1) - sum(c2)
                expected = q_reduced(dg, c1) == q_reduced(dg, c2)
                assert laplacian_equivalent(dg, c1, c2) == expected
                verdicts[expected] += 1
        assert min(verdicts[True], verdicts[False]) > 100

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

    def test_cross_check_on_a_lattice_of_525_segments(self, monkeypatch):
        """Chips at 1/5 on e1 and 1/7 on e2 of a theta of lengths 2, 5/2 and
        3 cut it into 525 segments of length 1/70.  The decomposition keeps
        the chips, which already form a break divisor, and the chip-firing
        cross-check runs on all 524 lattice points, a reduced Laplacian
        with its path points first.  The forward elimination leaves no row
        of that Laplacian more than 2 entries wide, where a dense row holds
        523."""
        models, eliminated = [], []
        check, eliminate = chipfiring.laplacian_equivalent, linalg._eliminate

        def counted(dg, chips1, chips2):
            models.append((dg.n, len(dg.edges)))
            return check(dg, chips1, chips2)

        def kept(a, ncols):
            cols = eliminate(a, ncols)
            eliminated.append((ncols, a))
            return cols

        monkeypatch.setattr(chipfiring, "laplacian_equivalent", counted)
        monkeypatch.setattr(linalg, "_eliminate", kept)
        g = theta(2, Fraction(5, 2), 3)
        d = make_divisor(g, [(P("e1", Fraction(1, 5)), 1), (P("e2", Fraction(1, 7)), 1)])
        b, f = break_divisor_decompose(g, d)
        assert repr(b) == "Divisor(+1(e1@1/5) +1(e2@1/7))"
        assert divisor_of(f).is_zero()
        assert models == [(524, 525)]
        (rows,) = [a for ncols, a in eliminated if ncols == 523]
        assert len(rows) == 523 and max(map(len, rows)) == 2

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
    inv = period_inverse(period)
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
        w = length_pairing(cs, cs.chain({pt.vertex: c for pt, c in (dm - base).terms}))
        lower = [w[i] - model.edges[eid].length for i, eid in enumerate(comp)]
        period = [[Fraction(v, cs.denominator) for v in row] for row in cs._gram]
        for k in box_points(period, lower, w):
            t = [w[i] - sum(period[i][j] * k[j] for j in range(genus)) for i in range(genus)]
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


@pytest.mark.parametrize("rungs", [4, 5])
def test_decomposition_matches_the_model_reference_on_ladders(monkeypatch, rungs):
    """Ladders of genus 3 and 4, with chips inside edges at denominators 3
    and 8, so the cycle integrals of every complement are fractional: the
    decomposition equals the only break divisor of the model reference."""
    monkeypatch.setattr(breakdiv, "VERIFY_LATTICE_CAP", 100)
    rng = random.Random(rungs)
    g = ladder(rng, rungs)
    genus = g.betti_number()
    interior = 0
    for _ in range(6):
        terms = []
        for den in (3, 8, rng.choice([3, 8])):
            eid = rng.choice(sorted(g.edges))
            terms.append((P(eid, g.edges[eid].length * Fraction(rng.randrange(1, den), den)), rng.choice([1, 2, -1])))
        terms.append((V(rng.choice(g.vertices)), genus - sum(c for _pt, c in terms)))
        d = make_divisor(g, terms)
        b, f = break_divisor_decompose(g, d)
        assert model_break_divisors(g, d) == {b}
        assert divisor_of(f) == d - b
        interior += any(not pt.is_vertex for pt in b.support())
    assert interior


def test_one_decomposition_builds_one_cycle_space(monkeypatch):
    """A genus-4 decomposition reads all 200-odd complements from the
    graph's cached cycle space, and its final `is_principal` reads the same
    one.  The box search in that frame finds a candidate, and so inverts Z,
    for fewer than a quarter of them."""
    built, inverted = [], []
    init, inverse = CycleSpace.__init__, graphs.integer_inverse

    def counted(self, graph, tree=None):
        built.append(graph)
        init(self, graph, tree)

    def counted_inverse(rows):
        inverted.append(rows)
        return inverse(rows)

    monkeypatch.setattr(CycleSpace, "__init__", counted)
    monkeypatch.setattr(graphs, "integer_inverse", counted_inverse)
    g = ladder(random.Random(1), 5)
    d = make_divisor(g, [(P("a0", Fraction(1, 2)), 2), (V("w3"), 2)])
    complements = list(g.all_complements())
    assert len(complements) > 200
    b, _f = break_divisor_decompose(g, d)
    assert is_break_divisor(g, b).ok
    assert built == [g]
    # one inversion is the reference gram's `_inverse`
    assert 0 < len(inverted) - 1 < len(complements) / 4


def test_break_check_leaves_no_reference_cycle():
    """A call frees everything it made by reference counting alone: the
    break check, the walk over every complement and a genus-4
    decomposition."""
    g = theta()
    cases = [
        make_divisor(g, [(V("u"), 2)]),
        make_divisor(g, [(P("e1", Fraction(1, 3)), 1), (P("e2", Fraction(2, 3)), 1)]),
        make_divisor(g, [(P("e1", Fraction(1, 3)), 1), (P("e1", Fraction(2, 3)), 1)]),
    ]
    lad = ladder(random.Random(1), 5)
    d = make_divisor(lad, [(P("a0", Fraction(1, 2)), 2), (V("w3"), 2)])
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for b in cases:
            is_break_divisor(g, b)
            assert gc.collect() == 0
        list(lad.all_complements())
        assert gc.collect() == 0
        break_divisor_decompose(lad, d)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("call", ["is_principal", "break_divisor_decompose"])
def test_a_graph_and_its_cached_cycle_space_are_freed_by_reference_counting(call):
    """A graph caches its cycle space on the first read, here in
    `is_principal` or a genus-4 decomposition.  The cycle space keeps the
    edge table, not the graph, so once the last reference to the graph
    goes, both are freed with gc disabled."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        g = ladder(random.Random(1), 5)
        if call == "is_principal":
            is_principal(g, make_divisor(g, [(P("a0", Fraction(1, 2)), 1), (V("w3"), -1)]))
        else:
            break_divisor_decompose(g, make_divisor(g, [(P("a0", Fraction(1, 2)), 2), (V("w3"), 2)]))
        refs = [weakref.ref(g), weakref.ref(g.__dict__["cycle_space"])]
        del g
        assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()
