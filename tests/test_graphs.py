import math
import random
import warnings
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

from tropicurve.errors import (
    DanglingEndpoint,
    DisconnectedGraph,
    DuplicateId,
    InvalidOffset,
    NonpositiveLength,
    NotComplement,
    PointNotInterior,
    SingularMatrix,
    WrongCardinality,
)
from tropicurve.graphs import (
    CycleSpace,
    ExtendedGraph,
    GraphPoint,
    MetricGraph,
    build_extended,
    build_graph,
    validate_pillar_points,
)

from randgen import ladder, length_pairing, period_inverse, random_graph, random_tree

V = GraphPoint.at_vertex
P = GraphPoint.on_edge


def path_graph():
    return build_graph(["a", "b"], [("e", "a", "b", 1)])


def circle_graph(length=3):
    return build_graph(["v"], [("loop", "v", "v", length)])


def theta_graph(l1=1, l2=1, l3=1):
    return build_graph(
        ["u", "v"],
        [("e1", "u", "v", l1), ("e2", "u", "v", l2), ("e3", "u", "v", l3)],
    )


def fig2_skeleton(c=1):
    """Circle split into 3 arcs of length c plus three spokes of length c/2."""
    c = Fraction(c)
    return build_graph(
        ["q1", "q2", "q3", "p4", "p5", "p6", "p1", "p2", "p3"],
        [
            ("a16", "q1", "p6", c / 2),
            ("a62", "p6", "q2", c / 2),
            ("a24", "q2", "p4", c / 2),
            ("a43", "p4", "q3", c / 2),
            ("a35", "q3", "p5", c / 2),
            ("a51", "p5", "q1", c / 2),
            ("s1", "q1", "p1", c / 2),
            ("s2", "q2", "p2", c / 2),
            ("s3", "q3", "p3", c / 2),
        ],
    )


class TestBuild:
    def test_path(self):
        g = path_graph()
        assert g.betti_number() == 0
        assert set(g.vertices) == {"a", "b"}

    def test_loop_is_split_but_keeps_genus(self):
        g = circle_graph(3)
        assert g.betti_number() == 1
        assert len(g.edges) == 2
        # original id still resolves
        pt = g.canonical_point(P("loop", Fraction(3, 2)))
        assert pt.is_vertex

    def test_fig2_left_solid_part(self):
        g = fig2_skeleton()
        assert g.betti_number() == 1
        leaf = [v for v in g.vertices if g.valence(v) == 1]
        assert sorted(leaf) == ["p1", "p2", "p3"]

    def test_rejects_disconnected(self):
        with pytest.raises(DisconnectedGraph):
            build_graph(["a", "b", "c"], [("e", "a", "b", 1)])

    def test_rejects_nonpositive_length(self):
        with pytest.raises(NonpositiveLength):
            build_graph(["a", "b"], [("e", "a", "b", 0)])

    def test_rejects_dangling(self):
        with pytest.raises(DanglingEndpoint):
            build_graph(["a"], [("e", "a", "z", 1)])


class TestSubdivide:
    def test_edge_split(self):
        g = build_graph(["a", "b"], [("e", "a", "b", 2)])
        g2, mid = g.subdivide_at(P("e", 1))
        assert len(g2.edges) == 2
        assert sorted(e.length for e in g2.edges.values()) == [1, 1]
        assert g2.betti_number() == 0
        assert g2.canonical_point(P("e", 1)) == V(mid)

    def test_loop_split_offsets(self):
        g = circle_graph(3)
        g2, mid = g.subdivide_at(P("loop", 1))
        # the loop was split at its midpoint 3/2 into loop.0 and loop.1, and
        # loop.0 now at 1: points of the loop frame land on those pieces
        assert [s[1:] for s in g2.segments_of("loop")] == [
            ("loop.0.L", 0, 1), ("loop.0.R", 1, Fraction(3, 2)), ("loop.1", Fraction(3, 2), 3)
        ]
        assert g2.canonical_point(P("loop", Fraction(1, 2))) == P("loop.0.L", Fraction(1, 2))
        assert g2.canonical_point(P("loop", 1)) == V(mid)
        assert g2.canonical_point(P("loop", Fraction(5, 4))) == P("loop.0.R", Fraction(1, 4))
        assert g2.canonical_point(P("loop", Fraction(3, 2))) == V("loop.mid")
        assert g2.canonical_point(P("loop", Fraction(5, 2))) == P("loop.1", 1)
        assert g2.canonical_point(P("loop", 3)) == V("v")

    def test_vertex_noop_warns(self):
        g = build_graph(["a", "b"], [("e", "a", "b", 2)])
        with pytest.warns(UserWarning):
            g2, vid = g.subdivide_at(P("e", 0))
        assert g2 is g and vid == "a"

    def test_one_refinement_equals_the_chained_cuts(self):
        """`subdivide_many` over k points gives what k `subdivide_at` calls
        give, ids and lineage included.  Each point is drawn in the graph
        the chain has refined so far: a vertex (new ones too), a point of a
        current or a retired edge frame, ends included, of a current or a
        retired ray frame, or a repeat."""
        rng = random.Random(31)
        for trial in range(30):
            g = random_graph(rng)
            if trial % 3:
                eid = rng.choice(sorted(g.edges))
                g = build_extended(g, [("r0", V(g.vertices[-1])), ("r1", P(eid, g.edges[eid].length / 3))])
            frames = set(g.finite.edges) | set(g.rays)
            for eid in list(frames):  # a loop's halves lead to the id they came from
                while (up := g.parent(eid)) is not None:
                    eid = up[0]
                    frames.add(eid)
            chained, pts = g, []
            for _ in range(rng.randrange(1, 9)):
                current = sorted(set(chained.finite.edges) | set(chained.rays))
                kind = rng.choice(["vertex", "current", "retired", "ray", "repeat"])
                if kind == "repeat" and pts:
                    pt = rng.choice(pts)
                elif kind == "vertex":
                    pt = V(rng.choice(chained.finite.vertices))
                else:
                    options = {
                        "retired": sorted(frames - set(current)),
                        "ray": sorted(f for f in frames if chained.segments_of(f)[-1][3] is None),
                    }.get(kind, current)
                    if not options:
                        continue
                    frame = rng.choice(options)
                    length = chained.segments_of(frame)[-1][3]
                    off = Fraction(rng.randrange(1, 24), 4) if length is None else length * Fraction(rng.randrange(17), 16)
                    pt = P(frame, off)
                pts.append(pt)
                with warnings.catch_warnings():  # a metric graph warns at a vertex
                    warnings.simplefilter("ignore", UserWarning)
                    chained, _v = chained.subdivide_at(pt)
                frames |= set(chained.finite.edges) | set(chained.rays)
            one = g.subdivide_many(pts)
            assert one.finite.vertices == chained.finite.vertices
            assert list(one.finite.edges.items()) == list(chained.finite.edges.items())
            assert list(one.rays.items()) == list(chained.rays.items())
            for ray in one.rays.values():
                assert one.ray_at_leaf(ray.leaf) == ray == chained.ray_at_leaf(ray.leaf)
            for frame in sorted(frames):
                pieces = one.segments_of(frame)
                assert pieces == chained.segments_of(frame) and one.parent(frame) == chained.parent(frame)
                for _kind, _cid, lo, hi in pieces:
                    for off in (lo, lo + 1 if hi is None else (lo + hi) / 2, hi if hi is not None else lo + 3):
                        assert one.canonical_point(P(frame, off)) == chained.canonical_point(P(frame, off))
            for pt in pts:
                assert one.canonical_point(pt) == chained.canonical_point(pt)

    def test_a_refinement_copies_and_leaves_its_receiver_alone(self):
        """Cuts go to a private copy: the receiver's tables read as before
        the call, and the result shares none of them.  A call that cuts
        nothing returns its receiver."""
        ext = build_extended(build_graph(["u", "v"], [("e1", "u", "v", 1), ("c", "v", "v", 2)]), [("r", V("u"))])

        def tables(g):
            fin = g.finite
            return [fin._edges, fin._vertex_set, fin._frames, fin._parents] + ([] if g is fin else [g._rays, g._leaves])

        cuts = [P("e1", Fraction(1, 2)), P("r", 2), P("e1", Fraction(1, 4)), P("c", Fraction(1, 2)), P("e1.L", Fraction(1, 8))]
        fin = ext.finite
        for g, call in (
            (ext, lambda: ext.subdivide_many(cuts)),
            (ext, lambda: ext.with_new_rays([(f"n{k}", pt) for k, pt in enumerate(cuts)])),
            (fin, lambda: fin.subdivide_many(pt for pt in cuts if pt.edge != "r")),
        ):
            before = [type(t)(t) for t in tables(g)]
            new = call()
            assert tables(g) == before
            assert not any(a is b for a, b in zip(tables(new), tables(g)))
        assert ext.subdivide_many([V("u"), P("e1", 0), P("r", 0), P("c", 2)]) is ext
        assert fin.subdivide_many([V("v"), P("e1", 1), P("c.0", 1)]) is fin


def boundary(g, chain):
    """Vertex charge of a 1-chain: +c at the b end, -c at the a end."""
    bal = {v: 0 for v in g.vertices}
    for eid, coeff in chain.items():
        e = g.edges[eid]
        bal[e.a] -= coeff
        bal[e.b] += coeff
    return bal


def union_find(vertices, edges):
    """(acyclic, connected) for a set of edges on the given vertices."""
    up = {v: v for v in vertices}

    def find(v):
        while up[v] != v:
            v = up[v]
        return v

    acyclic = True
    for e in edges:
        a, b = find(e.a), find(e.b)
        acyclic &= a != b
        up[a] = b
    return acyclic, len({find(v) for v in vertices}) == 1


class TestSpanningTrees:
    def test_circle_single_complement(self):
        g = circle_graph(3)
        eid = next(iter(g.edges))
        assert g.spanning_tree_complement([eid])

    def test_theta_all_pairs(self):
        g = theta_graph()
        # brute-force oracle: enumerate all pairs
        for pair in combinations(sorted(g.edges), 2):
            assert g.spanning_tree_complement(list(pair))

    def test_duplicate_rejected(self):
        g = theta_graph()
        with pytest.raises(WrongCardinality):
            g.spanning_tree_complement(["e1", "e1"])

    def test_cardinality_matches_betti_exhaustively(self):
        # every complement accepted by the checker has size == g
        for g in (theta_graph(2, 3, 5), fig2_skeleton(), circle_graph(4)):
            for comp in g.all_complements():
                assert len(comp) == g.betti_number()
                assert g.spanning_tree_complement(list(comp))

    def test_complements_agree_with_a_union_find_oracle(self):
        """Every g-subset of 30 random graphs and three ladders: the
        complement check accepts exactly the subsets whose remaining edges
        are acyclic and connected, and `all_complements` yields those
        subsets, in order."""
        rng = random.Random(8)
        seen = {(True, True): 0, (False, False): 0}  # accepted; rest holds a cycle
        for g in [random_graph(rng) for _ in range(30)] + [ladder(rng, n) for n in (3, 4, 5)]:
            accepted = []
            for comp in combinations(sorted(g.edges), g.betti_number()):
                rest = [e for eid, e in g.edges.items() if eid not in comp]
                acyclic, connected = union_find(g.vertices, rest)
                seen[acyclic, connected] += 1  # V - 1 edges: no third case
                assert g.spanning_tree_complement(comp) == (acyclic and connected)
                if acyclic and connected:
                    accepted.append(comp)
            assert list(g.all_complements()) == accepted
        assert all(seen.values())

    def test_complements_skip_bridges_and_closed_cycles(self):
        """A tree yields the empty complement once; a bridge never joins a
        complement; on two digons joined at b, taking both edges of one
        digon leaves the other's cycle, so ("p", "q") is never yielded."""
        tree = build_graph(list("abcd"), [("x", "a", "b", 1), ("y", "b", "c", 2), ("z", "b", "d", 1)])
        assert list(tree.all_complements()) == [()]
        bridged = build_graph(list("abcd"), [("e", "a", "b", 1), ("f", "a", "b", 2), ("m", "b", "c", 1), ("g", "c", "d", 1), ("h", "c", "d", 3)])
        assert list(bridged.all_complements()) == [("e", "g"), ("e", "h"), ("f", "g"), ("f", "h")]
        digons = build_graph(list("abc"), [("p", "a", "b", 1), ("q", "a", "b", 2), ("r", "b", "c", 1), ("s", "b", "c", 3)])
        assert list(digons.all_complements()) == [("p", "r"), ("p", "s"), ("q", "r"), ("q", "s")]

    @pytest.mark.parametrize(
        "tree", [["e", "f"], [], ["e", "g", "f"], ["e", "zz"], ["f", "f"]],
        ids=["cycle", "empty", "too-many", "unknown", "repeated"],
    )
    def test_cycle_space_rejects_edges_that_are_not_a_spanning_tree(self, tree):
        """A digon a-b (`e`, `f`) with a pendant edge b-c (`g`): a given tree
        must be V - 1 current edges that reach every vertex.  On the digon
        alone, `e` and `f` gave 0 cycles for genus 1 and no edges a bare
        KeyError in `cycle`."""
        digon = build_graph(["a", "b"], [("e", "a", "b", 1), ("f", "a", "b", 2)])
        pendant = build_graph(["a", "b", "c"], [("e", "a", "b", 1), ("f", "a", "b", 2), ("g", "b", "c", 1)])
        for g in (digon, pendant):
            with pytest.raises(NotComplement):
                CycleSpace(g, tree)
        assert CycleSpace(digon, ["f"]).cycles == [{"e": 1, "f": -1}]
        assert CycleSpace(pendant, ["g", "f"]).cycles == [{"e": 1, "f": -1}]

    @pytest.mark.parametrize("rungs", [2, 3, 11, 20])
    def test_breadth_first_cycles_of_a_ladder_are_its_squares(self, rungs):
        """The breadth-first tree of a ladder takes every rail edge `a` and
        every rung; each `b` closes one square, and only squares that share
        a rung meet, so the gram matrix is tridiagonal."""
        cs = CycleSpace(ladder(random.Random(rungs), rungs))
        assert cs.complement == sorted(f"b{i}" for i in range(rungs - 1))
        assert len(cs.cycles) == rungs - 1
        assert all(len(cyc) == 4 for cyc in cs.cycles)
        assert sum(x != 0 for row in cs._gram for x in row) <= 3 * (rungs - 1)

    def test_cycles_equal_the_walk_to_the_root(self):
        """`cycle` stops at the lowest common ancestor of the complement
        edge's ends; walking both ends to the root and cancelling the shared
        part gives the same coefficients in the same key order, on the
        breadth-first tree and on random-order Kruskal trees."""

        def walk_to_root(cs, comp_edge):
            e = cs.edges[comp_edge]
            coeffs = {comp_edge: 1}
            for v, sign in ((e.b, 1), (e.a, -1)):
                while cs.up[v] is not None:
                    t = cs.edges[cs.up[v]]
                    coeffs[t.id] = coeffs.get(t.id, 0) + (sign if t.a == v else -sign)
                    v = t.other(v)
            return {k: c for k, c in coeffs.items() if c}

        rng = random.Random(12)
        graphs = [random_graph(rng) for _ in range(40)] + [ladder(rng, n) for n in (3, 5, 8, 12)]
        walked = 0
        for g in graphs:
            for tree in (None, random_tree(rng, g)):
                cs = CycleSpace(g, tree)
                for comp_edge, cyc in zip(cs.complement, cs.cycles):
                    assert list(cyc.items()) == list(walk_to_root(cs, comp_edge).items())
                    walked += 1
        assert walked > 100

    def test_fundamental_cycle_closes(self):
        rng = random.Random(5)
        for g in [theta_graph(2, 3, 5)] + [random_graph(rng) for _ in range(30)]:
            tree = g.canonical_spanning_tree()
            comp = [eid for eid in g.edges if eid not in tree]
            for c in comp:
                cyc = CycleSpace(g, tree).cycle(c)
                assert cyc[c] == 1 and set(cyc) <= set(tree) | {c}
                # boundary of the cycle is zero: each vertex enters as often as it leaves
                assert all(v == 0 for v in boundary(g, cyc).values())

    def test_cycle_space_chain_has_the_given_boundary(self):
        rng = random.Random(6)
        for _ in range(30):
            g = random_graph(rng)
            tree = random_tree(rng, g)
            cs = CycleSpace(g, tree)
            charges = {v: rng.randrange(-3, 4) for v in g.vertices}
            charges[g.vertices[-1]] -= sum(charges.values())
            chain = cs.chain(charges)
            assert set(chain) == set(tree)
            assert boundary(g, chain) == charges

    def test_cycle_space_period_is_the_length_gram_matrix(self):
        """The period matrix `_gram` / D and the cycle integrals of a
        divisor on the vertices, summed in integers over the common
        denominator D of the lengths, equal the plain `Fraction` sums, also
        when the lengths mix denominators 3, 7 and 8."""
        rng = random.Random(7)
        mixed = [Fraction(1, 3), Fraction(2, 7), Fraction(5, 8), Fraction(1), Fraction(4, 21)]
        graphs = [theta_graph(2, 3, 5), fig2_skeleton(), fig2_skeleton(Fraction(2, 3))]
        graphs.append(theta_graph(Fraction(1, 3), Fraction(2, 7), Fraction(5, 8)))
        for _ in range(30):
            g = random_graph(rng)
            graphs.append(g)
            scaled = [(eid, e.a, e.b, e.length * rng.choice(mixed)) for eid, e in g.edges.items()]
            graphs.append(build_graph(g.vertices, scaled))
        denominators = set()
        for g in graphs:
            tree = g.canonical_spanning_tree()
            cs = CycleSpace(g, tree)
            denominators.add(cs.denominator)
            cycles = [cs.cycle(c) for c in cs.complement]
            assert cs.cycles == cycles and len(cycles) == g.betti_number()
            assert all(type(v) is int for row in cs._gram for v in row)
            period = [[Fraction(v, cs.denominator) for v in row] for row in cs._gram]
            for i, zi in enumerate(cycles):
                for j, zj in enumerate(cycles):
                    gram = sum(g.edges[e].length * zi.get(e, 0) * zj.get(e, 0) for e in g.edges)
                    assert period[i][j] == period[j][i] == gram
            charges = [(V(v), rng.randrange(-3, 4)) for v in g.vertices]
            charges.append((V(g.vertices[0]), -sum(c for _pt, c in charges)))
            chain, w, den = cs.integrals(charges)
            expected = [sum(g.edges[e].length * c * chain.get(e, 0) for e, c in z.items()) for z in cycles]
            assert den == cs.denominator and all(type(x) is int for x in w)
            assert [Fraction(x, den) for x in w] == expected
        assert any(d & (d - 1) for d in denominators)  # some D is not a power of 2


def thirds_sevenths_eighths(seed, count):
    """Theta, K4, a path and `count` random graphs, each length times 1/3,
    1/7 or 1/8, so D mixes denominators; genus 0 to 3."""
    rng = random.Random(seed)
    k4 = build_graph(list("abcd"), [(x + y, x, y, 1) for x, y in combinations("abcd", 2)])
    graphs = [theta_graph(2, 3, 5), k4, path_graph()] + [random_graph(rng) for _ in range(count)]
    scale = [Fraction(1, 3), Fraction(1, 7), Fraction(1, 8)]
    return rng, [
        build_graph(g.vertices, [(eid, e.a, e.b, e.length * rng.choice(scale)) for eid, e in g.edges.items()])
        for g in graphs
    ]


def brute_lattice_points(period, center, lower, upper):
    """Every k with lower <= period * k <= upper, found among all k within
    sum_j |inv_ij| * max|y_j - c_j| of the lattice point c = period *
    center in each coordinate, a bound that holds for every point of the
    box; filtered in `Fraction`s."""
    c = [sum(p * kj for p, kj in zip(row, center)) for row in period]
    reach = max((abs(y - cj) for cj, lo, hi in zip(c, lower, upper) for y in (lo, hi)), default=0)
    bounds = [math.ceil(sum(abs(v) for v in row) * reach) for row in period_inverse(period)]
    for k in product(*(range(kc - b, kc + b + 1) for kc, b in zip(center, bounds))):
        image = [sum(p * kj for p, kj in zip(row, k)) for row in period]
        if all(lo <= y <= hi for lo, y, hi in zip(lower, image, upper)):
            yield k, image


class TestCycleSpaceKernel:
    def test_through_is_the_incidence_of_the_cycles(self):
        """`_through`, which the lifting corrections read their sites from,
        maps each edge on some fundamental cycle to the (cycle, coefficient)
        pairs of the cycles through it, in cycle order, on the breadth-first
        tree and on a random-order Kruskal tree; the complement edge of
        cycle j lies on j alone."""
        rng = random.Random(30)
        graphs = [random_graph(rng) for _ in range(30)] + [ladder(rng, n) for n in (4, 5)]
        assert {g.betti_number() for g in graphs} == {0, 1, 2, 3, 4}
        for g in graphs:
            for tree in (None, random_tree(rng, g)):
                cs = CycleSpace(g, tree)
                incidence = {}
                for eid in g.edges:
                    hits = [(j, cyc[eid]) for j, cyc in enumerate(cs.cycles) if cyc.get(eid, 0)]
                    if hits:
                        incidence[eid] = hits
                assert cs._through == incidence
                assert [cs._through[eid] for eid in cs.complement] == [[(j, 1)] for j in range(len(cs.cycles))]

    def test_lattice_points_match_a_brute_force_enumeration(self):
        rng, graphs = thirds_sevenths_eighths(8, 40)
        sizes = Counter()
        for g in graphs:
            cs = CycleSpace(g, g.canonical_spanning_tree())
            period = [[Fraction(v, cs.denominator) for v in row] for row in cs._gram]
            genus = len(period)
            for _ in range(6):
                center = [rng.randrange(-2, 3) for _ in range(genus)]
                c = [sum(p * kj for p, kj in zip(row, center)) for row in period]
                # half-widths up to twice the diagonal, the center moved off
                # the lattice by up to a diagonal entry
                half = [period[i][i] * rng.choice([0, Fraction(1, 5), Fraction(1, 2), 1, 2]) for i in range(genus)]
                move = [period[i][i] * Fraction(rng.randrange(-4, 5), 8) for i in range(genus)]
                lower = [ci + m - h for ci, m, h in zip(c, move, half)]
                upper = [ci + m + h for ci, m, h in zip(c, move, half)]
                got = list(cs.lattice_points(lower, upper))
                assert got == list(brute_lattice_points(period, center, lower, upper))
                assert all(type(y) is Fraction for _k, image in got for y in image)
                sizes[min(len(got), 2)] += 1
                # the lattice point itself, as a one-point box
                assert list(cs.lattice_points(c, c)) == [(tuple(center), c)]
                # and moved off the lattice by 1/(2D) in one coordinate
                if genus:
                    off = [c[0] + Fraction(1, 2 * cs.denominator), *c[1:]]
                    assert list(cs.lattice_points(off, off)) == []
        assert sizes[0] and sizes[1] and sizes[2]
        assert {len(CycleSpace(g, g.canonical_spanning_tree()).cycles) for g in graphs} == {0, 1, 2, 3}

    def test_cycle_integrals_match_the_model_subdivided_at_the_chips(self):
        """Reference: subdivide at the chips, so each chip sits on a vertex,
        and pair the model's tree chain with the model's cycles.  The model
        tree keeps every piece of a tree edge and every piece of a
        complement edge but the one at its a end, which then closes the
        same cycle; the chain on that first piece is the graph's chain."""
        rng, graphs = thirds_sevenths_eighths(9, 40)
        for g in graphs:
            tree = random_tree(rng, g)
            cs = CycleSpace(g, tree)
            terms = []
            for _ in range(rng.randrange(1, 6)):
                eid = rng.choice(sorted(g.edges))
                den = rng.choice([3, 7, 8])
                terms.append((P(eid, g.edges[eid].length * Fraction(rng.randrange(1, den), den)), rng.choice([-2, -1, 1, 2])))
            terms.append((V(rng.choice(g.vertices)), -sum(c for _pt, c in terms)))
            chain, w, den = cs.integrals(terms)
            assert den == math.lcm(cs.denominator, *(pt.offset.denominator for pt, _c in terms if not pt.is_vertex))
            assert all(type(x) is int for x in w)

            model = g.subdivide_many(pt for pt, _c in terms)
            pieces = {eid: [sub for _kind, sub, _lo, _hi in model.segments_of(eid)] for eid in g.edges}
            model_tree = [sub for eid, subs in pieces.items() for sub in (subs if eid in tree else subs[1:])]
            ref = CycleSpace(model, model_tree)
            charges = Counter()
            for pt, c in terms:
                charges[model.canonical_point(pt).vertex] += c
            ref_chain = ref.chain(charges)
            ref_w = dict(zip(ref.complement, length_pairing(ref, ref_chain)))
            assert [Fraction(x, den) for x in w] == [ref_w[pieces[eid][0]] for eid in cs.complement]
            assert chain == {eid: ref_chain[pieces[eid][0]] for eid in tree}


    def test_cell_points_match_the_cycle_space_of_each_complement(self):
        """For every spanning-tree complement C of these graphs, `cell_points`
        on the reference cycle space gives the points t = w_C - scale *
        gram_C * k of the box search that a cycle space built on the tree C
        completes makes with its own gram matrix, inverse and cycle
        integrals, for a divisor with chips inside edges at denominators 3,
        7 and 8."""
        rng, graphs = thirds_sevenths_eighths(10, 30)
        graphs += [fig2_skeleton(), fig2_skeleton(Fraction(2, 3))]
        complements = Counter()
        held = Counter()
        for g in graphs:
            cs = CycleSpace(g, random_tree(rng, g))
            terms = []
            for _ in range(rng.randrange(1, 5)):
                eid = rng.choice(sorted(g.edges))
                den = rng.choice([3, 7, 8])
                terms.append((P(eid, g.edges[eid].length * Fraction(rng.randrange(1, den), den)), rng.choice([-1, 1, 2])))
            terms.append((V(rng.choice(g.vertices)), -sum(c for _pt, c in terms)))
            _chain, over, big = cs.integrals(terms)
            scale = big // cs.denominator
            for comp in g.all_complements():
                got = sorted(cs.cell_points(comp, over, scale))
                ref = CycleSpace(g, [eid for eid in g.edges if eid not in comp])
                assert ref.complement == list(comp)
                _chain, wc, ref_den = ref.integrals(terms)
                assert ref_den == big
                hi = [x // scale for x in wc]
                lo = [-(-x // scale) - ref.scaled[eid] for x, eid in zip(wc, comp)]
                want = [[x - scale * y for x, y in zip(wc, image)] for _k, image in ref.box_points(lo, hi)]
                assert got == sorted(want)
                complements[len(comp)] += 1
                held[bool(got)] += 1
        assert set(complements) == {0, 1, 2, 3}
        assert set(held) == {True, False}
        # two edges of one of two digons: the other digon keeps its cycle
        digons = build_graph(list("abc"), [("p", "a", "b", 1), ("q", "a", "b", 2), ("r", "b", "c", 1), ("s", "b", "c", 3)])
        assert not digons.spanning_tree_complement(["p", "q"])
        with pytest.raises(SingularMatrix):
            list(CycleSpace(digons, digons.canonical_spanning_tree()).cell_points(["p", "q"], [0, 0], 1))


class TestPillars:
    def test_valid(self):
        g = build_graph(["a", "b"], [("e", "a", "b", 10)])
        pts = [P("e", x) for x in (1, 2, 7, 8)]
        assert validate_pillar_points(g, "e", pts)

    def test_gap_mismatch(self):
        g = build_graph(["a", "b"], [("e", "a", "b", 10)])
        pts = [P("e", x) for x in (1, 3, 5, 6)]
        assert not validate_pillar_points(g, "e", pts)

    def test_not_monotone(self):
        g = build_graph(["a", "b"], [("e", "a", "b", 10)])
        pts = [P("e", x) for x in (1, 2, 8, 7)]
        assert not validate_pillar_points(g, "e", pts)

    def test_orientation_reversal_invariance(self):
        g = build_graph(["a", "b"], [("e", "a", "b", 10)])
        rng = random.Random(11)
        for _ in range(50):
            xs = sorted(rng.sample(range(1, 40), 4))
            offs = [Fraction(x, 4) for x in xs]
            fwd = validate_pillar_points(g, "e", [P("e", x) for x in offs])
            rev = validate_pillar_points(
                g, "e", [P("e", 10 - x) for x in reversed(offs)]
            )
            assert fwd == rev

    def test_interior_required(self):
        g = build_graph(["a", "b"], [("e", "a", "b", 10)])
        with pytest.raises(PointNotInterior):
            validate_pillar_points(g, "e", [P("e", x) for x in (0, 2, 7, 8)])


class TestExtended:
    def test_rays_attach_and_leaf_unique(self):
        g = fig2_skeleton()
        ext = build_extended(g, [("r1", V("p1")), ("r2", V("p2"))])
        assert len(ext.rays) == 2
        assert ext.ray("r1").attach == "p1"
        assert ext.is_infinite_vertex("r1.inf")

    def test_attach_interior_subdivides(self):
        g = path_graph()
        ext = build_extended(g, [("r", P("e", Fraction(1, 2)))])
        assert len(ext.finite.edges) == 2
        assert ext.ray("r").attach.startswith("e@")

    def test_ray_subdivision(self):
        g = path_graph()
        ext = build_extended(g, [("r", V("b"))])
        ext2, mid = ext.subdivide_at(P("r", 2))
        assert ext2.canonical_point(P("r", 2)) == V(mid)
        assert ext2.canonical_point(P("r", 3)).edge.endswith(".tail")
        # contracting rays recovers the finite part vertex set plus stubs
        assert ext2.finite.betti_number() == 0

    def test_ray_ids_may_not_name_a_finite_edge(self):
        """A ray named like a current or a retired finite edge would hide
        that edge's frame: `segments_of("e")` would return only the ray."""
        with pytest.raises(DuplicateId):
            build_extended(build_graph(["a", "b"], [("e", "a", "b", 2)]), [("e", V("b"))])
        split, _mid = path_graph().subdivide_at(P("e", Fraction(1, 2)))
        ext = build_extended(split, [("r", V("b"))])
        for used in ("e", "r", *split.edges):
            with pytest.raises(DuplicateId):
                ext.with_new_rays([(used, V("a"))])
        assert [piece[:2] for piece in ext.segments_of("e")] == [("edge", "e.L"), ("edge", "e.R")]

    def test_ray_ids_must_be_fresh_in_the_refined_graph(self):
        """Every point is cut before any ray is named, so a ray id may
        repeat neither in the call nor a piece its own cuts make."""
        ext = build_extended(path_graph(), [("r", V("b"))])
        for attach in (
            [("n", V("a")), ("n", P("e", Fraction(1, 2)))],
            [("e.L", P("e", Fraction(1, 2)))],
            [("n", P("r", 1)), ("r.stub", V("a"))],
        ):
            with pytest.raises(DuplicateId):
                ext.with_new_rays(attach)

    def test_new_rays_make_one_graph_beyond_the_cuts(self, monkeypatch):
        """One extended graph for all the new rays, and it is the one copy
        that `subdivide_many` cuts at every point: one finite part, however
        many cuts, and none when every point is a vertex."""
        ext = build_extended(theta_graph(), [("r", V("u"))])
        builds = []
        for cls in (MetricGraph, ExtendedGraph):

            def counted(self, *args, _init=cls.__init__, **kwargs):
                builds.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        new = ext.with_new_rays([("n0", V("u")), ("n1", V("v")), ("n2", V("u"))])
        assert builds == ["ExtendedGraph"] and sorted(new.rays) == ["n0", "n1", "n2", "r"]
        builds.clear()
        points = [P("e1", Fraction(1, 2)), P("e2", Fraction(1, 3)), P("r", 2), P("e1", Fraction(1, 4))]
        new = ext.with_new_rays([(f"n{k}", pt) for k, pt in enumerate(points)])
        assert Counter(builds) == {"MetricGraph": 1, "ExtendedGraph": 1}
        assert [new.canonical_point(pt) for pt in points] == [V(new.ray(f"n{k}").attach) for k in range(4)]
        assert ext.with_new_rays([]) is ext

    def test_finite_splits_avoid_ray_ids(self):
        """A finite split may not name a piece like a current or a retired
        ray: the edge `e` would then lead to the ray, and its left half
        would be lost."""
        ext = build_extended(build_graph(["a", "b"], [("e", "a", "b", 2)]), [("e.L", V("b"))])
        retired, _mid = ext.subdivide_at(P("e.L", 1))
        for g in (ext, retired):
            split, mid = g.subdivide_at(P("e", 1))
            assert not split.finite.edges.keys() & (split.rays.keys() | {"e.L"})
            assert [piece[:2] for piece in split.segments_of("e")] == [("edge", "e.L.2"), ("edge", "e.R")]
            assert split.canonical_point(P("e", Fraction(1, 2))) == P("e.L.2", Fraction(1, 2))
            assert split.canonical_point(P("e", 1)) == V(mid)

    def test_negative_ray_offsets_are_rejected(self):
        ext = build_extended(path_graph(), [("r", V("b"))])
        split, _mid = ext.subdivide_at(P("r", 2))
        for g in (ext, split):
            for call in (g.canonical_point, g.subdivide_at, lambda pt: g.with_new_rays([("n", pt)])):
                with pytest.raises(InvalidOffset):
                    call(P("r", -1))

    def test_one_lineage_reads_every_split(self):
        """Random refinements mix ray splits, stub subdivisions and finite
        subdivisions; on every root frame the current pieces tile the
        frame, `canonical_point` finds each piece, and `parent` walks each
        piece back to the root with its offset there."""
        rng = random.Random(9)
        for _ in range(20):
            g = random_graph(rng)
            ext = build_extended(g, [(f"r{k}", V(v)) for k, v in enumerate(g.vertices[:2])])
            roots = dict.fromkeys(ext.rays)
            for eid in g.edges:  # a loop's root is the id its halves came from
                while (up := g.parent(eid)) is not None:
                    eid = up[0]
                roots[eid] = g.frame_length(eid)
            for step in range(12):
                kind = rng.choice(["ray", "stub", "any", "new ray"])
                stubs = sorted(eid for eid in ext.finite.edges if ".stub" in eid)
                if kind == "stub" and stubs:
                    frame = rng.choice(stubs)
                    length = ext.finite.edges[frame].length
                else:
                    rays = [r for r, length in sorted(roots.items()) if length is None]
                    frame = rng.choice(rays if kind == "ray" else sorted(roots))
                    length = roots[frame]
                off = Fraction(rng.randrange(1, 40), 8) if length is None else length * Fraction(rng.randrange(1, 16), 16)
                if kind == "new ray":
                    ext = ext.with_new_rays([(f"n{step}", P(frame, off))])
                    roots[f"n{step}"] = None
                else:
                    ext, _v = ext.subdivide_at(P(frame, off))
            for root, length in roots.items():
                pieces = ext.segments_of(root)
                assert pieces[0][2] == 0 and pieces[-1][3] == length
                assert all(a[3] == b[2] for a, b in zip(pieces, pieces[1:]))
                for kind, cid, lo, hi in pieces:
                    if kind == "edge":
                        assert ext.finite.edges[cid].length == hi - lo
                    inside = lo + 1 if hi is None else (lo + hi) / 2
                    assert ext.canonical_point(P(root, inside)) == P(cid, inside - lo)
                    walked, shift = cid, Fraction(0)
                    while walked != root:
                        walked, off = ext.parent(walked)
                        shift += off
                    assert shift == lo
