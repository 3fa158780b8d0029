import random
from fractions import Fraction

import pytest

from tropicurve import chipfiring, divisors
from tropicurve.divisors import (
    Divisor,
    EdgeProfile,
    PLFunction,
    RayProfile,
    construct_pl_with_divisor,
    cor34_certificate,
    divisor_of,
    is_principal,
    make_divisor,
    trapezoid,
)
from tropicurve.errors import (
    DiscontinuousFunction,
    InvalidOffset,
    InvalidPillars,
    NonIntegralCoefficient,
    NonzeroDegree,
    NotPrincipal,
)
from tropicurve.graphs import GraphPoint, build_extended, build_graph

from randgen import random_graph, random_pl_function

V = GraphPoint.at_vertex
P = GraphPoint.on_edge


def path_amb():
    return build_graph(
        ["a", "m", "b"], [("e1", "a", "m", 1), ("e2", "m", "b", 1)]
    )


def circle(length=3):
    return build_graph(["v"], [("loop", "v", "v", length)])


def fig2_skeleton(c=1):
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


class TestDivisorOf:
    def test_coefficients_are_integers(self):
        """A coefficient 3/2 used to be truncated to 1, so this divisor
        had degree 0."""
        with pytest.raises(NonIntegralCoefficient):
            Divisor([(V("a"), Fraction(3, 2)), (V("b"), -1)])
        d = Divisor([(V("a"), Fraction(2)), (V("b"), -2)])
        assert d.degree() == 0 and all(type(c) is int for _pt, c in d.terms)

    def test_single_ramp(self):
        g = path_amb()
        f = PLFunction(
            g,
            {
                "e1": EdgeProfile(Fraction(0), (), (1,)),
                "e2": EdgeProfile(Fraction(1), (), (0,)),
            },
        )
        assert divisor_of(f) == make_divisor(g, [(V("a"), 1), (V("m"), -1)])

    def test_trapezoid_divisor(self):
        g = build_graph(["a", "b"], [("e", "a", "b", 10)])
        f = trapezoid(g, "e", (1, 2, 7, 8))
        expected = make_divisor(
            g, [(P("e", 1), 1), (P("e", 2), -1), (P("e", 7), -1), (P("e", 8), 1)]
        )
        assert divisor_of(f) == expected

    def test_trapezoid_in_a_subdivided_frame(self):
        rng = random.Random(31)
        for _ in range(30):
            g = random_graph(rng)
            eid = rng.choice(sorted(g.edges))
            length = g.edges[eid].length
            x1, x2, x3 = sorted(length * Fraction(k, 16) for k in rng.sample(range(1, 8), 3))
            offs = (x1, x2, x3, x3 + x2 - x1)
            # two cuts inside the support, two outside it
            cuts = ((x1 + x2) / 2, (x3 + offs[3]) / 2, x1 / 2, (offs[3] + length) / 2)
            g2 = g.subdivide_many(P(eid, x) for x in cuts)
            f2 = trapezoid(g2, eid, offs)
            assert f2.edge_profiles == trapezoid(g, eid, offs).transport(g2).edge_profiles
            signs = zip(offs, (1, -1, -1, 1))
            assert divisor_of(f2) == make_divisor(g2, [(P(eid, x), c) for x, c in signs])

    def test_trapezoid_gives_a_ray_in_its_support_the_vertex_value(self):
        g = build_graph(["a", "b"], [("e", "a", "b", 10)])
        ext = build_extended(g, [("r", P("e", 4)), ("s", V("b"))])
        f = trapezoid(ext, "e", (1, 3, 6, 8), slope=-1)
        assert f.ray_profiles == {
            "r": RayProfile(Fraction(-2), 0),
            "s": RayProfile(Fraction(0), 0),
        }

    @pytest.mark.parametrize(
        "frame, offsets",
        [
            ("e", (1, 3, 2, 4)),  # not increasing
            ("e", (-1, 1, 2, 4)),  # leaves the frame
            ("e", (7, 8, 9, 11)),  # leaves the frame
            ("e", (1, 2, 3, 5)),  # rise and fall differ
            ("r", (1, 2, 3, 4)),  # reaches the unbounded tail past 2
        ],
    )
    def test_trapezoid_rejects_bad_offsets(self, frame, offsets):
        g = build_graph(["a", "b"], [("e", "a", "b", 10)])
        ext, _ = build_extended(g, [("r", V("a"))]).subdivide_at(P("r", 2))
        with pytest.raises(InvalidPillars):
            trapezoid(ext, frame, offsets)

    def test_degree_zero_on_finite_graphs(self):
        rng = random.Random(5)
        for _ in range(40):
            g = random_graph(rng)
            f = random_pl_function(rng, g)
            assert divisor_of(f).degree() == 0

    def test_linearity(self):
        rng = random.Random(9)
        for _ in range(25):
            g = random_graph(rng)
            f1 = random_pl_function(rng, g)
            f2 = random_pl_function(rng, g)
            assert divisor_of(f1 + f2) == divisor_of(f1) + divisor_of(f2)
            assert divisor_of(f1.add_constant(Fraction(3, 7))) == divisor_of(f1)
            assert divisor_of(-f1) == -divisor_of(f1)


class TestPLFunction:
    @pytest.mark.parametrize("validated", [False, True])
    @pytest.mark.parametrize("brk", [0, 3])
    def test_breakpoints_lie_inside_their_edge(self, brk, validated):
        """A break at 0 of the unit edge would give the divisor a chip at
        `e@0` beside the one at a, a break at 3 a chip off the edge."""
        g = build_graph(["a", "b"], [("e", "a", "b", 1)])
        prof = EdgeProfile(Fraction(0), (Fraction(brk),), (1, 2))
        with pytest.raises(InvalidOffset):
            PLFunction(g, {"e": prof}, _validated=validated)


def refined_function(rng):
    """A random function on a randgen graph with rays `r` and `s`, the
    refinement that cuts one edge at a third, splits `r` by a new ray `n` at
    offset 1 and attaches a new ray `m` at `s`'s vertex, and `n`'s slope."""
    g = random_graph(rng)
    f = random_pl_function(rng, g)
    a, b = g.vertices[0], g.vertices[-1]
    ext = build_extended(g, [("r", V(a)), ("s", V(b))])
    slopes = {"r": rng.randrange(-2, 3), "s": rng.randrange(-2, 3)}
    rays = {"r": RayProfile(f.vertex_value(a), slopes["r"]), "s": RayProfile(f.vertex_value(b), slopes["s"])}
    fx = PLFunction(ext, f.edge_profiles, rays)
    eid = rng.choice(sorted(g.edges))
    new, _ = ext.subdivide_at(P(eid, g.edges[eid].length / 3))
    return fx, new.with_new_rays([("n", P("r", 1)), ("m", V(b))]), {"n": rng.choice([-1, 1])}


class TestTransport:
    def test_transport_shares_the_profiles_of_current_ids(self):
        rng = random.Random(47)
        shared = 0
        for _ in range(30):
            f, new, new_slopes = refined_function(rng)
            moved = f.transport(new, new_slopes)
            old = f.domain
            kept_edges = set(old.finite.edges) & set(new.finite.edges)
            kept_rays = set(old.rays) & set(new.rays)
            assert kept_rays == {"s"}
            shared += len(kept_edges)
            assert all(moved.edge_profiles[eid] is f.edge_profiles[eid] for eid in kept_edges)
            assert all(moved.ray_profiles[rid] is f.ray_profiles[rid] for rid in kept_rays)
            # every profile as cutting each old id into its current pieces gives it
            edges, rays = {}, {}
            for eid, prof in f.edge_profiles.items():
                for _kind, cid, lo, hi in new.segments_of(eid):
                    edges[cid] = prof.sub_profile(lo, hi)
            for rid, rprof in f.ray_profiles.items():
                for kind, cid, lo, _hi in new.segments_of(rid):
                    start = rprof.value_at(lo)
                    if kind == "ray":
                        rays[cid] = RayProfile(start, rprof.slope)
                    else:
                        edges[cid] = EdgeProfile(start, (), (rprof.slope,))
            rays["n"] = RayProfile(f.value(P("r", 1)), new_slopes["n"])
            rays["m"] = RayProfile(f.vertex_value(new.rays["m"].attach), 0)
            assert moved.edge_profiles == edges
            assert moved.ray_profiles == rays
        assert shared > 30

    def test_ray_slopes_are_integers(self):
        """Ray slopes +1/2 and -1/2 at one vertex would cancel in the
        divisor, so the function would pass as a harmonic coordinate."""
        ext = build_extended(build_graph(["a", "b"], [("e", "a", "b", 1)]), [("r", V("a")), ("s", V("a"))])
        with pytest.raises(DiscontinuousFunction):
            PLFunction(
                ext,
                {"e": EdgeProfile(Fraction(0), (), (0,))},
                {"r": RayProfile(Fraction(0), Fraction(1, 2)), "s": RayProfile(Fraction(0), Fraction(-1, 2))},
            )

    def test_ray_sub_profile_is_a_tail_or_a_stub(self):
        ray = RayProfile(Fraction(1), -2)
        assert ray.sub_profile(Fraction(3, 2), None) == RayProfile(Fraction(-2), -2)
        assert ray.sub_profile(Fraction(0), None) == ray
        assert ray.sub_profile(Fraction(1, 2), Fraction(3, 2)) == EdgeProfile(Fraction(0), (), (-2,))

    @pytest.mark.parametrize("cut", [None, "e1", "e2"])
    def test_transport_checks_continuity_on_shared_profiles(self, cut):
        """A jump at m, let through by `_validated=True`, is caught on every
        refinement, also when both edges at m keep their profiles."""
        ext = build_extended(path_amb(), [("r", V("a"))])
        f = PLFunction(
            ext,
            {"e1": EdgeProfile(Fraction(0), (), (1,)), "e2": EdgeProfile(Fraction(5), (), (0,))},
            {"r": RayProfile(Fraction(0), 1)},
            _validated=True,
        )
        new = ext.with_new_rays([("n", V("b"))])
        if cut is not None:
            new, _ = new.subdivide_at(P(cut, Fraction(1, 2)))
        with pytest.raises(DiscontinuousFunction):
            f.transport(new)

    def test_kept_profiles_read_their_end_once_and_stay_checked(self, monkeypatch):
        """A transport keeps the profile of `e1`, whose end value is then
        read from its memo; a neighbour that disagrees with it, or an edge
        `e1` of another length, still breaks continuity."""
        reads = []
        value_at = EdgeProfile.value_at

        def counted(prof, off):
            reads.append(prof)
            return value_at(prof, off)

        monkeypatch.setattr(EdgeProfile, "value_at", counted)
        ext = build_extended(path_amb(), [("r", V("a"))])
        kept = EdgeProfile(Fraction(0), (Fraction(1, 4),), (2, 1))
        f = PLFunction(
            ext, {"e1": kept, "e2": EdgeProfile(Fraction(5, 4), (), (0,))}, {"r": RayProfile(Fraction(0), -2)}
        )
        new, _ = ext.subdivide_at(P("e2", Fraction(1, 2)))
        moved = [f.transport(new) for _ in range(5)]
        assert all(g.edge_profiles["e1"] is kept for g in moved)
        assert reads.count(kept) == 1
        (_kind, after_m, _lo, _hi), _rest = new.segments_of("e2")
        jump = dict(moved[0].edge_profiles, **{after_m: EdgeProfile(Fraction(1), (), (0,))})
        with pytest.raises(DiscontinuousFunction, match="at vertex 'm'"):
            PLFunction(new, jump, moved[0].ray_profiles)
        longer = build_extended(
            build_graph(["a", "m", "b"], [("e1", "a", "m", 2), ("e2", "m", "b", 1)]), [("r", V("a"))]
        )
        with pytest.raises(DiscontinuousFunction, match="at vertex 'm'"):
            PLFunction(longer, f.edge_profiles, f.ray_profiles)


class TestIsPrincipal:
    def test_zero_divisor(self):
        g = path_amb()
        res = is_principal(g, Divisor.zero())
        assert res.principal
        assert divisor_of(res.witness).is_zero()
        assert res.witness.value(V("a")) == 0

    def test_circle_offset_third_is_not_principal(self):
        # oracle: slopes s (arc of length 1) and t (arc of length 2) must
        # satisfy s - t = 1 and s + 2t = 0; no integer pair works
        assert not [
            (s, t)
            for s in range(-10, 11)
            for t in range(-10, 11)
            if s - t == 1 and s * 1 + t * 2 == 0
        ]
        g = circle(3)
        d = make_divisor(g, [(P("loop", Fraction(1, 2)), 1), (P("loop", Fraction(3, 2)), -1)])
        res = is_principal(g, d)
        assert not res.principal
        assert res.obstruction is not None
        eid, slope = res.obstruction
        assert slope.denominator == 3

    def test_fig2_divisor_is_principal(self):
        g = fig2_skeleton()
        d = make_divisor(g, [(V("p1"), -1), (V("p3"), 1), (V("p6"), -1), (V("p4"), 1)])
        res = is_principal(g, d)
        assert res.principal
        assert divisor_of(res.witness) == d

    def test_fig2_witness_values(self):
        # frozen from solving the slope system by hand on the hexagon:
        # arc slopes (0,-1,-1,0,1,1) from q1 around, spoke slopes (1,0,-1)
        g = fig2_skeleton()
        d = make_divisor(g, [(V("p1"), -1), (V("p3"), 1), (V("p6"), -1), (V("p4"), 1)])
        f = construct_pl_with_divisor(g, d, V("q1"))
        expected = {
            "q1": 0,
            "p6": 0,
            "q2": Fraction(-1, 2),
            "p4": -1,
            "q3": -1,
            "p5": Fraction(-1, 2),
            "p1": Fraction(1, 2),
            "p2": Fraction(-1, 2),
            "p3": Fraction(-3, 2),
        }
        for v, val in expected.items():
            assert f.value(V(v)) == val

    def test_degree_checked(self):
        g = path_amb()
        with pytest.raises(NonzeroDegree):
            is_principal(g, make_divisor(g, [(V("a"), 1)]))

    def test_invariant_under_subdivision(self):
        rng = random.Random(21)
        for _ in range(20):
            g = random_graph(rng)
            f = random_pl_function(rng, g)
            d = divisor_of(f)
            eid = rng.choice(list(g.edges))
            e = g.edges[eid]
            g2, _ = g.subdivide_at(P(eid, e.length * Fraction(1, 3)))
            assert is_principal(g2, d).principal
        # and a known non-principal divisor stays non-principal
        g = circle(3)
        d = make_divisor(g, [(P("loop", Fraction(1, 2)), 1), (P("loop", Fraction(3, 2)), -1)])
        g2, _ = g.subdivide_at(P("loop", Fraction(1, 4)))
        assert not is_principal(g2, d).principal

    def test_random_verdicts_agree_with_chip_firing(self):
        # principal divisors with interior support, and the same divisors with
        # one chip moved one lattice step; the lattice is kept small so the
        # dense Laplacian solve stays cheap
        rng = random.Random(29)
        verdicts = []
        while len(verdicts) < 40:
            g = random_graph(rng)
            d = divisor_of(random_pl_function(rng, g))
            spacing = chipfiring.lattice_spacing(g, [d])
            moved = next((pt for pt in d.support() if not pt.is_vertex), None)
            if moved is None or sum(e.length for e in g.edges.values()) / spacing > 24:
                continue
            step = make_divisor(g, [(P(moved.edge, moved.offset + spacing), 1), (moved, -1)])
            dg, locate = chipfiring.lattice_model(g, spacing)
            for div in (d, d + step):
                got = is_principal(g, div).principal
                chips = chipfiring.chips_of(dg, locate, div)
                assert got == chipfiring.laplacian_equivalent(dg, chips, [0] * dg.n)
                verdicts.append(got)
        assert verdicts[::2] == [True] * 20
        assert 0 < verdicts[1::2].count(False) < 20

    def test_trees_need_no_period_solve(self, monkeypatch):
        # a tree has no cycles, so its slopes are the peeled chain alone
        calls = []
        solve = divisors.solve_linear
        monkeypatch.setattr(divisors, "solve_linear", lambda *args: calls.append(args) or solve(*args))
        trees = [g for g in (random_graph(random.Random(s)) for s in range(40)) if g.betti_number() == 0]
        assert len(trees) == 14
        for seed, g in enumerate(trees):
            f = random_pl_function(random.Random(seed), g)
            base = g.vertices[0]
            res = is_principal(g, divisor_of(f), V(base))
            assert divisor_of(res.witness) == divisor_of(f)
            assert all(
                res.witness.vertex_value(v) == f.vertex_value(v) - f.vertex_value(base)
                for v in g.vertices
            )
        assert calls == []
        g = circle()
        is_principal(g, Divisor.zero())  # one cycle: one 1x1 solve
        assert len(calls) == 1


class TestConstruct:
    def test_ramp(self):
        g = path_amb()
        d = make_divisor(g, [(V("a"), 1), (V("m"), -1)])
        f = construct_pl_with_divisor(g, d, V("a"))
        assert f.value(V("a")) == 0
        assert f.value(V("m")) == 1  # rises with slope 1 away from a, then flat
        assert f.value(V("b")) == 1
        assert divisor_of(f) == d

    def test_pillar_pattern_gives_trapezoid(self):
        g = build_graph(["a", "b"], [("e", "a", "b", 10)])
        d = make_divisor(
            g, [(P("e", 1), 1), (P("e", 2), -1), (P("e", 7), -1), (P("e", 8), 1)]
        )
        f = construct_pl_with_divisor(g, d, V("a"))
        ref = trapezoid(g, "e", (1, 2, 7, 8))
        for off in (0, 1, Fraction(3, 2), 2, 5, 7, Fraction(15, 2), 8, 10):
            assert f.value(P("e", off)) == ref.value(P("e", off))

    def test_second_basepoint_differs_by_constant(self):
        g = fig2_skeleton()
        d = make_divisor(g, [(V("p1"), -1), (V("p3"), 1), (V("p6"), -1), (V("p4"), 1)])
        f1 = construct_pl_with_divisor(g, d, V("q1"))
        f2 = construct_pl_with_divisor(g, d, V("p4"))
        shift = f1.value(V("p4"))
        for v in g.vertices:
            assert f2.value(V(v)) == f1.value(V(v)) - shift

    def test_not_principal_raises(self):
        g = circle(3)
        d = make_divisor(g, [(P("loop", Fraction(1, 2)), 1), (P("loop", Fraction(3, 2)), -1)])
        with pytest.raises(NotPrincipal):
            construct_pl_with_divisor(g, d, V("v"))

    def test_roundtrip_random(self):
        rng = random.Random(77)
        for _ in range(60):
            g = random_graph(rng)
            f = random_pl_function(rng, g)
            d = divisor_of(f)
            g2 = construct_pl_with_divisor(g, d)
            assert divisor_of(g2) == d


class TestCor34:
    def test_zero_divisor_trapezoid(self):
        g = circle(10)
        # the split loop has two edges of length 5 each
        eid = sorted(g.edges)[0]
        pts = [P(eid, Fraction(x, 2)) for x in (1, 2, 7, 8)]
        f = cor34_certificate(g, Divisor.zero(), [eid], [pts])
        expected = make_divisor(
            g, [(pts[0], 1), (pts[1], -1), (pts[2], -1), (pts[3], 1)]
        )
        assert divisor_of(f) == expected

    def test_fig2_with_pillars(self):
        g = fig2_skeleton()
        d = make_divisor(g, [(V("p1"), -1), (V("p3"), 1), (V("p6"), -1), (V("p4"), 1)])
        comp = [eid for eid in g.edges if eid not in set(g.canonical_spanning_tree())]
        assert len(comp) == 1
        eid = comp[0]
        length = g.edges[eid].length
        pts = [P(eid, length * Fraction(k, 8)) for k in (1, 2, 5, 6)]
        f = cor34_certificate(g, d, comp, [pts])
        extra = make_divisor(g, [(pts[0], 1), (pts[1], -1), (pts[2], -1), (pts[3], 1)])
        assert divisor_of(f) == d + extra
        # equals witness-of-base plus the trapezoid, up to a constant
        base = construct_pl_with_divisor(g, d)
        trap = trapezoid(g, eid, [p.offset for p in pts])
        combined = base + trap
        diff0 = f.value(V("q1")) - combined.value(V("q1"))
        for v in g.vertices:
            assert f.value(V(v)) - combined.value(V(v)) == diff0

    def test_bad_pillars_raise(self):
        g = circle(10)
        eid = sorted(g.edges)[0]
        pts = [P(eid, Fraction(x, 2)) for x in (1, 2, 8, 7)]
        with pytest.raises(InvalidPillars):
            cor34_certificate(g, Divisor.zero(), [eid], [pts])
