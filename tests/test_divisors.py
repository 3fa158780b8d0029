import hashlib
import random
from fractions import Fraction

import pytest

from tropicurve import breakdiv, chipfiring, divisors
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
)
from tropicurve.errors import (
    DiscontinuousFunction,
    InvalidOffset,
    InvalidPillars,
    NonIntegralCoefficient,
    NonzeroDegree,
    NotPrincipal,
)
from tropicurve.graphs import CycleSpace, GraphPoint, MetricGraph, build_extended, build_graph

from randgen import bump, ladder, negated, random_graph, random_pl_function

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
        f = bump(g, "e", (1, 2, 7, 8))
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
            f2 = bump(g2, eid, offs)
            assert f2.edge_profiles == bump(g, eid, offs).transport(g2).edge_profiles
            signs = zip(offs, (1, -1, -1, 1))
            assert divisor_of(f2) == make_divisor(g2, [(P(eid, x), c) for x, c in signs])

    def test_trapezoid_gives_a_ray_in_its_support_the_vertex_value(self):
        g = build_graph(["a", "b"], [("e", "a", "b", 10)])
        ext = build_extended(g, [("r", P("e", 4)), ("s", V("b"))])
        f = bump(ext, "e", (1, 3, 6, 8), slope=-1)
        assert f.ray_profiles == {
            "r": RayProfile(Fraction(-2), 0),
            "s": RayProfile(Fraction(0), 0),
        }

    def test_a_bump_on_a_function_raises_the_rays_in_its_support(self):
        """On a nonzero function, a bump whose support holds a ray's attach
        vertex raises the ray's start with the vertex: every vertex value
        and ray start is the function's plus the zero-based bump's, and a
        ray that no bump reaches keeps its profile."""
        rng = random.Random(43)
        for _ in range(30):
            g = random_graph(rng)
            eid = rng.choice(sorted(g.edges))
            length = g.edges[eid].length
            ext = build_extended(g, [("r", P(eid, length / 2)), ("s", V(g.edges[eid].a))])
            slopes = {"r": rng.randrange(-2, 3), "s": rng.randrange(-2, 3)}
            f = random_pl_function(rng, g).transport(ext, slopes)
            offs = [length * Fraction(k, 8) for k in (1, 3, 5, 7)]
            slope = rng.choice((-2, -1, 1, 2))
            h = f.add_trapezoids([(eid, offs, slope)])
            ref = bump(ext, eid, offs, slope)
            for v in ext.finite.vertices:
                assert h.vertex_value(v) == f.vertex_value(v) + ref.vertex_value(v)
            for rid, prof in f.ray_profiles.items():
                assert h.ray_profiles[rid] == RayProfile(prof.start + ref.ray_profiles[rid].start, prof.slope)
            assert h.ray_profiles["r"].start - f.ray_profiles["r"].start == slope * length / 4
            assert h.ray_profiles["s"] is f.ray_profiles["s"]
            assert divisor_of(h) == divisor_of(f) + divisor_of(ref)

    @pytest.mark.parametrize(
        "frame, offsets",
        [
            ("e", (1, 3, 2, 4)),  # not increasing
            ("e", (-1, 1, 2, 4)),  # leaves the frame
            ("e", (7, 8, 9, 11)),  # leaves the frame
            ("e", (1, 2, 3, 5)),  # rise and fall differ
            ("r", (1, 2, 3, 4)),  # reaches the unbounded tail past 2
            ("e", (1, 2, 3)),  # too few offsets
            ("e", (1, 2, 3, 4, 5)),  # too many offsets
        ],
    )
    def test_trapezoid_rejects_bad_offsets(self, frame, offsets):
        g = build_graph(["a", "b"], [("e", "a", "b", 10)])
        ext, _ = build_extended(g, [("r", V("a"))]).subdivide_at(P("r", 2))
        with pytest.raises(InvalidPillars):
            bump(ext, frame, offsets)
        with pytest.raises(InvalidPillars):
            bump(ext, "e", (1, 2, 3, 4)).add_trapezoids([(frame, offsets, 1)])

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
            shifted = {eid: EdgeProfile(p.start + Fraction(3, 7), p.breaks, p.slopes)
                       for eid, p in f1.edge_profiles.items()}
            assert divisor_of(PLFunction(g, shifted)) == divisor_of(f1)
            assert divisor_of(negated(f1)) == -divisor_of(f1)


class TestPLFunction:
    @pytest.mark.parametrize("trusted", [False, True])
    @pytest.mark.parametrize("brk", [0, 3])
    def test_breakpoints_lie_inside_their_edge(self, brk, trusted):
        """A break at 0 of the unit edge would give the divisor a chip at
        `e@0` beside the one at a, a break at 3 a chip off the edge; also
        when a trusted builder passes the vertex values in."""
        g = build_graph(["a", "b"], [("e", "a", "b", 1)])
        prof = EdgeProfile(Fraction(0), (Fraction(brk),), (1, 2))
        vals = {"a": Fraction(0), "b": prof.end_value(Fraction(1))} if trusted else None
        with pytest.raises(InvalidOffset):
            PLFunction(g, {"e": prof}, _vertex_values=vals)


    def test_trusted_vertex_values_equal_the_checked_reading(self):
        """`is_principal` passes its vertex values in; a function built from
        the same profiles reads and checks the same values, also with a
        basepoint inside an edge."""
        rng = random.Random(13)
        for _ in range(30):
            g = random_graph(rng)
            f = random_pl_function(rng, g)
            eid = rng.choice(sorted(g.edges))
            witness = construct_pl_with_divisor(g, divisor_of(f), P(eid, g.edges[eid].length / 3))
            checked = PLFunction(g, witness.edge_profiles)
            assert [witness.vertex_value(v) for v in g.vertices] == [checked.vertex_value(v) for v in g.vertices]


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

    @staticmethod
    def assert_cut_as_sub_profiles(prof, spans):
        """`cut` gives `sub_profile` of every span, and each finite piece's
        memo holds its length and its value there."""
        pieces = prof.cut(spans)
        assert pieces == [prof.sub_profile(lo, hi) for lo, hi in spans]
        for piece, (lo, hi) in zip(pieces, spans):
            if hi is None:
                assert "_end" not in piece.__dict__
                continue
            length, end = piece.__dict__["_end"]
            assert length == hi - lo
            assert end == piece.value_at(length) == prof.value_at(hi)

    def test_one_walk_cut_equals_a_sub_profile_per_piece(self):
        """Random profiles, with no break one time in four, cut at random
        points, which take a break point one time in three."""
        rng = random.Random(59)
        at_breaks = no_breaks = 0
        for _ in range(300):
            length = Fraction(rng.randint(1, 12), rng.randint(1, 4))
            inside = sorted({length * Fraction(rng.randint(1, 23), 24) for _ in range(rng.randint(0, 5))})
            breaks = () if rng.random() < 0.25 else tuple(inside)
            no_breaks += not breaks
            slopes = tuple(rng.randint(-3, 3) for _ in range(len(breaks) + 1))
            prof = EdgeProfile(Fraction(rng.randint(-9, 9), rng.randint(1, 3)), breaks, slopes)
            cuts = {length * Fraction(rng.randint(1, 23), 24) for _ in range(rng.randint(0, 4))}
            if breaks and rng.random() < 1 / 3:
                cuts.add(rng.choice(breaks))
            at_breaks += bool(cuts & set(breaks))
            xs = [Fraction(0)] + sorted(cuts) + [length]
            self.assert_cut_as_sub_profiles(prof, list(zip(xs, xs[1:])))
        assert at_breaks > 50 and no_breaks > 50

    def test_one_walk_cut_of_a_ray_gives_its_stubs_and_tail(self):
        rng = random.Random(61)
        for _ in range(100):
            prof = RayProfile(Fraction(rng.randint(-9, 9), rng.randint(1, 3)), rng.randint(-3, 3))
            cuts = {Fraction(rng.randint(1, 40), rng.randint(1, 4)) for _ in range(rng.randint(0, 3))}
            xs = [Fraction(0)] + sorted(cuts)
            self.assert_cut_as_sub_profiles(prof, list(zip(xs, xs[1:])) + [(xs[-1], None)])
        assert RayProfile(Fraction(1), -2).cut([(Fraction(0), None)]) == [RayProfile(Fraction(1), -2)]

    def test_a_transport_in_one_step_equals_the_chained_transports(self):
        """Across a subdivision, a new ray at an interior point and a second
        subdivision (of any current edge, or of the ray `r` of the
        function's domain), one transport gives every profile the chain of
        three gives.  So does one transport of the function on the finite
        part with its slope on `r` in the slope map, while `r` is uncut."""
        rng = random.Random(23)
        lifted = 0
        for _ in range(40):
            g = random_graph(rng)
            f = random_pl_function(rng, g)
            a = g.vertices[0]
            ext = build_extended(g, [("r", V(a))])
            r_slope = rng.randrange(-2, 3)
            fx = PLFunction(ext, f.edge_profiles, {"r": RayProfile(f.vertex_value(a), r_slope)})
            chain = [ext]
            for step in ("cut", "ray", "cut"):
                skel = chain[-1]
                ids = sorted(skel.finite.edges) + ["r"] * (step == "cut")
                eid = rng.choice(ids)
                length = skel.finite.edges[eid].length if eid in skel.finite.edges else Fraction(2)
                pt = P(eid, length * Fraction(rng.randrange(1, 8), 8))
                chain.append(skel.subdivide_at(pt)[0] if step == "cut" else skel.with_new_rays([("n", pt)]))
            slopes = {"n": rng.choice([-1, 1])}
            chained = fx
            for skel in chain[1:]:
                chained = chained.transport(skel, slopes)
            once = fx.transport(chain[-1], slopes)
            assert once.edge_profiles == chained.edge_profiles
            assert once.ray_profiles == chained.ray_profiles
            if "r" in chain[-1].rays:
                lifted += 1
                from_finite = f.transport(chain[-1], dict(slopes, r=r_slope))
                assert from_finite.edge_profiles == chained.edge_profiles
                assert from_finite.ray_profiles == chained.ray_profiles
        assert lifted > 20

    def test_a_cut_ray_born_after_the_domain_is_an_uncovered_edge(self):
        """Refinements that cut a ray attached after the function's domain
        break `transport`'s precondition: the ray's stub descends from no
        profile, and the error names it."""
        ext = build_extended(circle(), [])
        f = bump(ext, "loop", (Fraction(1, 4), Fraction(1, 2), 1, Fraction(5, 4)))
        new = ext.with_new_rays([("n", P("loop", 2))])
        assert f.transport(new, {"n": 1}).ray_profiles == {"n": RayProfile(Fraction(0), 1)}
        cut, _ = new.subdivide_at(P("n", 1))
        with pytest.raises(DiscontinuousFunction, match="'n.stub'"):
            f.transport(cut, {"n": 1})

    @pytest.mark.parametrize("cut", [None, "e1", "e2"])
    def test_transport_checks_continuity_on_shared_profiles(self, cut):
        """A jump at m, let through by trusted vertex values, is caught on
        every refinement, also when both edges at m keep their profiles."""
        ext = build_extended(path_amb(), [("r", V("a"))])
        f = PLFunction(
            ext,
            {"e1": EdgeProfile(Fraction(0), (), (1,)), "e2": EdgeProfile(Fraction(5), (), (0,))},
            {"r": RayProfile(Fraction(0), 1)},
            _vertex_values={"a": Fraction(0), "m": Fraction(1), "b": Fraction(5)},
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
        # one chip moved one lattice step, on lattices of up to 400 points
        rng = random.Random(29)
        verdicts = []
        while len(verdicts) < 40:
            g = random_graph(rng)
            d = divisor_of(random_pl_function(rng, g))
            spacing = chipfiring.lattice_spacing(g, [d])
            moved = next((pt for pt in d.support() if not pt.is_vertex), None)
            if moved is None or sum(e.length for e in g.edges.values()) / spacing > 400:
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

    def test_a_canonical_divisor_is_not_re_anchored(self, monkeypatch):
        """A divisor whose points are all canonical on its graph is read as
        it is, with no `canonical_point` call.  Given in the retired frames
        of a subdivision, or with its vertex chips at an end of an edge, it
        is re-anchored and gets the verdict, obstruction and witness of its
        canonical form."""
        rng = random.Random(37)
        canonical_point = MetricGraph.canonical_point
        calls = []
        monkeypatch.setattr(MetricGraph, "canonical_point", lambda g, pt: calls.append(pt) or canonical_point(g, pt))

        def outcome(graph, d):
            res = is_principal(graph, d)
            if not res.principal:
                return False, res.obstruction
            return True, res.witness.edge_profiles, [res.witness.vertex_value(v) for v in graph.vertices]

        def at_an_end(g, v):
            eid, _w = g.adjacency[v][0]
            return P(eid, 0 if g.edges[eid].a == v else g.edges[eid].length)

        graphs = [random_graph(rng) for _ in range(20)] + [ladder(rng, 6)]
        verdicts = set()
        cut = 0
        for g in graphs:
            d = divisor_of(random_pl_function(rng, g))
            eid = rng.choice(sorted(g.edges))
            moved = d + make_divisor(g, [(V(g.edges[eid].a), 1), (P(eid, g.edges[eid].length / 3), -1)])
            cuts = [P(eid, g.edges[eid].length / 2)] + [pt for pt in d.support() if not pt.is_vertex][:1]
            g2 = g.subdivide_many(cuts)
            for div in (d, moved):
                calls.clear()
                got = outcome(g, div)
                assert calls == []
                verdicts.add(got[0])
                at_ends = Divisor((at_an_end(g, pt.vertex), c) if pt.is_vertex else (pt, c) for pt, c in div.terms)
                assert outcome(g, at_ends) == got and len(calls) == len(div.terms)
                canonical = make_divisor(g2, div.terms)
                retired = canonical != div
                calls.clear()
                got = outcome(g2, canonical)
                assert calls == []
                assert outcome(g2, div) == got and len(calls) == retired * len(div.terms)
                cut += retired
        assert verdicts == {True, False} and cut > 20

    def test_the_witness_does_not_depend_on_the_tree(self, monkeypatch):
        """`is_principal` solves on the graph's cached cycle space, on the
        cycles of a breadth-first tree; the same solve on the cycle space of
        the canonical tree gives the same verdict, obstruction, profiles and
        vertex values.  Random graphs and ladders, each with a principal
        divisor and one with a chip moved into an edge, with and without a
        basepoint.  The patched property shadows each graph's cache, and
        every graph reads it."""
        rng = random.Random(31)
        graphs = [random_graph(rng) for _ in range(60)] + [ladder(rng, n) for n in (3, 6, 12, 20)]
        cases = []
        for g in graphs:
            d = divisor_of(random_pl_function(rng, g))
            eid = rng.choice(sorted(g.edges))
            moved = d + make_divisor(g, [(V(rng.choice(g.vertices)), 1), (P(eid, g.edges[eid].length / 3), -1)])
            for div in (d, moved):
                cases += [(g, div, None), (g, div, P(eid, g.edges[eid].length / 2))]
        bfs = [is_principal(*case) for case in cases]
        read = []

        def kruskal(g):
            read.append(g)
            return CycleSpace(g, g.canonical_spanning_tree())

        monkeypatch.setattr(MetricGraph, "cycle_space", property(kruskal))
        canonical = [is_principal(*case) for case in cases]
        assert set(read) == set(graphs)
        for (g, _d, _bp), got, ref in zip(cases, bfs, canonical):
            assert (got.principal, got.obstruction) == (ref.principal, ref.obstruction)
            if got.principal:
                assert got.witness.edge_profiles == ref.witness.edge_profiles
                assert [got.witness.vertex_value(v) for v in g.vertices] == [ref.witness.vertex_value(v) for v in g.vertices]
        assert 0 < sum(r.principal for r in bfs) < len(bfs)
        other_tree = [CycleSpace(g).complement != CycleSpace(g, g.canonical_spanning_tree()).complement for g in graphs]
        assert all(other_tree[-4:]) and sum(other_tree) > 4

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
        ref = bump(g, "e", (1, 2, 7, 8))
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

    @pytest.mark.parametrize(
        "basepoint", [V("m"), P("e1", Fraction(1, 8)), P("e1", Fraction(1, 2)), P("e1", Fraction(7, 8)), P("e2", 1)],
        ids=["vertex", "before", "between", "past", "end"],
    )
    def test_witness_is_zero_at_its_basepoint(self, basepoint):
        """The witness with a basepoint is the default witness shifted to be
        0 there, at a vertex or inside an edge, before, between or past its
        chips."""
        g = path_amb()
        d = make_divisor(g, [(P("e1", Fraction(1, 4)), 1), (P("e1", Fraction(3, 4)), -1)])
        ref = construct_pl_with_divisor(g, d)
        f = construct_pl_with_divisor(g, d, basepoint)
        assert f.value(basepoint) == 0 and divisor_of(f) == d
        pts = [V(v) for v in g.vertices] + [P("e1", Fraction(k, 8)) for k in range(1, 8)]
        assert {f.value(pt) - ref.value(pt) for pt in pts} == {-ref.value(basepoint)}

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
        combined = base.add_trapezoids([(eid, [p.offset for p in pts], 1)])
        diff0 = f.value(V("q1")) - combined.value(V("q1"))
        for v in g.vertices:
            assert f.value(V(v)) - combined.value(V(v)) == diff0

    def test_bad_pillars_raise(self):
        g = circle(10)
        eid = sorted(g.edges)[0]
        pts = [P(eid, Fraction(x, 2)) for x in (1, 2, 8, 7)]
        with pytest.raises(InvalidPillars):
            cor34_certificate(g, Divisor.zero(), [eid], [pts])


# -- principality pinned by digest ------------------------------------------------------


def _witness_record(graph, f):
    """A witness's vertex values and edge profiles, in the graph's vertex
    and edge order, after the verdict True."""
    profiles = [(eid, p.start, p.breaks, p.slopes) for eid, p in sorted(f.edge_profiles.items())]
    return (True, [(v, f.vertex_value(v)) for v in graph.vertices], profiles)


def _principality_record(graph, res):
    return _witness_record(graph, res.witness) if res.principal else (False, res.obstruction)


def _digest(records):
    return hashlib.sha256(repr(records).encode()).hexdigest()[:16]


def _chip(rng, g, den):
    """A point of g at a multiple of 1/den of a random edge's length, at a
    vertex when den is 1."""
    eid = rng.choice(sorted(g.edges))
    return P(eid, g.edges[eid].length * Fraction(rng.randrange(1, den), den)) if den > 1 else V(rng.choice(g.vertices))


def _principality_cases(seed, count):
    """(graph, refined graph, divisor, basepoint) on `count` random graphs:
    the divisor of a random PL function, the same with one chip moved, and
    a degree-zero divisor with chips at denominators 1 to 8, each with no
    basepoint, a vertex and a point inside an edge.  The refined graph is
    the graph subdivided at two of the chips and one point of its own, so
    there some points are given in retired frames."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        g = random_graph(rng)
        d = divisor_of(random_pl_function(rng, g))
        moved = d + make_divisor(g, [(V(rng.choice(g.vertices)), 1), (_chip(rng, g, rng.randrange(2, 9)), -1)])
        terms = [(_chip(rng, g, den), rng.choice([-2, -1, 1, 2])) for den in rng.sample(range(1, 9), 4)]
        terms.append((V(rng.choice(g.vertices)), -sum(c for _pt, c in terms)))
        cuts = [pt for pt in d.support() + moved.support() if not pt.is_vertex][:2] + [_chip(rng, g, 6)]
        g2 = g.subdivide_many(cuts)
        for div in (d, moved, make_divisor(g, terms)):
            for bp in (None, V(rng.choice(g.vertices)), _chip(rng, g, rng.randrange(2, 9))):
                cases.append((g, g2, div, bp))
    return cases


PRINCIPALITY_DIGESTS = {
    "random": "63ac8cb7afcc853e",
    "retired frames": "4bbef0512444a0f2",
    "ladder": "60efec24ba41a472",
    "break": "4c9503fe597e5134",
}


def test_principality_outputs_are_pinned_by_digest():
    """Verdicts, obstructions and witnesses of `is_principal` on random
    graphs with chips at denominators 1 to 8, and on the same divisors and
    basepoints given in the retired frames of a subdivision; on a 40-rung
    ladder; and the break divisors and witnesses of
    `break_divisor_decompose` on random graphs and ladders of genus 1 to 4."""
    cases = _principality_cases(43, 60)
    got = {
        "random": _digest([_principality_record(g, is_principal(g, d, bp)) for g, _g2, d, bp in cases]),
        "retired frames": _digest([_principality_record(g2, is_principal(g2, d, bp)) for _g, g2, d, bp in cases]),
    }
    rng = random.Random(44)
    lad = ladder(rng, 40)
    d = divisor_of(random_pl_function(rng, lad))
    moves = ([(V("u3"), 1), (V("w17"), -1)], [(V("u3"), 1), (P("a7", Fraction(1, 3)), -1)])
    ladder_cases = [d] + [d + make_divisor(lad, move) for move in moves]
    basepoints = (None, V("w20"), P("b30", Fraction(1, 7)))
    got["ladder"] = _digest(
        [_principality_record(lad, is_principal(lad, div, bp)) for div in ladder_cases for bp in basepoints]
    )
    breaks = []
    graphs = [g for g in (random_graph(rng) for _ in range(60)) if g.betti_number()][:30]
    graphs += [ladder(rng, n) for n in (3, 3, 4, 5)]
    for g in graphs:
        genus = g.betti_number()
        chips = [(_chip(rng, g, rng.randrange(1, 5)), 1) for _ in range(genus + 1)]
        chips.append((V(rng.choice(g.vertices)), -1))
        b, f = breakdiv.break_divisor_decompose(g, make_divisor(g, chips))
        breaks.append((b.terms, _witness_record(g, f)))
    got["break"] = _digest(breaks)
    assert got == PRINCIPALITY_DIGESTS
