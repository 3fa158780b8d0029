import hashlib
import random
from fractions import Fraction

import pytest

from tropicurve import tropicalize as tropicalize_module
from tropicurve.complexes import BalancingReport, TropPoint, check_balancing, check_smooth
from tropicurve.divisors import (
    EdgeProfile,
    PLFunction,
    RayProfile,
    divisor_of,
)
from tropicurve.errors import (
    CertificateFailure,
    DivisorCollision,
    EmptyCoordinates,
    InvalidCoordinate,
    InvalidExtRational,
    NonSimplePoint,
    TropicurveError,
    UnknownEdge,
)
from tropicurve.graphs import GraphPoint, build_extended, build_graph
from tropicurve.rationals import MINUS_INF, PLUS_INF, ExtRational
from tropicurve.synthesis import tate_demo
from tropicurve.tropicalize import (
    Embedding,
    _common_denominator,
    _covered_hull,
    _denominator,
    _hulls_meet,
    _line_intersection,
    _meeting_pairs,
    _scaled,
    adjoin,
    assemble,
    extend_embedding,
    frame_pieces,
    images_meet,
    is_fully_faithful,
    line_item,
    tropicalize,
    validate_coordinate,
)

from randgen import bump, random_graph

V = GraphPoint.at_vertex
P = GraphPoint.on_edge


def line_embedding(length=2):
    """Path with arclength coordinate, rays absorbing the divisor."""
    g = build_graph(["a", "b"], [("e", "a", "b", length)])
    ext = build_extended(g, [("ra", V("a")), ("rb", V("b"))])
    f = PLFunction(
        ext,
        {"e": EdgeProfile(Fraction(0), (), (1,))},
        {"ra": RayProfile(Fraction(0), -1), "rb": RayProfile(Fraction(length), 1)},
    )
    return Embedding(ext, [f])


def fold_embedding():
    """Circle folded onto a segment by one coordinate; weight 2 image."""
    g = build_graph(["v"], [("loop", "v", "v", 2)])
    ext = build_extended(g, [("rv", V("v")), ("rm", V("loop.mid"))])
    f = PLFunction(
        ext,
        {
            "loop.0": EdgeProfile(Fraction(0), (), (1,)),
            "loop.1": EdgeProfile(Fraction(1), (), (-1,)),
        },
        {"rv": RayProfile(Fraction(0), -2), "rm": RayProfile(Fraction(1), 2)},
    )
    return Embedding(ext, [f])


def contracted_embedding():
    """Path a-b-c whose one coordinate is constant on the edge b-c."""
    g = build_graph(["a", "b", "c"], [("e1", "a", "b", 2), ("e2", "b", "c", 1)])
    ext = build_extended(g, [("ra", V("a")), ("rb", V("b"))])
    f = PLFunction(
        ext,
        {
            "e1": EdgeProfile(Fraction(0), (), (1,)),
            "e2": EdgeProfile(Fraction(2), (), (0,)),
        },
        {"ra": RayProfile(Fraction(0), -1), "rb": RayProfile(Fraction(2), 1)},
    )
    return Embedding(ext, [f])


def tate_leaf(c, attach, leaf_length, leaf_ray=True, zero_rays=()):
    """`tate_demo(c)` plus a leaf edge at `attach` to a vertex t, with a
    ray `rt` at t unless `leaf_ray` is false, and one ray per (id, vertex)
    of `zero_rays`; both coordinates are constant on all of them, so
    neither pipeline is a no-op."""
    emb, _curve = tate_demo(c)
    fin = emb.skeleton.finite
    edges = [(e.id, e.a, e.b, e.length) for e in fin.edges.values()]
    fin2 = build_graph(list(fin.vertices) + ["t"], edges + [("leaf", attach, "t", leaf_length)])
    added = [("rt", "t")] * leaf_ray + list(zero_rays)
    rays = [(r.id, V(r.attach)) for r in emb.skeleton.rays.values()] + [(rid, V(v)) for rid, v in added]
    skel = build_extended(fin2, rays)
    coords = []
    for f in emb.coords:
        val = f.vertex_value(attach)
        profiles = dict(f.edge_profiles, leaf=EdgeProfile(val, (), (0,)))
        zeros = {rid: RayProfile(val if v == "t" else f.vertex_value(v), 0) for rid, v in added}
        coords.append(PLFunction(skel, profiles, dict(f.ray_profiles, **zeros)))
    return Embedding(skel, coords)


class TestEmbedding:
    def test_coordinate_must_be_harmonic(self):
        g = build_graph(["a", "b"], [("e", "a", "b", 2)])
        ext = build_extended(g, [])
        bad = PLFunction(ext, {"e": EdgeProfile(Fraction(0), (), (1,))}, {})
        with pytest.raises(InvalidCoordinate):
            Embedding(ext, [bad])

    def test_trapezoid_needs_no_rays(self):
        # a trapezoid is not harmonic either; it needs the extension step
        g = build_graph(["a", "b"], [("e", "a", "b", 10)])
        ext = build_extended(g, [])
        f = bump(ext, "e", (1, 2, 7, 8))
        with pytest.raises(InvalidCoordinate):
            Embedding(ext, [f])

    def test_empty_coords_raise_on_tropicalize(self):
        g = build_graph(["a", "b"], [("e", "a", "b", 2)])
        emb = Embedding(build_extended(g, []), [])
        with pytest.raises(EmptyCoordinates):
            tropicalize(emb)


class TestTropicalize:
    def test_line_embedding_image(self):
        curve, emap = tropicalize(line_embedding(2))
        assert curve.ambient_dim == 1
        # one bounded edge of lattice length 2 and two rays
        bounded = [e for e in curve.edges.values() if e.length is not None]
        rays = [e for e in curve.edges.values() if e.length is None]
        assert len(bounded) == 1 and bounded[0].length == 2
        assert bounded[0].weight == 1
        assert len(rays) == 2
        assert not [p for p in emap.pieces if p.stretch == 0]

    def test_fold_has_weight_two(self):
        curve, emap = tropicalize(fold_embedding())
        bounded = [e for e in curve.edges.values() if e.length is not None]
        assert len(bounded) == 1
        assert bounded[0].weight == 2
        assert bounded[0].length == 1
        # the two half-loops both map onto it
        srcs = emap.edge_sources[bounded[0].id]
        assert len(srcs) == 2

    def test_balancing_asserted_and_reported(self):
        curve, _ = tropicalize(fold_embedding())
        assert check_balancing(curve).balanced

    def test_balancing_defect_raises_certificate_failure(self, monkeypatch):
        import tropicurve.tropicalize as trop

        unbalanced = BalancingReport(False, (("t0", (1,)),))
        monkeypatch.setattr(trop, "check_balancing", lambda curve: unbalanced)
        with pytest.raises(CertificateFailure, match="balancing"):
            tropicalize(fold_embedding())

    def test_contracted_edge_recorded(self):
        emb = contracted_embedding()
        _curve, emap = tropicalize(emb)
        assert any(rec.source == "e2" for rec in [p for p in emap.pieces if p.stretch == 0])

    def test_constant_coordinates_give_one_point(self):
        """Every piece contracted: the image is the one vertex t0, whose
        preimages are the skeleton points the pieces start at."""
        skel = contracted_embedding().skeleton
        coords = [
            PLFunction(
                skel,
                {eid: EdgeProfile(Fraction(c), (), (0,)) for eid in skel.finite.edges},
                {rid: RayProfile(Fraction(c), 0) for rid in skel.rays},
            )
            for c in (5, -7)
        ]
        curve, emap = tropicalize(Embedding(skel, coords))
        assert curve.vertices == {"t0": TropPoint.finite((5, -7))} and curve.edges == {}
        assert [p for p in emap.pieces if p.stretch == 0] == emap.pieces
        assert [p.source for p in emap.pieces] == ["e1", "e2", "ra", "rb"]
        starts = {skel.canonical_point(P(p.source, p.lo)) for p in emap.pieces}
        assert emap.vertex_sources == {"t0": starts} and starts == {V("a"), V("b")}
        assert emap.edge_sources == {}


def stretches(emb, source):
    """Stretching factors of the pieces of one current edge or ray, as the
    `EdgeMap` of the tropicalization records them."""
    return [p.stretch for p in tropicalize(emb)[1].pieces if p.source == source]


class TestStretching:
    def test_unit(self):
        emb = line_embedding(2)
        assert stretches(emb, "e") == [1]

    def test_gcd_two(self):
        g = build_graph(["a", "b"], [("e", "a", "b", 1)])
        ext = build_extended(g, [("ra", V("a")), ("rb", V("b"))])
        f1 = PLFunction(
            ext,
            {"e": EdgeProfile(Fraction(0), (), (2,))},
            {"ra": RayProfile(Fraction(0), -2), "rb": RayProfile(Fraction(2), 2)},
        )
        f2 = PLFunction(
            ext,
            {"e": EdgeProfile(Fraction(0), (), (4,))},
            {"ra": RayProfile(Fraction(0), -4), "rb": RayProfile(Fraction(4), 4)},
        )
        emb = Embedding(ext, [f1, f2])
        assert stretches(emb, "e") == [2]

    def test_contracted_edge_raises(self):
        """A contracted piece has stretch 0, and the certificate raises it
        as a "contracted" violation."""
        emb = contracted_embedding()
        assert stretches(emb, "e2") == [0] and stretches(emb, "e1") == [1]
        assert [v.at for v in is_fully_faithful(emb).violations if v.kind == "contracted"] == ["e2"]


class TestExtend:
    def test_sign_convention(self):
        g = build_graph(
            ["a", "m", "b"], [("e1", "a", "m", 1), ("e2", "m", "b", 1)]
        )
        ext = build_extended(g, [])
        emb = Embedding(ext, [])
        # ramp with divisor a - m
        f = PLFunction(
            ext,
            {
                "e1": EdgeProfile(Fraction(0), (), (1,)),
                "e2": EdgeProfile(Fraction(1), (), (0,)),
            },
            {},
        )
        assert divisor_of(f).coeff(V("a")) == 1
        emb2 = extend_embedding(emb, f, "c0")
        assert len(emb2.skeleton.rays) == 2
        coord = emb2.coords[-1]
        # +1 at a means the value runs to -inf over a, +inf over m
        ray_at_a = next(
            r for r in emb2.skeleton.rays.values() if r.attach == "a"
        )
        ray_at_m = next(
            r for r in emb2.skeleton.rays.values() if r.attach == "m"
        )
        assert coord.value(V(ray_at_a.leaf)) == MINUS_INF
        assert coord.value(V(ray_at_m.leaf)) == PLUS_INF
        # the divisor moves to the new leaves: simple points, +1 over a
        d = validate_coordinate(emb2.skeleton, coord)
        assert dict(d.terms) == {V(ray_at_a.leaf): 1, V(ray_at_m.leaf): -1}

    def test_collision_rejected(self):
        g = build_graph(["a", "m", "b"], [("e1", "a", "m", 1), ("e2", "m", "b", 1)])
        ext = build_extended(g, [("r0", V("a"))])
        emb = Embedding(ext, [])
        f = PLFunction(
            ext,
            {
                "e1": EdgeProfile(Fraction(0), (), (1,)),
                "e2": EdgeProfile(Fraction(1), (), (0,)),
            },
            {"r0": RayProfile(Fraction(0), 0)},
        )
        with pytest.raises(DivisorCollision):
            extend_embedding(emb, f, "c0")

    def test_non_simple_rejected(self):
        g = build_graph(["a", "b"], [("e", "a", "b", 2)])
        ext = build_extended(g, [])
        emb = Embedding(ext, [])
        f = PLFunction(ext, {"e": EdgeProfile(Fraction(0), (), (2,))}, {})
        with pytest.raises(NonSimplePoint):
            extend_embedding(emb, f, "c0")

    def test_a_function_on_the_finite_part_reads_its_ray_slopes(self):
        """The arc length of `e`, built on the finite part with slope -1 on
        `ra`: the ray cancels the chip at a, which would otherwise collide
        with the ray's attachment, and only b gets a new ray.  `adjoin`
        does not move the function; `assemble` does."""
        g = build_graph(["a", "b"], [("e", "a", "b", 2)])
        ext = build_extended(g, [("ra", V("a"))])
        f = PLFunction(g, {"e": EdgeProfile(Fraction(0), (), (1,))})
        with pytest.raises(DivisorCollision):
            adjoin(ext, f, "c0")
        skel, record = adjoin(ext, f, "c0", {"ra": -1})
        assert record == (f, {"ra": -1, "c0.0": 1}, ["c0.0"])
        assert skel.rays["c0.0"].attach == "b"
        (coord,) = assemble(skel, [], [record]).coords
        assert {rid: prof.slope for rid, prof in coord.ray_profiles.items()} == {"ra": -1, "c0.0": 1}

    def test_ray_slopes_must_name_a_ray_of_a_function_on_the_finite_part(self):
        g = build_graph(["a", "b"], [("e", "a", "b", 2)])
        ext = build_extended(g, [("ra", V("a"))])
        f = PLFunction(g, {"e": EdgeProfile(Fraction(0), (), (1,))})
        with pytest.raises(UnknownEdge, match="'rb'"):
            adjoin(ext, f, "c0", {"ra": -1, "rb": 1})
        on_skeleton = PLFunction(ext, f.edge_profiles, {"ra": RayProfile(Fraction(0), -1)})
        with pytest.raises(InvalidCoordinate, match="has its rays"):
            adjoin(ext, on_skeleton, "c0", {"ra": -1})

    def test_projection_recovers_previous_curve(self):
        g = build_graph(["a", "b"], [("e", "a", "b", 10)])
        ext = build_extended(g, [("ra", V("a")), ("rb", V("b"))])
        arclen = PLFunction(
            ext,
            {"e": EdgeProfile(Fraction(0), (), (1,))},
            {"ra": RayProfile(Fraction(0), -1), "rb": RayProfile(Fraction(10), 1)},
        )
        emb = Embedding(ext, [arclen])
        curve1, _ = tropicalize(emb)
        trap = bump(ext, "e", (1, 2, 7, 8))
        emb2 = extend_embedding(emb, trap, "c1")
        # dropping the new coordinate and contracting new rays gives back
        # the previous image, up to vertex naming
        proj = Embedding(emb2.skeleton, emb2.coords[:-1])
        curve2, emap2 = tropicalize(proj)
        from curveops import same_up_to_subdivision

        assert same_up_to_subdivision(curve1, curve2)
        # the four new rays are contracted by the projection
        assert len([p for p in emap2.pieces if p.stretch == 0]) == 4

    def test_new_rays_have_stretch_one(self):
        g = build_graph(["a", "b"], [("e", "a", "b", 10)])
        ext = build_extended(g, [("ra", V("a")), ("rb", V("b"))])
        arclen = PLFunction(
            ext,
            {"e": EdgeProfile(Fraction(0), (), (1,))},
            {"ra": RayProfile(Fraction(0), -1), "rb": RayProfile(Fraction(10), 1)},
        )
        emb = Embedding(ext, [arclen])
        emb2 = extend_embedding(emb, bump(ext, "e", (1, 2, 7, 8)), "c1")
        new_rays = [rid for rid in emb2.skeleton.rays if rid.startswith("c1.")]
        assert len(new_rays) == 4
        for rid in new_rays:
            assert stretches(emb2, rid) == [1]


def piece(start, slopes, length):
    """A linear piece as `frame_pieces` yields it: offsets [1, 1 + length]
    (length None: a ray), `start` the image of offset 1."""
    start = tuple(Fraction(x) for x in start)
    return ("p", Fraction(1), None if length is None else 1 + Fraction(length), start, slopes)


MEET_CASES = {
    "crossing": (piece((0, 0), (1, 1), 2), piece((0, 2), (1, -1), 2), True),
    "meeting at an endpoint": (piece((0, 0), (1, 0), 1), piece((1, 0), (0, 1), 1), True),
    "parallel and disjoint": (piece((0, 0), (1, 0), 1), piece((0, 1), (1, 0), 1), False),
    "collinear overlapping": (piece((0, 0), (1, 0), 2), piece((3, 0), (-2, 0), 1), True),
    "collinear with a gap": (piece((0, 0), (1, 0), 1), piece((2, 0), (1, 0), 1), False),
    "collinear touching": (piece((0, 0), (1, 0), 1), piece((2, 0), (-1, 0), 1), True),
    "ray across a segment": (piece((0, 0), (1, 1), None), piece((3, 0), (0, 1), 5), True),
    "segment behind a ray": (piece((0, 0), (1, 1), None), piece((-1, -2), (0, 1), 2), False),
    "collinear rays apart": (piece((0, 0), (1, 0), None), piece((-1, 0), (-1, 0), None), False),
    "point on a segment": (piece((1, 1), (0, 0), 1), piece((0, 0), (2, 2), 1), True),
    "point off a segment": (piece((1, 2), (0, 0), 1), piece((0, 0), (2, 2), 1), False),
    "point on the line past the end": (piece((3, 3), (0, 0), 1), piece((0, 0), (2, 2), 1), False),
    "two equal points": (piece((1, 2), (0, 0), 1), piece((1, 2), (0, 0), 3), True),
    "two points": (piece((1, 2), (0, 0), 1), piece((2, 1), (0, 0), 1), False),
    "skew lines in space": (piece((0, 0, 0), (1, 0, 0), 2), piece((1, -1, 1), (0, 1, 0), 2), False),
}


@pytest.mark.parametrize("a, b, meet", MEET_CASES.values(), ids=MEET_CASES.keys())
def test_images_meet(a, b, meet):
    assert images_meet(a, b) is meet
    assert images_meet(b, a) is meet


def random_slopes(rng, n):
    while True:
        w = tuple(rng.randint(-3, 3) for _ in range(n))
        if any(w):
            return w


def random_length(rng):
    return None if rng.random() < 0.25 else Fraction(rng.randint(1, 8), rng.randint(1, 4))


def random_point(rng, n):
    return tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(n))


def collinear_piece(rng, p):
    """A random piece on the image line of the non-contracted piece `p`."""
    w = p[4]
    t = Fraction(rng.randint(-12, 12), 4)
    start = tuple(x + t * y for x, y in zip(p[3], w))
    k = rng.choice([-2, -1, 1, 2])
    return piece(start, tuple(k * x for x in w), random_length(rng))


def random_piece_pair(rng):
    """Two non-contracted `piece`s in a common space of dimension 1 to 4:
    independent, forced through a common point, or on a common line."""
    n = rng.randint(1, 4)
    wa, wb = random_slopes(rng, n), random_slopes(rng, n)
    la, lb = random_length(rng), random_length(rng)
    mode = rng.choice(["independent", "crossing", "collinear"])
    if mode == "independent":
        return piece(random_point(rng, n), wa, la), piece(random_point(rng, n), wb, lb)
    a = piece(random_point(rng, n), wa, la)
    if mode == "collinear":
        return a, collinear_piece(rng, a)
    at = tuple(x + Fraction(rng.randint(0, 4), 4) * (la or 1) * y for x, y in zip(a[3], wa))
    s = Fraction(rng.randint(0, 4), 4) * (lb or 1)
    return a, piece(tuple(x - s * y for x, y in zip(at, wb)), wb, lb)


def piece_hull(den, *pieces):
    """`_covered_hull` of collinear non-contracted pieces, over `den`."""
    keys, items = zip(*(line_item(*p, den) for p in pieces))
    assert len(set(keys)) == 1
    return _covered_hull(keys[0], items)


def test_one_walk_steps_read_every_profile_as_value_at_does():
    """`_steps`, the break-merge loop of `frame_pieces` and `tropicalize`,
    cuts an edge at the union of its profiles' breaks, shared ones
    included, and gives each piece every profile's value and slope at its
    start, as Fractions or as ints over a common denominator."""
    rng = random.Random(67)
    for _ in range(200):
        length = Fraction(rng.randint(1, 12), rng.randint(1, 4))
        grid = [length * Fraction(k, 12) for k in range(1, 12)]
        profiles = []
        for _p in range(rng.randint(0, 4)):
            breaks = tuple(sorted(rng.sample(grid, rng.randint(0, 3))))
            slopes = tuple(rng.randint(-3, 3) for _ in range(len(breaks) + 1))
            profiles.append(EdgeProfile(Fraction(rng.randint(-9, 9), rng.randint(1, 3)), breaks, slopes))
        xs = sorted({Fraction(0), length} | {b for p in profiles for b in p.breaks})
        expected = [
            (lo, hi, tuple(p.value_at(lo) for p in profiles), tuple(p.slope_at(lo, +1) for p in profiles), hi - lo)
            for lo, hi in zip(xs, xs[1:])
        ]
        assert list(tropicalize_module._steps(profiles, length, lambda x: x)) == expected
        den = 72 * length.denominator
        scaled = [(lo, hi, _scaled(v, den), s, _scaled((d,), den)[0]) for lo, hi, v, s, d in expected]
        assert list(tropicalize_module._steps(profiles, length, lambda x: _scaled((x,), den)[0])) == scaled


def test_meeting_images_have_meeting_hulls():
    """`tropicalize` intersects two image lines only when their hulls meet:
    the hull of a line holds the image of every piece on it."""
    rng = random.Random(7)
    met = 0
    for _ in range(2000):
        a, b = random_piece_pair(rng)
        c = collinear_piece(rng, a)
        den = _denominator((a, b, c))
        if images_meet(a, b):
            met += 1
            assert _hulls_meet(piece_hull(den, a), piece_hull(den, b)), (a, b)
        if images_meet(a, b) or images_meet(c, b):
            assert _hulls_meet(piece_hull(den, a, c), piece_hull(den, b)), (a, c, b)
    assert met > 500


def random_hull(rng, n):
    """A box in n coordinates whose sides are each unbounded one time in five."""
    hull = []
    for _ in range(n):
        lo, hi = sorted(rng.randint(-12, 12) for _ in range(2))
        hull.append((None if rng.random() < 0.2 else lo, None if rng.random() < 0.2 else hi))
    return tuple(hull)


def test_sweep_yields_exactly_the_meeting_pairs():
    """The sweep in `tropicalize` finds every pair of hulls that all-pairs
    `_hulls_meet` accepts, each once, and no other."""
    rng = random.Random(11)
    found = 0
    for _ in range(400):
        n = rng.randint(1, 4)
        hulls = [random_hull(rng, n) for _ in range(rng.randint(0, 20))]
        every = [
            (a, b)
            for a in range(len(hulls))
            for b in range(a + 1, len(hulls))
            if _hulls_meet(hulls[a], hulls[b])
        ]
        assert sorted(_meeting_pairs(hulls)) == every, hulls
        found += len(every)
    assert found > 1000


@pytest.mark.parametrize(
    "origin2, w2, hit",
    [
        ((0, 3), (1, -1), (1, 1)),  # det -3 divides both numerators
        ((0, 1), (2, -1), (Fraction(2, 5), Fraction(1, 5))),  # det -5 does not
        ((1, 0), (1, 2), None),  # parallel
    ],
    ids=["int", "fraction", "parallel"],
)
def test_line_intersection_in_integers(origin2, w2, hit):
    got = _line_intersection((0, 0), (1, 2), origin2, w2)
    assert got == hit
    assert got is None or [type(x) for x in got] == [type(x) for x in hit]


def test_line_intersection_of_skew_lines():
    assert _line_intersection((0, 0, 0), (1, 0, 0), (0, 1, 1), (0, 1, 0)) is None


def crossing_embedding():
    """Path a-b-c-d with lengths 5/3, 1/3 and 4/5, one ray per vertex.

    (x, y) maps e1 along (1, 2) from (0, 0) to (5/3, 10/3), e2 along
    (1, 0) to (2, 10/3) and e3 along (-2, -1) to (2/5, 38/15).  e1 and e3
    cross at (14/9, 28/9): 14/9 along e1 and 2/9 along e3.  Over the common
    denominator 15 of the pieces that point is (70/3, 140/3), so both
    crossing parameters are Fractions.
    """
    g = build_graph(
        ["a", "b", "c", "d"],
        [
            ("e1", "a", "b", Fraction(5, 3)),
            ("e2", "b", "c", Fraction(1, 3)),
            ("e3", "c", "d", Fraction(4, 5)),
        ],
    )
    ext = build_extended(g, [("ra", V("a")), ("rb", V("b")), ("rc", V("c")), ("rd", V("d"))])

    def coordinate(starts, slopes, rays):
        profiles = {
            eid: EdgeProfile(Fraction(v), (), (s,)) for eid, v, s in zip(("e1", "e2", "e3"), starts, slopes)
        }
        return PLFunction(ext, profiles, {rid: RayProfile(Fraction(v), s) for rid, (v, s) in rays.items()})

    x = coordinate(
        (0, Fraction(5, 3), 2),
        (1, 1, -2),
        {"ra": (0, -1), "rb": (Fraction(5, 3), 0), "rc": (2, 3), "rd": (Fraction(2, 5), -2)},
    )
    y = coordinate(
        (0, Fraction(10, 3), Fraction(10, 3)),
        (2, 0, -1),
        {"ra": (0, -2), "rb": (Fraction(10, 3), 2), "rc": (Fraction(10, 3), 1), "rd": (Fraction(38, 15), -1)},
    )
    return Embedding(ext, [x, y])


def test_crossing_off_the_integer_grid(monkeypatch):
    hits = []
    line_intersection = tropicalize_module._line_intersection

    def recorded(*args):
        hit = line_intersection(*args)
        hits.append(hit)
        return hit

    monkeypatch.setattr(tropicalize_module, "_line_intersection", recorded)
    curve, emap = tropicalize(crossing_embedding())
    assert any(isinstance(x, Fraction) for hit in hits if hit for x in hit)
    F = Fraction
    cross = (F(14, 9), F(28, 9))
    b, c, d = (F(5, 3), F(10, 3)), (F(2), F(10, 3)), (F(2, 5), F(38, 15))
    finite = {vid: pt.finite_coords() for vid, pt in curve.vertices.items() if pt.is_finite}
    assert set(finite.values()) == {(0, 0), cross, b, c, d}
    segments = {
        (frozenset({finite[e.v1], finite[e.v2]}), e.length, e.weight)
        for e in curve.edges.values()
        if e.length is not None
    }
    assert segments == {
        (frozenset({(0, 0), cross}), F(14, 9), 1),
        (frozenset({cross, b}), F(1, 9), 1),
        (frozenset({b, c}), F(1, 3), 1),
        (frozenset({c, cross}), F(2, 9), 1),
        (frozenset({cross, d}), F(26, 45), 1),
    }
    rays = {(finite[e.v1], e.direction, e.weight) for e in curve.edges.values() if e.length is None}
    assert rays == {((0, 0), (-1, -2), 1), (b, (0, 1), 2), (c, (3, 1), 1), (d, (-2, -1), 1)}
    vid = {pt: v for v, pt in finite.items()}
    assert emap.vertex_sources[vid[cross]] == {P("e1", F(14, 9)), P("e3", F(2, 9))}
    (cross_to_d,) = [eid for eid, e in curve.edges.items() if {e.v1, e.v2} == {vid[cross], vid[d]}]
    assert emap.edge_sources[cross_to_d] == (("e3", F(2, 9), F(4, 5)),)


def tropicalization_digest(emb):
    """First 16 hex digits of the sha256 of `tropicalize`'s whole output:
    every image vertex and edge with its id, then the edge map's pieces,
    vertex preimages and edge sources in the map's own order."""
    curve, emap = tropicalize(emb)
    text = repr((
        curve.ambient_dim,
        list(curve.vertices.items()),
        list(curve.edges.items()),
        [(p.source, p.lo, p.hi, p.stretch) for p in emap.pieces],
        [(vid, sorted(pts)) for vid, pts in emap.vertex_sources.items()],
        list(emap.edge_sources.items()),
    ))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# Digests of whole tropicalizations, image ids included.  The tate-leaf
# pipeline outputs are built, and checked against their entries, in
# `test_synthesis.py`: "gated" outputs as the pipelines build them, the
# others after an explicit `stage0` call.  Unless a smoothing tent goes in
# (a zero ray at p5), the second pipeline adds no coordinate to the first's
# output, so both have one image.
TROPICALIZATION_DIGESTS = {
    "line": "5520d5ca93cb46e7",
    "fold": "0aa72d695dad0c4d",
    "contracted": "a2d17983ffa34ab8",
    "tate-leaf": "4baf395e4a7642cc",
    "tate-leaf first output": "a7ba9c3f2c7ab4b0",
    "tate-leaf second output": "a7ba9c3f2c7ab4b0",
    "tate-leaf r0 at p4 first output": "bc9052016dd3d03d",
    "tate-leaf r0 at p4 second output": "bc9052016dd3d03d",
    "tate-leaf r0 at p5 first output": "164514d49a931c2d",
    "tate-leaf r0 at p5 second output": "4c219c7ab3cc7018",
    "gated tate-leaf first output": "d6891d51637d0b42",
    "gated tate-leaf second output": "d6891d51637d0b42",
    "gated tate-leaf r0 at p4 first output": "762b14fef78a4299",
    "gated tate-leaf r0 at p4 second output": "762b14fef78a4299",
    "gated tate-leaf r0 at p5 first output": "54b6083d5b2b7d03",
    "gated tate-leaf r0 at p5 second output": "f2bef1db18c2d2e0",
}
TROPICALIZED_FIXTURES = {
    "line": line_embedding,
    "fold": fold_embedding,
    "contracted": contracted_embedding,
    "tate-leaf": lambda: tate_leaf(3, "p5", Fraction(1, 2)),
}


@pytest.mark.parametrize("name", TROPICALIZED_FIXTURES)
def test_tropicalization_digests(name):
    assert tropicalization_digest(TROPICALIZED_FIXTURES[name]()) == TROPICALIZATION_DIGESTS[name]


def test_a_contracted_denominator_leaves_the_image_as_it_was():
    """D counts the contracted piece e2, of length 1/3, which no moving
    piece's offsets or values share, so it is three times the lcm over the
    moving pieces alone; the image, read off at the latter, is unchanged."""
    g = build_graph(["a", "b", "c"], [("e1", "a", "b", 2), ("e2", "b", "c", Fraction(1, 3))])
    ext = build_extended(g, [("ra", V("a")), ("rb", V("b"))])
    half = Fraction(1, 2)
    f = PLFunction(
        ext,
        {"e1": EdgeProfile(half, (), (1,)), "e2": EdgeProfile(5 * half, (), (0,))},
        {"ra": RayProfile(half, -1), "rb": RayProfile(5 * half, 1)},
    )
    h = PLFunction(
        ext,
        {"e1": EdgeProfile(Fraction(0), (), (-1,)), "e2": EdgeProfile(Fraction(-2), (), (0,))},
        {"ra": RayProfile(Fraction(0), 1), "rb": RayProfile(Fraction(-2), -1)},
    )
    emb = Embedding(ext, [f, h])
    moving = [p for frame in ("e1", "e2", "ra", "rb") for p in frame_pieces(emb, frame) if any(p[4])]
    assert (_denominator(moving), _common_denominator(emb)) == (2, 6)
    curve, emap = tropicalize(emb)
    fin = ExtRational.finite
    assert {vid: p.coords for vid, p in curve.vertices.items()} == {
        "t0": (MINUS_INF, PLUS_INF),
        "t1": (fin(half), fin(0)),
        "t2": (fin(5 * half), fin(-2)),
        "t3": (PLUS_INF, MINUS_INF),
    }
    assert curve.vertices["t0"].anchor == curve.vertices["t3"].anchor == ((1, -1), (0, half))
    assert {eid: (e.v1, e.v2, e.direction, e.weight, e.length) for eid, e in curve.edges.items()} == {
        "s0": ("t1", "t0", (-1, 1), 1, None),
        "s1": ("t1", "t2", (1, -1), 1, 2),
        "s2": ("t2", "t3", (1, -1), 1, None),
    }
    assert [(p.source, p.lo, p.hi, p.stretch) for p in emap.pieces] == [
        ("e1", 0, 2, 1), ("e2", 0, Fraction(1, 3), 0), ("ra", 0, None, 1), ("rb", 0, None, 1)
    ]
    assert emap.vertex_sources == {
        "t0": {V("ra.inf")}, "t1": {V("a")}, "t2": {V("b")}, "t3": {V("rb.inf")}
    }
    assert emap.edge_sources == {"s0": (("ra", 0, None),), "s1": (("e1", 0, 2),), "s2": (("rb", 0, None),)}


class TestFullyFaithful:
    def test_line_embedding_faithful(self):
        rep = is_fully_faithful(line_embedding(2))
        assert bool(rep)

    def test_fold_not_faithful(self):
        rep = is_fully_faithful(fold_embedding())
        assert not bool(rep)
        assert any("weight" in r or "covered" in r for r in rep.reasons)
        kinds = [v.kind for v in rep.violations]
        assert kinds == ["stretch", "stretch", "coverage", "weight", "weight", "weight"]

    def test_contracted_blocks(self):
        rep = is_fully_faithful(contracted_embedding())
        assert not bool(rep)
        assert any("contracted" in r for r in rep.reasons)
        assert [v.kind for v in rep.violations] == ["contracted"]


class TestRandomizedBalancing:
    def test_trapezoid_extensions_balance(self):
        rng = random.Random(101)
        count = 0
        for _ in range(60):
            g = random_graph(rng)
            ext = build_extended(g, [])
            emb = Embedding(ext, [])
            ok = True
            for k in range(rng.randrange(1, 3)):
                eid = rng.choice(sorted(ext.finite.edges))
                e = ext.finite.edges[eid]
                xs = sorted(
                    rng.sample(range(1, 16), 4)
                )
                offs = [e.length * Fraction(x, 16) for x in xs]
                if offs[1] - offs[0] != offs[3] - offs[2]:
                    # symmetrize the fall
                    offs[3] = offs[2] + (offs[1] - offs[0])
                    if offs[3] >= e.length:
                        ok = False
                        break
                try:
                    trap = bump(emb.skeleton, eid, offs)
                    emb = extend_embedding(emb, trap, f"c{k}")
                except Exception:
                    ok = False
                    break
            if not ok or not emb.coords:
                continue
            curve, _ = tropicalize(emb)  # asserts balancing internally
            assert check_balancing(curve).balanced
            count += 1
        assert count >= 30


@pytest.mark.parametrize(
    "sign, value", [(0, None), (2, None), (-2, Fraction(1))], ids=["finite-without-value", "sign-2", "sign-minus-2"]
)
def test_ext_rational_rejects_a_missing_value_and_a_bad_sign(sign, value):
    """A finite `ExtRational` needs its value and a sign is -1, 0 or +1;
    either fault raises the typed `InvalidExtRational`, which is still a
    ValueError."""
    with pytest.raises(InvalidExtRational) as exc:
        ExtRational(sign, value)
    assert isinstance(exc.value, TropicurveError) and isinstance(exc.value, ValueError)
    assert ExtRational(0, Fraction(1, 2)) == ExtRational.finite("1/2")
    assert (ExtRational(1), ExtRational(-1)) == (PLUS_INF, MINUS_INF)
