"""Tropicalization of an extended graph under a tuple of coordinate functions.

An embedding is a skeleton plus an ordered list of PL coordinate functions,
each harmonic on the finite part (divisor supported at infinite vertices
only).  Tropicalizing maps every edge piece linearly by its integer slope
vector; pieces with zero slope vector are contracted, the rest are arranged
exactly: pieces on a common affine line are overlaid in a shared line
parameter, transversal crossings split both lines, and weights add up as
the stretching factors of the pieces covering an image edge.

`tropicalize` returns the image curve and the `EdgeMap` the certificates
read: each source piece's stretching factor (0 when contracted), each image
vertex's skeleton preimages and each image edge's covering pieces.  Vertices
and edges are collected in one pass and numbered once at the end, by
coordinates and by ends and direction, so equal inputs get equal ids.

Everything is exact.  Image points are carried as Python ints over one
common denominator D per tropicalization, taken up front: the lcm of the
denominators of the edge lengths, of every coordinate's profile starts and
breaks and of the ray starts, so contracted pieces count too.  Each current
edge's profiles are then walked once (`_steps`, the loop `frame_pieces`
shares), stepping the values as ints over D, so line keys, breakpoints,
hulls and vertex keys hash and compare ints; a crossing parameter is a
Fraction only where the crossing's determinant does not divide it.  A piece
end's skeleton preimage comes from the piece: the edge's a or b vertex, or
the ray's attach vertex, at its ends and the break point inside; only a
crossing strictly inside a piece reads its source offset from the line
parameter.  Fractions are made only for the returned curve and edge map,
and each distinct finite coordinate value is one `ExtRational`, shared by
the finite vertices and the finite coordinates of the infinite points.
Crossings are searched only between lines whose covered hulls (the
coordinate box of the part a line's pieces cover) overlap, and the
overlapping pairs are found by a sweep on one coordinate rather than by
testing all pairs.  Injectivity and weight-one checks are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from typing import Mapping, NamedTuple, Optional, Sequence

from .complexes import TropEdge, TropPoint, TropicalCurve, check_balancing
from .divisors import Divisor, PLFunction, divisor_of
from .errors import (
    CertificateFailure,
    DivisorCollision,
    EmptyCoordinates,
    InvalidCoordinate,
    NonSimplePoint,
)
from .graphs import ExtendedGraph, GraphPoint
from .linalg import primitive
from .rationals import MINUS_INF, PLUS_INF, ExtRational

_ZERO = Fraction(0)


def validate_coordinate(skeleton: ExtendedGraph, f: PLFunction) -> Divisor:
    """A coordinate function must be harmonic on the finite part: its
    divisor is supported at infinite vertices only.  Returns the divisor."""
    if f.domain is not skeleton:
        raise InvalidCoordinate("coordinate lives on a different skeleton")
    d = divisor_of(f)
    for pt, _c in d.terms:
        if not (pt.is_vertex and skeleton.is_infinite_vertex(pt.vertex)):
            raise InvalidCoordinate(
                f"coordinate has divisor support at finite point {pt!r}"
            )
    return d


class Embedding:
    """A skeleton and a tuple of coordinates on it.  The construction steps
    that built it are recorded in the pipelines' `PipelineReport`."""

    def __init__(self, skeleton: ExtendedGraph, coords: Sequence[PLFunction]):
        self.skeleton = skeleton
        self.coords = tuple(coords)
        # The certificate of this very object, attached by
        # `synthesis.fully_faithful_pipeline` to its output for
        # `smoothing_pipeline`; no new Embedding starts with one.
        self._certificate: Optional[FaithfulReport] = None
        for f in self.coords:
            validate_coordinate(skeleton, f)

    @property
    def ambient_dim(self) -> int:
        return len(self.coords)


# -- pieces -------------------------------------------------------------------------


@dataclass
class _Item:
    """One non-contracted source piece, parametrized on its image line.

    Line parameters are ints over the tropicalization's common denominator
    D: the piece's point at parameter u is (origin + u * direction) / D.
    `at_lo` and `at_hi` are the piece's ends on the skeleton (`at_hi` the
    leaf on a ray tail); `line_item` leaves them None.
    """

    source: str
    src_lo: Fraction
    src_hi: Optional[Fraction]  # None for a ray tail
    stretch: int
    sense: int  # +1 when increasing source offset increases the line parameter
    u_lo: Optional[int]  # None = unbounded below
    u_hi: Optional[int]  # None = unbounded above
    anchor_u: int  # u at source offset src_lo
    end_u: Optional[int]  # u at source offset src_hi
    scale: int  # stretch * D: line parameters per unit of source offset
    at_lo: Optional[GraphPoint] = None
    at_hi: Optional[GraphPoint] = None

    def src_at(self, u) -> Fraction:
        return self.src_lo + Fraction(self.sense * (u - self.anchor_u), self.scale)

    def preimage(self, u) -> tuple[Fraction, GraphPoint]:
        """Source offset and canonical skeleton point of the piece's point
        at u: a piece end as the piece holds it, a crossing inside the
        piece, which lies strictly inside its current edge or ray, read
        from u."""
        if u == self.anchor_u:
            return self.src_lo, self.at_lo
        if u == self.end_u:
            return self.src_hi, self.at_hi
        off = self.src_at(u)
        return off, GraphPoint.on_edge(self.source, off)

    def covers(self, u) -> bool:
        if self.u_lo is not None and u < self.u_lo:
            return False
        if self.u_hi is not None and u > self.u_hi:
            return False
        return True

    def spans(self, u1, u2) -> bool:
        """Whether the item covers [u1, u2] (None: unbounded that way)."""
        return (self.u_lo is None or (u1 is not None and self.u_lo <= u1)) and (
            self.u_hi is None or (u2 is not None and u2 <= self.u_hi)
        )


@dataclass
class PieceRecord:
    """One linear piece of a current edge or ray: its offsets [lo, hi] in
    that id's frame (hi None on a ray tail) and its stretching factor, the
    content of its slope vector (0 when the piece is contracted)."""

    source: str
    lo: Fraction
    hi: Optional[Fraction]
    stretch: int


@dataclass
class EdgeMap:
    """How the skeleton covers the image.

    `pieces` holds every linear piece in (source, lo) order;
    `vertex_sources` maps each image vertex to its skeleton preimages
    (canonical points, ray leaves at infinity); `edge_sources` maps each
    image edge to the sorted (source, lo, hi) parts of the pieces that
    cover it, whose stretching factors add up to the edge's weight.
    """

    pieces: list[PieceRecord]
    vertex_sources: dict[str, frozenset[GraphPoint]]
    edge_sources: dict[str, tuple[tuple[str, Fraction, Optional[Fraction]], ...]]


def _steps(profiles, length: Fraction, num):
    """One current edge's coordinate profiles walked once, cut at the union
    of their breaks: the one break-merge loop, which `frame_pieces` and
    `tropicalize` share.

    Yields (lo, hi, start_values, slopes, span) per linear piece: lo and hi
    are the edge's own offsets (the profiles' break objects, 0 and
    `length`), and the values at lo and the span hi - lo are given as `num`
    gives a Fraction, itself or an int over a common denominator.
    """
    # every break as (offset as num gives it, profile index, offset), then
    # the edge's end, marked by the index -1
    events = sorted((num(b), k, b) for k, p in enumerate(profiles) for b in p.breaks)
    events.append((num(length), -1, length))
    passed = [0] * len(profiles)  # breaks of each profile walked past
    slopes = [p.slopes[0] for p in profiles]
    vals = [num(p.start) for p in profiles]
    lo, at, i = _ZERO, 0, 0
    while True:
        at_x, k, x = events[i]
        span = at_x - at
        yield lo, x, tuple(vals), tuple(slopes), span
        if k < 0:
            return
        # no break lies inside (lo, x): step every value to x
        vals = [v + s * span if s else v for v, s in zip(vals, slopes)]
        while k >= 0 and events[i][0] == at_x:
            passed[k] += 1
            slopes[k] = profiles[k].slopes[passed[k]]
            i += 1
            k = events[i][1]
        lo, at = x, at_x


def frame_pieces(emb: Embedding, frame: str):
    """Walk an edge or ray id, possibly subdivided since, cut at every
    coordinate breakpoint, with Fraction values.

    Yields (current_id, lo, hi, start_values, slope_vector) per linear
    piece, lo and hi in the frame's offsets; hi is None on an unbounded ray
    tail.  It serves the pillar and gap searches of `synthesis`
    (`_clipped_pieces`, `_root_slope_cover`), whose pieces `images_meet`
    compares; each current edge of the frame is walked once, by the
    `_steps` loop that `tropicalize` walks in integers.
    """
    for kind, cid, slo, shi in emb.skeleton.segments_of(frame):
        if kind == "ray":
            vals = tuple(f.ray_profiles[cid].start for f in emb.coords)
            slopes = tuple(f.ray_profiles[cid].slope for f in emb.coords)
            yield cid, slo, None, vals, slopes
            continue
        profiles = [f.edge_profiles[cid] for f in emb.coords]
        for lo, hi, vals, slopes, _span in _steps(profiles, shi - slo, _same):
            yield cid, slo + lo, slo + hi, vals, slopes


def _same(x):
    return x


def _denominator(pieces) -> int:
    """The lcm of the denominators of the offsets and start values of
    `frame_pieces` tuples, folded one entry at a time (see
    `linalg._sparse`): the common denominator `images_meet` reads pieces
    over."""
    den = 1
    for _source, lo, hi, vals, _slopes in pieces:
        den = math.lcm(den, lo.denominator)
        if hi is not None:
            den = math.lcm(den, hi.denominator)
        for x in vals:
            den = math.lcm(den, x.denominator)
    return den


def _common_denominator(emb: Embedding) -> int:
    """D of a tropicalization: the lcm of the denominators of the edge
    lengths, of every coordinate's profile starts and breaks, and of the
    ray starts.  Every piece end and every value at one is then an int
    over D, contracted pieces included."""
    dens = {e.length.denominator for e in emb.skeleton.finite.edges.values()}
    for f in emb.coords:
        for p in f.edge_profiles.values():
            dens.add(p.start.denominator)
            dens.update(b.denominator for b in p.breaks)
        dens.update(p.start.denominator for p in f.ray_profiles.values())
    return math.lcm(*dens)


def _scaled(values, den: int) -> tuple[int, ...]:
    return tuple(x.numerator * (den // x.denominator) for x in values)


def _canonical_direction(slopes: Sequence[int]) -> tuple[int, tuple[int, ...], int]:
    """(stretch, canonical primitive direction, sense of slopes vs it)."""
    m, w = primitive(slopes)
    lead = next(x for x in w if x)
    if lead < 0:
        return m, tuple(-x for x in w), -1
    return m, w, +1


def _line_frame(point: Sequence[int], wc: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """(origin, u) with point = origin + u * wc, for an integer point and a
    canonical direction wc.  With p the first index where wc is nonzero
    (so wc[p] > 0), u = point[p] // wc[p]; since wc is primitive, any two
    integer points of one line give the same origin, which keys the line."""
    pivot = next(i for i, x in enumerate(wc) if x)
    u = point[pivot] // wc[pivot]
    return tuple(p - u * w for p, w in zip(point, wc)), u


def _pivot_numerators(key) -> tuple[int, ...]:
    """The line's point with a zero in the first nonzero index p of its
    direction, times D * wc[p]: o * wc[p] - origin[p] * w per coordinate.
    Ordering lines by (direction, these) orders them by that point."""
    wc, origin = key
    pivot = next(i for i, x in enumerate(wc) if x)
    wp, op = wc[pivot], origin[pivot]
    return tuple(o * wp - op * w for o, w in zip(origin, wc))


def _line_intersection(origin1, w1, origin2, w2):
    """Parameters (t, s) of the common point origin1 + t*w1 = origin2 + s*w2
    of two non-parallel lines with integer origins and directions, or None.

    Cramer's rule on the first coordinate pair with nonzero determinant
    gives det*t and det*s, and every coordinate is checked in those
    det-scaled integers.  t and s are ints when det divides them, else
    Fractions."""
    for i, j in combinations(range(len(w1)), 2):
        det = w1[i] * w2[j] - w1[j] * w2[i]
        if det:
            break
    else:
        return None  # parallel
    di, dj = origin2[i] - origin1[i], origin2[j] - origin1[j]
    t = di * w2[j] - dj * w2[i]
    s = di * w1[j] - dj * w1[i]
    for o1, a, o2, b in zip(origin1, w1, origin2, w2):
        if det * (o2 - o1) != t * a - s * b:
            return None
    return _quotient(t, det), _quotient(s, det)


def _quotient(num: int, det: int):
    return num // det if num % det == 0 else Fraction(num, det)


def line_item(source: str, lo: Fraction, hi: Optional[Fraction], vals, slopes, den: int):
    """A non-contracted linear piece (a `frame_pieces` tuple) on its image
    line, in integers over a common denominator `den` of its offsets and
    values: the line's key (canonical direction, origin) and the `_Item`."""
    span = None if hi is None else _scaled((hi - lo,), den)[0]
    return _line_item(source, lo, hi, _scaled(vals, den), slopes, span, den)


def _line_item(source, lo, hi, vals, slopes, span, den, at_lo=None, at_hi=None):
    """`line_item` of a piece whose start values and span hi - lo (None on
    a ray tail) are already ints over den, with its skeleton ends."""
    m, wc, sense = _canonical_direction(slopes)
    origin, u0 = _line_frame(vals, wc)
    if span is None:
        end_u = None
        u_lo, u_hi = (u0, None) if sense > 0 else (None, u0)
    else:
        end_u = u0 + sense * m * span
        u_lo, u_hi = (u0, end_u) if sense > 0 else (end_u, u0)
    item = _Item(source, lo, hi, m, sense, u_lo, u_hi, u0, end_u, m * den, at_lo, at_hi)
    return (wc, origin), item


def _covered_hull(key, items) -> tuple:
    """Per coordinate, the exact (lo, hi) range of the points that `items`
    cover on the line `key`, in the line's integers; None for a side that
    a ray leaves unbounded."""
    wc, origin = key
    u_lo = None if any(i.u_lo is None for i in items) else min(i.u_lo for i in items)
    u_hi = None if any(i.u_hi is None for i in items) else max(i.u_hi for i in items)
    hull = []
    for o, w in zip(origin, wc):
        if w == 0:
            hull.append((o, o))
            continue
        a = None if u_lo is None else o + u_lo * w
        b = None if u_hi is None else o + u_hi * w
        hull.append((a, b) if w > 0 else (b, a))
    return tuple(hull)


def _hulls_meet(h1, h2) -> bool:
    """Whether two `_covered_hull`s overlap in every coordinate."""
    for (lo1, hi1), (lo2, hi2) in zip(h1, h2):
        if lo1 is not None and hi2 is not None and lo1 > hi2:
            return False
        if lo2 is not None and hi1 is not None and lo2 > hi1:
            return False
    return True


def _meeting_pairs(hulls) -> list[tuple[int, int]]:
    """Index pairs (a, b), a < b, of the hulls that `_hulls_meet`.

    A sweep on the coordinate with the fewest unbounded hull sides: hulls
    sorted by their low end there (unbounded first) pair only with the
    later hulls that start before their high end, and only those
    candidates are tested in full."""
    if not hulls:
        return []

    def unbounded(c):
        return sum((h[c][0] is None) + (h[c][1] is None) for h in hulls)

    c = min(range(len(hulls[0])), key=unbounded)
    order = sorted(range(len(hulls)), key=lambda a: (hulls[a][c][0] is not None, hulls[a][c][0] or 0))
    pairs = []
    for k, a in enumerate(order):
        hi = hulls[a][c][1]
        for b in order[k + 1 :]:
            lo = hulls[b][c][0]
            if hi is not None and lo is not None and lo > hi:
                break
            if _hulls_meet(hulls[a], hulls[b]):
                pairs.append((a, b) if a < b else (b, a))
    return pairs


def images_meet(piece_a, piece_b) -> bool:
    """Whether the images of two linear pieces (`frame_pieces` tuples)
    share a point; the image of a contracted piece is a single point."""
    if not any(piece_a[4]):
        piece_a, piece_b = piece_b, piece_a
    if not any(piece_a[4]):
        return piece_a[3] == piece_b[3]
    den = _denominator((piece_a, piece_b))
    (wc, origin), item = line_item(*piece_a, den)
    if not any(piece_b[4]):
        at, u = _line_frame(_scaled(piece_b[3], den), wc)
        return at == origin and item.covers(u)
    (wc2, origin2), other = line_item(*piece_b, den)
    if wc2 == wc:  # parallel: on a common line they meet at the higher start
        if origin2 != origin:
            return False
        lows = [x for x in (item.u_lo, other.u_lo) if x is not None]
        return not lows or (item.covers(max(lows)) and other.covers(max(lows)))
    hit = _line_intersection(origin, wc, origin2, wc2)
    return hit is not None and item.covers(hit[0]) and other.covers(hit[1])


class _ImageVertex(NamedTuple):
    """An image vertex under construction in `tropicalize`.  `order` is its
    sort key: a (sign of infinity, coordinate times D) pair per coordinate,
    which orders points as their coordinates do."""

    point: TropPoint
    order: tuple
    preimages: set


class _ImageEdge(NamedTuple):
    """An image edge under construction in `tropicalize`, from the vertex
    labelled v1 toward v2 (length None when v2 is infinite)."""

    v1: tuple
    v2: tuple
    direction: tuple
    weight: int
    length: Optional[Fraction]
    sources: tuple


def _infinite_point(key, den: int, sign: int, value) -> tuple[TropPoint, tuple]:
    """Limit point of a ray: infinite in the direction's support, with the
    line's point that is zero at its direction's first nonzero index as the
    boundary-stratum anchor (rays on distinct parallel lines converge to
    distinct stratum points).  Also returns the point's sort key in the
    line's integers (see `tropicalize`).  `value(x)` is the shared
    `ExtRational` of x / den; a coordinate the direction leaves fixed is
    its origin's, and the anchor reads that value too."""
    wc, origin = key
    pivot = next(i for i, x in enumerate(wc) if x)
    coords = []
    anchor = []
    order = []
    for x, o, w in zip(_pivot_numerators(key), origin, wc):
        if w == 0:
            coords.append(value(o))
            anchor.append(coords[-1].value)
            order.append((0, o))
        else:
            inf = PLUS_INF if w * sign > 0 else MINUS_INF
            coords.append(inf)
            anchor.append(Fraction(x, den * wc[pivot]))
            order.append((inf.sign, 0))
    return TropPoint(tuple(coords), anchor=(tuple(wc), tuple(anchor))), tuple(order)


def tropicalize(emb: Embedding) -> tuple[TropicalCurve, EdgeMap]:
    """Image complex of the skeleton under the coordinate tuple, with its
    edge map.  The output always satisfies balancing."""
    if not emb.coords:
        raise EmptyCoordinates("embedding has no coordinates")
    n = emb.ambient_dim
    skel = emb.skeleton
    fin = skel.finite
    den = _common_denominator(emb)

    def num(x: Fraction) -> int:
        return x.numerator * (den // x.denominator)

    # every current edge and ray, in id order, walked once: a piece and its
    # skeleton ends (a vertex at an edge's ends and a ray's attach point, the
    # break point inside, the leaf at a ray's infinite end), the values at
    # its start as ints over D, and then either its image line or, for a
    # contracted piece, its start and values
    pieces: list[PieceRecord] = []
    contracted = []
    lines: dict = {}

    def place(source, lo, hi, vals, slopes, span, at_lo, at_hi):
        if not any(slopes):
            pieces.append(PieceRecord(source, lo, hi, 0))
            contracted.append((at_lo, vals))
            return
        key, item = _line_item(source, lo, hi, vals, slopes, span, den, at_lo, at_hi)
        lines.setdefault(key, []).append(item)
        pieces.append(PieceRecord(source, lo, hi, item.stretch))

    for source in sorted(chain(fin.edges, skel.rays)):
        if source in skel.rays:
            ray = skel.rays[source]
            profiles = [f.ray_profiles[source] for f in emb.coords]
            vals = tuple(num(p.start) for p in profiles)
            slopes = tuple(p.slope for p in profiles)
            ends = GraphPoint.at_vertex(ray.attach), GraphPoint.at_vertex(ray.leaf)
            place(source, _ZERO, None, vals, slopes, None, *ends)
            continue
        e = fin.edges[source]
        at_lo = GraphPoint.at_vertex(e.a)
        for lo, hi, vals, slopes, span in _steps([f.edge_profiles[source] for f in emb.coords], e.length, num):
            # the last piece ends at `e.length` itself, every other at a break
            at_hi = GraphPoint.at_vertex(e.b) if hi is e.length else GraphPoint.on_edge(source, hi)
            place(source, lo, hi, vals, slopes, span, at_lo, at_hi)
            at_lo = at_hi

    if not lines:
        # everything contracted: a single image point
        vals = tuple(Fraction(x, den) for x in contracted[0][1]) if contracted else (_ZERO,) * n
        curve = TropicalCurve(n, {"t0": TropPoint.finite(vals)}, {})
        return curve, EdgeMap(pieces, {"t0": frozenset(at for at, _vals in contracted)}, {})

    line_keys = sorted(lines, key=lambda key: (key[0], _pivot_numerators(key)))
    # transversal crossings: split both lines where covered on both
    cuts = {
        key: {u for i in lines[key] for u in (i.u_lo, i.u_hi) if u is not None}
        for key in line_keys
    }
    # a cut lies where both lines are covered, so inside both hulls
    hulls = [_covered_hull(key, lines[key]) for key in line_keys]
    for a, b in _meeting_pairs(hulls):
        k1, k2 = line_keys[a], line_keys[b]
        hit = _line_intersection(k1[1], k1[0], k2[1], k2[0])
        if hit is None:
            continue
        t, s = hit
        if any(i.covers(t) for i in lines[k1]) and any(i.covers(s) for i in lines[k2]):
            cuts[k1].add(t)
            cuts[k2].add(s)

    # overlay each line.  A vertex is labelled by its integer coordinates
    # over D, or by (sign, line key) at infinity; `table` maps each label to
    # its `_ImageVertex` and `edges` lists the `_ImageEdge`s, both in
    # creation order.  Each distinct finite coordinate value is one shared
    # `ExtRational`.
    table: dict = {}
    shared: dict[int, ExtRational] = {}

    def value(x: int) -> ExtRational:
        ext = shared.get(x)
        if ext is None:
            ext = shared[x] = ExtRational.finite(Fraction(x, den))
        return ext

    def finite_vertex(key, u):
        wc, origin = key
        at = tuple(o + u * w for o, w in zip(origin, wc))
        if at not in table:
            point = TropPoint(tuple(value(x) for x in at))
            table[at] = _ImageVertex(point, tuple((0, x) for x in at), set())
        return at

    def infinite_vertex(key, sign):
        if (sign, key) not in table:
            table[sign, key] = _ImageVertex(*_infinite_point(key, den, sign, value), set())
        return sign, key

    edges: list[_ImageEdge] = []
    for key in line_keys:
        wc, _origin = key
        items = lines[key]
        bps = sorted(cuts[key])
        if not bps:
            raise CertificateFailure(f"image line {key} has no piece endpoint")
        intervals: list[tuple] = []
        if any(i.u_lo is None for i in items):
            intervals.append((None, bps[0]))
        intervals.extend(zip(bps, bps[1:]))
        if any(i.u_hi is None for i in items):
            intervals.append((bps[-1], None))
        # every breakpoint ends an item or is a covered crossing, so each
        # one is an endpoint of a covered interval below
        at = {u: finite_vertex(key, u) for u in bps}
        for u1, u2 in intervals:
            # no item ends strictly between two consecutive breakpoints, so
            # the covering items cover both ends
            covering = [i for i in items if i.spans(u1, u2)]
            if not covering:
                continue
            if u1 is None:  # the covering items are ray tails running to -inf
                v1, v2, direction = at[u2], infinite_vertex(key, -1), tuple(-x for x in wc)
            elif u2 is None:
                v1, v2, direction = at[u1], infinite_vertex(key, +1), wc
            else:
                v1, v2, direction = at[u1], at[u2], wc
            finite_ends = [u for u in (u1, u2) if u is not None]
            length = Fraction(u2 - u1, den) if len(finite_ends) == 2 else None
            srcs = []
            for i in covering:
                offs = []
                for u in finite_ends:
                    off, pt = i.preimage(u)
                    table[at[u]].preimages.add(pt)
                    offs.append(off)
                if length is None:  # the infinite end's preimages are the ray leaves
                    table[v2].preimages.add(i.at_hi)
                # the source offset grows with u exactly when the sense is +1
                first, last = (offs[0], offs[-1]) if i.sense > 0 else (offs[-1], offs[0])
                srcs.append((i.source, first, None if length is None else last))
            weight = sum(i.stretch for i in covering)
            edges.append(_ImageEdge(v1, v2, direction, weight, length, tuple(sorted(srcs))))

    # number vertices by sort key and edges by (their ends' sort keys,
    # direction); both sorts are stable, so ties keep creation order
    vid = {v: f"t{k}" for k, v in enumerate(sorted(table, key=lambda v: table[v].order))}
    ranked = sorted(edges, key=lambda e: (table[e.v1].order, table[e.v2].order, e.direction))
    eid = {id(e): f"s{k}" for k, e in enumerate(ranked)}
    curve = TropicalCurve(
        n,
        {vid[v]: vertex.point for v, vertex in table.items()},
        {
            eid[id(e)]: TropEdge(
                eid[id(e)], vid[e.v1], vid[e.v2], e.direction, e.weight, e.length
            )
            for e in edges
        },
        _validated=True,
    )
    emap = EdgeMap(
        pieces,
        {vid[v]: frozenset(vertex.preimages) for v, vertex in table.items()},
        {eid[id(e)]: e.sources for e in edges},
    )
    rep = check_balancing(curve)
    if not rep.balanced:
        raise CertificateFailure(f"tropicalization violated balancing: {rep.defects}")
    return curve, emap


# -- faithfulness -------------------------------------------------------------------


class Violation(NamedTuple):
    """One defect of the fully-faithful certificate.

    `kind` names it; `at` is the source id of a contracted or stretched
    piece, or the image edge or vertex id (None for "empty"); `pieces` are
    the (source, lo, hi) source pieces involved, `points` the skeleton
    preimages of an image vertex, and `value` a stretching factor or an
    edge weight.
    """

    kind: str
    at: Optional[str] = None
    pieces: tuple = ()
    points: tuple = ()
    value: Optional[int] = None

    @property
    def label(self) -> str:
        """Kind and site, as pipeline reports print them."""
        return str((self.kind,) if self.at is None else (self.kind, self.at))


_REASONS = {
    "empty": lambda v: "embedding has no coordinates",
    "contracted": lambda v: "piece of {!r} at [{}, {}] is contracted".format(*v.pieces[0]),
    "stretch": lambda v: "piece of {!r} at [{}, {}] has stretching factor {}".format(
        *v.pieces[0], v.value
    ),
    "coverage": lambda v: f"image edge {v.at!r} is covered by {len(v.pieces)} pieces",
    "weight": lambda v: f"image edge {v.at!r} has weight {v.value}",
    "preimages": lambda v: f"image vertex {v.at!r} has {len(v.points)} skeleton preimages",
}
_KINDS = tuple(_REASONS)


@dataclass(frozen=True)
class FaithfulReport:
    """Verdict of the fully-faithful certificate, with what it was read from.

    `violations` holds one `Violation` per defect: "contracted" and
    "stretch" pieces in source-piece order, then "coverage" and "weight"
    image edges and "preimages" image vertices; "empty" stands alone for an
    embedding without coordinates.  A weight defect always follows the
    stretch or coverage defect that causes it.  `curve` and `emap` are the
    tropicalization the verdict was read from (None without coordinates);
    `reasons` are the violations in words, grouped by kind.
    """

    violations: tuple[Violation, ...] = ()
    curve: Optional[TropicalCurve] = None
    emap: Optional[EdgeMap] = None

    @property
    def reasons(self) -> tuple[str, ...]:
        grouped = sorted(self.violations, key=lambda v: _KINDS.index(v.kind))
        return tuple(dict.fromkeys(_REASONS[v.kind](v) for v in grouped))

    def __bool__(self):
        return not self.violations


def is_fully_faithful(emb: Embedding) -> FaithfulReport:
    """Exact certificate: no contracted pieces, globally injective, and all
    weights and stretching factors equal to one.

    One tropicalization gives both the verdict and the structured
    violations that the pipelines read.
    """
    try:
        curve, emap = tropicalize(emb)
    except EmptyCoordinates:
        return FaithfulReport((Violation("empty"),))
    out = []
    for rec in emap.pieces:
        piece = ((rec.source, rec.lo, rec.hi),)
        if rec.stretch == 0:
            out.append(Violation("contracted", rec.source, piece))
        elif rec.stretch > 1:
            out.append(Violation("stretch", rec.source, piece, value=rec.stretch))
    for eid, srcs in sorted(emap.edge_sources.items()):
        if len(srcs) > 1:
            out.append(Violation("coverage", eid, srcs))
    for eid, e in curve.edges.items():
        if e.weight != 1:
            out.append(Violation("weight", eid, value=e.weight))
    for vid, pts in sorted(emap.vertex_sources.items()):
        if len(pts) > 1:
            out.append(Violation("preimages", vid, points=tuple(sorted(pts))))
    return FaithfulReport(tuple(out), curve, emap)


# -- extension ----------------------------------------------------------------------


def adjoin(
    skel: ExtendedGraph, f: PLFunction, name: str, ray_slopes: Optional[Mapping[str, int]] = None
) -> tuple[ExtendedGraph, tuple[PLFunction, dict[str, int], list[str]]]:
    """The skeleton step of adjoining a coordinate: attach a fresh ray at
    every finite divisor point of f (the eventual slope opposes the
    coefficient's sign, so the extended function is harmonic there and
    diverges along the new ray).  Returns the new skeleton and the record
    (f unmoved, its ray slopes, the new ray ids) for `assemble`.

    f lives on `skel` (InvalidCoordinate if `ray_slopes` is given too), or
    on its finite part, where `ray_slopes` gives its slope s on existing
    rays (UnknownEdge for no ray) and each adds s*(attach) - s*(leaf) to the
    divisor.  Divisor points must be simple (+-1) and distinct from existing
    ray attach points; support already at infinite vertices is kept as is.
    """
    slopes = dict(ray_slopes or {})
    if f.domain is not skel and f.domain is not skel.finite:
        raise InvalidCoordinate("function lives on a different skeleton")
    if f.domain is skel and slopes:
        raise InvalidCoordinate("ray slopes given for a function that has its rays")
    terms = list(divisor_of(f).terms)
    for rid, s in slopes.items():
        ray = skel.ray(rid)
        terms += [(GraphPoint.at_vertex(ray.attach), s), (GraphPoint.at_vertex(ray.leaf), -s)]
    d = Divisor(terms)
    finite_support: list[tuple[GraphPoint, int]] = []
    for pt, c in d.terms:
        if pt.is_vertex and skel.is_infinite_vertex(pt.vertex):
            if abs(c) != 1:
                raise NonSimplePoint(f"coefficient {c} at infinite vertex {pt.vertex!r}")
            continue
        if abs(c) != 1:
            raise NonSimplePoint(f"coefficient {c} at {pt!r}")
        finite_support.append((pt, c))
    attach_vs = skel.attach_vertices()
    for pt, _c in finite_support:
        if pt.is_vertex and pt.vertex in attach_vs:
            raise DivisorCollision(f"divisor point {pt!r} is already a ray attachment")
    ray_ids = [f"{name}.{k}" for k in range(len(finite_support))]
    # the divisor's terms, and so the new rays, are in point order
    new_skel = skel.with_new_rays([(rid, pt) for rid, (pt, _c) in zip(ray_ids, finite_support)])
    slopes.update((rid, -c) for rid, (_pt, c) in zip(ray_ids, finite_support))
    return new_skel, (f, slopes, ray_ids)


def assemble(skel: ExtendedGraph, coords: Sequence[PLFunction], adjoined: Sequence[tuple]) -> Embedding:
    """The embedding on `skel` of `coords`, then of each (f, ray slopes,
    new ray ids) record of `adjoin`: the one place a pipeline coordinate
    is transported, once, from the domain it was built on.  Each new ray
    must have stretching factor one: slope +-1 in its f, 0 in earlier ones."""
    out: list[PLFunction] = []
    for f, slopes, rays in chain(((g, {}, ()) for g in coords), adjoined):
        moved = f if f.domain is skel else f.transport(skel, slopes)
        for rid in rays:
            if any(g.ray_profiles[rid].slope for g in out) or abs(moved.ray_profiles[rid].slope) != 1:
                raise CertificateFailure(f"new ray {rid!r} does not have stretching factor one")
        out.append(moved)
    return Embedding(skel, out)


def extend_embedding(emb: Embedding, f: PLFunction, name: str) -> Embedding:
    """`adjoin` f to the embedding's skeleton and `assemble` the embedding
    there: the coordinates it had, then f, each transported once.  The
    one-coordinate form, for callers outside the library; the pipelines
    adjoin every coordinate of a step on the skeleton and assemble once."""
    skel, record = adjoin(emb.skeleton, f, name)
    return assemble(skel, emb.coords, [record])
