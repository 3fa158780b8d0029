"""Constructive refinement of embeddings.

Two pipelines.  The first makes an arbitrary embedding fully faithful: a
bootstrap stage synthesizes coordinates that map the 2-edge-connected core
injectively with unit stretching, but only when the input has no
coordinates or its certificate shows a core violation; then every
remaining finite edge and every bare ray gets one coordinate from
`edge_ramp`: a slope-one ramp (divergent along a ray) corrected by pillar
trapezoids on a spanning-tree complement, placed by one `select_pillars`
call per target.  The second pipeline repairs singular image vertices: a
vertex with adjacent edges e0..en receives n tent coordinates with slopes
+1 into ek and -1 into e0, which project a neighborhood of the image
vertex onto the coordinate-axes fan and make it smooth.  Every step (a
tent, a ramp, a patch) builds its function on the skeleton alone (a ramp
on its finite part), which it may refine; `adjoin` attaches its rays
without moving it, and `assemble` transports each coordinate once, from
where it was built, into one embedding for stage 0's tents, its ramps,
each patch round, the edge ramps and each smoothing pass.

All offsets allocated here are tracked in "root frames": the edge and ray
ids present when a pipeline starts, plus rays it attaches later.  The
graph's lineage, read backwards through `parent`, leads every current
id to its root frame, so bookkeeping stays consistent while the skeleton is
refined and nothing is registered as it grows.  Free offsets come from two
searches of `Frames`: `claim` for points at fixed gaps (ray attachments,
divisor pairs) and `bump` for trapezoid supports in free windows (pillars,
separating bumps).  Every bump (each side of a tent, a pillar, a separating
trapezoid) is one `PLFunction.add_trapezoids` record in a root frame, and
every ramp (a stage-0 core ramp, an edge or ray ramp) is built by
`_corrected_witness`: the `is_principal` witness of a base divisor plus
the correction pairs that make it principal, one site per cycle.
A base whose two points are joined by bridges alone needs no pair.

One exact certificate, `is_fully_faithful`, drives both pipelines: each
stage-0 patch round and smoothing pass reads the named `Violation` records
and the image it needs from a single call.  The first pipeline builds its
coordinates and then certifies them once, raising `CertificateFailure`
with the reasons if any violation is left; `smoothing_pipeline` reads the
certificate that `fully_faithful_pipeline` attached to its output instead
of computing it again.  Neither pipeline returns output that has not
passed it, and each logs its construction steps in a `PipelineReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .complexes import TropicalCurve, check_smooth
from .divisors import (
    Divisor,
    PLFunction,
    construct_pl_with_divisor,
    cor34_certificate,
    divisor_of,
    is_principal,
    make_divisor,
)
from .errors import (
    CertificateFailure,
    EmptyCoordinates,
    EqualEdges,
    MonotonicityViolation,
    NonpositiveLength,
    NoRoom,
    NotSeparated,
    PillarFailure,
    PillarSearchExhausted,
    Stage0Failure,
    UnknownEdge,
)
from .graphs import (
    ExtendedGraph,
    GraphPoint,
    MetricGraph,
    build_extended,
    build_graph,
)
from .rationals import rat
from .tropicalize import (
    Embedding,
    FaithfulReport,
    Violation,
    adjoin,
    assemble,
    frame_pieces,
    images_meet,
    is_fully_faithful,
    tropicalize,
)

V = GraphPoint.at_vertex
P = GraphPoint.on_edge

# Search budgets: dyadic halvings per claimed offset, window halvings per
# bump, batched stage-0 patch rounds, shrinks of a tent's offsets, and
# correction pairs per cycle.
CLAIM_DEPTH = 8
PILLAR_TRIES = 24
STAGE0_PATCHES = 48
TENT_SHRINKS = 40
CYCLE_PAIRS = 96


# -- core designation -------------------------------------------------------------


def designate_core(fin: MetricGraph) -> tuple[frozenset[str], frozenset[str]]:
    """Edges and vertices of the 2-core of the finite part: what is left
    once vertices of valence at most one are stripped while any remain.  It
    carries all the cycles plus the bridges between them.  A tree strips to
    nothing and gives its least vertex with no edges.
    """
    adj = fin.adjacency
    valence = {v: len(adj[v]) for v in fin.vertices}
    queue = [v for v in fin.vertices if valence[v] <= 1]
    stripped = set(queue)
    while queue:
        for _eid, w in adj[queue.pop()]:
            if w not in stripped:
                valence[w] -= 1
                if valence[w] <= 1:
                    stripped.add(w)
                    queue.append(w)
    core = valence.keys() - stripped
    if not core:
        return frozenset(), frozenset(fin.vertices[:1])
    return frozenset(eid for eid, e in fin.edges.items() if e.a in core and e.b in core), frozenset(core)


# -- root-frame bookkeeping ----------------------------------------------------------


class Frames:
    """Offset allocation in stable root frames.

    Roots are the edge/ray ids current when the frames are made, plus the
    rays attached later: a current id walks `parent` up to one of the first
    or to an id with no parent, which is one of the second.  Blocked points
    mark future ray attachments; blocked intervals reserve bump supports so
    no later subdivision lands inside them.  Every offset search goes
    through one of two primitives: `claim` for fresh points at fixed gaps,
    `bump` for trapezoid supports in free windows.
    """

    def __init__(self, skel: ExtendedGraph):
        self.start_ids = frozenset(skel.finite.edges) | frozenset(skel.rays)
        self.points: dict[str, set[Fraction]] = {}
        self.intervals: dict[str, list[tuple[Fraction, Fraction]]] = {}

    def locate(self, skel: ExtendedGraph, cid: str) -> tuple[str, Fraction]:
        """Root frame and offset shift of a current edge or ray id."""
        if cid not in skel.finite.edges and cid not in skel.rays:
            raise UnknownEdge(f"{cid!r} is not a current edge or ray")
        shift = Fraction(0)
        while cid not in self.start_ids and (up := skel.parent(cid)) is not None:
            cid, lo = up
            shift += lo
        return cid, shift

    def root_range(self, skel: ExtendedGraph, cid: str):
        """Root frame and offsets of a current edge or ray id (None for the
        end of a ray)."""
        root, lo = self.locate(skel, cid)
        edge = skel.finite.edges.get(cid)
        return root, lo, None if edge is None else lo + edge.length

    def block_point(self, root: str, off: Fraction):
        self.points.setdefault(root, set()).add(off)

    def block_interval(self, root: str, lo: Fraction, hi: Fraction):
        self.intervals.setdefault(root, []).append((lo, hi))

    def clear_point(self, root: str, off: Fraction) -> bool:
        if off in self.points.get(root, ()):
            return False
        return all(
            not (lo <= off <= hi) for lo, hi in self.intervals.get(root, ())
        )

    def claim(self, root: str, lo: Fraction, hi: Fraction, *gaps: Fraction) -> Fraction:
        """The first dyadic offset a of (lo, hi - max(gaps)), up to
        CLAIM_DEPTH halvings, with a and every a + gap clear; blocks them
        all.  Raises NoRoom when there is none."""
        span = hi - lo - max(gaps, default=0)
        for level in range(CLAIM_DEPTH if span > 0 else 0):
            for num in range(1, 2 ** (level + 1), 2):
                a = lo + span * Fraction(num, 2 ** (level + 1))
                pattern = [a] + [a + gap for gap in gaps]
                if all(self.clear_point(root, x) for x in pattern):
                    for x in pattern:
                        self.block_point(root, x)
                    return a
        raise NoRoom(f"no free offset on {root!r} in ({lo}, {hi}) for gaps {gaps}")

    def bump(self, root: str, lo: Fraction, hi: Fraction, accept, avoid=()):
        """Trapezoid offsets at 1/8, 2/8, 5/8 and 6/8 of a free window of
        (lo, hi) outside the `avoid` zones, halving the width, PILLAR_TRIES
        tries in all; blocks [x1, x4] of the first that `accept` takes.
        None when no try is taken."""
        tries = 0
        for wlo, whi in self.windows(root, lo, hi, avoid):
            width = whi - wlo
            while tries < PILLAR_TRIES:
                tries += 1
                offs = [wlo + width * Fraction(k, 8) for k in (1, 2, 5, 6)]
                if all(self.clear_point(root, o) for o in offs) and accept(offs):
                    self.block_interval(root, offs[0], offs[3])
                    return offs
                width = width / 2
        return None

    def windows(self, root: str, lo: Fraction, hi: Fraction, avoid=()):
        """Maximal open subintervals of (lo, hi) avoiding blocked intervals,
        blocked points and the (root, lo, hi) zones of `avoid`."""
        zones = self.intervals.get(root, []) + [(a, b) for r, a, b in avoid if r == root]
        marks = [(max(lo, a), min(hi, b)) for a, b in zones if max(lo, a) < min(hi, b)]
        marks += [(off, off) for off in self.points.get(root, ()) if lo < off < hi]
        marks.sort()
        out = []
        cur = lo
        for a, b in marks:
            if a > cur:
                out.append((cur, a))
            cur = max(cur, b)
        if cur < hi:
            out.append((cur, hi))
        return out


# -- pillar selection ------------------------------------------------------------------


@dataclass
class PillarSet:
    complement: tuple[str, ...]  # current edge ids at selection
    tuples: list[tuple[GraphPoint, ...]]  # four root-frame points per edge


def _clipped_pieces(emb: Embedding, frame: str, lo: Fraction, hi: Optional[Fraction]):
    """`frame_pieces` of a frame cut to [lo, hi] (hi None: to the end)."""
    for cid, plo, phi, vals, slopes in frame_pieces(emb, frame):
        a = max(lo, plo)
        b = phi if hi is None else (hi if phi is None else min(hi, phi))
        if b is None or a < b:
            yield cid, a, b, tuple(x + u * (a - plo) for x, u in zip(vals, slopes)), slopes


def _images_disjoint(emb: Embedding, a, b) -> bool:
    pieces_b = list(_clipped_pieces(emb, *b))
    return not any(
        images_meet(pa, pb) for pa in _clipped_pieces(emb, *a) for pb in pieces_b
    )


def _tree_complement(fin: MetricGraph) -> tuple[str, ...]:
    """The edges of `fin` off its canonical spanning tree, in id order:
    where `select_pillars` places pillars."""
    tree = set(fin.canonical_spanning_tree())
    return tuple(eid for eid in sorted(fin.edges) if eid not in tree)


def select_pillars(
    skel: ExtendedGraph,
    frames: Frames,
    avoid_image_of: Optional[tuple[Embedding, str]] = None,
    forbidden: tuple[tuple[str, Fraction, Fraction], ...] = (),
    complement: Optional[tuple[str, ...]] = None,
) -> PillarSet:
    """Deterministic pillar placement for one target: a valid four-point
    tuple on every spanning-tree complement edge of `skel`, its support
    clear of earlier supports and of the root-frame `forbidden` zones and,
    when `avoid_image_of` is an (embedding on `skel`, frame) pair, with
    image disjoint from that frame's image: one `Frames.bump` per
    complement edge.  Without it no coordinate is read.  `complement` is
    `_tree_complement(skel.finite)`, which a caller placing pillars for
    many targets on one skeleton computes once."""
    if complement is None:
        complement = _tree_complement(skel.finite)
    emb, frame = avoid_image_of or (None, None)
    tuples = []
    for cid in complement:
        root, slo, shi = frames.root_range(skel, cid)

        def accept(offs):
            return emb is None or not emb.coords or _images_disjoint(
                emb, (root, offs[0], offs[3]), (frame, Fraction(0), None)
            )

        offs = frames.bump(root, slo, shi, accept, forbidden)
        if offs is None:
            raise PillarSearchExhausted(
                f"no pillar window on {cid!r} (root {root!r}, forbidden {forbidden})"
            )
        tuples.append(tuple(P(root, o) for o in offs))
    return PillarSet(complement, tuples)


def _fits_one_edge(skel: ExtendedGraph, root: str, offs) -> bool:
    """Whether bump offsets in a root frame all lie inside one current edge."""
    cp = [skel.canonical_point(P(root, o)) for o in offs]
    return not any(c.is_vertex for c in cp) and len({c.edge for c in cp}) == 1


def _apply_pillars(skel: ExtendedGraph, base: PLFunction, pset: PillarSet) -> PLFunction:
    """`base` plus the trapezoid of every pillar tuple, each still inside one current edge."""
    bumps = [(pts[0].edge, [p.offset for p in pts], 1) for pts in pset.tuples]
    for (root, offs, _slope), pts in zip(bumps, pset.tuples):
        if not _fits_one_edge(skel, root, offs):
            raise PillarFailure(f"pillar tuple {pts} no longer fits one edge")
    return base.add_trapezoids(bumps) if bumps else base


# -- anchors -----------------------------------------------------------------------------


def _current_pieces(skel: ExtendedGraph, frame: str) -> set[str]:
    return {cid for kind, cid, _lo, _hi in skel.segments_of(frame) if kind == "edge"}


def _fresh_vertex_on(skel: ExtendedGraph, frames: Frames, cid: str, near_vertex: str) -> tuple[ExtendedGraph, str]:
    """Subdivide the current finite edge cid at a fresh root-frame point,
    claimed and blocked, in its quarter next to its endpoint `near_vertex`,
    and return it as a vertex (safe for ray attachment: subdividing a
    finite edge does not create a ray endpoint)."""
    root, slo, shi = frames.root_range(skel, cid)
    quarter = (shi - slo) / 4
    lo = slo if skel.finite.edges[cid].a == near_vertex else shi - quarter
    pt = P(root, frames.claim(root, lo, lo + quarter))
    skel = skel.subdivide_many([pt])
    return skel, skel.canonical_point(pt).vertex


def _anchor_near(
    skel: ExtendedGraph, v: str, avoid_pieces: set[str], core_edges_current: set[str], frames: Frames
) -> tuple[ExtendedGraph, str, Optional[str]]:
    """Zero-charge location serving v.

    Returns (skeleton, anchor vertex, descend_ray): when v carries no ray
    yet the charge sits at v itself; otherwise it moves to a fresh interior
    vertex of a bridge edge at v, or rides down an existing ray at v (the
    zero shadow then sits at that ray's leaf)."""
    if v not in skel.attach_vertices():
        return skel, v, None
    for eid, _w in sorted(skel.finite.adjacency[v]):
        if eid in avoid_pieces or eid in core_edges_current:
            continue
        skel, va = _fresh_vertex_on(skel, frames, eid, v)
        return skel, va, None
    for rid in sorted(skel.rays):
        if skel.rays[rid].attach == v:
            return skel, v, rid
    raise NoRoom(f"no anchor location available near {v!r}")


# -- edge functions ------------------------------------------------------------------------


def _core_current(skel: ExtendedGraph, core_edges: frozenset[str]) -> set[str]:
    out = set()
    for root in core_edges:
        out |= _current_pieces(skel, root)
    return out


def edge_ramp(
    skel: ExtendedGraph,
    frame: str,
    pillars: PillarSet,
    core_edges: frozenset[str],
    core_vertices: frozenset[str],
    frames: Frames,
) -> tuple[ExtendedGraph, PLFunction, dict[str, int], GraphPoint, GraphPoint]:
    """Slope-one ramp along a non-core edge or a ray frame, plus pillar
    trapezoids: (skeleton, function on its finite part, its ray slopes,
    zero, pole), value zero at the core-side end v.  Only the skeleton is
    read and refined: the ramp needs no coordinate.

    The zero charge sits at v, or at a fresh point near it when v already
    carries a ray, or rides down a ray at v to its leaf.  When the only ray
    at v is the frame's own, it moves to a fresh core point instead.  The
    pole charge sits at the far end w or a fresh point beyond it, or rides
    a ray at w to its leaf; a ray frame's far end is its own tail.

    The ramp is `_corrected_witness` of the base divisor (zero anchor) -
    (pole anchor), with value 0 at v; its slopes are +1 on the pole's ray
    and -1 on the zero's.  When the two anchors are joined by bridges alone
    their cycle integrals vanish, so no correction pair is placed and the
    ramp is the plain witness of the base.
    """
    pieces = _current_pieces(skel, frame)
    core_cur = _core_current(skel, core_edges)
    if pieces & core_cur:
        raise NotSeparated(f"edge {frame!r} belongs to the designated core")
    segs = skel.segments_of(frame)
    v = skel.canonical_point(P(frame, segs[0][2])).vertex
    w = None
    if segs[-1][3] is not None:
        comp = skel.finite.components(pieces)
        w = skel.canonical_point(P(frame, segs[-1][3])).vertex
        if comp[v] == comp[w]:
            raise NotSeparated(f"edge {frame!r} lies on a cycle")
        if comp[v] != comp[sorted(core_vertices)[0]]:
            v, w = w, v

    skel, va, descend_ray = _anchor_near(skel, v, pieces, core_cur, frames)
    end_ray, vb = None, w
    if w is None:
        end_ray = next(cid for kind, cid, _lo, _hi in skel.segments_of(frame) if kind == "ray")
        vb = skel.rays[end_ray].attach
    elif beyond := [eid for eid, _x in sorted(skel.finite.adjacency[w]) if eid not in pieces]:
        skel, vb = _fresh_vertex_on(skel, frames, beyond[0], w)
    else:
        # a leaf: the pole rides its first ray, or sits on the bare leaf
        end_ray = min((rid for rid, r in skel.rays.items() if r.attach == w), default=None)
    if descend_ray is not None and descend_ray == end_ray:  # v's only ray is the frame's own
        core_list = sorted(_core_current(skel, core_edges))
        if not core_list:
            raise NotSeparated(f"no anchor available for ray {frame!r}")
        root, slo, shi = frames.root_range(skel, core_list[0])
        zero = anchor = skel.canonical_point(P(root, frames.claim(root, slo, shi)))
        descend_ray = None
    else:
        anchor = V(va)
        zero = V(skel.rays[descend_ray].leaf) if descend_ray else anchor
    base = make_divisor(skel.finite, [(anchor, 1), (V(vb), -1)])
    f = _apply_pillars(skel, _corrected_witness(skel, frames, base, basepoint=V(v)), pillars)
    slopes = {rid: s for rid, s in ((end_ray, 1), (descend_ray, -1)) if rid is not None}
    if pillars.complement and not slopes:
        _check_cor34_shape(skel, f, base, pillars)
    pole = V(skel.rays[end_ray].leaf) if end_ray else V(vb)
    return skel, f, slopes, zero, pole


def _check_cor34_shape(skel, f, base: Divisor, pillars: PillarSet):
    """The assembled divisor must agree with the certified witness route,
    run on the current edges the pillar tuples lie on."""
    fin = skel.finite
    tuples = [[skel.canonical_point(p) for p in pts] for pts in pillars.tuples]
    terms = [(p, c) for pts in tuples for p, c in zip(pts, (1, -1, -1, 1))]
    expected = base + make_divisor(fin, terms)
    got = divisor_of(f)
    if got != expected:
        raise CertificateFailure(f"edge function divisor mismatch: {got} != {expected}")
    ref = cor34_certificate(fin, base, [pts[0].edge for pts in tuples], tuples)
    if divisor_of(ref) != expected:
        raise CertificateFailure(f"certified witness divisor mismatch: {divisor_of(ref)}")


# -- vertex functions ------------------------------------------------------------------


@dataclass
class VertexFunctionResult:
    skeleton: ExtendedGraph
    function: PLFunction
    zones: tuple[tuple[str, Fraction, Fraction], ...]  # (root, min, max) per root frame


def _side_frame(skel: ExtendedGraph, frames: Frames, v: str, side_id: str):
    """(root, v_offset, direction, room) for walking away from v along a
    current incident edge or ray; direction is +1 when distance from v
    increases with the root offset."""
    if side_id in skel.rays:
        if skel.rays[side_id].attach != v:
            raise UnknownEdge(f"ray {side_id!r} is not attached at {v!r}")
        root, slo, _shi = frames.root_range(skel, side_id)
        return root, slo, +1, Fraction(1)
    e = skel.finite.edges[side_id]
    root, slo, shi = frames.root_range(skel, side_id)
    if e.a == v:
        return root, slo, +1, (shi - slo) / 2
    if e.b == v:
        return root, shi, -1, (shi - slo) / 2
    raise UnknownEdge(f"edge {side_id!r} is not incident to {v!r}")


def vertex_function(
    skel: ExtendedGraph, v: str, spec_neg: tuple, spec_pos: tuple, frames: Frames
) -> VertexFunctionResult:
    """Tent coordinate at v: slope +1 into the side of spec_pos, -1 into
    the side of spec_neg (both `_side_frame` specs), zero on all other
    sides, support inside the two sides, simple divisor of six points
    (three per side), value zero at v.  No coordinate is read.

    A ray side is cut once, at distance 3r + p from v past the outermost
    point: the support stays finite, and the tail left attaches where the
    tent is zero, not at one of its divisor points.  The result carries
    that cut skeleton, and the cut is blocked like the six offsets.  The support shrinks around
    blocked offsets, TENT_SHRINKS times at most, and raises NoRoom when no
    placement fits.  `zones` are the (root, min, max) spans of the six
    offsets per root frame, for pillars to keep out of.
    """
    if spec_neg[:3] == spec_pos[:3]:
        raise EqualEdges(f"tent needs two distinct sides at {v!r}")
    room = min(spec_neg[3], spec_pos[3])
    r = room / 4
    p = room / 4
    for _try in range(TENT_SHRINKS):
        pts = []
        ok = True
        for root, v_off, direction, _room in (spec_neg, spec_pos):
            for db in (r, r + p, 2 * r + p):
                x = v_off + direction * db
                pts.append((root, x))
                if not frames.clear_point(root, x):
                    ok = False
        if ok:
            break
        r = r * Fraction(15, 16)
        p = p * Fraction(13, 16)
    else:
        raise NoRoom(f"could not place a tent at {v!r}")
    for root, x in pts:
        frames.block_point(root, x)
    cuts = []
    for root, v_off, direction, _room in (spec_neg, spec_pos):
        outer = skel.canonical_point(P(root, v_off + direction * (2 * r + p)))
        if not outer.is_vertex and outer.edge in skel.rays:
            cuts.append((root, v_off + direction * (3 * r + p)))
            frames.block_point(*cuts[-1])
    skel = skel.subdivide_many([P(root, x) for root, x in cuts])

    # each side: slope -1 or +1 out to distance r from v, plateau p, back to zero
    tent = PLFunction.zero(skel).add_trapezoids(
        (root, sorted(v_off + direction * d for d in (0, r, r + p, 2 * r + p)), sign)
        for (root, v_off, direction, _room), sign in ((spec_neg, -1), (spec_pos, +1))
    )
    d = divisor_of(tent)
    if d.coeff(V(v)) != 0 or len(d.terms) != 6 or any(abs(c) != 1 for _pt, c in d.terms):
        raise CertificateFailure(f"tent at {v!r} needs six simple points off the vertex: {d}")
    zones: dict[str, list[Fraction]] = {}
    for root, x in pts:
        zones.setdefault(root, []).append(x)
    return VertexFunctionResult(
        skel, tent, tuple((root, min(xs), max(xs)) for root, xs in sorted(zones.items()))
    )


# -- stage 0: bootstrap coordinates for the core ------------------------------------------


def _core_ramp(skel: ExtendedGraph, frames: Frames, root_e: str) -> PLFunction:
    """Corrected witness of (a) - (b) for fresh points a, b near the two
    ends of root_e.  No frame is spared: corrections may land on root_e,
    whose pieces are sites like any other edge's."""
    fin = skel.finite
    length = fin.frame_length(root_e)
    a_off = frames.claim(root_e, Fraction(0), length / 4)
    b_off = frames.claim(root_e, length - length / 4, length)
    base = make_divisor(fin, [(P(root_e, a_off), 1), (P(root_e, b_off), -1)])
    return _corrected_witness(skel, frames, base)


def _corrected_witness(
    skel: ExtendedGraph, frames: Frames, base: Divisor, basepoint: Optional[GraphPoint] = None
) -> PLFunction:
    """The `is_principal` witness of `base` plus +-1 correction pairs that
    cancel its cycle obstruction, searched on the cached cycle space of the
    model cut at the base: for an edge ramp, whose base sits at vertices,
    the finite part, whose final `is_principal` reads the same.  Cycle j
    takes all its pairs on one site, read from the cycle space's incidence:
    its longest edge that lies on no other fundamental cycle, first in id
    order on ties (its complement edge always qualifies).  A base with zero
    cycle integrals (two points joined by bridges alone) gets no pair and
    claims no offset.  The one constructor of every ramp; the witness is a
    function on the finite part, 0 at `basepoint` (default: the least
    vertex).  Raises CertificateFailure when the corrected divisor is not
    principal."""
    fin = skel.finite
    refined = skel.subdivide_many(base.support())
    model = refined.finite
    dm = make_divisor(model, base.terms)
    cs = model.cycle_space
    g = len(cs.cycles)
    _chain, w, den = cs.integrals(dm.terms)
    w = [Fraction(x, den) for x in w]
    # A pair on a site moves its cycle's coordinate only, keeping the solve
    # decoupled.  A pair needs only its two endpoints fresh (its span may
    # straddle other charges), so a site of span S absorbs nearly S per
    # pair, any number of pairs deep.
    longest: dict[int, tuple[str, int]] = {}
    for eid, hits in sorted(cs._through.items()):
        if len(hits) == 1:
            j, cj = hits[0]
            if j not in longest or model.edges[eid].length > model.edges[longest[j][0]].length:
                longest[j] = (eid, cj)
    sites = [(*frames.root_range(refined, longest[j][0]), longest[j][1]) for j in range(g)]
    spans = [shi - slo for _root, slo, shi, _cj in sites]
    best = None
    for widen in (1, 2, 4):
        lower = [w[j] - widen * max(spans[j], Fraction(1)) * 4 for j in range(g)]
        upper = [w[j] + widen * max(spans[j], Fraction(1)) * 4 for j in range(g)]
        for k, shift in cs.lattice_points(lower, upper):
            d = [sj - wj for sj, wj in zip(shift, w)]
            cost = sum(-((-abs(dj)) // (spans[j] / 2)) for j, dj in enumerate(d))
            key = (cost, k)
            if best is None or key < best[0]:
                best = (key, d)
        if best is not None:
            break
    if best is None:
        raise Stage0Failure(f"no correction lattice point for base {base!r}")
    terms = list(base.terms)
    for (root, slo, shi, cj), span, dj in zip(sites, spans, best[1]):
        rem = dj
        for _guard in range(CYCLE_PAIRS):
            if rem == 0:
                break
            chunk_mag = min(abs(rem), span * Fraction(3, 4))
            while True:
                try:
                    alpha = frames.claim(root, slo, shi, chunk_mag)
                    break
                except NoRoom:
                    if chunk_mag < span / 2**CLAIM_DEPTH:
                        raise
                    chunk_mag /= 2
            beta = alpha + chunk_mag
            # a pair with gap g here moves the j-th coordinate by g * cj
            if (rem > 0) == (cj > 0):
                terms += [(P(root, beta), 1), (P(root, alpha), -1)]
            else:
                terms += [(P(root, alpha), 1), (P(root, beta), -1)]
            rem -= chunk_mag if rem > 0 else -chunk_mag
        else:
            raise NoRoom(f"correction total {dj} exceeds cycle capacity")
    d = make_divisor(fin, terms)
    res = is_principal(fin, d, basepoint)
    if not res.principal:
        raise CertificateFailure(f"corrected divisor is not principal: {d}")
    return res.witness


def _core_violation(emb: Embedding, viol: Violation, core_pieces: set[str], core_vertices) -> bool:
    """Whether a violation involves the core: a contracted or stretched
    core piece, or two core pieces or points sharing one image."""
    skel = emb.skeleton

    def pt_in_core(pt: GraphPoint) -> bool:
        if pt.is_vertex:
            return pt.vertex in core_vertices or any(
                skel.finite.edges[eid].a == pt.vertex or skel.finite.edges[eid].b == pt.vertex
                for eid in core_pieces
                if eid in skel.finite.edges
            )
        return pt.edge in core_pieces

    hits = sum(src in core_pieces for src, _lo, _hi in viol.pieces)
    hits += sum(map(pt_in_core, viol.points))
    return hits >= (1 if viol.kind in ("contracted", "stretch") else 2)


def _core_violations(
    emb: Embedding, rep: FaithfulReport, core_edges: frozenset[str], core_vertices
) -> list[Violation]:
    """The violations of `rep`, a certificate of `emb`, that involve the
    current pieces of the core edges (`_core_violation`)."""
    core_pieces = _core_current(emb.skeleton, core_edges)
    return [v for v in rep.violations if _core_violation(emb, v, core_pieces, core_vertices)]


def _separating_bump(
    skel: ExtendedGraph, frames: Frames, cid: str, lo: Fraction, hi: Optional[Fraction],
    around: Optional[Fraction] = None,
) -> Optional[PLFunction]:
    """A trapezoid on one current edge inside the piece [lo, hi] of the
    current edge cid: a `Frames.bump`, or with `around` one whose rise is
    centred on that offset of the free window holding it."""
    if cid in skel.rays:
        return None
    root, shift = frames.locate(skel, cid)
    glo = shift + lo
    ghi = shift + (hi if hi is not None else skel.finite.edges[cid].length)
    if around is None:
        offs = frames.bump(root, glo, ghi, lambda offs: _fits_one_edge(skel, root, offs))
    elif win := next(((a, b) for a, b in frames.windows(root, glo, ghi) if a < shift + around < b), None):
        at = shift + around
        q = min(at - win[0], win[1] - at) / 8
        offs = [at - q, at + q, at + 2 * q, at + 4 * q]
        if not _fits_one_edge(skel, root, offs):
            return None
        frames.block_interval(root, offs[0], offs[3])
    else:
        return None
    return None if offs is None else PLFunction.zero(skel).add_trapezoids([(root, offs, 1)])


def _repair_step(skel: ExtendedGraph, frames: Frames, viol: Violation) -> Optional[PLFunction]:
    """Stage 0's fix for one core violation: a bump on one of its pieces or
    around one of its interior points; None when neither fits."""
    fin = skel.finite
    sites = [(src, lo, hi, None) for src, lo, hi in viol.pieces] + [
        (pt.edge, Fraction(0), fin.edges[pt.edge].length, pt.offset)
        for pt in viol.points
        if not pt.is_vertex and pt.edge in fin.edges
    ]
    for cid, lo, hi, around in sites:
        bump = _separating_bump(skel, frames, cid, lo, hi, around)
        if bump is not None:
            return bump
    return None


def _root_slope_cover(emb: Embedding, root: str):
    """Maximal root-frame intervals on which some coordinate has nonzero
    slope, in frame order (the order `frame_pieces` walks)."""
    merged = []
    for _cid, lo, hi, _vals, slopes in frame_pieces(emb, root):
        if any(slopes):
            if merged and merged[-1][1] == lo:
                merged[-1] = (merged[-1][0], hi)
            else:
                merged.append((lo, hi))
    return merged


def _check_core_cover(emb: Embedding, root: str):
    """Raise Stage0Failure naming the first gap of the core root frame
    `root`: an interval of (0, L) on which every coordinate is constant.

    A bump inside one current edge cannot close such a gap.  Every
    coordinate is harmonic on the finite part (`Embedding` checks it), so
    along the frame slopes change only at vertices: every gap end strictly
    inside the frame is a vertex, like the frame's own ends.  A trapezoid
    whose rise covers a gap's start, x1 < start < x2, crosses that vertex,
    and one inside the gap leaves (start, x1) uncovered.
    """
    ends = [Fraction(0)] + [x for ab in _root_slope_cover(emb, root) for x in ab]
    ends.append(emb.skeleton.finite.frame_length(root))
    gaps = [(lo, hi) for lo, hi in zip(ends[::2], ends[1::2]) if lo < hi]
    if gaps:
        lo, hi = gaps[0]
        raise Stage0Failure(
            f"core frame {root!r} is uncovered on ({lo}, {hi}), 1 of {len(gaps)} gaps"
        )


def _core_sides_at(skel: ExtendedGraph, core_edges: frozenset[str], v: str):
    """Current core edge pieces incident to v, sorted by id."""
    fin = skel.finite
    return sorted(
        cid for cid in _core_current(skel, core_edges) if v in (fin.edges[cid].a, fin.edges[cid].b)
    )


def stage0(
    emb: Embedding,
    rep0: FaithfulReport,
    core_edges: frozenset[str],
    core_vertices: frozenset[str],
    frames: Frames,
    report: "PipelineReport",
) -> Embedding:
    """Bootstrap coordinates making the core injective with unit stretch.

    Stage 0 runs only when `rep0`, the certificate of `emb`, shows a core
    violation, or when `emb` has no coordinates; otherwise `emb` is
    returned unchanged.  Adding a coordinate cannot make two points meet,
    contract a piece or raise a slope vector's content above one, so a core
    that is clean now stays clean under the later edge ramps.

    Tent coordinates cover every core vertex neighborhood, the nonzero
    slopes must then cover every core edge (`_check_core_cover`), one
    corrected-ramp witness per core edge separates the vertex values, and a
    batched patch loop resolves whatever exact violations remain (within
    budget, else Stage0Failure).  Each step adjoins its coordinate on the
    skeleton; the tents, the ramps and each patch round are assembled into
    one embedding each.
    """
    if not core_edges:
        return emb
    if emb.coords and not _core_violations(emb, rep0, core_edges, core_vertices):
        return emb

    # (1) tents at core vertices
    fin0 = emb.skeleton.finite
    tent_vertices = sorted(
        {fin0.edges[e].a for e in core_edges} | {fin0.edges[e].b for e in core_edges}
    )
    skel, adjoined = emb.skeleton, []
    for v in tent_vertices:
        sides = _core_sides_at(skel, core_edges, v)
        if len(sides) < 2:
            continue
        e0 = sides[0]
        for ek in sides[1:]:
            res = vertex_function(
                skel, v, _side_frame(skel, frames, v, e0), _side_frame(skel, frames, v, ek), frames
            )
            name = f"gt{len(adjoined) + 1}"
            skel, record = adjoin(res.skeleton, res.function, name)
            adjoined.append(record)
            report.log(construction="core-tent", target=v, coordinate=name)
            e0 = _core_sides_at(skel, core_edges, v)[0]
    emb = assemble(skel, emb.coords, adjoined)

    # (2) no piece of a core edge may be left constant under every coordinate
    for root in sorted(core_edges):
        _check_core_cover(emb, root)

    # (3) one corrected-ramp witness per core edge for vertex separation
    skel, adjoined = emb.skeleton, []
    for idx, root_e in enumerate(sorted(core_edges)):
        skel, record = adjoin(skel, _core_ramp(skel, frames, root_e), f"gs{idx}")
        adjoined.append(record)
        report.log(construction="core-ramp", target=root_e, coordinate=f"gs{idx}")
    emb = assemble(skel, emb.coords, adjoined)

    # (4) batched patches for residual core violations
    for patch_round in range(STAGE0_PATCHES):
        core_viols = _core_violations(emb, is_fully_faithful(emb), core_edges, core_vertices)
        if not core_viols:
            return emb
        skel, adjoined = emb.skeleton, []
        for viol in core_viols:
            bump = _repair_step(skel, frames, viol)
            if bump is not None:
                name = f"gp{patch_round}.{len(emb.coords) + len(adjoined)}"
                skel, record = adjoin(skel, bump, name)
                adjoined.append(record)
                report.log(construction="core-patch", target=viol.label)
        if not adjoined:
            raise Stage0Failure(f"no remedy for core violations {core_viols[:2]}")
        emb = assemble(skel, emb.coords, adjoined)
    raise Stage0Failure("core patch budget exhausted")


# -- pipelines ---------------------------------------------------------------------------


@dataclass
class PipelineReport:
    steps: list = field(default_factory=list)
    initial: dict = field(default_factory=dict)
    final: dict = field(default_factory=dict)
    singular_counts: list = field(default_factory=list)

    def log(self, **kw):
        self.steps.append(dict(kw))

    def to_dict(self) -> dict:
        return {
            "steps": self.steps,
            "initial": self.initial,
            "final": self.final,
            "singular_counts": self.singular_counts,
        }


def fully_faithful_pipeline(emb: Embedding) -> tuple[Embedding, PipelineReport]:
    """Refine until the tropicalization is injective with all weights one.

    Stage 0 covers the core, but only when the input has no coordinates or
    its certificate shows a core violation; then one `edge_ramp` per
    remaining finite edge and bare ray.  The result is certified once, and
    CertificateFailure carries the reasons of any violation left, so no
    uncertified embedding is returned.  A skeleton with no edges and no
    rays raises EmptyCoordinates.  The returned embedding is a new object
    that carries its certificate for `smoothing_pipeline`.
    """
    _check_skeleton(emb)
    out, report, rep = _fully_faithful(emb, is_fully_faithful(emb))
    out._certificate = rep
    return out, report


def _check_skeleton(emb: Embedding):
    if not emb.skeleton.finite.edges and not emb.skeleton.rays:
        raise EmptyCoordinates("skeleton has no edges and no rays to embed")


def _fully_faithful(
    emb: Embedding, rep0: FaithfulReport
) -> tuple[Embedding, PipelineReport, FaithfulReport]:
    """`fully_faithful_pipeline` from the input's certificate `rep0`: build,
    certify once, and return a new Embedding with its certificate."""
    report = PipelineReport()
    report.initial = {
        "fully_faithful": bool(rep0),
        "coordinates": len(emb.coords),
        "reasons": list(rep0.reasons),
    }
    if rep0:
        report.final = {"fully_faithful": True, "noop": True}
        return Embedding(emb.skeleton, emb.coords), report, rep0

    frames = Frames(emb.skeleton)
    fin = emb.skeleton.finite
    core_edges, core_vertices = designate_core(fin)
    emb = stage0(emb, rep0, core_edges, core_vertices, frames, report)

    finite_targets = [
        eid for eid in sorted(fin.edges) if eid not in core_edges
    ]
    ray_targets = sorted(
        rid
        for rid in emb.skeleton.rays
        if all(f.ray_profiles[rid].slope == 0 for f in emb.coords)
    )
    # All pillars are placed on the embedding the ramps start from: a ramp
    # only adds a coordinate, so images disjoint now stay disjoint.  The
    # ramps refine the skeleton alone; `assemble` transports each coordinate once.
    targets = finite_targets + ray_targets
    complement = _tree_complement(emb.skeleton.finite)
    psets = [select_pillars(emb.skeleton, frames, (emb, t), complement=complement) for t in targets]
    skel, adjoined = emb.skeleton, []
    for target, pset in zip(targets, psets):
        skel, f, slopes, zero, pole = edge_ramp(skel, target, pset, core_edges, core_vertices, frames)
        skel, record = adjoin(skel, f, f"f.{target}", slopes)
        adjoined.append(record)
        finite = target in finite_targets
        report.log(
            construction="finite-edge-ramp" if finite else "infinite-edge-ramp",
            target=target,
            coordinate=f"f.{target}",
            zero_at=repr(zero),
            **({"pole_at": repr(pole)} if finite else {}),
            unit_stretch_new_edges=True,
        )

    emb = assemble(skel, emb.coords, adjoined)
    rep = is_fully_faithful(emb)
    if not rep:
        raise CertificateFailure(f"final certificate failed: {rep.reasons}")
    report.final = {"fully_faithful": True, "coordinates": len(emb.coords)}
    return emb, report, rep


def _outgoing_direction(emb: Embedding, v: str, side_id: str):
    skel = emb.skeleton
    if side_id in skel.rays:
        return tuple(f.ray_profiles[side_id].slope for f in emb.coords)
    e = skel.finite.edges[side_id]
    if e.a == v:
        return tuple(f.edge_profiles[side_id].slope_at(Fraction(0), +1) for f in emb.coords)
    return tuple(-f.edge_profiles[side_id].slope_at(e.length, -1) for f in emb.coords)


def smoothing_pipeline(emb: Embedding) -> tuple[Embedding, PipelineReport]:
    """Refine a fully faithful embedding until the image curve is smooth.

    Singular image vertices are resolved one at a time; the count of
    singular vertices strictly decreases after every pass (violations of
    that invariant indicate a bug and raise MonotonicityViolation), so the
    loop makes at most as many passes as the input's image has singular
    vertices.  A skeleton with no edges and no rays raises
    EmptyCoordinates.

    The input's certificate is the one `fully_faithful_pipeline` attached
    to the very object it returned, if `emb` is that object; any other
    input, a copy of that output included, is certified afresh.  A fully
    faithful input whose image is already smooth is returned as is.
    """
    _check_skeleton(emb)
    rep = emb._certificate
    if rep is None:
        rep = is_fully_faithful(emb)
    if not rep:
        emb, report, rep = _fully_faithful(emb, rep)
    else:
        report = PipelineReport()
        report.initial = {"fully_faithful": True}
    frames = Frames(emb.skeleton)
    sm = check_smooth(rep.curve)
    report.singular_counts.append(len(sm.singular_vertices))
    pass_no = 0
    while not sm.smooth:
        if sm.heavy_edges:
            raise CertificateFailure(f"fully faithful image has heavy edges {sm.heavy_edges}")
        target = sm.singular_vertices[0]
        preimages = rep.emap.vertex_sources[target.vertex]
        if len(preimages) != 1:
            raise CertificateFailure(f"image vertex {target.vertex!r} has {len(preimages)} preimages")
        pt = next(iter(preimages))
        if not pt.is_vertex:
            # harmonic coordinates map a lone interior point to a smooth
            # two-valent vertex with directions +-d
            raise CertificateFailure(f"singular image vertex {target.vertex!r} lies inside edge {pt.edge!r}")
        v = pt.vertex
        skel = emb.skeleton
        sides = sorted(
            [eid for eid, e in skel.finite.edges.items() if v in (e.a, e.b)]
            + [rid for rid, r in skel.rays.items() if r.attach == v]
        )
        directions = {s: _outgoing_direction(emb, v, s) for s in sides}
        e0 = min(sides, key=lambda s: (directions[s], s))
        others = [s for s in sides if s != e0]
        others.sort(key=lambda s: (directions[s], s))
        side_specs = {s: _side_frame(skel, frames, v, s) for s in [e0] + others}
        adjoined = []
        for k, ek in enumerate(others, start=1):
            name = f"v{pass_no}.{k}"
            res = vertex_function(skel, v, side_specs[e0], side_specs[ek], frames)
            pset = select_pillars(res.skeleton, frames, forbidden=res.zones)
            skel, record = adjoin(res.skeleton, _apply_pillars(res.skeleton, res.function, pset), name)
            adjoined.append(record)
            report.log(
                construction="vertex-tent",
                target=v,
                sides=[e0, ek],
                coordinate=name,
            )
        emb = assemble(skel, emb.coords, adjoined)
        rep = is_fully_faithful(emb)
        if not rep:
            raise CertificateFailure(
                f"smoothing pass broke full faithfulness: {rep.reasons}"
            )
        sm = check_smooth(rep.curve)
        report.singular_counts.append(len(sm.singular_vertices))
        if report.singular_counts[-1] >= report.singular_counts[-2]:
            raise MonotonicityViolation(
                f"singular count went {report.singular_counts[-2]} -> "
                f"{report.singular_counts[-1]}"
            )
        pass_no += 1
    # rays cancel in |E| - |V| + 1: each adds one edge and one vertex
    genus = emb.skeleton.finite.betti_number()
    image_genus = len(rep.curve.edges) - len(rep.curve.vertices) + 1
    if image_genus != genus:
        raise CertificateFailure(
            f"smooth image has first Betti number {image_genus}, the skeleton {genus}"
        )
    report.final = {
        "smooth": True,
        "fully_faithful": True,
        "coordinates": len(emb.coords),
    }
    return emb, report


# -- the worked elliptic-curve example ------------------------------------------------------


def tate_demo(c=1) -> tuple[Embedding, TropicalCurve]:
    """Hexagon-with-spokes skeleton of a genus-one curve, embedded by the
    two witness coordinates of its canonical divisor pattern; tropicalizes
    to the symmetric honeycomb with nine rays."""
    c = rat(c)
    if c <= 0:
        raise NonpositiveLength(f"scale {c} would give edges of length {c / 2}")
    half = c / 2
    fin = build_graph(
        ["q1", "q2", "q3", "p4", "p5", "p6", "p1", "p2", "p3"],
        [
            ("a16", "q1", "p6", half),
            ("a62", "p6", "q2", half),
            ("a24", "q2", "p4", half),
            ("a43", "p4", "q3", half),
            ("a35", "q3", "p5", half),
            ("a51", "p5", "q1", half),
            ("s1", "q1", "p1", half),
            ("s2", "q2", "p2", half),
            ("s3", "q3", "p3", half),
        ],
    )
    skel = build_extended(
        fin,
        [
            ("r11", V("p1")),
            ("r12", V("p1")),
            ("r21", V("p2")),
            ("r22", V("p2")),
            ("r31", V("p3")),
            ("r32", V("p3")),
            ("r4", V("p4")),
            ("r5", V("p5")),
            ("r6", V("p6")),
        ],
    )
    d1 = make_divisor(fin, [(V("p1"), -1), (V("p3"), 1), (V("p4"), 1), (V("p6"), -1)])
    d2 = make_divisor(fin, [(V("p2"), -1), (V("p3"), 1), (V("p5"), 1), (V("p6"), -1)])
    f1 = construct_pl_with_divisor(fin, d1, V("q1"))
    f2 = construct_pl_with_divisor(fin, d2, V("q1"))
    slopes1 = {"r11": 1, "r12": 0, "r21": -1, "r22": 1, "r31": -1, "r32": 0,
               "r4": -1, "r5": 0, "r6": 1}
    slopes2 = {"r11": 1, "r12": -1, "r21": 0, "r22": 1, "r31": 0, "r32": -1,
               "r4": 0, "r5": -1, "r6": 1}
    emb = Embedding(skel, [f1.transport(skel, slopes1), f2.transport(skel, slopes2)])
    curve, _emap = tropicalize(emb)
    return emb, curve

