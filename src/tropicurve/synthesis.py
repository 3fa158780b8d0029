"""Constructive refinement of embeddings.

Two pipelines.  The first makes an arbitrary embedding fully faithful: a
bootstrap stage synthesizes coordinates that map the 2-edge-connected core
injectively with unit stretching, then every remaining finite edge and
every bare ray gets one coordinate from `edge_ramp`: a slope-one ramp
(divergent along a ray) corrected by pillar trapezoids on a spanning-tree
complement, placed by one `select_pillars` call per target.  The second
pipeline repairs singular image vertices: a vertex with adjacent edges
e0..en receives n tent coordinates with slopes +1 into ek and -1 into e0,
which project a neighborhood of the image vertex onto the coordinate-axes
fan and make it smooth.

All offsets allocated here are tracked in "root frames": the edge and ray
ids present when a pipeline starts, plus rays it attaches later.  The
graph's lineage, read backwards through `parent`, leads every current
id to its root frame, so bookkeeping stays consistent while the skeleton is
refined and nothing is registered as it grows.  Free offsets come from two
searches of `Frames`: `claim` for points at fixed gaps (ray attachments,
divisor pairs) and `bump` for trapezoid supports in free windows (pillars,
separating bumps).  Every bump coordinate (each side of a tent, a pillar, a
separating trapezoid) is one `divisors.trapezoid` in a root frame, and
every ramp (a stage-0 core ramp, an edge or ray ramp) is built by
`_corrected_witness`: the `is_principal` witness of a base divisor plus
the correction pairs on a spanning-tree complement that make it principal.
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
    RayProfile,
    construct_pl_with_divisor,
    cor34_certificate,
    divisor_of,
    is_principal,
    make_divisor,
    trapezoid,
)
from .errors import (
    CertificateFailure,
    EmptyCoordinates,
    EqualEdges,
    MonotonicityViolation,
    NoRoom,
    NotSeparated,
    PillarFailure,
    PillarSearchExhausted,
    Stage0Failure,
    UnknownEdge,
)
from .graphs import (
    CycleSpace,
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
    extend_embedding,
    frame_pieces,
    images_meet,
    is_fully_faithful,
    refine_embedding,
    tropicalize,
)

V = GraphPoint.at_vertex
P = GraphPoint.on_edge

# Search budgets: dyadic halvings per claimed offset, window halvings per
# bump, and batched stage-0 patch rounds.
CLAIM_DEPTH = 8
PILLAR_TRIES = 24
STAGE0_PATCHES = 48


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

    def fresh_near(self, skel: ExtendedGraph, cid: str, v: str) -> tuple[str, Fraction]:
        """A fresh root-frame point in the quarter of the current edge cid
        next to its endpoint v; blocks it."""
        root, slo, shi = self.root_range(skel, cid)
        quarter = (shi - slo) / 4
        lo = slo if skel.finite.edges[cid].a == v else shi - quarter
        return root, self.claim(root, lo, lo + quarter)

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


def select_pillars(
    emb: Embedding,
    frames: Frames,
    avoid_image_of: Optional[str] = None,
    forbidden: tuple[tuple[str, Fraction, Fraction], ...] = (),
) -> PillarSet:
    """Deterministic pillar placement for one target: a valid four-point
    tuple on every spanning-tree complement edge, its support clear of
    earlier supports and of the root-frame `forbidden` zones and, when
    `avoid_image_of` names a frame, with image disjoint from that frame's
    image: one `Frames.bump` per complement edge."""
    fin = emb.skeleton.finite
    tree = set(fin.canonical_spanning_tree())
    complement = tuple(eid for eid in sorted(fin.edges) if eid not in tree)
    tuples = []
    for cid in complement:
        root, slo, shi = frames.root_range(emb.skeleton, cid)

        def accept(offs):
            return avoid_image_of is None or not emb.coords or _images_disjoint(
                emb, (root, offs[0], offs[3]), (avoid_image_of, Fraction(0), None)
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


def _apply_pillars(emb: Embedding, base: PLFunction, pset: PillarSet) -> PLFunction:
    f = base
    for pts in pset.tuples:
        root, offs = pts[0].edge, [p.offset for p in pts]
        if not _fits_one_edge(emb.skeleton, root, offs):
            raise PillarFailure(f"pillar tuple {pts} no longer fits one edge")
        f = f + trapezoid(emb.skeleton, root, offs)
    return f


# -- anchors -----------------------------------------------------------------------------


def _current_pieces(skel: ExtendedGraph, frame: str) -> set[str]:
    return {cid for kind, cid, _lo, _hi in skel.segments_of(frame) if kind == "edge"}


def _fresh_vertex_on(
    emb: Embedding, frames: Frames, cid: str, near_vertex: str
) -> tuple[Embedding, str]:
    """Subdivide a fresh interior point close to `near_vertex` on a finite
    edge and return it as a vertex (safe for ray attachment: subdividing a
    finite edge does not create a ray endpoint)."""
    pt = P(*frames.fresh_near(emb.skeleton, cid, near_vertex))
    emb2 = refine_embedding(emb, [pt])
    return emb2, emb2.skeleton.canonical_point(pt).vertex


def _anchor_near(
    emb: Embedding,
    v: str,
    avoid_pieces: set[str],
    core_edges_current: set[str],
    frames: Frames,
) -> tuple[Embedding, str, Optional[str]]:
    """Zero-charge location serving v.

    Returns (embedding, anchor vertex, descend_ray): when v carries no ray
    yet the charge sits at v itself; otherwise it moves to a fresh interior
    vertex of a bridge edge at v, or rides down an existing ray at v (the
    zero shadow then sits at that ray's leaf)."""
    skel = emb.skeleton
    if v not in skel.attach_vertices():
        return emb, v, None
    fin = skel.finite
    for eid, _w in sorted(fin.adjacency[v]):
        if eid in avoid_pieces or eid in core_edges_current:
            continue
        emb2, va = _fresh_vertex_on(emb, frames, eid, v)
        return emb2, va, None
    for rid in sorted(skel.rays):
        if skel.rays[rid].attach == v:
            return emb, v, rid
    raise NoRoom(f"no anchor location available near {v!r}")


# -- edge functions ------------------------------------------------------------------------


def _core_current(skel: ExtendedGraph, core_edges: frozenset[str]) -> set[str]:
    out = set()
    for root in core_edges:
        out |= _current_pieces(skel, root)
    return out


def edge_ramp(
    emb: Embedding,
    frame: str,
    pillars: PillarSet,
    core_edges: frozenset[str],
    core_vertices: frozenset[str],
    frames: Frames,
) -> tuple[Embedding, PLFunction, GraphPoint, GraphPoint]:
    """Slope-one ramp along a non-core edge or a ray frame, plus pillar
    trapezoids: (embedding, function, zero, pole), value zero at the
    core-side end v.

    The zero charge sits at v, or at a fresh point near it when v already
    carries a ray, or rides down a ray at v to its leaf.  When the only ray
    at v is the frame's own, it moves to a fresh core point instead.  The
    pole charge sits at the far end w or a fresh point beyond it, or rides
    a ray at w to its leaf; a ray frame's far end is its own tail.

    The ramp is `_corrected_witness` of the base divisor (zero anchor) -
    (pole anchor), with slope +1 on the pole's ray and -1 on the zero's.
    When the two anchors are joined by bridges alone their cycle integrals
    vanish, so no correction pair is placed and the ramp is the plain
    witness of the base.
    """
    skel = emb.skeleton
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

    emb, va, descend_ray = _anchor_near(emb, v, pieces, core_cur, frames)
    skel = emb.skeleton
    end_ray, vb = None, w
    if w is None:
        end_ray = next(cid for kind, cid, _lo, _hi in skel.segments_of(frame) if kind == "ray")
        vb = skel.rays[end_ray].attach
    elif beyond := [eid for eid, _x in sorted(skel.finite.adjacency[w]) if eid not in pieces]:
        emb, vb = _fresh_vertex_on(emb, frames, beyond[0], w)
        skel = emb.skeleton
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
    # a None key in the slope map names no ray and is never read
    ramp = _with_ray_slopes(skel, _corrected_witness(emb, frames, base), {end_ray: 1, descend_ray: -1})
    f = _apply_pillars(emb, ramp.add_constant(-ramp.vertex_value(v)), pillars)
    if pillars.complement and descend_ray is None and end_ray is None:
        _check_cor34_shape(skel, f, base, pillars)
    pole = V(skel.rays[end_ray].leaf) if end_ray else V(vb)
    return emb, f, zero, pole


def _check_cor34_shape(skel, f, base: Divisor, pillars: PillarSet):
    """The assembled divisor must agree with the certified witness route,
    run on the current edges the pillar tuples lie on."""
    fin = skel.finite
    tuples = [[skel.canonical_point(p) for p in pts] for pts in pillars.tuples]
    terms = []
    for p1, p2, p3, p4 in tuples:
        terms += [(p1, 1), (p2, -1), (p3, -1), (p4, 1)]
    expected = base + make_divisor(skel, terms)
    got = divisor_of(f)
    if got != expected:
        raise CertificateFailure(f"edge function divisor mismatch: {got} != {expected}")
    ref = cor34_certificate(fin, base, [pts[0].edge for pts in tuples], tuples)
    if divisor_of(ref) != make_divisor(fin, expected.terms):
        raise CertificateFailure(f"certified witness divisor mismatch: {divisor_of(ref)}")


# -- vertex functions ------------------------------------------------------------------


@dataclass
class VertexFunctionResult:
    embedding: Embedding
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
    emb: Embedding, v: str, spec_neg: tuple, spec_pos: tuple, frames: Frames
) -> VertexFunctionResult:
    """Tent coordinate at v: slope +1 into the side of spec_pos, -1 into
    the side of spec_neg (both `_side_frame` specs), zero on all other
    sides, support inside the two sides, simple divisor of six points
    (three per side), value zero at v.

    A ray side is cut once, at distance 3r + p from v past the outermost
    point: the support stays finite, and the tail left attaches where the
    tent is zero, not at one of its divisor points.  The cut is blocked
    like the six offsets.  The support auto-shrinks around blocked offsets
    and raises NoRoom when no placement fits.  `zones` are the (root, min,
    max) spans of the six offsets per root frame, for pillars to keep out
    of.
    """
    if spec_neg[:3] == spec_pos[:3]:
        raise EqualEdges(f"tent needs two distinct sides at {v!r}")
    room = min(spec_neg[3], spec_pos[3])
    r = room / 4
    p = room / 4
    for _try in range(40):
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
        outer = emb.skeleton.canonical_point(P(root, v_off + direction * (2 * r + p)))
        if not outer.is_vertex and outer.edge in emb.skeleton.rays:
            cuts.append((root, v_off + direction * (3 * r + p)))
            frames.block_point(*cuts[-1])
    if cuts:
        emb = refine_embedding(emb, [P(root, x) for root, x in cuts])
    skel = emb.skeleton

    def one_sided(spec, sign: int) -> PLFunction:
        # slope `sign` out to distance r from v, plateau p, back to zero
        root, v_off, direction, _room = spec
        offs = sorted(v_off + direction * d for d in (0, r, r + p, 2 * r + p))
        return trapezoid(skel, root, offs, sign)

    tent = one_sided(spec_neg, -1) + one_sided(spec_pos, +1)
    d = divisor_of(tent)
    if d.coeff(V(v)) != 0 or len(d.terms) != 6 or any(abs(c) != 1 for _pt, c in d.terms):
        raise CertificateFailure(f"tent at {v!r} needs six simple points off the vertex: {d}")
    zones: dict[str, list[Fraction]] = {}
    for root, x in pts:
        zones.setdefault(root, []).append(x)
    return VertexFunctionResult(
        emb, tent, tuple((root, min(xs), max(xs)) for root, xs in sorted(zones.items()))
    )


# -- stage 0: bootstrap coordinates for the core ------------------------------------------


def _core_ramp(emb: Embedding, frames: Frames, root_e: str) -> PLFunction:
    """Corrected witness of (a) - (b) for fresh points a, b near the two
    ends of root_e; the spanning tree keeps the pieces of root_e, so no
    correction lands on that frame."""
    fin = emb.skeleton.finite
    length = fin.frame_length(root_e)
    a_off = frames.claim(root_e, Fraction(0), length / 4)
    b_off = frames.claim(root_e, length - length / 4, length)
    base = make_divisor(fin, [(P(root_e, a_off), 1), (P(root_e, b_off), -1)])
    return _corrected_witness(emb, frames, base, keep_in_tree=root_e)


def _corrected_witness(
    emb: Embedding, frames: Frames, base: Divisor, keep_in_tree: Optional[str] = None
) -> PLFunction:
    """The `is_principal` witness of `base` plus +-1 correction pairs on a
    spanning-tree complement that cancel its cycle obstruction; the tree
    preferentially contains the pieces of `keep_in_tree` so no correction
    lands on that frame.  A base with zero cycle integrals (two points
    joined by bridges alone) gets no pair and claims no offset.  The one
    constructor of every ramp, stage-0 core ramps and edge ramps alike.
    Raises CertificateFailure when the corrected divisor is not
    principal."""
    fin = emb.skeleton.finite
    refined = emb.skeleton
    for pt in base.support():
        if not pt.is_vertex:
            refined, _ = refined.subdivide_at(pt)
    model = refined.finite
    dm = make_divisor(model, base.terms)
    priority = []
    if keep_in_tree is not None:
        priority = sorted(cid for _kind, cid, _lo, _hi in model.segments_of(keep_in_tree))
    cs = CycleSpace(model, model.canonical_spanning_tree(first=priority))
    cycles = cs.cycles
    g = len(cycles)
    _chain, w = cs.integrals(dm.terms)
    # Allocation sites for cycle j: every current edge lying on cycle j and
    # on no other cycle (always includes the complement edge itself), with
    # the cycle's coefficient there.  Pairs on such edges contribute to the
    # j-th coordinate only, keeping the solve decoupled.  A pair needs only
    # its two endpoints fresh (its span may straddle other charges), so a
    # site of span S absorbs nearly S per pair, any number of pairs deep.
    sites: list[list[tuple[str, Fraction, Fraction, int]]] = []
    spans = []
    for j in range(g):
        own = []
        for eid in sorted(model.edges):
            cj = cycles[j].get(eid, 0)
            if cj == 0:
                continue
            if any(cycles[i].get(eid, 0) for i in range(g) if i != j):
                continue
            root, slo, shi = frames.root_range(refined, eid)
            own.append((root, slo, shi, cj))
        sites.append(own)
        spans.append(max(shi - slo for _r, slo, shi, _c in own))
    best = None
    for widen in (1, 2, 4):
        lower = [w[j] - widen * max(spans[j], Fraction(1)) * 4 for j in range(g)]
        upper = [w[j] + widen * max(spans[j], Fraction(1)) * 4 for j in range(g)]
        for k, shift in cs.lattice_points(lower, upper):
            d = [sj - wj for sj, wj in zip(shift, w)]
            cost = sum(
                -((-abs(dj)) // max(spans[j] / 2, Fraction(1, 10**6)))
                for j, dj in enumerate(d)
            )
            key = (cost, k)
            if best is None or key < best[0]:
                best = (key, d)
        if best is not None:
            break
    if best is None:
        raise Stage0Failure(f"no correction lattice point for base {base!r}")
    terms = list(base.terms)
    for own, dj in zip(sites, best[1]):
        rem = dj
        for _guard in range(96):
            if rem == 0:
                break
            site = max(own, key=lambda s: s[2] - s[1])
            root, slo, shi, cj = site
            chunk_mag = min(abs(rem), (shi - slo) * Fraction(3, 4))
            while True:
                try:
                    alpha = frames.claim(root, slo, shi, chunk_mag)
                    break
                except NoRoom:
                    if chunk_mag < (shi - slo) / 2**CLAIM_DEPTH:
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
    res = is_principal(fin, d)
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


def _separating_bump(
    emb: Embedding, frames: Frames, cid: str, lo: Fraction, hi: Optional[Fraction],
    around: Optional[Fraction] = None,
) -> Optional[PLFunction]:
    """A trapezoid on one current edge inside the piece [lo, hi] of the
    current edge cid: a `Frames.bump`, or with `around` one whose rise is
    centred on that offset of the free window holding it."""
    skel = emb.skeleton
    if cid in skel.rays:
        return None
    root, shift = frames.locate(skel, cid)
    glo = shift + lo
    ghi = shift + (hi if hi is not None else skel.finite.edges[cid].length)
    if around is None:
        offs = frames.bump(root, glo, ghi, lambda offs: _fits_one_edge(skel, root, offs))
        return None if offs is None else trapezoid(skel, root, offs)
    at = shift + around
    win = next(((a, b) for a, b in frames.windows(root, glo, ghi) if a < at < b), None)
    if win is None:
        return None
    q = min(at - win[0], win[1] - at) / 8
    offs = [at - q, at + q, at + 2 * q, at + 4 * q]
    if not _fits_one_edge(skel, root, offs):
        return None
    frames.block_interval(root, offs[0], offs[3])
    return trapezoid(skel, root, offs)


def _repair_step(
    emb: Embedding, frames: Frames, viol: Violation, name: str
) -> Optional[Embedding]:
    """Stage 0's fix for one core violation: a bump on one of its pieces or
    around one of its interior points; None when neither fits."""
    fin = emb.skeleton.finite
    sites = [(src, lo, hi, None) for src, lo, hi in viol.pieces] + [
        (pt.edge, Fraction(0), fin.edges[pt.edge].length, pt.offset)
        for pt in viol.points
        if not pt.is_vertex and pt.edge in fin.edges
    ]
    for cid, lo, hi, around in sites:
        bump = _separating_bump(emb, frames, cid, lo, hi, around)
        if bump is not None:
            return extend_embedding(emb, bump, name)
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
    core_edges: frozenset[str],
    core_vertices: frozenset[str],
    frames: Frames,
    report: "PipelineReport",
) -> Embedding:
    """Bootstrap coordinates making the core injective with unit stretch.

    Tent coordinates cover every core vertex neighborhood, the nonzero
    slopes must then cover every core edge (`_check_core_cover`), one
    corrected-ramp witness per core edge separates the vertex values, and a
    batched patch loop resolves whatever exact violations remain (within
    budget, else Stage0Failure).
    """
    if not core_edges:
        return emb
    tents = 0

    # (1) tents at core vertices
    fin0 = emb.skeleton.finite
    tent_vertices = sorted(
        {fin0.edges[e].a for e in core_edges} | {fin0.edges[e].b for e in core_edges}
    )
    for v in tent_vertices:
        sides = _core_sides_at(emb.skeleton, core_edges, v)
        if len(sides) < 2:
            continue
        e0 = sides[0]
        for ek in sides[1:]:
            skel = emb.skeleton
            res = vertex_function(
                emb, v, _side_frame(skel, frames, v, e0), _side_frame(skel, frames, v, ek), frames
            )
            tents += 1
            name = f"gt{tents}"
            emb = extend_embedding(res.embedding, res.function, name)
            report.log(construction="core-tent", target=v, coordinate=name)
            sides = _core_sides_at(emb.skeleton, core_edges, v)
            e0 = sides[0]

    # (2) no piece of a core edge may be left constant under every coordinate
    for root in sorted(core_edges):
        _check_core_cover(emb, root)

    # (3) one corrected-ramp witness per core edge for vertex separation
    for idx, root_e in enumerate(sorted(core_edges)):
        ramp = _with_ray_slopes(emb.skeleton, _core_ramp(emb, frames, root_e), {})
        emb = extend_embedding(emb, ramp, f"gs{idx}")
        report.log(construction="core-ramp", target=root_e, coordinate=f"gs{idx}")

    # (4) batched patches for residual core violations
    for patch_round in range(STAGE0_PATCHES):
        core_pieces = _core_current(emb.skeleton, core_edges)
        core_viols = [
            v
            for v in is_fully_faithful(emb).violations
            if _core_violation(emb, v, core_pieces, core_vertices)
        ]
        if not core_viols:
            return emb
        progressed = False
        for viol in core_viols:
            emb2 = _repair_step(emb, frames, viol, f"gp{patch_round}.{len(emb.coords)}")
            if emb2 is not None:
                report.log(construction="core-patch", target=viol.label)
                emb = emb2
                progressed = True
        if not progressed:
            raise Stage0Failure(f"no remedy for core violations {core_viols[:2]}")
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

    Stage 0 covers the core, then one `edge_ramp` per remaining finite edge
    and bare ray; the result is certified once, and CertificateFailure
    carries the reasons of any violation left, so no uncertified embedding
    is returned.  A skeleton with no edges and no rays raises
    EmptyCoordinates.  The returned embedding is a new object that carries
    its certificate for `smoothing_pipeline`.
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
    emb = stage0(emb, core_edges, core_vertices, frames, report)

    finite_targets = [
        eid for eid in sorted(fin.edges) if eid not in core_edges
    ]
    ray_targets = sorted(
        rid
        for rid in emb.skeleton.rays
        if all(f.ray_profiles[rid].slope == 0 for f in emb.coords)
    )
    # All pillars are placed on the embedding the ramps start from: a ramp
    # only adds a coordinate, so images disjoint now stay disjoint.
    targets = finite_targets + ray_targets
    psets = [select_pillars(emb, frames, avoid_image_of=t) for t in targets]
    for target, pset in zip(targets, psets):
        emb, f, zero, pole = edge_ramp(emb, target, pset, core_edges, core_vertices, frames)
        emb = extend_embedding(emb, f, f"f.{target}")
        finite = target in finite_targets
        report.log(
            construction="finite-edge-ramp" if finite else "infinite-edge-ramp",
            target=target,
            coordinate=f"f.{target}",
            zero_at=repr(zero),
            **({"pole_at": repr(pole)} if finite else {}),
            unit_stretch_new_edges=True,
        )

    rep = is_fully_faithful(emb)
    if not rep:
        raise CertificateFailure(f"final certificate failed: {rep.reasons}")
    report.final = {"fully_faithful": True, "coordinates": len(emb.coords)}
    return Embedding(emb.skeleton, emb.coords), report, rep


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
    that invariant indicate a bug and raise MonotonicityViolation).  A
    skeleton with no edges and no rays raises EmptyCoordinates.

    The input's certificate is the one `fully_faithful_pipeline` attached
    to the very object it returned, if `emb` is that object; any other
    input, a copy of that output included, is certified afresh.
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
    guard = len(sm.singular_vertices) + 1
    pass_no = 0
    while not sm.smooth and pass_no < guard:
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
        side_specs = {
            s: _side_frame(emb.skeleton, frames, v, s) for s in [e0] + others
        }
        for k, ek in enumerate(others, start=1):
            name = f"v{pass_no}.{k}"
            res = vertex_function(emb, v, side_specs[e0], side_specs[ek], frames)
            pset = select_pillars(res.embedding, frames, forbidden=res.zones)
            f = _apply_pillars(res.embedding, res.function, pset)
            emb = extend_embedding(res.embedding, f, name)
            report.log(
                construction="vertex-tent",
                target=v,
                sides=[e0, ek],
                coordinate=name,
            )
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
    if not sm.smooth:
        raise CertificateFailure("smoothing budget exhausted")
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
    return Embedding(emb.skeleton, emb.coords), report


# -- the worked elliptic-curve example ------------------------------------------------------


def tate_demo(c=1) -> tuple[Embedding, TropicalCurve]:
    """Hexagon-with-spokes skeleton of a genus-one curve, embedded by the
    two witness coordinates of its canonical divisor pattern; tropicalizes
    to the symmetric honeycomb with nine rays."""
    c = rat(c)
    if c <= 0:
        raise NoRoom(f"scale parameter must be positive, got {c}")
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
    g1 = _with_ray_slopes(skel, f1, slopes1)
    g2 = _with_ray_slopes(skel, f2, slopes2)
    emb = Embedding(skel, [g1, g2])
    curve, _emap = tropicalize(emb)
    return emb, curve


def _with_ray_slopes(skel: ExtendedGraph, f_fin: PLFunction, slopes) -> PLFunction:
    rays = {
        rid: RayProfile(f_fin.vertex_value(r.attach), slopes.get(rid, 0))
        for rid, r in skel.rays.items()
    }
    return PLFunction(skel, f_fin.edge_profiles, rays)
