import hashlib
import random
from fractions import Fraction

import pytest

from tropicurve.complexes import check_smooth
from tropicurve.divisors import (
    EdgeProfile,
    PLFunction,
    RayProfile,
    divisor_of,
    is_principal,
    make_divisor,
    trapezoid,
)
from tropicurve import graphs, synthesis, tropicalize as tropicalize_module
from tropicurve.errors import (
    CertificateFailure,
    EmptyCoordinates,
    EqualEdges,
    NoRoom,
    PillarSearchExhausted,
    Stage0Failure,
    UnknownEdge,
)
from tropicurve.graphs import CycleSpace, GraphPoint, MetricGraph, build_extended, build_graph
from tropicurve.rationals import ExtRational
from tropicurve.synthesis import (
    CLAIM_DEPTH,
    PILLAR_TRIES,
    Frames,
    PipelineReport,
    _core_ramp,
    _corrected_witness,
    _repair_step,
    _root_slope_cover,
    _separating_bump,
    _side_frame,
    designate_core,
    edge_ramp,
    fully_faithful_pipeline,
    select_pillars,
    smoothing_pipeline,
    stage0,
    tate_demo,
    vertex_function,
)
from tropicurve.tropicalize import (
    Embedding,
    FaithfulReport,
    Violation,
    extend_embedding,
    is_fully_faithful,
    tropicalize,
)

from randgen import negated, random_graph
from test_tropicalize import (
    TROPICALIZATION_DIGESTS,
    contracted_embedding,
    line_embedding,
    tate_leaf,
    tropicalization_digest,
)

V = GraphPoint.at_vertex
P = GraphPoint.on_edge


def theta():
    return build_graph(
        ["u", "v"], [("e1", "u", "v", 1), ("e2", "u", "v", 2), ("e3", "u", "v", 3)]
    )


def dumbbell():
    return build_graph(
        ["u", "v"], [("l0", "u", "u", 2), ("bar", "u", "v", 1), ("l1", "v", "v", 3)]
    )


def bare_skeleton(graph):
    """A ray at every leaf and no coordinates."""
    leaves = [v for v in graph.vertices if graph.valence(v) == 1]
    return Embedding(build_extended(graph, [(f"r{v}", V(v)) for v in leaves]), [])


def fig1_star(directions):
    """One vertex with a ray in each primitive direction of the plane."""
    skel = build_extended(build_graph(["o"], []), [(f"r{k}", V("o")) for k in range(len(directions))])
    coords = [
        PLFunction(skel, {}, {f"r{k}": RayProfile(Fraction(0), d[axis]) for k, d in enumerate(directions)})
        for axis in (0, 1)
    ]
    return Embedding(skel, coords)


def sweep_genus(seed):
    return random_graph(random.Random(seed)).betti_number()


TREE_SEEDS = [s for s in range(40) if sweep_genus(s) == 0]


def embedding_fields(emb):
    skel = emb.skeleton
    return (
        skel.finite.vertices,
        sorted((e.id, e.a, e.b, e.length) for e in skel.finite.edges.values()),
        sorted((r.id, r.attach, r.leaf) for r in skel.rays.values()),
        [(sorted(f.edge_profiles.items()), sorted(f.ray_profiles.items())) for f in emb.coords],
    )


def output_digest(emb, report):
    """First 16 hex digits of the sha256 of a pipeline's whole output: the
    skeleton ids, every coordinate's profiles and the report."""
    text = repr((*embedding_fields(emb), report.to_dict()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def embedding_digest(emb):
    """`output_digest` of the skeleton and coordinates alone."""
    return hashlib.sha256(repr(embedding_fields(emb)).encode()).hexdigest()[:16]


# Output digests of the pipelines: a change to anything they build, down
# to one offset or one report entry, shows here.
TREE_DIGESTS = {
    2: "812eec3782cfd041", 5: "2522464a2e017ec6", 6: "461d7c27b5f0dfa3",
    10: "3291cfe43527730f", 14: "166c372121d7674d", 17: "0f91e65e8a40d171",
    28: "9646c2470556ebf7", 29: "64cf64a32334e5e0", 30: "902d47ce3f31b0ff",
    31: "908a0aa66e97805d", 32: "812eec3782cfd041", 33: "2664f5b69a022ab7",
    34: "5687ba3f78ef9df3", 35: "8beeb4be94cfd740",
}
TATE_LEAF_DIGESTS = ("5d497d62c1f989d8", "35b10673ac8097ad")  # both pipelines
TATE_ANCHOR_DIGESTS = ("7b586167f1cddbcb", "771ab0f08c6f4e7e")  # plus a ray r0 at p4
TATE_RAY_SIDE_DIGESTS = ("19626212a8296079", "fedeaebd39bea6b4")  # plus a ray r0 at p5
# Skeleton and coordinates of both outputs after an explicit `stage0` call
# on the tate leaf: what the pipelines built while stage 0 ran on every
# input with a core.
STAGE0_TATE_LEAF_DIGESTS = {
    "": ("59864e720bf56b89", "59864e720bf56b89"),
    "r0 at p4": ("8d5ec309d4b080da", "8d5ec309d4b080da"),
    "r0 at p5": ("3c5494613b5ffd2d", "b8e768fe50439636"),
}
STAR_DIGESTS = {"middle": "1120dc2e0fbc8d95", "right": "f6dde57e3f6cb465"}


@pytest.mark.parametrize("graph, keep", [(theta(), "e1"), (dumbbell(), "l0.0")])
def test_aj_corrections_are_principal_and_spare_the_kept_frame(graph, keep):
    emb = Embedding(build_extended(graph, []), [])
    d = divisor_of(_core_ramp(emb.skeleton, Frames(emb.skeleton), keep))
    assert is_principal(graph, d).principal
    # No frame is kept out of the search.  No correction lands on the kept
    # frame here because of these shapes: on the theta e1 lies on both
    # fundamental cycles, so it is no correction site; on the dumbbell the
    # pieces of l0.0 are shorter than l0.1, the site taken.
    on_kept = [(pt, c) for pt, c in d.terms if not pt.is_vertex and pt.edge == keep]
    assert sorted(c for _pt, c in on_kept) == [-1, 1]  # only the two base points
    assert len(d.terms) > 2  # the base pair alone is not principal


def tent_on_a_subdivided_edge_and_a_ray():
    g = build_graph(["v", "w"], [("e", "v", "w", 4)])
    emb = Embedding(build_extended(g, [("r", V("v"))]), [])
    frames = Frames(emb.skeleton)
    skel = emb.skeleton.subdivide_many([P("e", 2)])  # the root frame "e" is now two edges
    sides = [_side_frame(skel, frames, "v", s) for s in ("e.L", "r")]
    return vertex_function(skel, "v", *sides, frames), frames


def test_tent_on_a_subdivided_edge_and_a_ray():
    res, _frames = tent_on_a_subdivided_edge_and_a_ray()
    d = divisor_of(res.function)
    assert len(d.terms) == 6 and all(abs(c) == 1 for _pt, c in d.terms)
    assert d.coeff(V("v")) == 0
    assert res.function.value(V("v")) == 0


def test_tent_zones_span_its_six_offsets():
    res, frames = tent_on_a_subdivided_edge_and_a_ray()
    blocked = {root: sorted(offs) for root, offs in frames.points.items()}
    assert sorted(blocked) == ["e", "r"]  # the tent blocked its offsets only
    assert blocked["r"].pop() == 1  # and the cut of the ray side, at 3r + p for r = p = 1/4
    assert [len(offs) for offs in blocked.values()] == [3, 3]
    assert res.zones == tuple((root, offs[0], offs[-1]) for root, offs in sorted(blocked.items()))


def test_a_lone_tent_on_a_ray_side_is_adjoined():
    """The ray side is cut once, past the tent's outermost point, so the
    tail left attaches where the tent is zero, off its divisor."""
    g = build_graph(["v", "w"], [("e", "v", "w", 4)])
    emb = Embedding(build_extended(g, [("r", V("v"))]), [])
    frames = Frames(emb.skeleton)
    sides = [_side_frame(emb.skeleton, frames, "v", s) for s in ("e", "r")]
    res = vertex_function(emb.skeleton, "v", *sides, frames)
    skel = res.skeleton
    assert sorted(skel.rays) == ["r.tail"]
    attach = V(skel.rays["r.tail"].attach)
    assert skel.canonical_point(P("r", 1)) == attach
    assert res.function.value(attach) == 0 and attach not in divisor_of(res.function).support()
    assert len(extend_embedding(Embedding(skel, []), res.function, "t").coords) == 1


def test_vertex_function_refuses_equal_sides_and_a_blocked_side():
    g = build_graph(["v", "w"], [("e", "v", "w", 4)])
    emb = Embedding(build_extended(g, [("r", V("v"))]), [])
    frames = Frames(emb.skeleton)
    edge, ray = (_side_frame(emb.skeleton, frames, "v", s) for s in ("e", "r"))
    with pytest.raises(EqualEdges):
        vertex_function(emb.skeleton, "v", edge, edge, frames)
    frames.block_interval("e", 0, 4)
    with pytest.raises(NoRoom):
        vertex_function(emb.skeleton, "v", edge, ray, frames)


def test_side_frame_refuses_a_side_away_from_the_vertex():
    g = build_graph(["u", "v", "w"], [("e", "u", "v", 1), ("f", "v", "w", 1)])
    skel = build_extended(g, [("r", V("u"))])
    for v, side in (("v", "r"), ("u", "f")):
        with pytest.raises(UnknownEdge):
            _side_frame(skel, Frames(skel), v, side)


def test_claim_skips_blocked_points_and_intervals():
    frames = Frames(build_extended(theta(), []))
    frames.block_point("e1", Fraction(1, 2))
    frames.block_interval("e1", Fraction(1, 8), Fraction(1, 4))
    assert frames.claim("e1", 0, 1) == Fraction(3, 4)
    assert not frames.clear_point("e1", Fraction(3, 4))
    # with a gap of 1/2 on (0, 2) the candidates are a = 3/4, 3/8, 9/8, ...
    frames.block_point("e2", Fraction(5, 4))
    assert frames.claim("e2", 0, 2, Fraction(1, 2)) == Fraction(3, 8)
    assert not frames.clear_point("e2", Fraction(3, 8))
    assert not frames.clear_point("e2", Fraction(7, 8))
    for lo, hi, gaps in ((1, 1, ()), (0, 1, (1,)), (0, 1, (2,))):
        with pytest.raises(NoRoom):
            frames.claim("e3", lo, hi, *gaps)
    frames.block_interval("e3", 0, 3)
    with pytest.raises(NoRoom):
        frames.claim("e3", 0, 3)


def test_bump_honours_avoid_and_halves_until_accepted():
    frames = Frames(build_extended(theta(), []))
    avoid = (("e2", 0, 1), ("e1", 1, 2))  # the e1 zone is another frame's
    offs = frames.bump("e2", 0, 2, lambda offs: True, avoid)
    assert offs == [Fraction(9, 8), Fraction(5, 4), Fraction(13, 8), Fraction(7, 4)]
    assert frames.intervals == {"e2": [(Fraction(9, 8), Fraction(7, 4))]}
    seen = []

    def narrow(offs):
        seen.append(offs)
        return offs[3] <= Fraction(1, 2)

    offs = frames.bump("e3", 0, 2, narrow)
    assert [o[3] for o in seen] == [Fraction(3, 2), Fraction(3, 4), Fraction(3, 8)]
    assert offs == [Fraction(1, 16), Fraction(1, 8), Fraction(5, 16), Fraction(3, 8)]
    seen.clear()
    assert frames.bump("e1", 0, 1, lambda offs: seen.append(offs)) is None
    assert len(seen) == PILLAR_TRIES
    assert "e1" not in frames.intervals


def test_select_pillars_keep_out_of_forbidden_zones():
    emb = Embedding(build_extended(theta(), []), [])
    lengths = {"e1": 1, "e2": 2, "e3": 3}
    forbidden = tuple((eid, Fraction(length, 4), Fraction(length)) for eid, length in lengths.items())
    pset = select_pillars(emb.skeleton, Frames(emb.skeleton), forbidden=forbidden)
    assert len(pset.complement) == 2
    for pts in pset.tuples:
        root = pts[0].edge
        assert [pt.offset for pt in pts] == [Fraction(lengths[root], 32) * k for k in (1, 2, 5, 6)]
    free = select_pillars(emb.skeleton, Frames(emb.skeleton))
    assert all(pts[3].offset > Fraction(lengths[pts[0].edge], 4) for pts in free.tuples)


def test_select_pillars_refuses_when_every_complement_edge_is_blocked():
    emb = Embedding(build_extended(theta(), []), [])
    frames = Frames(emb.skeleton)
    frames.block_interval("e2", 0, 2)  # the spanning tree is e1
    frames.block_interval("e3", 0, 3)
    with pytest.raises(PillarSearchExhausted):
        select_pillars(emb.skeleton, frames)


def scanned_root_range(skel, roots, cid):
    """Root frame and offsets of a current id, by scanning the current
    pieces of every root frame in turn."""
    for root in roots:
        for _kind, sub, lo, hi in skel.segments_of(root):
            if sub == cid:
                return root, lo, hi
    raise UnknownEdge(cid)


def test_root_frames_survive_subdivision():
    emb = Embedding(build_extended(dumbbell(), [("r", V("v"))]), [])
    frames = Frames(emb.skeleton)
    start_ids = sorted(emb.skeleton.finite.edges) + sorted(emb.skeleton.rays)
    emb = extend_embedding(emb, trapezoid(emb.skeleton, "l1.0", ["1/4", "1/2", 1, "5/4"]), "t")
    added = sorted(set(emb.skeleton.rays) - set(start_ids))
    assert added == [f"t.{k}" for k in range(4)]
    assert all(emb.skeleton.parent(rid) is None for rid in added)
    # twice each: a start edge, a loop half, a start ray's stub and tail,
    # and a ray attached after the frames were made
    skel = emb.skeleton.subdivide_many(
        [P("bar", Fraction(1, 4)), P("bar", Fraction(3, 4)), P("l0.0", Fraction(1, 2)),
         P("l0.0", Fraction(1, 4)), P("r", 2), P("r", 1), P("r", 3), P("t.0", 1), P("t.0", 2)],
    )
    roots = start_ids + added
    current = sorted(skel.finite.edges) + sorted(skel.rays)
    assert {"bar.R.L", "l0.0.L.R", "r.stub.L", "r.tail.stub", "t.0.tail.stub"} <= set(current)
    for cid in current:
        root, lo, hi = scanned_root_range(skel, roots, cid)
        assert frames.root_range(skel, cid) == (root, lo, hi)
        assert frames.locate(skel, cid) == (root, lo)
    for retired in ("bar", "l0.0", "l0", "r", "r.tail", "t.0", "nowhere"):
        with pytest.raises(UnknownEdge):
            frames.locate(skel, retired)


def tree_path_length(tree, va, vb):
    """Length of the path from va to vb in a tree."""
    dist = {va: 0}
    stack = [va]
    while stack:
        v = stack.pop()
        for eid, w in tree.adjacency[v]:
            if w not in dist:
                dist[w] = dist[v] + tree.edges[eid].length
                stack.append(w)
    return dist[vb]


def assert_plain_witness(emb, va, vb):
    """`_corrected_witness` of (va) - (vb) for two vertices joined by
    bridges alone: the witness of that divisor, with no correction pair and
    no claimed offset.  Returns the rise from va to vb."""
    fin = emb.skeleton.finite
    frames = Frames(emb.skeleton)
    base = make_divisor(fin, [(V(va), 1), (V(vb), -1)])
    f = _corrected_witness(emb.skeleton, frames, base)
    assert divisor_of(f) == base
    assert (frames.points, frames.intervals) == ({}, {})
    return f.vertex_value(vb) - f.vertex_value(va)


@pytest.mark.parametrize("seed", TREE_SEEDS)
def test_slope_one_ramp_is_the_witness_of_two_vertices(seed):
    """The ramp `edge_ramp` builds between two vertices of a tree rises
    with slope one along the path joining them."""
    emb = bare_skeleton(random_graph(random.Random(seed)))
    fin = emb.skeleton.finite
    va, vb = random.Random(seed).sample(list(fin.vertices), 2)
    assert assert_plain_witness(emb, va, vb) == tree_path_length(fin, va, vb)


def test_an_edge_ramp_builds_one_cycle_space_for_its_search_and_check(monkeypatch):
    """On a tree, both ends of an edge ramp's base are vertices, so its
    lattice search and its final `is_principal` read one graph, and one
    cycle space cached on it: each ramp of the first finite targets builds
    exactly one, on the finite part it returns."""
    built, checked = [], []
    init, check = CycleSpace.__init__, synthesis.is_principal

    def counted(cs, graph, tree=None):
        built.append(graph)
        init(cs, graph, tree)

    monkeypatch.setattr(CycleSpace, "__init__", counted)
    monkeypatch.setattr(synthesis, "is_principal", lambda graph, *a: checked.append(graph) or check(graph, *a))
    emb = bare_skeleton(random_graph(random.Random(TREE_SEEDS[0])))
    core_edges, core_vertices = designate_core(emb.skeleton.finite)
    targets = sorted(emb.skeleton.finite.edges)[:3]
    for target in targets:
        frames = Frames(emb.skeleton)
        pset = select_pillars(emb.skeleton, frames, (emb, target))
        built.clear()
        checked.clear()
        skel, f, *_ = edge_ramp(emb.skeleton, target, pset, core_edges, core_vertices, frames)
        assert built == checked == [skel.finite]
        assert divisor_of(f).degree() == 0


def test_corrected_witness_of_a_bridge_joined_pair_claims_nothing():
    # genus 2: the bridge's ends have zero cycle integrals, so k = 0 is taken
    emb = Embedding(build_extended(dumbbell(), [("r", V("v"))]), [])
    assert assert_plain_witness(emb, "u", "v") == 1


def test_a_blocked_site_halves_the_correction_pair():
    """On a circle of two edges of length 2, (u) - (v) has cycle integral
    2, and the site is e1, the first of two equal private edges.  Unblocked,
    its pairs take gaps 3/2 and 1/2.  With every dyadic offset for a gap of
    3/2 blocked, `claim` raises NoRoom, the gap halves to 3/4, and a second
    pair takes the 5/4 left."""
    graph = build_graph(["u", "v"], [("e1", "u", "v", 2), ("e2", "u", "v", 2)])
    skel = build_extended(graph, [])
    base = make_divisor(graph, [(V("u"), 1), (V("v"), -1)])
    gap = Fraction(3, 2)
    runs = []
    for blocked in (False, True):
        frames = Frames(skel)
        for level in range(CLAIM_DEPTH if blocked else 0):
            for num in range(1, 2 ** (level + 1), 2):
                frames.block_point("e1", (2 - gap) * Fraction(num, 2 ** (level + 1)))
        claims, claim = [], frames.claim
        frames.claim = lambda root, lo, hi, *gaps: claims.append(gaps) or claim(root, lo, hi, *gaps)
        runs.append((claims, divisor_of(_corrected_witness(skel, frames, base))))
    (free, _d), (halved, d) = runs
    assert free == [(gap,), (Fraction(1, 2),)]
    assert halved == [(gap,), (gap / 2,), (Fraction(5, 4),)]
    pairs = [(Fraction(9, 16), -1), (Fraction(5, 8), -1), (Fraction(11, 8), 1), (Fraction(29, 16), 1)]
    expected = make_divisor(graph, list(base.terms) + [(P("e1", off), c) for off, c in pairs])
    assert d == expected and is_principal(graph, expected).principal


def stripped_core(fin):
    """The 2-core by stripping the least vertex of valence at most one, one
    at a time, with every edge at it; the least vertex for a tree."""
    edges = set(fin.edges)
    valence = {v: fin.valence(v) for v in fin.vertices}
    alive = set(fin.vertices)
    while leaves := sorted(v for v in alive if valence[v] <= 1):
        alive.discard(leaves[0])
        for eid in sorted(edges):
            e = fin.edges[eid]
            if leaves[0] in (e.a, e.b):
                edges.discard(eid)
                valence[e.a] -= 1
                valence[e.b] -= 1
    return frozenset(edges), frozenset(alive or fin.vertices[:1])


def test_designate_core_equals_leaf_stripping():
    pendant = build_graph(
        ["a", "b", "c", "d", "x"],
        [("e0", "a", "b", 1), ("e1", "b", "c", 1), ("e2", "c", "a", 1), ("e3", "c", "d", 2), ("e4", "d", "x", 1)],
    )
    hand_made = {
        "vertex": build_graph(["o"], []),
        "edge": build_graph(["a", "b"], [("e", "a", "b", 1)]),
        "dumbbell": dumbbell(),
        "multi-edge": build_graph(
            ["u", "v", "w"], [("e1", "u", "v", 1), ("e2", "u", "v", 2), ("e3", "v", "w", 1), ("e4", "v", "w", 1)]
        ),
        "pendant": pendant,
    }
    graphs = list(hand_made.values()) + [random_graph(random.Random(seed)) for seed in range(200)]
    for fin in graphs:
        assert designate_core(fin) == stripped_core(fin)
    assert designate_core(hand_made["vertex"]) == (frozenset(), frozenset({"o"}))
    assert designate_core(hand_made["edge"]) == (frozenset(), frozenset({"a"}))
    assert designate_core(pendant) == (frozenset({"e0", "e1", "e2"}), frozenset({"a", "b", "c"}))
    assert designate_core(hand_made["dumbbell"]) == (frozenset(dumbbell().edges), frozenset(dumbbell().vertices))
    assert sum(not core[0] for core in map(designate_core, graphs)) > 20  # trees are drawn too


# `_separating_bump` runs on no benchmark input; this pin is its only check.
REPAIRED_REASONS = (
    "piece of 'e2.L' at [0, 1/8] is contracted",
    "piece of 'e2.R.R.L' at [0, 3/8] is contracted",
    "piece of 'e2.R.R.R.R' at [0, 1/4] is contracted",
    "image edge 's2' is covered by 2 pieces",
    "image edge 's3' is covered by 2 pieces",
    "image edge 's5' is covered by 2 pieces",
    "image edge 's2' has weight 2",
    "image edge 's3' has weight 2",
    "image edge 's5' has weight 2",
    "image vertex 't2' has 2 skeleton preimages",
    "image vertex 't3' has 3 skeleton preimages",
    "image vertex 't4' has 2 skeleton preimages",
    "image vertex 't5' has 2 skeleton preimages",
)


def test_repair_step_bumps_a_contracted_piece():
    emb = contracted_embedding()
    viol = is_fully_faithful(emb).violations[0]
    assert viol.kind == "contracted"
    fixed = extend_embedding(emb, _repair_step(emb.skeleton, Frames(emb.skeleton), viol), "r0")
    assert len(fixed.coords) == 2
    assert is_fully_faithful(fixed).reasons == REPAIRED_REASONS


def test_separating_bump_centres_its_rise_on_the_colliding_point():
    emb = line_embedding()  # one edge "e" of length 2
    frames = Frames(emb.skeleton)
    frames.block_point("e", Fraction(3, 4))
    f = _separating_bump(emb.skeleton, frames, "e", Fraction(0), Fraction(2), around=Fraction(1, 2))
    q = Fraction(1, 32)  # an eighth of the way from 1/2 to the free window's end at 3/4
    offs = [Fraction(1, 2) + k * q for k in (-1, 1, 2, 4)]
    assert divisor_of(f) == divisor_of(trapezoid(emb.skeleton, "e", offs))
    assert frames.intervals == {"e": [(offs[0], offs[3])]}
    assert _separating_bump(emb.skeleton, frames, "e", Fraction(0), Fraction(2), around=Fraction(3, 4)) is None


def test_repair_step_has_no_remedy_for_colliding_ray_leaves():
    emb = contracted_embedding()
    frames = Frames(emb.skeleton)
    fixed = extend_embedding(emb, _repair_step(emb.skeleton, frames, is_fully_faithful(emb).violations[0]), "r0")
    viol = next(v for v in is_fully_faithful(fixed).violations if v.at == "t2")
    assert viol.kind == "preimages" and len(viol.points) == 2
    assert all(fixed.skeleton.is_infinite_vertex(pt.vertex) for pt in viol.points)
    assert _repair_step(fixed.skeleton, frames, viol) is None


def test_sweep_has_fourteen_trees():
    assert len(TREE_SEEDS) == 14


def assert_smooth_output(out, report):
    assert bool(is_fully_faithful(out))
    assert check_smooth(tropicalize(out)[0]).smooth
    counts = report.singular_counts
    assert all(a > b for a, b in zip(counts, counts[1:]))


@pytest.mark.parametrize("seed", TREE_SEEDS)
def test_smoothing_certifies_seeded_trees(seed):
    out, report = smoothing_pipeline(bare_skeleton(random_graph(random.Random(seed))))
    assert_smooth_output(out, report)
    assert output_digest(out, report) == TREE_DIGESTS[seed]


# Without rays a leaf carries no charge yet, so a ramp's pole sits on the
# leaf itself.
RAYLESS_TREE_DIGESTS = {2: "8df9334f7442850d", 5: "51c250385f4f46b6"}


@pytest.mark.parametrize("seed", sorted(RAYLESS_TREE_DIGESTS))
def test_smoothing_certifies_seeded_trees_without_rays(seed):
    out, report = smoothing_pipeline(Embedding(build_extended(random_graph(random.Random(seed)), []), []))
    assert_smooth_output(out, report)
    assert output_digest(out, report) == RAYLESS_TREE_DIGESTS[seed]


def counted_tropicalizations(monkeypatch) -> list:
    """Record every call of `tropicalize` from here on."""
    calls = []

    def counted(emb):
        calls.append(emb)
        return tropicalize(emb)

    monkeypatch.setattr(tropicalize_module, "tropicalize", counted)
    monkeypatch.setattr(synthesis, "tropicalize", counted)
    return calls


@pytest.fixture(scope="module")
def tate_leaf_outputs():
    """Output and report of each pipeline, the second run on the first's
    output, and the number of tropicalizations the two runs made."""
    emb = tate_leaf(3, "p5", Fraction(1, 2))
    with pytest.MonkeyPatch.context() as mp:
        calls = counted_tropicalizations(mp)
        first = fully_faithful_pipeline(emb)
        second = smoothing_pipeline(first[0])
    return first, second, len(calls)


def test_tate_leaf_certifies_through_both_pipelines(tate_leaf_outputs):
    (out, report), second, _calls = tate_leaf_outputs
    assert bool(is_fully_faithful(out))
    assert output_digest(out, report) == TATE_LEAF_DIGESTS[0]
    out, report = second
    assert bool(is_fully_faithful(out))
    curve, _emap = tropicalize(out)
    assert check_smooth(curve).smooth
    assert report.singular_counts == [0]
    assert (len(out.coords), len(curve.vertices)) == (7, 65)
    assert output_digest(out, report) == TATE_LEAF_DIGESTS[1]


def test_tate_leaf_outputs_tropicalize_as_pinned(tate_leaf_outputs):
    """Image ids, edge map and all, of both outputs (see `test_tropicalize.py`)."""
    (first, _report), (second, _report2), _calls = tate_leaf_outputs
    assert tropicalization_digest(first) == TROPICALIZATION_DIGESTS["gated tate-leaf first output"]
    assert tropicalization_digest(second) == TROPICALIZATION_DIGESTS["gated tate-leaf second output"]


def core_steps(*reports):
    return [step for report in reports for step in report.steps if step["construction"].startswith("core-")]


def forced_stage0(emb, report):
    """An explicit `stage0` call on a tate leaf.  The certificate handed to
    it names a contracted piece of the core frame a16, so stage 0 builds
    as on an input whose core is not clean."""
    fin = emb.skeleton.finite
    core_edges, core_vertices = designate_core(fin)
    a16 = ("a16", Fraction(0), fin.edges["a16"].length)
    forced = FaithfulReport((Violation("contracted", "a16", (a16,)),))
    return stage0(emb, forced, core_edges, core_vertices, Frames(emb.skeleton), report)


def with_stage0(emb):
    """The report of `forced_stage0` on a tate leaf, then the output and
    report of each pipeline run on its result."""
    report = PipelineReport()
    first = fully_faithful_pipeline(forced_stage0(emb, report))
    return report, first, smoothing_pipeline(first[0])


@pytest.fixture(scope="module")
def stage0_tate_leaf_outputs():
    return with_stage0(tate_leaf(3, "p5", Fraction(1, 2)))


def test_stage0_on_the_tate_leaf_builds_as_before(stage0_tate_leaf_outputs):
    """Stage 0 still builds its tents and ramps, and the pipelines, whose
    gate then finds the core clean, give the outputs they gave while stage
    0 ran on every input."""
    report, (first, first_report), (second, second_report) = stage0_tate_leaf_outputs
    assert [step["construction"] for step in report.steps] == ["core-tent"] * 6 + ["core-ramp"] * 6
    assert core_steps(first_report, second_report) == []
    assert_smooth_output(second, second_report)
    assert (len(first.coords), len(second.coords)) == (19, 19)
    assert (embedding_digest(first), embedding_digest(second)) == STAGE0_TATE_LEAF_DIGESTS[""]
    assert tropicalization_digest(first) == TROPICALIZATION_DIGESTS["tate-leaf first output"]
    assert tropicalization_digest(second) == TROPICALIZATION_DIGESTS["tate-leaf second output"]


@pytest.mark.parametrize("vertex", ["p4", "p5"])
def test_stage0_on_the_tate_leaf_with_a_zero_ray_builds_as_before(vertex):
    _report, (first, _r1), (second, second_report) = with_stage0(
        tate_leaf(3, "p5", Fraction(1, 2), zero_rays=[("r0", vertex)])
    )
    assert_smooth_output(second, second_report)
    key = f"r0 at {vertex}"
    assert (embedding_digest(first), embedding_digest(second)) == STAGE0_TATE_LEAF_DIGESTS[key]
    assert tropicalization_digest(first) == TROPICALIZATION_DIGESTS[f"tate-leaf {key} first output"]
    assert tropicalization_digest(second) == TROPICALIZATION_DIGESTS[f"tate-leaf {key} second output"]


def test_a_coordinate_free_tate_skeleton_enters_stage0():
    """Without coordinates the certificate is ("empty",), which names no
    core piece, and stage 0 still runs: it places its tents before the
    cover check refuses the core (ROADMAP item 1)."""
    skel = tate_leaf(3, "p5", Fraction(1, 2)).skeleton
    bare = Embedding(skel, [])
    rep = is_fully_faithful(bare)
    assert [viol.kind for viol in rep.violations] == ["empty"]
    core_edges, core_vertices = designate_core(skel.finite)
    report = PipelineReport()
    with pytest.raises(Stage0Failure, match="uncovered"):
        stage0(bare, rep, core_edges, core_vertices, Frames(skel), report)
    assert [step["construction"] for step in report.steps] == ["core-tent"] * 6


@pytest.mark.parametrize("leaf", [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)], ids=str)
@pytest.mark.parametrize("attach", ["p4", "p5", "p6"])
def test_tate_leaf_grid_needs_no_core_work(attach, leaf, monkeypatch):
    """The two coordinates of a tate leaf of scale 3 already map its core
    injectively with unit stretch: stage 0 returns its input, and both
    pipelines certify with 7 coordinates and no core step."""
    real = synthesis.stage0

    def builds_nothing(emb, *args):
        out = real(emb, *args)
        if out is not emb:
            pytest.fail("stage 0 built coordinates on a clean core")
        return out

    monkeypatch.setattr(synthesis, "stage0", builds_nothing)
    first, report = fully_faithful_pipeline(tate_leaf(3, attach, leaf))
    second, second_report = smoothing_pipeline(first)
    assert_smooth_output(second, second_report)
    assert len(first.coords) == len(second.coords) == 7
    assert core_steps(report, second_report) == []


def test_tate_leaf_with_a_bare_ray_at_a_core_vertex():
    """`r0` sorts before `r4` at p4 and both sides of p4 are core, so the
    ramp of `r0` has nothing to descend along and takes its zero charge to
    the core."""
    out, report = fully_faithful_pipeline(tate_leaf(3, "p5", Fraction(1, 2), zero_rays=[("r0", "p4")]))
    assert any(step["target"] == "r0" and step["zero_at"].startswith("GraphPoint(edge=")
               for step in report.steps)
    assert output_digest(out, report) == TATE_ANCHOR_DIGESTS[0]
    assert tropicalization_digest(out) == TROPICALIZATION_DIGESTS["gated tate-leaf r0 at p4 first output"]
    out, report = smoothing_pipeline(out)
    assert_smooth_output(out, report)
    assert len(out.coords) == 8
    assert output_digest(out, report) == TATE_ANCHOR_DIGESTS[1]
    assert tropicalization_digest(out) == TROPICALIZATION_DIGESTS["gated tate-leaf r0 at p4 second output"]


def test_tate_leaf_with_a_smoothing_tent_on_a_ray_side():
    """A smoothing tent at p5 runs into the side of a ray there."""
    out, report = fully_faithful_pipeline(tate_leaf(3, "p5", Fraction(1, 2), zero_rays=[("r0", "p5")]))
    assert output_digest(out, report) == TATE_RAY_SIDE_DIGESTS[0]
    assert tropicalization_digest(out) == TROPICALIZATION_DIGESTS["gated tate-leaf r0 at p5 first output"]
    out, report = smoothing_pipeline(out)
    assert_smooth_output(out, report)
    assert any(set(step["sides"]) & {"r0", "r5"} for step in report.steps)
    assert output_digest(out, report) == TATE_RAY_SIDE_DIGESTS[1]
    assert tropicalization_digest(out) == TROPICALIZATION_DIGESTS["gated tate-leaf r0 at p5 second output"]


def test_tate_leaf_without_its_ray_certifies():
    """Pillars are placed before the edge ramps subdivide the frames they
    lie in; the ramp of `leaf` must still check them on the current edges."""
    out, report = smoothing_pipeline(tate_leaf(3, "q1", Fraction(1, 2), leaf_ray=False))
    assert_smooth_output(out, report)
    assert report.singular_counts == [0]
    assert len(out.coords) == 6


def counted_calls(monkeypatch, name):
    """Calls of the `tropicalize` module's function `name`, recorded from
    now on; `tropicalize` looks it up in the module at every call."""
    calls = []
    real = getattr(tropicalize_module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(tropicalize_module, name, counted)
    return calls


def test_tropicalize_intersects_only_lines_with_meeting_hulls(stage0_tate_leaf_outputs, monkeypatch):
    crossings = counted_calls(monkeypatch, "_line_intersection")
    hull_tests = counted_calls(monkeypatch, "_hulls_meet")
    curve, _emap = tropicalize(stage0_tate_leaf_outputs[2][0])
    assert len(curve.vertices) == 233
    assert 0 < len(crossings) <= len(hull_tests)
    assert len(crossings) < 1000  # 25,651 pairs of image lines
    assert len(hull_tests) < 2500  # the sweep makes 1,819 of the 25,651


def counted_method(monkeypatch, owner, name) -> list:
    """Calls of the method `name` of the class `owner`, recorded from now on."""
    calls = []
    real = getattr(owner, name)

    def counted(self, *args, **kw):
        calls.append(args)
        return real(self, *args, **kw)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_the_certificate_reads_each_profile_once(tate_leaf_outputs, monkeypatch):
    """The final tropicalization of the seed-0 tate-leaf op walks every
    profile itself, takes each piece end's preimage from the piece and
    builds one `ExtRational` per distinct finite coordinate value (96
    `canonical_point` calls, 65 `frame_pieces` walks and 413 `ExtRational`s
    when each piece went through `frame_pieces` and each vertex built its
    own values)."""
    _first, (out, _report), _calls = tate_leaf_outputs
    points = counted_method(monkeypatch, graphs._Domain, "canonical_point")
    walks = counted_calls(monkeypatch, "frame_pieces")
    values = counted_method(monkeypatch, ExtRational, "__init__")
    curve, _emap = tropicalize(out)
    distinct = {c.value for p in curve.vertices.values() for c in p.coords if c.is_finite}
    assert (len(points), len(walks)) == (0, 0)
    assert len(values) <= len(distinct) == 34


def test_a_tate_leaf_op_cuts_each_retired_profile_in_one_walk(monkeypatch):
    """`transport` cuts a retired profile's pieces in one walk and leaves
    their end values in memos, so neither a cut nor the continuity check
    of a transported coordinate reads a value from an edge's start (329
    reads when each piece was read from its edge's start and its end
    walked once more; the 91 left are the continuity checks of the ramps'
    `add_trapezoids` functions)."""
    emb = tate_leaf(3, "p5", Fraction(1, 2))
    reads = counted_method(monkeypatch, EdgeProfile, "value_at")
    out, _report = fully_faithful_pipeline(emb)
    smoothing_pipeline(out)
    assert len(reads) <= 120


@pytest.mark.parametrize(
    "make",
    [lambda: tate_leaf(3, "p5", Fraction(1, 2)), lambda: bare_skeleton(random_graph(random.Random(TREE_SEEDS[1])))],
    ids=["tate-leaf", f"tree{TREE_SEEDS[1]}"],
)
def test_one_spanning_tree_per_fully_faithful_call(make, monkeypatch):
    """Every target's pillars are placed on one skeleton, so one Kruskal
    run gives the complement for all of them (one run per target before)."""
    emb = make()
    trees = counted_method(monkeypatch, MetricGraph, "canonical_spanning_tree")
    _out, report = fully_faithful_pipeline(emb)
    ramps = [step for step in report.steps if step["construction"].endswith("edge-ramp")]
    assert len(ramps) > 1 and len(trees) == 1


def test_a_certified_output_is_a_noop_for_both_pipelines(monkeypatch):
    out, _report = smoothing_pipeline(bare_skeleton(random_graph(random.Random(TREE_SEEDS[0]))))
    calls = counted_tropicalizations(monkeypatch)
    again, report = fully_faithful_pipeline(out)
    assert again is not out
    assert again.skeleton is out.skeleton and again.coords == out.coords
    assert report.final == {"fully_faithful": True, "noop": True} and report.steps == []
    assert len(calls) == 1  # the entry certificate
    smoothed, report = smoothing_pipeline(again)
    assert len(calls) == 1  # the attached certificate, and an image already smooth
    assert smoothed.skeleton is out.skeleton and smoothed.coords == out.coords
    assert report.singular_counts == [0]


def test_one_op_certifies_each_embedding_once(tate_leaf_outputs, monkeypatch):
    """`smoothing_pipeline` reads the certificate the first pipeline handed
    on with its output; a direct certificate call still tropicalizes."""
    (out, _report), _second, op_calls = tate_leaf_outputs
    assert op_calls == 2
    calls = counted_tropicalizations(monkeypatch)
    assert is_fully_faithful(out)
    assert calls == [out]


@pytest.mark.parametrize(
    "copy", [lambda out: Embedding(out.skeleton, out.coords)], ids=["constructor"]
)
def test_a_copy_of_the_first_output_is_certified_again(tate_leaf_outputs, monkeypatch, copy):
    (out, _report), _second, _calls = tate_leaf_outputs
    emb = copy(out)
    calls = counted_tropicalizations(monkeypatch)
    result = smoothing_pipeline(emb)
    assert calls == [emb]
    assert output_digest(*result) == TATE_LEAF_DIGESTS[1]


@pytest.mark.parametrize(
    "make", [lambda: tate_leaf(3, "p5", Fraction(1, 2))]
    + [lambda seed=seed: bare_skeleton(random_graph(random.Random(seed))) for seed in TREE_SEEDS],
    ids=["tate-leaf"] + [f"tree{seed}" for seed in TREE_SEEDS],
)
def test_the_first_pipeline_transports_each_coordinate_once(make, monkeypatch):
    """A ramp is built on the finite part and adjoined without moving;
    `assemble` moves it, and each input coordinate, once to the final
    skeleton."""
    emb = make()
    calls = []
    transport = PLFunction.transport
    monkeypatch.setattr(PLFunction, "transport", lambda f, *args, **kw: calls.append(f) or transport(f, *args, **kw))
    out, report = fully_faithful_pipeline(emb)
    ramps = [step for step in report.steps if step["construction"].endswith("edge-ramp")]
    assert len(out.coords) == len(emb.coords) + len(ramps) > len(emb.coords)
    assert len(calls) <= len(out.coords)


def test_stage0_and_smoothing_assemble_once_per_step(monkeypatch):
    """Stage 0 and each smoothing pass adjoin their coordinates on the
    skeleton and assemble one embedding per step, which moves each
    coordinate once: a pass moves the coordinates it started with and its
    tents, and stage 0 no more coordinates than its embeddings hold.  Stage
    0 builds one embedding for its tents, one for its ramps and one per
    patch round, and smoothing one per pass."""
    emb = tate_leaf(3, "p5", Fraction(1, 2), zero_rays=[("r0", "p5")])
    events, assembled = [], []
    transport, init, certify = PLFunction.transport, Embedding.__init__, synthesis.is_fully_faithful
    monkeypatch.setattr(PLFunction, "transport", lambda f, *a, **kw: events.append("transport") or transport(f, *a, **kw))
    monkeypatch.setattr(
        Embedding, "__init__",
        lambda e, skel, coords: events.append("embedding") or assembled.append(len(coords)) or init(e, skel, coords),
    )
    monkeypatch.setattr(synthesis, "is_fully_faithful", lambda e: events.append("certificate") or certify(e))
    report = PipelineReport()
    emb = forced_stage0(emb, report)
    assert [step["construction"] for step in report.steps] == ["core-tent"] * 6 + ["core-ramp"] * 6
    patch_rounds = events.count("certificate") - 1  # the last round finds the core clean
    assert events.count("embedding") <= 2 + patch_rounds
    assert events.count("transport") <= sum(assembled)
    first, _report = fully_faithful_pipeline(emb)
    events.clear()
    out, report = smoothing_pipeline(first)
    passes = " ".join(events).split("certificate")[:-1]  # each pass ends with its certificate
    coords = len(first.coords)
    for pass_no, pass_events in enumerate(passes):
        tents = sum(step["coordinate"].startswith(f"v{pass_no}.") for step in report.steps)
        assert pass_events.split().count("transport") <= coords + tents
        coords += tents
    assert coords == len(out.coords) > len(first.coords)
    assert events.count("embedding") <= len(passes)


def test_smoothing_returns_a_certified_smooth_input_as_is(tate_leaf_outputs, monkeypatch):
    """The second output is certified afresh, its image is smooth, and it
    comes back itself: no coordinate is validated again in a copy."""
    _first, (second, _report), _calls = tate_leaf_outputs
    built = []
    init = Embedding.__init__
    monkeypatch.setattr(Embedding, "__init__", lambda e, *a: built.append(e) or init(e, *a))
    out, report = smoothing_pipeline(second)
    assert out is second and built == []
    assert report.singular_counts == [0]


def test_first_pipeline_refuses_a_violation_its_construction_leaves(monkeypatch):
    """The first pipeline certifies what it built once and refuses it with
    the reasons of the violations left: with the ramp of `e2` adjoined as a
    constant, a piece of `e2` stays contracted."""
    adjoin = synthesis.adjoin
    monkeypatch.setattr(
        synthesis, "adjoin",
        lambda skel, f, name, slopes=None: adjoin(skel, f + negated(f) if name == "f.e2" else f, name, slopes),
    )
    certify = synthesis.is_fully_faithful
    reports = []

    def recorded_certificate(emb):
        reports.append(certify(emb))
        return reports[-1]

    monkeypatch.setattr(synthesis, "is_fully_faithful", recorded_certificate)
    with pytest.raises(CertificateFailure, match="final certificate failed") as failure:
        fully_faithful_pipeline(contracted_embedding())
    assert len(reports) == 2  # the input's certificate and the output's
    (viol,) = reports[-1].violations
    assert viol.kind == "contracted" and viol.pieces[0][0].startswith("e2")
    assert reports[-1].reasons[0] in str(failure.value)


@pytest.mark.parametrize("pipeline", [fully_faithful_pipeline, smoothing_pipeline])
def test_pipelines_reject_a_one_vertex_skeleton(pipeline):
    skel = build_extended(build_graph(["o"], []), [])
    for coords in ([], [PLFunction(skel, {}, {})]):
        with pytest.raises(EmptyCoordinates, match="no edges and no rays"):
            pipeline(Embedding(skel, coords))


@pytest.mark.parametrize(
    "name, directions",
    [("middle", [(1, 0), (-1, 0), (0, 1), (0, -1)]), ("right", [(2, -1), (-1, 2), (-1, -1)])],
    ids=["middle", "right"],
)
def test_smoothing_fig1_stars(name, directions):
    emb = fig1_star(directions)
    out, report = smoothing_pipeline(emb)
    assert_smooth_output(out, report)
    assert output_digest(out, report) == STAR_DIGESTS[name]
    assert_slopes_change_only_at_vertices(emb, out)


def assert_slopes_change_only_at_vertices(emb, out):
    """Every end of the `_root_slope_cover` intervals of each coordinate of
    `out` alone that lies strictly inside a root frame of `emb` (an edge, or
    a ray running to infinity) is a vertex of `out`'s skeleton, and there
    is such an end.  A certified output covers every frame with all its
    coordinates, so the ends are read one coordinate at a time."""
    skel = out.skeleton
    frames = {e.id: e.length for e in emb.skeleton.finite.edges.values()}
    frames.update(dict.fromkeys(emb.skeleton.rays))
    ends = [
        (root, x)
        for f in out.coords
        for root, length in sorted(frames.items())
        for interval in _root_slope_cover(Embedding(skel, [f]), root)
        for x in interval
        if x is not None and 0 < x and (length is None or x < length)
    ]
    assert ends and [(r, x) for r, x in ends if not skel.canonical_point(P(r, x)).is_vertex] == []


def test_slopes_change_only_at_vertices(tate_leaf_outputs, stage0_tate_leaf_outputs):
    """Why stage 0 checks coverage instead of filling gaps: coordinates are
    harmonic, so every gap end inside a root frame is a vertex, which a
    bump inside one edge cannot straddle."""
    emb = tate_leaf(3, "p5", Fraction(1, 2))
    for out, _report in [*tate_leaf_outputs[:2], *stage0_tate_leaf_outputs[1:]]:
        assert_slopes_change_only_at_vertices(emb, out)


def test_smooth_output_has_the_first_betti_number_of_its_skeleton():
    """A smooth image of a Mumford curve's skeleton has the skeleton's
    first Betti number; a certificate whose image has another is refused."""
    emb = line_embedding()
    _tate, honeycomb = tate_demo()
    assert check_smooth(honeycomb).smooth
    emb._certificate = FaithfulReport((), honeycomb, None)
    with pytest.raises(CertificateFailure, match="first Betti number 1, the skeleton 0"):
        smoothing_pipeline(emb)
    out, _report = smoothing_pipeline(line_embedding())
    assert len(out.coords) == 1


def test_a_singular_vertex_inside_an_edge_is_refused():
    """Harmonic coordinates map a point inside an edge with one preimage to
    a smooth vertex, so a certificate that says otherwise is refused."""
    emb = fig1_star([(1, 0), (-1, 0), (0, 1), (0, -1)])
    rep = is_fully_faithful(emb)
    (centre,) = check_smooth(rep.curve).singular_vertices
    rep.emap.vertex_sources[centre.vertex] = frozenset([P("r0", 1)])
    emb._certificate = rep
    with pytest.raises(CertificateFailure, match="lies inside edge 'r0'"):
        smoothing_pipeline(emb)


@pytest.mark.xfail(
    strict=True,
    raises=Stage0Failure,
    reason="ROADMAP item 1: stage 0 leaves core gaps that no bump inside one edge can close",
)
def test_fully_faithful_genus_one_sweep_skeleton():
    assert sweep_genus(1) == 1
    fully_faithful_pipeline(bare_skeleton(random_graph(random.Random(1))))
