import hashlib
import random
from fractions import Fraction

import pytest

from tropicurve.complexes import check_smooth
from tropicurve.divisors import (
    PLFunction,
    RayProfile,
    divisor_of,
    is_principal,
    make_divisor,
    trapezoid,
)
from tropicurve import synthesis, tropicalize as tropicalize_module
from tropicurve.errors import (
    CertificateFailure,
    EmptyCoordinates,
    NoRoom,
    Stage0Failure,
    UnknownEdge,
)
from tropicurve.graphs import GraphPoint, build_extended, build_graph
from tropicurve.synthesis import (
    PILLAR_TRIES,
    Frames,
    _core_ramp,
    _corrected_witness,
    _repair_step,
    _root_slope_cover,
    _separating_bump,
    _side_frame,
    designate_core,
    fully_faithful_pipeline,
    select_pillars,
    smoothing_pipeline,
    tate_demo,
    vertex_function,
)
from tropicurve.tropicalize import (
    Embedding,
    FaithfulReport,
    extend_embedding,
    is_fully_faithful,
    refine_embedding,
    tropicalize,
)

from randgen import random_graph
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


def output_digest(emb, report):
    """First 16 hex digits of the sha256 of a pipeline's whole output: the
    skeleton ids, every coordinate's profiles and the report."""
    skel = emb.skeleton
    text = repr((
        skel.finite.vertices,
        sorted((e.id, e.a, e.b, e.length) for e in skel.finite.edges.values()),
        sorted((r.id, r.attach, r.leaf) for r in skel.rays.values()),
        [(sorted(f.edge_profiles.items()), sorted(f.ray_profiles.items())) for f in emb.coords],
        report.to_dict(),
    ))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# Output digests of the pipelines: a change to anything they build, down
# to one offset or one report entry, shows here.
TREE_DIGESTS = {
    2: "812eec3782cfd041", 5: "2522464a2e017ec6", 6: "461d7c27b5f0dfa3",
    10: "3291cfe43527730f", 14: "166c372121d7674d", 17: "0f91e65e8a40d171",
    28: "9646c2470556ebf7", 29: "64cf64a32334e5e0", 30: "902d47ce3f31b0ff",
    31: "908a0aa66e97805d", 32: "812eec3782cfd041", 33: "2664f5b69a022ab7",
    34: "5687ba3f78ef9df3", 35: "8beeb4be94cfd740",
}
TATE_LEAF_DIGESTS = ("ad88f7084e040cd0", "21dbf887fe9e0afb")  # both pipelines
TATE_ANCHOR_DIGESTS = ("4d3644fd3fe3c543", "bc1dcfaf8a2dc993")  # plus a ray r0 at p4
TATE_RAY_SIDE_DIGESTS = ("2a2a7a3b7acf2d7c", "512abe6d8e36fc6f")  # plus a ray r0 at p5
STAR_DIGESTS = {"middle": "1120dc2e0fbc8d95", "right": "f6dde57e3f6cb465"}


@pytest.mark.parametrize("graph, keep", [(theta(), "e1"), (dumbbell(), "l0.0")])
def test_aj_corrections_are_principal_and_spare_the_kept_frame(graph, keep):
    emb = Embedding(build_extended(graph, []), [])
    d = divisor_of(_core_ramp(emb, Frames(emb.skeleton), keep))
    assert is_principal(graph, d).principal
    on_kept = [(pt, c) for pt, c in d.terms if not pt.is_vertex and pt.edge == keep]
    assert sorted(c for _pt, c in on_kept) == [-1, 1]  # only the two base points
    assert len(d.terms) > 2  # the base pair alone is not principal


def tent_on_a_subdivided_edge_and_a_ray():
    g = build_graph(["v", "w"], [("e", "v", "w", 4)])
    emb = Embedding(build_extended(g, [("r", V("v"))]), [])
    frames = Frames(emb.skeleton)
    emb = refine_embedding(emb, [P("e", 2)])  # the root frame "e" is now two edges
    skel = emb.skeleton
    sides = [_side_frame(skel, frames, "v", s) for s in ("e.L", "r")]
    return vertex_function(emb, "v", *sides, frames), frames


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
    res = vertex_function(emb, "v", *sides, frames)
    skel = res.embedding.skeleton
    assert sorted(skel.rays) == ["r.tail"]
    attach = V(skel.rays["r.tail"].attach)
    assert skel.canonical_point(P("r", 1)) == attach
    assert res.function.value(attach) == 0 and attach not in divisor_of(res.function).support()
    assert len(extend_embedding(res.embedding, res.function, "t").coords) == 1


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
    pset = select_pillars(emb, Frames(emb.skeleton), forbidden=forbidden)
    assert len(pset.complement) == 2
    for pts in pset.tuples:
        root = pts[0].edge
        assert [pt.offset for pt in pts] == [Fraction(lengths[root], 32) * k for k in (1, 2, 5, 6)]
    free = select_pillars(emb, Frames(emb.skeleton))
    assert all(pts[3].offset > Fraction(lengths[pts[0].edge], 4) for pts in free.tuples)


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
    emb = refine_embedding(
        emb,
        [P("bar", Fraction(1, 4)), P("bar", Fraction(3, 4)), P("l0.0", Fraction(1, 2)),
         P("l0.0", Fraction(1, 4)), P("r", 2), P("r", 1), P("r", 3), P("t.0", 1), P("t.0", 2)],
    )
    skel = emb.skeleton
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
    f = _corrected_witness(emb, frames, base)
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


def test_corrected_witness_of_a_bridge_joined_pair_claims_nothing():
    # genus 2: the bridge's ends have zero cycle integrals, so k = 0 is taken
    emb = Embedding(build_extended(dumbbell(), [("r", V("v"))]), [])
    assert assert_plain_witness(emb, "u", "v") == 1


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
    fixed = _repair_step(emb, Frames(emb.skeleton), viol, "r0")
    assert len(fixed.coords) == 2
    assert is_fully_faithful(fixed).reasons == REPAIRED_REASONS


def test_separating_bump_centres_its_rise_on_the_colliding_point():
    emb = line_embedding()  # one edge "e" of length 2
    frames = Frames(emb.skeleton)
    frames.block_point("e", Fraction(3, 4))
    f = _separating_bump(emb, frames, "e", Fraction(0), Fraction(2), around=Fraction(1, 2))
    q = Fraction(1, 32)  # an eighth of the way from 1/2 to the free window's end at 3/4
    offs = [Fraction(1, 2) + k * q for k in (-1, 1, 2, 4)]
    assert divisor_of(f) == divisor_of(trapezoid(emb.skeleton, "e", offs))
    assert frames.intervals == {"e": [(offs[0], offs[3])]}
    assert _separating_bump(emb, frames, "e", Fraction(0), Fraction(2), around=Fraction(3, 4)) is None


def test_repair_step_has_no_remedy_for_colliding_ray_leaves():
    emb = contracted_embedding()
    frames = Frames(emb.skeleton)
    fixed = _repair_step(emb, frames, is_fully_faithful(emb).violations[0], "r0")
    viol = next(v for v in is_fully_faithful(fixed).violations if v.at == "t2")
    assert viol.kind == "preimages" and len(viol.points) == 2
    assert all(fixed.skeleton.is_infinite_vertex(pt.vertex) for pt in viol.points)
    assert _repair_step(fixed, frames, viol, "r1") is None


def test_sweep_has_fourteen_trees():
    assert len(TREE_SEEDS) == 14


def assert_smooth_output(out, report):
    assert is_fully_faithful(out).fully_faithful
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
    assert is_fully_faithful(out).fully_faithful
    assert output_digest(out, report) == TATE_LEAF_DIGESTS[0]
    out, report = second
    assert is_fully_faithful(out).fully_faithful
    curve, _emap = tropicalize(out)
    assert check_smooth(curve).smooth
    assert report.singular_counts == [0]
    assert (len(out.coords), len(curve.vertices)) == (19, 233)
    assert output_digest(out, report) == TATE_LEAF_DIGESTS[1]


def test_tate_leaf_outputs_tropicalize_as_pinned(tate_leaf_outputs):
    """Image ids, edge map and all, of both outputs (see `test_tropicalize.py`)."""
    (first, _report), (second, _report2), _calls = tate_leaf_outputs
    assert tropicalization_digest(first) == TROPICALIZATION_DIGESTS["tate-leaf first output"]
    assert tropicalization_digest(second) == TROPICALIZATION_DIGESTS["tate-leaf second output"]


def test_tate_leaf_with_a_bare_ray_at_a_core_vertex():
    """`r0` sorts before `r4` at p4 and both sides of p4 are core, so the
    ramp of `r0` has nothing to descend along and takes its zero charge to
    the core."""
    out, report = fully_faithful_pipeline(tate_leaf(3, "p5", Fraction(1, 2), zero_rays=[("r0", "p4")]))
    assert any(step["target"] == "r0" and step["zero_at"].startswith("GraphPoint(edge=")
               for step in report.steps)
    assert output_digest(out, report) == TATE_ANCHOR_DIGESTS[0]
    out, report = smoothing_pipeline(out)
    assert_smooth_output(out, report)
    assert len(out.coords) == 20
    assert output_digest(out, report) == TATE_ANCHOR_DIGESTS[1]


def test_tate_leaf_with_a_smoothing_tent_on_a_ray_side():
    """A smoothing tent at p5 runs into the side of a ray there."""
    out, report = fully_faithful_pipeline(tate_leaf(3, "p5", Fraction(1, 2), zero_rays=[("r0", "p5")]))
    assert output_digest(out, report) == TATE_RAY_SIDE_DIGESTS[0]
    out, report = smoothing_pipeline(out)
    assert_smooth_output(out, report)
    assert any(set(step["sides"]) & {"r0", "r5"} for step in report.steps)
    assert output_digest(out, report) == TATE_RAY_SIDE_DIGESTS[1]


def test_tate_leaf_without_its_ray_certifies():
    """Pillars are placed before the edge ramps subdivide the frames they
    lie in; the ramp of `leaf` must still check them on the current edges."""
    out, report = smoothing_pipeline(tate_leaf(3, "q1", Fraction(1, 2), leaf_ray=False))
    assert_smooth_output(out, report)
    assert report.singular_counts == [0]
    assert len(out.coords) == 18


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


def test_tropicalize_intersects_only_lines_with_meeting_hulls(tate_leaf_outputs, monkeypatch):
    crossings = counted_calls(monkeypatch, "_line_intersection")
    hull_tests = counted_calls(monkeypatch, "_hulls_meet")
    curve, _emap = tropicalize(tate_leaf_outputs[1][0])
    assert len(curve.vertices) == 233
    assert 0 < len(crossings) <= len(hull_tests)
    assert len(crossings) < 1000  # 25,651 pairs of image lines
    assert len(hull_tests) < 2500  # the sweep makes 1,819 of the 25,651


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
    assert op_calls == 3
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


def test_first_pipeline_refuses_a_violation_its_construction_leaves(monkeypatch):
    """The first pipeline certifies what it built once and refuses it with
    the reasons of the violations left: with the coordinate of `e2`'s ramp
    never added, a piece of `e2` stays contracted."""
    extend = synthesis.extend_embedding
    monkeypatch.setattr(
        synthesis, "extend_embedding",
        lambda emb, f, name: emb if name == "f.e2" else extend(emb, f, name),
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


def test_slopes_change_only_at_vertices(tate_leaf_outputs):
    """Why stage 0 checks coverage instead of filling gaps: coordinates are
    harmonic, so every gap end inside a root frame is a vertex, which a
    bump inside one edge cannot straddle."""
    emb = tate_leaf(3, "p5", Fraction(1, 2))
    for out, _report in tate_leaf_outputs[:2]:
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
