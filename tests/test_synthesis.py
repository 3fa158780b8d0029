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
)
from tropicurve.errors import DivisorCollision, Stage0Failure
from tropicurve.graphs import GraphPoint, build_extended, build_graph
from tropicurve.synthesis import (
    Frames,
    _aj_corrected_divisor,
    _repair_step,
    _side_frame,
    fully_faithful_pipeline,
    smoothing_pipeline,
    tate_demo,
    vertex_function,
)
from tropicurve.tropicalize import Embedding, is_fully_faithful, refine_embedding, tropicalize

from randgen import random_graph
from test_tropicalize import contracted_embedding

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


def tate_leaf(c, attach, leaf_length):
    """`tate_demo(c)` plus a leaf edge at `attach` ending in a ray; both
    coordinates are constant on it, so neither pipeline is a no-op."""
    emb, _curve = tate_demo(c)
    fin = emb.skeleton.finite
    edges = [(e.id, e.a, e.b, e.length) for e in fin.edges.values()]
    fin2 = build_graph(list(fin.vertices) + ["t"], edges + [("leaf", attach, "t", leaf_length)])
    rays = [(r.id, V(r.attach)) for r in emb.skeleton.rays.values()] + [("rt", V("t"))]
    skel = build_extended(fin2, rays)
    coords = []
    for f in emb.coords:
        val = f.vertex_value(attach)
        profiles = dict(f.edge_profiles, leaf=EdgeProfile(val, (), (0,)))
        coords.append(PLFunction(skel, profiles, dict(f.ray_profiles, rt=RayProfile(val, 0))))
    return Embedding(skel, coords)


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


@pytest.mark.parametrize("graph, keep", [(theta(), "e1"), (dumbbell(), "l0.0")])
def test_aj_corrections_are_principal_and_spare_the_kept_frame(graph, keep):
    emb = Embedding(build_extended(graph, []), [])
    d = _aj_corrected_divisor(emb, Frames(emb.skeleton), keep)
    assert is_principal(graph, d).principal
    on_kept = [(pt, c) for pt, c in d.terms if not pt.is_vertex and pt.edge == keep]
    assert sorted(c for _pt, c in on_kept) == [-1, 1]  # only the two base points
    assert len(d.terms) > 2  # the base pair alone is not principal


def test_tent_on_a_subdivided_edge_and_a_ray():
    g = build_graph(["v", "w"], [("e", "v", "w", 4)])
    emb = Embedding(build_extended(g, [("r", V("v"))]), [])
    frames = Frames(emb.skeleton)
    emb = refine_embedding(emb, [P("e", 2)])  # the root frame "e" is now two edges
    skel = emb.skeleton
    sides = [_side_frame(skel, frames, "v", s) for s in ("e.L", "r")]
    res = vertex_function(emb, "v", *sides, frames)
    d = divisor_of(res.function)
    assert len(d.terms) == 6 and all(abs(c) == 1 for _pt, c in d.terms)
    assert d.coeff(V("v")) == 0
    assert res.function.value(V("v")) == 0


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
    assert viol[0] == "contracted"
    fixed = _repair_step(emb, Frames(emb.skeleton), viol, "r0")
    assert len(fixed.coords) == 2
    assert is_fully_faithful(fixed).reasons == REPAIRED_REASONS


def test_sweep_has_fourteen_trees():
    assert len(TREE_SEEDS) == 14


@pytest.mark.parametrize("seed", TREE_SEEDS)
def test_smoothing_certifies_seeded_trees(seed):
    out, report = smoothing_pipeline(bare_skeleton(random_graph(random.Random(seed))))
    assert is_fully_faithful(out).fully_faithful
    assert check_smooth(tropicalize(out)[0]).smooth
    counts = report.singular_counts
    assert all(a > b for a, b in zip(counts, counts[1:]))


def test_tate_leaf_certifies_through_both_pipelines():
    out, _report = fully_faithful_pipeline(tate_leaf(3, "p5", Fraction(1, 2)))
    assert is_fully_faithful(out).fully_faithful
    out, report = smoothing_pipeline(out)
    assert is_fully_faithful(out).fully_faithful
    curve, _emap = tropicalize(out)
    assert check_smooth(curve).smooth
    assert report.singular_counts == [0]
    assert (len(out.coords), len(curve.vertices)) == (19, 233)


@pytest.mark.xfail(
    strict=True,
    raises=DivisorCollision,
    reason="ROADMAP item 1: a tent's outermost point on a ray side is the tail's attachment",
)
@pytest.mark.parametrize(
    "directions",
    [[(1, 0), (-1, 0), (0, 1), (0, -1)], [(2, -1), (-1, 2), (-1, -1)]],
    ids=["middle", "right"],
)
def test_smoothing_fig1_stars(directions):
    smoothing_pipeline(fig1_star(directions))


@pytest.mark.xfail(
    strict=True,
    raises=Stage0Failure,
    reason="ROADMAP item 1: stage-0 coverage trapezoids cross tent ray attachments",
)
def test_fully_faithful_genus_one_sweep_skeleton():
    assert sweep_genus(1) == 1
    fully_faithful_pipeline(bare_skeleton(random_graph(random.Random(1))))
