"""Tests of the benchmark itself: tracing is transparent, inputs are a
function of the seed, outcomes are counted apart.

Run from the repository root with ``python -m pytest perfbench``.
"""

import hashlib
import random
from collections import Counter

import pytest

import corpus
import run
import tracing
import workloads
from tropicurve import divisors, synthesis
from tropicurve.errors import NonzeroDegree
from tropicurve.graphs import GraphPoint


def describe_embedding(emb) -> tuple:
    skel = emb.skeleton
    return (
        tuple(sorted((e.id, e.a, e.b, e.length) for e in skel.finite.edges.values())),
        tuple(sorted((r.id, r.attach) for r in skel.rays.values())),
        tuple(
            (tuple(sorted(f.edge_profiles.items())), tuple(sorted(f.ray_profiles.items())))
            for f in emb.coords
        ),
    )


def describe_inputs(name: str, seed: int) -> str:
    if name == "tate-leaf":
        return repr(describe_embedding(corpus.tate_leaf(*corpus.tate_leaf_params(seed))))
    if name == "seeded-skeleta":
        items = corpus.seeded_skeleta(seed)
        return repr([(i.slot, i.shape, describe_embedding(i.embedding)) for i in items])
    principal, breaks = corpus.ladder_kernels(seed)
    return repr(
        [(sorted(p.graph.edges.items()), p.divisor.terms, p.principal) for p in principal]
        + [(sorted(b.graph.edges.items()), b.divisor.terms) for b in breaks]
    )


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(name):
    assert describe_inputs(name, 3) == describe_inputs(name, 3)
    assert describe_inputs(name, 3) != describe_inputs(name, 4)


SEED0_SKELETA_DIGEST = "dc481472f0b0bdef"


def test_default_seed_is_the_roadmap_sweep():
    # Seed 0 draws the skeleta of random.Random(0) .. random.Random(39): 14
    # trees, 9 genus-1 and 17 genus-2 skeleta.  The digest pins the corpus,
    # so a change to the generator shows here.
    items = corpus.seeded_skeleta(0)
    assert Counter(i.genus for i in items) == {0: 14, 1: 9, 2: 17}
    for i in items:
        graph, _shape = corpus.random_graph(random.Random(i.slot))
        assert describe_embedding(corpus.bare_skeleton(graph)) == describe_embedding(i.embedding)
    digest = hashlib.sha256(describe_inputs("seeded-skeleta", 0).encode()).hexdigest()
    assert digest[:16] == SEED0_SKELETA_DIGEST


def test_every_seed_keeps_the_sweep_shapes():
    shapes = corpus.sweep_shapes()
    for seed in (1, 7):
        assert [i.shape for i in corpus.seeded_skeleta(seed)] == shapes


def test_ladders_have_the_stated_sizes():
    principal, breaks = corpus.ladder_kernels(0)
    assert [len(p.graph.edges) for p in principal] == [58, 58, 58, 58, 118, 118]
    assert [p.graph.betti_number() for p in principal] == [19, 19, 19, 19, 39, 39]
    assert [p.principal for p in principal] == [True, False] * 3
    assert [b.graph.betti_number() for b in breaks] == [2, 2, 3, 4]
    assert all(b.divisor.degree() == b.graph.betti_number() for b in breaks)


# -- tracing ------------------------------------------------------------------------------


def small_skeleton():
    item = next(i for i in corpus.seeded_skeleta(0) if i.genus == 0)
    return item.embedding


def small_principal():
    principal, _ = corpus.ladder_kernels(0)
    return principal[0], principal[1]


def test_tracing_leaves_outputs_unchanged():
    emb = small_skeleton()
    plain_out, plain_report = synthesis.smoothing_pipeline(emb)
    tracer = tracing.Tracer()
    with tracer.op(0, "op.test"):
        traced_out, traced_report = synthesis.smoothing_pipeline(emb)
    assert describe_embedding(traced_out) == describe_embedding(plain_out)
    assert traced_report.to_dict() == plain_report.to_dict()
    names = {span[0] for span in tracer.spans}
    assert {"synthesis.smoothing_pipeline", "tropicalize.tropicalize"} <= names


def test_tracing_passes_arguments_and_results_through():
    yes, no = small_principal()
    tracer = tracing.Tracer()
    with tracer.op(0, "op.test"):
        traced_yes = divisors.is_principal(
            yes.graph, yes.divisor, basepoint=GraphPoint.at_vertex("u1")
        )
        traced_no = divisors.is_principal(no.graph, no.divisor)
    plain_yes = divisors.is_principal(yes.graph, yes.divisor, basepoint=GraphPoint.at_vertex("u1"))
    plain_no = divisors.is_principal(no.graph, no.divisor)
    assert traced_yes.principal and plain_yes.principal
    assert traced_yes.witness.edge_profiles == plain_yes.witness.edge_profiles
    assert traced_yes.witness.vertex_value("u1") == 0
    assert traced_no == plain_no
    assert tracer.counters["linalg.solve_linear.cells"] > 0


def test_tracing_passes_exceptions_through():
    yes, _ = small_principal()
    lopsided = yes.divisor + divisors.Divisor([(GraphPoint.at_vertex("u0"), 1)])
    with pytest.raises(NonzeroDegree) as plain:
        divisors.is_principal(yes.graph, lopsided)
    tracer = tracing.Tracer()
    with pytest.raises(NonzeroDegree) as traced:
        with tracer.op(0, "op.test"):
            divisors.is_principal(yes.graph, lopsided)
    assert traced.value.args == plain.value.args
    assert all(span[2] is not None for span in tracer.spans)


def test_bindings_are_restored_after_an_op():
    tracer = tracing.Tracer()
    with tracer.op(0, "op.test"):
        assert all(owner.__dict__[attr] is w for owner, attr, _o, w in tracer._sites)
    assert all(owner.__dict__[attr] is o for owner, attr, o, _w in tracer._sites)


def test_imported_names_are_rebound_in_every_module():
    tracer = tracing.Tracer()
    rebound = {(owner.__name__, attr) for owner, attr, _o, _w in tracer._sites}
    assert {
        ("tropicurve.tropicalize", "tropicalize"),
        ("tropicurve.synthesis", "tropicalize"),
        ("tropicurve.linalg", "solve_linear"),
        ("tropicurve.divisors", "solve_linear"),
        ("tropicurve.chipfiring", "solve_linear"),
        ("tropicurve.divisors", "is_principal"),
        ("tropicurve.breakdiv", "is_principal"),
        ("PLFunction", "transport"),
    } <= rebound


def test_self_times_sum_to_the_root_span():
    tracer = tracing.Tracer()
    for op_id, emb in enumerate([small_skeleton(), corpus.fig1_stars()[0]]):
        with tracer.op(op_id, "op.test"):
            try:
                synthesis.smoothing_pipeline(emb)
            except Exception:
                pass
    selfs = tracing.self_times(tracer.spans)
    for op_id in (0, 1):
        members = [i for i, span in enumerate(tracer.spans) if span[4] == op_id]
        root = next(i for i in members if tracer.spans[i][3] is None)
        duration = tracer.spans[root][2] - tracer.spans[root][1]
        assert sum(selfs[i] for i in members) == pytest.approx(duration, rel=1e-9, abs=1e-9)
        assert all(selfs[i] >= -1e-9 for i in members)


def test_layer_totals_do_not_count_recursion_twice():
    spans = [
        ["op", 0.0, 10.0, None, 0],
        ["f", 1.0, 9.0, 0, 0],
        ["f", 2.0, 5.0, 1, 0],
        ["g", 6.0, 7.0, 1, 0],
    ]
    totals = tracing.layer_totals(spans)
    assert totals["f"] == {"calls": 2, "self_s": 4.0 + 3.0, "total_s": 8.0}
    assert totals["g"] == {"calls": 1, "self_s": 1.0, "total_s": 1.0}
    assert totals["op"]["self_s"] == 2.0


# -- outcome counting ---------------------------------------------------------------------


class Boom(Exception):
    pass


def _raise():
    raise Boom("no")


def test_wrong_outputs_are_counted_apart_from_errors():
    tally = run.Tally()
    ok = workloads.Op("ok", lambda: 1, lambda out: (True, {"coords": 2}))
    bad = workloads.Op("bad", lambda: 1, lambda out: (False, {}))
    boom = workloads.Op("boom", _raise, lambda out: (True, {}))
    for op in (ok, bad, boom, boom):
        output, error = run.call(op)
        tally.record(op, output, error, 0.5)
    assert (tally.attempted, tally.certified, tally.wrong) == (4, 1, 1)
    assert tally.raised == {"Boom": 2}
    assert tally.failed == 3
    assert tally.sizes == {"coords": 2}
    assert tally.outcomes == {"ok": "certified", "bad": "wrong", "boom": "Boom"}


def test_tail_needs_ten_samples_above():
    assert run.tail([1.0] * 10) is None
    got = run.tail([float(i) for i in range(1, 21)])
    assert got == {"percentile": 50, "value": 10.0, "samples": 20}
    got = run.tail([float(i) for i in range(1, 1001)])
    assert got["percentile"] == 99 and got["value"] == 990.0
