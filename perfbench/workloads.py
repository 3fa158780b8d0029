"""The benchmark's workloads: timed operations and their re-certification.

Each operation calls the public API through its module (``synthesis.…``,
``divisors.…``) so that a tracer's rebinding reaches it.  ``certify`` runs
outside the timed region and re-checks the returned output with the
library's exact certificates; a failed re-check makes the output *wrong*,
which the benchmark counts apart from a raised error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from tropicurve import breakdiv, complexes, divisors, synthesis, tropicalize

import corpus

WORKLOADS = ("tate-leaf", "seeded-skeleta", "ladder-kernels")

@dataclass(frozen=True)
class Op:
    """One input carried to an output.

    ``certify(output)`` returns ``(ok, sizes)``; ``sizes`` holds the output
    counts of a certified pipeline output and is empty otherwise.
    """

    name: str
    run: Callable[[], object]
    certify: Callable[[object], tuple[bool, dict]]


@dataclass
class Workload:
    ops: list[Op]
    # Inputs attempted once per run, untimed, whose outcome is only counted:
    # the cyclic seeded skeleta and the Fig. 1 stars, which the pipelines
    # refuse today.  A fix that makes them certify shows in these counts.
    sweep: list[Op] = field(default_factory=list)


def _certify_embedding(out, reports) -> tuple[bool, dict]:
    if not tropicalize.is_fully_faithful(out):
        return False, {}
    curve, _emap = tropicalize.tropicalize(out)
    if not complexes.check_smooth(curve):
        return False, {}
    sizes = {
        "coords": len(out.coords),
        "image_vertices": len(curve.vertices),
        "graphs.skeleton_edges": len(out.skeleton.finite.edges) + len(out.skeleton.rays),
    }
    for report in reports:
        for step in report.steps:
            key = f"synthesis.steps.{step['construction']}"
            sizes[key] = sizes.get(key, 0) + 1
    return True, sizes


def _both_pipelines(emb):
    out, first = synthesis.fully_faithful_pipeline(emb)
    out, second = synthesis.smoothing_pipeline(out)
    return out, (first, second)


def _smoothing(emb):
    out, report = synthesis.smoothing_pipeline(emb)
    return out, (report,)


def _pipeline_op(name, run, emb) -> Op:
    return Op(name, lambda: run(emb), lambda result: _certify_embedding(*result))


def tate_leaf(seed: int) -> Workload:
    emb = corpus.tate_leaf(*corpus.tate_leaf_params(seed))
    return Workload([_pipeline_op("pipelines", _both_pipelines, emb)])


def seeded_skeleta(seed: int) -> Workload:
    """Genus-0 skeleta are timed; cyclic ones and the stars are swept."""
    ops, sweep = [], []
    for item in corpus.seeded_skeleta(seed):
        kind = item.shape[0]
        op = _pipeline_op(f"drawn.{item.slot}.g{item.genus}.{kind}", _smoothing, item.embedding)
        (ops if item.genus == 0 else sweep).append(op)
    for k, emb in enumerate(corpus.fig1_stars()):
        sweep.append(_pipeline_op(f"stars.{k}", _smoothing, emb))
    return Workload(ops, sweep)


def _principal_op(index: int, item: corpus.PrincipalInput) -> Op:
    def certify(res):
        if not item.principal:
            return res.principal is False, {}
        return res.principal and divisors.divisor_of(res.witness) == item.divisor, {}

    edges = len(item.graph.edges)
    label = "principal" if item.principal else "perturbed"
    return Op(
        f"is_principal.{index}.E{edges}.{label}",
        lambda: divisors.is_principal(item.graph, item.divisor),
        certify,
    )


def _break_op(index: int, item: corpus.BreakInput) -> Op:
    graph, d = item.graph, item.divisor

    def certify(result):
        b, witness = result
        rest = divisors.make_divisor(graph, (d - b).terms)
        return bool(breakdiv.is_break_divisor(graph, b)) and (
            divisors.divisor_of(witness) == rest
        ), {}

    return Op(
        f"break.{index}.g{graph.betti_number()}",
        lambda: breakdiv.break_divisor_decompose(graph, d),
        certify,
    )


def ladder_kernels(seed: int) -> Workload:
    principal, breaks = corpus.ladder_kernels(seed)
    ops = [_principal_op(k, item) for k, item in enumerate(principal)] + [_break_op(k, item) for k, item in enumerate(breaks)]
    return Workload(ops)


def build(name: str, seed: int) -> Workload:
    builders = {
        "tate-leaf": tate_leaf,
        "seeded-skeleta": seeded_skeleta,
        "ladder-kernels": ladder_kernels,
    }
    return builders[name](seed)
