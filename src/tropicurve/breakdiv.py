"""Break divisors: recognition and the canonical decomposition.

Every degree-g divisor class on a metric graph contains exactly one break
divisor, an effective divisor placing one point on each closed edge of some
spanning-tree complement.  The decomposition is computed exactly on the
cycle space (`graphs.CycleSpace`) of the model subdivided at the support:
for each complement set, the point on complement edge i sits at offset t_i
from its a end, and d minus those points is principal exactly when
t = w - period * k for an integer vector k, where w pairs an integer chain
bounded by d minus the a ends with the fundamental cycles.  The points lie
on their closed edges for the k in a box, found by enumerating its integer
points.  The chip-firing layer independently verifies the result on the
discretization lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import chipfiring
from .divisors import (
    Divisor,
    PLFunction,
    construct_pl_with_divisor,
    is_principal,
    make_divisor,
)
from .errors import CertificateFailure, WrongDegree
from .graphs import CycleSpace, GraphPoint, MetricGraph
from .linalg import integer_points_in_box

VERIFY_LATTICE_CAP = 2000  # max discrete vertices for the chip-firing cross-check


@dataclass(frozen=True)
class BreakCheck:
    ok: bool
    certificate: Optional[tuple[str, ...]] = None
    reason: str = ""

    def __bool__(self):
        return self.ok


def is_break_divisor(graph: MetricGraph, b: Divisor) -> BreakCheck:
    """Whether b places one point (with multiplicity) on each closed edge of
    a spanning-tree complement; the certificate is the edge set."""
    b = make_divisor(graph, b.terms)
    if not b.is_effective() and not b.is_zero():
        return BreakCheck(False, reason="not effective")
    g = graph.betti_number()
    if b.degree() != g:
        return BreakCheck(False, reason=f"degree {b.degree()} != genus {g}")
    if g == 0:
        return BreakCheck(True, certificate=())
    points: list[GraphPoint] = []
    for pt, c in b.terms:
        points.extend([pt] * c)
    candidates: list[list[str]] = []
    for pt in points:
        if pt.is_vertex:
            candidates.append(sorted(graph.incident_edges(pt.vertex)))
        else:
            candidates.append([pt.edge])
    order = sorted(range(g), key=lambda i: len(candidates[i]))
    chosen: list[str] = []
    used: set[str] = set()

    def assign(k: int) -> Optional[tuple[str, ...]]:
        if k == g:
            edge_set = sorted(used)
            if graph.spanning_tree_complement(edge_set):
                return tuple(edge_set)
            return None
        for eid in candidates[order[k]]:
            if eid in used:
                continue
            used.add(eid)
            chosen.append(eid)
            found = assign(k + 1)
            if found is not None:
                return found
            chosen.pop()
            used.remove(eid)
        return None

    cert = assign(0)
    if cert is None:
        return BreakCheck(False, reason="no complement assignment")
    return BreakCheck(True, certificate=cert)


def break_divisor_decompose(
    graph: MetricGraph, d: Divisor
) -> tuple[Divisor, PLFunction]:
    """The unique break divisor B with d - B principal, plus the witness.

    For genus zero the break divisor is empty and the witness exhibits the
    principality of d itself.
    """
    d = make_divisor(graph, d.terms)
    g = graph.betti_number()
    if d.degree() != g:
        raise WrongDegree(f"divisor degree {d.degree()} != genus {g}")
    if g == 0:
        return Divisor.zero(), construct_pl_with_divisor(graph, d)
    # model: subdivide at the interior support so integer chains exist
    interior = [pt for pt in d.support() if not pt.is_vertex]
    model = graph.subdivide_many(interior)
    dm = make_divisor(model, d.terms)
    # map model edges back to the caller's frames
    back: dict[str, tuple[str, Fraction]] = {}
    for eid in graph.edges:
        for _kind, sub, lo, _hi in model.segments_of(eid):
            back[sub] = (eid, lo)

    found: set[Divisor] = set()
    for comp in model.all_complements():
        cs = CycleSpace(model, [eid for eid in model.edges if eid not in comp])
        base = Divisor([(GraphPoint.at_vertex(model.edges[eid].a), 1) for eid in comp])
        w = cs.pairing(cs.chain({pt.vertex: c for pt, c in (dm - base).terms}))
        lengths = [model.edges[eid].length for eid in comp]
        lower = [w[i] - lengths[i] for i in range(g)]
        for k in integer_points_in_box(cs.period, lower, w):
            t = [w[i] - sum(cs.period[i][j] * k[j] for j in range(g)) for i in range(g)]
            terms = []
            for i, eid in enumerate(comp):
                orig, lo = back[eid]
                terms.append((GraphPoint.on_edge(orig, lo + t[i]), 1))
            found.add(make_divisor(graph, terms))
    if len(found) != 1:
        raise CertificateFailure(f"expected one break divisor in the class, found {found}")
    (b,) = found
    res = is_principal(graph, d - b)
    if not res.principal:
        raise CertificateFailure("decomposition produced a non-principal difference")
    if not is_break_divisor(graph, b).ok:
        raise CertificateFailure("decomposition produced a non-break divisor")
    _verify_on_lattice(graph, d, b)
    return b, res.witness


def _verify_on_lattice(graph: MetricGraph, d: Divisor, b: Divisor) -> None:
    """Cross-check d ~ b by chip-firing on the discretization lattice."""
    spacing = chipfiring.lattice_spacing(graph, [d, b])
    size = sum(e.length / spacing for e in graph.edges.values())
    if size > VERIFY_LATTICE_CAP:
        return
    dg, locate = chipfiring.lattice_model(graph, spacing)
    chips_d = chipfiring.chips_of(dg, locate, d)
    chips_b = chipfiring.chips_of(dg, locate, b)
    if not chipfiring.laplacian_equivalent(dg, chips_d, chips_b):
        raise CertificateFailure("lattice chip-firing check failed")
