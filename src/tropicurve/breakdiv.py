"""Break divisors: recognition and the canonical decomposition.

Every degree-g divisor class on a metric graph contains exactly one break
divisor, an effective divisor placing one point on each closed edge of some
spanning-tree complement (An-Baker-Kuperberg-Shokrieh, arXiv 1304.4259).
The decomposition is computed exactly on the period lattice of the graph
itself, `MetricGraph.cycle_space`: the point on complement edge i sits at
offset t_i from its a end, and d minus those points is principal exactly
when Z t = w - period * k for an integer vector k, where w holds the cycle
integrals of d minus the a ends and Z the cycles' coefficients on the
complement, both in the basis of the breadth-first tree's cycles, which
the final principality check reads too.  `CycleSpace.cell_points` finds the t on their closed edges: each is
Z^-1 (w - period * k) for a k of one box search in the reference frame,
so every complement is searched once, with no rebasing and no gram matrix
read through a unimodular minor.  The integrals of d and of each a end
come as ints over common denominators, which sum to the w of a complement
over one denominator, and a complement without a point builds no
`Fraction`.  A break divisor does not depend on the model of the graph,
so no edge is subdivided.  The chip-firing layer independently verifies
the result on the discretization lattice, where the sparse elimination of
`linalg` keeps the reduced Laplacian's rows a few entries wide.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
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
from .graphs import GraphPoint, MetricGraph

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
    # assignments in the order of a depth-first search over the chips with
    # the fewest candidate edges first; the first complement found is the
    # certificate
    order = sorted(range(g), key=lambda i: len(candidates[i]))
    for choice in product(*(candidates[i] for i in order)):
        edge_set = sorted(set(choice))
        if len(edge_set) == g and graph.spanning_tree_complement(edge_set):
            return BreakCheck(True, certificate=tuple(edge_set))
    return BreakCheck(False, reason="no complement assignment")


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
    cs = graph.cycle_space
    root = GraphPoint.at_vertex(cs.order[0])
    # integrals of d - g root, over den = scale * D, and of root - v per a
    # end v, which are over D and taken times scale; d minus the a ends of a
    # complement is their sum
    _chain, w, den = cs.integrals([*d.terms, (root, -g)])
    scale = den // cs.denominator
    refs = {None: w}
    for v in {e.a for e in graph.edges.values()}:
        _chain, w, _den = cs.integrals([(root, 1), (GraphPoint.at_vertex(v), -1)])
        refs[v] = [scale * x for x in w]
    found: set[Divisor] = set()
    for comp in graph.all_complements():
        w = [sum(col) for col in zip(refs[None], *(refs[graph.edges[eid].a] for eid in comp))]
        for t in cs.cell_points(comp, w, scale):
            terms = [(GraphPoint.on_edge(eid, Fraction(x, den)), 1) for eid, x in zip(comp, t)]
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
