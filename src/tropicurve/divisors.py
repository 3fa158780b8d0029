"""Divisors and piecewise linear functions on metric graphs.

A divisor is a finite formal integer combination of rational points.  A PL
function is stored per edge: a start value at the a-endpoint, interior
breakpoint offsets, and the integer slopes between them; rays carry a single
eventual slope.  Principality of a degree-zero divisor is decided on the
cycle space (`graphs.CycleSpace`): the first-piece slopes must satisfy the
divisor equations at every vertex and integrate to zero around every
fundamental cycle.  `CycleSpace.integrals` peels the vertex charges along a
spanning tree, with each chip inside an edge counted at its b end, which
gives an integer solution of the vertex equations, and returns w, the cycle
integrals of the peeled slopes.  Adding sum_j k_j z_j over the fundamental
cycles z_j, with k solving the g x g period system period * k = -w, gives
the unique rational solution, and the divisor is principal exactly when it
is integral; the witness's vertex values are then read down the same
spanning tree.  The period matrix is summed in integers over the common
denominator of the lengths, and `linalg.solve_linear` solves the system by
fraction-free elimination, so no step normalises a `Fraction`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import (
    CertificateFailure,
    DiscontinuousFunction,
    InvalidOffset,
    InvalidPillars,
    NonIntegralCoefficient,
    NonzeroDegree,
    NotComplement,
    NotPrincipal,
)
from .graphs import CycleSpace, ExtendedGraph, GraphPoint, MetricGraph, validate_pillar_points
from .linalg import solve_linear
from .rationals import MINUS_INF, PLUS_INF, ExtRational, rat

Domain = Union[MetricGraph, ExtendedGraph]


class Divisor:
    """Immutable formal sum of canonical graph points with integer
    coefficients; a coefficient that is not an integer raises
    NonIntegralCoefficient."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[GraphPoint, int]]):
        acc: dict[GraphPoint, int] = {}
        for pt, c in terms:
            if c == 0:
                continue
            if (k := int(c)) != c:
                raise NonIntegralCoefficient(f"coefficient {c} at {pt!r} is not an integer")
            acc[pt] = acc.get(pt, 0) + k
        self._terms = tuple(
            sorted(((p, c) for p, c in acc.items() if c != 0), key=lambda t: t[0])
        )

    @staticmethod
    def zero() -> "Divisor":
        return Divisor(())

    @property
    def terms(self) -> tuple[tuple[GraphPoint, int], ...]:
        return self._terms

    def coeff(self, pt: GraphPoint) -> int:
        for p, c in self._terms:
            if p == pt:
                return c
        return 0

    def support(self) -> list[GraphPoint]:
        return [p for p, _ in self._terms]

    def degree(self) -> int:
        return sum(c for _, c in self._terms)

    def is_effective(self) -> bool:
        return all(c > 0 for _, c in self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "Divisor") -> "Divisor":
        return Divisor(self._terms + other._terms)

    def __sub__(self, other: "Divisor") -> "Divisor":
        return Divisor(self._terms + tuple((p, -c) for p, c in other._terms))

    def __neg__(self) -> "Divisor":
        return Divisor(tuple((p, -c) for p, c in self._terms))

    def __eq__(self, other):
        return isinstance(other, Divisor) and self._terms == other._terms

    def __hash__(self):
        return hash(self._terms)

    def __repr__(self):
        if not self._terms:
            return "Divisor(0)"
        bits = []
        for p, c in self._terms:
            where = p.vertex if p.is_vertex else f"{p.edge}@{p.offset}"
            bits.append(f"{c:+d}({where})")
        return "Divisor(" + " ".join(bits) + ")"


def make_divisor(domain: Domain, items: Iterable[tuple[GraphPoint, int]]) -> Divisor:
    """Canonicalize points against a graph and collect coefficients."""
    return Divisor(((domain.canonical_point(p), c) for p, c in items))


@dataclass(frozen=True)
class EdgeProfile:
    """PL restriction to one finite edge, in the a -> b frame."""

    start: Fraction
    breaks: tuple[Fraction, ...]
    slopes: tuple[int, ...]

    def __post_init__(self):
        if len(self.slopes) != len(self.breaks) + 1:
            raise DiscontinuousFunction("profile needs len(breaks)+1 slopes")
        if any(self.breaks[i] >= self.breaks[i + 1] for i in range(len(self.breaks) - 1)):
            raise DiscontinuousFunction("breakpoints must be strictly increasing")
        if any(not isinstance(s, int) for s in self.slopes):
            raise DiscontinuousFunction("slopes must be integers")

    def value_at(self, off: Fraction) -> Fraction:
        val = self.start
        prev = Fraction(0)
        for i, brk in enumerate(self.breaks):
            if off <= brk:
                return val + self.slopes[i] * (off - prev)
            val += self.slopes[i] * (brk - prev)
            prev = brk
        return val + self.slopes[-1] * (off - prev)

    def end_value(self, length: Fraction) -> Fraction:
        """Value at offset `length`.  The last one read is kept on the
        profile: a profile that a transport keeps is read at its edge's
        length again by every `PLFunction` built on it."""
        memo = self.__dict__.get("_end")
        if memo is None or (memo[0] is not length and memo[0] != length):
            memo = (length, self.value_at(length))
            object.__setattr__(self, "_end", memo)
        return memo[1]

    def slope_at(self, off: Fraction, side: int = +1) -> int:
        """Slope on the piece to the right (side=+1) or left (side=-1) of off."""
        for i, brk in enumerate(self.breaks):
            if off < brk or (off == brk and side < 0):
                return self.slopes[i]
        return self.slopes[-1]

    def sub_profile(self, lo: Fraction, hi: Fraction) -> "EdgeProfile":
        inner = tuple(b - lo for b in self.breaks if lo < b < hi)
        slopes = []
        for b, s in zip(self.breaks + (None,), self.slopes):
            if b is not None and b <= lo:
                continue
            slopes.append(s)
            if b is None or b >= hi:
                break
        return EdgeProfile(self.value_at(lo), inner, tuple(slopes))


@dataclass(frozen=True)
class RayProfile:
    """PL restriction to an infinite leaf edge: a single eventual slope."""

    start: Fraction
    slope: int

    def __post_init__(self):
        if not isinstance(self.slope, int):
            raise DiscontinuousFunction("slopes must be integers")

    def value_at(self, off: Fraction) -> Fraction:
        return self.start + self.slope * off

    def sub_profile(self, lo: Fraction, hi: Optional[Fraction]) -> Union["RayProfile", EdgeProfile]:
        """The piece [lo, hi] of the ray: a ray again when hi is None (the
        unbounded tail), else a one-slope edge profile (a finite stub)."""
        if hi is None:
            return RayProfile(self.value_at(lo), self.slope)
        return EdgeProfile(self.value_at(lo), (), (self.slope,))

    def leaf_value(self) -> ExtRational:
        if self.slope > 0:
            return PLUS_INF
        if self.slope < 0:
            return MINUS_INF
        return ExtRational.finite(self.start)


class PLFunction:
    """Continuous piecewise linear function with integer slopes."""

    def __init__(
        self,
        domain: Domain,
        edge_profiles: Mapping[str, EdgeProfile],
        ray_profiles: Mapping[str, RayProfile] | None = None,
        _validated: bool = False,
    ):
        self.domain = domain
        fin = domain.finite
        self.edge_profiles = dict(edge_profiles)
        self.ray_profiles = dict(ray_profiles or {})
        if set(fin.edges) != set(self.edge_profiles):
            missing = set(fin.edges) ^ set(self.edge_profiles)
            raise DiscontinuousFunction(f"edge/profile mismatch: {sorted(missing)}")
        if set(domain.rays) != set(self.ray_profiles):
            missing_r = set(domain.rays) ^ set(self.ray_profiles)
            raise DiscontinuousFunction(f"ray/profile mismatch: {sorted(missing_r)}")
        self._vertex_values: dict[str, Fraction] = {}
        self._compute_vertex_values(check=not _validated)

    def _compute_vertex_values(self, check: bool):
        fin = self.domain.finite
        vals = self._vertex_values
        for eid, e in fin.edges.items():
            prof = self.edge_profiles[eid]
            if prof.breaks and not (0 < prof.breaks[0] and prof.breaks[-1] < e.length):
                raise InvalidOffset(f"breakpoints of edge {eid!r} leave (0, {e.length})")
            for v, val in ((e.a, prof.start), (e.b, prof.end_value(e.length))):
                if v in vals:
                    if check and vals[v] != val:
                        raise DiscontinuousFunction(
                            f"value mismatch at vertex {v!r}: {vals[v]} vs {val}"
                        )
                else:
                    vals[v] = val
        if not fin.edges:
            # single-vertex finite part: anchor from ray starts
            for rid, r in self.domain.rays.items():
                vals.setdefault(r.attach, self.ray_profiles[rid].start)
        if check:
            for rid, r in self.domain.rays.items():
                if self.ray_profiles[rid].start != vals[r.attach]:
                    raise DiscontinuousFunction(
                        f"ray {rid!r} start disagrees with vertex {r.attach!r}"
                    )

    # -- evaluation ---------------------------------------------------------------

    def vertex_value(self, v: str) -> Fraction:
        return self._vertex_values[v]

    def value(self, pt: GraphPoint):
        """Value at a point; ExtRational at infinite vertices."""
        cpt = self.domain.canonical_point(pt)
        if cpt.is_vertex:
            if self.domain.is_infinite_vertex(cpt.vertex):
                return self.ray_profiles[self.domain.ray_at_leaf(cpt.vertex).id].leaf_value()
            return self._vertex_values[cpt.vertex]
        if cpt.edge in self.ray_profiles:
            return self.ray_profiles[cpt.edge].value_at(cpt.offset)
        return self.edge_profiles[cpt.edge].value_at(cpt.offset)

    # -- divisor ---------------------------------------------------------------------

    def divisor(self) -> Divisor:
        fin = self.domain.finite
        terms: list[tuple[GraphPoint, int]] = []
        vertex_acc: dict[str, int] = {v: 0 for v in fin.vertices}
        for eid, e in fin.edges.items():
            prof = self.edge_profiles[eid]
            vertex_acc[e.a] += prof.slopes[0]
            vertex_acc[e.b] -= prof.slopes[-1]
            for i, brk in enumerate(prof.breaks):
                jump = prof.slopes[i + 1] - prof.slopes[i]
                if jump:
                    terms.append((GraphPoint.on_edge(eid, brk), jump))
        for rid, r in self.domain.rays.items():
            s = self.ray_profiles[rid].slope
            vertex_acc[r.attach] += s
            if s:
                terms.append((GraphPoint.at_vertex(r.leaf), -s))
        for v, c in vertex_acc.items():
            if c:
                terms.append((GraphPoint.at_vertex(v), c))
        return Divisor(terms)

    # -- algebra -----------------------------------------------------------------------

    def _zip(self, other: "PLFunction", op):
        if self.domain is not other.domain:
            raise DiscontinuousFunction("functions live on different graphs")
        fin = self.domain.finite
        profiles = {}
        for eid in fin.edges:
            pa, pb = self.edge_profiles[eid], other.edge_profiles[eid]
            breaks = tuple(sorted(set(pa.breaks) | set(pb.breaks)))
            samples = (Fraction(0),) + breaks
            slopes = tuple(op(pa.slope_at(x, +1), pb.slope_at(x, +1)) for x in samples)
            profiles[eid] = EdgeProfile(op(pa.start, pb.start), breaks, slopes)
        rays = {
            rid: RayProfile(
                op(self.ray_profiles[rid].start, other.ray_profiles[rid].start),
                op(self.ray_profiles[rid].slope, other.ray_profiles[rid].slope),
            )
            for rid in self.ray_profiles
        }
        return PLFunction(self.domain, profiles, rays, _validated=True)

    def __add__(self, other: "PLFunction") -> "PLFunction":
        return self._zip(other, lambda x, y: x + y)

    def __neg__(self) -> "PLFunction":
        profiles = {
            eid: EdgeProfile(-p.start, p.breaks, tuple(-s for s in p.slopes))
            for eid, p in self.edge_profiles.items()
        }
        rays = {rid: RayProfile(-p.start, -p.slope) for rid, p in self.ray_profiles.items()}
        return PLFunction(self.domain, profiles, rays, _validated=True)

    def add_constant(self, c) -> "PLFunction":
        c = rat(c)
        profiles = {
            eid: EdgeProfile(p.start + c, p.breaks, p.slopes)
            for eid, p in self.edge_profiles.items()
        }
        rays = {rid: RayProfile(p.start + c, p.slope) for rid, p in self.ray_profiles.items()}
        return PLFunction(self.domain, profiles, rays, _validated=True)

    # -- transport across refinements -----------------------------------------------------

    def transport(
        self, new_domain: Domain, new_ray_slopes: Mapping[str, int] | None = None
    ) -> "PLFunction":
        """Re-express this function on a refinement of its domain.

        An edge id still current in the new domain keeps its `EdgeProfile`
        object, and a ray id that is still a ray keeps its `RayProfile`;
        only ids the refinement retired are cut into the profiles of their
        current pieces.  Rays of the new domain that do not descend from the
        old one get the slope given in `new_ray_slopes` (default 0, a
        constant extension).  The result is checked for continuity on every
        edge, shared profiles included.
        """
        new_ray_slopes = dict(new_ray_slopes or {})
        new_fin = new_domain.finite
        new_rays = new_domain.rays
        profiles: dict[str, EdgeProfile] = {}
        rays: dict[str, RayProfile] = {}
        for old, prof in chain(self.edge_profiles.items(), self.ray_profiles.items()):
            if old in new_fin.edges:
                profiles[old] = prof
            elif old in new_rays:
                rays[old] = prof
            else:
                for kind, cid, lo, hi in new_domain.segments_of(old):
                    (rays if kind == "ray" else profiles)[cid] = prof.sub_profile(lo, hi)
        for rid, r in new_rays.items():
            if rid not in rays:
                # anchor from the first edge, in id order, at the attach vertex
                if adj := new_fin.adjacency[r.attach]:
                    e2 = new_fin.edges[adj[0][0]]
                    prof = profiles[e2.id]
                    start = prof.start if e2.a == r.attach else prof.end_value(e2.length)
                else:
                    start = next(iter(rays.values())).start if rays else Fraction(0)
                rays[rid] = RayProfile(start, new_ray_slopes.get(rid, 0))
        return PLFunction(new_domain, profiles, rays)


def trapezoid(domain: Domain, frame: str, offsets: Sequence, slope: int = 1) -> PLFunction:
    """Zero function plus a trapezoid bump along one edge or ray id.

    The offsets x1 < x2 < x3 < x4 are in the frame of `frame`, an edge or
    ray id that may have been subdivided since (a subdivided ray is a finite
    stub plus an unbounded tail).  The bump rises with the given slope on
    [x1,x2], plateaus, and returns on [x3,x4]; its divisor is
    slope * (x1 - x2 - x3 + x4).  The support may cross subdivision
    vertices, and every ray starts at its attach vertex's value.  The bump
    lifts to a function on the curve because its whole support lies in one
    root frame, an edge or ray of the input skeleton: subdivision vertices
    inside it are not vertices of the curve's skeleton.

    Raises InvalidPillars when the offsets do not increase, leave the
    frame, rise and fall unequally, or reach the unbounded tail of a ray.
    """
    xs = tuple(rat(x) for x in offsets)
    x1, x2, x3, x4 = xs
    segs = domain.segments_of(frame)
    end = segs[-1][3]
    if not (x1 < x2 < x3 < x4):
        raise InvalidPillars(f"offsets {offsets} do not increase on {frame!r}")
    if x1 < 0 or (end is not None and x4 > end):
        raise InvalidPillars(f"offsets {offsets} leave the frame of {frame!r}")
    if x2 - x1 != x4 - x3:
        raise InvalidPillars("trapezoid needs equal rise and fall lengths")
    shape = (0, slope, 0, -slope, 0)  # slope right of x: shape[#offsets <= x]

    def value(x: Fraction) -> Fraction:
        return slope * (min(max(x, x1), x2) - x1 - min(max(x, x3), x4) + x3)

    fin = domain.finite
    profiles = {eid: EdgeProfile(Fraction(0), (), (0,)) for eid in fin.edges}
    vals: dict[str, Fraction] = {}
    for _kind, cid, lo, hi in segs:
        if hi is None:
            if x4 > lo:
                raise InvalidPillars(f"offsets {offsets} reach the unbounded tail of {frame!r}")
            continue
        inner = [x for x in xs if lo < x < hi]
        profiles[cid] = EdgeProfile(
            value(lo),
            tuple(x - lo for x in inner),
            tuple(shape[bisect_right(xs, x)] for x in [lo] + inner),
        )
        e = fin.edges[cid]
        vals[e.a], vals[e.b] = value(lo), value(hi)
    rays = {rid: RayProfile(vals.get(r.attach, Fraction(0)), 0) for rid, r in domain.rays.items()}
    return PLFunction(domain, profiles, rays)


def divisor_of(f: PLFunction) -> Divisor:
    return f.divisor()


# -- principality ---------------------------------------------------------------------


@dataclass
class PrincipalityResult:
    principal: bool
    witness: Optional[PLFunction] = None
    obstruction: Optional[tuple[str, Fraction]] = None

    def __bool__(self):
        return self.principal


def _interior_chips(d: Divisor) -> dict[str, list[tuple[Fraction, int]]]:
    """The chips of a canonical divisor inside each edge, by offset."""
    interior: dict[str, list[tuple[Fraction, int]]] = {}
    for pt, c in d.terms:
        if not pt.is_vertex:
            interior.setdefault(pt.edge, []).append((pt.offset, c))
    for lst in interior.values():
        lst.sort()
    return interior


def _solve_slopes(graph: MetricGraph, d: Divisor):
    """First-piece slope of every edge: the unique solution of the divisor
    equations at the vertices with zero integral around every cycle.  Also
    returns the interior chips and the cycle space, whose tree the witness
    is integrated down."""
    interior = _interior_chips(d)
    # minus the boundary of the slopes is d, so the peeled slopes are the
    # tree chain of -d, with each edge's interior chips counted at its b end
    cs = CycleSpace(graph, graph.canonical_spanning_tree())
    tree_chain, w = cs.integrals((pt, -c) for pt, c in d.terms)
    slopes = dict.fromkeys(graph.edges, 0) | tree_chain
    if not cs.cycles:
        return slopes, interior, cs
    k = solve_linear(cs.period, [-x for x in w])
    if k is None:
        raise CertificateFailure("period matrix of the cycle space is singular")
    for kj, cyc in zip(k, cs.cycles):
        for eid, c in cyc.items():
            slopes[eid] += kj * c
    return slopes, interior, cs


def is_principal(
    graph: MetricGraph, d: Divisor, basepoint: GraphPoint | None = None
) -> PrincipalityResult:
    """Decide principality; on success the result carries a witness with
    value 0 at the basepoint (default: the lexicographically least vertex)."""
    if d.degree() != 0:
        raise NonzeroDegree(f"divisor has degree {d.degree()}")
    d = make_divisor(graph, d.terms)  # re-anchor points after any refinement
    slopes, interior, cs = _solve_slopes(graph, d)
    for eid, s in slopes.items():
        if s.denominator != 1:
            return PrincipalityResult(False, obstruction=(eid, s))
    return PrincipalityResult(True, witness=_integrate(cs, slopes, interior, basepoint))


def _integrate(
    cs: CycleSpace,
    slopes: Mapping[str, Fraction],
    interior: Mapping[str, list[tuple[Fraction, int]]],
    basepoint: GraphPoint | None,
) -> PLFunction:
    """The function with the given first-piece slopes and interior chips,
    0 at the basepoint (default: the tree's root, the least vertex).  Vertex
    values are read down the cycle space's tree, each from its parent's."""
    graph = cs.graph
    vals: dict[str, Fraction] = {cs.order[0]: Fraction(0)}
    for v in cs.order[1:]:
        e = graph.edges[cs.up[v]]
        delta = slopes[e.id] * e.length
        for x, c in interior.get(e.id, ()):
            delta += c * (e.length - x)
        vals[v] = vals[e.a] + delta if e.b == v else vals[e.b] - delta
    profiles: dict[str, EdgeProfile] = {}
    for eid, e in graph.edges.items():
        pts = interior.get(eid, ())
        breaks = tuple(x for x, _c in pts)
        slope_list = [int(slopes[eid])]
        for _x, c in pts:
            slope_list.append(slope_list[-1] + c)
        profiles[eid] = EdgeProfile(vals[e.a], breaks, tuple(slope_list))
    f = PLFunction(graph, profiles, {}, _validated=True)
    shift = -f.value(basepoint) if basepoint is not None else 0
    return f.add_constant(shift) if shift else f


def construct_pl_with_divisor(
    graph: MetricGraph, d: Divisor, basepoint: GraphPoint | None = None
) -> PLFunction:
    """The witness of d, 0 at the basepoint; raises NotPrincipal when d is
    not principal."""
    result = is_principal(graph, d, basepoint)
    if not result.principal:
        raise NotPrincipal(f"divisor is not principal; obstruction {result.obstruction}")
    return result.witness


def cor34_certificate(
    graph: MetricGraph,
    d: Divisor,
    complement_edges: Sequence[str],
    pillar_points: Sequence[Sequence[GraphPoint]],
) -> PLFunction:
    """Witness for d plus the pillar correction divisor.

    Requires d principal of degree zero, the given edges a spanning tree
    complement, and a valid four-point pillar tuple interior to each of
    them; returns the witness of
    d + sum_i (p_i1 + p_i4 - p_i2 - p_i3).
    """
    if not graph.spanning_tree_complement(complement_edges):
        raise NotComplement(f"edges {list(complement_edges)} do not close a spanning tree")
    if len(pillar_points) != len(complement_edges):
        raise InvalidPillars("one pillar tuple required per complement edge")
    if d.degree() != 0:
        raise NonzeroDegree(f"divisor has degree {d.degree()}")
    if not is_principal(graph, d).principal:
        raise NotPrincipal("base divisor is not principal")
    correction_terms: list[tuple[GraphPoint, int]] = []
    for eid, pts in zip(complement_edges, pillar_points):
        if not validate_pillar_points(graph, eid, pts):
            raise InvalidPillars(f"invalid pillar tuple on edge {eid!r}")
        p1, p2, p3, p4 = (graph.canonical_point(p) for p in pts)
        correction_terms += [(p1, 1), (p2, -1), (p3, -1), (p4, 1)]
    assembled = d + Divisor(correction_terms)
    return construct_pl_with_divisor(graph, assembled)
