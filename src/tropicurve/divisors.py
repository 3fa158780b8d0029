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
spanning tree.

All of it runs in integers over common denominators.  A divisor whose
points are already canonical on the graph is read as it is; any other is
re-anchored first.  `CycleSpace.integrals` gives w as numerators over den,
the lcm of the common denominator D of the lengths and of the chips'
offsets.  The period system times den is then `CycleSpace._gram` * y =
-w for y = k * den / D, as `_gram` is D * period: ints on both sides,
which `linalg.solve_linear` solves by fraction-free forward elimination
and integer back substitution.  The slopes are summed as numerators over
one common denominator q of the k_j, and the divisor is principal exactly
when q divides every one.  The vertex values are summed over the lcm of
den and the denominator of the basepoint's offset.  A `Fraction` is built
only for a reported obstruction and for each vertex value of the witness.

The slopes, the obstruction and the witness are unique, so they do not
depend on the tree, and principality reads `MetricGraph.cycle_space`, built
once per graph on a breadth-first tree's short cycles: on a ladder the
period matrix is tridiagonal, where the Kruskal tree by edge id makes it
dense, and the forward elimination keeps the band.  The lattice search of
`_corrected_witness` and the break search of `breakdiv` read the same
cached cycle space, so a ramp or a decomposition and its principality check
share one.  Only the complement of `select_pillars` keeps
`canonical_spanning_tree()`, since its pillars depend on the tree.
"""

from __future__ import annotations

import math
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
from .graphs import ExtendedGraph, GraphPoint, MetricGraph, validate_pillar_points
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
        """The piece [lo, hi], read from the start: the independent form
        of `cut` that tests check it against."""
        inner = tuple(b - lo for b in self.breaks if lo < b < hi)
        slopes = []
        for b, s in zip(self.breaks + (None,), self.slopes):
            if b is not None and b <= lo:
                continue
            slopes.append(s)
            if b is None or b >= hi:
                break
        return EdgeProfile(self.value_at(lo), inner, tuple(slopes))

    def cut(self, spans: Sequence[tuple[Fraction, Fraction]]) -> list["EdgeProfile"]:
        """The profiles of consecutive pieces [lo, hi] of the edge, the
        first from offset 0, read in one walk over the breaks: each piece
        starts at the value the walk has reached, and its end value, the
        next piece's start, is kept as its `end_value` memo for the length
        hi - lo."""
        breaks, slopes = self.breaks, self.slopes
        out = []
        k, x, val = 0, 0, self.start  # next break, walk offset, value there
        for lo, hi in spans:
            if k < len(breaks) and breaks[k] == lo:  # a cut at a break
                k += 1
            first, start = k, val
            while k < len(breaks) and breaks[k] < hi:
                if slopes[k]:
                    val += slopes[k] * (breaks[k] - x)
                x, k = breaks[k], k + 1
            if slopes[k]:
                val += slopes[k] * (hi - x)
            x = hi
            piece = EdgeProfile(start, tuple(b - lo for b in breaks[first:k]), slopes[first : k + 1])
            object.__setattr__(piece, "_end", (hi - lo, val))
            out.append(piece)
        return out


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

    def cut(self, spans: Sequence[tuple[Fraction, Optional[Fraction]]]) -> list[Union["RayProfile", EdgeProfile]]:
        """The consecutive pieces [lo, hi] of the ray, the first from
        offset 0: a one-slope edge profile per finite stub, its end value,
        the next piece's start, kept as its `end_value` memo, and a ray for
        the unbounded tail (hi None)."""
        out: list[Union[RayProfile, EdgeProfile]] = []
        val = self.start
        for lo, hi in spans:
            if hi is None:
                out.append(RayProfile(val, self.slope))
                continue
            piece = EdgeProfile(val, (), (self.slope,))
            if self.slope:
                val += self.slope * (hi - lo)
            object.__setattr__(piece, "_end", (hi - lo, val))
            out.append(piece)
        return out

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
        _vertex_values: dict[str, Fraction] | None = None,
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
        self._vertex_values = self._read_vertex_values(_vertex_values)

    def _read_vertex_values(self, trusted: dict[str, Fraction] | None) -> dict[str, Fraction]:
        """The value at every finite vertex: `trusted`, from a builder that
        derived them, else read from the profiles' ends and checked for
        continuity.  Breakpoints are checked to lie inside their edge."""
        fin = self.domain.finite
        vals = {} if trusted is None else trusted
        for eid, e in fin.edges.items():
            prof = self.edge_profiles[eid]
            if prof.breaks and not (0 < prof.breaks[0] and prof.breaks[-1] < e.length):
                raise InvalidOffset(f"breakpoints of edge {eid!r} leave (0, {e.length})")
            if trusted is None:
                for v, val in ((e.a, prof.start), (e.b, prof.end_value(e.length))):
                    if (held := vals.setdefault(v, val)) is not val and held != val:
                        raise DiscontinuousFunction(
                            f"value mismatch at vertex {v!r}: {vals[v]} vs {val}"
                        )
        if trusted is None:
            if not fin.edges:
                # single-vertex finite part: anchor from ray starts
                for rid, r in self.domain.rays.items():
                    vals.setdefault(r.attach, self.ray_profiles[rid].start)
            for rid, r in self.domain.rays.items():
                if (start := self.ray_profiles[rid].start) is not vals[r.attach] and start != vals[r.attach]:
                    raise DiscontinuousFunction(
                        f"ray {rid!r} start disagrees with vertex {r.attach!r}"
                    )
        return vals

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

    @staticmethod
    def zero(domain: Domain) -> "PLFunction":
        """The zero function on `domain`: the base of a bump built alone."""
        edges = {eid: EdgeProfile(Fraction(0), (), (0,)) for eid in domain.finite.edges}
        return PLFunction(domain, edges, {rid: RayProfile(Fraction(0), 0) for rid in domain.rays})

    def add_trapezoids(self, bumps: Iterable[tuple[str, Sequence, int]]) -> "PLFunction":
        """The library's one bump constructor: this function plus the trapezoid
        of every (frame, offsets, slope) in `bumps`, checked for continuity once.

        The offsets x1 < x2 < x3 < x4 are in the frame of `frame`, an edge or
        ray id that may have been subdivided since (a subdivided ray is a
        finite stub plus an unbounded tail).  The bump rises with the given
        slope on [x1,x2], plateaus, and returns on [x3,x4]; its divisor is
        slope * (x1 - x2 - x3 + x4).  Its support may cross subdivision
        vertices: it is merged into every current edge it meets, and each
        ray attached at a vertex it reaches starts higher by its value there
        (a ray that no bump reaches keeps its `RayProfile`).  The bump lifts
        to a function on the curve because its whole support lies in one
        root frame, an edge or ray of the input skeleton: subdivision
        vertices inside it are not vertices of the curve's skeleton.

        Raises InvalidPillars when a bump does not have four offsets, or
        they do not increase, leave the frame, rise and fall unequally, or
        reach the unbounded tail of a ray.
        """
        profiles = dict(self.edge_profiles)
        raised: dict[str, Fraction] = {}
        for frame, offsets, slope in bumps:
            for cid, prof in _trapezoid_pieces(self.domain, frame, offsets, slope):
                profiles[cid] = _merged(profiles[cid], prof)
                # zero at its frame's ends, a bump raises a vertex as one piece's a end
                a = self.domain.finite.edges[cid].a
                raised[a] = raised.get(a, 0) + prof.start
        rays = dict(self.ray_profiles)
        for rid, r in self.domain.rays.items():
            if shift := raised.get(r.attach):
                rays[rid] = RayProfile(rays[rid].start + shift, rays[rid].slope)
        return PLFunction(self.domain, profiles, rays)

    # -- transport across refinements -----------------------------------------------------

    def transport(
        self, new_domain: Domain, new_ray_slopes: Mapping[str, int] | None = None
    ) -> "PLFunction":
        """Re-express this function on a refinement of its domain: how a
        function gains rays.  Called by `tropicalize.assemble`, once per
        pipeline coordinate, and by the input builder `synthesis.tate_demo`.

        An edge id still current in the new domain keeps its `EdgeProfile`
        object, and a ray id that is still a ray keeps its `RayProfile`;
        only ids the refinement retired are cut into the profiles of their
        current pieces, each retired profile in one walk over its breaks
        (`cut`), which leaves every piece's end value in its `end_value`
        memo.  Rays of the new domain that do not descend from the old one
        get the slope given in `new_ray_slopes` (default 0, a constant
        extension).  The result is checked for continuity on every edge,
        shared profiles included; a cut piece's end is read from its memo,
        not walked again.

        Precondition: every edge of the new domain descends from an edge or
        ray of this function's domain, so no ray attached after that domain
        was cut since; DiscontinuousFunction names an edge that does not.
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
                segs = new_domain.segments_of(old)
                pieces = prof.cut([(lo, hi) for _kind, _cid, lo, hi in segs])
                for (kind, cid, _lo, _hi), piece in zip(segs, pieces):
                    (rays if kind == "ray" else profiles)[cid] = piece
        if uncovered := new_fin.edges.keys() - profiles.keys():
            raise DiscontinuousFunction(f"edge {min(uncovered)!r} descends from no edge or ray of the domain")
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


def _merged(pa: EdgeProfile, pb: EdgeProfile) -> EdgeProfile:
    """The sum of two profiles of one edge, on the union of their breaks."""
    breaks = tuple(sorted(set(pa.breaks) | set(pb.breaks)))
    slopes = tuple(pa.slope_at(x, +1) + pb.slope_at(x, +1) for x in (Fraction(0),) + breaks)
    return EdgeProfile(pa.start + pb.start, breaks, slopes)


def _trapezoid_pieces(domain: Domain, frame: str, offsets: Sequence, slope: int):
    """(current edge id, profile) of a bump on every current edge of its
    frame that meets its support, after the checks `PLFunction.add_trapezoids`
    documents; the bump is zero on the others."""
    xs = tuple(rat(x) for x in offsets)
    if len(xs) != 4:
        raise InvalidPillars(f"trapezoid needs four offsets on {frame!r}, got {len(xs)}")
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
    for _kind, cid, lo, hi in segs:
        if hi is None:
            if x4 > lo:
                raise InvalidPillars(f"offsets {offsets} reach the unbounded tail of {frame!r}")
        elif lo < x4 and x1 < hi:
            inner = [x for x in xs if lo < x < hi]
            start = slope * (min(max(lo, x1), x2) - x1 - min(max(lo, x3), x4) + x3)
            slopes = tuple(shape[bisect_right(xs, x)] for x in [lo] + inner)
            yield cid, EdgeProfile(start, tuple(x - lo for x in inner), slopes)


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


def _is_canonical(graph: MetricGraph, d: Divisor) -> bool:
    """Whether every point of d is as `make_divisor` leaves it on graph: a
    vertex of graph, or a point strictly inside one of its current edges."""
    edges, adjacency = graph.edges, graph.adjacency
    return all(
        pt.vertex in adjacency if pt.is_vertex else pt.edge in edges and 0 < pt.offset < edges[pt.edge].length
        for pt, _c in d.terms
    )


def _interior_chips(d: Divisor) -> dict[str, list[tuple[Fraction, int]]]:
    """The chips of a canonical divisor inside each edge, by offset: the
    terms of a divisor are sorted, so one edge's chips come by offset."""
    interior: dict[str, list[tuple[Fraction, int]]] = {}
    for pt, c in d.terms:
        if not pt.is_vertex:
            interior.setdefault(pt.edge, []).append((pt.offset, c))
    return interior


def _solve_slopes(graph: MetricGraph, d: Divisor):
    """First-piece slope of every edge, as numerators over one common
    denominator q: the unique solution of the divisor equations at the
    vertices with zero integral around every cycle, solved on the graph's
    cycle space.  Returns the slopes, q and the common denominator `den` of
    the cycle integrals."""
    cs = graph.cycle_space
    # minus the boundary of the slopes is d, so the peeled slopes are the
    # tree chain of -d, with each edge's interior chips counted at its b end
    tree_chain, w, den = cs.integrals((pt, -c) for pt, c in d.terms)
    slopes = dict.fromkeys(graph.edges, 0) | tree_chain
    if not cs.cycles:
        return slopes, 1, den
    # period * k = -w / den with period = _gram / D, so _gram * y = -w for
    # y = k * den / D: k_j is y_j over den / D
    y = solve_linear(cs._gram, [-x for x in w])
    if y is None:
        raise CertificateFailure("period matrix of the cycle space is singular")
    common = math.lcm(*(yj.denominator for yj in y))
    q = common * (den // cs.denominator)
    slopes = {eid: q * s for eid, s in slopes.items()}
    for yj, cyc in zip(y, cs.cycles):
        kj = yj.numerator * (common // yj.denominator)
        for eid, c in cyc.items():
            slopes[eid] += kj * c
    return slopes, q, den


def is_principal(
    graph: MetricGraph, d: Divisor, basepoint: GraphPoint | None = None
) -> PrincipalityResult:
    """Decide principality; on success the result carries a witness with
    value 0 at the basepoint (default: the lexicographically least vertex)."""
    if d.degree() != 0:
        raise NonzeroDegree(f"divisor has degree {d.degree()}")
    if not _is_canonical(graph, d):
        d = make_divisor(graph, d.terms)  # re-anchor points after any refinement
    slopes, q, den = _solve_slopes(graph, d)
    for eid, s in slopes.items():
        if s % q:
            return PrincipalityResult(False, obstruction=(eid, Fraction(s, q)))
    slopes = {eid: s // q for eid, s in slopes.items()}
    return PrincipalityResult(True, witness=_integrate(graph, slopes, d, den, basepoint))


def _integrate(
    graph: MetricGraph,
    slopes: Mapping[str, int],
    d: Divisor,
    den: int,
    basepoint: GraphPoint | None,
) -> PLFunction:
    """The function with the given first-piece slopes and the chips of the
    canonical divisor d inside edges, 0 at the basepoint (default: the
    tree's root, the least vertex).  Vertex values are read down the tree
    of the graph's cycle space, each from its parent's, as numerators over
    den, the common denominator of the lengths and the chips' offsets,
    first taken to its lcm with the denominator of the basepoint's offset;
    they are shifted to the basepoint, and each is built as a `Fraction`
    once and handed to the function as it is."""
    cs = graph.cycle_space
    interior = _interior_chips(d)
    at = None if basepoint is None else graph.canonical_point(basepoint)
    if at is not None and not at.is_vertex:
        den = math.lcm(den, at.offset.denominator)
    unit = den // cs.denominator  # a scaled length times unit is over den

    def rise(eid: str, off: int) -> int:
        # the gain from the a end of edge eid to offset off / den along it, over den
        gain = slopes[eid] * off
        for x, c in interior.get(eid, ()):
            x = x.numerator * (den // x.denominator)
            if x < off:
                gain += c * (off - x)
        return gain

    vals: dict[str, int] = {cs.order[0]: 0}
    for v in cs.order[1:]:
        e = graph.edges[cs.up[v]]
        delta = rise(e.id, cs.scaled[e.id] * unit)
        vals[v] = vals[e.a] + delta if e.b == v else vals[e.b] - delta
    zero = 0
    if at is not None and at.is_vertex:
        zero = vals[at.vertex]
    elif at is not None:
        off = at.offset
        zero = vals[graph.edges[at.edge].a] + rise(at.edge, off.numerator * (den // off.denominator))
    values = {v: Fraction(x - zero, den) for v, x in vals.items()}
    profiles: dict[str, EdgeProfile] = {}
    for eid, e in graph.edges.items():
        pts = interior.get(eid, ())
        breaks = tuple(x for x, _c in pts)
        slope_list = [slopes[eid]]
        for _x, c in pts:
            slope_list.append(slope_list[-1] + c)
        profiles[eid] = EdgeProfile(values[e.a], breaks, tuple(slope_list))
    return PLFunction(graph, profiles, {}, _vertex_values=values)


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
