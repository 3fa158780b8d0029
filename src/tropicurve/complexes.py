"""Weighted rational 1-complexes in a product of extended tropical lines.

Ambient space is [-inf, +inf]^n; strata are the sign patterns of infinite
coordinates.  A curve is a set of vertices (finite or infinite points) and
edges carrying primitive integer directions, positive integer weights, and
lattice lengths.  Checks: the balancing condition at finite vertices, and
smoothness (unit weights; at each finite vertex the outgoing directions
span a saturated lattice of rank valence-1; infinite vertices univalent).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .errors import DanglingEndpoint, InvalidOffset, UnknownVertex
from .linalg import is_saturated_span, primitive
from .rationals import ExtRational

Direction = tuple[int, ...]


@dataclass(frozen=True)
class TropPoint:
    """A point of the ambient tropical toric space.

    Finite points are plain coordinate vectors.  An infinite point lies in
    the boundary stratum of a ray direction; the stratum is the quotient
    of the ambient space by that direction, so the point carries an
    `anchor` (direction, canonical line representative) distinguishing
    parallel rays that diverge along distinct lines.
    """

    coords: tuple[ExtRational, ...]
    anchor: tuple | None = None

    @staticmethod
    def finite(values) -> "TropPoint":
        return TropPoint(tuple(ExtRational.finite(v) for v in values))

    @property
    def is_finite(self) -> bool:
        return all(c.is_finite for c in self.coords)

    def infinity_pattern(self) -> tuple[int, ...]:
        return tuple(c.sign for c in self.coords)

    def finite_coords(self) -> tuple[Fraction, ...]:
        if not self.is_finite:
            raise InvalidOffset("point has infinite coordinates")
        return tuple(c.value for c in self.coords)


@dataclass(frozen=True)
class TropEdge:
    """Edge from v1 toward v2 with a primitive direction in that sense.

    Infinite edges keep the infinite endpoint in v2 and have length None;
    the direction's support must match v2's infinity pattern sign for sign.
    """

    id: str
    v1: str
    v2: str
    direction: Direction
    weight: int
    length: Optional[Fraction]

    def endpoint_direction(self, v: str) -> Direction:
        if v == self.v1:
            return self.direction
        return tuple(-d for d in self.direction)


class TropicalCurve:
    def __init__(
        self,
        ambient_dim: int,
        vertices: Mapping[str, TropPoint],
        edges: Mapping[str, TropEdge],
        _validated: bool = False,
    ):
        self.ambient_dim = ambient_dim
        self.vertices = dict(sorted(vertices.items()))
        self.edges = dict(sorted(edges.items()))
        # each vertex's (edge id, other end) pairs, in edge-id order
        self._adjacency = {v: [] for v in self.vertices}
        for eid, e in self.edges.items():
            if e.v1 not in self._adjacency or e.v2 not in self._adjacency:
                raise DanglingEndpoint(f"edge {eid!r} references unknown vertex")
            self._adjacency[e.v1].append((eid, e.v2))
            self._adjacency[e.v2].append((eid, e.v1))
        if not _validated:
            self._validate()

    def _validate(self):
        n = self.ambient_dim
        for vid, pt in self.vertices.items():
            if len(pt.coords) != n:
                raise InvalidOffset(f"vertex {vid!r} has wrong dimension")
        for eid, e in self.edges.items():
            if len(e.direction) != n:
                raise InvalidOffset(f"edge {eid!r} direction has wrong dimension")
            if e.weight < 1:
                raise InvalidOffset(f"edge {eid!r} has nonpositive weight")
            m, _w = primitive(e.direction)
            if m != 1:
                raise InvalidOffset(f"edge {eid!r} direction is not primitive")
            p1, p2 = self.vertices[e.v1], self.vertices[e.v2]
            if not p1.is_finite:
                raise DanglingEndpoint(f"edge {eid!r} must start at a finite vertex")
            if p2.is_finite:
                if e.length is None or e.length <= 0:
                    raise InvalidOffset(f"finite edge {eid!r} needs positive length")
                a, b = p1.finite_coords(), p2.finite_coords()
                if tuple(x + e.length * d for x, d in zip(a, e.direction)) != b:
                    raise InvalidOffset(f"edge {eid!r} endpoints disagree with direction")
            else:
                if e.length is not None:
                    raise InvalidOffset(f"infinite edge {eid!r} must have length None")
                pattern = p2.infinity_pattern()
                for i, d in enumerate(e.direction):
                    want = 0 if d == 0 else (1 if d > 0 else -1)
                    if pattern[i] != want:
                        raise InvalidOffset(
                            f"edge {eid!r} direction support mismatches infinite end"
                        )
                    if d == 0 and p2.coords[i] != p1.coords[i]:
                        raise InvalidOffset(
                            f"edge {eid!r} finite limits disagree with start"
                        )
        self._check_connected()

    def _check_connected(self):
        if not self.vertices:
            raise DanglingEndpoint("curve needs at least one vertex")
        seen = set()
        start = next(iter(self.vertices))
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            for _eid, w in self._adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(self.vertices):
            raise DanglingEndpoint("curve is not connected")

    def incident(self, v: str) -> list[str]:
        """Ids of the edges at v, in edge-id order."""
        if v not in self._adjacency:
            raise UnknownVertex(f"unknown vertex {v!r}")
        return [eid for eid, _w in self._adjacency[v]]

    def is_infinite_vertex(self, v: str) -> bool:
        return not self.vertices[v].is_finite



# -- reports ----------------------------------------------------------------------


@dataclass(frozen=True)
class BalancingReport:
    balanced: bool
    defects: tuple[tuple[str, Direction], ...] = ()

    def __bool__(self):
        return self.balanced


@dataclass(frozen=True)
class VertexSmoothness:
    vertex: str
    smooth: bool
    reason: str = ""
    valence: int = 0
    rank: int = 0
    elementary_divisors: tuple[int, ...] = ()

    def __bool__(self):
        return self.smooth


@dataclass(frozen=True)
class SmoothnessReport:
    smooth: bool
    singular_vertices: tuple[VertexSmoothness, ...] = ()
    heavy_edges: tuple[str, ...] = ()

    def __bool__(self):
        return self.smooth


def check_balancing(curve: TropicalCurve) -> BalancingReport:
    """Weighted outgoing primitive directions must cancel at every finite
    vertex; infinite vertices are exempt."""
    defects = []
    for vid in curve.vertices:
        if curve.is_infinite_vertex(vid):
            continue
        total = [0] * curve.ambient_dim
        for eid in curve.incident(vid):
            e = curve.edges[eid]
            # an edge with both endpoints at vid cannot occur (no loops)
            d = e.endpoint_direction(vid)
            for i, x in enumerate(d):
                total[i] += e.weight * x
        if any(total):
            defects.append((vid, tuple(total)))
    return BalancingReport(not defects, tuple(defects))


def check_vertex_smooth(curve: TropicalCurve, v: str) -> VertexSmoothness:
    if curve.is_infinite_vertex(v):
        val = len(curve.incident(v))
        if val == 1:
            return VertexSmoothness(v, True, valence=1)
        return VertexSmoothness(
            v, False, reason=f"infinite vertex with valence {val}", valence=val
        )
    incident = curve.incident(v)
    val = len(incident)
    directions = [curve.edges[eid].endpoint_direction(v) for eid in incident]
    distinct = sorted(set(directions))
    if len(distinct) < val:
        return VertexSmoothness(
            v, False, reason="coincident outgoing directions", valence=val
        )
    ok, divisors = is_saturated_span(distinct)
    rank = len(divisors)
    if rank != val - 1:
        return VertexSmoothness(
            v,
            False,
            reason=f"rank {rank} != valence-1 = {val - 1}",
            valence=val,
            rank=rank,
            elementary_divisors=tuple(divisors),
        )
    if not ok:
        bad = max(divisors)
        return VertexSmoothness(
            v,
            False,
            reason=f"lattice not saturated: elementary divisor {bad}",
            valence=val,
            rank=rank,
            elementary_divisors=tuple(divisors),
        )
    return VertexSmoothness(
        v, True, valence=val, rank=rank, elementary_divisors=tuple(divisors)
    )


def check_edge_smooth(curve: TropicalCurve, eid: str) -> bool:
    return curve.edges[eid].weight == 1


def check_smooth(curve: TropicalCurve) -> SmoothnessReport:
    singular = []
    for vid in curve.vertices:
        res = check_vertex_smooth(curve, vid)
        if not res.smooth:
            singular.append(res)
    heavy = tuple(eid for eid in curve.edges if not check_edge_smooth(curve, eid))
    return SmoothnessReport(not singular and not heavy, tuple(singular), heavy)
