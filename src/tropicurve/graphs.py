"""Exact-rational metric graphs and extended graphs with infinite leaf edges.

A metric graph is a finite connected multigraph whose edges carry positive
rational lengths.  An extended graph additionally carries infinite leaf
edges ("rays"), each identified with [0, inf] and attached at a point of
the finite part; a metric graph is the extended graph with no rays, so both
offer `finite`, `rays`, `is_infinite_vertex`, `canonical_point` and
`segments_of`, and code on either needs no branch.

Graphs are immutable: subdivision returns a new graph.  `subdivide_many`
cuts every edge and ray, all of a call's points on one copy, and writes
each split to one flat lineage that the finite part owns and an extended
graph shares: each retired id maps to its current pieces in its own frame,
each id a split made to its parent and its offset there.  So points in an
ancestor's (edge, offset) frame stay meaningful after any number of
refinements: `segments_of`, `canonical_point` and `parent` each read the
lineage once.  Loop edges are split at their midpoint on ingestion, which
keeps every stored edge loop-free and makes (edge, offset) unambiguous.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import count, product
from operator import mul
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import (
    DanglingEndpoint,
    DisconnectedGraph,
    DuplicateId,
    InvalidOffset,
    NonpositiveLength,
    NonzeroDegree,
    NotComplement,
    PointNotInterior,
    UnknownEdge,
    UnknownVertex,
    WrongCardinality,
)
from .linalg import integer_inverse
from .rationals import rat

INF = None  # marker for infinite offsets / lengths in segment tables


@dataclass(frozen=True)
class Edge:
    id: str
    a: str
    b: str
    length: Fraction

    def other(self, v: str) -> str:
        return self.b if v == self.a else self.a


@dataclass(frozen=True)
class Ray:
    """An infinite leaf edge, attached at `attach`, ending at the infinite
    vertex `leaf`.  Offsets run from the attach point toward the leaf."""

    id: str
    attach: str
    leaf: str


@dataclass(frozen=True, order=True)
class GraphPoint:
    """A point of a (possibly extended) graph.

    Canonical form is vertex-based whenever possible: offsets 0 or full
    length normalize to the corresponding endpoint.  Non-canonical instances
    (offsets in a retired edge's frame) are accepted by all graph operations
    and resolved through the lineage.
    """

    kind: int  # 0 = vertex, 1 = on-edge; kept first for a total order
    vertex: Optional[str] = None
    edge: Optional[str] = None
    offset: Optional[Fraction] = None

    @staticmethod
    def at_vertex(v: str) -> "GraphPoint":
        return GraphPoint(0, vertex=v)

    @staticmethod
    def on_edge(edge: str, offset) -> "GraphPoint":
        return GraphPoint(1, edge=edge, offset=rat(offset))

    @property
    def is_vertex(self) -> bool:
        return self.kind == 0

    def __repr__(self):
        if self.is_vertex:
            return f"GraphPoint(vertex={self.vertex!r})"
        return f"GraphPoint(edge={self.edge!r}, offset={self.offset})"


def _fresh(base: str, *taken) -> str:
    """`base`, or `base.2`, `base.3`, ... : the first id in none of `taken`."""
    cand = base
    for i in count(2):
        if not any(cand in ids for ids in taken):
            return cand
        cand = f"{base}.{i}"


def _retire(frames: dict, parents: dict, old: str, pieces: tuple):
    """Write the cut of the current id `old` into `pieces`, (kind, id, lo,
    hi) in its frame, to the lineage (frames, parents) in place: every
    ancestor of `old` swaps its piece `old` for them, shifted to its frame."""
    frames[old] = pieces
    for _kind, cid, lo, _hi in pieces:
        parents[cid] = (old, lo)
    anc = old
    while (up := parents.get(anc)) is not None:
        anc, base = up
        pieces = tuple((kind, cid, base + lo, INF if hi is INF else base + hi) for kind, cid, lo, hi in pieces)
        frames[anc] = tuple(new for piece in frames[anc] for new in (pieces if piece[1] == old else (piece,)))


class _Domain:
    """Point and frame reading shared by both graph classes: a domain has a
    finite part `finite` and rays `rays` (none on a metric graph), and reads
    every split it has made from the finite part's lineage."""

    _rays = _leaves = MappingProxyType({})  # an extended graph has its own

    @property
    def rays(self) -> Mapping[str, Ray]:
        return self._rays

    def is_infinite_vertex(self, v: str) -> bool:
        return v in self._leaves

    def canonical_point(self, pt: GraphPoint) -> GraphPoint:
        fin = self.finite
        if pt.is_vertex:
            if pt.vertex in fin._vertex_set or self.is_infinite_vertex(pt.vertex):
                return pt
            raise UnknownVertex(f"unknown vertex {pt.vertex!r}")
        eid, off = pt.edge, rat(pt.offset)
        if off < 0:
            raise InvalidOffset(f"negative offset {off}")
        pieces = fin._frames.get(eid)
        if pieces is not None:  # a retired id: an offset on a cut ends the earlier piece
            for _kind, cid, lo, hi in pieces:
                if hi is INF or off <= hi:
                    eid, off = cid, off - lo
                    break
            else:
                raise InvalidOffset(f"offset {off} outside edge {eid!r}")
        ray = self.rays.get(eid)
        if ray is not None:
            return GraphPoint.at_vertex(ray.attach) if off == 0 else GraphPoint.on_edge(eid, off)
        e = fin.edge(eid)
        if off > e.length:
            raise InvalidOffset(f"offset {off} exceeds edge {eid!r}")
        if off == 0:
            return GraphPoint.at_vertex(e.a)
        if off == e.length:
            return GraphPoint.at_vertex(e.b)
        return GraphPoint.on_edge(eid, off)

    def segments_of(self, edge_id: str) -> tuple[tuple[str, str, Fraction, Optional[Fraction]], ...]:
        """Current pieces of a possibly retired edge or ray id, as
        (kind, current_id, lo, hi) in its frame, ordered by lo; kind is
        "edge" or "ray", and hi is None on the unbounded tail of a ray."""
        pieces = self.finite._frames.get(edge_id)
        if pieces is not None:
            return pieces
        if edge_id in self.rays:
            return (("ray", edge_id, Fraction(0), INF),)
        e = self.finite.edges.get(edge_id)
        if e is None:
            raise UnknownEdge(f"unknown edge {edge_id!r}")
        return (("edge", edge_id, Fraction(0), e.length),)

    def parent(self, edge_id: str) -> Optional[tuple[str, Fraction]]:
        """(retired id, offset in its frame) of an edge or ray id that a
        split made, None for any other id."""
        return self.finite._parents.get(edge_id)

    def subdivide_many(self, pts: Iterable[GraphPoint]):
        """The refinement with a vertex at every point of `pts`, each read
        in the frames of the graph refined so far; the receiver itself when
        every point is already a vertex.  The first cut copies the graph,
        lineage included, and every cut splits that copy in place at a new
        vertex `cid@off`: an edge into `.L` and `.R`, a ray into a `.stub`
        edge and a `.tail` ray, each id fresh against every current or
        retired id, vertex and leaf."""
        new = self
        for pt in pts:
            cpt = new.canonical_point(pt)
            if cpt.is_vertex:
                continue
            if new is self:
                fin = self.finite
                new = MetricGraph(fin._vertices, fin._edges, (dict(fin._frames), dict(fin._parents)), _validated=True)
                new._vertex_set = set(fin._vertices)
                new = new if self is fin else ExtendedGraph(new, self._rays)
            fin, rays, cid, off = new.finite, new._rays, cpt.edge, cpt.offset
            taken = (fin._edges, fin._frames, rays)
            mid = _fresh(f"{cid}@{off}", fin._vertex_set, new._leaves)
            fin._vertex_set.add(mid)
            ray = rays.pop(cid) if cid in rays else None
            if ray is None:
                e = fin._edges.pop(cid)
                left = _fresh(f"{cid}.L", *taken)
                fin._edges[left] = Edge(left, e.a, mid, off)
                right = _fresh(f"{cid}.R", *taken)
                fin._edges[right] = Edge(right, mid, e.b, e.length - off)
                pieces = (("edge", left, Fraction(0), off), ("edge", right, off, e.length))
            else:
                stub = _fresh(f"{cid}.stub", *taken)
                fin._edges[stub] = Edge(stub, ray.attach, mid, off)
                tail = _fresh(f"{cid}.tail", *taken)
                rays[tail] = new._leaves[ray.leaf] = Ray(tail, mid, ray.leaf)
                pieces = (("edge", stub, Fraction(0), off), ("ray", tail, off, INF))
            _retire(fin._frames, fin._parents, cid, pieces)
        if new is not self:  # sealed: sorted as the constructors leave a graph
            fin = new.finite
            fin._vertices = tuple(sorted(fin._vertex_set))
            fin._vertex_set = frozenset(fin._vertices)
            fin._edges = dict(sorted(fin._edges.items()))
            if new is not fin:
                new._rays = dict(sorted(new._rays.items()))
        return new


class MetricGraph(_Domain):
    """Immutable connected metric graph with positive rational edge lengths:
    an extended graph without rays."""

    def __init__(self, vertices, edges, _lineage=None, _validated=False):
        self._vertices = tuple(sorted(vertices))
        self._vertex_set = frozenset(self._vertices)
        self._edges: dict[str, Edge] = dict(sorted(edges.items()))
        self._frames, self._parents = _lineage or ({}, {})
        self._adj_cache = None
        if not _validated:
            self._validate()

    # -- construction -------------------------------------------------------

    def _validate(self):
        if not self._vertices:
            raise DanglingEndpoint("graph needs at least one vertex")
        for e in self._edges.values():
            if e.a not in self._vertex_set or e.b not in self._vertex_set:
                raise DanglingEndpoint(f"edge {e.id!r} references unknown vertex")
            if e.length <= 0:
                raise NonpositiveLength(f"edge {e.id!r} has length {e.length}")
            if e.a == e.b:
                raise NonpositiveLength(f"edge {e.id!r} is a loop; split before storing")
        if any(self.components().values()):
            raise DisconnectedGraph("graph is not connected")

    # -- read access ----------------------------------------------------------

    @property
    def finite(self) -> "MetricGraph":
        return self

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._vertices

    @property
    def edges(self) -> Mapping[str, Edge]:
        return self._edges

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._edges[edge_id]
        except KeyError:
            raise UnknownEdge(f"unknown edge {edge_id!r}") from None

    @property
    def adjacency(self) -> Mapping[str, list[tuple[str, str]]]:
        if self._adj_cache is None:
            adj = {v: [] for v in self._vertices}
            for e in self._edges.values():
                adj[e.a].append((e.id, e.b))
                adj[e.b].append((e.id, e.a))
            self._adj_cache = adj
        return self._adj_cache

    def incident_edges(self, v: str) -> list[str]:
        if v not in self._vertex_set:
            raise UnknownVertex(f"unknown vertex {v!r}")
        return [eid for eid, _ in self.adjacency[v]]

    def valence(self, v: str) -> int:
        return len(self.incident_edges(v))

    def betti_number(self) -> int:
        return len(self._edges) - len(self._vertices) + 1

    def components(self, removed=()) -> dict[str, int]:
        """Component number of every vertex once the edge ids in `removed`
        are taken out, counted from 0 in vertex order."""
        label: dict[str, int] = {}
        adj = self.adjacency
        comp = 0
        for v in self._vertices:
            if v in label:
                continue
            label[v] = comp
            stack = [v]
            while stack:
                for eid, w in adj[stack.pop()]:
                    if eid not in removed and w not in label:
                        label[w] = comp
                        stack.append(w)
            comp += 1
        return label

    def frame_length(self, edge_id: str) -> Fraction:
        """Length of an edge id, current or retired."""
        return self.segments_of(edge_id)[-1][3]

    # -- subdivision ------------------------------------------------------------

    def subdivide_at(self, pt: GraphPoint) -> tuple["MetricGraph", str]:
        """`subdivide_many([pt])` and the vertex at `pt`; metrically
        invisible.  At an existing vertex: a no-op, with a warning."""
        new = self.subdivide_many([pt])
        if new is self:
            warnings.warn("subdivide_at called on a vertex; no-op", stacklevel=2)
        return new, new.canonical_point(pt).vertex

    # -- spanning trees ---------------------------------------------------------

    @cached_property
    def cycle_space(self) -> "CycleSpace":
        """`CycleSpace` on the breadth-first tree, the one the library reads,
        built once: a graph is immutable once `subdivide_many` sealed it."""
        return CycleSpace(self)

    def canonical_spanning_tree(self) -> list[str]:
        """Kruskal over the edges by id; deterministic."""
        parent = {v: v for v in self._vertices}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        tree = []
        for eid, e in self._edges.items():
            ra, rb = find(e.a), find(e.b)
            if ra != rb:
                parent[ra] = rb
                tree.append(eid)
        return tree

    def spanning_tree_complement(self, edge_ids: Iterable[str]) -> bool:
        """Whether removing the given g distinct current edges (any other
        list raises) leaves a spanning tree: the V - 1 edges left form one
        exactly when they connect every vertex."""
        seen = set()
        for eid in edge_ids:
            if eid not in self._edges:
                raise UnknownEdge(f"unknown edge {eid!r}")
            if eid in seen:
                raise WrongCardinality(f"edge {eid!r} listed twice")
            seen.add(eid)
        g = self.betti_number()
        if len(seen) != g:
            raise WrongCardinality(f"expected {g} edges, got {len(seen)}")
        return not any(self.components(seen).values())

    def all_complements(self) -> Iterator[tuple[str, ...]]:
        """Every g current edges, in sorted id order, whose removal leaves a
        spanning tree, in lexicographic order.

        One depth-first walk over the sorted edge ids: each edge goes to the
        complement first, while fewer than g are chosen, and else to the
        tree if it joins two components of the tree edges so far.  A union
        by size with undo (no path compression) keeps those components.  No
        branch runs short of complement edges: that would take more than
        V - 1 tree edges, and the last of them closes a cycle."""
        g = self.betti_number()
        ids = sorted(self._edges)
        n = len(ids)
        edges = [self._edges[eid] for eid in ids]
        parent = {v: v for v in self._vertices}
        size = dict.fromkeys(self._vertices, 1)
        comp: list[str] = []
        hung: list[Optional[str]] = []  # per edge decided: the root its tree join hung, None in the complement
        to_tree = False  # the next edge was taken back from the complement
        while True:
            i = len(hung)
            if i < n and len(comp) < g and not to_tree:
                comp.append(ids[i])
                hung.append(None)
                continue
            to_tree = False
            if i == n:
                yield tuple(comp)
            else:
                a, b = edges[i].a, edges[i].b
                while parent[a] != a:
                    a = parent[a]
                while parent[b] != b:
                    b = parent[b]
                if a != b:
                    if size[a] > size[b]:
                        a, b = b, a
                    parent[a] = b
                    size[b] += size[a]
                    hung.append(a)
                    continue
            # back up to the last complement edge and try it in the tree
            while not to_tree:
                if not hung:
                    return
                a = hung.pop()
                if a is None:
                    comp.pop()
                    to_tree = True
                else:
                    size[parent[a]] -= size[a]
                    parent[a] = a


class CycleSpace:
    """The integer cycle space of a graph, relative to one spanning tree,
    and its period lattice.

    The tree is rooted at the least vertex and walked once, breadth first.
    With no `tree` given, the walk takes every edge that reaches a new
    vertex, which makes the cycles short (`MetricGraph.cycle_space`); a
    `tree`, given by test references only, must be V - 1 current edges that
    reach every vertex (else NotComplement).  Each complement edge (in id
    order) closes one fundamental cycle through the lowest common ancestor
    of its ends; these cycles are a basis of the integer cycles.  The
    period matrix is their Gram matrix under the length pairing, sum_e L_e
    z_i(e) z_j(e): symmetric and positive definite.  It is summed in
    integers, as numerators over the common denominator D of the edge
    lengths (each length is `scaled[e]` / D); `_gram` keeps D * period as
    ints, which the period solve of `divisors` and every box search read, so
    no period entry is ever a `Fraction`.

    Principality, the lifting corrections and break divisors all read the
    period lattice here: `integrals` gives the cycle integrals of a
    degree-zero divisor, as ints over a common denominator of the lengths
    and the chips' offsets, and `lattice_points` finds the lattice vectors
    period * k in a box.  `_through` maps each edge on a cycle to the
    (cycle, coefficient) pairs there, in cycle order; the lifting
    corrections take their sites from it.  `cell_points` finds, in this
    frame, the points of a spanning-tree complement's cell of the
    break-divisor search, so that search over every spanning tree builds
    one cycle space.  Every box search bounds k by the integer inverse of
    `_gram`, computed once per cycle space.
    """

    def __init__(self, graph: MetricGraph, tree: Optional[Sequence[str]] = None):
        self.edges = graph.edges  # not the graph, whose cache of self then forms no cycle
        tset = None if tree is None else set(tree)
        root = graph.vertices[0]
        self.up: dict[str, Optional[str]] = {root: None}  # tree edge toward the root
        self.depth = {root: 0}
        self.order = [root]
        for v in self.order:
            for eid, w in graph.adjacency[v]:
                if (tset is None or eid in tset) and w not in self.up:
                    self.up[w] = eid
                    self.depth[w] = self.depth[v] + 1
                    self.order.append(w)
        if tset is None:
            tset = set(self.up.values())
        elif len(tree) != len(self.order) - 1 or len(self.order) != len(graph.vertices):
            raise NotComplement(f"edges {sorted(tset)} are not a spanning tree")
        self.complement = [eid for eid in graph.edges if eid not in tset]
        self.cycles = [self.cycle(eid) for eid in self.complement]
        through: dict[str, list[tuple[int, int]]] = {}
        for i, cyc in enumerate(self.cycles):
            for eid, c in cyc.items():
                through.setdefault(eid, []).append((i, c))
        self.denominator = 1
        for e in graph.edges.values():
            self.denominator = math.lcm(self.denominator, e.length.denominator)
        self.scaled = {
            eid: e.length.numerator * (self.denominator // e.length.denominator)
            for eid, e in graph.edges.items()
        }
        g = len(self.cycles)
        gram = [[0] * g for _ in range(g)]
        for eid, hits in through.items():
            length = self.scaled[eid]
            for i, ci in hits:
                row = gram[i]
                for j, cj in hits:
                    row[j] += length * ci * cj
        self._through = through
        self._gram = gram  # D * period

    def cycle(self, comp_edge: str) -> dict[str, int]:
        """The cycle along comp_edge from a to b, then back through the
        tree: up from b to the lowest common ancestor of its ends, then down
        to a.  Coefficient +1 means the cycle traverses the edge a->b."""
        edges, up, depth = self.edges, self.up, self.depth
        e = edges[comp_edge]
        ends = {1: e.b, -1: e.a}  # the b end walks with sign +1, the a end with -1
        walks: dict[int, list[tuple[str, int]]] = {1: [], -1: []}
        while ends[1] != ends[-1]:
            sign = 1 if depth[ends[1]] >= depth[ends[-1]] else -1
            v = ends[sign]
            t = edges[up[v]]
            walks[sign].append((t.id, sign if t.a == v else -sign))
            ends[sign] = t.other(v)
        return dict([(comp_edge, 1), *walks[1], *walks[-1]])

    def chain(self, charges: Mapping[str, int]) -> dict[str, int]:
        """The 1-chain on the tree edges whose boundary, b minus a per edge,
        is the given degree-zero vertex charge.  Leaves are peeled toward
        the root, so integer charges give an integer chain."""
        rest = dict.fromkeys(self.order, 0)
        for v, c in charges.items():
            rest[v] += c
        out = {}
        for v in reversed(self.order[1:]):
            t = self.edges[self.up[v]]
            out[t.id] = rest[v] if t.b == v else -rest[v]
            rest[t.other(v)] += rest[v]
        if rest[self.order[0]]:
            raise NonzeroDegree(f"charges have degree {rest[self.order[0]]}")
        return out

    def integrals(self, terms: Iterable[tuple[GraphPoint, int]]) -> tuple[dict[str, int], list[int], int]:
        """The peeled tree chain of a degree-zero divisor, given by its
        terms on this graph, and the integrals of that divisor's chain
        along the fundamental cycles, as (chain, w, den): w holds the
        integrals as numerators over den, the lcm of D and the
        denominators of the chips' offsets (D itself when every chip is at
        a vertex).

        A chip c inside an edge counts at the edge's b end, which keeps the
        chain integral; the segment from the chip to b then carries c too
        much, so every cycle through the edge loses c times the chip's
        distance to b, which is paired only with the cycles through that
        edge."""
        edges = self.edges
        charges: dict[str, int] = {}
        inner = []
        for pt, c in terms:
            v = pt.vertex if pt.is_vertex else edges[pt.edge].b
            charges[v] = charges.get(v, 0) + c
            if not pt.is_vertex:
                inner.append((pt, c))
        chain = self.chain(charges)
        den = math.lcm(self.denominator, *(pt.offset.denominator for pt, _c in inner))
        unit = den // self.denominator
        scaled = self.scaled
        w = [unit * sum(scaled[eid] * c * chain.get(eid, 0) for eid, c in cyc.items()) for cyc in self.cycles]
        for pt, c in inner:
            off = pt.offset
            tail = c * (scaled[pt.edge] * unit - off.numerator * (den // off.denominator))
            for i, z in self._through.get(pt.edge, ()):
                w[i] -= z * tail
        return chain, w, den

    @cached_property
    def _inverse(self) -> tuple[list[list[int]], int]:
        return integer_inverse(self._gram)

    def lattice_points(
        self, lower: Sequence[Fraction], upper: Sequence[Fraction]
    ) -> Iterator[tuple[tuple[int, ...], list[Fraction]]]:
        """Every integer vector k with lower <= period * k <= upper, in
        lexicographic order, each with period * k: the box is scaled by D to
        integer bounds on gram * k, gram = D * period, for `box_points`."""
        den = self.denominator
        lo = [math.ceil(x * den) for x in lower]
        hi = [math.floor(x * den) for x in upper]
        for k, image in self.box_points(lo, hi):
            yield k, [Fraction(y, den) for y in image]

    def box_points(self, lo: Sequence[int], hi: Sequence[int]) -> Iterator[tuple[tuple[int, ...], list[int]]]:
        """Every integer vector k with lo <= gram * k <= hi, in lexicographic
        order, each with gram * k, all in integers.  `_inverse` is gram^-1 as
        (m, q) from `linalg.integer_inverse`; m / q maps the box to one
        integer range per k_i, and the candidates are filtered on gram * k.
        The number of candidates grows exponentially in the genus."""
        m, q = self._inverse
        mid = [a + b for a, b in zip(lo, hi)]  # twice the centre
        width = [b - a for a, b in zip(lo, hi)]
        ranges = []
        for row in m:
            # row * x over the box spans [c - r, c + r] / 2, and c - r is even
            c, r = sum(map(mul, row, mid)), sum(map(mul, map(abs, row), width))
            k_range = range(-(-(c - r) // (2 * q)), (c + r) // (2 * q) + 1)
            if not k_range:
                return
            ranges.append(k_range)
        for k in product(*ranges):
            image = [sum(map(mul, row, k)) for row in self._gram]
            if all(a <= y <= b for a, y, b in zip(lo, image, hi)):
                yield k, image

    def cell_points(self, comp: Sequence[str], w: Sequence[int], scale: int) -> Iterator[list[int]]:
        """Every t, as ints over scale * D, with 0 <= t <= scale * L on the
        edges `comp` and Z t = w - scale * gram * k for an integer k, where
        row j of Z holds cycle j's coefficients on `comp` and w holds cycle
        integrals over scale * D, as `integrals` gives them.

        Z is unimodular exactly when `comp` completes a spanning tree (else
        `SingularMatrix`, once a candidate exists), and then Z^-1 maps the
        cycles here to that tree's fundamental cycles; k runs over all
        integer vectors in either basis, so the t are the points of the
        tree's own cell, found in this frame.  gram * k lies in the bounding
        box of (w - Z [0, scale * L]) / scale, which is exact in integers:
        in cycle j, less the positive z_j(e) * L_e below and the negative
        ones above.  Z is inverted at the first candidate in that box."""
        spans = [self._spans[eid] for eid in comp]
        lo = [-(-x // scale) - sum(col) for x, col in zip(w, zip(*(rise for rise, _fall in spans)))]
        hi = [x // scale - sum(col) for x, col in zip(w, zip(*(fall for _rise, fall in spans)))]
        zinv = None
        for _k, image in self.box_points(lo, hi):
            if zinv is None:
                zinv = integer_inverse([[cyc.get(eid, 0) for eid in comp] for cyc in self.cycles])[0]
            rest = [x - scale * y for x, y in zip(w, image)]
            t = [sum(map(mul, row, rest)) for row in zinv]
            if all(0 <= x <= scale * self.scaled[eid] for x, eid in zip(t, comp)):
                yield t

    @cached_property
    def _spans(self) -> dict[str, tuple[list[int], list[int]]]:
        """Per edge on a cycle, z_j(e) * scaled[e] over the cycles j, as its
        positive and its negative part."""
        g = len(self.cycles)
        out = {}
        for eid, hits in self._through.items():
            rise, fall = [0] * g, [0] * g
            for j, c in hits:
                (rise if c > 0 else fall)[j] = c * self.scaled[eid]
            out[eid] = rise, fall
        return out


def build_graph(vertices: Iterable[str], edges: Iterable[tuple]) -> MetricGraph:
    """Validated construction from (id, a, b, length) records.

    Loop edges are split at their midpoint; the original id stays usable
    as a point frame through the lineage.
    """
    vset = []
    seen_v = set()
    for v in vertices:
        if v in seen_v:
            raise DuplicateId(f"duplicate vertex id {v!r}")
        seen_v.add(v)
        vset.append(v)
    if not vset:
        raise DanglingEndpoint("empty vertex list")
    out: dict[str, Edge] = {}
    frames, parents = {}, {}
    taken = set()
    for rec in edges:
        eid, a, b, length = rec
        length = rat(length)
        if eid in taken:
            raise DuplicateId(f"duplicate edge id {eid!r}")
        taken.add(eid)
        if length <= 0:
            raise NonpositiveLength(f"edge {eid!r} has length {length}")
        if a not in seen_v or b not in seen_v:
            raise DanglingEndpoint(f"edge {eid!r} references unknown vertex")
        if a == b:
            mid = f"{eid}.mid"
            if mid in seen_v:
                raise DuplicateId(f"vertex id {mid!r} reserved for loop split")
            seen_v.add(mid)
            vset.append(mid)
            half = length / 2
            left, right = f"{eid}.0", f"{eid}.1"
            for part in (left, right):
                if part in taken:
                    raise DuplicateId(f"edge id {part!r} reserved for loop split")
                taken.add(part)
            out[left] = Edge(left, a, mid, half)
            out[right] = Edge(right, mid, b, half)
            _retire(frames, parents, eid, (("edge", left, Fraction(0), half), ("edge", right, half, length)))
        else:
            out[eid] = Edge(eid, a, b, length)
    return MetricGraph(vset, out, (frames, parents))


def validate_pillar_points(
    graph: MetricGraph, edge_id: str, points: Sequence[GraphPoint]
) -> bool:
    """Four interior points, strictly monotone along the edge, with equal
    first and last gaps: d(p1,p2) == d(p3,p4)."""
    if len(points) != 4:
        raise WrongCardinality("pillar validation needs exactly four points")
    length = graph.frame_length(edge_id)
    offsets = []
    for pt in points:
        if pt.is_vertex or pt.edge != edge_id:
            raise PointNotInterior(f"{pt!r} is not interior to edge {edge_id!r}")
        if not (0 < pt.offset < length):
            raise PointNotInterior(f"{pt!r} is not interior to edge {edge_id!r}")
        offsets.append(pt.offset)
    x1, x2, x3, x4 = offsets
    increasing = x1 < x2 < x3 < x4
    decreasing = x1 > x2 > x3 > x4
    if not (increasing or decreasing):
        return False
    return abs(x2 - x1) == abs(x4 - x3)


class ExtendedGraph(_Domain):
    """A metric graph together with infinite leaf edges.

    The finite part is pre-subdivided so every ray attaches at a vertex.
    Contracting all rays recovers the finite part.  Its lineage records
    the splits of rays too (a ray split adds a stub edge and a vertex to
    it), so the extended graph keeps no lineage of its own.
    """

    def __init__(self, finite: MetricGraph, rays: Mapping[str, Ray]):
        self.finite = finite
        self._rays, self._leaves = {}, {}
        self._attach(rays)

    def _attach(self, rays: Mapping[str, Ray]):
        """Add `rays`, checked in id order against the vertices and leaves."""
        for rid, r in sorted(rays.items()):
            if r.attach not in self.finite._vertex_set:
                raise DanglingEndpoint(f"ray {r.id!r} attaches at unknown vertex")
            if r.leaf in self._leaves or r.leaf in self.finite._vertex_set:
                raise DuplicateId(f"infinite vertex {r.leaf!r} reused")
            self._rays[rid] = self._leaves[r.leaf] = r

    # -- access -----------------------------------------------------------------

    def ray(self, ray_id: str) -> Ray:
        try:
            return self._rays[ray_id]
        except KeyError:
            raise UnknownEdge(f"unknown ray {ray_id!r}") from None

    def ray_at_leaf(self, leaf: str) -> Ray:
        try:
            return self._leaves[leaf]
        except KeyError:
            raise UnknownVertex(f"no ray ends at {leaf!r}") from None

    def attach_vertices(self) -> set[str]:
        return {r.attach for r in self._rays.values()}

    # -- refinement ----------------------------------------------------------------

    def subdivide_at(self, pt: GraphPoint) -> tuple["ExtendedGraph", str]:
        """`subdivide_many([pt])` and the vertex at `pt`, a point of an edge
        or a ray.  At an existing vertex: a no-op, returning that vertex."""
        new = self.subdivide_many([pt])
        return new, new.canonical_point(pt).vertex

    def with_new_rays(
        self, attach_points: Sequence[tuple[str, GraphPoint]]
    ) -> "ExtendedGraph":
        """Attach new infinite edges at the given points, all read in this
        graph's frames, to one new graph (none for no points): the copy
        `subdivide_many` cuts at them, else one on this finite part.  Ray
        ids must be distinct and fresh: no edge, ray or retired id of the
        refined graph may carry them.  Leaves are derived as `<id>.inf`."""
        if not attach_points:
            return self
        g = self.subdivide_many(pt for _rid, pt in attach_points)
        g = ExtendedGraph(self.finite, self._rays) if g is self else g
        new = {}
        for ray_id, pt in attach_points:
            if ray_id in new or ray_id in g._rays or ray_id in g.finite.edges or ray_id in g.finite._frames:
                raise DuplicateId(f"ray id {ray_id!r} already in use")
            new[ray_id] = Ray(ray_id, g.canonical_point(pt).vertex, f"{ray_id}.inf")
        g._attach(new)
        g._rays = dict(sorted(g._rays.items()))
        return g


def build_extended(
    finite: MetricGraph, infinite_edges: Iterable[tuple[str, GraphPoint]]
) -> ExtendedGraph:
    g = ExtendedGraph(finite, {})
    return g.with_new_rays(list(infinite_edges))
