import random
from fractions import Fraction
from itertools import product

import pytest

from tropicurve.complexes import (
    TropEdge,
    TropPoint,
    TropicalCurve,
    check_balancing,
    check_edge_smooth,
    check_smooth,
    check_vertex_smooth,
)
from tropicurve.linalg import is_saturated_span, matrix_rank, smith_normal_form


def star_curve(directions, weights=None, dim=2):
    """One finite vertex at the origin with a ray per direction."""
    weights = weights or [1] * len(directions)
    verts = {"o": TropPoint.finite([0] * dim)}
    edges = {}
    for k, (d, w) in enumerate(zip(directions, weights)):
        coords = []
        for i in range(dim):
            if d[i] > 0:
                coords.append(TropPoint.finite([0]).coords[0].__class__(1))
            elif d[i] < 0:
                coords.append(TropPoint.finite([0]).coords[0].__class__(-1))
            else:
                coords.append(TropPoint.finite([0]).coords[0])
        verts[f"w{k}"] = TropPoint(tuple(coords))
        edges[f"r{k}"] = TropEdge(f"r{k}", "o", f"w{k}", tuple(d), w, None)
    return TropicalCurve(dim, verts, edges)


FIG1_LEFT = [(-1, 0), (0, -1), (1, 1)]
FIG1_MIDDLE = [(1, 0), (-1, 0), (0, 1), (0, -1)]
FIG1_RIGHT = [(2, -1), (-1, 2), (-1, -1)]


class TestBalancing:
    def test_fig1_left_balanced(self):
        assert check_balancing(star_curve(FIG1_LEFT)).balanced

    def test_unbalanced_with_defect(self):
        rep = check_balancing(star_curve([(1, 0), (-1, 0)], weights=[1, 2]))
        assert not rep.balanced
        assert rep.defects == (("o", (-1, 0)),)

    def test_fig1_right_balanced_but_not_smooth(self):
        curve = star_curve(FIG1_RIGHT)
        assert check_balancing(curve).balanced
        assert not check_vertex_smooth(curve, "o").smooth


class TestVertexSmooth:
    def test_fig1_left_smooth(self):
        res = check_vertex_smooth(star_curve(FIG1_LEFT), "o")
        assert res.smooth
        assert res.rank == 2
        assert res.elementary_divisors == (1, 1)

    def test_fig1_middle_rank_defect(self):
        res = check_vertex_smooth(star_curve(FIG1_MIDDLE), "o")
        assert not res.smooth
        assert "rank 2" in res.reason

    def test_fig1_right_divisor_three(self):
        res = check_vertex_smooth(star_curve(FIG1_RIGHT), "o")
        assert not res.smooth
        assert res.elementary_divisors == (1, 3)
        assert "elementary divisor 3" in res.reason

    def test_infinite_vertex_univalent(self):
        curve = star_curve(FIG1_LEFT)
        assert check_vertex_smooth(curve, "w0").smooth

    def test_two_rays_meeting_at_infinity(self):
        # directions (1,1) and (1,2) share the (+inf,+inf) endpoint
        from tropicurve.rationals import PLUS_INF

        verts = {
            "a": TropPoint.finite([0, 0]),
            "b": TropPoint.finite([0, 3]),
            "winf": TropPoint((PLUS_INF, PLUS_INF)),
        }
        edges = {
            "s": TropEdge("s", "a", "b", (0, 1), 1, Fraction(3)),
            "r1": TropEdge("r1", "a", "winf", (1, 1), 1, None),
            "r2": TropEdge("r2", "b", "winf", (1, 2), 1, None),
        }
        curve = TropicalCurve(2, verts, edges)
        res = check_vertex_smooth(curve, "winf")
        assert not res.smooth
        assert "valence 2" in res.reason

    def test_valence_two_smooth_iff_opposite(self):
        # derived consequence: a 2-valent finite vertex is smooth exactly
        # when the outgoing directions are negatives of each other
        dirs = [(1, 0), (1, 1), (2, 1), (0, 1), (1, 2)]
        for d1, d2 in product(dirs, repeat=2):
            neg = tuple(-x for x in d2)
            verts = {
                "o": TropPoint.finite([0, 0]),
                "a": TropPoint.finite(d1),
                "b": TropPoint.finite(neg),
            }
            edges = {
                "e1": TropEdge("e1", "o", "a", d1, 1, Fraction(1)),
                "e2": TropEdge("e2", "o", "b", neg, 1, Fraction(1)),
            }
            if d1 == neg:
                continue  # coincident directions are a different failure
            curve = TropicalCurve(2, verts, edges)
            res = check_vertex_smooth(curve, "o")
            assert res.smooth == (d2 == d1)


class TestSaturationOracle:
    def test_agrees_with_bruteforce_in_small_boxes(self):
        # a sublattice L of Z^n is saturated iff (L tensor Q) cap Z^n = L.
        # Oracle for independent rows: a point of the Q-span lies in L iff
        # its (unique) rational coefficient vector is integral; enumerate
        # small integer points and demand agreement.
        from fractions import Fraction

        from tropicurve.linalg import solve_linear

        rng = random.Random(42)
        checked = 0
        for _ in range(300):
            n = rng.randrange(1, 4)
            k = rng.randrange(1, n + 1)
            rows = [tuple(rng.randrange(-3, 4) for _ in range(n)) for _ in range(k)]
            if matrix_rank(rows) != k:
                continue
            checked += 1
            claimed, _div = is_saturated_span(rows)
            columns = [[Fraction(rows[j][i]) for j in range(k)] for i in range(n)]
            oracle = True
            for pt in product(range(-3, 4), repeat=n):
                if matrix_rank(list(rows) + [pt]) != k:
                    continue  # outside the Q-span
                coeffs = solve_linear(columns, [Fraction(x) for x in pt])
                assert coeffs is not None
                if any(c.denominator != 1 for c in coeffs):
                    oracle = False
                    break
            assert claimed == oracle, (rows, claimed, oracle)
        assert checked > 100

    def test_snf_known_values(self):
        assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
        assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]
        assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
        assert smith_normal_form([[2, -1], [-1, 2], [-1, -1]]) == [1, 3]


class TestCurveReports:
    def test_check_smooth_aggregates(self):
        curve = star_curve(FIG1_RIGHT)
        rep = check_smooth(curve)
        assert not rep.smooth
        assert rep.singular_vertices[0].vertex == "o"
        assert not rep.heavy_edges

    def test_heavy_edge(self):
        curve = star_curve([(1, 0), (-1, 0)], weights=[2, 2])
        rep = check_smooth(curve)
        assert not rep.smooth
        assert rep.heavy_edges == ("r0", "r1")
        assert not check_edge_smooth(curve, "r0")

    def test_unimodular_invariance(self):
        # smoothness verdicts survive a unimodular change of coordinates
        rng = random.Random(6)
        transforms = [
            [[1, 0], [0, 1]],
            [[1, 1], [0, 1]],
            [[2, 1], [1, 1]],
            [[1, 0], [-3, 1]],
        ]
        for dirs in (FIG1_LEFT, FIG1_MIDDLE, FIG1_RIGHT):
            base = check_vertex_smooth(star_curve(dirs), "o").smooth
            for t in transforms:
                mapped = [
                    (
                        t[0][0] * d[0] + t[0][1] * d[1],
                        t[1][0] * d[0] + t[1][1] * d[1],
                    )
                    for d in dirs
                ]
                assert check_vertex_smooth(star_curve(mapped), "o").smooth == base
