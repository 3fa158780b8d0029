"""The fraction-free kernel of `linalg` against a plain `Fraction`
Gauss-Jordan elimination, kept here as the reference."""

import math
import random
from fractions import Fraction

import pytest

from tropicurve.errors import SingularMatrix, TropicurveError, ZeroVector
from tropicurve.linalg import integer_inverse, matrix_rank, primitive, solve_linear

DENOMINATORS = (1, 1, 3, 7, 8)


def reference_rref(rows, ncols):
    """Reduced row echelon form over `Fraction`, pivoting on the first
    `ncols` columns; returns the reduced rows and the pivot columns."""
    a = [[Fraction(v) for v in row] for row in rows]
    cols = []
    for c in range(ncols):
        r = len(cols)
        p = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        a[r] = [v / a[r][c] for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        cols.append(c)
    return a, cols


def reference_solve(rows, rhs):
    n = len(rows[0]) if rows else 0
    a, cols = reference_rref([list(row) + [b] for row, b in zip(rows, rhs)], n)
    if any(row[n] != 0 for row in a[len(cols):]):
        return None
    x = [Fraction(0)] * n
    for row, c in zip(a, cols):
        x[c] = row[n]
    return x


def reference_inverse(rows):
    n = len(rows)
    a, cols = reference_rref([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)], n)
    return None if len(cols) < n else [row[n:] for row in a]


def entry(rng):
    if rng.random() < 0.3:
        return Fraction(0)
    return Fraction(rng.randint(-12, 12), rng.choice(DENOMINATORS))


def random_matrix(rng, m, n, rank=None):
    """An m x n matrix; with `rank`, rational combinations of `rank` random
    rows, so its rank is at most that."""
    if rank is None:
        return [[entry(rng) for _ in range(n)] for _ in range(m)]
    basis = random_matrix(rng, rank, n)
    out = []
    for _ in range(m):
        coeffs = [entry(rng) for _ in basis]
        out.append([sum((c * row[j] for c, row in zip(coeffs, basis)), Fraction(0)) for j in range(n)])
    return out


def systems(seed, count, size=6):
    """Square, rectangular, rank-deficient, zero-row and empty systems;
    about half get a right-hand side in the column space, the others one
    drawn at random (inconsistent whenever rank < m)."""
    rng = random.Random(seed)
    yield [], []
    yield [[Fraction(0)] * 3 for _ in range(2)], [Fraction(0), Fraction(1, 7)]
    yield [[Fraction(0)] * 3 for _ in range(2)], [Fraction(0)] * 2
    for _ in range(count):
        m, n = rng.randint(1, size), rng.randint(1, size)
        if rng.random() < 0.3:
            m = n
        deficient = rng.random() < 0.4
        rows = random_matrix(rng, m, n, rank=rng.randint(0, min(m, n)) if deficient else None)
        if rng.random() < 0.2:
            rows[rng.randrange(m)] = [Fraction(0)] * n
        if rng.random() < 0.5:
            x0 = [entry(rng) for _ in range(n)]
            rhs = [sum((a * x for a, x in zip(row, x0)), Fraction(0)) for row in rows]
        else:
            rhs = [entry(rng) for _ in range(m)]
        yield rows, rhs


def test_solve_linear_matches_the_fraction_reference():
    outcomes = {"solved": 0, "inconsistent": 0, "free": 0}
    for rows, rhs in systems(1, 600):
        x = solve_linear(rows, rhs)
        assert x == reference_solve(rows, rhs)
        if x is None:
            outcomes["inconsistent"] += 1
            continue
        assert all(type(v) is Fraction for v in x)
        assert [sum((a * v for a, v in zip(row, x)), Fraction(0)) for row in rows] == rhs
        outcomes["solved"] += 1
        outcomes["free"] += matrix_rank(rows) < len(x)
    assert min(outcomes.values()) > 50


def test_solve_linear_on_larger_systems():
    for rows, rhs in systems(2, 40, size=16):
        assert solve_linear(rows, rhs) == reference_solve(rows, rhs)


def test_matrix_rank_matches_the_fraction_reference():
    for rows, _rhs in systems(3, 600):
        assert matrix_rank(rows) == len(reference_rref(rows, len(rows[0]) if rows else 0)[1])
    assert matrix_rank([[1, 2], [2, 4], [0, 0]]) == 1  # plain ints, as `complexes` passes them
    assert matrix_rank([]) == 0


def reference_det(rows):
    """Determinant by `Fraction` elimination, with a sign per row swap."""
    a = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for c in range(len(a)):
        p = next((i for i in range(c, len(a)) if a[i][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, len(a)):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def test_integer_inverse_matches_the_fraction_reference():
    """Random matrices, each scaled to ints by the lcm of its denominators:
    m / q is the reference inverse and q = |det|, so m is the adjugate up
    to the sign of the determinant."""
    rng = random.Random(4)
    singular = negative = 0
    for _ in range(400):
        n = rng.randint(0, 7)
        rows = random_matrix(rng, n, n, rank=rng.randint(0, n) if rng.random() < 0.4 else None)
        den = math.lcm(*(v.denominator for row in rows for v in row))
        rows = [[int(v * den) for v in row] for row in rows]
        expected = reference_inverse(rows)
        if expected is None:
            singular += 1
            with pytest.raises(SingularMatrix):
                integer_inverse(rows)
            continue
        m, q = integer_inverse(rows)
        assert [[Fraction(v, q) for v in row] for row in m] == expected
        det = reference_det(rows)
        assert q == abs(det) and type(q) is int
        assert all(type(v) is int for row in m for v in row)
        negative += det < 0
    assert singular > 50 and negative > 50


def test_linalg_errors_are_typed_and_still_value_errors():
    with pytest.raises(SingularMatrix) as exc:
        integer_inverse([[7, 6], [14, 12]])
    assert isinstance(exc.value, TropicurveError) and isinstance(exc.value, ValueError)
    with pytest.raises(ZeroVector) as exc:
        primitive((0, 0, 0))
    assert isinstance(exc.value, TropicurveError) and isinstance(exc.value, ValueError)
    assert primitive((0, -4, 6)) == (2, (0, -2, 3))
