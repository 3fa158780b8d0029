"""The fraction-free kernel of `linalg` against a plain `Fraction`
Gauss-Jordan elimination, kept here as the reference."""

import math
import random
from fractions import Fraction

import pytest

from tropicurve.errors import SingularMatrix, TropicurveError, ZeroVector
from tropicurve.graphs import CycleSpace
from tropicurve.linalg import _eliminate, integer_inverse, matrix_rank, primitive, solve_linear

from randgen import ladder

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
                a[i] = [x - f * y if y else x for x, y in zip(a[i], a[r])]
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


def random_matrix(rng, m, n, rank=None, band=None):
    """An m x n matrix; with `band`, zero more than `band` places off the
    diagonal (1 is tridiagonal); with `rank`, rational combinations of
    `rank` random rows, so its rank is at most that."""
    if rank is None:
        return [[entry(rng) if band is None or abs(i - j) <= band else Fraction(0) for j in range(n)] for i in range(m)]
    basis = random_matrix(rng, rank, n)
    out = []
    for _ in range(m):
        coeffs = [entry(rng) for _ in basis]
        out.append([sum((c * row[j] for c, row in zip(coeffs, basis)), Fraction(0)) for j in range(n)])
    return out


def sparse_deficient(rng, n):
    """An n x n matrix of band 1 or 2 with one to four rows replaced by
    combinations of two kept rows: sparse, and of rank below n."""
    rows = random_matrix(rng, n, n, band=rng.randint(1, 2))
    replaced = rng.sample(range(n), rng.randint(1, 4))
    kept = [i for i in range(n) if i not in replaced]
    for i in replaced:
        j, k = rng.sample(kept, 2)
        cj, ck = entry(rng), entry(rng)
        rows[i] = [cj * x + ck * y for x, y in zip(rows[j], rows[k])]
    return rows


def reduced_laplacian(rng):
    """The reduced Laplacian of a random connected multigraph on 2 to 4
    vertices with every edge cut into a path of 1 to 8 segments: vertex 0
    dropped, and rows and unknowns by increasing degree, as
    `chipfiring.laplacian_equivalent` orders them.  Int rows, nonsingular."""
    nv = rng.randint(2, 4)
    ends = [(i, i + 1) for i in range(nv - 1)]
    ends += [tuple(rng.sample(range(nv), 2)) for _ in range(rng.randint(1, 3))]
    n, edges = nv, []
    for u, v in ends:
        prev = u
        for _ in range(rng.randint(1, 8) - 1):
            edges.append((prev, n))
            prev, n = n, n + 1
        edges.append((prev, v))
    adj = [[0] * n for _ in range(n)]
    for u, v in edges:
        adj[u][v] += 1
        adj[v][u] += 1
    order = sorted(range(1, n), key=lambda v: sum(adj[v]))
    return [[sum(adj[v]) * (v == w) - adj[v][w] for w in order] for v in order]


def with_rhs(rng, rows):
    """About half the time a right-hand side in the column space, else one
    drawn at random (inconsistent whenever rank < m)."""
    n = len(rows[0]) if rows else 0
    if rng.random() < 0.5:
        x0 = [entry(rng) for _ in range(n)]
        return rows, [sum((a * x for a, x in zip(row, x0)), Fraction(0)) for row in rows]
    return rows, [entry(rng) for _ in rows]


def as_integers(rows, rhs):
    """The same system with each equation times the lcm of its
    denominators, as int rows and an int right-hand side."""
    out, scaled = [], []
    for row, b in zip(rows, rhs):
        den = math.lcm(*(Fraction(v).denominator for v in [*row, b]))
        out.append([int(v * den) for v in row])
        scaled.append(int(b * den))
    return out, scaled


def systems(seed, count, size=6):
    """Square, rectangular, rank-deficient, zero-row and empty systems of at
    most `size` rows and columns.  Then, per 50 of `count`, systems shaped
    like the library's: a banded and a tridiagonal one of 8 to 24 rows, the
    reduced Laplacian of a path-subdivided graph and a sparse rank-deficient
    one of 40 to 80 rows, every other one with int rows."""
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
        yield with_rhs(rng, rows)
    for i in range(max(1, count // 50)):
        n = rng.randint(8, 24)
        shaped = [
            random_matrix(rng, n + rng.randint(-2, 2), n, band=rng.randint(2, 4)),
            random_matrix(rng, n, n, band=1),
            reduced_laplacian(rng),
            sparse_deficient(rng, rng.randint(40, 80)),
        ]
        for j, rows in enumerate(shaped):
            system = with_rhs(rng, rows)
            yield as_integers(*system) if (i + j) % 2 else system


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


def square_matrices():
    """400 random matrices of size 0 to 7, then the square banded,
    tridiagonal and reduced-Laplacian matrices of `systems` of 8 to 30 rows."""
    rng = random.Random(4)
    for _ in range(400):
        n = rng.randint(0, 7)
        yield random_matrix(rng, n, n, rank=rng.randint(0, n) if rng.random() < 0.4 else None)
    for rows, _rhs in systems(5, 500):
        if 8 <= len(rows) == len(rows[0]) <= 30:
            yield rows


def test_integer_inverse_matches_the_fraction_reference():
    """Square matrices, each scaled to ints by the lcm of its denominators:
    m / q is the reference inverse and q = |det|, so m is the adjugate up
    to the sign of the determinant."""
    singular = negative = shaped = 0
    for rows in square_matrices():
        den = math.lcm(*(Fraction(v).denominator for row in rows for v in row))
        rows = [[int(v * den) for v in row] for row in rows]
        shaped += len(rows) >= 8
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
    assert singular > 50 and negative > 50 and shaped >= 15


def test_int_entries_fold_no_lcm(monkeypatch):
    """The lcm of a row's denominators is folded over its entries that are
    not ints only: an int system makes no `math.lcm` call, and int rows
    with a `Fraction` right-hand side, as in the period solve, one per
    `Fraction`."""
    calls = []
    lcm = math.lcm
    monkeypatch.setattr(math, "lcm", lambda *args: calls.append(args) or lcm(*args))
    rows = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    assert solve_linear(rows, [1, 0, 1]) == [1, 1, 1] and calls == []
    assert solve_linear(rows, [Fraction(1, 3), 0, Fraction(1, 3)]) == [Fraction(1, 3)] * 3
    assert len(calls) == 2 and matrix_rank(rows) == 3 and len(calls) == 2


def test_forward_elimination_keeps_the_band_of_a_ladder():
    """The breadth-first cycles of a 40-rung ladder (E = 118) are its 39
    squares, and their gram matrix is tridiagonal along the ladder.  The
    elimination leaves each pivot row with entries only in its pivot
    column, the next one and the right-hand side; a Gauss-Jordan step would
    also rewrite the rows above the pivot and fill them in.  In the id
    order `b0, b1, b10, ...` of the period solve the band is cut at every
    tenth square, and no echelon row gets more than three coefficients."""
    cs = CycleSpace(ladder(random.Random(0), 40))
    n = len(cs._gram)
    assert len(cs.edges) == 118 and n == 39
    along = sorted(range(n), key=lambda i: int(cs.complement[i].removeprefix("b")))
    a = [{j: v for j, v in enumerate([cs._gram[i][k] for k in along] + [1]) if v} for i in along]
    assert all(abs(i - j) <= 1 for i, row in enumerate(a) for j in row if j < n)
    assert _eliminate(a, n) == list(range(n))
    for c, row in enumerate(a):
        assert set(row) <= {c, c + 1, n}
    a = [{j: v for j, v in enumerate([*row, 1]) if v} for row in cs._gram]
    assert len(_eliminate(a, n)) == n
    assert max(sum(j < n for j in row) for row in a) == 3


def test_linalg_errors_are_typed_and_still_value_errors():
    with pytest.raises(SingularMatrix) as exc:
        integer_inverse([[7, 6], [14, 12]])
    assert isinstance(exc.value, TropicurveError) and isinstance(exc.value, ValueError)
    with pytest.raises(ZeroVector) as exc:
        primitive((0, 0, 0))
    assert isinstance(exc.value, TropicurveError) and isinstance(exc.value, ValueError)
    assert primitive((0, -4, 6)) == (2, (0, -2, 3))
