"""Exact linear algebra helpers.

Linear systems over the rationals and the Smith normal form of integer
matrices, both with arbitrary precision.  Every solve, inverse and rank
goes through one fraction-free forward elimination (`_eliminate`) on rows
scaled to Python ints, which keeps a band a band; `_back_substitute`
solves the echelon rows in ints, and a `Fraction` is built once per
returned entry.  Matrices are dense lists of lists.  A banded system,
such as the period matrix of a ladder on its short cycles or the reduced
Laplacian of a subdivided graph with its path points first, costs about
n^2 products times the band width; a dense one about n^3.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Sequence

from .errors import SingularMatrix, ZeroVector


def _integer_rows(rows: Iterable[Sequence[Rational]]) -> list[list[int]]:
    """Each row times the lcm of its entries' denominators, as ints; a
    system keeps its solutions.  The lcm is folded over the entries that
    are not ints, one at a time: a `math.lcm(*row)` per row made a
    ladder-kernels run's resident memory grow by about 1 MB over a few
    hundred operations."""
    out = []
    for row in rows:
        den = 1
        for v in row:
            if type(v) is not int:
                den = math.lcm(den, v.denominator)
        out.append(list(map(int, row)) if den == 1 else [v.numerator * (den // v.denominator) for v in row])
    return out


def _eliminate(a: list[list[int]], ncols: int) -> list[int]:
    """Fraction-free forward elimination of the integer matrix `a`, in
    place, pivoting on its first `ncols` columns (Bareiss 1968).

    A step on pivot pv rewrites each row below the pivot row that has a
    nonzero entry f in the pivot column as (pv * row - f * pivot row) //
    last[i], where last[i] is the pivot of the step that last rewrote row
    i (1 if none did); the rows above, and the rows below with a zero
    there, are left as they are, so a band stays a band.  By Sylvester's
    identity the rows of Bareiss's method, which rewrites every row below
    the pivot at every step, are minors of `a`; row i stands for its
    Bareiss row times last[i] / prev, prev the latest pivot, so each
    division is exact.  The pivot row is brought up to date before a step
    uses it.  Returns the pivot columns: row r of the result, for r <
    len(cols), is zero left of its pivot a[r][cols[r]], a minor of `a` on
    r + 1 rows and the first r + 1 pivot columns, and the rows past the
    pivots are zero in the first `ncols` columns and, in the others, a
    nonzero multiple of the same rows of the reduced row echelon form.
    """
    m = len(a)
    cols: list[int] = []
    last = [1] * m  # per row: the pivot of the step that last rewrote it
    prev = 1
    for c in range(ncols):
        r = len(cols)
        if r == m:
            break
        for p in range(r, m):
            if a[p][c]:
                break
        else:
            continue
        a[r], a[p] = a[p], a[r]
        last[r], last[p] = last[p], last[r]
        if last[r] != prev:
            a[r] = [x * prev // last[r] for x in a[r]]
        top = a[r]
        pv = top[c]
        for i in range(r + 1, m):
            row = a[i]
            f = row[c]
            if f:
                a[i] = [(pv * x - f * y) // last[i] for x, y in zip(row, top)]
                last[i] = pv
        cols.append(c)
        prev = pv
    return cols


def _back_substitute(a: list[list[int]], cols: list[int], n: int) -> tuple[int, list[list[int] | None]]:
    """Integer back substitution over the echelon rows that `_eliminate`
    left in `a`, with the columns from `n` on as right-hand sides.

    Returns (q, x): q is |det| of the square system of the pivot rows on
    the pivot columns, the absolute value of its last pivot, and x[c] is q
    times the solution on pivot column c, one int per right-hand side
    (None on the other columns, whose unknowns are 0).  q * x is an integer
    vector by Cramer's rule, so each (q * b_r - sum_j u_rj * x_j) // u_rc
    up the rows is exact."""
    q = abs(a[len(cols) - 1][cols[-1]]) if cols else 1
    x: list[list[int] | None] = [None] * n
    for r in reversed(range(len(cols))):
        row, c = a[r], cols[r]
        acc = [q * v for v in row[n:]]
        for j in range(c + 1, n):
            u = row[j]
            if u and x[j] is not None:
                acc = [s - u * v for s, v in zip(acc, x[j])]
        p = row[c]
        x[c] = [s // p for s in acc]
    return q, x


def solve_linear(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Solve rows * x = rhs exactly.

    Each augmented row [row | rhs] is scaled to integers by its common
    denominator (int entries are taken as they are), the system is reduced
    by `_eliminate` and solved by `_back_substitute`, and each unknown is
    built once as `Fraction(q * x, q)`.  Returns one solution (free
    variables pinned to 0) or None when the system is inconsistent.
    """
    n = len(rows[0]) if rows else 0
    a = _integer_rows([*row, b] for row, b in zip(rows, rhs))
    cols = _eliminate(a, n)
    if any(row[n] for row in a[len(cols):]):
        return None
    q, scaled = _back_substitute(a, cols, n)
    x = [Fraction(0)] * n
    for c in cols:
        x[c] = Fraction(scaled[c][0], q)
    return x


def matrix_rank(rows: Sequence[Sequence[Rational]]) -> int:
    """Rank over the rationals: the number of pivots of `_eliminate`."""
    a = _integer_rows(rows)
    return len(_eliminate(a, len(a[0]) if a else 0))


def integer_inverse(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """Inverse of a square nonsingular integer matrix A as (m, q): q = |det A|
    and m = q * A^-1, an integer matrix, so m / q is the inverse and (m, q)
    are the adjugate and determinant when det A > 0, as for a Gram matrix.
    Raises `SingularMatrix` otherwise.  [A | I] is reduced by `_eliminate`,
    whose last pivot is +-det A, and `_back_substitute` solves it for
    every column of I at once, in ints."""
    n = len(rows)
    a = [[*row, *[0] * i, 1, *[0] * (n - 1 - i)] for i, row in enumerate(rows)]
    cols = _eliminate(a, n)
    if len(cols) < n:
        raise SingularMatrix(f"singular {n}x{n} matrix (rank {len(cols)})")
    q, m = _back_substitute(a, cols, n)
    return m, q


def smith_normal_form(rows: Sequence[Sequence[int]]) -> list[int]:
    """Nonzero elementary divisors d1 | d2 | ... of an integer matrix.

    Plain row/column reduction with gcd pivoting; exact for arbitrary
    precision integers.  Returns the positive diagonal entries.
    """
    a = [list(map(int, row)) for row in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    divisors: list[int] = []
    top = 0
    while top < m and top < n:
        # find a nonzero pivot
        pivot = None
        for i in range(top, m):
            for j in range(top, n):
                if a[i][j] != 0:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        pi, pj = pivot
        a[top], a[pi] = a[pi], a[top]
        for row in a:
            row[top], row[pj] = row[pj], row[top]
        while True:
            # clear the pivot column
            changed = False
            for i in range(top + 1, m):
                if a[i][top] != 0:
                    q = a[i][top] // a[top][top]
                    a[i] = [vi - q * vt for vi, vt in zip(a[i], a[top])]
                    if a[i][top] != 0:
                        a[top], a[i] = a[i], a[top]
                        changed = True
            # clear the pivot row
            for j in range(top + 1, n):
                if a[top][j] != 0:
                    q = a[top][j] // a[top][top]
                    for row in a:
                        row[j] -= q * row[top]
                    if a[top][j] != 0:
                        for row in a:
                            row[top], row[j] = row[j], row[top]
                        changed = True
            if not changed:
                break
        # enforce divisibility of the remaining block by the pivot
        d = abs(a[top][top])
        adjusted = False
        for i in range(top + 1, m):
            for j in range(top + 1, n):
                if a[i][j] % d != 0:
                    # add row i to the pivot row and restart this pivot
                    a[top] = [vt + vi for vt, vi in zip(a[top], a[i])]
                    adjusted = True
                    break
            if adjusted:
                break
        if adjusted:
            continue
        divisors.append(d)
        top += 1
    return divisors


def content(vector: Iterable[int]) -> int:
    """gcd of the entries (0 for the zero vector)."""
    g = 0
    for v in vector:
        g = math.gcd(g, abs(v))
    return g


def primitive(vector: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Split an integer vector as m * w with w primitive; returns (m, w)."""
    g = content(vector)
    if g == 0:
        raise ZeroVector("zero vector has no primitive direction")
    return g, tuple(v // g for v in vector)


def is_saturated_span(rows: Sequence[Sequence[int]]) -> tuple[bool, list[int]]:
    """Whether the Z-span of the rows is saturated in Z^n.

    Saturated means every elementary divisor equals 1.  Returns the flag
    together with the divisor list (the certificate).
    """
    divisors = smith_normal_form(rows)
    return all(d == 1 for d in divisors), divisors
