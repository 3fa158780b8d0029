"""Exact linear algebra helpers.

Small dense systems over the rationals and the Smith normal form of integer
matrices, both with arbitrary precision.  Every dense solve, inverse and
rank goes through one fraction-free Gauss-Jordan elimination
(`_eliminate`): each row is scaled by the common denominator of its
entries, the elimination runs on Python ints, and a `Fraction` is built
once per returned entry; the inverse of an integer matrix stays in ints,
over one denominator.  Matrices are lists of lists; nothing here is
sized for more than a few dozen rows.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Sequence

from .errors import SingularMatrix, ZeroVector


def _integer_rows(rows: Iterable[Sequence[Rational]]) -> list[list[int]]:
    """Each row times the lcm of its entries' denominators, as ints; a
    system keeps its solutions.  The lcm is folded one entry at a time: a
    `math.lcm(*row)` per row made a ladder-kernels run's resident memory
    grow by about 1 MB over a few hundred operations."""
    out = []
    for row in rows:
        den = 1
        for v in row:
            den = math.lcm(den, v.denominator)
        out.append([v.numerator * (den // v.denominator) for v in row])
    return out


def _eliminate(a: list[list[int]], ncols: int) -> list[int]:
    """Fraction-free Gauss-Jordan elimination of the integer matrix `a`, in
    place, pivoting on its first `ncols` columns (Bareiss 1968).

    A step on pivot pv rewrites each other row i with a nonzero entry f in
    the pivot column as (pv * row - f * pivot row) // last[i], where
    last[i] is the pivot of the step that last rewrote row i (1 if none
    did).  By Sylvester's identity the Bareiss rows, which every step
    rewrites, are minors of `a`; row i stands for its Bareiss row times
    last[i] / prev, prev the latest pivot, so each division is exact.  The
    pivot row is brought up to date before a step uses it.  Returns the
    pivot columns; row i of the result is its pivot entry a[i][cols[i]]
    times row i of the reduced row echelon form, and the rows past the
    pivots are zero exactly where they are zero in that form.
    """
    m = len(a)
    cols: list[int] = []
    last = [1] * m  # per row: the pivot of the step that last rewrote it
    prev = 1
    for c in range(ncols):
        r = len(cols)
        if r == m:
            break
        p = next((i for i in range(r, m) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        last[r], last[p] = last[p], last[r]
        if last[r] != prev:
            a[r] = [x * prev // last[r] for x in a[r]]
        top = a[r]
        pv = top[c]
        for i, row in enumerate(a):
            f = row[c]
            if f and i != r:
                a[i] = [(pv * x - f * y) // last[i] for x, y in zip(row, top)]
                last[i] = pv
        last[r] = pv
        cols.append(c)
        prev = pv
    return cols


def solve_linear(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Solve rows * x = rhs exactly.

    Each augmented row [row | rhs] is scaled to integers by its common
    denominator and the system is reduced by `_eliminate`.  Returns one
    solution (free variables pinned to 0) or None when the system is
    inconsistent.
    """
    n = len(rows[0]) if rows else 0
    a = _integer_rows([*row, b] for row, b in zip(rows, rhs))
    cols = _eliminate(a, n)
    if any(row[n] for row in a[len(cols):]):
        return None
    x = [Fraction(0)] * n
    for row, col in zip(a, cols):
        x[col] = Fraction(row[n], row[col])
    return x


def matrix_rank(rows: Sequence[Sequence[Rational]]) -> int:
    """Rank over the rationals."""
    a = _integer_rows(rows)
    return len(_eliminate(a, len(a[0]) if a else 0))


def integer_inverse(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """Inverse of a square nonsingular integer matrix A as (m, q): q = |det A|
    and m = q * A^-1, an integer matrix, so m / q is the inverse and (m, q)
    are the adjugate and determinant when det A > 0, as for a Gram matrix.
    Raises `SingularMatrix` otherwise.  [A | I] is reduced by `_eliminate`:
    row i then is its pivot p_i times row i of [I | A^-1], and the last
    pivot is a minor of all of A, so +-det A, which makes q * row / p_i an
    exact division."""
    n = len(rows)
    a = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(rows)]
    cols = _eliminate(a, n)
    if len(cols) < n:
        raise SingularMatrix(f"singular {n}x{n} matrix (rank {len(cols)})")
    q = abs(a[-1][n - 1]) if n else 1
    return [[v * q // row[c] for v in row[n:]] for row, c in zip(a, cols)], q


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
