"""Exact linear algebra helpers.

Linear systems over the rationals and the Smith normal form of integer
matrices, both with arbitrary precision.  Every solve, inverse and rank
goes through one fraction-free forward elimination (`_eliminate`) on
sparse rows {column: int}, and `_back_substitute` solves the echelon rows
in ints, so a `Fraction` is built once per returned entry.  Callers pass
dense lists of lists; `_sparse` keeps the nonzero entries of each row,
scaled to Python ints.  A step reads only the rows with an entry in its
pivot column and writes each on the union of its columns and the pivot
row's, so a banded system, such as the period matrix of a ladder on its
short cycles or the reduced Laplacian of a subdivided graph with its path
points first, is eliminated in about n times the band width squared
products, and a dense one in about n^3.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress
from numbers import Rational
from typing import Iterable, Sequence

from .errors import SingularMatrix, ZeroVector


def _sparse(row: Sequence[Rational]) -> dict[int, int]:
    """The nonzero entries of a row as {column: int}, all times the lcm of
    their denominators; a system keeps its solutions.  The lcm is folded
    over the entries that are not ints, one at a time: a `math.lcm(*row)`
    per row made a ladder-kernels run's resident memory grow by about 1 MB
    over a few hundred operations."""
    out = {j: row[j] for j in compress(range(len(row)), row)}
    fractional = [v for v in out.values() if type(v) is not int]
    if not fractional:
        return out
    den = 1
    for v in fractional:
        den = math.lcm(den, v.denominator)
    return {j: v.numerator * (den // v.denominator) for j, v in out.items()}


def _eliminate(a: list[dict[int, int]], ncols: int) -> list[int]:
    """Fraction-free forward elimination of the integer matrix `a`, given
    by sparse rows {column: nonzero entry}, in place, pivoting on its first
    `ncols` columns (Bareiss 1968).

    The rows are kept by their first column, so a step on column c reads
    just the rows with an entry there, and takes the first of them, in
    the order of `a`, as its pivot row.  A step on pivot pv rewrites each
    of the others as (pv * row - f * pivot row) // last[i], f its entry in
    column c and last[i] the pivot of the step that last rewrote row i (1
    if none did); the other rows are left as they are, so a band stays a
    band, and a rewritten row holds only the columns of the two rows it
    combines, less those that cancel.  By Sylvester's identity the rows of
    Bareiss's method, which rewrites every row below the pivot at every
    step, are minors of `a`; row i stands for its Bareiss row times
    last[i] / prev, prev the latest pivot, so each division is exact.  The
    pivot row is brought up to date before a step uses it.  The pivot rows
    are then moved to the top, in step order, and the pivot columns
    returned: row r of the result, for r < len(cols), has no entry left of
    its pivot a[r][cols[r]], a minor of `a` on r + 1 rows and the first r +
    1 pivot columns, and the rows past the pivots have no entry in the
    first `ncols` columns and, in the others, are a nonzero multiple of the
    same rows of the reduced row echelon form.
    """
    lead: dict[int, list[int]] = {}  # per column: the rows, not pivot rows, that start there
    for i, row in enumerate(a):
        if row:
            lead.setdefault(min(row), []).append(i)
    last = [1] * len(a)  # per row: the pivot of the step that last rewrote it
    prev = 1
    cols: list[int] = []
    pivots: list[int] = []
    for c in range(ncols):
        rows = lead.pop(c, None)
        if rows is None:
            continue
        p = min(rows)
        if last[p] != prev:
            a[p] = {j: x * prev // last[p] for j, x in a[p].items()}
        top = a[p]
        pv = top[c]
        for i in rows:
            if i == p:
                continue
            row = a[i]
            f = row[c]
            new = {j: pv * x for j, x in row.items()}
            for j, y in top.items():
                new[j] = new.get(j, 0) - f * y
            li = last[i]
            a[i] = row = {j: v // li for j, v in new.items() if v}
            last[i] = pv
            if row:
                lead.setdefault(min(row), []).append(i)
        cols.append(c)
        pivots.append(p)
        prev = pv
    taken = set(pivots)
    a[:] = [a[i] for i in pivots] + [row for i, row in enumerate(a) if i not in taken]
    return cols


def _back_substitute(
    a: list[dict[int, int]], cols: list[int], n: int, width: int
) -> tuple[int, list[list[int] | None]]:
    """Integer back substitution over the echelon rows that `_eliminate`
    left in `a`, with the `width` columns from `n` on as right-hand sides.

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
        acc = [q * row.get(j, 0) for j in range(n, n + width)]
        for j, u in row.items():
            if j < n and x[j] is not None:
                acc = [s - u * v for s, v in zip(acc, x[j])]
        p = row[c]
        x[c] = [s // p for s in acc]
    return q, x


def solve_linear(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Solve rows * x = rhs exactly.

    Each augmented row [row | rhs] is taken as a sparse row scaled to
    integers by its common denominator (int entries are taken as they
    are), the system is reduced by `_eliminate` and solved by
    `_back_substitute`, and each unknown is built once as `Fraction(q * x,
    q)`.  Returns one solution (free variables pinned to 0) or None when
    the system is inconsistent.
    """
    n = len(rows[0]) if rows else 0
    a = [_sparse([*row, b]) for row, b in zip(rows, rhs)]
    cols = _eliminate(a, n)
    if any(n in row for row in a[len(cols):]):
        return None
    q, scaled = _back_substitute(a, cols, n, 1)
    x = [Fraction(0)] * n
    for c in cols:
        x[c] = Fraction(scaled[c][0], q)
    return x


def matrix_rank(rows: Sequence[Sequence[Rational]]) -> int:
    """Rank over the rationals: the number of pivots of `_eliminate`."""
    return len(_eliminate(list(map(_sparse, rows)), len(rows[0]) if rows else 0))


def integer_inverse(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """Inverse of a square nonsingular integer matrix A as (m, q): q = |det A|
    and m = q * A^-1, an integer matrix, so m / q is the inverse and (m, q)
    are the adjugate and determinant when det A > 0, as for a Gram matrix.
    Raises `SingularMatrix` otherwise.  [A | I] is reduced by `_eliminate`,
    whose last pivot is +-det A, and `_back_substitute` solves it for
    every column of I at once, in ints."""
    n = len(rows)
    a = [_sparse(row) | {n + i: 1} for i, row in enumerate(rows)]
    cols = _eliminate(a, n)
    if len(cols) < n:
        raise SingularMatrix(f"singular {n}x{n} matrix (rank {len(cols)})")
    q, m = _back_substitute(a, cols, n, n)
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
