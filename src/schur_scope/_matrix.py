"""Exact arithmetic on small integer matrices.

All group elements and roots in this package are plain tuples of Python ints,
so every computation is exact and every value is hashable.  Matrices are
stored row-major; column j holds the image of the j-th basis vector.
matvec is the package's one product of a matrix and a vector; a product of
reflections is weyl.reflection_product, which builds no reflection's
matrix.  The eliminations (det, rank, inverse) are fraction-free: they
combine rows with integer coefficients and divide only where the division
is exact.
"""

from __future__ import annotations

from math import gcd
from operator import mul, sub

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def matmul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    if len(b) != n:
        raise ValueError(f"rank mismatch: {len(a)} vs {len(b)}")
    bt = tuple(zip(*b))
    return tuple(tuple([sum(map(mul, row, col)) for col in bt]) for row in a)


def matvec(a: Matrix, v: Vector) -> Vector:
    """a v: entry i is row i of a against v."""
    if len(a) != len(v):
        raise ValueError(f"rank mismatch: {len(a)} vs {len(v)}")
    return tuple([sum(map(mul, row, v)) for row in a])


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(map(sub, ra, rb)) for ra, rb in zip(a, b))


def det(a: Matrix) -> int:
    """Exact determinant by Bareiss's fraction-free elimination: after step k
    every entry of the working copy is a (k+1)-by-(k+1) minor of a, so each
    division by the previous pivot is exact and all values stay integers."""
    n = len(a)
    rows = [list(row) for row in a]
    sign = 1
    previous = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        top = rows[col]
        p = top[col]
        for r in range(col + 1, n):
            f = rows[r][col]
            rows[r] = [(p * x - f * y) // previous for x, y in zip(rows[r], top)]
        previous = p
    return sign * previous


def _eliminate(row: list[int], pivot_row: list[int], col: int) -> list[int]:
    """p * row - f * pivot_row with p = pivot_row[col] and f = row[col],
    divided by the gcd of its entries: an integer row with a zero in column
    col that spans, together with pivot_row, the same space over Q as before."""
    p, f = pivot_row[col], row[col]
    out = [p * x - f * y for x, y in zip(row, pivot_row)]
    g = gcd(*out)
    return [x // g for x in out] if g > 1 else out


def rank(a: Matrix) -> int:
    """Exact rank by integer elimination (no Fractions): the size of an
    echelon basis of the rows.  Each row is reduced by the basis rows in
    turn, which leaves it zero at their leading columns, and joins the basis
    unless it is then zero; so every basis row is zero at the leading
    columns of the rows before it.  A zero row, given or made by
    elimination, is dropped at once, so no pivot search reads it."""
    basis = []  # (leading column, row)
    for row in a:
        if not any(row):
            continue
        for col, pivot in basis:
            if row[col]:
                row = _eliminate(row, pivot, col)
        for lead, x in enumerate(row):
            if x:
                basis.append((lead, row))
                break
    return len(basis)


def inverse(a: Matrix) -> Matrix:
    """Exact inverse; raises if singular or if the inverse is not integral.

    Integer Gauss-Jordan elimination of [a | id] leaves row i as
    [d_i e_i | b_i] with a^-1 row i = b_i / d_i; each row is primitive (its
    gcd divided out), so that quotient is integral exactly when d_i = +-1.
    """
    n = len(a)
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col]
        for r in range(n):
            if r != col and rows[r][col]:
                rows[r] = _eliminate(rows[r], top, col)
    out = []
    for i, row in enumerate(rows):
        d = row[i]
        if d not in (1, -1):
            raise ValueError("inverse is not an integer matrix")
        out.append(tuple(d * x for x in row[n:]))
    return tuple(out)


def primitive(v: Vector) -> Vector:
    """Divide out the gcd of the entries (zero vector is returned unchanged)."""
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    if g <= 1:
        return v
    return tuple(x // g for x in v)
