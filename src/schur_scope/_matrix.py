"""Exact arithmetic on small integer matrices.

All group elements and roots in this package are plain tuples of Python ints,
so every computation is exact and every value is hashable.  Matrices are
stored row-major; column j holds the image of the j-th basis vector.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def matmul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    if len(b) != n:
        raise ValueError(f"rank mismatch: {len(a)} vs {len(b)}")
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def matvec(a: Matrix, v: Vector) -> Vector:
    if len(a) != len(v):
        raise ValueError(f"rank mismatch: {len(a)} vs {len(v)}")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_pow(a: Matrix, k: int) -> Matrix:
    if k < 0:
        return mat_pow(inverse(a), -k)
    result = identity(len(a))
    base = a
    while k:
        if k & 1:
            result = matmul(result, base)
        base = matmul(base, base)
        k >>= 1
    return result


def det(a: Matrix) -> int:
    """Exact determinant by Gaussian elimination over Fractions on a working copy."""
    n = len(a)
    rows = [[Fraction(x) for x in row] for row in a]
    sign = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        for r in range(col + 1, n):
            factor = rows[r][col] / rows[col][col]
            if factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    value = Fraction(sign)
    for i in range(n):
        value *= rows[i][i]
    if value.denominator != 1:
        raise ArithmeticError("determinant of an integer matrix is not an integer")
    return int(value)


def rank(a: Matrix) -> int:
    rows = [[Fraction(x) for x in row] for row in a]
    n_rows, n_cols = len(rows), len(rows[0]) if rows else 0
    r = 0
    for col in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(n_rows):
            if i != r and rows[i][col]:
                factor = rows[i][col] / rows[r][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == n_rows:
            break
    return r


def inverse(a: Matrix) -> Matrix:
    """Exact inverse; raises if singular or if the inverse is not integral."""
    n = len(a)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv_pivot = 1 / rows[col][col]
        rows[col] = [x * inv_pivot for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    out = []
    for i in range(n):
        entries = rows[i][n:]
        if any(x.denominator != 1 for x in entries):
            raise ValueError("inverse is not an integer matrix")
        out.append(tuple(int(x) for x in entries))
    return tuple(out)


def primitive(v: Vector) -> Vector:
    """Divide out the gcd of the entries (zero vector is returned unchanged)."""
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    if g <= 1:
        return v
    return tuple(x // g for x in v)
