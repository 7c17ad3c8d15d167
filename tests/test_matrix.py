"""The integer (fraction-free) kernels of _matrix against the Gaussian
elimination over Fractions that they replaced, and matmul and mat_sub against
the entrywise loops, kept here as the references."""

import random
from fractions import Fraction

import pytest

from schur_scope import weyl
from schur_scope._matrix import _eliminate, det, identity, inverse, mat_sub, matmul, rank
from schur_scope.cartan import preset


def mat_pow(a, k):
    """a^k by repeated squaring; a negative k powers the inverse.  The tests
    that take powers of c import it from here."""
    if k < 0:
        return mat_pow(inverse(a), -k)
    result = identity(len(a))
    while k:
        if k & 1:
            result = matmul(result, a)
        a, k = matmul(a, a), k >> 1
    return result


def _triple_loop_product(a, b):
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i][j] += a[i][k] * b[k][j]
    return tuple(tuple(row) for row in out)


def _fraction_det(a):
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
    assert value.denominator == 1
    return int(value)


def _fraction_rank(a):
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


def _fraction_inverse(a):
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


def _outcome(f, a):
    try:
        return f(a)
    except ValueError as exc:
        return ("ValueError", str(exc))


def _random_matrix(rng, n_rows, n_cols, bound):
    return tuple(
        tuple(rng.randint(-bound, bound) for _ in range(n_cols)) for _ in range(n_rows)
    )


def _random_unimodular(rng, n):
    """A product of random elementary integer row operations and a sign flip."""
    rows = [list(row) for row in identity(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            factor = rng.randint(-2, 2)
            rows[i] = [x + factor * y for x, y in zip(rows[i], rows[j])]
    k = rng.randrange(n)
    rows[k] = [-x for x in rows[k]]
    rng.shuffle(rows)
    return tuple(tuple(row) for row in rows)


def _random_low_rank(rng, n_rows, n_cols):
    k = rng.randint(0, min(n_rows, n_cols) - 1)
    left = _random_matrix(rng, n_rows, k, 3)
    right = _random_matrix(rng, k, n_cols, 3)
    return tuple(
        tuple(sum(left[i][m] * right[m][j] for m in range(k)) for j in range(n_cols))
        for i in range(n_rows)
    )


def _square_cases(rng, count):
    """Random square matrices of size 1-7: dense (mostly non-unimodular),
    unimodular, and singular by construction."""
    for _ in range(count):
        n = rng.randint(1, 7)
        kind = rng.randrange(3)
        if kind == 0:
            yield _random_matrix(rng, n, n, rng.choice((1, 3, 20)))
        elif kind == 1:
            yield _random_unimodular(rng, n)
        else:
            yield _random_low_rank(rng, n, n)


def test_rank_matches_fraction_reference():
    rng = random.Random(11)
    for _ in range(3000):
        n_rows, n_cols = rng.randint(1, 7), rng.randint(1, 7)
        if rng.random() < 0.5:
            a = _random_low_rank(rng, n_rows, n_cols)
        else:
            a = _random_matrix(rng, n_rows, n_cols, rng.choice((1, 2, 20)))
        assert rank(a) == _fraction_rank(a), a
    assert rank(()) == _fraction_rank(()) == 0


def _row_scan_rank(a):
    """The integer elimination rank kept before zero rows were dropped: every
    row, zero or not, stays in the working copy and is scanned for a pivot at
    every column."""
    rows = [list(row) for row in a]
    n_rows, n_cols = len(rows), len(rows[0]) if rows else 0
    r = 0
    for col in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        for i in range(r + 1, n_rows):
            if rows[i][col]:
                rows[i] = _eliminate(rows[i], top, col)
        r += 1
        if r == n_rows:
            break
    return r


def _with_zero_lines(rng, a):
    """a with zero rows and zero columns put in at random places."""
    rows = [list(row) for row in a]
    for _ in range(rng.randint(0, 3)):
        k = rng.randint(0, len(rows[0]))
        rows = [row[:k] + [0] + row[k:] for row in rows]
    for _ in range(rng.randint(0, 3)):
        rows.insert(rng.randint(0, len(rows)), [0] * len(rows[0]))
    return tuple(tuple(row) for row in rows)


def test_rank_matches_the_row_scan_rank_with_zero_rows_and_columns():
    rng = random.Random(13)
    for _ in range(3000):
        n_rows, n_cols = rng.randint(1, 7), rng.randint(1, 7)
        if rng.random() < 0.5:
            a = _random_low_rank(rng, n_rows, n_cols)
        else:
            a = _random_matrix(rng, n_rows, n_cols, rng.choice((1, 2, 20)))
        a = _with_zero_lines(rng, a)
        assert rank(a) == _row_scan_rank(a), a
    assert rank(((0, 0), (0, 0))) == 0


@pytest.mark.parametrize("name", ["D5", "E6"])
def test_rank_of_w_minus_1_matches_the_row_scan_rank(name):
    # Carter's lemma against the lengths of _absolute_length_table: row j is
    # the column w(alpha_j) - alpha_j of w - 1, for every element w of the group.
    C = preset(name)
    roots = weyl._root_ids(C).roots
    shifted = [
        [tuple([x - (i == j) for i, x in enumerate(beta)]) for beta in roots]
        for j in range(C.n)
    ]
    table = weyl._absolute_length_table(C)
    for w, length in table.items():
        rows = [shifted[j][k] for j, k in enumerate(w)]
        assert length == rank(rows) == _row_scan_rank(rows), w


def test_det_matches_fraction_reference():
    rng = random.Random(12)
    values = set()
    for a in _square_cases(rng, 3000):
        value = det(a)
        assert value == _fraction_det(a), a
        values.add(value)
    assert {0, 1, -1} <= values and any(abs(v) > 1 for v in values)


def test_inverse_matches_fraction_reference():
    rng = random.Random(13)
    seen = set()
    for a in _square_cases(rng, 3000):
        result = _outcome(inverse, a)
        assert result == _outcome(_fraction_inverse, a), a
        if result[0] == "ValueError":
            seen.add(result[1])
        else:
            assert matmul(a, result) == identity(len(a))
            seen.add("integral")
    assert seen == {"integral", "matrix is singular", "inverse is not an integer matrix"}


def test_matmul_matches_triple_loop_reference():
    rng = random.Random(14)
    for _ in range(2000):
        n = rng.randint(1, 8)
        bound = rng.choice((1, 3, 10**6))
        a = _random_matrix(rng, n, n, bound)
        b = _random_matrix(rng, n, n, bound)
        assert matmul(a, b) == _triple_loop_product(a, b), (a, b)
    with pytest.raises(ValueError):
        matmul(identity(2), identity(3))


def test_mat_sub_matches_entrywise_reference():
    rng = random.Random(16)
    for _ in range(500):
        n = rng.randint(1, 8)
        a = _random_matrix(rng, n, n, 10**6)
        b = _random_matrix(rng, n, n, 10**6)
        assert mat_sub(a, b) == tuple(
            tuple(a[i][j] - b[i][j] for j in range(n)) for i in range(n)
        )
