"""Reflections as a root and a coroot row, cross-checked against the matrix
route they replaced: conjugated matrices, root_of_reflection, the product of
n matrices, and the row update t m against the matrix product.

B3, C3, G2 and F4 are valued types, where the coroot row of a root is not its
transpose, so a row update that mixed the two would show there.
"""

import random

import pytest

from schur_scope import hurwitz, weyl
from schur_scope._matrix import identity, matmul
from schur_scope.cartan import preset
from schur_scope.hurwitz import (
    Factorization,
    apply_braid_word,
    canonical_factorization,
    hurwitz_orbit,
)

from test_hurwitz import conjugate_reflection

PRESETS = ("A3", "B3", "C3", "G2", "F4", "D4", "affine-A2", "universal:3:2")
NODE_CAP = 2_000


def _matrix_product(parts):
    product = identity(len(parts[0].root))
    for t in parts:
        product = matmul(product, t.matrix)
    return product


@pytest.mark.parametrize("name", PRESETS)
def test_table_rows_give_the_reflection_matrices(name):
    C = preset(name)
    start = canonical_factorization(C)
    # The table is shared by every search on C; a fresh one holds the rows
    # and pairs of this walk alone, whatever ran before.
    hurwitz._root_tuples.cache_clear()
    hurwitz_orbit(C, start, NODE_CAP)
    rows = hurwitz._root_tuples(C)
    # Ids to roots, each row built through the table.
    table = {root: rows.reflection(g) for g, root in enumerate(rows.roots)}
    assert len(table) > C.n
    for root, t in table.items():
        assert t.root == root
        assert t.matrix == weyl.reflection_for_root(C, root).matrix
        assert weyl.root_of_reflection(t.matrix) == root
    # Each memoized move is the root of the conjugated matrix, and its row,
    # read off the form, is the pair's rows conjugated.
    assert rows.pairs
    for ids, moved in rows.pairs.items():
        (a, b), root = map(rows.roots.__getitem__, ids), rows.roots[moved]
        conjugated = matmul(matmul(table[a].matrix, table[b].matrix), table[a].matrix)
        assert weyl.root_of_reflection(conjugated) == root
        assert table[root] == conjugate_reflection(table[a], table[b])


def _conjugate_matrices(a, b):
    """a b a^{-1} on (matrix, root) pairs, the root recomputed from the
    conjugated matrix: the conjugation the row update replaced."""
    matrix = matmul(matmul(a[0], b[0]), a[0])  # reflections are involutions
    return matrix, weyl.root_of_reflection(matrix)


def _matrix_replay(C, word):
    parts = [(t.matrix, t.root) for t in canonical_factorization(C).parts]
    for letter in word:
        i = abs(letter)
        a, b = parts[i - 1], parts[i]
        if letter < 0:
            parts[i - 1 : i + 1] = [b, _conjugate_matrices(b, a)]
        else:
            parts[i - 1 : i + 1] = [_conjugate_matrices(a, b), a]
    return parts


def test_braid_words_match_the_matrix_replay():
    rng = random.Random(11)
    for _ in range(200):
        C = preset(rng.choice(PRESETS))
        word = tuple(
            rng.choice((1, -1)) * rng.randint(1, C.n - 1)
            for _ in range(rng.randint(1, 8))
        )
        moved = apply_braid_word(C, canonical_factorization(C), word)
        assert [(t.matrix, t.root) for t in moved.parts] == _matrix_replay(C, word)


@pytest.mark.parametrize("name", PRESETS)
def test_row_product_check_agrees_with_matmul(name):
    C = preset(name)
    start = canonical_factorization(C)
    orbit = hurwitz_orbit(C, start, NODE_CAP)
    kinds = set()
    for f in (orbit.table.factorization(node, start.coxeter) for node in orbit.nodes):
        assert _matrix_product(f.parts) == f.coxeter
        assert Factorization(f.parts, f.coxeter) == f
        for i in range(1, f.n):
            parts = f.parts[: i - 1] + (f.parts[i], f.parts[i - 1]) + f.parts[i + 1 :]
            if _matrix_product(parts) == f.coxeter:
                kinds.add("accepted")
                Factorization(parts, f.coxeter)
            else:
                kinds.add("rejected")
                with pytest.raises(ValueError):
                    Factorization(parts, f.coxeter)
    # A swap keeps the product iff the two reflections commute, that is iff
    # their roots are orthogonal.  G2, affine-A2 and universal:3:2 have no
    # orthogonal real roots; the other presets meet such adjacent pairs.
    orthogonal = name not in ("G2", "affine-A2", "universal:3:2")
    assert kinds == ({"accepted", "rejected"} if orthogonal else {"rejected"})


@pytest.mark.parametrize("name", ["A3", "B3", "G2", "F4", "E6"])
def test_left_multiply_matches_matmul(name):
    """t m = m - beta (phi m) by rows equals t.matrix times m, on group
    elements and on random integer matrices; a root with a zero coordinate
    takes the path that reuses that row of m."""
    C = preset(name)
    rng = random.Random(15)
    reused = 0
    for t in weyl.reflections(C):
        samples = [weyl.coxeter_element(C), t.matrix]
        samples += [
            tuple(tuple(rng.randint(-9, 9) for _ in range(C.n)) for _ in range(C.n))
            for _ in range(20)
        ]
        for m in samples:
            product = t.left_multiply(m)
            assert product == matmul(t.matrix, m), (t, m)
            reused += sum(row is old for row, old in zip(product, m))
    assert reused
