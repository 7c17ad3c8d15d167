"""The finite group on root ids against the matrix route it replaced, kept
here as the reference.

The reference closes the identity matrix under s_i w, each move rebuilding
row i from its neighbours' rows; it reads lengths as rank(w - id) of the
matrices; it filters the group by l(w) + l(c^-1 w) = l(c) with one matmul
per element; and it finds the covers of u as the row updates t u.  The
weyl tables walk tuples of root ids instead.  Both must give the same
elements, lengths, members, ranks and covers.

matrix_group and matrix_length_table give the weyl tables with their
elements as matrices, for the tests that key the table by matrices.
"""

import functools

import pytest

from schur_scope import weyl
from schur_scope._matrix import identity, inverse, mat_sub, matmul, rank
from schur_scope.cartan import preset
from schur_scope.ncposet import enumerate_nc
from schur_scope.weyl import Reflection

SMALL_FINITE = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C2", "C3", "C4",
                "D3", "D4", "D5", "G2", "F4"]  # every finite preset with |W| <= 2000
LARGE = ["B5", "A6", "D6", "E6"]  # |W| = 3840, 5040, 23040 and 51840


@functools.lru_cache(maxsize=8)
def matrix_group(C):
    """enumerate_group(C), each element as its matrix."""
    return frozenset(weyl._element_matrix(C, w) for w in weyl.enumerate_group(C))


@functools.lru_cache(maxsize=8)
def matrix_length_table(C):
    """_absolute_length_table(C), keyed by matrices."""
    return {weyl._element_matrix(C, w): k for w, k in weyl._absolute_length_table(C).items()}


@functools.lru_cache(maxsize=4)
def _rank_table(C):
    """Reference: the closure of the identity under s_i w, where s_i w
    differs from w only in row i, which becomes -w_i - sum_{j != i} a_ij w_j,
    with rank(w - id) for each of its matrices."""
    n = C.n
    neighbours = [
        [(j, C.entries[i][j]) for j in range(n) if j != i and C.entries[i][j]]
        for i in range(n)
    ]

    def moves(w):
        for i, row_neighbours in enumerate(neighbours):
            row = [-x for x in w[i]]
            for j, a_ij in row_neighbours:
                row = [x - a_ij * y for x, y in zip(row, w[j])]
            yield w[:i] + (tuple(row),) + w[i + 1 :]

    elements, complete = weyl._bounded_closure([identity(n)], moves, weyl.group_order(C))
    assert complete and len(elements) == weyl.group_order(C)
    one = identity(n)
    return {w: rank(mat_sub(w, one)) for w in elements}


def _matrix_nc(C, order):
    """Reference: the c^-1 w matmul filter, sorted by (rank, matrix), and the
    covers of u as the row updates t u."""
    c = weyl.coxeter_element(C, order)
    c_inverse = inverse(c)
    table = _rank_table(C)
    members = [
        w for w in table if table[w] + table[matmul(c_inverse, w)] == table[c]
    ]
    members.sort(key=lambda w: (table[w], w))
    ranks = tuple(table[w] for w in members)
    index = {w: i for i, w in enumerate(members)}
    covers = sorted(
        (i, j)
        for i, u in enumerate(members)
        for t in weyl.reflections(C)
        if (j := index.get(t.left_multiply(u))) is not None and ranks[j] == ranks[i] + 1
    )
    return tuple(members), ranks, tuple(covers)


@pytest.mark.parametrize("name", SMALL_FINITE + LARGE)
def test_id_group_maps_onto_the_matrix_closure_with_equal_lengths(name):
    C = preset(name)
    group = weyl.enumerate_group(C)
    table = matrix_length_table(C)
    assert len(table) == len(group)  # distinct ids, distinct matrices
    assert matrix_group(C) == set(_rank_table(C))
    assert table == _rank_table(C)
    assert all(weyl._element_ids(C, weyl._element_matrix(C, w)) == w for w in group)


def _other_order(n):
    """Even letters first, then odd ones: a Coxeter element other than the
    identity order's, from rank 2 on."""
    return tuple(range(2, n + 1, 2)) + tuple(range(1, n + 1, 2))


NC_PRESETS = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "D4", "D5", "F4", "G2"]


@pytest.mark.parametrize(
    "name, other", [(name, other) for name in NC_PRESETS for other in (False, True)]
)
def test_enumerate_nc_matches_the_matrix_route(name, other):
    C = preset(name)
    order = _other_order(C.n) if other else None
    poset = enumerate_nc(C, order)
    assert (poset.elements, poset.ranks, poset.covers) == _matrix_nc(C, order)


@pytest.mark.parametrize("name", ["A1", "A3", "B3", "C3", "G2", "D4", "F4"])
def test_reflection_permutations_agree_with_apply(name):
    C = preset(name)
    table = weyl._root_ids(C)
    ts = weyl.reflections(C)
    size = len(table.roots)
    assert table.roots == tuple(t.root for t in ts) + tuple(weyl.negate(t.root) for t in ts)
    assert all(table.index[beta] == k for k, beta in enumerate(table.roots))
    assert len(table.permutations) == len(ts)
    for t, permutation in zip(ts, table.permutations):
        assert sorted(permutation) == list(range(size))  # a bijection of Phi
        assert all(table.roots[permutation[k]] == t.apply(beta) for k, beta in enumerate(table.roots))


def test_an_image_outside_phi_raises():
    A2 = preset("A2")
    table = weyl._root_ids(A2)
    # phi(alpha_1) = 2, but phi(alpha_1 + alpha_2) = 2 sends it to
    # -alpha_1 + alpha_2, which is not a root.
    bad = Reflection((1, 0), (2, 0))
    with pytest.raises(ArithmeticError):
        weyl._permute(table.roots, table.index, bad.apply)
    with pytest.raises(ArithmeticError):
        weyl._matrix_permutation(A2, bad.matrix)
    with pytest.raises(ArithmeticError):
        weyl._element_ids(A2, ((2, 0), (0, 1)))
