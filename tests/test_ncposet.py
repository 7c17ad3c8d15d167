import pytest

from schur_scope import hurwitz, ncposet, weyl
from schur_scope._matrix import inverse, matmul
from schur_scope.cartan import preset
from schur_scope.hurwitz import Ternary
from schur_scope.ncposet import (
    absolute_leq,
    enumerate_nc,
    interval_factorization,
)
from schur_scope.weyl import length_lower_bound
from test_group_id_table import matrix_group, matrix_length_table
from test_weyl import is_reflection

# Rank profiles of NC(W, c); the sizes are the W-Catalan numbers 5, 6, 14, 42, 833.
NC_RANK_COUNTS = {
    "A2": (1, 3, 1),
    "B2": (1, 4, 1),
    "A3": (1, 6, 6, 1),
    "A4": (1, 10, 20, 10, 1),
    "E6": (1, 36, 204, 351, 204, 36, 1),
}
CHAIN_COUNTS = {"A2": 3, "B2": 4, "G2": 6, "A3": 16, "B3": 27}


def maximal_chain_count(p):
    """Saturated bottom-to-top chains of the poset, by dynamic programming over
    its covers in rank order."""
    counts = [1] + [0] * (len(p.elements) - 1)
    for lo, hi in sorted(p.covers, key=lambda edge: p.ranks[edge[0]]):
        counts[hi] += counts[lo]
    return counts[-1]


def poset_leq(p, i, j):
    """Order relation between element indices: the library's one Dyer search,
    with the ranks as the lengths."""
    return ncposet._below(p.cartan, p.elements[i], p.elements[j], p.ranks[i], p.ranks[j])


def is_lattice(p):
    """Every pair has a meet and a join: among its common lower (upper) bounds
    one lies above (below) all the others."""
    size = len(p.elements)
    leq = [[poset_leq(p, i, j) for j in range(size)] for i in range(size)]

    def has_extreme(bounds, upper):
        return any(all(leq[x][z] if upper else leq[z][x] for x in bounds) for z in bounds)

    return all(
        has_extreme([k for k in range(size) if leq[k][i] and leq[k][j]], upper=True)
        and has_extreme([k for k in range(size) if leq[i][k] and leq[j][k]], upper=False)
        for i in range(size)
        for j in range(i + 1, size)
    )


def test_absolute_leq_examples():
    A2 = preset("A2")
    c = weyl.coxeter_element(A2)
    s1 = weyl.simple_reflection(A2, 1).matrix
    assert absolute_leq(weyl.identity(2), c, A2) is Ternary.YES
    assert absolute_leq(s1, c, A2) is Ternary.YES
    assert absolute_leq(c, s1, A2) is Ternary.NO
    assert absolute_leq(c, c, A2) is Ternary.YES  # reflexive, non-strict
    with pytest.raises(ValueError):
        absolute_leq(((-1, 0), (0, -1)), c, A2)  # -1 is not in W(A2)


def test_absolute_leq_infinite_certified():
    U = preset("universal:2:2")
    c = weyl.coxeter_element(U)
    s1 = weyl.simple_reflection(U, 1).matrix
    assert absolute_leq(s1, c, U) is Ternary.YES
    assert absolute_leq(c, s1, U) is Ternary.NO
    tall = weyl.reflection_for_root(U, (5, 4)).matrix
    assert absolute_leq(tall, c, U) is Ternary.YES


def _table_leq(C, u, w):
    """Reference: the defining identity with every length read from the group table."""
    table = matrix_length_table(C)
    return table[u] + table[matmul(inverse(u), w)] == table[w]


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3"])
def test_absolute_leq_matches_table_on_all_pairs(name):
    C = preset(name)
    group = sorted(matrix_group(C))
    for u in group:
        for w in group:
            assert (absolute_leq(u, w, C) is Ternary.YES) == _table_leq(C, u, w), (u, w)


@pytest.mark.parametrize("name", ["A4", "D4"])
def test_absolute_leq_matches_table_below_coxeter(name):
    C = preset(name)
    c = weyl.coxeter_element(C)
    members = 0
    for u in sorted(matrix_group(C)):
        below = absolute_leq(u, c, C) is Ternary.YES
        assert below == _table_leq(C, u, c), u
        members += below
    assert members == len(enumerate_nc(C).elements)


@pytest.mark.parametrize("name", ["A3", "B3", "A4", "D4"])
def test_poset_leq_matches_table(name):
    poset = enumerate_nc(preset(name))
    for i, u in enumerate(poset.elements):
        for j, w in enumerate(poset.elements):
            assert poset_leq(poset, i, j) == _table_leq(poset.cartan, u, w), (i, j)


def test_length_lower_bound_certifies_coxeter():
    for name in ("A3", "universal:2:2", "universal:3:2", "affine-A2"):
        C = preset(name)
        c = weyl.coxeter_element(C)
        assert length_lower_bound(c) == C.n


def _pairwise_covers(poset):
    """Reference: every rank-adjacent pair (u, w) with l(u^-1 w) = 1."""
    table = matrix_length_table(poset.cartan)
    return tuple(
        (i, j)
        for i, u in enumerate(poset.elements)
        for j, w in enumerate(poset.elements)
        if poset.ranks[j] == poset.ranks[i] + 1 and table[matmul(inverse(u), w)] == 1
    )


@pytest.mark.parametrize(
    "name, order",
    [
        ("A2", (2, 1)),
        ("B2", (2, 1)),
        ("G2", (2, 1)),
        ("A3", (2, 3, 1)),
        ("B3", (3, 1, 2)),
        ("A4", (3, 1, 4, 2)),
        ("D4", (4, 2, 1, 3)),
    ],
)
def test_covers_match_pairwise_reference(name, order):
    poset = enumerate_nc(preset(name), order)
    assert poset.covers == _pairwise_covers(poset)


@pytest.mark.parametrize(
    "name, order",
    [
        ("A2", None),
        ("B2", None),
        ("G2", None),
        ("A3", None),
        ("B3", None),
        ("A4", (3, 1, 4, 2)),
        ("D4", (4, 2, 1, 3)),
    ],
)
def test_members_match_per_element_filter(name, order):
    """The c^-1 w filter keeps what the per-element filter l(w) + l(w^-1 c) =
    l(c) keeps, with w^-1 computed for every w."""
    C = preset(name)
    c = weyl.coxeter_element(C, order)
    table = matrix_length_table(C)
    members = sorted(
        (w for w in matrix_group(C) if _table_leq(C, w, c)),
        key=lambda w: (table[w], w),
    )
    poset = enumerate_nc(C, order)
    assert poset.elements == tuple(members)
    assert poset.ranks == tuple(table[w] for w in members)


def test_nc_sizes():
    for name, counts in NC_RANK_COUNTS.items():
        poset = enumerate_nc(preset(name))
        assert tuple(poset.ranks.count(r) for r in range(poset.cartan.n + 1)) == counts
        assert len(poset.elements) == sum(counts)


def test_nc_requires_finite():
    with pytest.raises(ValueError):
        enumerate_nc(preset("universal:2:2"))


def test_nc_grading_and_covers():
    poset = enumerate_nc(preset("A3"))
    assert poset.ranks[0] == 0 and poset.ranks[-1] == poset.cartan.n
    assert poset.elements[0] == weyl.identity(3)
    assert poset.elements[-1] == weyl.coxeter_element(preset("A3"))
    for lo, hi in poset.covers:
        assert poset.ranks[hi] == poset.ranks[lo] + 1
        assert poset_leq(poset, lo, hi)
    # Complement identity: l(w) + l(w^-1 c) = n for every member.
    table = matrix_length_table(preset("A3"))
    for w in poset.elements:
        quotient = matmul(inverse(w), poset.elements[-1])
        assert table[w] + table[quotient] == poset.cartan.n


def test_interval_factorization_examples():
    A3 = preset("A3")
    c = weyl.coxeter_element(A3)
    s2 = weyl.simple_reflection(A3, 2).matrix

    trivial = interval_factorization(s2, s2, A3)
    assert trivial.steps == ()

    witness = interval_factorization(s2, c, A3)
    assert len(witness.steps) == 2
    product = s2
    for t in witness.steps:
        product = matmul(product, t.matrix)
    assert product == c

    bottom_to_top = interval_factorization(weyl.identity(3), c, A3)
    assert len(bottom_to_top.steps) == 3
    assert len(bottom_to_top.full.parts) == 3  # also a full factorization of c


def test_interval_factorization_rejects_incomparable():
    A2 = preset("A2")
    c = weyl.coxeter_element(A2)
    s1 = weyl.simple_reflection(A2, 1).matrix
    with pytest.raises(ValueError):
        interval_factorization(c, s1, A2)
    with pytest.raises(ValueError):
        interval_factorization(((-1, 0), (0, -1)), c, A2)  # not in W(A2)


def test_interval_lengths_match_rank_difference():
    poset = enumerate_nc(preset("A3"))
    for i, u in enumerate(poset.elements):
        for j, w in enumerate(poset.elements):
            if not poset_leq(poset, i, j):
                continue
            witness = interval_factorization(u, w, poset.cartan, poset.order)
            assert len(witness.steps) == poset.ranks[j] - poset.ranks[i]


def _bfs_climb(lower, upper, poset):
    """Reference: breadth-first search for a saturated chain from lower up to
    upper, stepping by reflections in the order of weyl.reflections."""
    table = matrix_length_table(poset.cartan)
    parents = {lower: None}
    frontier = [lower]
    while frontier and upper not in parents:
        next_frontier = []
        for x in frontier:
            for t in weyl.reflections(poset.cartan):
                y = matmul(x, t.matrix)
                if y in parents or table[y] != table[x] + 1:
                    continue
                if table[y] + table[matmul(inverse(y), upper)] != table[upper]:
                    continue
                parents[y] = (x, t)
                next_frontier.append(y)
        frontier = next_frontier
    path = []
    cursor = upper
    while parents[cursor] is not None:
        cursor, step = parents[cursor]
        path.append(step)
    return tuple(reversed(path))


@pytest.mark.parametrize(
    "name, order",
    [
        ("A2", None),
        ("B2", None),
        ("G2", None),
        ("A3", None),
        ("B3", (2, 3, 1)),
        ("C3", None),
        ("A4", (3, 1, 4, 2)),
        ("D4", (4, 2, 1, 3)),
        ("B4", None),
    ],
)
def test_interval_climb_matches_bfs_reference(name, order):
    poset = enumerate_nc(preset(name), order)
    pairs = 0
    for i, u in enumerate(poset.elements):
        for j, w in enumerate(poset.elements):
            if poset_leq(poset, i, j):
                steps = interval_factorization(u, w, poset.cartan, order).steps
                assert steps == _bfs_climb(u, w, poset), (i, j)
                pairs += 1
    assert pairs > len(poset.elements)


def test_chain_counts_match_orbit_sizes():
    for name, expected in CHAIN_COUNTS.items():
        C = preset(name)
        poset = enumerate_nc(C)
        orbit = hurwitz.hurwitz_orbit(C, hurwitz.canonical_factorization(C))
        assert maximal_chain_count(poset) == len(orbit) == expected


def test_atoms_are_prefix_reflections():
    for name in ("A2", "B2", "A3"):
        C = preset(name)
        poset = enumerate_nc(C)
        atoms = {
            poset.elements[i] for i in range(len(poset.elements))
            if poset.ranks[i] == 1
        }
        for w in atoms:
            assert is_reflection(w)
            root = weyl.root_of_reflection(w)
            assert hurwitz.is_prefix_of_coxeter(root, C).answer is Ternary.YES
        # Conversely every prefix reflection is an atom.
        prefixes = {
            t.matrix
            for t in weyl.reflections(C)
            if hurwitz.is_prefix_of_coxeter(t.root, C).answer is Ternary.YES
        }
        assert prefixes == atoms


def test_poset_properties_values():
    # Rank profiles (atoms at rank 1, self-dual) and the lattice property.
    for name, rank_counts in (("A2", (1, 3, 1)), ("B2", (1, 4, 1)), ("A3", (1, 6, 6, 1))):
        poset = enumerate_nc(preset(name))
        assert tuple(map(poset.ranks.count, range(poset.cartan.n + 1))) == rank_counts
        assert is_lattice(poset), name
    assert maximal_chain_count(enumerate_nc(preset("A3"))) == 16
