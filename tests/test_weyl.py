import itertools
import math
import random
from fractions import Fraction

import pytest

from schur_scope import weyl
from schur_scope._matrix import inverse, mat_sub, matmul, matvec, primitive, rank
from schur_scope.cartan import CartanMatrix, preset, symmetrized, symmetrizer
from schur_scope.weyl import (
    absolute_length,
    coxeter_element,
    enumerate_group,
    enumerate_real_roots,
    height,
    identity,
    positive_real_roots,
    reflection_for_root,
    root_of_reflection,
    simple_reflection,
    simple_root,
)
from test_cartan import submatrix
from test_group_id_table import SMALL_FINITE, matrix_group, matrix_length_table
from test_matrix import mat_pow
from test_reflection_rows import PRESETS as ROW_PRESETS, reflection_matrix


def bilinear(C, u, v):
    """Symmetrized invariant form B(u, v) = sum d_i a_ij u_i v_j: the oracle
    for the norm that weyl.reflection_for_root reads off its pairing."""
    s = symmetrized(C)
    return sum(s[i][j] * u[i] * v[j] for i in range(C.n) for j in range(C.n))


def is_reflection(w):
    """True iff w^2 = id and w - id has rank exactly 1: the matrix-level oracle."""
    n = len(w)
    return matmul(w, w) == identity(n) and rank(mat_sub(w, identity(n))) == 1


PRESETS = ["A2", "B2", "G2", "A3", "B3", "universal:2:2", "universal:3:2", "affine-A2"]


def _random_element(C, rng, length=6):
    w = identity(C.n)
    for _ in range(length):
        w = matmul(w, simple_reflection(C, rng.randint(1, C.n)).matrix)
    return w


def test_simple_reflection_formula_instances():
    A2 = preset("A2")
    assert matvec(simple_reflection(A2, 1).matrix, simple_root(2, 2)) == (1, 1)
    assert matvec(simple_reflection(A2, 1).matrix, simple_root(2, 1)) == (-1, 0)
    U = CartanMatrix(((2, -2), (-2, 2)))
    assert matvec(simple_reflection(U, 2).matrix, simple_root(2, 1)) == (1, 2)


def test_simple_reflection_formula_everywhere():
    for name in PRESETS:
        C = preset(name)
        for i in range(1, C.n + 1):
            s = simple_reflection(C, i).matrix
            for j in range(1, C.n + 1):
                expected = list(simple_root(C.n, j))
                expected[i - 1] -= C.entries[i - 1][j - 1]
                assert matvec(s, simple_root(C.n, j)) == tuple(expected)


def test_simple_reflection_index_range():
    with pytest.raises(ValueError):
        simple_reflection(preset("A2"), 3)


def test_compose_involution_and_action():
    A2 = preset("A2")
    s1 = simple_reflection(A2, 1).matrix
    assert matmul(s1, s1) == identity(2)
    c = coxeter_element(A2)
    assert matvec(c, (1, 0)) == (0, 1)
    assert matvec(identity(2), (1, 0)) == (1, 0)


def test_compose_rank_mismatch():
    with pytest.raises(ValueError):
        matmul(identity(2), identity(3))


def test_action_is_associative():
    rng = random.Random(1)
    A3 = preset("A3")
    for _ in range(50):
        u = _random_element(A3, rng)
        w = _random_element(A3, rng)
        v = tuple(rng.randint(-3, 3) for _ in range(3))
        assert matvec(matmul(u, w), v) == matvec(u, matvec(w, v))


def test_inverse_roundtrip():
    rng = random.Random(2)
    for name in ("A3", "universal:3:2"):
        C = preset(name)
        for _ in range(25):
            w = _random_element(C, rng)
            assert matmul(w, inverse(w)) == identity(C.n)


def test_coxeter_element_variants():
    rank1 = preset("A1")
    assert coxeter_element(rank1) == ((-1,),)
    with pytest.raises(ValueError):
        coxeter_element(preset("A3"), (1, 1, 2))


def test_coxeter_element_equals_the_product_of_reflection_matrices():
    # reflection_product's fold of left_multiply against the matmul product
    # of the simple reflections' matrices, each built entry by entry.
    def product(C, order):
        result = identity(C.n)
        for i in order:
            result = matmul(result, reflection_matrix(simple_reflection(C, i)))
        return result

    rng = random.Random(17)
    cases = [
        (name, order)
        for name in ("A3", "B3", "C3", "G2", "F4", "D4", "affine-A2", "universal:3:2")
        for order in itertools.permutations(range(1, preset(name).n + 1))
    ]
    for name in ("D5", "E6"):
        n = preset(name).n
        cases += [(name, tuple(rng.sample(range(1, n + 1), n))) for _ in range(5)]
    for name, order in cases:
        C = preset(name)
        assert coxeter_element(C, order) == product(C, order), (name, order)


def test_is_reflection():
    A2 = preset("A2")
    s1 = simple_reflection(A2, 1).matrix
    s2 = simple_reflection(A2, 2).matrix
    assert is_reflection(s1)
    assert not is_reflection(identity(2))
    assert is_reflection(matmul(matmul(s1, s2), s1))
    assert not is_reflection(coxeter_element(A2))


def test_reflection_for_root_simple_and_long():
    A2 = preset("A2")
    assert reflection_for_root(A2, (1, 0)).matrix == simple_reflection(A2, 1).matrix
    s1 = simple_reflection(A2, 1).matrix
    s2 = simple_reflection(A2, 2).matrix
    assert reflection_for_root(A2, (1, 1)).matrix == matmul(matmul(s1, s2), s1)


def test_reflection_for_root_validates():
    A3 = preset("A3")
    for bad in ((1, 0, 1), (2, 2, 2), (1, -1, 0), (0, 0, 0)):
        with pytest.raises(ValueError):
            reflection_for_root(A3, bad)
    # Negative real roots are normalized to the positive representative.
    assert reflection_for_root(A3, (0, -1, -1)).root == (0, 1, 1)
    U = preset("universal:2:2")
    assert reflection_for_root(U, (1, 2)).root == (1, 2)
    with pytest.raises(ValueError):
        reflection_for_root(U, (1, 1))  # isotropic, not a real root


def test_reflection_for_root_caps_its_descent(monkeypatch):
    # affine-A1's real root (k, k + 1) descends two heights a step, so the
    # root of height 2k + 1 = 99 999 takes 49 999 steps and is decided, and
    # one of height about 2 10^12, which would descend for days, is refused
    # at the cap, as a reduced word past it is (_peel).
    C = preset("affine-A1")
    k = (weyl._DYER_CAP - 1) // 2
    assert reflection_for_root(C, (k, k + 1)).root == (k, k + 1)
    with pytest.raises(RuntimeError, match="safety cap"):
        reflection_for_root(C, (10**12, 10**12 + 1))
    # The root of height 5 of A5 descends one height a step, in 4 steps: a
    # root no taller than the cap is decided, and one step more is refused.
    A5, beta = preset("A5"), (1, 1, 1, 1, 1)
    monkeypatch.setattr(weyl, "_DYER_CAP", 5)
    assert reflection_for_root(A5, beta).root == beta
    monkeypatch.setattr(weyl, "_DYER_CAP", 4)
    with pytest.raises(RuntimeError, match="safety cap"):
        reflection_for_root(A5, beta)


def _descent_coroot_row(C, beta):
    """The coroot row of a positive real root by its descent word, the
    reference coroot_row is held to: while beta is not simple, apply the
    first s_i with <beta, alpha_i^vee> > 0, down to some alpha_j.  With w
    the word, beta = w alpha_j and beta^vee = w alpha_j^vee, replayed
    backwards on simple-coroot coordinates, then paired with the simple
    roots through C."""
    n, a = C.n, C.entries
    v, word = list(beta), []
    while sum(v) != 1:
        pairing = [sum(a[i][j] * v[j] for j in range(n)) for i in range(n)]
        i = next(i for i in range(n) if pairing[i] > 0)
        v[i] -= pairing[i]
        word.append(i)
    coroot = v  # alpha_j^vee has the simple-coroot coordinates of alpha_j
    for i in reversed(word):
        coroot[i] -= sum(a[k][i] * coroot[k] for k in range(n))
    return tuple(sum(coroot[i] * a[i][col] for i in range(n)) for col in range(n))


@pytest.mark.parametrize("name", ROW_PRESETS)
def test_coroot_row_matches_the_descent_word_replay(name):
    C = preset(name)
    form = symmetrized(C)
    roots = positive_real_roots(C, 12)
    for beta in roots:
        row = weyl.coroot_row(form, beta)
        assert row == _descent_coroot_row(C, beta), beta
        assert reflection_for_root(C, beta).coroot == row
    assert any(height(beta) > 1 for beta in roots)


def test_coroot_row_refuses_a_row_that_is_not_integral():
    A2 = symmetrized(preset("A2"))
    # B((0, 2), (0, 2)) = 8 and B(alpha_1, (0, 2)) = -2: the row would hold -1/2.
    with pytest.raises(ArithmeticError, match="no integral coroot row"):
        weyl.coroot_row(A2, (0, 2))
    with pytest.raises(ArithmeticError):
        weyl.coroot_row(symmetrized(preset("universal:2:2")), (1, 1))  # norm 0
    assert weyl.coroot_row(A2, (1, 1)) == (1, 1)


def _vectors_up_to(n, bound):
    """Every vector of n nonnegative integers with height <= bound."""
    if n == 0:
        yield ()
        return
    for first in range(bound + 1):
        for rest in _vectors_up_to(n - 1, bound - first):
            yield (first,) + rest


@pytest.mark.parametrize(
    "name, bound",
    # Finite types up to the height h - 1 of the highest root, so every
    # positive root is met; infinite types up to height 10.
    [("B3", 5), ("B4", 7), ("C4", 7), ("F4", 11), ("G2", 5), ("D5", 7), ("E6", 11),
     ("universal:3:2", 10), ("affine-A2", 10), ("affine-A3", 10),
     ("universal:4:2", 10)],
)
def test_reflection_for_root_accepts_exactly_the_real_roots(name, bound):
    C = preset(name)
    accepted = set()
    for beta in _vectors_up_to(C.n, bound):
        if not any(beta):
            continue
        try:
            t = reflection_for_root(C, beta)
        except ValueError:
            continue
        assert t.root == beta and is_reflection(t.matrix)
        accepted.add(beta)
    assert accepted == set(positive_real_roots(C, bound))


def test_root_of_reflection_examples():
    A3 = preset("A3")
    s2 = simple_reflection(A3, 2).matrix
    s3 = simple_reflection(A3, 3).matrix
    assert root_of_reflection(s2) == (0, 1, 0)
    assert root_of_reflection(matmul(matmul(s2, s3), s2)) == (0, 1, 1)
    with pytest.raises(ValueError):
        root_of_reflection(identity(3))
    with pytest.raises(ValueError):
        root_of_reflection(coxeter_element(A3))


def test_root_reflection_roundtrip_everywhere():
    for name in PRESETS:
        C = preset(name)
        for beta in positive_real_roots(C, 8):
            t = reflection_for_root(C, beta)
            assert root_of_reflection(t.matrix) == beta
            assert is_reflection(t.matrix)


def test_enumerate_real_roots_a2():
    A2 = preset("A2")
    assert set(enumerate_real_roots(A2, 1)) == {
        (1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1),
    }


def test_enumerate_real_roots_a3_count():
    assert len(enumerate_real_roots(preset("A3"), 1)) == 12


def test_enumerate_real_roots_universal_bounded():
    U = preset("universal:2:2")
    expected = {(1, 0), (0, 1), (1, 2), (2, 1), (3, 2), (2, 3), (3, 4), (4, 3)}
    assert set(positive_real_roots(U, 8)) == expected


def test_roots_in_plus_minus_pairs_no_mixed_sign():
    for name in PRESETS:
        C = preset(name)
        roots = enumerate_real_roots(C, 10)
        root_set = set(roots)
        for r in roots:
            assert weyl.is_positive(r) or weyl.is_negative(r)
            assert tuple(-x for x in r) in root_set


def test_absolute_length_identity_and_reflections():
    for name in ("A2", "A3", "B3"):
        C = preset(name)
        assert absolute_length(C, identity(C.n)) == 0
        assert absolute_length(C, coxeter_element(C)) == C.n
        for beta in positive_real_roots(C, 3):
            assert absolute_length(C, reflection_for_root(C, beta).matrix) == 1


def test_absolute_length_infinite_types():
    U = preset("universal:2:2")
    assert absolute_length(U, identity(2)) == 0
    assert absolute_length(U, coxeter_element(U)) == 2
    U3 = preset("universal:3:2")
    assert absolute_length(U3, coxeter_element(U3)) == 3


def _reflection_bfs_length_table(C):
    """Reference that does not use Carter's lemma: breadth-first levels of
    the group under multiplication by reflections."""
    gens = [t.matrix for t in weyl.reflections(C)]
    table = {identity(C.n): 0}
    frontier = [identity(C.n)]
    level = 0
    while frontier:
        level += 1
        next_frontier = []
        for w in frontier:
            for t in gens:
                image = matmul(t, w)
                if image not in table:
                    table[image] = level
                    next_frontier.append(image)
        frontier = next_frontier
    return table


@pytest.mark.parametrize(
    "name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "F4", "G2"]
)
def test_length_table_matches_reflection_bfs(name):
    C = preset(name)
    table = matrix_length_table(C)
    assert table == _reflection_bfs_length_table(C)
    # The rank-and-parity lower bound is exact on finite types.
    assert all(weyl.length_lower_bound(w) == k for w, k in table.items())


# Dyer's deletion search (weyl._peel, weyl.factor_into_reflections)
# against slow references built from simple-reflection matrices.


def reduced_word(C, w):
    """(i_1, ..., i_m) with w = s_{i_1} ... s_{i_m}: the peel's letters, last
    first."""
    return tuple(j + 1 for j, _ in weyl._peel(C, w))[::-1]


def _word_product(C, word):
    w = identity(C.n)
    for i in word:
        w = matmul(w, simple_reflection(C, i).matrix)
    return w


def _left_inversion_matrices(C, word):
    """t_p = u s_{i_p} u^-1 with u = s_{i_1} ... s_{i_{p-1}}, by matmul."""
    inversions = []
    for p, i in enumerate(word):
        u = _word_product(C, word[:p])
        inversions.append(matmul(matmul(u, simple_reflection(C, i).matrix), inverse(u)))
    return inversions


def _short_products(C, rng, count, height_bound, longest):
    """Products of one to three reflections of low roots, with reduced words
    of at most `longest` letters."""
    pool = [reflection_for_root(C, b).matrix for b in positive_real_roots(C, height_bound)]
    found = set()
    while len(found) < count:
        w = identity(C.n)
        for _ in range(rng.randint(1, 3)):
            w = matmul(w, rng.choice(pool))
        if len(reduced_word(C, w)) <= longest:
            found.add(w)
    return sorted(found)


@pytest.mark.parametrize(
    "name, height_bound",
    [("A3", 3), ("B3", 3), ("G2", 3), ("universal:3:2", 3), ("affine-A2", 3),
     ("affine-A3", 2), ("universal:4:2", 2)],
)
def test_ordered_search_equals_brute_force_deletion(name, height_bound):
    # For every count k up to l(w): the search finds w = t_{p_k} ... t_{p_1}
    # with p_1 < ... < p_k iff some k-subset of the left inversions, taken
    # in decreasing position, multiplies to w; and that happens iff deleting
    # those k letters leaves a word for the identity.  What it returns is
    # such a product: left inversions in decreasing position.
    C = preset(name)
    rng = random.Random(12)
    for w in _short_products(C, rng, 10, height_bound, 9):
        word = reduced_word(C, w)
        inversions = _left_inversion_matrices(C, word)
        for k in range(len(word) + 1):
            brute = False
            for subset in itertools.combinations(range(len(word)), k):
                product = identity(C.n)
                for p in reversed(subset):
                    product = matmul(product, inversions[p])
                kept = tuple(i for p, i in enumerate(word) if p not in subset)
                assert (product == w) == (_word_product(C, kept) == identity(C.n))
                brute = brute or product == w
            found = weyl.factor_into_reflections(C, w, k)
            assert (found is not None) == brute, (name, w, k)
            if found is not None:
                positions = [inversions.index(t.matrix) for t in found]
                assert positions == sorted(set(positions), reverse=True)
                assert len(found) == k
                assert [t.matrix for t in found] == [
                    reflection_for_root(C, t.root).matrix for t in found
                ]
                product = identity(C.n)
                for t in found:
                    product = matmul(product, t.matrix)
                assert product == w


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3", "A4", "D4"])
def test_dyer_first_count_equals_the_length_table(name):
    # The least k for which the deletion search succeeds is l_T(w), which
    # the group table reads off Carter's lemma.
    C = preset(name)
    for w, length in matrix_length_table(C).items():
        counts = range(len(reduced_word(C, w)) + 1)
        first = next(k for k in counts if weyl.factor_into_reflections(C, w, k) is not None)
        assert first == length, w


def _coxeter_lengths(C):
    """Breadth-first distance from the identity under w -> w s_i."""
    gens = [weyl.simple_reflection(C, i).matrix for i in range(1, C.n + 1)]
    lengths = {identity(C.n): 0}
    frontier = [identity(C.n)]
    while frontier:
        next_frontier = []
        for w in frontier:
            for g in gens:
                image = matmul(w, g)
                if image not in lengths:
                    lengths[image] = lengths[w] + 1
                    next_frontier.append(image)
        frontier = next_frontier
    return lengths


@pytest.mark.parametrize("name", ["A3", "B3", "G2", "D4"])
def test_reduced_word_is_reduced_and_multiplies_back(name):
    C = preset(name)
    for w, length in _coxeter_lengths(C).items():
        word = reduced_word(C, w)
        assert len(word) == length
        assert _word_product(C, word) == w


@pytest.mark.parametrize("name", ["universal:3:2", "affine-A2", "affine-A3", "universal:4:2"])
def test_reduced_word_multiplies_back_on_infinite_types(name):
    C = preset(name)
    rng = random.Random(5)
    for _ in range(30):
        letters = [rng.randint(1, C.n) for _ in range(rng.randint(0, 12))]
        w = _word_product(C, letters)
        word = reduced_word(C, w)
        assert _word_product(C, word) == w
        assert len(word) <= len(letters) and (len(letters) - len(word)) % 2 == 0


@pytest.mark.parametrize(
    "name",
    ["universal:2:3", "universal:3:2", "universal:3:3", "universal:4:2",
     "affine-A1", "affine-A2", "affine-A4"],
)
def test_fundamental_set_test_refuses_no_element_of_w(name):
    # 300 random words on each of these presets, 2 100 in all: the peel's
    # w u_S >= 0 test is live on every one of them and passes every element.
    C = preset(name)
    assert weyl._fundamental_sets(C)
    rng = random.Random(7)
    for _ in range(300):
        w = _word_product(C, [rng.randint(1, C.n) for _ in range(rng.randint(0, 16))])
        assert _word_product(C, reduced_word(C, w)) == w


def test_reduced_word_refuses_matrices_outside_w(monkeypatch):
    # A diagram rotation permutes the simple roots: no descent, not the identity.
    with pytest.raises(ValueError, match="not an element of the Weyl group"):
        reduced_word(preset("affine-A2"), ((0, 0, 1), (1, 0, 0), (0, 1, 0)))
    # c^30 has length 60 in the infinite dihedral group, so its peel stops at
    # the cap of 50 steps.
    monkeypatch.setattr(weyl, "_DYER_CAP", 50)
    U = preset("universal:2:3")
    with pytest.raises(RuntimeError, match="safety cap of 50 steps"):
        reduced_word(U, mat_pow(coxeter_element(U), 30))
    # -id has a descent at every step there, but it sends alpha_1 + alpha_2,
    # which W keeps non-negative, to its negative: refused before the peel.
    with pytest.raises(ValueError, match="not an element of the Weyl group"):
        reduced_word(U, ((-1, 0), (0, -1)))
    # In a finite group it ends at the longest element's negative, -w_0.
    with pytest.raises(ValueError, match="not an element of the Weyl group"):
        reduced_word(preset("A2"), ((-1, 0), (0, -1)))


def test_reflection_search_rank_test_runs_before_the_peel():
    # -1 is not in W(A2).  At count 1 the rank test rules it out, as
    # rank(-1 - id) = 2 > 1, before a reduced word is peeled; at count 2 the
    # peel runs and refuses it.
    A2, minus = preset("A2"), ((-1, 0), (0, -1))
    assert weyl.factor_into_reflections(A2, minus, 1) is None
    with pytest.raises(ValueError, match="not an element of the Weyl group"):
        weyl.factor_into_reflections(A2, minus, 2)


def test_enumerate_group_sizes():
    assert len(enumerate_group(preset("A2"))) == 6
    assert len(enumerate_group(preset("B2"))) == 8
    assert len(enumerate_group(preset("A3"))) == 24


def test_enumerate_group_requires_finite():
    with pytest.raises(ValueError):
        enumerate_group(preset("affine-A2"))
    with pytest.raises(ValueError):
        weyl.group_order(preset("universal:3:2"))


def _right_multiplication_closure(C):
    """Reference: closure of the identity under w -> w s_i, one matmul each."""
    gens = [weyl.simple_reflection(C, i).matrix for i in range(1, C.n + 1)]
    seen = {identity(C.n)}
    frontier = list(seen)
    while frontier:
        images = {matmul(w, g) for w in frontier for g in gens} - seen
        seen |= images
        frontier = list(images)
    return frozenset(seen)


def test_enumerate_group_matches_right_multiplication_closure():
    for name in SMALL_FINITE:
        C = preset(name)
        assert matrix_group(C) == _right_multiplication_closure(C), name


# |W| from the classification (Bourbaki, Lie groups, ch. VI, plates I-IX).
WEYL_ORDERS = {
    "A1": 2, "A2": 6, "A3": 24, "A4": 120, "A5": 720, "A6": 5040,
    "B2": 8, "B3": 48, "B4": 384, "B5": 3840, "C3": 48, "C4": 384,
    "D4": 192, "D5": 1920, "D6": 23040, "G2": 12, "F4": 1152,
}


def test_group_order_matches_enumeration():
    for name, order in WEYL_ORDERS.items():
        C = preset(name)
        assert weyl.group_order(C) == len(enumerate_group(C)) == order, name


@pytest.mark.parametrize(
    "name, vertices, order",
    [
        ("A5", (1, 2, 4, 5), 36),  # A2 x A2
        ("D5", (1, 2, 4, 5), 24),  # A2 x A1 x A1
        ("B4", (1, 3, 4), 16),  # A1 x B2
        ("F4", (1, 2, 4), 12),  # A2 x A1
        ("E6", (1, 2, 4, 5, 6), 72),  # A2 x A2 x A1
        ("G2", (2,), 2),
    ],
)
def test_group_order_on_reducible_submatrices(name, vertices, order):
    C = submatrix(preset(name), vertices)
    assert weyl.group_order(C) == len(enumerate_group(C)) == order


@pytest.mark.parametrize("family", ["B", "C", "D"])
def test_group_order_of_classical_families(family):
    # Up to n = 30; from n = 8 on |W| is past the enumeration cap of
    # 2 000 000, and the height product reads only the n^2 or n^2 - n
    # positive roots.
    for n in range(4 if family == "D" else 2, 31):
        order = 2**n * math.factorial(n)
        expected = order // 2 if family == "D" else order
        assert weyl.group_order(preset(f"{family}{n}")) == expected, n


@pytest.mark.parametrize(
    "name, order",
    [
        ("E6", 51_840),
        ("E7", 2_903_040),
        ("E8", 696_729_600),
        ("A8", math.factorial(9)),
    ],
)
def test_group_order_beyond_enumeration(name, order):
    # Bourbaki's orders for E6-E8 and (n+1)! for A8, without enumerating the
    # group; B, C and D are checked by test_group_order_of_classical_families.
    assert weyl.group_order(preset(name)) == order


def test_enumerate_group_refuses_large_groups_and_checks_its_size(monkeypatch):
    built = weyl._root_ids.cache_info().currsize
    with pytest.raises(ValueError, match="2903040 elements"):
        enumerate_group(preset("E7"))
    assert weyl._root_ids.cache_info().currsize == built  # refused before any table
    # The uncached walk against a wrong |W|: too small cuts it short, too
    # large leaves it short of the count.  The length table owns the walk.
    for wrong in (5, 7):
        monkeypatch.setattr(weyl, "group_order", lambda C, wrong=wrong: wrong)
        with pytest.raises(ArithmeticError):
            weyl._absolute_length_table.__wrapped__(preset("A2"))


def test_form_preservation():
    rng = random.Random(3)
    for name in PRESETS:
        C = preset(name)
        for _ in range(200):
            w = _random_element(C, rng, length=5)
            u = tuple(rng.randint(-2, 2) for _ in range(C.n))
            v = tuple(rng.randint(-2, 2) for _ in range(C.n))
            assert bilinear(C, matvec(w, u), matvec(w, v)) == bilinear(C, u, v)


def test_bounded_closure_cap_rule():
    def moves(x):
        return [(x + 1) % 10, (2 * x) % 10]

    full = (0, 1, 2, 3, 4, 6, 5, 8, 7, 9)  # breadth-first discovery order
    assert weyl._bounded_closure([0], moves, 10) == (full, True)
    assert weyl._bounded_closure([0], moves, math.inf) == (full, True)
    assert weyl._bounded_closure([0], moves, 9) == (full[:9], False)
    assert weyl._bounded_closure([0], moves, 1) == ((0,), False)


def test_bounded_closure_expand_and_several_starts():
    def step(x):
        return [(x + 1) % 10]

    # 2 is kept but not expanded, so 3 is never reached.
    assert weyl._bounded_closure([0], step, 10, lambda x: x != 2) == ((0, 1, 2), True)
    assert weyl._bounded_closure([7, 0], step, 10) == (
        (7, 0, 8, 1, 9, 2, 3, 4, 5, 6),
        True,
    )
    # Starts count toward the cap.
    assert weyl._bounded_closure([7, 0], step, 3) == ((7, 0, 8), False)


def _levels(parents):
    """Each node's level, one more than its parent's, read in discovery order."""
    levels = {}
    for node, parent in parents.items():
        levels[node] = 0 if parent is None else levels[parent] + 1
    return levels


def test_bounded_closure_records_breadth_first_levels():
    def moves(x):
        return [(x + 1) % 10, (2 * x) % 10]

    parents = {}
    nodes, complete = weyl._bounded_closure([0], moves, 10, parents=parents)
    assert complete and tuple(parents) == nodes
    # Each node's parent is the first node whose moves met it.
    assert parents == {0: None, 1: 0, 2: 1, 3: 2, 4: 2, 6: 3, 5: 4, 8: 4, 7: 6, 9: 8}
    # 0 -> 1 -> 2 -> {3, 4} -> {6, 5, 8} -> {7, 9}: the levels are the
    # breadth-first distances, the shortest move counts.
    assert _levels(parents) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 3, 6: 4, 5: 4, 8: 4, 7: 5, 9: 5}
    several = {}
    weyl._bounded_closure([7, 0], lambda x: [(x + 1) % 10], 10, parents=several)
    assert _levels(several) == {7: 0, 0: 0, 8: 1, 1: 1, 9: 2, 2: 2, 3: 3, 4: 4, 5: 5, 6: 6}
    assert several[7] is several[0] is None and several[8] == 7 and several[1] == 0


@pytest.mark.parametrize("n", range(1, 9))
def test_act_matches_the_lookup_loop(n):
    # itemgetter of one id returns the id itself, so rank 1 is the case to pin.
    # One function of w serves every left factor, as in the table walk.
    rng = random.Random(n)
    for _ in range(200):
        size = rng.randint(2, 40)
        w = tuple(rng.randrange(size) for _ in range(n))
        times_w = weyl._act_on(w)
        for _ in range(3):
            p = tuple(rng.sample(range(size), size))
            product = times_w(p)
            assert type(product) is tuple
            assert product == tuple([p[k] for k in w])


@pytest.mark.parametrize("name", ["A1", "B2", "G2", "A3", "D4"])
def test_length_table_takes_no_rank(monkeypatch, name):
    # The walk's levels are the lengths; Carter's rank(w - 1) is only the
    # tests' reference (test_group_id_table, test_matrix).
    C = preset(name)
    reference = weyl._absolute_length_table(C)

    def refuse(*args):
        raise AssertionError("rank called while building the length table")

    monkeypatch.setattr(weyl._mat, "rank", refuse)
    assert weyl._absolute_length_table.__wrapped__(C) == reference
    assert max(reference.values()) == C.n  # the Coxeter element has length n


def _fraction_root_of_reflection(t):
    """Reference: the column-ratio test over Fractions."""
    n = len(t)
    moved = [[t[r][c] - (r == c) for c in range(n)] for r in range(n)]
    columns = [tuple(moved[r][c] for r in range(n)) for c in range(n)]
    generator = next((primitive(col) for col in columns if any(col)), None)
    if generator is None:
        raise ValueError("identity matrix is not a reflection")
    pivot = next(i for i, x in enumerate(generator) if x)
    for col in columns:
        ratio = Fraction(col[pivot], generator[pivot])
        if ratio.denominator != 1 or any(col[i] != ratio * generator[i] for i in range(n)):
            raise ValueError("matrix does not move a rank-1 sublattice")
    if matmul(t, t) != identity(n):
        raise ValueError("matrix is not an involution")
    return weyl.positive_part(generator)


def _fraction_reflection_for_root(C, beta):
    """Reference: membership in the root closure, then the reflection matrix
    built over Fractions."""
    beta = weyl.positive_part(beta)
    norm = bilinear(C, beta, beta)
    if norm <= 0:
        raise ValueError(f"{beta} has non-positive norm, so it is not a real root")
    if norm not in {2 * d for d in symmetrizer(C)}:
        raise ValueError(f"{beta} has norm {norm}, not the norm of any simple root")
    if beta not in positive_real_roots(C, height(beta)):
        raise ValueError(f"{beta} is not a real root")
    s = symmetrized(C)
    s_beta = [sum(s[i][j] * beta[j] for j in range(C.n)) for i in range(C.n)]
    rows = []
    for row in range(C.n):
        entries = []
        for col in range(C.n):
            value = (row == col) - Fraction(2 * s_beta[col], norm) * beta[row]
            if value.denominator != 1:
                raise ValueError(f"{beta} is not a real root (non-integral reflection)")
            entries.append(int(value))
        rows.append(tuple(entries))
    matrix = tuple(rows)
    if _fraction_root_of_reflection(matrix) != beta:
        raise ValueError(f"{beta} is not a real root (not primitive for its reflection)")
    return matrix


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("name", ["A3", "B3", "B4", "C3", "G2", "F4", "universal:3:2",
                                  "universal:2:3", "affine-A2"])
def test_reflection_kernels_match_fraction_reference(name):
    C = preset(name)
    rng = random.Random(name)
    roots = 0
    matrix_outcomes = set()
    for _ in range(300):
        beta = tuple(rng.randint(0, 4) for _ in range(C.n))
        if any(beta):
            found = _outcome(lambda b: reflection_for_root(C, b).matrix, beta)
            assert found == _outcome(_fraction_reflection_for_root, C, beta), beta
            roots += not isinstance(found, str)
        # Identity plus one or two rank-1 terms v u^T, some of them reflections.
        t = identity(C.n)
        for _ in range(rng.choice((1, 1, 2))):
            v = [rng.randint(-2, 2) for _ in range(C.n)]
            u = [rng.randint(-2, 2) for _ in range(C.n)]
            t = tuple(
                tuple(t[r][c] + v[r] * u[c] for c in range(C.n)) for r in range(C.n)
            )
        found = _outcome(root_of_reflection, t)
        assert found == _outcome(_fraction_root_of_reflection, t), t
        matrix_outcomes.add(found if isinstance(found, str) else "root")
    assert roots
    assert {"root", "matrix does not move a rank-1 sublattice"} <= matrix_outcomes
