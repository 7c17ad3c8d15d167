import functools
import itertools
import random
from collections import deque

import pytest

from schur_scope import hurwitz, weyl
from schur_scope._matrix import matmul, matvec
from schur_scope.cartan import CartanMatrix, TypeClass, classify_type, preset, symmetrized
from schur_scope.hurwitz import (
    Factorization,
    Ternary,
    _full_orbit,
    _targeted_orbit_search,
    apply_braid_word,
    braid_move,
    canonical_factorization,
    factorization_count_formula,
    hurwitz_orbit,
    is_prefix_of_coxeter,
    stabilizer_check,
)
from test_cartan import coxeter_exponent, submatrix
from test_matrix import mat_pow

ORBIT_SIZES = {"A1": 1, "A2": 3, "B2": 4, "G2": 6, "A3": 16, "B3": 27, "A4": 125, "D4": 162}
AFFINE_B4 = CartanMatrix((
    (2, -1, 0, 0, 0),
    (-1, 2, -1, 0, -1),
    (0, -1, 2, -2, 0),
    (0, 0, -1, 2, 0),
    (0, -1, 0, 0, 2),
))


def word_inverse(word):
    return tuple(-x for x in reversed(word))


def conjugate_reflection(a, b):
    """a b a^{-1} = t_gamma for gamma = a(beta_b), whose coroot row is
    phi_b - phi_b(beta_a) phi_a (Kac, "Infinite-dimensional Lie algebras",
    1990, 5.1); both are negated when gamma is negative.  The row update of
    reference_braid_move, which reads no row off the form."""
    root, k = a.apply(b.root), b.pair(a.root)
    coroot = tuple(x - k * y for x, y in zip(b.coroot, a.coroot))
    if weyl.is_negative(root):
        root, coroot = weyl.negate(root), weyl.negate(coroot)
    return weyl.Reflection(root, coroot)


def reference_braid_move(f, i, inverse=False):
    """The generator move on a Factorization, by conjugated rows:
    (g_i, g_{i+1}) -> (g_i g_{i+1} g_i^{-1}, g_i), or
    (g_{i+1}, g_{i+1}^{-1} g_i g_{i+1}) for the inverse move.  The reference
    for hurwitz.braid_move, which moves root ids on the shared table."""
    a, b = f.parts[i - 1], f.parts[i]
    pair = (b, conjugate_reflection(b, a)) if inverse else (conjugate_reflection(a, b), a)
    return Factorization(f.parts[: i - 1] + pair + f.parts[i + 1 :], f.coxeter)


def reference_to_front(f, root):
    """f with the part of root at slot k + 1 brought to the front by the
    moves -k, ..., -1 of reference_braid_move: the rotation of a prefix
    witness."""
    for i in range(f.roots().index(root), 0, -1):
        f = reference_braid_move(f, i, inverse=True)
    return f


def standard_stabilizer_words(C):
    """(word, label) pairs that fix the canonical tuple, and the ranges skipped.

    For vertices i..j, the ascending block (i, ..., j - 1), which acts as the
    descending generator product, raised to (j - i + 1) h_sub, where h_sub is
    the Coxeter number of the subdiagram; sub-ranges of infinite type are
    skipped.  Then sigma_i^m for each adjacent pair with finite m = m_{i,i+1}.
    """
    words, skipped = [], []
    for i in range(1, C.n):
        for j in range(i + 1, C.n + 1):
            sub = submatrix(C, tuple(range(i, j + 1)))
            if classify_type(sub) is not TypeClass.FINITE:
                skipped.append(f"vertices {i}..{j}: subdiagram is not finite type")
                continue
            block = tuple(range(i, j)) * ((j - i + 1) * weyl.coxeter_number(sub))
            words.append((block, f"block twist {i}..{j}"))
    for i in range(1, C.n):
        m = coxeter_exponent(C, i, i + 1)
        if m is None:
            skipped.append(f"adjacent pair {i},{i + 1}: infinite braid exponent")
        else:
            words.append(((i,) * m, f"adjacent power sigma_{i}^{m}"))
    return words, skipped


def full_twist_sides(C, k):
    """The parts' matrices after the k-fold full twist, (1, ..., n-1) repeated
    n |k| times (inverted for k < 0), and the canonical parts' matrices
    conjugated by c^k: the identity says the two are equal."""
    start = canonical_factorization(C)
    word = tuple(range(1, C.n)) * (C.n * abs(k))
    twisted = apply_braid_word(C, start, word if k >= 0 else word_inverse(word))
    ck, ck_inverse = mat_pow(start.coxeter, k), mat_pow(start.coxeter, -k)
    conjugated = [matmul(matmul(ck, part.matrix), ck_inverse) for part in start.parts]
    return [part.matrix for part in twisted.parts], conjugated


def normality_witness(C):
    """(stabilizing word, generator letter g) with g^-1 word g not a stabilizer,
    witnessing that the stabilizer subgroup is not normal, or None."""
    if classify_type(C) is not TypeClass.FINITE:
        raise ValueError("normality probe requires a finite-type matrix")
    for word, _ in standard_stabilizer_words(C)[0]:
        if not stabilizer_check(word, C):
            continue  # tested, not assumed
        for letter in (x for g in range(1, C.n) for x in (g, -g)):
            if not stabilizer_check((-letter,) + word + (letter,), C):
                return word, letter
    return None


def _random_factorization(C, rng, moves=8):
    f = canonical_factorization(C)
    word = tuple(
        rng.choice([1, -1]) * rng.randint(1, C.n - 1) for _ in range(moves)
    )
    return apply_braid_word(C, f, word)


def test_factorization_validates_product():
    A2 = preset("A2")
    s1 = weyl.simple_reflection(A2, 1)
    with pytest.raises(ValueError):
        Factorization((s1, s1), weyl.coxeter_element(A2))


def test_braid_move_formula_instance():
    A2 = preset("A2")
    f = canonical_factorization(A2)
    table = hurwitz._root_tuples(A2)
    node = braid_move(table, table.admit(f), 1)
    assert table.roots_of(node) == ((1, 1), (1, 0))  # (s1 s2 s1, s1)
    moved = table.factorization(node, f.coxeter)
    assert moved == apply_braid_word(A2, f, (1,)) == reference_braid_move(f, 1)
    s1 = weyl.simple_reflection(A2, 1).matrix
    s2 = weyl.simple_reflection(A2, 2).matrix
    conjugated = matmul(matmul(s1, s2), s1)
    assert moved.parts[0].matrix == conjugated
    with pytest.raises(ValueError, match="out of range"):
        braid_move(table, node, 2)


def test_braid_move_inverse_roundtrip():
    rng = random.Random(4)
    for name in ("A3", "B3", "universal:3:2"):
        C = preset(name)
        table = hurwitz._root_tuples(C)
        for _ in range(20):
            f = _random_factorization(C, rng)
            node = table.admit(f)
            for i in range(1, C.n):
                assert braid_move(table, braid_move(table, node, i), i, inverse=True) == node
                assert braid_move(table, braid_move(table, node, i, inverse=True), i) == node
                for inverse in (False, True):
                    moved = table.factorization(braid_move(table, node, i, inverse), f.coxeter)
                    assert moved == reference_braid_move(f, i, inverse)


def test_sigma1_cubed_fixes_a2():
    assert stabilizer_check((1, 1, 1), preset("A2"))


def test_apply_braid_word_empty_and_range():
    A3 = preset("A3")
    f = canonical_factorization(A3)
    assert apply_braid_word(A3, f, ()) == f
    with pytest.raises(ValueError):
        apply_braid_word(A3, f, (3,))
    with pytest.raises(ValueError):
        apply_braid_word(A3, f, (0,))


def test_braid_relations_on_canonical():
    A3 = preset("A3")
    f = canonical_factorization(A3)
    assert apply_braid_word(A3, f, (1, 2, 1)) == apply_braid_word(A3, f, (2, 1, 2))
    A4 = preset("A4")
    g = canonical_factorization(A4)
    assert apply_braid_word(A4, g, (1, 3)) == apply_braid_word(A4, g, (3, 1))


def test_braid_relations_on_random_factorizations():
    rng = random.Random(5)
    for name in ("A3", "B3", "A4"):
        C = preset(name)
        for _ in range(100):
            f = _random_factorization(C, rng)
            for i in range(1, C.n - 1):
                assert apply_braid_word(C, f, (i, i + 1, i)) == apply_braid_word(
                    C, f, (i + 1, i, i + 1)
                )
            for i in range(1, C.n - 1):
                for j in range(i + 2, C.n):
                    assert apply_braid_word(C, f, (i, j)) == apply_braid_word(C, f, (j, i))


def test_orbit_sizes_and_completeness():
    for name, size in ORBIT_SIZES.items():
        C = preset(name)
        orbit = hurwitz_orbit(C, canonical_factorization(C))
        assert orbit.complete
        assert len(orbit) == size


def test_orbit_respects_node_cap():
    U = preset("universal:2:2")
    orbit = hurwitz_orbit(U, canonical_factorization(U), node_cap=25)
    assert not orbit.complete
    assert len(orbit) <= 25


def orbit_factorizations(orbit, coxeter):
    """Each tuple of the orbit, sorted by roots, as a Factorization of
    coxeter, built through the orbit's table and product-checked."""
    table = orbit.table
    return tuple(
        table.factorization(node, coxeter) for node in sorted(orbit.nodes, key=table.roots_of)
    )


def test_orbit_deterministic():
    A3 = preset("A3")
    start = canonical_factorization(A3)
    first = hurwitz_orbit(A3, start)
    second = hurwitz_orbit(A3, canonical_factorization(A3))
    assert orbit_factorizations(first, start.coxeter) == orbit_factorizations(second, start.coxeter)


def test_orbit_size_is_order_independent():
    # Coxeter elements of different orders are conjugate, so their
    # factorization orbits have the same size.
    A3, B3 = preset("A3"), preset("B3")
    assert len(hurwitz_orbit(A3, canonical_factorization(A3, (3, 1, 2)))) == 16
    assert len(hurwitz_orbit(B3, canonical_factorization(B3, (2, 1, 3)))) == 27


def test_count_formula():
    assert factorization_count_formula(preset("B3")) == 27
    assert factorization_count_formula(preset("D4")) == 162
    assert factorization_count_formula(preset("F4")) == 432
    with pytest.raises(ValueError):
        factorization_count_formula(preset("affine-A2"))


def test_orbit_matches_formula():
    for name in ORBIT_SIZES:
        C = preset(name)
        assert len(hurwitz_orbit(C, canonical_factorization(C))) == (
            factorization_count_formula(C)
        )


def test_prefix_simple_generator():
    for name in ("A3", "B3", "universal:3:2"):
        C = preset(name)
        t = weyl.simple_reflection(C, 1)
        verdict = is_prefix_of_coxeter(t.root, C)
        assert verdict.answer is Ternary.YES
        assert verdict.factorization.parts[0] == t


def test_prefix_conjugate_reflection():
    A3 = preset("A3")
    t = weyl.reflection_for_root(A3, (0, 1, 1))  # s2 s3 s2
    verdict = is_prefix_of_coxeter(t.root, A3)
    assert verdict.answer is Ternary.YES
    assert verdict.factorization.parts[0] == t


def test_prefix_universal_rank2():
    U = preset("universal:2:2")
    t = weyl.reflection_for_root(U, (2, 1))  # s1 s2 s1
    verdict = is_prefix_of_coxeter(t.root, U)
    assert verdict.answer is Ternary.YES


def test_prefix_yes_for_all_orbit_components():
    # Rank <= 4 finite presets; the remaining rank-4 ones are covered
    # reflection-by-reflection in the route cross-check test below.
    for name in ("A2", "B2", "G2", "A3", "B3", "A4", "D4"):
        C = preset(name)
        start = canonical_factorization(C)
        for f in orbit_factorizations(hurwitz_orbit(C, start), start.coxeter):
            for part in f.parts:
                assert is_prefix_of_coxeter(part.root, C).answer is Ternary.YES


def test_stabilizer_examples():
    assert stabilizer_check((1,) * 3, preset("A2"))
    assert stabilizer_check((1,) * 6, preset("G2"))
    assert not stabilizer_check((1,) * 3, preset("G2"))
    assert stabilizer_check((1, 2) * 12, preset("A3"))  # (sigma2 sigma1)^12, nh = 12


def test_standard_stabilizer_words_pass():
    for name in ("A3", "B3", "D4"):
        C = preset(name)
        words, skipped = standard_stabilizer_words(C)
        assert not skipped
        for word, label in words:
            assert stabilizer_check(word, C), label


def test_standard_stabilizer_words_skip_non_finite():
    words, skipped = standard_stabilizer_words(preset("universal:3:2"))
    assert not words
    assert len(skipped) == 5


def test_full_twist_identity():
    for name, powers in (("A3", (-2, -1, 0, 1, 2)), ("universal:3:2", (-2, -1, 1, 2))):
        for k in powers:
            twisted, conjugated = full_twist_sides(preset(name), k)
            assert twisted == conjugated, (name, k)


def test_word_inverse_cancels():
    rng = random.Random(6)
    A3 = preset("A3")
    f = canonical_factorization(A3)
    for _ in range(50):
        word = tuple(rng.choice([1, -1]) * rng.randint(1, 2) for _ in range(6))
        assert apply_braid_word(A3, apply_braid_word(A3, f, word), word_inverse(word)) == f


def test_normality_probe_a3_witness():
    A3 = preset("A3")
    word, letter = normality_witness(A3)
    assert stabilizer_check(word, A3)
    assert not stabilizer_check((-letter,) + word + (letter,), A3)


def test_normality_probe_a2_not_found():
    assert normality_witness(preset("A2")) is None


def test_normality_probe_b3_witness():
    assert normality_witness(preset("B3")) is not None


def test_normality_probe_requires_finite():
    with pytest.raises(ValueError):
        normality_witness(preset("universal:3:2"))


def test_prefix_routes_cross_checked_on_all_reflections():
    # Three routes to the prefix set of a finite type: the decided answer of
    # is_prefix_of_coxeter (a reflection search cross-checked against
    # Carter's rank criterion), the roots met in the full Hurwitz orbit, and
    # the whole positive system (every reflection is a prefix, by Bessis).
    for name in (
        "A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3", "A4", "B4", "C4", "D4",
        "F4", "A5", "B5", "C5", "D5",
    ):
        C = preset(name)
        yes = set()
        for t in weyl.reflections(C):
            verdict = is_prefix_of_coxeter(t.root, C)
            assert verdict.answer is not Ternary.UNKNOWN
            if verdict.answer is Ternary.YES:
                assert verdict.factorization.parts[0] == t
                yes.add(t.root)
        c = weyl.coxeter_element(C)
        in_orbit = {r for f in orbit_factorizations(_full_orbit(C, None), c) for r in f.roots()}
        assert yes == in_orbit == set(weyl.positive_real_roots(C, 1)), name


@pytest.mark.parametrize("name", ["E6", "E7"])
def test_prefix_decided_without_the_group_table(name):
    C = preset(name)
    for t in weyl.reflections(C):
        verdict = is_prefix_of_coxeter(t.root, C)
        assert verdict.answer is Ternary.YES
        assert verdict.factorization.parts[0] == t


@pytest.mark.parametrize(
    "C, beta",
    [
        (preset("B4"), (1, 0, 1, 0)),  # finite: the norm of alpha_4, but no root
        (preset("B4"), (1, 2, 3, 1)),
        (preset("universal:2:3"), (1, 1)),  # rank 2: negative norm
        (preset("universal:3:2"), (1, 1, 1)),  # rank 3 infinite: negative norm
        (AFFINE_B4, (1, 0, 1, 0, 0)),  # rank 5 infinite: the norm of alpha_4
        (preset("A3"), (0, 0, 0)),
    ],
    ids=["B4-1010", "B4-1231", "universal-2-3", "universal-3-2", "affine-B4", "zero"],
)
def test_prefix_refuses_non_roots_on_every_branch(C, beta):
    with pytest.raises(ValueError, match="root"):
        is_prefix_of_coxeter(beta, C)


@pytest.mark.parametrize(
    "name, order, height",
    [
        ("universal:3:2", None, 12),
        ("affine-A2", (1, 2, 3), 10),
        ("affine-A2", (3, 1, 2), 10),
        ("universal:4:2", None, 4),
        ("universal:3:3", None, 30),
        ("affine-A3", None, 12),
    ],
)
def test_orbit_certificates_match_the_pool_route(name, order, height):
    # The pool is Dyer's: the inversion reflections of a reduced word of t c,
    # searched by weyl.factor_into_reflections, which is_prefix_of_coxeter
    # does not run on these types.  Every orbit YES is a Dyer YES, and every
    # root the height-pruned orbit search leaves UNKNOWN is a Dyer NO.
    C = preset(name)
    c = weyl.coxeter_element(C, order)
    orbit_yes, orbit_unknown, dyer_yes, dyer_no = set(), set(), set(), set()
    for beta in weyl.positive_real_roots(C, height):
        t = weyl.reflection_for_root(C, beta)
        verdict = is_prefix_of_coxeter(beta, C, order)
        if verdict.answer is Ternary.YES:
            assert verdict.factorization.parts[0] == t
            Factorization(verdict.factorization.parts, c)  # product check
            orbit_yes.add(beta)
        else:
            assert verdict.answer is Ternary.UNKNOWN
            orbit_unknown.add(beta)
        rest = weyl.factor_into_reflections(C, t.left_multiply(c), C.n - 1)
        if rest is None:
            dyer_no.add(beta)
        else:
            Factorization((t,) + rest, c)
            dyer_yes.add(beta)
    assert orbit_yes == dyer_yes
    assert orbit_unknown == dyer_no
    assert orbit_yes  # the comparison is not vacuous


def test_prefix_search_and_carter_route_must_agree(monkeypatch):
    monkeypatch.setattr(weyl, "factor_into_reflections", lambda *args: None)
    A3 = preset("A3")
    with pytest.raises(ArithmeticError, match="disagree"):
        is_prefix_of_coxeter((1, 0, 0), A3)


# Reference searches on Factorization nodes, one reference_braid_move per
# image: the row route that the root-tuple searches in hurwitz replace.


def _reference_orbit(start, node_cap):
    seen = {start}
    queue = deque([start])
    complete = True
    while queue:
        f = queue.popleft()
        for i in range(1, f.n):
            for inverse in (False, True):
                image = reference_braid_move(f, i, inverse)
                if image not in seen:
                    if len(seen) >= node_cap:
                        complete = False
                        continue
                    seen.add(image)
                    queue.append(image)
    return tuple(sorted(seen, key=lambda f: f.roots())), complete


def _reference_targeted_search(start, target, node_cap, height_cap):
    """The targeted search on Factorizations moved by reference_braid_move: a
    breadth-first walk that keeps at most node_cap of them, expands none
    with a root taller than height_cap, and expands none once a move has
    made the target, whether its image is kept or dropped at the cap.
    Returns (word, exhausted, nodes), where word, or None, moves start to
    the first factorization found to hold the target and then moves the
    target to the front."""

    def finish(f, word):
        return tuple(word) + tuple(range(-f.parts.index(target), 0))

    if target in start.parts:
        return finish(start, []), True, 1
    parents = {start: None}
    queue, complete, made = deque([start]), True, None
    while queue and made is None:
        f = queue.popleft()
        if any(weyl.height(r) > height_cap for r in f.roots()):
            continue
        for i in range(1, f.n):
            for letter in (i, -i):
                image = reference_braid_move(f, i, inverse=letter < 0)
                if made is None and target in image.parts:
                    made = f, letter, image
                if image in parents:
                    continue
                if len(parents) >= node_cap:
                    complete = False
                    continue
                parents[image] = (f, letter)
                queue.append(image)
    if made is None:
        return None, complete, len(parents)
    f, letter, image = made
    word = [letter]
    while parents[f] is not None:
        f, letter = parents[f]
        word.append(letter)
    return finish(image, word[::-1]), False, len(parents)


def _orders(C):
    """The default order, its reverse and one fixed shuffle of it."""
    shuffled = list(range(1, C.n + 1))
    random.Random(C.n).shuffle(shuffled)
    return [None, tuple(range(C.n, 0, -1)), tuple(shuffled)]


# A finite orbit under the cap is walked under sigma_1 and delta alone; a
# capped walk, on D5 or an infinite type, under every slot's move.
@pytest.mark.parametrize(
    "name, node_cap",
    [
        ("A1", 10**6),
        ("A2", 10**6),
        ("B2", 10**6),
        ("G2", 10**6),
        ("A3", 10**6),
        ("B3", 10**6),
        ("C3", 10**6),
        ("A4", 10**6),
        ("B4", 10**6),
        ("C4", 10**6),
        ("D4", 10**6),
        ("F4", 10**6),
        ("A5", 10**6),
        ("B5", 10**6),
        ("C5", 10**6),
        ("D5", 10**6),
        ("D5", 1),
        ("D5", 7),
        ("D5", 50),
        ("universal:3:2", 25),
        ("universal:3:2", 200),
        ("affine-A2", 150),
        ("universal:4:2", 150),
    ],
)
def test_orbit_matches_braid_move_reference(name, node_cap):
    C = preset(name)
    finite = classify_type(C) is TypeClass.FINITE
    for order in _orders(C) if finite else [None]:
        start = canonical_factorization(C, order)
        orbit = hurwitz_orbit(C, start, node_cap=node_cap)
        found = orbit_factorizations(orbit, start.coxeter), orbit.complete
        assert found == _reference_orbit(start, node_cap)
        if finite and orbit.complete:
            assert len(orbit) == factorization_count_formula(C)


@pytest.mark.parametrize("name", ["A6", "D6", "E6"])
def test_generator_walk_matches_the_all_slot_walk(name):
    # The Factorization reference takes seconds per order here, so the
    # reference is the all-slot walk on root ids, which the test above pins.
    C = preset(name)
    table = hurwitz._root_tuples(C)
    for order in _orders(C):
        start = canonical_factorization(C, order)
        orbit = hurwitz_orbit(C, start)
        nodes, complete = weyl._bounded_closure([table.admit(start)], table.images, 10**6)
        assert orbit.complete and complete
        assert orbit.roots == tuple(sorted(map(table.roots_of, nodes)))
        assert len(orbit) == factorization_count_formula(C)


def test_count_formula_only_chooses_the_walk(monkeypatch):
    D4 = preset("D4")
    start = canonical_factorization(D4)
    # An overcount under the cap still walks the generators to the orbit.
    monkeypatch.setattr(hurwitz, "factorization_count_formula", lambda C: 500)
    assert len(hurwitz_orbit(D4, start, node_cap=500)) == ORBIT_SIZES["D4"]
    # An undercount that lets the cap stop a generator walk is refused.
    monkeypatch.setattr(hurwitz, "factorization_count_formula", lambda C: 100)
    with pytest.raises(ArithmeticError, match="count formula"):
        hurwitz_orbit(D4, start, node_cap=100)


@pytest.mark.parametrize(
    "name", ["A3", "B3", "D4", "F4", "E6", "affine-A2", "universal:3:2"]
)
def test_delta_to_the_n_conjugates_by_c(name):
    # delta^n is the full twist, which acts as conjugation by c: each root
    # beta of a tuple becomes +-c beta.  Checked on the start and on its two
    # generator images, with the matrix of c, not the table's moves.
    C = preset(name)
    table = hurwitz._root_tuples(C)
    start = canonical_factorization(C)
    first = table.admit(start)
    for node in [first, *table.generator_images(first)]:
        twisted = node
        for _ in range(C.n):
            twisted = table.generator_images(twisted)[1]
        expected = tuple(
            weyl.positive_part(matvec(start.coxeter, beta)) for beta in table.roots_of(node)
        )
        assert table.roots_of(twisted) == expected


@pytest.mark.parametrize("name", ["universal:3:2", "affine-A2"])
def test_targeted_search_matches_braid_move_reference(name):
    C = preset(name)
    start = canonical_factorization(C)
    kinds = set()
    # At (8, 4) every search on universal:3:2 finds its root; (60, 2) is a
    # height cap low enough that some searches exhaust their region.
    for node_cap, height_cap in ((3, 2), (8, 4), (60, 8), (60, 2)):
        for beta in weyl.positive_real_roots(C, 6):
            target = weyl.reflection_for_root(C, beta)
            outcome = _targeted_orbit_search(C, start, target, node_cap, height_cap)
            word, exhausted, nodes = _reference_targeted_search(
                start, target, node_cap, height_cap
            )
            case = beta, node_cap, height_cap
            assert (outcome.found is None, outcome.exhausted, outcome.nodes) == (
                word is None, exhausted, nodes
            ), case
            if word is not None:
                # The reference's braid word, which ends by moving the
                # target to the front by -k, ..., -1, replayed from the
                # start is the search's finished witness.
                assert outcome.found.parts[0] == target, case
                assert apply_braid_word(C, start, word) == outcome.found, case
                kinds.add("found")
            else:
                kinds.add("exhausted" if outcome.exhausted else "capped")
    # The caps are small enough that every kind of outcome is compared.
    assert kinds == {"found", "exhausted", "capped"}


@pytest.mark.parametrize("name", ["universal:3:2", "affine-A2", "universal:4:2"])
def test_the_node_cap_bounds_the_targeted_search(name):
    # The search keeps at most node_cap tuples, and a YES under a tight cap
    # is the YES of the default cap: the same walk, cut shorter.
    C = preset(name)
    start = canonical_factorization(C)
    for beta in weyl.positive_real_roots(C, 6):
        target = weyl.reflection_for_root(C, beta)
        height_cap = hurwitz.DEFAULT_PRUNE_MULTIPLIER * weyl.height(beta)
        default = is_prefix_of_coxeter(beta, C).factorization
        for node_cap in (1, 2, 10, 50, 200):
            outcome = _targeted_orbit_search(C, start, target, node_cap, height_cap)
            assert outcome.nodes <= node_cap, (beta, node_cap)
            verdict = is_prefix_of_coxeter(beta, C, node_cap=node_cap)
            if verdict.answer is Ternary.YES:
                assert verdict.factorization == default, (beta, node_cap)


def test_orbit_rejects_reflection_with_wrong_root():
    # A coroot row that does not pair its root to 2 is refused when built.
    A2 = preset("A2")
    s1, s2 = (weyl.simple_reflection(A2, i) for i in (1, 2))
    with pytest.raises(ArithmeticError):
        weyl.Reflection((1, 1), s2.coroot)
    # (1, 1) with the row (2, 0) pairs to 2, so it is a reflection, but not
    # one of W(A2): the product check refuses it.
    it = weyl.Reflection((1, 1), (2, 0))
    with pytest.raises(ValueError):
        Factorization((s1, it), weyl.coxeter_element(A2))


def test_the_walks_make_no_braid_move_and_the_rotation_makes_k(monkeypatch):
    # The walks move ids through the table's move list; the search's one
    # caller of braid_move is the rotation of the tuple the walk found, which
    # brings its root from slot k + 1 to the front by the moves -k, ..., -1.
    events = []
    move, walk = hurwitz.braid_move, hurwitz._ReflectionTable.walk

    def recorded_move(table, node, i, inverse=False):
        events.append((i, inverse))
        return move(table, node, i, inverse)

    def recorded_walk(table, *args):
        events.append("walk")
        result = walk(table, *args)
        events.append("walked")
        return result

    monkeypatch.setattr(hurwitz, "braid_move", recorded_move)
    monkeypatch.setattr(hurwitz._ReflectionTable, "walk", recorded_walk)
    B3 = preset("B3")
    assert len(hurwitz_orbit(B3, canonical_factorization(B3))) == ORBIT_SIZES["B3"]
    assert events == []
    C = preset("universal:3:2")
    table, start = hurwitz._root_tuples(C), canonical_factorization(C)
    first = table.admit(start)
    for beta in weyl.positive_real_roots(C, 4):
        target = weyl.reflection_for_root(C, beta)
        _, _, made = walk(table, first, 10**4, 8, {beta})
        k = table.roots_of(made.get(beta, first)).index(beta)
        events.clear()
        outcome = _targeted_orbit_search(C, start, target, 10**4, 8)
        assert outcome.found.parts[0] == target
        assert events == ["walk", "walked"] + [(i, True) for i in range(k, 0, -1)], beta


@pytest.mark.parametrize(
    "beta, how",
    [((1, 0, 0), "slot 1"), ((0, 0, 1), "simple root at slot 3"), ((2, 0, 1), "made by a move")],
)
def test_an_orbit_search_yes_is_product_checked_once(beta, how, monkeypatch):
    # The canonical start is cached and checked when first built; the YES
    # then checks only its finished witness, whatever the rotation.
    C = preset("universal:3:2")
    table, start = hurwitz._root_tuples(C), canonical_factorization(C)
    assert (beta in table.roots_of(table.admit(start))) == (how != "made by a move")
    checked = []
    check = Factorization.__post_init__
    monkeypatch.setattr(
        Factorization, "__post_init__", lambda f: (checked.append(f.roots()), check(f))
    )
    verdict = is_prefix_of_coxeter(beta, C)
    assert verdict.answer is Ternary.YES and verdict.factorization.roots()[0] == beta
    assert checked == [verdict.factorization.roots()], how


def test_orbit_builds_no_factorization_and_reads_each_row_once(monkeypatch):
    B3 = preset("B3")
    start = canonical_factorization(B3)
    # A fresh table, so that this closure meets every root for the first time.
    monkeypatch.setattr(hurwitz, "_root_tuples", functools.lru_cache(hurwitz._ReflectionTable))
    checked, rows, applied = [], [], []
    check = Factorization.__post_init__
    coroot_row = weyl.coroot_row
    apply = weyl.Reflection.apply
    monkeypatch.setattr(
        Factorization, "__post_init__", lambda f: (checked.append(f.roots()), check(f))
    )
    monkeypatch.setattr(
        weyl, "coroot_row", lambda form, beta: (rows.append(beta), coroot_row(form, beta))[1]
    )
    orbit = hurwitz_orbit(B3, start)
    assert len(orbit) == ORBIT_SIZES["B3"]
    # The start was checked when it was built, before the closure; no node is.
    assert checked == []
    # One row per root that acts, no root twice: the start roots' rows come
    # through weyl.reflection_for_root, every other row straight off the form.
    table = hurwitz._root_tuples(B3)
    simple = set(start.roots())
    assert len(rows) == len(set(rows)) == len(table.reflections)
    assert simple <= set(rows)
    assert len(set(rows) - simple) == len(table.reflections) - B3.n
    # A second closure on the same table finds every pair memoized.
    monkeypatch.setattr(
        weyl.Reflection, "apply", lambda t, v: (applied.append(v), apply(t, v))[1]
    )
    again = hurwitz_orbit(B3, start)
    assert (again.roots, again.complete) == (orbit.roots, orbit.complete)
    assert applied == [] and len(rows) == len(table.reflections)


def test_orbit_factorizations_are_each_product_checked(monkeypatch):
    D4 = preset("D4")
    start = canonical_factorization(D4)
    orbit = hurwitz_orbit(D4, start)
    checked = []
    check = Factorization.__post_init__
    monkeypatch.setattr(
        Factorization, "__post_init__", lambda f: (checked.append(f.roots()), check(f))
    )
    factorizations = orbit_factorizations(orbit, start.coxeter)
    assert checked == [f.roots() for f in factorizations] == list(orbit.roots)


_MOVED = hurwitz._ReflectionTable.moved


def _without_correction(table, a, b):
    """The move with the correction -phi_a(beta_b) beta_a dropped: beta_b
    stays as it is."""
    return b


def _without_sign_flip(table, a, b):
    """The move with a negative t_a(beta_b) kept as it is, under an id of
    its own."""
    root = table.reflection(a).apply(table.roots[b])
    g = table.ids.get(root)
    return table._add(root, sum(root)) if g is None else g


def _with_stray_row(table, a, b):
    """The right move, which also writes its new root a row of its own: the
    true row plus (gamma_2, -gamma_1, 0, ...), which vanishes on gamma, so
    the pairing check of Reflection cannot see it; the product check can."""
    g = _MOVED(table, a, b)
    if g not in table.reflections:
        t = table.reflection(g)
        gamma = t.root
        stray = (gamma[1], -gamma[0]) + (0,) * (len(gamma) - 2)
        row = tuple(x + y for x, y in zip(t.coroot, stray))
        table.reflections[g] = weyl.Reflection(gamma, row)
    return g


# Each mutant replaces the table's move, which every braid word and orbit
# walk runs through, on a fresh table.  Dropping the correction, or writing
# a stray row, gives a tuple of another product, which apply_braid_word's
# one product check refuses.  Dropping the sign flip keeps the map and
# writes it with a negative root, which no runtime check sees; B3 in the
# order (2, 1, 3) and G2 meet such an image.  The matrix replay of
# tests/test_reflection_rows.py catches all three.
@pytest.mark.parametrize(
    "mutant, starts, refusal",
    [
        (_without_correction, [("A3", None), ("B3", None), ("G2", None)],
         (ValueError, "differs from the Coxeter element")),
        (_without_sign_flip, [("B3", (2, 1, 3)), ("G2", None), ("G2", (2, 1))], None),
        (_with_stray_row, [("A3", None), ("B3", None), ("G2", None)],
         (ValueError, "differs from the Coxeter element")),
    ],
    ids=["without-correction", "without-sign-flip", "stray-row"],
)
def test_corrupted_row_update_is_refused(monkeypatch, mutant, starts, refusal):
    import test_reflection_rows

    monkeypatch.setattr(hurwitz, "_root_tuples", functools.lru_cache(hurwitz._ReflectionTable))
    monkeypatch.setattr(hurwitz._ReflectionTable, "moved", mutant)
    for name, order in starts:
        C = preset(name)
        start = canonical_factorization(C, order)
        words = [
            word
            for length in (1, 2, 3)
            for word in itertools.product(
                [i for k in range(1, start.n) for i in (k, -k)], repeat=length
            )
        ]
        if refusal is None:
            moved = [apply_braid_word(C, start, word) for word in words]
            assert any(weyl.is_negative(r) for f in moved for r in f.roots()), name
        else:
            with pytest.raises(refusal[0], match=refusal[1]):
                for word in words:
                    apply_braid_word(C, start, word)
    with pytest.raises((AssertionError, ArithmeticError, ValueError)):
        test_reflection_rows.test_braid_words_match_the_matrix_replay()


def test_a_braid_word_is_product_checked_once(monkeypatch):
    # The start is admitted, not checked again, and no letter builds a
    # Factorization: the result alone is checked.
    C = preset("universal:3:2")
    start = canonical_factorization(C)
    checked = []
    check = Factorization.__post_init__
    monkeypatch.setattr(
        Factorization, "__post_init__", lambda f: (checked.append(f.roots()), check(f))
    )
    word = (1, 2, -1, 2, 2, -1, 1, 1, -2, 1, 2, 1)
    moved = apply_braid_word(C, start, word)
    assert checked == [moved.roots()]
    checked.clear()
    assert stabilizer_check((1, 2) * 12, preset("A3"))
    assert len(checked) == 1


def test_apply_braid_word_refuses_a_start_part_that_is_not_its_roots_reflection():
    # The flipped s_1 of A2 is the same map, so the start's product check
    # passes; the word's admission through the table refuses it, as
    # hurwitz_orbit does, before any letter is read.
    A2 = preset("A2")
    s1, s2 = (weyl.simple_reflection(A2, i) for i in (1, 2))
    flipped = weyl.Reflection(weyl.negate(s1.root), weyl.negate(s1.coroot))
    start = Factorization((flipped, s2), weyl.coxeter_element(A2))
    for word in ((), (1,), (-1, 1)):
        with pytest.raises(ArithmeticError, match="not a positive root"):
            apply_braid_word(A2, start, word)


def test_orbit_refuses_start_part_that_is_not_its_roots_reflection():
    # s_1 written with the negated root and row is the same map, so the
    # product check passes; the table refuses it.
    A2 = preset("A2")
    s1, s2 = (weyl.simple_reflection(A2, i) for i in (1, 2))
    flipped = weyl.Reflection(weyl.negate(s1.root), weyl.negate(s1.coroot))
    start = Factorization((flipped, s2), weyl.coxeter_element(A2))
    with pytest.raises(ArithmeticError):
        hurwitz_orbit(A2, start)
    # The shared table stores no negative root.
    assert all(not weyl.is_negative(root) for root in hurwitz._root_tuples(A2).roots)
    # On B2, row 1 is (2, -2), so (2alpha_1, (1, -1)) is s_1 again; 2alpha_1
    # is not a root.
    B2 = preset("B2")
    s1, s2 = (weyl.simple_reflection(B2, i) for i in (1, 2))
    assert s1.coroot == (2, -2)
    doubled = weyl.Reflection((2, 0), (1, -1))
    # 2B(., 2alpha_1) / B(2alpha_1, 2alpha_1) is that row too, so a refused
    # start must not be stored: the second admission is refused again.
    assert weyl.coroot_row(symmetrized(B2), (2, 0)) == doubled.coroot
    for _ in range(2):
        with pytest.raises(ValueError, match="not the norm"):
            hurwitz_orbit(B2, Factorization((doubled, s2), weyl.coxeter_element(B2)))
    # A start of another Cartan matrix: s_2 of A3 is not s_2 of B3.
    with pytest.raises(ArithmeticError):
        hurwitz_orbit(preset("B3"), canonical_factorization(preset("A3")))
