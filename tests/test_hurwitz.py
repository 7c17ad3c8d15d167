import functools
import random
from collections import deque

import pytest

from schur_scope import hurwitz, weyl
from schur_scope._matrix import matmul
from schur_scope.cartan import CartanMatrix, TypeClass, classify_type, preset, submatrix
from schur_scope.hurwitz import (
    Factorization,
    SearchOutcome,
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
from test_cartan import coxeter_exponent
from test_matrix import mat_pow

ORBIT_SIZES = {"A2": 3, "B2": 4, "G2": 6, "A3": 16, "B3": 27, "A4": 125, "D4": 162}
AFFINE_B4 = CartanMatrix((
    (2, -1, 0, 0, 0),
    (-1, 2, -1, 0, -1),
    (0, -1, 2, -2, 0),
    (0, 0, -1, 2, 0),
    (0, -1, 0, 0, 2),
))


def word_inverse(word):
    return tuple(-x for x in reversed(word))


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
    twisted = apply_braid_word(start, word if k >= 0 else word_inverse(word))
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
    return apply_braid_word(f, word)


def test_factorization_validates_product():
    A2 = preset("A2")
    s1 = weyl.simple_reflection(A2, 1)
    with pytest.raises(ValueError):
        Factorization((s1, s1), weyl.coxeter_element(A2))


def test_braid_move_formula_instance():
    A2 = preset("A2")
    f = canonical_factorization(A2)
    moved = braid_move(f, 1)
    assert moved.roots() == ((1, 1), (1, 0))  # (s1 s2 s1, s1)
    s1 = weyl.simple_reflection(A2, 1).matrix
    s2 = weyl.simple_reflection(A2, 2).matrix
    conjugated = matmul(matmul(s1, s2), s1)
    assert moved.parts[0].matrix == conjugated


def test_braid_move_inverse_roundtrip():
    rng = random.Random(4)
    for name in ("A3", "B3", "universal:3:2"):
        C = preset(name)
        for _ in range(20):
            f = _random_factorization(C, rng)
            for i in range(1, C.n):
                assert braid_move(braid_move(f, i), i, inverse=True) == f
                assert braid_move(braid_move(f, i, inverse=True), i) == f


def test_sigma1_cubed_fixes_a2():
    assert stabilizer_check((1, 1, 1), preset("A2"))


def test_apply_braid_word_empty_and_range():
    A3 = preset("A3")
    f = canonical_factorization(A3)
    assert apply_braid_word(f, ()) == f
    with pytest.raises(ValueError):
        apply_braid_word(f, (3,))
    with pytest.raises(ValueError):
        apply_braid_word(f, (0,))


def test_braid_relations_on_canonical():
    A3 = preset("A3")
    f = canonical_factorization(A3)
    assert apply_braid_word(f, (1, 2, 1)) == apply_braid_word(f, (2, 1, 2))
    A4 = preset("A4")
    g = canonical_factorization(A4)
    assert apply_braid_word(g, (1, 3)) == apply_braid_word(g, (3, 1))


def test_braid_relations_on_random_factorizations():
    rng = random.Random(5)
    for name in ("A3", "B3", "A4"):
        C = preset(name)
        for _ in range(100):
            f = _random_factorization(C, rng)
            for i in range(1, C.n - 1):
                assert apply_braid_word(f, (i, i + 1, i)) == apply_braid_word(
                    f, (i + 1, i, i + 1)
                )
            for i in range(1, C.n - 1):
                for j in range(i + 2, C.n):
                    assert apply_braid_word(f, (i, j)) == apply_braid_word(f, (j, i))


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


def test_orbit_deterministic():
    A3 = preset("A3")
    first = hurwitz_orbit(A3, canonical_factorization(A3))
    second = hurwitz_orbit(A3, canonical_factorization(A3))
    assert first.factorizations == second.factorizations


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
        for f in hurwitz_orbit(C, canonical_factorization(C)).factorizations:
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
        assert apply_braid_word(apply_braid_word(f, word), word_inverse(word)) == f


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
        in_orbit = {r for f in _full_orbit(C, None).factorizations for r in f.roots()}
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


# Reference searches on Factorization nodes, one braid_move per image: the
# matrix route that the root-tuple searches in hurwitz replace.


def _reference_orbit(start, node_cap):
    seen = {start}
    queue = deque([start])
    complete = True
    while queue:
        f = queue.popleft()
        for i in range(1, f.n):
            for inverse in (False, True):
                image = braid_move(f, i, inverse)
                if image not in seen:
                    if len(seen) >= node_cap:
                        complete = False
                        continue
                    seen.add(image)
                    queue.append(image)
    return tuple(sorted(seen, key=lambda f: f.roots())), complete


def _reference_targeted_search(start, target, node_cap, height_cap):
    def finish(node):
        word = []
        cursor = node
        while parents[cursor] is not None:
            cursor, letter = parents[cursor]
            word.append(letter)
        word.reverse()
        slot = node.parts.index(target)
        return tuple(word) + tuple(range(-slot, 0))

    parents = {start: None}
    if target in start.parts:
        return SearchOutcome(finish(start), True, 1)
    queue = deque([start])
    exhausted = True
    while queue:
        f = queue.popleft()
        for i in range(1, f.n):
            for letter in (i, -i):
                image = braid_move(f, i, inverse=letter < 0)
                if image in parents:
                    continue
                parents[image] = (f, letter)
                if target in image.parts:
                    return SearchOutcome(finish(image), False, len(parents))
                if any(weyl.height(r) > height_cap for r in image.roots()):
                    continue
                if len(parents) >= node_cap:
                    exhausted = False
                    continue
                queue.append(image)
    return SearchOutcome(None, exhausted, len(parents))


@pytest.mark.parametrize(
    "name, node_cap",
    [
        ("A2", 10**6),
        ("B2", 10**6),
        ("G2", 10**6),
        ("A3", 10**6),
        ("B3", 10**6),
        ("B4", 10**6),
        ("A4", 10**6),
        ("C3", 10**6),
        ("D4", 10**6),
        ("F4", 10**6),
        ("D5", 10**6),
        ("universal:3:2", 25),
        ("universal:3:2", 200),
        ("affine-A2", 150),
        ("universal:4:2", 150),
    ],
)
def test_orbit_matches_braid_move_reference(name, node_cap):
    C = preset(name)
    start = canonical_factorization(C)
    orbit = hurwitz_orbit(C, start, node_cap=node_cap)
    assert (orbit.factorizations, orbit.complete) == _reference_orbit(start, node_cap)


@pytest.mark.parametrize("name", ["universal:3:2", "affine-A2"])
def test_targeted_search_matches_braid_move_reference(name):
    C = preset(name)
    start = canonical_factorization(C)
    kinds = set()
    for node_cap, height_cap in ((3, 2), (8, 4), (60, 8)):
        for beta in weyl.positive_real_roots(C, 6):
            target = weyl.reflection_for_root(C, beta)
            outcome = _targeted_orbit_search(C, start, target, node_cap, height_cap)
            reference = _reference_targeted_search(start, target, node_cap, height_cap)
            assert outcome == reference, (beta, node_cap, height_cap)
            if outcome.word is not None:
                kinds.add("found")
            else:
                kinds.add("exhausted" if outcome.exhausted else "capped")
    # The caps are small enough that every kind of outcome is compared.
    assert kinds == {"found", "exhausted", "capped"}


def test_orbit_rejects_reflection_with_wrong_root():
    # A coroot row that does not pair its root to 2 is refused when built.
    A2 = preset("A2")
    s1, s2 = weyl.simple_reflections(A2)
    with pytest.raises(ArithmeticError):
        weyl.Reflection((1, 1), s2.coroot)
    # (1, 1) with the row (2, 0) pairs to 2, so it is a reflection, but not
    # one of W(A2): the product check refuses it.
    it = weyl.Reflection((1, 1), (2, 0))
    with pytest.raises(ValueError):
        Factorization((s1, it), weyl.coxeter_element(A2))


def test_root_tuple_searches_make_no_braid_move(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("braid_move called inside a root-tuple search")

    monkeypatch.setattr(hurwitz, "braid_move", refuse)
    B3 = preset("B3")
    assert len(hurwitz_orbit(B3, canonical_factorization(B3))) == ORBIT_SIZES["B3"]
    C = preset("universal:3:2")
    target = weyl.reflection_for_root(C, (2, 0, 1))
    outcome = _targeted_orbit_search(C, canonical_factorization(C), target, 10**4, 8)
    assert outcome.word is not None


def test_orbit_builds_no_factorization_and_conjugates_each_pair_once(monkeypatch):
    B3 = preset("B3")
    start = canonical_factorization(B3)
    # A fresh table, so that this closure meets every root for the first time.
    monkeypatch.setattr(hurwitz, "_root_tuples", functools.lru_cache(hurwitz._ReflectionTable))
    checked, conjugated, applied = [], [], []
    check = Factorization.__post_init__
    conjugate = hurwitz._conjugate_reflection
    apply = weyl.Reflection.apply
    monkeypatch.setattr(
        Factorization, "__post_init__", lambda f: (checked.append(f.roots()), check(f))
    )
    monkeypatch.setattr(
        hurwitz,
        "_conjugate_reflection",
        lambda a, b: (conjugated.append((a.root, b.root)), conjugate(a, b))[1],
    )
    orbit = hurwitz_orbit(B3, start)
    assert len(orbit) == ORBIT_SIZES["B3"]
    # The start was checked when it was built, before the closure; no node is.
    assert checked == []
    # One conjugation per root that is not a start root, no pair twice.
    table = hurwitz._root_tuples(B3)
    assert len(conjugated) == len(set(conjugated)) == len(table.reflections) - B3.n
    # A second closure on the same table finds every pair memoized.
    monkeypatch.setattr(
        weyl.Reflection, "apply", lambda t, v: (applied.append(v), apply(t, v))[1]
    )
    assert hurwitz_orbit(B3, start) == orbit
    assert applied == [] and len(conjugated) == len(table.reflections) - B3.n


def test_orbit_factorizations_are_each_product_checked(monkeypatch):
    D4 = preset("D4")
    orbit = hurwitz_orbit(D4, canonical_factorization(D4))
    checked = []
    check = Factorization.__post_init__
    monkeypatch.setattr(
        Factorization, "__post_init__", lambda f: (checked.append(f.roots()), check(f))
    )
    factorizations = orbit.factorizations
    assert checked == [f.roots() for f in factorizations] == list(orbit.roots)


def _without_correction(a, b):
    """The row update with the phi_b(beta_a) phi_a term dropped."""
    root, coroot = a.apply(b.root), b.coroot
    if weyl.is_negative(root):
        root, coroot = weyl.negate(root), weyl.negate(coroot)
    return weyl.Reflection(root, coroot)


def _without_sign_flip(a, b):
    """The row update with a negative gamma kept as it is."""
    k = b.pair(a.root)
    coroot = tuple(x - k * y for x, y in zip(b.coroot, a.coroot))
    return weyl.Reflection(a.apply(b.root), coroot)


_CONJUGATE = hurwitz._conjugate_reflection


def _with_stray_row(a, b):
    """The right row plus (gamma_2, -gamma_1, 0, ...), which vanishes on
    gamma: the pairing check of Reflection cannot see it, the form can."""
    t = _CONJUGATE(a, b)
    g = t.root
    stray = (g[1], -g[0]) + (0,) * (len(g) - 2)
    return weyl.Reflection(g, tuple(x + y for x, y in zip(t.coroot, stray)))


# The sign flip matters only for a root first met as a negative image.  No
# A3 orbit meets one, so that mutant leaves every A3 row right; B3 meets one
# from the order (2, 1, 3).
@pytest.mark.parametrize(
    "mutant, starts, refusal",
    [
        (_without_correction, [("A3", None), ("B3", None), ("G2", None)], "does not pair"),
        (_without_sign_flip, [("B3", (2, 1, 3)), ("G2", None), ("G2", (2, 1))], "not the"),
        (_with_stray_row, [("A3", None), ("B3", None), ("G2", None)], "not the"),
    ],
    ids=["without-correction", "without-sign-flip", "stray-row"],
)
def test_corrupted_row_update_is_refused(monkeypatch, mutant, starts, refusal):
    from schur_scope import cli

    monkeypatch.setattr(hurwitz, "_root_tuples", functools.lru_cache(hurwitz._ReflectionTable))
    monkeypatch.setattr(hurwitz, "_conjugate_reflection", mutant)
    for name, order in starts:
        hurwitz._root_tuples.cache_clear()
        C = preset(name)
        with pytest.raises(ArithmeticError, match=refusal):
            hurwitz_orbit(C, canonical_factorization(C, order))
    hurwitz._root_tuples.cache_clear()
    argv = ["--type", "B3", "--order", "2,1,3", "orbit", "count"]
    assert cli.run(argv) == cli.EXIT_INTERNAL


def test_orbit_refuses_start_part_that_is_not_its_roots_reflection():
    # s_1 written with the negated root and row is the same map, so the
    # product check passes; the table refuses it.
    A2 = preset("A2")
    s1, s2 = weyl.simple_reflections(A2)
    flipped = weyl.Reflection(weyl.negate(s1.root), weyl.negate(s1.coroot))
    start = Factorization((flipped, s2), weyl.coxeter_element(A2))
    with pytest.raises(ArithmeticError):
        hurwitz_orbit(A2, start)
    # On B2, row 1 is (2, -2), so (2alpha_1, (1, -1)) is s_1 again; 2alpha_1
    # is not a root.
    B2 = preset("B2")
    s1, s2 = weyl.simple_reflections(B2)
    assert s1.coroot == (2, -2)
    doubled = weyl.Reflection((2, 0), (1, -1))
    with pytest.raises(ValueError, match="not the norm"):
        hurwitz_orbit(B2, Factorization((doubled, s2), weyl.coxeter_element(B2)))
    # A start of another Cartan matrix: s_2 of A3 is not s_2 of B3.
    with pytest.raises(ArithmeticError):
        hurwitz_orbit(preset("B3"), canonical_factorization(preset("A3")))
