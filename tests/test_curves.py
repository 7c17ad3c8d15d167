import itertools
import random

import pytest

from schur_scope import hurwitz, weyl
from schur_scope._matrix import matmul, matvec
from schur_scope.cartan import preset
from schur_scope.curves import (
    CurveWord,
    SimpleVerdict,
    apply_braid_word_curves,
    braid_move_curves,
    canonicalize,
    fan,
    free_reduce,
    is_simple,
    loop_of_curve,
    mutation_word_map,
    reflection_of_curve,
    root_of_curve,
    spiral,
)
from test_matrix import mat_pow

PRESETS = ["A2", "B2", "A3", "B3", "universal:2:2", "universal:3:2"]

# Shortest canonical words that fail the simplicity certificate for three
# punctures; found by exhaustive scan of all canonical words of length <= 4
# against the bounded orbit search (all shorter words certify simple).
SHORTEST_NON_SIMPLE_N3 = (((2, 1), 3), ((2, 3), 1))


def _random_word(rng, n, length):
    return tuple(rng.randint(1, n) for _ in range(length))


def _random_tuple(rng, n, moves=6):
    curves = fan(n)
    for _ in range(moves):
        i = rng.randint(1, n - 1)
        curves = braid_move_curves(curves, i, inverse=rng.random() < 0.5)
    return curves


def test_canonicalize_examples():
    assert canonicalize((2, 3), 3) == CurveWord((2,), 3, -1)
    assert canonicalize((1, 1, 2), 3) == CurveWord((2,), 3, 1)
    assert canonicalize((3,), 3) == CurveWord((), 3, -1)


def test_canonicalize_idempotent_and_value_preserving():
    rng = random.Random(7)
    A3 = preset("A3")
    for _ in range(200):
        raw = _random_word(rng, 3, rng.randint(0, 8))
        end = rng.randint(1, 3)
        cw = canonicalize(raw, end)
        again = canonicalize(cw.letters, cw.end, cw.sign)
        assert again == cw
        # Signed evaluation of the canonical word equals the raw evaluation.
        v = weyl.simple_root(3, end)
        for letter in reversed(raw):
            v = matvec(weyl.simple_reflection(A3, letter).matrix, v)
        assert root_of_curve(cw, A3) == v


def test_curveword_rejects_non_canonical():
    with pytest.raises(ValueError):
        CurveWord((1, 1), 2)
    with pytest.raises(ValueError):
        CurveWord((1, 2), 2)
    with pytest.raises(ValueError):
        CurveWord((0,), 2)
    with pytest.raises(ValueError):
        CurveWord((1,), 2, sign=0)


def test_free_reduce():
    assert free_reduce((1, 1)) == ()
    assert free_reduce((1, 2, 2, 1, 3)) == (3,)
    assert free_reduce(()) == ()


def test_loop_of_curve_examples():
    assert loop_of_curve(CurveWord((), 1)) == (1,)
    assert loop_of_curve(CurveWord((2,), 3)) == (2, 3, 2)
    assert loop_of_curve(CurveWord((1, 2), 3)) == (1, 2, 3, 2, 1)


def test_loop_is_odd_palindrome():
    rng = random.Random(8)
    for _ in range(100):
        cw = canonicalize(_random_word(rng, 4, rng.randint(0, 7)), rng.randint(1, 4))
        loop = loop_of_curve(cw)
        assert len(loop) % 2 == 1
        assert loop == tuple(reversed(loop))
        assert free_reduce(loop) == loop


def test_root_of_curve_examples():
    A3 = preset("A3")
    assert root_of_curve(CurveWord((2,), 3), A3) == (0, 1, 1)
    assert root_of_curve(CurveWord((), 2), A3) == (0, 1, 0)
    assert root_of_curve(CurveWord((2,), 3, -1), A3) == (0, -1, -1)


def test_reflection_of_curve_examples():
    A3 = preset("A3")
    s2 = weyl.simple_reflection(A3, 2).matrix
    s3 = weyl.simple_reflection(A3, 3).matrix
    assert reflection_of_curve(CurveWord((), 2), A3).matrix == s2
    expected = matmul(matmul(s2, s3), s2)
    assert reflection_of_curve(CurveWord((2,), 3), A3).matrix == expected


def test_reflection_matches_root_reflection():
    rng = random.Random(9)
    for name in PRESETS:
        C = preset(name)
        for _ in range(200):
            cw = canonicalize(
                _random_word(rng, C.n, rng.randint(0, 6)), rng.randint(1, C.n)
            )
            t = reflection_of_curve(cw, C)
            beta = weyl.positive_part(root_of_curve(cw, C))
            assert t == weyl.reflection_for_root(C, beta)


def test_fan_presents_canonical_factorization():
    A3 = preset("A3")
    curves = fan(3)
    assert [cw.letters for cw in curves] == [(), (), ()]
    assert [loop_of_curve(cw) for cw in curves] == [(1,), (2,), (3,)]
    parts = tuple(reflection_of_curve(cw, A3) for cw in curves)
    assert parts == hurwitz.canonical_factorization(A3).parts


def test_braid_move_on_fan_pair():
    moved = braid_move_curves(fan(2), 1)
    assert moved == (CurveWord((1,), 2), CurveWord((), 1))
    A2 = preset("A2")
    assert root_of_curve(moved[0], A2) == (1, 1)  # s1 alpha2


def test_braid_move_curves_roundtrip():
    rng = random.Random(10)
    for n in (2, 3, 4):
        for _ in range(30):
            curves = _random_tuple(rng, n)
            for i in range(1, n):
                assert braid_move_curves(
                    braid_move_curves(curves, i), i, inverse=True
                ) == curves


def test_braid_move_curves_commutes_with_loop_evaluation():
    rng = random.Random(11)
    for name in PRESETS:
        C = preset(name)
        for _ in range(100):
            curves = _random_tuple(rng, C.n, moves=5)
            factorization = hurwitz.Factorization(
                tuple(reflection_of_curve(cw, C) for cw in curves),
                weyl.coxeter_element(C),
            )
            i = rng.randint(1, C.n - 1)
            inverse = rng.random() < 0.5
            moved_words = braid_move_curves(curves, i, inverse)
            moved_parts = hurwitz.braid_move(factorization, i, inverse).parts
            assert tuple(
                reflection_of_curve(cw, C) for cw in moved_words
            ) == moved_parts


def test_product_invariant_under_moves():
    rng = random.Random(12)
    for name in PRESETS:
        C = preset(name)
        c = weyl.coxeter_element(C)
        for _ in range(100):
            curves = _random_tuple(rng, C.n, moves=rng.randint(0, 10))
            product = weyl.identity(C.n)
            for cw in curves:
                product = matmul(product, reflection_of_curve(cw, C).matrix)
            assert product == c


def test_spiral_examples():
    A2 = preset("A2")
    sp = spiral(CurveWord((), 1), (1, 2), 1)
    assert sp == CurveWord((1, 2), 1)
    assert root_of_curve(sp, A2) == (0, 1)  # c alpha1 = alpha2
    cw = CurveWord((2,), 3)
    assert spiral(cw, (1, 2, 3), 0) == cw
    assert spiral(spiral(cw, (1, 2, 3), 1), (1, 2, 3), -1) == cw


def test_spiral_realizes_coxeter_powers():
    rng = random.Random(13)
    for name in PRESETS:
        C = preset(name)
        c = weyl.coxeter_element(C)
        for _ in range(100):
            cw = canonicalize(
                _random_word(rng, C.n, rng.randint(0, 5)), rng.randint(1, C.n)
            )
            k = rng.randint(-3, 3)
            expected = root_of_curve(cw, C)
            expected = matvec(mat_pow(c, k), expected)
            order = tuple(range(1, C.n + 1))
            assert root_of_curve(spiral(cw, order, k), C) == expected


def test_mutation_word_map_triple():
    order = (1, 2, 3)
    beta_word = CurveWord((2, 3), 2)
    assert mutation_word_map(beta_word, "source", order) == CurveWord((1, 2, 3), 2)
    assert mutation_word_map(beta_word, "sink", order) == CurveWord((3, 2, 3), 2)
    with pytest.raises(ValueError):
        mutation_word_map(beta_word, "left", order)


def test_mutation_word_map_involution_on_roots():
    A3 = preset("A3")
    order = (1, 2, 3)
    cw = CurveWord((2, 3), 2)
    twice = mutation_word_map(mutation_word_map(cw, "source", order), "source", order)
    assert root_of_curve(twice, A3) == root_of_curve(cw, A3)


def test_is_simple_fan_and_example():
    for cw in fan(3):
        assert is_simple(cw, 3) is SimpleVerdict.YES
    assert is_simple(CurveWord((2,), 3), 3) is SimpleVerdict.YES


def test_is_simple_shortest_failures_frozen():
    # Regression fixture: exhaustive scan over canonical words of length <= 2.
    failures = []
    for length in (0, 1, 2):
        for letters in itertools.product((1, 2, 3), repeat=length):
            if any(a == b for a, b in zip(letters, letters[1:])):
                continue
            for end in (1, 2, 3):
                if letters and letters[-1] == end:
                    continue
                if is_simple(CurveWord(letters, end), 3) is not SimpleVerdict.YES:
                    failures.append((letters, end))
    assert tuple(failures) == SHORTEST_NON_SIMPLE_N3
    for letters, end in SHORTEST_NON_SIMPLE_N3:
        assert is_simple(CurveWord(letters, end), 3) is SimpleVerdict.NO_WITHIN_BOUND


def test_is_simple_stable_under_braid_orbit():
    rng = random.Random(14)
    for _ in range(25):
        curves = _random_tuple(rng, 3, moves=rng.randint(0, 6))
        for cw in curves:
            assert is_simple(cw, 3) is SimpleVerdict.YES


def test_is_simple_range_check():
    with pytest.raises(ValueError):
        is_simple(CurveWord((4,), 1), 3)


def test_apply_braid_word_curves_matches_single_moves():
    curves = fan(3)
    assert apply_braid_word_curves(curves, ()) == curves
    assert apply_braid_word_curves(curves, (1, -2)) == braid_move_curves(
        braid_move_curves(curves, 1), 2, inverse=True
    )
