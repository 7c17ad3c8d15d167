"""Randomized invariant suites, seeded for reproducibility.

Each suite runs at least 100 cases per preset and can be invoked standalone
with `pytest tests/test_properties.py`.
"""

import random

from schur_scope import hurwitz, weyl
from schur_scope._matrix import matmul, matvec
from schur_scope.cartan import preset
from schur_scope.curves import (
    braid_move_curves,
    canonicalize,
    fan,
    loop_of_curve,
    reflection_of_curve,
    root_of_curve,
    spiral,
)
from test_matrix import mat_pow

PRESETS = ["A2", "B2", "G2", "A3", "B3", "universal:2:2", "universal:3:2", "affine-A2"]
CASES = 100


def _random_reachable(rng, n, max_moves=10):
    curves = fan(n)
    for _ in range(rng.randint(0, max_moves)):
        curves = braid_move_curves(
            curves, rng.randint(1, n - 1), inverse=rng.random() < 0.5
        )
    return curves


def test_word_model_commutes_with_matrix_action():
    rng = random.Random(100)
    for name in PRESETS:
        C = preset(name)
        for _ in range(CASES):
            tuple_words = _random_reachable(rng, C.n, max_moves=6)
            parts = tuple(reflection_of_curve(cw, C) for cw in tuple_words)
            factorization = hurwitz.Factorization(parts, weyl.coxeter_element(C))
            i = rng.randint(1, C.n - 1)
            inverse = rng.random() < 0.5
            via_words = tuple(
                reflection_of_curve(cw, C)
                for cw in braid_move_curves(tuple_words, i, inverse)
            )
            letter = -i if inverse else i
            via_matrices = hurwitz.apply_braid_word(C, factorization, (letter,)).parts
            assert via_words == via_matrices


def test_loop_product_invariant_on_reachable_tuples():
    rng = random.Random(101)
    for name in PRESETS:
        C = preset(name)
        c = weyl.coxeter_element(C)
        for _ in range(CASES):
            tuple_words = _random_reachable(rng, C.n)
            product = weyl.identity(C.n)
            for cw in tuple_words:
                product = matmul(product, reflection_of_curve(cw, C).matrix)
            assert product == c


def test_canonicalize_idempotent():
    rng = random.Random(102)
    for name in PRESETS:
        C = preset(name)
        for _ in range(CASES):
            raw = tuple(rng.randint(1, C.n) for _ in range(rng.randint(0, 10)))
            end = rng.randint(1, C.n)
            cw = canonicalize(raw, end)
            assert canonicalize(cw.letters, cw.end, cw.sign) == cw
            assert not any(a == b for a, b in zip(cw.letters, cw.letters[1:]))
            assert not cw.letters or cw.letters[-1] != cw.end


def test_canonicalize_preserves_signed_evaluation():
    rng = random.Random(103)
    for name in PRESETS:
        C = preset(name)
        for _ in range(CASES):
            raw = tuple(rng.randint(1, C.n) for _ in range(rng.randint(0, 10)))
            end = rng.randint(1, C.n)
            value = weyl.simple_root(C.n, end)
            for letter in reversed(raw):
                value = matvec(weyl.simple_reflection(C, letter).matrix, value)
            assert root_of_curve(canonicalize(raw, end), C) == value


def test_spiral_agrees_with_coxeter_power():
    rng = random.Random(104)
    for name in PRESETS:
        C = preset(name)
        order = tuple(range(1, C.n + 1))
        c = weyl.coxeter_element(C, order)
        for _ in range(CASES):
            raw = tuple(rng.randint(1, C.n) for _ in range(rng.randint(0, 6)))
            cw = canonicalize(raw, rng.randint(1, C.n))
            k = rng.randint(-3, 3)
            assert root_of_curve(spiral(cw, order, k), C) == matvec(
                mat_pow(c, k), root_of_curve(cw, C)
            )


def test_braid_move_transforms_signed_roots():
    rng = random.Random(106)
    for name in PRESETS:
        C = preset(name)
        for _ in range(CASES):
            tuple_words = _random_reachable(rng, C.n, max_moves=5)
            i = rng.randint(1, C.n - 1)
            moved = braid_move_curves(tuple_words, i)
            acting = reflection_of_curve(tuple_words[i - 1], C).matrix
            expected = matvec(acting, root_of_curve(tuple_words[i], C))
            assert root_of_curve(moved[i - 1], C) == expected


def test_loop_words_transform_like_braid_moves():
    rng = random.Random(105)
    for name in PRESETS:
        C = preset(name)
        for _ in range(CASES):
            tuple_words = _random_reachable(rng, C.n, max_moves=5)
            i = rng.randint(1, C.n - 1)
            moved = braid_move_curves(tuple_words, i)
            # The displaced slot keeps its word verbatim.
            assert moved[i] == tuple_words[i - 1]
            # The conjugated slot evaluates to a b a^-1 of the old loops.
            a = reflection_of_curve(tuple_words[i - 1], C).matrix
            b = reflection_of_curve(tuple_words[i], C).matrix
            expected = matmul(matmul(a, b), a)
            assert reflection_of_curve(moved[i - 1], C).matrix == expected
            assert loop_of_curve(moved[i - 1]) == tuple(
                reversed(loop_of_curve(moved[i - 1]))
            )
