import itertools
import random
from math import gcd

import pytest

from schur_scope import cartan, weyl
from schur_scope._matrix import det, rank
from schur_scope.cartan import (
    CartanError,
    CartanMatrix,
    TypeClass,
    classify_type,
    parse_cartan,
    preset,
    submatrix,
    symmetrized,
    symmetrizer,
)
from schur_scope.weyl import coxeter_number

FINITE_PRESETS_RANK_LE_4 = [
    "A2", "B2", "C2", "G2", "A3", "B3", "C3", "D3", "A4", "B4", "C4", "D4", "F4",
]


def coxeter_exponent(C, i, j):
    """Order m_ij of s_i s_j, keyed on a_ij a_ji; None means infinite.  The
    stabilizer words of the braid tests import it from here."""
    if i == j:
        raise ValueError("coxeter_exponent requires i != j")
    return {0: 2, 1: 3, 2: 4, 3: 6}.get(C.entry(i, j) * C.entry(j, i))


def test_parse_a2():
    assert parse_cartan("2 / 2 -1 / -1 2").entries == ((2, -1), (-1, 2))


def test_parse_b2_convention():
    assert parse_cartan("2 / 2 -2 / -1 2").entries == ((2, -2), (-1, 2))


def test_parse_diagonal_error():
    with pytest.raises(CartanError) as info:
        parse_cartan("2 / 2 -1 / -1 1")
    assert info.value.kind == "diagonal"


def test_parse_sign_error():
    with pytest.raises(CartanError) as info:
        parse_cartan("2 / 2 1 / -1 2")
    assert info.value.kind == "sign"


def test_parse_zero_asymmetry_error():
    with pytest.raises(CartanError) as info:
        parse_cartan("2 / 2 0 / -1 2")
    assert info.value.kind == "sign"


def test_parse_symmetrizability_error():
    # A 3-cycle with inconsistent edge ratios admits no positive symmetrizer.
    with pytest.raises(CartanError) as info:
        parse_cartan("3 / 2 -1 -2 / -2 2 -1 / -1 -2 2")
    assert info.value.kind == "symmetrizability"


def test_parse_irreducibility_error():
    with pytest.raises(CartanError) as info:
        parse_cartan("4 / 2 -1 0 0 / -1 2 0 0 / 0 0 2 -1 / 0 0 -1 2")
    assert info.value.kind == "irreducibility"


def test_parse_format_errors():
    for text in ("", "x", "2 / 2 -1", "-1 / 2"):
        with pytest.raises(CartanError) as info:
            parse_cartan(text)
        assert info.value.kind == "format"


def test_symmetrizer_symmetric_gives_ones():
    assert symmetrizer(preset("A2")) == (1, 1)
    assert symmetrizer(preset("A4")) == (1, 1, 1, 1)


def test_symmetrizer_b2():
    assert symmetrizer(CartanMatrix(((2, -2), (-1, 2)))) == (1, 2)


def test_symmetrizer_g2():
    assert symmetrizer(CartanMatrix(((2, -1), (-3, 2)))) == (3, 1)


def test_coxeter_exponent_table():
    # m keyed on a_ij a_ji: 0 -> 2, 1 -> 3, 2 -> 4, 3 -> 6, >= 4 -> unbounded
    assert coxeter_exponent(preset("A3"), 1, 3) == 2
    assert coxeter_exponent(preset("A2"), 1, 2) == 3
    assert coxeter_exponent(preset("B2"), 1, 2) == 4
    assert coxeter_exponent(preset("G2"), 1, 2) == 6
    assert coxeter_exponent(preset("universal:2:2"), 1, 2) is None
    assert coxeter_exponent(preset("universal:2:3"), 1, 2) is None


def test_coxeter_exponent_rejects_equal_indices():
    with pytest.raises(ValueError):
        coxeter_exponent(preset("A2"), 1, 1)


def test_coxeter_exponent_symmetric():
    for name in ("A3", "B3", "G2", "F4"):
        C = preset(name)
        for i in range(1, C.n + 1):
            for j in range(1, C.n + 1):
                if i != j:
                    assert coxeter_exponent(C, i, j) == coxeter_exponent(C, j, i)


def test_classify_examples():
    assert classify_type(preset("A3")) is TypeClass.FINITE
    assert classify_type(preset("affine-A2")) is TypeClass.AFFINE
    assert classify_type(preset("universal:3:2")) is TypeClass.INDEFINITE


def test_classify_universal_grid():
    for k in range(2, 5):
        for m in range(2, 5):
            expected = TypeClass.AFFINE if (k, m) == (2, 2) else TypeClass.INDEFINITE
            assert classify_type(preset(f"universal:{k}:{m}")) is expected


def test_coxeter_numbers():
    expected = {"A2": 3, "B2": 4, "G2": 6, "A3": 4, "B3": 6, "A4": 5, "D4": 6, "F4": 12}
    for name, h in expected.items():
        assert coxeter_number(preset(name)) == h


def test_coxeter_number_rejects_non_finite():
    with pytest.raises(ValueError):
        coxeter_number(preset("affine-A1"))


def test_preset_values():
    assert preset("A2").entries == ((2, -1), (-1, 2))
    assert preset("universal:2:2").entries == ((2, -2), (-2, 2))
    assert preset("affine-A1").entries == preset("universal:2:2").entries
    assert preset("b2").entries == ((2, -2), (-1, 2))  # case-insensitive
    assert preset("C2").entries == ((2, -1), (-2, 2))
    assert preset("affine-A2").entries == ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))


def test_preset_errors():
    for bad in ("H3", "A0", "universal:2:1", "universal:x:2", "Q5"):
        with pytest.raises(CartanError):
            preset(bad)


def test_preset_d4_shape():
    D4 = preset("D4")
    edges = {
        (i, j)
        for i in range(4)
        for j in range(4)
        if i < j and D4.entries[i][j] != 0
    }
    assert edges == {(0, 1), (1, 2), (1, 3)}


def test_preset_e_series_rank_and_type():
    for name, order_h in (("E6", 12), ("E7", 18), ("E8", 30)):
        C = preset(name)
        assert classify_type(C) is TypeClass.FINITE
        assert coxeter_number(C) == order_h


def _random_valid_cartan(rng: random.Random) -> CartanMatrix:
    n = rng.randint(2, 4)
    d = [rng.randint(1, 3) for _ in range(n)]
    entries = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    edges = {(i, i + 1) for i in range(n - 1)}
    for i in range(n):
        for j in range(i + 2, n):
            if rng.random() < 0.4:
                edges.add((i, j))
    for i, j in edges:
        e = rng.randint(1, 2)
        g = gcd(d[i], d[j])
        entries[i][j] = -e * d[j] // g
        entries[j][i] = -e * d[i] // g
    return CartanMatrix(tuple(tuple(row) for row in entries))


def test_symmetrizer_identity_on_random_matrices():
    rng = random.Random(20260809)
    for _ in range(100):
        C = _random_valid_cartan(rng)
        d = symmetrizer(C)
        assert all(x > 0 for x in d)
        for i in range(C.n):
            for j in range(C.n):
                assert d[i] * C.entries[i][j] == d[j] * C.entries[j][i]


def test_symmetrizer_identity_on_presets():
    for name in FINITE_PRESETS_RANK_LE_4 + ["affine-A2", "universal:3:2"]:
        C = preset(name)
        d = symmetrizer(C)
        for i in range(C.n):
            for j in range(C.n):
                assert d[i] * C.entries[i][j] == d[j] * C.entries[j][i]


def test_rank_times_h_counts_real_roots():
    for name in FINITE_PRESETS_RANK_LE_4:
        C = preset(name)
        roots = weyl.enumerate_real_roots(C, 1)
        assert len(roots) == C.n * coxeter_number(C), name


def test_parse_fuzzing_raises_only_tagged_errors():
    rng = random.Random(77)
    alphabet = "0123456789-/ 2x\n"
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        try:
            parse_cartan(text)
        except CartanError:
            pass  # every rejection carries a named invariant


def test_submatrix_allows_disconnected():
    D4 = preset("D4")
    sub = submatrix(D4, (3, 4))  # two vertices with no edge between them
    assert sub.entries == ((2, 0), (0, 2))
    assert classify_type(sub) is TypeClass.FINITE
    assert coxeter_number(sub) == 2


def _minor_walk_classify(C: CartanMatrix) -> TypeClass:
    """Reference: positive leading minors mean finite; otherwise every
    principal minor is tested for positive semidefiniteness (2^n of them)."""
    s = symmetrized(C)
    n = C.n
    leading = [
        det(tuple(tuple(s[i][j] for j in range(k)) for i in range(k)))
        for k in range(1, n + 1)
    ]
    if all(m > 0 for m in leading):
        return TypeClass.FINITE
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            if det(tuple(tuple(s[i][j] for j in subset) for i in subset)) < 0:
                return TypeClass.INDEFINITE
    return TypeClass.AFFINE if rank(s) == n - 1 else TypeClass.INDEFINITE


def _random_symmetrizable(rng: random.Random) -> CartanMatrix:
    """Rank 1..8, built without the connectivity check, so often reducible."""
    n = rng.randint(1, 8)
    d = [rng.choice((1, 1, 1, 2, 3)) for _ in range(n)]
    density = rng.choice((0.15, 0.3, 0.5))
    entries = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < density:
            e = rng.choice((1, 1, 1, 2))
            g = gcd(d[i], d[j])
            entries[i][j] = -e * d[j] // g
            entries[j][i] = -e * d[i] // g
    return CartanMatrix(tuple(tuple(row) for row in entries))


def _minor_walk_presets():
    names = [f"A{n}" for n in range(1, 9)]
    names += [f"{f}{n}" for f in "BC" for n in range(2, 9)]
    names += [f"D{n}" for n in range(3, 9)]
    names += ["E6", "E7", "E8", "F4", "G2"]
    names += [f"affine-A{n}" for n in range(1, 11)]
    names += [f"universal:{k}:{m}" for k in range(1, 9) for m in (2, 3, 4)]
    return names


@pytest.mark.parametrize("name", _minor_walk_presets())
def test_classify_matches_minor_walk_on_presets(name):
    C = preset(name)
    assert classify_type(C) is _minor_walk_classify(C)


def test_classify_matches_minor_walk_on_random_matrices():
    rng = random.Random(20261018)
    seen = set()
    for _ in range(400):
        C = _random_symmetrizable(rng)
        expected = _minor_walk_classify(C)
        assert classify_type(C) is expected, C.entries
        seen.add(expected)
    assert seen == set(TypeClass)


def test_classify_reducible_by_nullity():
    a1, affine_a1 = ((2,),), ((2, -2), (-2, 2))

    def block_sum(*blocks):
        n = sum(len(b) for b in blocks)
        entries = [[0] * n for _ in range(n)]
        offset = 0
        for b in blocks:
            for i, row in enumerate(b):
                entries[offset + i][offset : offset + len(b)] = row
            offset += len(b)
        return CartanMatrix(tuple(tuple(row) for row in entries))

    expected = {
        (a1, a1): TypeClass.FINITE,
        (a1, affine_a1): TypeClass.AFFINE,
        (affine_a1, affine_a1): TypeClass.INDEFINITE,  # nullity 2
        (affine_a1, a1, affine_a1): TypeClass.INDEFINITE,
    }
    for blocks, kind in expected.items():
        C = block_sum(*blocks)
        assert classify_type(C) is kind is _minor_walk_classify(C)


def test_classify_large_rank_without_minor_walk():
    # 2^31 principal minors would never finish; one elimination is immediate.
    assert classify_type(preset("affine-A30")) is TypeClass.AFFINE
    assert classify_type(preset("universal:30:2")) is TypeClass.INDEFINITE
