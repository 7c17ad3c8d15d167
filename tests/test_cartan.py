"""Cartan matrices: parsing, presets, the integer symmetrizer and the
integer classification, the last two against the Fraction code they
replaced, kept here as the references."""

import itertools
import random
from fractions import Fraction
from math import gcd, lcm

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
    symmetrized,
    symmetrizer,
)
from schur_scope.weyl import coxeter_number

FINITE_PRESETS_RANK_LE_4 = [
    "A2", "B2", "C2", "G2", "A3", "B3", "C3", "D3", "A4", "B4", "C4", "D4", "F4",
]


def submatrix(C, indices):
    """C restricted to the given 1-based vertices, which may be reducible.
    The reducible-diagram tests of the Cartan, braid and Weyl modules
    import it from here."""
    return CartanMatrix(tuple(tuple(C.entries[i - 1][j - 1] for j in indices) for i in indices))


def coxeter_exponent(C, i, j):
    """Order m_ij of s_i s_j, keyed on a_ij a_ji; None means infinite.  The
    stabilizer words of the braid tests import it from here."""
    if i == j:
        raise ValueError("coxeter_exponent requires i != j")
    return {0: 2, 1: 3, 2: 4, 3: 6}.get(C.entries[i - 1][j - 1] * C.entries[j - 1][i - 1])


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
    # A universal label has exactly three fields: universal, rank and weight.
    # Every number is unsigned ASCII digits, with no space inside the label.
    for bad in ("H3", "A0", "universal:2:1", "universal:x:2", "Q5", "universal:3",
                "universal:3:2:junk", "universal:3:2:", "universal:3:2:2",
                "universal:+3:2", "universal: 3:2", "universal:3:\u0662",
                "affine-A+2", "affine-A 2", "A\u0663"):
        with pytest.raises(CartanError) as caught:
            preset(bad)
        assert caught.value.kind == "preset", bad
    # A sign is malformed like any other character, a minus too.
    with pytest.raises(CartanError, match="malformed universal preset 'universal:-1:2'"):
        preset("universal:-1:2")
    with pytest.raises(CartanError, match="unknown preset 'affine-A\\+2'"):
        preset("affine-A+2")


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


def block_sum(*blocks):
    n = sum(len(b) for b in blocks)
    entries = [[0] * n for _ in range(n)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b):
            entries[offset + i][offset : offset + len(b)] = row
        offset += len(b)
    return CartanMatrix(tuple(tuple(row) for row in entries))


def test_classify_reducible_by_nullity():
    a1, affine_a1 = ((2,),), ((2, -2), (-2, 2))
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


def _fraction_symmetrizer(a):
    """Reference: ratios propagated as Fractions along graph edges, then each
    component scaled by the lcm of its denominators and divided by the gcd."""
    n = len(a)
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        component = [start]
        frontier = [start]
        while frontier:
            i = frontier.pop()
            for j in range(n):
                if i == j or a[i][j] == 0:
                    continue
                required = d[i] * Fraction(a[i][j], a[j][i])
                if d[j] is None:
                    d[j] = required
                    component.append(j)
                    frontier.append(j)
                elif d[j] != required:
                    raise CartanError("symmetrizability", "no positive symmetrizer exists")
        scale = lcm(*(d[i].denominator for i in component))
        scaled = [int(d[i] * scale) for i in component]
        g = gcd(*scaled)
        for i, x in zip(component, scaled):
            d[i] = Fraction(x, g)
    result = tuple(int(x) for x in d)
    for i in range(n):
        for j in range(n):
            if result[i] * a[i][j] != result[j] * a[j][i]:
                raise CartanError("symmetrizability", "no positive symmetrizer exists")
    return result


def _fraction_classify(C):
    """Reference: the same diagonal-pivot elimination over Fractions."""
    a = [[Fraction(x) for x in row] for row in symmetrized(C)]
    nullity = 0
    for k, row in enumerate(a):
        pivot = row[k]
        if pivot < 0 or (pivot == 0 and any(row[k + 1 :])):
            return TypeClass.INDEFINITE
        if pivot == 0:
            nullity += 1
            continue
        for other in a[k + 1 :]:
            factor = other[k] / pivot
            for j in range(k + 1, len(a)):
                other[j] -= factor * row[j]
    return {0: TypeClass.FINITE, 1: TypeClass.AFFINE}.get(nullity, TypeClass.INDEFINITE)


def _random_rank_2_to_6(rng: random.Random):
    """Entries of a sign-valid matrix of rank 2..6.  Most are symmetrizable by
    construction from a random d; some get one edge with a random ratio,
    which usually breaks symmetrizability on a cycle."""
    n = rng.randint(2, 6)
    d = [rng.choice((1, 1, 2, 3, 4, 6)) for _ in range(n)]
    density = rng.choice((0.3, 0.5, 0.8))
    entries = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < density:
            e = rng.choice((1, 1, 1, 2))
            g = gcd(d[i], d[j])
            entries[i][j] = -e * d[j] // g
            entries[j][i] = -e * d[i] // g
    if rng.random() < 0.2:
        i, j = rng.sample(range(n), 2)
        entries[i][j], entries[j][i] = -rng.randint(1, 4), -rng.randint(1, 4)
    return tuple(tuple(row) for row in entries)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except CartanError as exc:
        return (exc.kind, str(exc))


def test_integer_symmetrizer_and_classify_match_the_fraction_code_on_presets():
    for name in _minor_walk_presets() + ["affine-A30", "universal:30:2"]:
        C = preset(name)
        assert symmetrizer(C) == _fraction_symmetrizer(C.entries), name
        assert classify_type(C) is _fraction_classify(C), name


def test_integer_symmetrizer_and_classify_match_the_fraction_code_on_random_matrices():
    rng = random.Random(20261019)
    kinds = set()
    refused = 0
    for _ in range(500):
        entries = _random_rank_2_to_6(rng)
        expected = _outcome(_fraction_symmetrizer, entries)
        C = _outcome(CartanMatrix, entries)  # construction runs the symmetrizer
        if isinstance(C, CartanMatrix):
            assert symmetrizer(C) == expected, entries
            kind = classify_type(C)
            assert kind is _fraction_classify(C), entries
            kinds.add(kind)
        else:
            assert C == expected == ("symmetrizability", "no positive symmetrizer exists")
            refused += 1
    assert kinds == set(TypeClass)
    assert 0 < refused < 250


def test_integer_symmetrizer_brings_a_component_over_the_lcm():
    # The ratios to d_1 are 1, a_12 / a_21 = 2/3 and 2/3 * a_23 / a_32 = 2/3,
    # so the component comes over the lcm 3 of their denominators.
    C = CartanMatrix(((2, -2, 0), (-3, 2, -1), (0, -1, 2)))
    assert symmetrizer(C) == _fraction_symmetrizer(C.entries) == (3, 2, 2)


def test_non_symmetrizable_three_cycle_is_refused():
    entries = ((2, -1, -2), (-2, 2, -1), (-1, -2, 2))
    with pytest.raises(CartanError) as info:
        CartanMatrix(entries)
    assert info.value.kind == "symmetrizability"
    assert str(info.value) == "no positive symmetrizer exists"
    with pytest.raises(CartanError):
        _fraction_symmetrizer(entries)


def _stack_components(entries):
    """Reference: the stack walk from each least unvisited vertex that
    cartan.components ran before it used the shared breadth-first walk."""
    n = len(entries)
    found = []
    left = set(range(n))
    while left:
        start = min(left)
        seen = {start}
        frontier = [start]
        while frontier:
            i = frontier.pop()
            for j in range(n):
                if j not in seen and i != j and entries[i][j] != 0:
                    seen.add(j)
                    frontier.append(j)
        found.append(tuple(sorted(seen)))
        left -= seen
    return tuple(found)


def test_components_match_the_stack_walk():
    a1, a2, g2 = ((2,),), preset("A2").entries, preset("G2").entries
    affine_a2 = preset("affine-A2").entries
    assert cartan.components(block_sum(a2, a1, affine_a2).entries) == ((0, 1), (2,), (3, 4, 5))
    rng = random.Random(20261022)
    cases = []
    for _ in range(100):
        blocks = [rng.choice((a1, a2, g2, affine_a2)) for _ in range(rng.randint(1, 4))]
        entries = block_sum(*blocks).entries
        # Relabel the vertices, so that the components interleave.
        order = rng.sample(range(len(entries)), len(entries))
        cases.append(tuple(tuple(entries[i][j] for j in order) for i in order))
    cases += [_random_rank_2_to_6(rng) for _ in range(300)]
    sizes = set()
    for entries in cases:
        found = cartan.components(entries)
        assert found == _stack_components(entries), entries
        sizes.add(len(found))
    assert {1, 2, 3} <= sizes
