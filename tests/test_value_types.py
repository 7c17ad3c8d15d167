"""The contract of the value types: immutable tuples compared and hashed by
value, whose constructors validate with the same errors and messages as
before they were tuples, and whose reprs read as before."""

import pytest

from schur_scope import cli, hurwitz, ncposet, repro, schur, weyl
from schur_scope.cartan import CartanError, CartanMatrix, preset
from schur_scope.curves import CurveWord
from schur_scope.hurwitz import Factorization, PrefixVerdict, SearchOutcome
from schur_scope.weyl import Reflection

B2 = preset("B2")


def _orbit():
    return hurwitz.hurwitz_orbit(B2, hurwitz.canonical_factorization(B2))


def _interval():
    c = weyl.coxeter_element(B2)
    return ncposet.interval_factorization(weyl.identity(2), c, B2)


# Each builder makes a new, equal value on every call; the second of each pair
# builds a different value of the same type.
BUILDERS = {
    "CartanMatrix": (lambda: CartanMatrix(((2, -2), (-1, 2))), lambda: preset("C2")),
    "Reflection": (lambda: Reflection((1, 1), (0, 2)), lambda: Reflection((1, 0), (2, -2))),
    "CurveWord": (lambda: CurveWord((2,), 3, -1), lambda: CurveWord((2,), 3)),
    "Orientation": (lambda: schur.Orientation(B2, (2, 1)), lambda: schur.Orientation(B2, (1, 2))),
    "Factorization": (
        lambda: hurwitz.canonical_factorization(B2),
        lambda: hurwitz.canonical_factorization(B2, (2, 1)),
    ),
    "PrefixVerdict": (
        lambda: hurwitz.is_prefix_of_coxeter((1, 1), B2),
        lambda: PrefixVerdict(hurwitz.Ternary.NO, None),
    ),
    "SearchOutcome": (
        lambda: SearchOutcome(hurwitz.canonical_factorization(B2), True, 1),
        lambda: SearchOutcome(None, True, 3),
    ),
    "ConjectureReport": (
        lambda: schur.verify_conjecture(schur.Orientation.default(B2), 3),
        lambda: schur.verify_conjecture(schur.Orientation.default(B2), 1),
    ),
    "NCPoset": (lambda: ncposet.enumerate_nc(B2), lambda: ncposet.enumerate_nc(B2, (2, 1))),
    "IntervalFactorization": (_interval, lambda: ncposet.interval_factorization(
        weyl.identity(2), weyl.coxeter_element(B2, (2, 1)), B2, (2, 1)
    )),
    "OrbitResult": (_orbit, lambda: hurwitz.hurwitz_orbit(
        B2, hurwitz.canonical_factorization(B2), node_cap=2
    )),
    "ReproResult": (lambda: repro.reproduce("example-2.6"), lambda: repro.reproduce("table-4")),
    "Session": (
        lambda: cli.Session(B2, (1, 2), 10, 20, False),
        lambda: cli.Session(B2, (1, 2), 10, 20, True),
    ),
}
UNHASHABLE = {"ReproResult"}  # its computed payload is a dict
BY_IDENTITY = {"OrbitResult"}  # no command compares two orbits


@pytest.mark.parametrize("name", sorted(set(BUILDERS) - BY_IDENTITY))
def test_equality_and_hash_are_by_value(name):
    build, build_other = BUILDERS[name]
    first, second, other = build(), build(), build_other()
    assert type(first).__name__ == name
    assert first == second and not first != second
    assert first != other
    if name not in UNHASHABLE:
        assert hash(first) == hash(second)
        assert len({first, second, other}) == 2


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_assigning_to_an_attribute_raises(name):
    value = BUILDERS[name][0]()
    field = (value._fields if hasattr(value, "_fields") else value.__slots__)[0]
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = None


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: CartanMatrix(()), CartanError, "matrix must be square and non-empty"),
        (lambda: CartanMatrix(((2, -1), (-1,))), CartanError,
         "matrix must be square and non-empty"),
        (lambda: CartanMatrix(((2, -1), (-1, 1))), CartanError, "a[2][2] must be 2"),
        (lambda: CartanMatrix(((2, 1), (-1, 2))), CartanError,
         "off-diagonal a[1][2] must be <= 0"),
        (lambda: CartanMatrix(((2, 0), (-1, 2))), CartanError, "a[1][2] = 0 requires a[2][1] = 0"),
        (
            lambda: CartanMatrix(((2, -1, -2), (-2, 2, -1), (-1, -2, 2))),
            CartanError,
            "no positive symmetrizer exists",
        ),
        (
            lambda: Reflection((1, 1), (1, 0)),
            ArithmeticError,
            "(1, 0) does not pair (1, 1) to 2; upstream bug",
        ),
        (lambda: CurveWord((), 0), ValueError, "ray and puncture indices are 1-based positives"),
        (lambda: CurveWord((0,), 2), ValueError, "ray and puncture indices are 1-based positives"),
        (lambda: CurveWord((1,), 2, sign=0), ValueError, "sign must be +1 or -1"),
        (lambda: CurveWord((1, 1), 2), ValueError, "letters are not freely reduced"),
        (
            lambda: CurveWord((1, 2), 2),
            ValueError,
            "canonical words do not end with the endpoint letter",
        ),
        (
            lambda: schur.Orientation(preset("A3"), (1, 2)),
            ValueError,
            "(1, 2) is not a permutation of 1..3",
        ),
        (
            lambda: Factorization(
                (weyl.simple_reflection(B2, 2), weyl.simple_reflection(B2, 1)),
                weyl.coxeter_element(B2),
            ),
            ValueError,
            "factorization product differs from the Coxeter element",
        ),
    ],
)
def test_validation_errors_keep_their_class_and_message(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


def test_reprs_read_as_before():
    assert repr(Reflection((1, 0), (2, -2))) == "Reflection(root=(1, 0), coroot=(2, -2))"
    assert repr(CurveWord((2,), 3, -1)) == "CurveWord(letters=(2,), end=3, sign=-1)"
    assert repr(CurveWord((), 1)) == "CurveWord(letters=(), end=1, sign=1)"
    # The deleted labels field, shown as labels=None, is the one change.
    assert repr(B2) == "CartanMatrix(entries=((2, -2), (-1, 2)))"
    assert repr(hurwitz.canonical_factorization(B2)) == (
        "Factorization(parts=(Reflection(root=(1, 0), coroot=(2, -2)), "
        "Reflection(root=(0, 1), coroot=(-1, 2))), coxeter=((1, -2), (1, -1)))"
    )


def test_orbit_result_length_is_its_number_of_root_tuples():
    orbit = _orbit()
    assert len(orbit) == len(orbit.roots) == 4
    c = weyl.coxeter_element(B2)
    assert len({orbit.table.factorization(node, c) for node in orbit.nodes}) == 4
    truncated = BUILDERS["OrbitResult"][1]()
    assert len(truncated) == 2 and not truncated.complete


def test_keyword_construction_and_defaults():
    assert CurveWord(letters=(2,), end=3) == CurveWord((2,), 3, 1)
    assert PrefixVerdict(hurwitz.Ternary.NO, None).exhausted is True
    assert Reflection(root=(1, 0), coroot=(2, -2)).coroot == (2, -2)
    assert CartanMatrix(entries=((2,),)).n == 1
