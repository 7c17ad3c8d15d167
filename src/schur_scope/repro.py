"""Named worked examples with frozen expected values.

Each fixture recomputes a small scenario from scratch and diffs the result
against the checked-in expectation; a nonzero diff is a regression.  Fixture
payloads are plain JSON-serializable dicts so reproduction is byte-stable.
"""

from __future__ import annotations

from collections import namedtuple

from . import cartan, curves, hurwitz, schur
from .curves import CurveWord, canonicalize
from .schur import Orientation


def _curve_payload(cw: CurveWord, C: cartan.CartanMatrix) -> dict:
    return {
        "letters": list(cw.letters),
        "end": cw.end,
        "sign": cw.sign,
        "root": list(curves.root_of_curve(cw, C)),
        "loop": list(curves.loop_of_curve(cw)),
    }


def _fixture_disc_curve() -> dict:
    """Three-punctured disc: the curve crossing ray 2 into puncture 3, and its
    isotopic variant that winds once around the endpoint, flipping the sign."""
    C = cartan.preset("A3")
    main = CurveWord((2,), 3)
    wound = canonicalize((2, 3), 3)
    reflection = curves.reflection_of_curve(main, C)
    return {
        "curve": _curve_payload(main, C),
        "reflection_root": list(reflection.root),
        "winding_variant": {
            "input_letters": [2, 3],
            **_curve_payload(wound, C),
        },
    }


def _fixture_mutation_triple() -> dict:
    """Rank-3 session, c = s1 s2 s3: one root's words and verdicts across the
    original, source-mutated and sink-mutated orientations."""
    C = cartan.preset("A3")
    o = Orientation.default(C)
    word = CurveWord((2, 3), 2)
    entries = {}
    for key, orientation, cw in (
        ("original", o, word),
        ("source_mutated", schur.mutate(o, "source"),
         curves.mutation_word_map(word, "source", o.order)),
        ("sink_mutated", schur.mutate(o, "sink"),
         curves.mutation_word_map(word, "sink", o.order)),
    ):
        root = curves.root_of_curve(cw, C)
        verdict = schur.is_schur_root(root, orientation)
        entries[key] = {
            "order": list(orientation.order),
            "letters": list(cw.letters),
            "end": cw.end,
            "root": list(root),
            "verdict": verdict.answer.value,
        }
    return entries


def _fixture_count_table() -> dict:
    """Orbit sizes by breadth-first search, checked against the index formula."""
    table = {}
    for name in ("A2", "B2", "G2", "A3", "B3", "A4", "D4"):
        C = cartan.preset(name)
        orbit = hurwitz._full_orbit(C, None)
        formula = hurwitz.factorization_count_formula(C)
        if len(orbit) != formula:
            raise ArithmeticError(
                f"{name} orbit has {len(orbit)} factorizations, the formula gives {formula}"
            )
        table[name] = len(orbit)
    return table


_FIXTURES = {
    "example-2.6": _fixture_disc_curve,
    "example-3.6": _fixture_mutation_triple,
    "table-4": _fixture_count_table,
}

EXPECTED: dict[str, dict] = {
    "example-2.6": {
        "curve": {
            "letters": [2],
            "end": 3,
            "sign": 1,
            "root": [0, 1, 1],
            "loop": [2, 3, 2],
        },
        "reflection_root": [0, 1, 1],
        "winding_variant": {
            "input_letters": [2, 3],
            "letters": [2],
            "end": 3,
            "sign": -1,
            "root": [0, -1, -1],
            "loop": [2, 3, 2],
        },
    },
    "example-3.6": {
        "original": {
            "order": [1, 2, 3],
            "letters": [2, 3],
            "end": 2,
            "root": [0, 0, 1],
            "verdict": "yes",
        },
        "source_mutated": {
            "order": [2, 3, 1],
            "letters": [1, 2, 3],
            "end": 2,
            "root": [0, 0, 1],
            "verdict": "yes",
        },
        "sink_mutated": {
            "order": [3, 1, 2],
            "letters": [3, 2, 3],
            "end": 2,
            "root": [0, 0, -1],
            "verdict": "yes",
        },
    },
    "table-4": {
        "A2": 3,
        "B2": 4,
        "G2": 6,
        "A3": 16,
        "B3": 27,
        "A4": 125,
        "D4": 162,
    },
}


def fixture_names() -> tuple[str, ...]:
    return tuple(sorted(_FIXTURES))


def _diff(path: str, computed, expected, out: list[str]) -> None:
    if isinstance(expected, dict) and isinstance(computed, dict):
        for key in sorted(set(expected) | set(computed)):
            if key not in expected:
                out.append(f"{path}.{key}: unexpected {computed[key]!r}")
            elif key not in computed:
                out.append(f"{path}.{key}: missing (expected {expected[key]!r})")
            else:
                _diff(f"{path}.{key}", computed[key], expected[key], out)
    elif computed != expected:
        out.append(f"{path}: computed {computed!r} != expected {expected!r}")


class ReproResult(namedtuple("ReproResult", "fixture ok computed differences")):
    """A fixture's recomputed payload and its differences from EXPECTED."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "fixture": self.fixture,
            "ok": self.ok,
            "computed": self.computed,
            "differences": list(self.differences),
        }


def reproduce(fixture: str) -> ReproResult:
    if fixture not in _FIXTURES:
        raise ValueError(
            f"unknown fixture {fixture!r}; available: {', '.join(fixture_names())}"
        )
    computed = _FIXTURES[fixture]()
    differences: list[str] = []
    _diff(fixture, computed, EXPECTED[fixture], differences)
    return ReproResult(fixture, not differences, computed, tuple(differences))
