"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run standalone with `pytest tests/test_acceptance.py -s` to see the lines as
they complete.  Every tolerance is exact equality; stated runtime budgets are
asserted too.
"""

import json
import time

from schur_scope import curves, hurwitz, repro, weyl
from schur_scope.cartan import preset
from schur_scope.curves import CurveWord
from schur_scope.hurwitz import Ternary
from schur_scope.ncposet import enumerate_nc
from schur_scope.schur import (
    Orientation,
    is_schur_root,
    schur_transversal_finite,
    verify_conjecture,
)
from test_hurwitz import full_twist_sides, standard_stabilizer_words
from test_ncposet import maximal_chain_count
from test_schur import c_orbit_census_finite, mutation_verdicts, rank2_closed_forms

ORBIT_TABLE = {"A2": 3, "B2": 4, "G2": 6, "A3": 16, "B3": 27, "A4": 125, "D4": 162}


def _report(number: int, description: str, started: float, budget: float | None):
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.1f}s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s"


def _orientation(name: str) -> Orientation:
    return Orientation.default(preset(name))


def test_criterion_1_factorization_count_table():
    started = time.monotonic()
    for name, expected in ORBIT_TABLE.items():
        C = preset(name)
        orbit = hurwitz.hurwitz_orbit(C, hurwitz.canonical_factorization(C))
        assert orbit.complete, name
        assert len(orbit) == expected, name
        assert hurwitz.factorization_count_formula(C) == expected, name
    _report(1, "orbit sizes match the index formula for all seven types",
            started, 30)


def test_criterion_2_every_orbit_component_is_a_prefix():
    started = time.monotonic()
    for name in ("A2", "B2", "G2", "A3", "B3"):
        C = preset(name)
        start = hurwitz.canonical_factorization(C)
        orbit = hurwitz.hurwitz_orbit(C, start)
        for node in orbit.nodes:
            factorization = orbit.table.factorization(node, start.coxeter)
            for part in factorization.parts:
                verdict = hurwitz.is_prefix_of_coxeter(part.root, C)
                assert verdict.answer is Ternary.YES, (name, part.root)
    _report(2, "every component of every orbit factorization is a prefix",
            started, 60)


def test_criterion_3_conjecture_desk_verification():
    started = time.monotonic()
    for name in ("A2", "A3", "B2", "B3"):
        report = verify_conjecture(_orientation(name), 20)
        assert report.sets_match, name
        assert report.all_positive is not None and not report.unknowns, name
        assert not report.truncated, name
    for name, bound in (("universal:2:2", 12), ("universal:3:2", 8)):
        report = verify_conjecture(_orientation(name), bound)
        assert set(report.prefix_roots) == set(report.curve_roots), name
        assert not report.unknowns, name
        assert not report.truncated, name
    _report(3, "certified prefix roots equal curve-harvested roots at desk scale",
            started, None)


def test_criterion_4_rank2_closed_forms_and_universal_schur():
    started = time.monotonic()
    for name in ("A2", "B2", "G2", "universal:2:2"):
        for moved, closed_form in rank2_closed_forms(_orientation(name), 5):
            assert moved == closed_form, name
    U = _orientation("universal:2:2")
    for beta in weyl.positive_real_roots(U.cartan, 20):
        assert is_schur_root(beta, U).answer is Ternary.YES, beta
    _report(4, "rank-2 closed forms hold and every universal rank-2 root is Schur",
            started, 60)


def test_criterion_5_finite_orbit_census():
    started = time.monotonic()
    for name in ("A2", "A3", "B2", "B3", "D4"):
        o = _orientation(name)
        orbits = c_orbit_census_finite(o)
        h = weyl.coxeter_number(o.cartan)
        assert len(orbits) == o.cartan.n, name
        assert all(len(orbit) == h for orbit in orbits), name
        assert sum(len(orbit) for orbit in orbits) == o.cartan.n * h, name
        covered = set().union(*map(set, orbits))
        assert covered == set(weyl.enumerate_real_roots(o.cartan, 1)), name
        homes = []
        for beta in schur_transversal_finite(o):
            homes.append(next(i for i, orb in enumerate(orbits) if beta in orb))
        assert len(set(homes)) == o.cartan.n, name
    _report(5, "finite types split into n coxeter orbits of size h with "
               "transversal representatives", started, None)


def test_criterion_6_stabilizers_and_full_twist():
    started = time.monotonic()
    assert hurwitz.stabilizer_check((1,) * 3, preset("A2"))
    assert hurwitz.stabilizer_check((1,) * 6, preset("G2"))
    assert hurwitz.stabilizer_check((1, 2) * 12, preset("A3"))
    for name in ("A3", "B3"):
        C = preset(name)
        words, skipped = standard_stabilizer_words(C)
        assert not skipped, name
        for word, label in words:
            assert hurwitz.stabilizer_check(word, C), (name, label)
    for name in ("A3", "universal:3:2"):
        for k in (-2, -1, 1, 2):
            twisted, conjugated = full_twist_sides(preset(name), k)
            assert twisted == conjugated, (name, k)
    _report(6, "subdiagram twists stabilize and full twists conjugate by "
               "coxeter powers", started, None)


def test_criterion_7_mutation_equivalence():
    started = time.monotonic()
    A3 = _orientation("A3")
    for o, height_bound in ((A3, 20), (_orientation("universal:3:2"), 6)):
        for beta in weyl.positive_real_roots(o.cartan, height_bound):
            assert mutation_verdicts(beta, o) == (Ternary.YES, Ternary.YES), beta
    fixture = repro.reproduce("example-3.6")
    assert fixture.ok, fixture.differences
    _report(7, "schur verdicts agree across source mutation, fixture included",
            started, None)


def test_criterion_8_noncrossing_partition_suite():
    started = time.monotonic()
    for name, size in (("A2", 5), ("B2", 6), ("A3", 14), ("A4", 42)):
        poset = enumerate_nc(preset(name))
        assert len(poset.elements) == size, name
    for name, chains in ORBIT_TABLE.items():
        poset = enumerate_nc(preset(name))
        assert maximal_chain_count(poset) == chains, name
    _report(8, "poset sizes by brute force and chain counts equal orbit sizes",
            started, 120)


def test_criterion_9_fixture_reproduction():
    started = time.monotonic()
    for fixture in repro.fixture_names():
        outputs = {
            json.dumps(repro.reproduce(fixture).to_json_dict(), sort_keys=True)
            for _ in range(2)
        }
        assert len(outputs) == 1, fixture
        result = repro.reproduce(fixture)
        assert result.ok, (fixture, result.differences)
    wound = curves.canonicalize((2, 3), 3)
    assert wound.sign == -1
    assert curves.root_of_curve(wound, preset("A3")) == (0, -1, -1)
    _report(9, "worked-example fixtures reproduce byte-stably, including the "
               "negative sign case", started, None)


def test_criterion_10_property_suites():
    started = time.monotonic()
    import test_properties

    suites = [
        test_properties.test_word_model_commutes_with_matrix_action,
        test_properties.test_loop_product_invariant_on_reachable_tuples,
        test_properties.test_canonicalize_idempotent,
        test_properties.test_canonicalize_preserves_signed_evaluation,
        test_properties.test_spiral_agrees_with_coxeter_power,
        test_properties.test_loop_words_transform_like_braid_moves,
    ]
    for suite in suites:
        suite()
    _report(10, "randomized word-model invariants hold (100+ cases per preset)",
            started, None)
