from collections import deque

import pytest

from schur_scope import curves, hurwitz, weyl
from schur_scope._matrix import inverse, matmul, matvec
from schur_scope.cartan import preset
from schur_scope.curves import CurveWord
from schur_scope.hurwitz import DEFAULT_NODE_CAP, DEFAULT_PRUNE_MULTIPLIER, Ternary
from schur_scope.schur import (
    Orientation,
    _curve_root_harvest,
    is_schur_root,
    mutate,
    schur_transversal_finite,
    verify_conjecture,
)
from test_matrix import mat_pow


def _o(name, order=None):
    C = preset(name)
    return Orientation(C, order or tuple(range(1, C.n + 1)))


def schur_transversal_affine(o):
    """The 2n words s_{o1}..s_{o(k-1)} alpha_{ok} and s_{on}..s_{o(k+1)} alpha_{ok},
    each paired with the root it evaluates to."""
    ks = range(1, o.n + 1)
    words = [CurveWord(o.order[: k - 1], o.order[k - 1]) for k in ks]
    words += [CurveWord(tuple(reversed(o.order[k:])), o.order[k - 1]) for k in ks]
    return tuple((w, curves.root_of_curve(w, o.cartan)) for w in words)


def c_orbit(beta, o, step_bound=100):
    """(roots, closed): the walk beta, c beta, c^2 beta, ... until it returns to
    beta (closed, always on finite types), or else c^k beta for |k| <= step_bound
    in walk order."""
    c = weyl.coxeter_element(o.cartan, o.order)
    forward, x = [beta], beta
    for _ in range(step_bound):
        x = matvec(c, x)
        if x == beta:
            return tuple(forward), True
        forward.append(x)
    c_inverse, backward, x = inverse(c), [], beta
    for _ in range(step_bound):
        x = matvec(c_inverse, x)
        backward.append(x)
    return tuple(reversed(backward)) + tuple(forward), False


def c_orbit_census_finite(o):
    """The c-orbits of all real roots of a finite type, each in cycle order from
    its smallest member, sorted by that member."""
    remaining = set(weyl.enumerate_real_roots(o.cartan, 1))
    orbits = []
    while remaining:
        seed = min(remaining, key=lambda r: (weyl.height(r), r))
        roots, closed = c_orbit(seed, o, step_bound=10 * weyl.coxeter_number(o.cartan))
        if not closed:
            raise ArithmeticError(f"c-orbit of {seed} did not close in 10 h steps")
        remaining.difference_update(roots)
        orbits.append(roots)
    return tuple(sorted(orbits))


def rank2_closed_forms(o, exponent_range):
    """(braid-moved pair, closed form) matrix pairs on rank 2, for |e| <= range:
    s1 s2 s1 = c s2 c^-1 and s2 s1 s2 = c^-1 s1 c; the 2e-th generator power
    conjugates the pair by c^e; the (2k+1)-st power gives
    (c^k s1 s2 s1 c^-k, c^k s1 c^-k) and the -(2k+1)-st (c^-k s2 c^k,
    c^-k s2 s1 s2 c^k)."""
    C = o.cartan
    s1, s2 = (weyl.simple_reflection(C, i).matrix for i in o.order)
    c = weyl.coxeter_element(C, o.order)
    start = hurwitz.canonical_factorization(C, o.order)

    def conj(power, m):
        return matmul(matmul(mat_pow(c, power), m), mat_pow(c, -power))

    def moved(power):
        word = (1,) * power if power >= 0 else (-1,) * -power
        return tuple(part.matrix for part in hurwitz.apply_braid_word(start, word).parts)

    s121, s212 = matmul(matmul(s1, s2), s1), matmul(matmul(s2, s1), s2)
    yield s121, conj(1, s2)
    yield s212, conj(-1, s1)
    for e in range(-exponent_range, exponent_range + 1):
        yield moved(2 * e), (conj(e, s1), conj(e, s2))
    for k in range(exponent_range + 1):
        yield moved(2 * k + 1), (conj(k, s121), conj(k, s1))
        yield moved(-(2 * k + 1)), (conj(-k, s2), conj(-k, s212))


def mutation_verdicts(beta, o):
    """The Schur verdicts of beta in o and of s_source(beta) in the
    source-mutated orientation."""
    image = weyl.simple_reflection(o.cartan, o.source).apply(beta)
    return is_schur_root(beta, o).answer, is_schur_root(image, mutate(o, "source")).answer


def test_orientation_validates():
    with pytest.raises(ValueError):
        Orientation(preset("A3"), (1, 2))
    o = _o("A3")
    assert o.source == 1 and o.sink == 3


def test_is_schur_root_finite():
    verdict = is_schur_root((1, 1, 1), _o("A3"))
    assert verdict.answer is Ternary.YES
    assert verdict.factorization.parts[0].root == (1, 1, 1)


def test_is_schur_root_universal_rank2():
    verdict = is_schur_root((3, 2), _o("universal:2:2"))
    assert verdict.answer is Ternary.YES
    assert verdict.factorization.roots()[0] == (3, 2)


def test_is_schur_root_mutation_example_root():
    A3 = _o("A3")
    beta = curves.root_of_curve(CurveWord((2, 3), 2), A3.cartan)
    assert is_schur_root(beta, A3).answer is Ternary.YES


def test_is_schur_root_rejects_non_roots():
    with pytest.raises(ValueError):
        is_schur_root((1, 0, 1), _o("A3"))


def test_certificates_revalidate():
    # Factorization product equality is asserted on construction; check the
    # witness root placement explicitly for a spread of roots.
    for name in ("A2", "B2", "A3", "B3"):
        o = _o(name)
        for beta in weyl.positive_real_roots(o.cartan, 4):
            verdict = is_schur_root(beta, o)
            assert verdict.answer is Ternary.YES
            assert verdict.factorization.parts[0].root == beta
            assert len(verdict.factorization.parts) == o.n


def test_transversal_finite():
    assert schur_transversal_finite(_o("A2")) == ((1, 0), (1, 1))
    assert schur_transversal_finite(_o("A3")) == ((1, 0, 0), (1, 1, 0), (1, 1, 1))
    with pytest.raises(ValueError):
        schur_transversal_finite(_o("affine-A2"))


def test_transversal_affine():
    entries = schur_transversal_affine(_o("affine-A2"))
    words = {(cw.letters, cw.end): root for cw, root in entries}
    assert len(entries) == 6
    assert words[((), 1)] == (1, 0, 0)  # beta_1 = alpha_1
    assert words[((3, 2), 1)] == (1, 1, 2)  # delta_1 = s3 s2 alpha_1
    assert words[((), 3)] == (0, 0, 1)  # delta_n = alpha_n
    aff1 = schur_transversal_affine(_o("affine-A1"))
    words1 = {(cw.letters, cw.end): root for cw, root in aff1}
    assert words1[((1,), 2)] == (2, 1)  # beta_2 = s1 alpha_2


def test_affine_transversal_certified_and_disjoint():
    o = _o("affine-A2")
    entries = schur_transversal_affine(o)
    orbits = []
    for cw, root in entries:
        beta = weyl.positive_part(root)
        assert weyl.height(beta) <= 15
        assert is_schur_root(beta, o).answer is Ternary.YES
        roots, closed = c_orbit(beta, o, step_bound=6)
        assert not closed  # the transversal orbits are infinite
        orbits.append(set(roots))
    for i in range(len(orbits)):
        for j in range(i + 1, len(orbits)):
            assert not (orbits[i] & orbits[j])


def test_c_orbit_a2():
    roots, closed = c_orbit((1, 0), _o("A2"))
    assert closed
    assert set(roots) == {(1, 0), (0, 1), (-1, -1)}
    assert len(roots) == 3


def test_c_orbit_size_is_h_in_finite_types():
    for name in ("A2", "B2", "G2", "A3"):
        o = _o(name)
        h = weyl.coxeter_number(o.cartan)
        for beta in weyl.enumerate_real_roots(o.cartan, 1):
            roots, closed = c_orbit(beta, o)
            assert closed
            assert len(roots) == h


def test_c_orbit_universal_open():
    roots, closed = c_orbit((1, 0), _o("universal:2:2"), step_bound=3)
    assert not closed
    assert (3, 2) in roots and (-1, -2) in roots
    assert len(roots) == 7


def test_census_finite():
    expected = {"A2": 2, "A3": 3, "B2": 2, "B3": 3, "D4": 4}
    for name, n_orbits in expected.items():
        o = _o(name)
        orbits = c_orbit_census_finite(o)
        h = weyl.coxeter_number(o.cartan)
        assert len(orbits) == n_orbits == o.n
        assert all(len(orbit) == h for orbit in orbits)
        covered = {root for orbit in orbits for root in orbit}
        assert len(covered) == o.n * h
        transversal = schur_transversal_finite(o)
        homes = [next(i for i, orb in enumerate(orbits) if beta in orb)
                 for beta in transversal]
        assert len(set(homes)) == o.n


def test_census_raises_when_an_orbit_does_not_close(monkeypatch):
    # A finite-type c-orbit always closes, so an open one is an internal fault.
    monkeypatch.setitem(globals(), "c_orbit", lambda *args, **kwargs: ((), False))
    with pytest.raises(ArithmeticError, match="did not close"):
        c_orbit_census_finite(_o("A2"))


def test_rank2_closed_forms():
    for name, exponent_range in (
        ("A2", 5), ("B2", 5), ("G2", 5), ("universal:2:2", 5), ("universal:2:3", 3)
    ):
        for moved, closed_form in rank2_closed_forms(_o(name), exponent_range):
            assert moved == closed_form, name


def test_mutate_rotations():
    o = _o("A3")
    assert mutate(o, "source").order == (2, 3, 1)
    assert mutate(mutate(o, "source"), "sink") == o
    rotated = o
    for _ in range(3):
        rotated = mutate(rotated, "source")
    assert rotated == o


def test_mutated_coxeter_is_conjugate():
    o, mutated = _o("A3"), mutate(_o("A3"), "source")
    s = weyl.simple_reflection(o.cartan, o.source).matrix
    expected = matmul(matmul(s, weyl.coxeter_element(o.cartan, o.order)), s)
    assert weyl.coxeter_element(mutated.cartan, mutated.order) == expected


def test_mutation_equivalence_examples():
    o = _o("A3")
    beta = curves.root_of_curve(CurveWord((2, 3), 2), o.cartan)
    assert mutation_verdicts(beta, o) == (Ternary.YES, Ternary.YES)
    for root in weyl.positive_real_roots(o.cartan, 10):
        assert mutation_verdicts(root, o) == (Ternary.YES, Ternary.YES)


def test_mutation_equivalence_universal():
    o = _o("universal:3:2")
    for root in weyl.positive_real_roots(o.cartan, 6):
        assert mutation_verdicts(root, o) == (Ternary.YES, Ternary.YES)


def test_schur_set_mutation_invariance_a3():
    o = _o("A3")
    mutated = mutate(o, "source")
    s = weyl.simple_reflection(o.cartan, o.source).matrix
    schur_before = {
        beta
        for beta in weyl.positive_real_roots(o.cartan, 10)
        if is_schur_root(beta, o).answer is Ternary.YES
    }
    mapped = {weyl.positive_part(matvec(s, beta)) for beta in schur_before}
    schur_after = {
        beta
        for beta in weyl.positive_real_roots(o.cartan, 10)
        if is_schur_root(beta, mutated).answer is Ternary.YES
    }
    assert mapped == schur_after


def test_verify_conjecture_a2():
    report = verify_conjecture(_o("A2"), 10)
    assert report.sets_match
    assert report.prefix_roots == ((0, 1), (1, 0), (1, 1))
    assert report.all_positive == report.prefix_roots
    assert not report.unknowns and not report.truncated


def test_verify_conjecture_a3():
    report = verify_conjecture(_o("A3"), 10)
    assert report.sets_match
    assert len(report.prefix_roots) == 6


def test_verify_conjecture_universal22():
    report = verify_conjecture(_o("universal:2:2"), 12)
    assert report.sets_match
    positives = weyl.positive_real_roots(preset("universal:2:2"), 12)
    assert report.prefix_roots == positives  # rank 2: everything is certified
    assert not report.unknowns and not report.truncated


def test_verify_conjecture_universal32():
    report = verify_conjecture(_o("universal:3:2"), 8)
    assert report.sets_match
    assert len(report.prefix_roots) == 21
    assert not report.unknowns and not report.truncated


def test_verify_conjecture_nondefault_order():
    report = verify_conjecture(_o("A3", order=(2, 1, 3)), 10)
    assert report.sets_match
    assert len(report.prefix_roots) == 6


def test_verify_conjecture_small_bound_reports_honest_mismatch():
    # P and S both live below the bound; F is always the whole positive system
    # for finite types, so a bound below the tallest root must not claim a match.
    report = verify_conjecture(_o("A3"), 2)
    assert set(report.prefix_roots) == set(report.curve_roots)
    assert len(report.prefix_roots) == 5  # the height-3 highest root is excluded
    assert len(report.all_positive) == 6
    assert not report.sets_match


def test_verify_conjecture_affine_with_honest_stragglers():
    # Affine types have genuinely non-Schur real roots; those can never get a
    # certified NO from a bounded search, so they surface as stragglers.  The
    # certified sides still agree, and the one finite c-orbit whose roots are
    # Schur is certified (its members sit at heights 1 and 2).
    report = verify_conjecture(_o("affine-A2"), 8, node_cap=200_000)
    assert set(report.prefix_roots) == set(report.curve_roots)
    assert report.unknowns == ((1, 2, 1), (2, 1, 2), (2, 3, 2), (3, 2, 3))
    assert not report.truncated
    assert {(0, 1, 0), (1, 0, 1)} <= set(report.prefix_roots)


def test_verify_conjecture_refuses_finite_orbits_above_the_node_cap():
    # The harvest walks the whole Hurwitz orbit, n! h^n / |W| tuples: 16 on A3.
    with pytest.raises(ValueError, match="16 factorizations, more than the node cap of 15"):
        verify_conjecture(_o("A3"), 10, node_cap=15)
    report = verify_conjecture(_o("A3"), 10, node_cap=16)
    assert report.sets_match and not report.truncated


def test_report_json_shape():
    report = verify_conjecture(_o("A2"), 5)
    data = report.to_json_dict()
    assert set(data) == {
        "height_bound", "sets", "unknowns", "truncated", "sets_match",
    }
    assert set(data["sets"]) == {"prefix", "curves", "all_positive"}


def _matrix_keyed_harvest(o, height_bound, node_cap, prune_multiplier):
    """Reference curve harvest that deduplicates curve-word tuples by their
    evaluated loop matrices (the route the root-tuple key replaces)."""
    C = o.cartan
    start = tuple(CurveWord((), k) for k in o.order)
    cap = prune_multiplier * height_bound

    def evaluate(words):
        return tuple(curves.reflection_of_curve(w, C).matrix for w in words)

    harvested = set()
    seen = {evaluate(start)}
    queue = deque([start])
    exhausted = True
    while queue:
        words = queue.popleft()
        roots = [weyl.positive_part(curves.root_of_curve(w, C)) for w in words]
        harvested.update(r for r in roots if weyl.height(r) <= height_bound)
        if any(weyl.height(r) > cap for r in roots):
            continue
        for i in range(1, o.n):
            for inverse in (False, True):
                image = curves.braid_move_curves(words, i, inverse)
                key = evaluate(image)
                if key in seen:
                    continue
                if len(seen) >= node_cap:
                    exhausted = False
                    continue
                seen.add(key)
                queue.append(image)
    return harvested, exhausted


@pytest.mark.parametrize(
    "name, order",
    [
        ("A3", (3, 1, 2)),
        ("B3", (2, 1, 3)),
        ("universal:2:2", (2, 1)),
        ("universal:3:2", (2, 3, 1)),
        ("affine-A2", (3, 1, 2)),
        ("universal:4:2", (3, 1, 4, 2)),
        ("D4", (4, 2, 1, 3)),
    ],
)
def test_curve_harvest_matches_matrix_keyed_reference(name, order):
    o = _o(name, order)
    # The curve-word reference is slow at rank 4, so it gets a smaller grid.
    if o.n < 4:
        heights, node_caps = range(4, 9), (1, 5, 50, 300, DEFAULT_NODE_CAP)
    else:
        heights, node_caps = (4,), (5, 300)
    exhausted_seen = set()
    for height_bound in heights:
        for node_cap in node_caps:
            for prune_multiplier in (1, DEFAULT_PRUNE_MULTIPLIER):
                args = (o, height_bound, node_cap, prune_multiplier)
                expected = _matrix_keyed_harvest(*args)
                assert _curve_root_harvest(*args) == expected, args[1:]
                exhausted_seen.add(expected[1])
    assert exhausted_seen == {True, False}  # both truncated and complete runs


def test_infinite_type_certificates_build_no_reflection_pool(monkeypatch):
    # On infinite types the prefix certificate is the braid-orbit search alone.
    def refuse(*args):
        raise AssertionError("reflection pool built")

    monkeypatch.setattr(weyl, "_reflection_pool", refuse)
    report = verify_conjecture(_o("universal:3:2"), 12)
    assert report.unknowns == ((1, 6, 2), (2, 6, 1))
    assert len(report.prefix_roots) == 37
    assert set(report.prefix_roots) <= set(report.curve_roots)
    assert not report.truncated
    verdict = curves.is_simple(CurveWord((2, 1, 3, 1), 2), 3)
    assert verdict is curves.SimpleVerdict.NO_WITHIN_BOUND


def test_curve_harvest_moves_no_curve_words(monkeypatch):
    # The harvest walks root tuples; curve words stay the tests' reference.
    def refuse(*args, **kwargs):
        raise AssertionError("curve word rewritten or evaluated")

    monkeypatch.setattr(curves, "braid_move_curves", refuse)
    monkeypatch.setattr(curves, "root_of_curve", refuse)
    report = verify_conjecture(_o("universal:3:2"), 8)
    assert report.sets_match and len(report.curve_roots) == 21
    assert verify_conjecture(_o("D4")).sets_match


def test_queries_from_one_start_share_its_reflection_table(monkeypatch):
    # The second query meets only roots the first one already checked.  The
    # root is an unknown, so no braid word is replayed.
    o = _o("universal:3:2")
    is_schur_root((1, 6, 2), o)
    conjugations = []
    conjugate = hurwitz._conjugate_reflection
    monkeypatch.setattr(
        hurwitz,
        "_conjugate_reflection",
        lambda a, b: (conjugations.append(b.root), conjugate(a, b))[1],
    )
    assert is_schur_root((1, 6, 2), o).answer is Ternary.UNKNOWN
    assert conjugations == []
