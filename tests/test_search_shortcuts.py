"""The shortcuts of the orbit searches against the loops they replaced, kept
here as references.

- The targeted search tests an image only by the root its move creates; the
  reference tests every root of every image.
- The harvest given the enumerated roots stops once it has met them all; the
  reference walks the whole bounded closure.
- `schur verify` calls a root that a complete harvest never met UNKNOWN
  without its orbit search; the reference runs the search for every root.
- The product check updates a list in place and skips parts that pair to 0;
  the reference applies every part to a tuple.
- A first-time move reads the sign of t_a(beta_b) from its least and
  greatest coordinates, and an image of mixed sign still raises
  weyl.positive_part's error.
"""

import random
from collections import deque

import pytest

from schur_scope import hurwitz, schur, weyl
from schur_scope.cartan import TypeClass, classify_type, preset
from schur_scope.hurwitz import (
    DEFAULT_NODE_CAP,
    DEFAULT_PRUNE_MULTIPLIER,
    Factorization,
    SearchOutcome,
    _root_tuples,
    _targeted_orbit_search,
    apply_braid_word,
    canonical_factorization,
)
from schur_scope.schur import Orientation, _curve_root_harvest, verify_conjecture
from schur_scope.weyl import Reflection, height

from test_hurwitz import reference_to_front


def _full_image_search(C, start, target, node_cap, height_cap):
    """The targeted search with every root of every image compared with the
    goal, and every root of a tuple with the height cap before the tuple is
    expanded.  The found tuple's goal is brought to the front by
    reference_braid_move."""
    table = _root_tuples(C)
    heights = table.heights
    first = table.admit(start)
    goal = table.intern(target.root)
    if goal in first:
        return SearchOutcome(reference_to_front(start, target.root), True, 1)
    seen = {first}
    queue, complete, found = deque([first]), True, None
    while queue and found is None:
        node = queue.popleft()
        if any(heights[g] > height_cap for g in node):
            continue
        for _, image in table.moves(node):
            if found is None and goal in image:
                found = image
            if image in seen:
                continue
            if len(seen) >= node_cap:
                complete = False
                continue
            seen.add(image)
            queue.append(image)
    if found is None:
        return SearchOutcome(None, complete, len(seen))
    parts = tuple(map(table.reflection, found))
    witness = reference_to_front(Factorization(parts, start.coxeter), target.root)
    return SearchOutcome(witness, False, len(seen))


SEARCH_CASES = [
    ("universal:3:2", 12),
    ("universal:4:2", 6),
    ("affine-A2", 10),
    ("affine-A3", 8),
]


@pytest.mark.parametrize("name, max_height", SEARCH_CASES)
def test_searches_on_the_new_root_match_the_full_image_tests(name, max_height):
    C = preset(name)
    start = canonical_factorization(C)
    flags = set()
    for beta in weyl.positive_real_roots(C, max_height):
        target = weyl.reflection_for_root(C, beta)
        for node_cap in (DEFAULT_NODE_CAP, 50):
            args = (C, start, target, node_cap, DEFAULT_PRUNE_MULTIPLIER * height(beta))
            outcome = _targeted_orbit_search(*args)
            assert outcome == _full_image_search(*args), (beta, node_cap)
            flags.add((outcome.found is None, outcome.exhausted))
    # Witnesses found, and, where some roots have none (every root of
    # universal:4:2 up to height 6 has one), searches that the node cap stops
    # and searches that exhaust the pruned region.
    assert (False, False) in flags
    if name != "universal:4:2":
        assert {(True, False), (True, True)} <= flags


def test_a_search_without_height_cap_matches_the_full_image_tests(monkeypatch):
    # The searches run on a fresh table, so its heights are those of the
    # roots they met, and a height cap above all of them pruned none.
    C = preset("universal:3:2")
    table = hurwitz._ReflectionTable(C)
    monkeypatch.setattr(hurwitz, "_root_tuples", lambda C: table)
    start = canonical_factorization(C)
    cap = 10**9
    for beta in weyl.positive_real_roots(C, 6):
        target = weyl.reflection_for_root(C, beta)
        args = (C, start, target, 200, cap)
        assert _targeted_orbit_search(*args) == _full_image_search(*args), beta
    assert max(table.heights) < cap


def _enumerated(o, height_bound):
    return tuple(
        r for r in weyl.positive_real_roots(o.cartan, height_bound) if height(r) <= height_bound
    )


HARVEST_CASES = [
    ("universal:3:2", (4, 8, 12)),
    ("universal:4:2", (4, 6)),
    ("affine-A2", (6, 10)),
    ("affine-A3", (4, 8)),
    ("A3", (2, 20)),
    ("B3", (3, 20)),
    ("D4", (2, 20)),
    ("D5", (3, 20)),
    ("E6", (4,)),
]

# The (preset, height, node cap) of every harvest whose truncated flag the
# stop flips: each met all the enumerated roots before the full walk's node
# cap fired, so it reports a complete harvest where the full walk reported a
# truncated one.  No flip goes the other way, and no harvested set differs.
TRUNCATED_FLIPS = {
    ("universal:3:2", 4, 200), ("universal:3:2", 4, 50), ("universal:3:2", 8, 200),
    ("universal:4:2", 4, 2000), ("universal:4:2", 4, 200), ("universal:4:2", 4, 50),
    ("universal:4:2", 6, 2000), ("universal:4:2", 6, 200),
    ("affine-A3", 4, 200), ("affine-A3", 4, 50),
    ("D4", 2, 50), ("D5", 3, 2000), ("D5", 3, 200), ("D5", 20, 2000), ("E6", 4, 2000),
}


@pytest.mark.parametrize("name, heights", HARVEST_CASES)
def test_a_harvest_given_the_enumerated_roots_keeps_the_full_walks_roots(name, heights):
    o = Orientation.default(preset(name))
    for height_bound in heights:
        roots = _enumerated(o, height_bound)
        for node_cap in (DEFAULT_NODE_CAP, 2000, 200, 50):
            args = (o, height_bound, node_cap)
            full, complete = _curve_root_harvest(*args)
            stopped, stopped_complete = _curve_root_harvest(*args, roots)
            assert stopped == full, (height_bound, node_cap)
            if (name, height_bound, node_cap) in TRUNCATED_FLIPS:
                assert (complete, stopped_complete) == (False, True)
            else:
                assert stopped_complete == complete, (height_bound, node_cap)


def test_a_harvested_root_outside_the_given_roots_is_an_internal_error():
    o = Orientation.default(preset("universal:3:2"))
    roots = _enumerated(o, 8)
    with pytest.raises(ArithmeticError, match="not among the enumerated roots"):
        _curve_root_harvest(o, 8, DEFAULT_NODE_CAP, roots[:-1])


VERIFY_CASES = [
    ("universal:3:2", (6, 12)),
    ("universal:4:2", (4, 6)),
    ("affine-A2", (5, 10)),
    ("affine-A3", (4, 8)),
    ("A3", (2, 20)),
    ("B3", (2, 20)),
    ("D4", (3, 20)),
    ("D5", (4, 20)),
    ("E6", (5, 20)),
]


@pytest.mark.parametrize("name, heights", VERIFY_CASES)
def test_verify_gives_the_report_of_the_full_walk(name, heights, monkeypatch):
    o = Orientation.default(preset(name))
    reports = [verify_conjecture(o, h) for h in heights]
    harvest = schur._curve_root_harvest
    monkeypatch.setattr(
        schur, "_curve_root_harvest", lambda o, h, cap, roots: harvest(o, h, cap)
    )
    assert [verify_conjecture(o, h) for h in heights] == reports


def _verify_searching_every_root(o, height_bound, node_cap):
    """verify_conjecture as it was: the prefix search for every root, then
    the harvest."""
    finite = classify_type(o.cartan) is TypeClass.FINITE
    positives = _enumerated(o, height_bound)
    prefix_roots, unknowns = [], []
    for beta in positives:
        answer = schur.is_schur_root(beta, o, node_cap).answer
        if answer is hurwitz.Ternary.YES:
            prefix_roots.append(beta)
        elif answer is hurwitz.Ternary.UNKNOWN:
            unknowns.append(beta)
    harvested, exhausted = _curve_root_harvest(o, height_bound, node_cap, positives)
    return schur.ConjectureReport(
        height_bound=height_bound,
        prefix_roots=tuple(sorted(prefix_roots, key=schur._root_sort_key)),
        curve_roots=tuple(sorted(harvested, key=schur._root_sort_key)),
        all_positive=positives if finite else None,
        unknowns=tuple(sorted(unknowns, key=schur._root_sort_key)),
        truncated=not exhausted,
    )


# The first three have unknowns outside the harvest.
VERIFY_SKIP_CASES = [
    ("universal:3:2", 12), ("affine-A2", 10), ("affine-A3", 12), ("universal:4:2", 4),
    ("universal:4:2", 8), ("universal:2:3", 20), ("affine-A1", 20), ("D5", 20), ("E6", 20),
]
# Truncated harvests, which settle nothing: both miss roots that the
# searches find YES.
TRUNCATED_SKIP_CASES = [("universal:3:2", 12, 50), ("universal:4:2", 8, 200)]


@pytest.mark.parametrize(
    "name, height_bound, node_cap",
    [(*case, DEFAULT_NODE_CAP) for case in VERIFY_SKIP_CASES] + TRUNCATED_SKIP_CASES,
)
def test_verify_skips_only_searches_the_harvest_settles(
    name, height_bound, node_cap, monkeypatch
):
    o = Orientation.default(preset(name))
    expected = _verify_searching_every_root(o, height_bound, node_cap).to_json_dict()
    searched = []
    check = schur.is_schur_root
    monkeypatch.setattr(
        schur, "is_schur_root", lambda beta, *args: (searched.append(beta), check(beta, *args))[1]
    )
    assert verify_conjecture(o, height_bound, node_cap).to_json_dict() == expected
    # The roots never searched are the unknowns outside a complete harvest,
    # and only where the orbit search runs: infinite types of rank >= 3.
    skipped = set(_enumerated(o, height_bound)).difference(searched)
    prefix, curves, unknowns = (
        {tuple(r) for r in roots}
        for roots in (expected["sets"]["prefix"], expected["sets"]["curves"], expected["unknowns"])
    )
    if expected["truncated"]:
        assert prefix - curves and not skipped
    elif o.cartan.n > 2 and expected["sets"]["all_positive"] is None:
        assert skipped == unknowns - curves
    else:
        assert not skipped
    some_skipped = (name, height_bound) in VERIFY_SKIP_CASES[:3] and not expected["truncated"]
    assert bool(skipped) == some_skipped


def _product_by_tuples(parts, coxeter):
    """The product check as it was: each part applied to a tuple."""
    for j, column in enumerate(zip(*coxeter)):
        v = tuple(int(i == j) for i in range(len(column)))
        for part in reversed(parts):
            v = part.apply(v)
        if v != column:
            return False
    return True


def _accepted(parts, coxeter):
    try:
        Factorization(parts, coxeter)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("name", ["A3", "B3", "D4", "universal:3:2", "affine-A3", "universal:4:2"])
def test_the_product_check_agrees_with_the_tuple_route(name):
    rng = random.Random(20)
    C = preset(name)
    start = canonical_factorization(C)
    c = start.coxeter
    pool = [weyl.reflection_for_root(C, r) for r in weyl.positive_real_roots(C, 4)]
    verdicts = {"moved": set(), "permuted": set(), "doctored": set(), "random": set()}
    for _ in range(40):
        word = tuple(rng.choice((1, -1)) * rng.randint(1, C.n - 1) for _ in range(6))
        parts = apply_braid_word(C, start, word).parts
        i = rng.randrange(C.n)
        doctored = list(parts)
        doctored[i] = rng.choice([t for t in pool if t != parts[i]])
        candidates = {
            "moved": parts,
            "permuted": tuple(rng.sample(parts, len(parts))),
            "doctored": tuple(doctored),
            "random": tuple(rng.choice(pool) for _ in range(C.n)),
        }
        for kind, tried in candidates.items():
            verdict = _accepted(tried, c)
            assert verdict == _product_by_tuples(tried, c), (kind, tried)
            verdicts[kind].add(verdict)
    assert verdicts["moved"] == {True}
    assert False in verdicts["permuted"] and verdicts["doctored"] == {False}


def test_the_product_check_refuses_a_doctored_coroot_row():
    C = preset("universal:3:2")
    parts = list(canonical_factorization(C).parts)
    root, coroot = parts[1]
    # The root is alpha_2, so a change to the first entry keeps the pairing 2.
    parts[1] = Reflection(root, (coroot[0] + 1, coroot[1], coroot[2]))
    assert not _product_by_tuples(parts, weyl.coxeter_element(C))
    with pytest.raises(ValueError, match="differs from the Coxeter element"):
        Factorization(tuple(parts), weyl.coxeter_element(C))
    # A part of the wrong rank is refused, not read on a prefix of the rows.
    short = canonical_factorization(preset("A2")).parts[0]
    with pytest.raises(ValueError, match="differs from the Coxeter element"):
        Factorization((short,) + canonical_factorization(C).parts[1:], weyl.coxeter_element(C))


def test_a_doctored_row_still_raises_the_mixed_sign_error():
    C = preset("universal:3:2")
    table = hurwitz._ReflectionTable(C)
    a, b, _ = table.admit(canonical_factorization(C))
    # alpha_1 with a row that pairs alpha_2 to 5: t(alpha_2) = (-5, 1, 0).
    table.reflections[a] = Reflection((1, 0, 0), (2, 5, 0))
    with pytest.raises(ValueError, match=r"\(-5, 1, 0\) has mixed signs, so it is not a real root"):
        table.moved(a, b)
    assert (a, b) not in table.pairs
