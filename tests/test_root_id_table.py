"""The orbit searches on root ids against the eager, root-keyed reflection
table they replaced, kept here as the reference.

The reference table walks tuples of roots and makes and checks the row of
every root when the root is first met; the searches below are the ones that
ran on it.  The table in hurwitz walks tuples of root ids and makes a row
only when its root first acts.  Both must give the same sorted orbits, the
same search outcomes (found tuple, exhausted, node count) and the same
harvests.
"""

import functools
from collections import deque
from operator import mul

import pytest

from schur_scope import curves, hurwitz, weyl
from schur_scope.cartan import preset, symmetrized
from schur_scope.hurwitz import (
    DEFAULT_NODE_CAP,
    DEFAULT_PRUNE_MULTIPLIER,
    _targeted_orbit_search,
    canonical_factorization,
    hurwitz_orbit,
)
from schur_scope.schur import Orientation, _curve_root_harvest
from schur_scope.weyl import height, positive_part

from test_hurwitz import conjugate_reflection, reference_to_front
from test_reflection_rows import NODE_CAP, PRESETS


class _EagerRootTable:
    """Rows keyed by root, each made and checked when its root is first met;
    pairs keyed by root pairs."""

    def __init__(self, C):
        self.cartan = C
        self.form = symmetrized(C)
        self.reflections = {}
        self.pairs = {}

    def admit(self, start):
        for part in start.parts:
            row = self.reflections.get(part.root)
            if row is None:
                row = weyl.reflection_for_root(self.cartan, part.root)
                self.reflections[row.root] = row
            if row != part:
                raise ArithmeticError(f"start part {part} is not its root's reflection")
        return start.roots()

    def images(self, node):
        pairs = self.pairs
        for i in range(1, len(node)):
            a, b = node[i - 1], node[i]
            head, tail = node[: i - 1], node[i + 1 :]
            yield head + (pairs.get((a, b)) or self._moved(a, b), a) + tail
            yield head + (b, pairs.get((b, a)) or self._moved(b, a)) + tail

    def _moved(self, a, b):
        t_a = self.reflections[a]
        root = positive_part(t_a.apply(b))
        if root not in self.reflections:
            row = conjugate_reflection(t_a, self.reflections[b])
            column = [sum(map(mul, line, root)) for line in self.form]
            norm = sum(map(mul, root, column))
            if row.root != root or any(2 * x != p * norm for x, p in zip(column, row.coroot)):
                raise ArithmeticError(f"conjugated row {row} is not the reflection of {root}")
            self.reflections[root] = row
        self.pairs[a, b] = root
        return root


def _reference_orbit(table, start, node_cap):
    nodes, complete = weyl._bounded_closure([table.admit(start)], table.images, node_cap)
    return tuple(sorted(nodes)), complete


def _reference_search(table, start, target, node_cap, height_cap):
    """The targeted search's walk on root tuples: at most node_cap tuples
    kept, none with a root taller than height_cap expanded, and none
    expanded once a move has made the target's root.  Returns the first
    tuple found to hold the root with the root rotated to the front by
    reference_braid_move (or None), exhausted and the node count."""

    def to_front(node):
        f = hurwitz.Factorization(tuple(map(table.reflections.get, node)), start.coxeter)
        return reference_to_front(f, target.root).roots()

    first = table.admit(start)
    if target.root in first:
        return to_front(first), True, 1
    seen = {first}
    queue, complete, found = deque([first]), True, None
    while queue and found is None:
        node = queue.popleft()
        if any(height(r) > height_cap for r in node):
            continue
        for image in table.images(node):
            if found is None and target.root in image:
                found = image
            if image in seen:
                continue
            if len(seen) >= node_cap:
                complete = False
                continue
            seen.add(image)
            queue.append(image)
    if found is None:
        return None, complete, len(seen)
    return to_front(found), False, len(seen)


def _reference_harvest(table, o, height_bound, node_cap):
    cap = DEFAULT_PRUNE_MULTIPLIER * height_bound
    nodes, exhausted = weyl._bounded_closure(
        [table.admit(canonical_factorization(o.cartan, o.order))],
        table.images,
        node_cap,
        lambda node: all(height(r) <= cap for r in node),
    )
    return {r for node in nodes for r in node if height(r) <= height_bound}, exhausted


@pytest.mark.parametrize("name", PRESETS + ("E6",))
def test_orbits_match_the_eager_table(name):
    C = preset(name)
    start = canonical_factorization(C)
    orbit = hurwitz_orbit(C, start, NODE_CAP)
    assert (orbit.roots, orbit.complete) == _reference_orbit(_EagerRootTable(C), start, NODE_CAP)


@pytest.mark.parametrize(
    "name, max_height", [("universal:3:2", 8), ("affine-A2", 8), ("universal:4:2", 5)]
)
def test_targeted_searches_match_the_eager_table(name, max_height):
    # The node and height caps of is_prefix_of_coxeter, and a node cap low
    # enough to stop some searches short.
    C = preset(name)
    start = canonical_factorization(C)
    reference = _EagerRootTable(C)
    flags = set()
    for beta in weyl.positive_real_roots(C, max_height):
        target = weyl.reflection_for_root(C, beta)
        for node_cap in (DEFAULT_NODE_CAP, 10):
            args = (start, target, node_cap, DEFAULT_PRUNE_MULTIPLIER * height(beta))
            outcome = _targeted_orbit_search(C, *args)
            expected = _reference_search(reference, *args)
            found = None if outcome.found is None else outcome.found.roots()
            assert (found, outcome.exhausted, outcome.nodes) == expected, beta
            flags.add((found is None, outcome.exhausted))
    assert {(False, False), (True, False)} <= flags  # found, and stopped by the cap


@pytest.mark.parametrize(
    "name, height_bound",
    [("universal:3:2", 12), ("affine-A2", 10), ("universal:4:2", 4)],
)
def test_harvests_match_the_eager_table(name, height_bound):
    o = Orientation.default(preset(name))
    reference = _EagerRootTable(o.cartan)
    flags = set()
    for node_cap in (DEFAULT_NODE_CAP, 200):
        args = (o, height_bound, node_cap)
        harvest = _curve_root_harvest(*args)
        assert harvest == _reference_harvest(reference, *args)
        flags.add(harvest[1])
    assert flags == {True, False}


def test_rows_are_made_only_for_roots_that_act(monkeypatch):
    """After the exhaustive orbit search for the root (12, 35, 6) of the
    (2,1,3,1)->2 curve in universal:3:2 (height cap 4 * 53 = 212), on a
    fresh table, every row belongs to a root whose reflection was applied,
    and most roots met never act."""
    monkeypatch.setattr(hurwitz, "_root_tuples", functools.lru_cache(hurwitz._ReflectionTable))
    acted = set()
    apply = weyl.Reflection.apply
    monkeypatch.setattr(
        weyl.Reflection, "apply", lambda t, v: (acted.add(t.root), apply(t, v))[1]
    )
    verdict = hurwitz.is_prefix_of_coxeter((12, 35, 6), curves.universal_model(3))
    assert verdict.answer is hurwitz.Ternary.UNKNOWN and verdict.exhausted
    table = hurwitz._root_tuples(curves.universal_model(3))
    rows = {table.roots[g] for g in table.reflections}
    assert rows <= acted
    assert len(rows) < len(table.roots) // 2
