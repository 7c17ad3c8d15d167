"""Braid group action on reflection factorizations of the Coxeter element.

A braid word is a tuple of nonzero letters, +i for the i-th generator move and
-i for its inverse, applied left to right.  Under that convention the word for
a product of generators reads the product right to left.

A reflection is its root and coroot row (weyl.Reflection).  The generator
move sends (t_a, t_b) to (t_a t_b t_a, t_a), where t_a t_b t_a reflects
gamma = t_a(beta_b) = beta_b - phi_a(beta_b) beta_a and has the coroot row
phi_b - phi_b(beta_a) phi_a (both negated when gamma < 0): O(n), no matrix.
braid_move and apply_braid_word replay braid words on Factorization objects.
The orbit searches move on tuples of small-int root ids through one table per
Cartan matrix, which interns each positive root once, with its height, and
memoizes the root id of each id pair's move.  A root's row is made when the
root first acts in a move, not when it is first met, and is checked then,
once, against an independent route.  The product of a tuple they reach is
certified without a check per tuple: the start's product is checked, every
row is the true reflection of its root, and w s_beta w^-1 = s_{w beta} makes
each move keep the product.  Callers get roots back, never ids.
"""

from __future__ import annotations

import enum
import functools
import math
from collections import deque
from dataclasses import dataclass, field
from operator import mul

from . import weyl
from ._matrix import Matrix, identity, mat_sub, rank
from .cartan import CartanMatrix, TypeClass, classify_type, symmetrized
from .weyl import (
    Reflection,
    Root,
    coxeter_element,
    height,
    is_negative,
    negate,
    positive_part,
)

BraidWord = tuple[int, ...]
RootTuple = tuple[Root, ...]
IdTuple = tuple[int, ...]  # a search node: root ids of a _ReflectionTable

DEFAULT_NODE_CAP = 10**6
DEFAULT_PRUNE_MULTIPLIER = 4


class Ternary(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Factorization:
    """Ordered tuple of reflections whose product is the ambient Coxeter element."""

    parts: tuple[Reflection, ...]
    coxeter: Matrix

    def __post_init__(self):
        # t_n, ..., t_1 applied to alpha_j must give column j of c.
        for j, column in enumerate(zip(*self.coxeter)):
            v = tuple(int(i == j) for i in range(len(column)))
            for part in reversed(self.parts):
                v = part.apply(v)
            if v != column:
                raise ValueError("factorization product differs from the Coxeter element")

    @property
    def n(self) -> int:
        return len(self.parts)

    def roots(self) -> tuple[weyl.Root, ...]:
        return tuple(part.root for part in self.parts)


def canonical_factorization(
    C: CartanMatrix, order: tuple[int, ...] | None = None
) -> Factorization:
    """(s_{order(1)}, ..., s_{order(n)}), the factorization presented by the fan."""
    order = weyl._check_order(C, order)
    parts = tuple(weyl.simple_reflection(C, i) for i in order)
    return Factorization(parts, coxeter_element(C, order))


def _conjugate_reflection(a: Reflection, b: Reflection) -> Reflection:
    """a b a^{-1} = t_gamma for gamma = a(beta_b), whose coroot row is
    phi_b - phi_b(beta_a) phi_a (Kac, "Infinite-dimensional Lie algebras",
    1990, 5.1); both are negated when gamma is negative."""
    root, k = a.apply(b.root), b.pair(a.root)
    coroot = tuple(x - k * y for x, y in zip(b.coroot, a.coroot))
    if is_negative(root):
        root, coroot = negate(root), negate(coroot)
    return Reflection(root, coroot)


def braid_move(f: Factorization, i: int, inverse: bool = False) -> Factorization:
    """Generator move at slot i: (g_i, g_{i+1}) -> (g_i g_{i+1} g_i^{-1}, g_i),
    or (g_{i+1}, g_{i+1}^{-1} g_i g_{i+1}) for the inverse move."""
    if not 1 <= i <= f.n - 1:
        raise ValueError(f"braid index {i} out of range 1..{f.n - 1}")
    a, b = f.parts[i - 1], f.parts[i]
    if inverse:
        pair = (b, _conjugate_reflection(b, a))
    else:
        pair = (_conjugate_reflection(a, b), a)
    parts = f.parts[: i - 1] + pair + f.parts[i + 1 :]
    return Factorization(parts, f.coxeter)


def apply_braid_word(f: Factorization, word: BraidWord) -> Factorization:
    """Apply the letters in sequence; +i is the generator move, -i its inverse."""
    for letter in word:
        if letter == 0 or abs(letter) > f.n - 1:
            raise ValueError(f"braid letter {letter} out of range for {f.n} strands")
        f = braid_move(f, abs(letter), inverse=letter < 0)
    return f


class _ReflectionTable:
    """The reflections of W(C) that the orbit searches meet, and their moves.

    The searches move on nodes that are tuples of small-int root ids; the id
    format stays inside this module, and callers get roots back (harvest,
    hurwitz_orbit).  The table interns each positive real root once, with its
    height: roots[g] and heights[g] for id g, ids[root] for a root.  pairs
    maps an id pair (a, b) to the id of the root of t_a t_b t_a, so a pair
    met again costs one lookup.

    reflections maps an id to its Reflection, made when the root first acts
    as t_a in a move, not when it is first met (or when a Factorization needs
    it; most roots a pruned search meets never act).  A root met
    through a move keeps the pair (a, b) that first made it (origins[g]), and
    its row is _conjugate_reflection of that pair's rows, checked against a
    route independent of the one that made it: phi_gamma = 2B(., gamma) /
    B(gamma, gamma), read off the symmetrized form.  A start root or a search
    target has no such pair; its row is weyl.reflection_for_root's, and a
    start part must equal its root's row.  A mismatch raises ArithmeticError.
    So every row is checked before a move or a product uses it.

    The move at slot i sends (beta_a, beta_b) to (root of t_a t_b t_a,
    beta_a) and its inverse sends it to (beta_b, root of t_b t_a t_b).  Every
    row is the reflection s_gamma of W(C), and w s_beta w^-1 = s_{w beta}
    (Kac 5.1), so each move keeps the product of the tuple.  The start's
    product check therefore proves the product of every tuple reached from
    it, and no tuple is checked again.  Searches share one table per Cartan
    matrix (_root_tuples).
    """

    def __init__(self, C: CartanMatrix):
        self.cartan = C
        self.form = symmetrized(C)
        self.roots: list[Root] = []
        self.heights: list[int] = []
        self.ids: dict[Root, int] = {}
        self.origins: list[tuple[int, int] | None] = []
        self.reflections: dict[int, Reflection] = {}
        self.pairs: dict[tuple[int, int], int] = {}

    def intern(self, root: Root, origin: tuple[int, int] | None = None) -> int:
        """The id of a positive root; a root met first is stored with its
        height and the pair whose move made it (None for a start root or a
        target)."""
        g = self.ids.get(root)
        if g is None:
            g = self.ids[root] = len(self.roots)
            self.roots.append(root)
            self.heights.append(height(root))
            self.origins.append(origin)
        return g

    def admit(self, start: Factorization) -> IdTuple:
        """The start's node, once each part is found to be its root's row."""
        node = tuple(self.intern(part.root) for part in start.parts)
        for g, part in zip(node, start.parts):
            if self.reflection(g) != part:
                raise ArithmeticError(
                    f"start part {part} is not the reflection of its root in W(C)"
                )
        return node

    def roots_of(self, node: IdTuple) -> RootTuple:
        return tuple(self.roots[g] for g in node)

    def factorization(self, node: RootTuple, coxeter: Matrix) -> Factorization:
        """The Factorization of a root tuple the table has met, product-checked
        again."""
        return Factorization(tuple(self.reflection(self.ids[r]) for r in node), coxeter)

    def reflection(self, g: int) -> Reflection:
        """The row of root id g, made and checked on first use.  The rows of
        its pair have acted before, unless a search stopped at its witness
        between the two moves of a slot."""
        row = self.reflections.get(g)
        if row is None:
            origin = self.origins[g]
            if origin is None:
                row = weyl.reflection_for_root(self.cartan, self.roots[g])
            else:
                a, b = map(self.reflection, origin)
                row = self._checked(self.roots[g], _conjugate_reflection(a, b))
            self.reflections[g] = row
        return row

    def _checked(self, root: Root, row: Reflection) -> Reflection:
        """row, once it is found to be phi_gamma = 2B(., gamma) / B(gamma, gamma)
        for gamma = root; B(v, gamma) is column gamma of the form."""
        column = [sum(map(mul, line, root)) for line in self.form]
        norm = sum(map(mul, root, column))
        if row.root != root or any(
            2 * x != p * norm for x, p in zip(column, row.coroot)
        ):
            raise ArithmeticError(
                f"conjugated row {row} is not the reflection of {root}; upstream bug"
            )
        return row

    def moves(self, node: IdTuple):
        """(letter, image) for the generator move and its inverse at every
        slot, in the order +1, -1, +2, -2, ...; the same moves braid_move makes."""
        pairs = self.pairs
        for i in range(1, len(node)):
            a, b = node[i - 1], node[i]
            head, tail = node[: i - 1], node[i + 1 :]
            g = pairs.get((a, b))
            yield i, head + (self._moved(a, b) if g is None else g, a) + tail
            g = pairs.get((b, a))
            yield -i, head + (b, self._moved(b, a) if g is None else g) + tail

    def images(self, node: IdTuple):
        return (image for _, image in self.moves(node))

    def _moved(self, a: int, b: int) -> int:
        """Id of the root of t_a t_b t_a, which is t_a(beta_b) up to sign."""
        root = positive_part(self.reflection(a).apply(self.roots[b]))
        g = self.pairs[a, b] = self.intern(root, (a, b))
        return g

    def harvest(
        self, start: Factorization, node_cap: int, expand_height: int, keep_height: int
    ) -> tuple[set[Root], bool]:
        """Roots no taller than keep_height in the tuples of the closure of
        start, and whether it finished below node_cap.  Tuples with a root
        taller than expand_height are kept, not expanded."""
        heights = self.heights

        def expandable(node: IdTuple) -> bool:
            return all(heights[g] <= expand_height for g in node)

        nodes, complete = weyl._bounded_closure(
            [self.admit(start)], self.images, node_cap, expandable
        )
        kept = {g for node in nodes for g in node if heights[g] <= keep_height}
        return {self.roots[g] for g in kept}, complete


@functools.lru_cache(maxsize=None)
def _root_tuples(C: CartanMatrix) -> _ReflectionTable:
    """One table per Cartan matrix, shared by every start and search on C."""
    return _ReflectionTable(C)


@dataclass(frozen=True)
class OrbitResult:
    """The root tuples of an orbit, sorted, and whether its closure finished."""

    roots: tuple[RootTuple, ...]
    complete: bool
    coxeter: Matrix
    table: _ReflectionTable = field(repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.roots)

    @property
    def factorizations(self) -> tuple[Factorization, ...]:
        """Each tuple's Factorization, built and product-checked on every read."""
        return tuple(self.table.factorization(node, self.coxeter) for node in self.roots)


def hurwitz_orbit(
    C: CartanMatrix, start: Factorization, node_cap: int = DEFAULT_NODE_CAP
) -> OrbitResult:
    """Breadth-first closure of a factorization of W(C) under all generator
    moves, on root-id tuples, returned as sorted root tuples.

    No Factorization is built per node.  The product of every tuple is
    certified by the start's product check, by the table's one checked row
    per root that acts, and by w s_beta w^-1 = s_{w beta}, which makes each
    move keep the product (see _ReflectionTable).  A start part that is not the
    reflection of its root in W(C) is refused (ArithmeticError, or
    ValueError for a vector that is not a real root).

    complete is True iff the closure terminated below the node cap; this always
    happens for finite types, where the orbit is the full set of reduced
    reflection factorizations of c.
    """
    if node_cap < 1:
        raise ValueError("node cap must be >= 1")
    table = _root_tuples(C)
    nodes, complete = weyl._bounded_closure([table.admit(start)], table.images, node_cap)
    roots = sorted(map(table.roots_of, nodes))
    return OrbitResult(tuple(roots), complete, start.coxeter, table)


@functools.lru_cache(maxsize=None)
def _full_orbit(C: CartanMatrix, order: tuple[int, ...] | None) -> OrbitResult:
    if classify_type(C) is not TypeClass.FINITE:
        raise ValueError("unbounded orbit closure requires a finite-type matrix")
    result = hurwitz_orbit(C, canonical_factorization(C, order))
    if not result.complete:
        raise RuntimeError("finite-type orbit closure hit the node cap")
    return result


def factorization_count_formula(C: CartanMatrix) -> int:
    """n! h^n / |G_n|, with the division required to be exact."""
    if classify_type(C) is not TypeClass.FINITE:
        raise ValueError("counting formula requires a finite-type matrix")
    n = C.n
    h = weyl.coxeter_number(C)
    group_order = weyl.group_order(C)
    numerator = math.factorial(n) * h**n
    if numerator % group_order:
        raise ArithmeticError(
            f"{numerator} is not divisible by |G| = {group_order}; upstream bug"
        )
    return numerator // group_order


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a bounded targeted orbit search."""

    word: BraidWord | None
    exhausted: bool
    nodes: int


def _targeted_orbit_search(
    C: CartanMatrix,
    start: Factorization,
    target: Reflection,
    node_cap: int,
    height_cap: int | None,
) -> SearchOutcome:
    """BFS over root-id tuples for a factorization containing the target as
    a component, matched by the id of its root.

    Tuples with any component root taller than height_cap are not expanded;
    that is sound for reporting found-witnesses, never for claiming absence.
    Returns the braid word reaching the witness (with the target moved to the
    front) when found.
    """

    def finish(node: IdTuple) -> BraidWord:
        word: list[int] = []
        cursor = node
        while parents[cursor] is not None:
            parent, letter = parents[cursor]
            word.append(letter)
            cursor = parent
        word.reverse()
        slot = node.index(goal)
        word.extend(range(-slot, 0))  # -slot, ..., -1 walks the witness to slot 1
        return tuple(word)

    table = _root_tuples(C)
    heights = table.heights
    first = table.admit(start)
    goal = table.intern(target.root)
    parents: dict[IdTuple, tuple[IdTuple, int] | None] = {first: None}
    if goal in first:
        return SearchOutcome(finish(first), True, 1)
    queue = deque([first])
    exhausted = True
    while queue:
        node = queue.popleft()
        for letter, image in table.moves(node):
            if image in parents:
                continue
            parents[image] = (node, letter)
            if goal in image:
                return SearchOutcome(finish(image), False, len(parents))
            if height_cap is not None and any(heights[g] > height_cap for g in image):
                continue
            if len(parents) >= node_cap:
                exhausted = False
                continue
            queue.append(image)
    return SearchOutcome(None, exhausted, len(parents))


@dataclass(frozen=True)
class PrefixVerdict:
    """Answer to 'is t the first reflection of some length-n factorization of c'.

    A YES always carries a witness factorization whose first part is t.
    exhausted reports whether a NO/UNKNOWN came from a fully explored search
    region (below the pruning bound) rather than from hitting the node cap.
    """

    answer: Ternary
    factorization: Factorization | None
    exhausted: bool = True


def is_prefix_of_coxeter(
    beta: Root,
    C: CartanMatrix,
    order: tuple[int, ...] | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
) -> PrefixVerdict:
    """Certify that the reflection t of the real root beta (either sign)
    extends to a reflection factorization t r_2 ... r_n = c.

    t is built by weyl.reflection_for_root, so a beta that is not a real root
    of C raises ValueError on every type.  Finite types and rank 2 are
    decided: t c is a product of n - 1 reflections iff n - 1 letters of a
    reduced word of t c can be deleted to leave the identity (Dyer; see
    weyl.factor_into_reflections), so a search of those deletions that finds
    none is a NO.  Carter's lemma gives the same answer independently, as
    rank(t c - id) = n - 1 ("Conjugacy classes in the Weyl group", Compositio
    1972, Lemma 2; on rank 2, t c has determinant -1, so rank 1 makes it a
    reflection), and the two are cross-checked.  Other infinite types report
    YES with a certificate or UNKNOWN, never an uncertified NO.  Their
    certificate comes from a breadth-first search of the Hurwitz orbit of the
    canonical factorization, on root-id tuples, that does not expand tuples with
    a root taller than DEFAULT_PRUNE_MULTIPLIER times the height of beta; the
    braid word it finds is replayed by braid_move and the witness must start
    with t.
    """
    t = weyl.reflection_for_root(C, beta)
    canonical = canonical_factorization(C, order)
    c = canonical.coxeter
    n = C.n
    remainder = t.left_multiply(c)  # t^{-1} c, reflections being involutions

    if n == 2 or classify_type(C) is TypeClass.FINITE:
        rest = weyl.factor_into_reflections(C, remainder, n - 1)
        carter = rank(mat_sub(remainder, identity(n))) == n - 1
        if carter != (rest is not None):
            raise ArithmeticError(
                "Carter's rank route and the reflection search disagree; upstream bug"
            )
        if rest is None:
            return PrefixVerdict(Ternary.NO, None)
        return PrefixVerdict(Ternary.YES, Factorization((t,) + rest, c))

    # Orbit certificate search, pruned by component root height.
    height_cap = DEFAULT_PRUNE_MULTIPLIER * height(t.root)
    outcome = _targeted_orbit_search(C, canonical, t, node_cap, height_cap)
    if outcome.word is not None:
        witness = apply_braid_word(canonical, outcome.word)
        if witness.parts[0] != t:
            raise ArithmeticError(
                "replayed witness does not start with the target; upstream bug"
            )
        return PrefixVerdict(Ternary.YES, witness)
    return PrefixVerdict(Ternary.UNKNOWN, None, exhausted=outcome.exhausted)


def stabilizer_check(
    word: BraidWord, C: CartanMatrix, order: tuple[int, ...] | None = None
) -> bool:
    """True iff the braid word fixes the canonical factorization componentwise
    (the `braid stab` command)."""
    start = canonical_factorization(C, order)
    return apply_braid_word(start, word).parts == start.parts
