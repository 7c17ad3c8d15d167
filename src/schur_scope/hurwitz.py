"""Braid group action on reflection factorizations of the Coxeter element.

A braid word is a tuple of nonzero letters, +i for the i-th generator move and
-i for its inverse, applied left to right.  Under that convention the word for
a product of generators reads the product right to left.

A reflection is its root and coroot row (weyl.Reflection).  The generator
move sends (t_a, t_b) to (t_a t_b t_a, t_a), where t_a t_b t_a reflects
gamma = t_a(beta_b) = beta_b - phi_a(beta_b) beta_a: O(n), no matrix.
Every move, of a braid word or of an orbit walk, acts on a tuple of small-int
root ids through one table per Cartan matrix, which interns each positive
root once, with its height, and memoizes the root id of each id pair's move
(_ReflectionTable.moved); a move replaces one root of a tuple, and a walk
looks up only that one.  braid_move makes one move, and apply_braid_word
admits a Factorization, replays a word on its ids and product-checks the
result once.  Every walk is weyl._bounded_closure, and node_cap bounds the
tuples each one keeps.  A finite orbit that fits its cap is walked under
sigma_1 and delta = sigma_1 ... sigma_{n-1} alone, two images per tuple in
which t_1 alone acts (hurwitz_orbit); every other walk takes the move and its
inverse at each slot.  The curve harvest and the targeted prefix search are
one walk (_ReflectionTable.walk) that expands no tuple with a root taller
than its prune height, and none once it has met every root it wants: the
harvest wants every enumerated root up to its bound, the search one root.
The search rotates the tuple that holds its root (the start, or the image
of the move that made it) on ids by braid_move until the root is first, and
hands back that witness, product-checked once.  A root's row is made when the
root first acts in a move, not when it is first met, by the one route from a
real root to its row: phi_gamma = 2B(., gamma) / B(gamma, gamma) off the
symmetrized form (weyl.coroot_row).  The product of a tuple they reach is
certified without a check per tuple: the start's product is checked, every
row is the true reflection of its root, and w s_beta w^-1 = s_{w beta} makes
each move keep the product.  Callers get roots or Factorizations back,
never ids.
"""

from __future__ import annotations

import enum
import functools
import math
from collections import namedtuple
from operator import mul

from . import weyl
from ._matrix import Matrix, identity, mat_sub, rank
from .cartan import CartanMatrix, TypeClass, classify_type, symmetrized
from .weyl import Reflection, Root, coxeter_element, height, positive_part

BraidWord = tuple[int, ...]
RootTuple = tuple[Root, ...]
IdTuple = tuple[int, ...]  # a search node: root ids of a _ReflectionTable

DEFAULT_NODE_CAP = 10**6
DEFAULT_HEIGHT_BOUND = 20
# is_prefix_of_coxeter's orbit search for beta expands no tuple with a root
# taller than this many times height(beta), and the harvest none taller than
# this many times its height bound, so a harvest that finishes meets every
# tuple that the search for a root below its bound can meet.
DEFAULT_PRUNE_MULTIPLIER = 4


class Ternary(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


class Factorization(namedtuple("Factorization", "parts coxeter")):
    """Ordered tuple of reflections whose product is the ambient Coxeter element."""

    __slots__ = ()

    def __new__(cls, parts: tuple[Reflection, ...], coxeter: Matrix):
        self = tuple.__new__(cls, (parts, coxeter))
        self.__post_init__()
        return self

    def __post_init__(self):
        """The product check that __new__ runs, looked up through self so
        that a profiler or a test can wrap it: t_n, ..., t_1 applied to
        alpha_j must give column j of c.  The vector is a list updated in
        place, on the rows where the part's root is nonzero, and a part that
        pairs it to 0 leaves it as it is."""
        n = len(self.coxeter)
        parts = self.parts[::-1]
        if any(len(root) != n or len(coroot) != n for root, coroot in parts):
            raise ValueError("factorization product differs from the Coxeter element")
        for j, column in enumerate(zip(*self.coxeter)):
            v = [0] * n
            v[j] = 1
            for root, coroot in parts:
                k = sum(map(mul, coroot, v))
                if k:
                    for i, b in enumerate(root):
                        if b:
                            v[i] -= k * b
            if tuple(v) != column:
                raise ValueError("factorization product differs from the Coxeter element")

    @property
    def n(self) -> int:
        return len(self.parts)

    def roots(self) -> tuple[weyl.Root, ...]:
        return tuple(part.root for part in self.parts)


@functools.lru_cache(maxsize=None)
def canonical_factorization(
    C: CartanMatrix, order: tuple[int, ...] | None = None
) -> Factorization:
    """(s_{order(1)}, ..., s_{order(n)}), the factorization presented by the fan.
    Cached: a Factorization is immutable and checked when it is made."""
    order = weyl._check_order(C, order)
    parts = tuple(weyl.simple_reflection(C, i) for i in order)
    return Factorization(parts, coxeter_element(C, order))


class _ReflectionTable:
    """The reflections of W(C) that the orbit searches meet, and their moves.

    The searches move on nodes that are tuples of small-int root ids; the id
    format stays inside this module, and callers get roots or Factorizations
    back (harvest, hurwitz_orbit, apply_braid_word).  The table interns each
    positive real root once, with its height: roots[g] and heights[g] for id
    g, ids[root] for a root.  pairs maps an id pair (a, b) to the id of the
    root of t_a t_b t_a, so a pair met again costs one lookup (moved).

    reflections maps an id to its Reflection.  A start root gets its row
    from weyl.reflection_for_root when intern first meets it, which refuses
    a vector that is not a real root (ValueError), and a start part must
    equal its root's row (ArithmeticError otherwise).  Every other root is
    t_a(beta_b) up to sign for real roots beta_a and beta_b, so it is real,
    as W permutes the real roots.  Its row is phi_gamma = 2B(., gamma) /
    B(gamma, gamma), read off the symmetrized form (weyl.coroot_row) when
    the root first acts as t_a in a move, not when it is first met (or when
    a Factorization needs it; most roots a pruned search meets never act).

    The move at slot i (braid_move) sends (beta_a, beta_b) to (root of
    t_a t_b t_a, beta_a) and its inverse sends it to (beta_b, root of
    t_b t_a t_b).  Every row is the reflection s_gamma of W(C), and
    w s_beta w^-1 = s_{w beta} (Kac 5.1), so each move keeps the product of
    the tuple.  The start's product check therefore proves the product of
    every tuple reached from it: no tuple of a walk is checked again, and a
    braid word checks only its result (apply_braid_word).  Searches and
    braid words share one table per Cartan matrix (_root_tuples).
    """

    def __init__(self, C: CartanMatrix):
        self.cartan = C
        self.form = symmetrized(C)
        self.roots: list[Root] = []
        self.heights: list[int] = []
        self.ids: dict[Root, int] = {}
        self.reflections: dict[int, Reflection] = {}
        self.pairs: dict[tuple[int, int], int] = {}

    def intern(self, root: Root) -> int:
        """The id of a start root; a root met first gets its row from
        weyl.reflection_for_root, and only then is stored, with its height.
        A negative root is refused (ArithmeticError) and not stored."""
        g = self.ids.get(root)
        if g is None:
            row = weyl.reflection_for_root(self.cartan, root)
            if row.root != root:
                raise ArithmeticError(f"start root {root} is not a positive root")
            g = self._add(root, height(root))
            self.reflections[g] = row
        return g

    def _add(self, root: Root, h: int) -> int:
        g = self.ids[root] = len(self.roots)
        self.roots.append(root)
        self.heights.append(h)
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

    def factorization(self, node: IdTuple, coxeter: Matrix) -> Factorization:
        """The Factorization of a node's rows, product-checked again."""
        return Factorization(tuple(map(self.reflection, node)), coxeter)

    def reflection(self, g: int) -> Reflection:
        """The row of root id g, read off the form on first use."""
        row = self.reflections.get(g)
        if row is None:
            root = self.roots[g]
            row = Reflection(root, weyl.coroot_row(self.form, root))
            self.reflections[g] = row
        return row

    def moves(self, node: IdTuple) -> list[tuple[int, IdTuple]]:
        """(new, image) for the generator move and its inverse at every
        slot, in the order +1, -1, +2, -2, ...; the same moves braid_move
        makes.  new is the id of the one root the move creates:
        the move at slot i swaps beta_b (or beta_a, for the inverse) for it,
        so every other root of the image is a root of the node."""
        moved, found = self.moved, []
        for i in range(1, len(node)):
            a, b = node[i - 1], node[i]
            head, tail = node[: i - 1], node[i + 1 :]
            g = moved(a, b)
            found.append((g, head + (g, a) + tail))
            g = moved(b, a)
            found.append((g, head + (b, g) + tail))
        return found

    def images(self, node: IdTuple) -> list[IdTuple]:
        return [image for _, image in self.moves(node)]

    def generator_images(self, node: IdTuple) -> list[IdTuple]:
        """The images of node = (t_1, ..., t_n) under sigma_1 and
        delta = sigma_1 sigma_2 ... sigma_{n-1}, the word (1, 2, ..., n-1):
        (t_1 t_2 t_1, t_1) + node[2:] and (t_1 t_2 t_1, ..., t_1 t_n t_1, t_1).
        Only t_1 acts, one memoized pair per other root.  Rank 1 has no
        moves."""
        a, move = node[0], self.moved
        moved = [move(a, b) for b in node[1:]]
        if not moved:
            return []
        return [(moved[0], a) + node[2:], (*moved, a)]

    def moved(self, a: int, b: int) -> int:
        """Id of the root of t_a t_b t_a, which is t_a(beta_b) up to sign,
        read from the pair memo; a pair met first is moved and memoized.
        The sign is read once from the least and greatest coordinates, and
        the height of the positive root is its sum."""
        g = self.pairs.get((a, b))
        if g is not None:
            return g
        v = self.reflection(a).apply(self.roots[b])
        low, high = min(v), max(v)
        if low >= 0 < high:
            root = v
        elif high <= 0 > low:
            root = tuple([-x for x in v])
        else:  # mixed signs or zero: positive_part raises ValueError
            root = positive_part(v)
        g = self.ids.get(root)
        if g is None:
            g = self._add(root, sum(root))
        self.pairs[a, b] = g
        return g

    def walk(self, first: IdTuple, node_cap: int, expand_height: int,
             wanted=None) -> tuple[tuple[IdTuple, ...], bool, dict]:
        """The height-pruned orbit walk of the harvest and the targeted
        search: weyl._bounded_closure of first under moves, keeping at most
        node_cap tuples; returns (nodes, complete, made).

        No tuple with a root taller than expand_height is expanded.  wanted,
        when given, holds roots; once each of them has been met, no
        tuple is expanded at all.  A move's new root is the only root its
        image adds, so it is the one looked up, and made maps each wanted
        root outside first to the image tuple of the move that first created
        it.  That is read off the move list before the cap decides whether
        the image is kept, so a root first met in a dropped image counts as
        met.  wanted=None walks the whole bounded closure.
        """
        heights, stored = self.heights, self.roots
        made: dict[Root, IdTuple] = {}
        unmet = None if wanted is None else set(wanted).difference(self.roots_of(first))

        def images(node: IdTuple) -> list[IdTuple]:
            found = self.moves(node)
            if unmet:
                for g, image in found:
                    root = stored[g]
                    if root in unmet:
                        unmet.remove(root)
                        made[root] = image
            return [image for _, image in found]

        def expandable(node: IdTuple) -> bool:
            if unmet is not None and not unmet:
                return False  # every wanted root has been met
            return all(heights[g] <= expand_height for g in node)

        return (*weyl._bounded_closure([first], images, node_cap, expandable), made)

    def harvest(self, start: Factorization, node_cap: int, height_bound: int,
                roots: tuple[Root, ...] | None = None) -> tuple[set[Root], bool]:
        """Roots no taller than height_bound in the tuples of the walk from
        start that expands no tuple with a root taller than
        DEFAULT_PRUNE_MULTIPLIER * height_bound, and whether it finished
        below node_cap.  The prune height of the targeted search for any
        root no taller than height_bound is at most that.

        roots, when given, must hold every positive root no taller than
        height_bound that the walk can meet; they are the roots it wants, so
        it stops expanding once it has met them all, for it can add nothing
        more.  The harvest is still read from every kept tuple, and a
        harvested root outside roots raises ArithmeticError.
        """
        first, expand_height = self.admit(start), DEFAULT_PRUNE_MULTIPLIER * height_bound
        nodes, complete, _ = self.walk(first, node_cap, expand_height, roots)
        heights = self.heights
        found = {self.roots[g] for node in nodes for g in node if heights[g] <= height_bound}
        if roots is not None and not found.issubset(roots):
            raise ArithmeticError(
                f"harvested roots {sorted(found.difference(roots))} are not among the "
                "enumerated roots; upstream bug"
            )
        return found, complete


@functools.lru_cache(maxsize=None)
def _root_tuples(C: CartanMatrix) -> _ReflectionTable:
    """One table per Cartan matrix, shared by every start and search on C."""
    return _ReflectionTable(C)


def braid_move(table: _ReflectionTable, node: IdTuple, i: int, inverse: bool = False) -> IdTuple:
    """Generator move at slot i of a node of table:
    (t_a, t_b) -> (t_a t_b t_a, t_a), or (t_b, t_b t_a t_b) for the inverse
    move; the one moved root comes from _ReflectionTable.moved."""
    if not 1 <= i <= len(node) - 1:
        raise ValueError(f"braid index {i} out of range 1..{len(node) - 1}")
    a, b = node[i - 1], node[i]
    pair = (b, table.moved(b, a)) if inverse else (table.moved(a, b), a)
    return node[: i - 1] + pair + node[i + 1 :]


def apply_braid_word(C: CartanMatrix, f: Factorization, word: BraidWord) -> Factorization:
    """Apply the letters in sequence to f on the table of C; +i is the
    generator move, -i its inverse.  f is admitted once (a part that is not
    its root's row raises ArithmeticError), and the result is
    product-checked once."""
    table = _root_tuples(C)
    node = table.admit(f)
    for letter in word:
        if letter == 0 or abs(letter) > f.n - 1:
            raise ValueError(f"braid letter {letter} out of range for {f.n} strands")
        node = braid_move(table, node, abs(letter), inverse=letter < 0)
    return table.factorization(node, f.coxeter)


class OrbitResult:
    """The root-id tuples of an orbit, in discovery order, whether its
    closure finished, and the table it was walked on.  len() counts the
    tuples; roots reads them as sorted root tuples, sorted on each read, and
    table.factorization turns one into a product-checked Factorization.
    Immutable, and compared by identity."""

    __slots__ = ("nodes", "complete", "table")

    def __init__(self, nodes: tuple[IdTuple, ...], complete: bool, table: _ReflectionTable):
        for name, value in zip(self.__slots__, (nodes, complete, table)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an OrbitResult")

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def roots(self) -> tuple[RootTuple, ...]:
        """The root tuples, sorted."""
        return tuple(sorted(map(self.table.roots_of, self.nodes)))


def hurwitz_orbit(
    C: CartanMatrix, start: Factorization, node_cap: int = DEFAULT_NODE_CAP
) -> OrbitResult:
    """Breadth-first closure of a factorization of W(C) under braid moves,
    on root-id tuples.

    A finite type whose orbit fits the cap, n! h^n / |W| <= node_cap
    (factorization_count_formula), is walked under sigma_1 and delta =
    sigma_1 ... sigma_{n-1} alone (_ReflectionTable.generator_images).  The
    two generate the braid group, as delta sigma_i delta^-1 = sigma_{i+1}
    (Kassel and Turaev, "Braid Groups", GTM 247, 2008, 1.1), and each
    permutes the finite orbit, so its inverse is one of its powers and the
    closure under the forward moves is the whole orbit.  The formula only
    chooses the walk; a finished walk is the orbit whatever it says, and a
    walk stopped by the cap raises ArithmeticError.  Every other walk (a
    capped one, or one of an infinite type) takes the generator move and its
    inverse at every slot, which fixes the tuples a capped walk keeps.

    No Factorization is built per node.  The product of every tuple is
    certified by the start's product check, by the table's one row per root
    that acts, read off the form, and by w s_beta w^-1 = s_{w beta}, which
    makes each move keep the product (see _ReflectionTable).  A start part
    that is not the reflection of its root in W(C) is refused
    (ArithmeticError, or ValueError for a vector that is not a real root).

    complete is True iff the closure terminated below the node cap; this always
    happens for finite types, where the orbit is the full set of reduced
    reflection factorizations of c.
    """
    if node_cap < 1:
        raise ValueError("node cap must be >= 1")
    table = _root_tuples(C)
    first = table.admit(start)
    by_generators = (
        classify_type(C) is TypeClass.FINITE
        and factorization_count_formula(C) <= node_cap
    )
    moves = table.generator_images if by_generators else table.images
    nodes, complete = weyl._bounded_closure([first], moves, node_cap)
    if by_generators and not complete:
        raise ArithmeticError(
            f"the orbit has more than {node_cap} factorizations, more than "
            "the count formula gives; upstream bug"
        )
    return OrbitResult(nodes, complete, table)


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


class SearchOutcome(namedtuple("SearchOutcome", "found exhausted nodes")):
    """Result of a bounded targeted orbit search: the product-checked
    Factorization that starts with the target (or None), whether the search
    region was exhausted, and the nodes it met."""

    __slots__ = ()


def _targeted_orbit_search(
    C: CartanMatrix,
    start: Factorization,
    target: Reflection,
    node_cap: int,
    height_cap: int,
) -> SearchOutcome:
    """The orbit walk from start that wants the target's root
    (_ReflectionTable.walk): it keeps at most node_cap tuples, expands none
    with a root taller than height_cap, and stops expanding once a move has
    created the root, or at once if the start holds it.  That is sound for
    reporting found-witnesses, never for claiming absence.

    found is the finished witness, or None: the tuple that holds the root
    (the start, or the image of the move that created it) has the root
    brought from slot k + 1 to the front by the moves -k, ..., -1 of
    braid_move, still on root ids, and only then becomes a Factorization of
    the table's rows, product-checked once.  A witness whose first part is
    not the target raises ArithmeticError.  exhausted is True iff the walk
    finished below node_cap and no move created the root: the start holds
    it, or the walk never met it.
    """
    table = _root_tuples(C)
    first = table.admit(start)
    beta = target.root
    nodes, complete, made = table.walk(first, node_cap, height_cap, {beta})
    node = made.get(beta, first)
    roots = table.roots_of(node)
    if beta not in roots:
        return SearchOutcome(None, complete, len(nodes))
    for i in range(roots.index(beta), 0, -1):
        node = braid_move(table, node, i, inverse=True)
    found = table.factorization(node, start.coxeter)
    if found.parts[0] != target:
        raise ArithmeticError("rotated witness does not start with the target; upstream bug")
    return SearchOutcome(found, complete and beta not in made, len(nodes))


def dyer_prefix(C: CartanMatrix, t: Reflection, coxeter: Matrix) -> Factorization | None:
    """A factorization t r_2 ... r_n of the Coxeter element, or None when
    there is none: t c is a product of n - 1 reflections iff n - 1 letters of
    a reduced word of t c can be deleted to leave the identity (Dyer, "On
    minimal lengths of expressions of Coxeter group elements as products of
    reflections", Proc. AMS 129, 2001; see weyl.factor_into_reflections).
    Decided on every type; the witness is product-checked.  A search past
    weyl._DYER_CAP raises RuntimeError."""
    rest = weyl.factor_into_reflections(C, t.left_multiply(coxeter), C.n - 1)
    return None if rest is None else Factorization((t,) + rest, coxeter)


def _dyer_decides(C: CartanMatrix) -> bool:
    """Whether is_prefix_of_coxeter decides t <= c by dyer_prefix, checked by
    Carter's lemma: on finite types and rank 2.  Every other type takes the
    height-pruned orbit search, whose NO is never certified."""
    return C.n == 2 or classify_type(C) is TypeClass.FINITE


class PrefixVerdict(
    namedtuple("PrefixVerdict", "answer factorization exhausted", defaults=(True,))
):
    """Answer to 'is t the first reflection of some length-n factorization of c'.

    A YES always carries a witness factorization whose first part is t.
    exhausted reports whether a NO/UNKNOWN came from a fully explored search
    region (below the pruning bound) rather than from hitting the node cap.
    """

    __slots__ = ()


def is_prefix_of_coxeter(
    beta: Root,
    C: CartanMatrix,
    order: tuple[int, ...] | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
) -> PrefixVerdict:
    """Certify that the reflection t of the real root beta (either sign)
    extends to a reflection factorization t r_2 ... r_n = c.

    t is built by weyl.reflection_for_root, so a beta that is not a real root
    of C raises ValueError on every type.  Finite types and rank 2
    (_dyer_decides) are decided by dyer_prefix, so a search of the deletions
    that finds none is a NO.  Carter's lemma gives the same answer
    independently, as rank(t c - id) = n - 1 ("Conjugacy classes in the Weyl
    group", Compositio 1972, Lemma 2; on rank 2, t c has determinant -1, so
    rank 1 makes it a reflection), and the two are cross-checked.  Other
    infinite types report YES with a certificate or UNKNOWN, never an
    uncertified NO.  Their certificate comes from the orbit walk of the
    canonical factorization, on root-id tuples, that wants the root of t
    and does not expand tuples with a root taller than
    DEFAULT_PRUNE_MULTIPLIER times the height of beta
    (_targeted_orbit_search).  The search hands back the finished witness,
    which starts with t and is product-checked once.
    """
    t = weyl.reflection_for_root(C, beta)
    canonical = canonical_factorization(C, order)
    c = canonical.coxeter
    n = C.n

    if _dyer_decides(C):
        witness = dyer_prefix(C, t, c)
        # Carter reads t^{-1} c = t c, reflections being involutions.
        carter = rank(mat_sub(t.left_multiply(c), identity(n))) == n - 1
        if carter != (witness is not None):
            raise ArithmeticError(
                "Carter's rank route and the reflection search disagree; upstream bug"
            )
        if witness is None:
            return PrefixVerdict(Ternary.NO, None)
        return PrefixVerdict(Ternary.YES, witness)

    # Orbit certificate search, pruned by component root height.
    height_cap = DEFAULT_PRUNE_MULTIPLIER * height(t.root)
    outcome = _targeted_orbit_search(C, canonical, t, node_cap, height_cap)
    if outcome.found is not None:
        return PrefixVerdict(Ternary.YES, outcome.found)
    return PrefixVerdict(Ternary.UNKNOWN, None, exhausted=outcome.exhausted)


def stabilizer_check(
    word: BraidWord, C: CartanMatrix, order: tuple[int, ...] | None = None
) -> bool:
    """True iff the braid word fixes the canonical factorization componentwise
    (the `braid stab` command)."""
    start = canonical_factorization(C, order)
    return apply_braid_word(C, start, word).parts == start.parts
