"""Exact model of the Weyl group acting on the root lattice.

Roots are integer coordinate tuples in the simple-root basis; height is the L1
norm.  A reflection is its root and coroot row; other group elements are n x n
integer matrices (column j = image of alpha_j), so equality stays decidable
even for infinite groups.  A product of reflections, the Coxeter element
among them, is reflection_product: one fold of Reflection.left_multiply.

The tables of a finite-type group (enumerate_group, _absolute_length_table)
hold an element w as the root ids of its columns w(alpha_1), ..., w(alpha_n),
with the ids of _root_ids.  Two modules read that format: this one, and
ncposet.enumerate_nc, which reads _absolute_length_table,
_matrix_permutation, _element_ids, _act_on, _element_matrix and
_root_ids(C).permutations; ROADMAP item 4's descent from c, which needs no
group table, removes that second reader.  Left multiplication by x is then
x's permutation of the root ids applied to each id, and _act_on(w), built
once per element w, is x -> x w for every x, so a node of a walk makes all
its products with one lookup function; _element_matrix turns an element
back into its matrix.  One breadth-first walk of the identity under every
reflection builds both tables: an element's level in it is its absolute
length, by definition, and enumerate_group is the set of elements the walk
met.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from operator import itemgetter, mul

from . import _matrix as _mat
from ._matrix import Matrix, Vector, identity, mat_sub, matmul
from .cartan import (
    CartanMatrix,
    TypeClass,
    _bounded_closure,
    classify_type,
    components,
    symmetrized,
    symmetrizer,
)

Root = Vector


class Reflection(namedtuple("Reflection", "root coroot")):
    """v -> v - phi(v) beta for a real root beta, where the integer row
    phi = coroot gives phi(v) = <v, beta^vee>; phi(beta) = 2 is checked."""

    __slots__ = ()

    def __new__(cls, root: Root, coroot: Vector):
        if sum(map(mul, coroot, root)) != 2:
            raise ArithmeticError(f"{coroot} does not pair {root} to 2; upstream bug")
        return tuple.__new__(cls, (root, coroot))

    def pair(self, v: Vector) -> int:
        return sum(map(mul, self.coroot, v))

    def apply(self, v: Vector) -> Vector:
        k = self.pair(v)
        return tuple(x - k * b for x, b in zip(v, self.root))

    def left_multiply(self, m: Matrix) -> Matrix:
        """t m = m - beta (phi m), row by row, without t's matrix: with the
        row k = phi m, row i becomes row_i - beta_i k, and a row with
        beta_i = 0 is reused as it is."""
        coroot = self.coroot
        k = [sum(map(mul, coroot, column)) for column in zip(*m)]
        return tuple(
            tuple([x - b * y for x, y in zip(row, k)]) if b else row
            for b, row in zip(self.root, m)
        )

    @property
    def matrix(self) -> Matrix:
        """t's matrix id - beta phi, made as t id by left_multiply; read only
        at the CLI boundary (cli._parse_element)."""
        return self.left_multiply(identity(len(self.root)))


def height(v: Root) -> int:
    return sum(abs(x) for x in v)


def is_positive(v: Root) -> bool:
    return any(v) and all(x >= 0 for x in v)


def is_negative(v: Root) -> bool:
    return any(v) and all(x <= 0 for x in v)


def negate(v: Root) -> Root:
    return tuple(-x for x in v)


def positive_part(v: Root) -> Root:
    """The positive vector among v and -v; rejects zero and mixed-sign input."""
    if is_positive(v):
        return v
    if is_negative(v):
        return negate(v)
    problem = "has mixed signs" if any(v) else "is the zero vector"
    raise ValueError(f"{v} {problem}, so it is not a real root")


def simple_root(n: int, i: int) -> Root:
    """Coordinate vector of alpha_i (1-based)."""
    if not 1 <= i <= n:
        raise ValueError(f"index {i} out of range 1..{n}")
    return tuple(1 if k == i - 1 else 0 for k in range(n))


@functools.lru_cache(maxsize=None)
def simple_reflection(C: CartanMatrix, i: int) -> Reflection:
    """s_i acting by alpha_j -> alpha_j - a_ij alpha_i: its coroot row is row i."""
    n = C.n
    if not 1 <= i <= n:
        raise ValueError(f"index {i} out of range 1..{n}")
    return Reflection(simple_root(n, i), C.entries[i - 1])


def _check_order(C: CartanMatrix, order: tuple[int, ...] | None) -> tuple[int, ...]:
    if order is None:
        return tuple(range(1, C.n + 1))
    if sorted(order) != list(range(1, C.n + 1)):
        raise ValueError(f"{order} is not a permutation of 1..{C.n}")
    return tuple(order)


def reflection_product(parts, n: int) -> Matrix:
    """The n x n matrix t_1 ... t_k of the reflections parts = (t_1, ..., t_k):
    the identity left-multiplied by t_k, ..., t_1 (Reflection.left_multiply),
    with no matrix of any t_i.  The package's one product of reflections."""
    return functools.reduce(lambda m, t: t.left_multiply(m), reversed(parts), identity(n))


def coxeter_element(C: CartanMatrix, order: tuple[int, ...] | None = None) -> Matrix:
    """Product s_{order(1)} ... s_{order(n)}; default order is 1, 2, ..., n.
    The reflection_product of the simple reflections in that order."""
    parts = [simple_reflection(C, i) for i in _check_order(C, order)]
    return reflection_product(parts, C.n)


def _moved_direction(m: Matrix) -> Vector | None:
    """The primitive vector along m's first column that differs from the
    identity's, or None for the identity.  For a reflection t_beta,
    t_beta - id = -beta phi, so this is +-beta."""
    for j, column in enumerate(zip(*m)):
        moved = tuple(x - (i == j) for i, x in enumerate(column))
        if any(moved):
            return _mat.primitive(moved)
    return None


def root_of_reflection(t: Matrix) -> Root:
    """The primitive positive generator of the image lattice of t - id."""
    n = len(t)
    generator = _moved_direction(t)
    if generator is None:
        raise ValueError("identity matrix is not a reflection")
    moved = mat_sub(t, identity(n))
    columns = [tuple(moved[row][col] for row in range(n)) for col in range(n)]
    # Every column must be an integer multiple of the generator (rank 1).
    pivot = next(i for i, x in enumerate(generator) if x)
    for col in columns:
        ratio, remainder = divmod(col[pivot], generator[pivot])
        if remainder or any(col[i] != ratio * generator[i] for i in range(n)):
            raise ValueError("matrix does not move a rank-1 sublattice")
    if matmul(t, t) != identity(n):
        raise ValueError("matrix is not an involution")
    return positive_part(generator)


def coroot_row(form: Matrix, beta: Root) -> Vector:
    """The coroot row phi_beta = 2B(., beta) / B(beta, beta) of a real root
    beta, read off the symmetrized form B (cartan.symmetrized), so that
    phi_beta(v) = <v, beta^vee> (Kac, "Infinite-dimensional Lie algebras",
    1990, 5.1).  Row entry i is 2B(alpha_i, beta) / B(beta, beta), and B
    is symmetric, so B(alpha_i, beta) is line i of the form against beta.
    The row of every real root is integral; a non-positive norm or a row
    that is not integral raises ArithmeticError."""
    column = _mat.matvec(form, beta)
    norm = sum(map(mul, beta, column))
    if norm <= 0 or any(2 * x % norm for x in column):
        raise ArithmeticError(f"{beta} has no integral coroot row; it is not a real root")
    return tuple([2 * x // norm for x in column])


def reflection_for_root(C: CartanMatrix, beta: Root) -> Reflection:
    """The reflection v -> v - <v, beta^vee> beta of a real root beta.

    Either sign of beta is accepted; every vector that is not a real root
    raises ValueError.  The norm tests filter first: B(beta, beta) =
    sum_i d_i beta_i <beta, alpha_i^vee>, read off the pairing vector that
    the descent starts from, must be positive and equal some simple-root
    norm 2 d_i.  Then beta descends: while it is not a simple root, the
    first simple reflection s_i with <beta, alpha_i^vee> > 0 is applied.  A
    positive real root other than a simple root has such an i, and s_i takes
    it to a lower positive real root (Kac, "Infinite-dimensional Lie
    algebras", 1990, 5.1), so beta is real iff the descent reaches some
    alpha_j, which takes fewer than height(beta) steps.  A descent that has
    not ended after _DYER_CAP steps raises RuntimeError, as _peel does; every
    root no taller than _DYER_CAP is decided.  The descent is the gate only:
    the coroot row of the real root it admits is coroot_row's.
    """
    n = C.n
    if len(beta) != n:
        raise ValueError("rank mismatch")
    beta = positive_part(beta)
    a, d = C.entries, symmetrizer(C)
    v = list(beta)
    # pairing[i] = <v, alpha_i^vee>, updated along with v.
    pairing = list(_mat.matvec(a, beta))
    norm = sum(map(mul, d, map(mul, beta, pairing)))
    if norm <= 0:
        raise ValueError(f"{beta} has non-positive norm, so it is not a real root")
    if norm not in {2 * x for x in d}:
        raise ValueError(f"{beta} has norm {norm}, not the norm of any simple root")
    for _ in range(_DYER_CAP):
        if sum(v) == 1:
            break
        i = next((i for i in range(n) if pairing[i] > 0), None)
        if i is None or v[i] < pairing[i]:
            raise ValueError(f"{beta} is not a real root")
        step = pairing[i]
        v[i] -= step
        for k in range(n):
            pairing[k] -= step * a[k][i]
    else:
        raise RuntimeError(f"root descent exceeded the safety cap of {_DYER_CAP} steps")
    return Reflection(beta, coroot_row(symmetrized(C), beta))


_FINITE_CLOSURE_CAP = 2_000_000


def positive_real_roots(C: CartanMatrix, height_bound: int) -> tuple[Root, ...]:
    """All positive real roots of height <= bound, sorted by (height, coords).

    Closure of the simple roots under the simple reflections; pruning at the
    bound is exhaustive because every non-simple positive real root has a
    height-decreasing simple reflection.  For finite types the closure is run
    to completion regardless of the bound, so the result holds every positive
    root: `roots list` and `schur list` list them all whatever --height says,
    and group_order and _reflection_pool read them all through (C, 1).
    Callers that want the cut, such as schur.verify_conjecture, filter by
    height themselves.

    s_i(beta) = beta - k alpha_i with k = <beta, alpha_i^vee> (row i of C
    against beta) changes coordinate i alone, so the image is that one
    coordinate rewritten, of height height(beta) - k.  A pairing of 0 gives
    beta back and is skipped; a negative coordinate i means beta = alpha_i,
    the one positive root that s_i makes negative.
    """
    if height_bound < 1:
        raise ValueError("height bound must be >= 1")
    bound = float("inf") if classify_type(C) is TypeClass.FINITE else height_bound

    def moves(beta: Root) -> list[Root]:
        images = []
        h = sum(beta)
        for i, k in enumerate(_mat.matvec(C.entries, beta)):
            if k and beta[i] >= k and h - k <= bound:
                images.append(beta[:i] + (beta[i] - k,) + beta[i + 1 :])
        return images

    starts = [simple_root(C.n, i) for i in range(1, C.n + 1)]
    found, complete = _bounded_closure(starts, moves, _FINITE_CLOSURE_CAP)
    if not complete:
        raise RuntimeError("root closure exceeded safety cap")
    return tuple(sorted(found, key=lambda r: (height(r), r)))


def enumerate_real_roots(C: CartanMatrix, height_bound: int) -> tuple[Root, ...]:
    """Positive and negative real roots with height <= bound (exhaustive for finite)."""
    positives = positive_real_roots(C, height_bound)
    both = positives + tuple(negate(r) for r in positives)
    return tuple(sorted(both, key=lambda r: (height(r), r)))


@functools.lru_cache(maxsize=None)
def reflections(C: CartanMatrix) -> tuple[Reflection, ...]:
    """All reflections of a finite-type group, one per positive root."""
    if classify_type(C) is not TypeClass.FINITE:
        raise ValueError("full reflection set requires a finite-type matrix")
    return _reflection_pool(C)


@functools.lru_cache(maxsize=None)
def _reflection_pool(C: CartanMatrix) -> tuple[Reflection, ...]:
    return tuple(reflection_for_root(C, beta) for beta in positive_real_roots(C, 1))


@functools.lru_cache(maxsize=None)
def group_order(C: CartanMatrix) -> int:
    """|W| of a finite-type group, read off its positive roots without
    enumerating W: the product over beta in Phi+ of (ht beta + 1) / ht beta.

    That is the Poincare polynomial prod (1 - t^(ht beta + 1)) / (1 - t^ht beta)
    at t = 1 (Macdonald, "The Poincare series of a Coxeter group", Math. Ann.
    199, 1972).  Numerator and denominator are exact integers; a division
    that leaves a remainder raises ArithmeticError.
    """
    if classify_type(C) is not TypeClass.FINITE:
        raise ValueError("group enumeration requires a finite-type matrix")
    numerator = denominator = 1
    for beta in positive_real_roots(C, 1):
        h = height(beta)
        numerator *= h + 1
        denominator *= h
    order, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(
            f"height product {numerator}/{denominator} is not an integer; upstream bug"
        )
    return order


_ORDER_SEARCH_CAP = 10_000


@functools.lru_cache(maxsize=None)
def coxeter_number(C: CartanMatrix) -> int:
    """Multiplicative order h of the Coxeter element (finite type only)."""
    if classify_type(C) is not TypeClass.FINITE:
        raise ValueError("Coxeter number requires a finite-type matrix")
    c, one = coxeter_element(C), identity(C.n)
    power = c
    for h in range(1, _ORDER_SEARCH_CAP + 1):
        if power == one:
            return h
        power = matmul(power, c)
    raise ArithmeticError("finite-type Coxeter element must have finite order")


Element = tuple[int, ...]  # root ids of w(alpha_1), ..., w(alpha_n)


class _RootIds:
    """The root system Phi of a finite type: roots, the positive roots in
    the order of reflections(C) and then their negatives in the same order;
    index, the id of each root; permutations, the permutation of the ids
    made by each reflection of reflections(C), in that order.  A plain
    class: a namedtuple would cost every cold command its class build."""

    __slots__ = ("roots", "index", "permutations")

    def __init__(
        self,
        roots: tuple[Root, ...],
        index: dict[Root, int],
        permutations: tuple[Element, ...],
    ):
        self.roots, self.index, self.permutations = roots, index, permutations


def _permute(roots, index, act) -> Element:
    """The ids of act(beta) for the roots beta in id order; an image outside
    Phi raises ArithmeticError."""
    try:
        return tuple([index[act(beta)] for beta in roots])
    except KeyError as exc:
        raise ArithmeticError(f"image {exc.args[0]} is not a root; upstream bug") from None


@functools.lru_cache(maxsize=None)
def _root_ids(C: CartanMatrix) -> _RootIds:
    """Phi with its ids and each reflection as a permutation of them, built
    by Reflection.apply on every root (finite type only, ValueError
    otherwise).  A group element permutes Phi, and its columns are roots, so
    the ids of its columns determine it."""
    ts = reflections(C)
    positives = tuple(t.root for t in ts)
    roots = positives + tuple(map(negate, positives))
    index = {beta: k for k, beta in enumerate(roots)}
    return _RootIds(roots, index, tuple(_permute(roots, index, t.apply) for t in ts))


def _act_on(w: Element):
    """x -> x w, for x given as its permutation of the root ids: w's ids
    looked up in x's permutation.  One function serves every product with w
    as its right factor.  itemgetter of one id returns that id, not a
    1-tuple, so rank 1 takes the branch."""
    if len(w) == 1:
        (k,) = w
        return lambda permutation: (permutation[k],)
    return itemgetter(*w)


def _element_ids(C: CartanMatrix, m: Matrix) -> Element:
    """The element of the finite-type matrix m: the ids of its columns."""
    index = _root_ids(C).index
    try:
        return tuple([index[column] for column in zip(*m)])
    except KeyError as exc:
        raise ArithmeticError(f"column {exc.args[0]} is not a root; upstream bug") from None


def _matrix_permutation(C: CartanMatrix, m: Matrix) -> Element:
    """m's permutation of the root ids, for m in the finite-type group; a
    matrix that sends a root outside Phi raises ArithmeticError."""
    table = _root_ids(C)
    return _permute(table.roots, table.index, lambda beta: _mat.matvec(m, beta))


def _element_matrix(C: CartanMatrix, w: Element) -> Matrix:
    """The matrix of an element: its columns are the roots of its ids."""
    roots = _root_ids(C).roots
    return tuple(zip(*(roots[k] for k in w)))


@functools.lru_cache(maxsize=None)
def enumerate_group(C: CartanMatrix) -> frozenset[Element]:
    """All elements of a finite-type group, as root-id tuples: the keys of
    _absolute_length_table(C), which walks the group and refuses it past
    the cap (ValueError)."""
    return frozenset(_absolute_length_table(C))


@functools.lru_cache(maxsize=None)
def _absolute_length_table(C: CartanMatrix) -> dict[Element, int]:
    """Absolute length of every element of a finite-type group, keyed by its
    root ids.

    The absolute length of w is by definition its distance from the
    identity in the Cayley graph on all reflections T, so the table is one
    breadth-first walk: the closure of the identity (the ids of the simple
    roots) under left multiplication by every reflection, each t w being t's
    permutation of Phi applied to w's n ids, with each element's length one
    more than that of its parent in the walk.  Carter's lemma, l(w) =
    rank(w - id) ("Conjugacy classes in the Weyl group", Compositio 1972,
    Lemma 2), is the reference the tests hold it to
    (tests/test_group_id_table.py, tests/test_matrix.py).

    A group with more than _FINITE_CLOSURE_CAP elements is refused before
    any table is built (ValueError).  The walk keeps at most group_order(C)
    elements and must find exactly that many (ArithmeticError otherwise), so
    it cannot run away; since group_order reads |W| off the roots, not the
    group, this compares two independent routes.
    """
    order = group_order(C)
    if order > _FINITE_CLOSURE_CAP:
        raise ValueError(
            f"the Weyl group has {order} elements, more than the enumeration cap "
            f"of {_FINITE_CLOSURE_CAP}"
        )
    one = _element_ids(C, identity(C.n))
    permutations = _root_ids(C).permutations

    def moves(w: Element) -> list[Element]:
        return list(map(_act_on(w), permutations))

    parents: dict[Element, Element | None] = {}
    _, complete = _bounded_closure([one], moves, order, parents=parents)
    table: dict[Element, int] = {}
    for w, parent in parents.items():  # a parent is met before its children
        table[w] = 0 if parent is None else table[parent] + 1
    if not complete or len(table) != order:
        raise ArithmeticError(
            f"enumerated {len(table)} group elements, but |W| = {order}; upstream bug"
        )
    return table


def length_lower_bound(w: Matrix) -> int:
    """rank(w - id), raised by one when determinant parity rules that value out.

    Any product of k reflections moves a sublattice of rank at most k and has
    determinant (-1)^k, so a length equal to this bound is certified minimal.
    On finite types the bound is exact (Carter's lemma).
    """
    r = _mat.rank(mat_sub(w, identity(len(w))))
    return r if _mat.det(w) == (-1) ** r else r + 1


_DYER_CAP = 100_000


@functools.lru_cache(maxsize=None)
def _fundamental_sets(C: CartanMatrix) -> tuple[tuple[int, ...], ...]:
    """The diagram components S with sum_{j in S} a_ij <= 0 for every i in S.

    Their indicator u_S pairs to <u_S, alpha_i^vee> <= 0 with every simple
    coroot (off S, a_ij <= 0 already), so u_S lies in Kac's fundamental set K
    of imaginary roots ("Infinite-dimensional Lie algebras", 1990, ch. 5) and
    w u_S >= u_S >= 0 for every w in W: along a reduced word
    w = s_{i_1} ... s_{i_m}, w u = u - sum_p <u, alpha_{i_p}^vee> beta_p, where
    beta_p = s_{i_1} ... s_{i_{p-1}} alpha_{i_p} is a positive root.
    Finite-type components have no such S.
    """
    a = C.entries
    return tuple(
        S for S in components(a) if all(sum(a[i][j] for j in S) <= 0 for i in S)
    )


def _peel(C: CartanMatrix, w: Matrix):
    """Peel right descents: while some column w' alpha_j of w' (at first w)
    is negative, yield (j, -w' alpha_j) and replace w' by w' s_j, whose column
    k is w' alpha_k - a_jk w' alpha_j.  An element of W ends at the identity
    after l(w) steps, and the letters j + 1, last first, spell a reduced word
    of w; a matrix that ends elsewhere is not in W (ValueError),
    and one that has not ended after _DYER_CAP steps raises RuntimeError.
    Before any step, w u_S = sum_{j in S} w alpha_j must be non-negative for
    each S of _fundamental_sets; a matrix that fails is not in W
    (ValueError), so -id of an infinite group is refused at once.  The test
    is necessary only, and the cap stays.
    """
    n, a = C.n, C.entries
    if len(w) != n:
        raise ValueError("rank mismatch")
    columns = tuple(zip(*w))
    for S in _fundamental_sets(C):
        if any(x < 0 for x in map(sum, zip(*(columns[j] for j in S)))):
            raise ValueError("matrix is not an element of the Weyl group")
    for _ in range(_DYER_CAP + 1):
        j = next((j for j, column in enumerate(columns) if is_negative(column)), None)
        if j is None:
            if columns != identity(n):
                raise ValueError("matrix is not an element of the Weyl group")
            return
        step = columns[j]
        yield j, negate(step)
        columns = tuple(
            tuple(x - a[j][k] * y for x, y in zip(column, step)) if a[j][k] else column
            for k, column in enumerate(columns)
        )
    raise RuntimeError(f"reduced word exceeded the safety cap of {_DYER_CAP} steps")


def factor_into_reflections(
    C: CartanMatrix, w: Matrix, count: int
) -> tuple[Reflection, ...] | None:
    """Reflections r_1, ..., r_count of W with r_1 ... r_count = w, or None.

    Dyer ("On minimal lengths of expressions of Coxeter group elements as
    products of reflections", Proc. AMS 129, 2001): for a reduced word
    w = s_{i_1} ... s_{i_m}, l_T(w) is the least number of letters whose
    deletion leaves a word for the identity.  Deleting the letter at p
    multiplies w on the left by the left inversion t_p, whose root is
    s_{i_1} ... s_{i_{p-1}} alpha_{i_p}, and deleting p_1 < ... < p_k from
    the right leaves t_{p_1} ... t_{p_k} w.  So the search tries
    w = t_{p_k} ... t_{p_1}, positions in decreasing order, the order in
    which _peel yields the roots of the t_p.  It finds an expression whenever
    count = l_T(w) and none when count < l_T(w).  Pruned by parity
    (det w = (-1)^l(w)) and by rank(target - id) <= k, as k reflections move
    a sublattice of rank at most k.  The last factor is looked up by the root
    _moved_direction reads off the target, not searched.  More than _DYER_CAP
    nodes raise RuntimeError.  The rank test runs on w before the peel, so a
    count it rules out costs no reduced word; only then does the peel refuse a
    matrix outside W (ValueError).
    """
    one = identity(C.n)

    def moves_too_much(target: Matrix, k: int) -> bool:
        return k < C.n and _mat.rank(mat_sub(target, one)) > k

    if count < 0 or moves_too_much(w, count):
        return None
    steps = list(_peel(C, w))
    if (len(steps) - count) % 2:
        return None
    form = symmetrized(C)
    inversions = [Reflection(beta, coroot_row(form, beta)) for _, beta in steps]
    index = {t.root: a for a, t in enumerate(inversions)}
    nodes = 0

    def search(target: Matrix, k: int, after: int) -> tuple[Reflection, ...] | None:
        nonlocal nodes
        nodes += 1
        if nodes > _DYER_CAP:
            raise RuntimeError(f"reflection search exceeded the safety cap of {_DYER_CAP} nodes")
        if k == 0:
            return () if target == one else None
        if k == 1:
            beta = _moved_direction(target)
            if beta is not None and is_negative(beta):
                beta = negate(beta)
            a = index.get(beta, after)
            if a > after and inversions[a].left_multiply(target) == one:
                return (inversions[a],)
            return None
        if moves_too_much(target, k):
            return None
        for a in range(after + 1, len(inversions) - k + 1):
            rest = search(inversions[a].left_multiply(target), k - 1, a)
            if rest is not None:
                return (inversions[a],) + rest
        return None

    return search(w, count, -1)


def absolute_length(C: CartanMatrix, w: Matrix) -> int:
    """Minimal number of reflections multiplying to w, exact on every type.

    The first k = length_lower_bound(w), k + 2, ... for which
    factor_into_reflections finds an expression (Dyer); deleting every letter
    of a reduced word leaves the identity, so the loop ends by k = l(w).  The
    peel of w refuses a matrix outside W (ValueError).
    """
    k = length_lower_bound(w)
    while factor_into_reflections(C, w, k) is None:
        k += 2
    return k
