"""Exact model of the Weyl group acting on the root lattice.

Roots are integer coordinate tuples in the simple-root basis; height is the L1
norm.  A reflection is its root and coroot row; other group elements are n x n
integer matrices (column j = image of alpha_j), so equality stays decidable
even for infinite groups.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass
from operator import mul

from . import _matrix as _mat
from ._matrix import Matrix, Vector, identity, mat_sub, matmul
from .cartan import (
    CartanMatrix,
    TypeClass,
    classify_type,
    components,
    submatrix,
    symmetrized,
    symmetrizer,
)

Root = Vector


@dataclass(frozen=True)
class Reflection:
    """v -> v - phi(v) beta for a real root beta, where the integer row
    phi = coroot gives phi(v) = <v, beta^vee>; phi(beta) = 2 is checked."""

    root: Root
    coroot: Vector

    def __post_init__(self):
        if self.pair(self.root) != 2:
            raise ArithmeticError(f"{self.coroot} does not pair {self.root} to 2; upstream bug")

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

    @functools.cached_property
    def matrix(self) -> Matrix:
        """id - beta phi, read only at the CLI boundary (cli._parse_element)."""
        return tuple(
            tuple(int(i == j) - b * p for j, p in enumerate(self.coroot))
            for i, b in enumerate(self.root)
        )


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


def bilinear(C: CartanMatrix, u: Root, v: Root) -> int:
    """Symmetrized invariant form B(u, v) = sum d_i a_ij u_i v_j."""
    s = symmetrized(C)
    return sum(s[i][j] * u[i] * v[j] for i in range(C.n) for j in range(C.n))


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


def simple_reflections(C: CartanMatrix) -> tuple[Reflection, ...]:
    return tuple(simple_reflection(C, i) for i in range(1, C.n + 1))


def _check_order(C: CartanMatrix, order: tuple[int, ...] | None) -> tuple[int, ...]:
    if order is None:
        return tuple(range(1, C.n + 1))
    if sorted(order) != list(range(1, C.n + 1)):
        raise ValueError(f"{order} is not a permutation of 1..{C.n}")
    return tuple(order)


def coxeter_element(C: CartanMatrix, order: tuple[int, ...] | None = None) -> Matrix:
    """Product s_{order(1)} ... s_{order(n)}; default order is 1, 2, ..., n.

    Built by column updates: s_i = id - alpha_i (row i of C), so
    c s_i = c - (c alpha_i) (row i of C), with no matrix of s_i.
    """
    c = identity(C.n)
    for i in _check_order(C, order):
        a_i = C.entries[i - 1]
        c = tuple(tuple([x - row[i - 1] * a for x, a in zip(row, a_i)]) for row in c)
    return c


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


def reflection_for_root(C: CartanMatrix, beta: Root) -> Reflection:
    """The reflection v -> v - <v, beta^vee> beta of a real root beta.

    Either sign of beta is accepted; every vector that is not a real root
    raises ValueError.  The norm tests filter first: B(beta, beta) must equal
    some simple-root norm 2 d_i.  Then beta descends: while it is not a simple
    root, the first simple reflection s_i with <beta, alpha_i^vee> > 0 is
    applied.  A positive real root other than a simple root has such an i, and
    s_i takes it to a lower positive real root (Kac, "Infinite-dimensional Lie
    algebras", 1990, 5.1), so beta is real iff the descent reaches some
    alpha_j, which takes at most height(beta) steps.  The descent word w gives
    beta = w alpha_j and beta^vee = w alpha_j^vee, whence the coroot row.
    """
    n = C.n
    if len(beta) != n:
        raise ValueError("rank mismatch")
    beta = positive_part(beta)
    norm = bilinear(C, beta, beta)
    if norm <= 0:
        raise ValueError(f"{beta} has non-positive norm, so it is not a real root")
    if norm not in {2 * d for d in symmetrizer(C)}:
        raise ValueError(f"{beta} has norm {norm}, not the norm of any simple root")
    a = C.entries
    v = list(beta)
    # pairing[i] = <v, alpha_i^vee>, updated along with v.
    pairing = [sum(a[i][j] * v[j] for j in range(n)) for i in range(n)]
    word = []
    while sum(v) != 1:
        i = next((i for i in range(n) if pairing[i] > 0), None)
        if i is None or v[i] < pairing[i]:
            raise ValueError(f"{beta} is not a real root")
        step = pairing[i]
        v[i] -= step
        for k in range(n):
            pairing[k] -= step * a[k][i]
        word.append(i)
    coroot = v  # v is alpha_j; alpha_j^vee has the same simple-coroot coordinates
    for i in reversed(word):
        coroot[i] -= sum(a[k][i] * coroot[k] for k in range(n))
    row = tuple(sum(coroot[i] * a[i][col] for i in range(n)) for col in range(n))
    return Reflection(beta, row)


def _bounded_closure(starts, moves, node_cap, expand=None):
    """Breadth-first closure of the starts under moves, keeping at most
    node_cap nodes; returns (nodes in discovery order, complete).

    moves(node) yields the node's images.  An image not met before is kept
    while fewer than node_cap nodes are kept; otherwise it is dropped and
    complete becomes False.  A kept node for which expand(node) is false is
    recorded but not expanded.
    """
    seen = dict.fromkeys(starts)
    queue = deque(seen)
    complete = True
    while queue:
        node = queue.popleft()
        if expand is not None and not expand(node):
            continue
        for image in moves(node):
            if image in seen:
                continue
            if len(seen) >= node_cap:
                complete = False
                continue
            seen[image] = None
            queue.append(image)
    return tuple(seen), complete


_FINITE_CLOSURE_CAP = 2_000_000


def positive_real_roots(C: CartanMatrix, height_bound: int) -> tuple[Root, ...]:
    """All positive real roots of height <= bound, sorted by (height, coords).

    Closure of the simple roots under the simple reflections; pruning at the
    bound is exhaustive because every non-simple positive real root has a
    height-decreasing simple reflection.  For finite types the closure is run
    to completion regardless of the bound.
    """
    if height_bound < 1:
        raise ValueError("height bound must be >= 1")
    unbounded = classify_type(C) is TypeClass.FINITE
    gens = simple_reflections(C)

    def moves(beta: Root):
        for g in gens:
            image = g.apply(beta)
            # Only beta = alpha_i flips, and -alpha_i is recorded via pairing.
            if is_positive(image) and (unbounded or height(image) <= height_bound):
                yield image

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
    """|W| of a finite-type group, by orbit-stabilizer along a chain of
    parabolic subgroups, without enumerating W.

    The stabilizer of a dominant weight is the standard parabolic subgroup
    generated by the simple reflections fixing it (Chevalley; Humphreys,
    "Reflection Groups and Coxeter Groups", 1990, 1.10-1.12), so
    |W(C)| = |W omega_i| |W(C without vertex i)|; the submatrix may be
    reducible.  Each step peels the vertex whose weight orbit is smallest,
    each candidate's closure capped at the smallest orbit found so far: on
    B_n, C_n and D_n that is omega_1, with 2n elements, where omega_n has
    2^n or 2^(n-1).  Orbits are taken in fundamental-weight coordinates, where
    alpha_i = sum_j a_ji omega_j and s_i(lambda) = lambda - lambda_i alpha_i,
    so s_i changes only lambda_i and the coordinates of i's neighbours.
    """
    if classify_type(C) is not TypeClass.FINITE:
        raise ValueError("group enumeration requires a finite-type matrix")

    def moves(weight: Vector):  # on the current step's columns
        for i, column in enumerate(columns):
            coefficient = weight[i]
            if coefficient:  # s_i fixes the weight when lambda_i = 0
                image = list(weight)
                for j, a_ji in column:
                    image[j] -= coefficient * a_ji
                yield tuple(image)

    order = 1
    while True:
        n = C.n
        # columns[i]: the (j, a_ji) with a_ji != 0, i itself included.
        columns = [
            [(j, C.entries[j][i]) for j in range(n) if C.entries[j][i]]
            for i in range(n)
        ]
        best, peeled = _FINITE_CLOSURE_CAP, None
        # End vertices first: their orbits are the small ones, and a small
        # first orbit caps every later closure.
        for i in sorted(range(n), key=lambda i: len(columns[i])):
            omega = tuple(int(j == i) for j in range(n))
            orbit, complete = _bounded_closure([omega], moves, best)
            if complete and (peeled is None or len(orbit) < best):
                best, peeled = len(orbit), i
        if peeled is None:
            raise ValueError(
                f"a weight orbit exceeds the safety cap of {_FINITE_CLOSURE_CAP} elements"
            )
        order *= best
        if n == 1:
            return order
        C = submatrix(C, tuple(j for j in range(1, n + 1) if j != peeled + 1))


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


@functools.lru_cache(maxsize=None)
def enumerate_group(C: CartanMatrix) -> frozenset[Matrix]:
    """All elements of a finite-type group: the closure of the identity under
    left multiplication by the simple reflections.

    s_i w differs from w only in row i, which becomes
    -w_i - sum_{j != i} a_ij w_j over the neighbours j of i, so each move builds
    one row and reuses the other row tuples.  A group with more than
    _FINITE_CLOSURE_CAP elements is refused before enumeration (ValueError).
    The closure keeps at most group_order(C) elements and must find exactly
    that many (ArithmeticError otherwise), so it cannot run away.
    """
    order = group_order(C)
    if order > _FINITE_CLOSURE_CAP:
        raise ValueError(
            f"the Weyl group has {order} elements, more than the enumeration cap "
            f"of {_FINITE_CLOSURE_CAP}"
        )
    n = C.n
    neighbours = [
        [(j, C.entries[i][j]) for j in range(n) if j != i and C.entries[i][j]]
        for i in range(n)
    ]

    def moves(w: Matrix):
        for i, row_neighbours in enumerate(neighbours):
            row = [-x for x in w[i]]
            for j, a_ij in row_neighbours:
                row = [x - a_ij * y for x, y in zip(row, w[j])]
            yield w[:i] + (tuple(row),) + w[i + 1 :]

    elements, complete = _bounded_closure([identity(n)], moves, order)
    if not complete or len(elements) != order:
        raise ArithmeticError(
            f"enumerated {len(elements)} group elements, but |W| = {order}; upstream bug"
        )
    return frozenset(elements)


@functools.lru_cache(maxsize=None)
def _absolute_length_table(C: CartanMatrix) -> dict[Matrix, int]:
    """Absolute length of every element of a finite-type group: rank(w - id),
    by Carter's lemma ("Conjugacy classes in the Weyl group", Compositio 1972,
    Lemma 2)."""
    one = identity(C.n)
    return {w: _mat.rank(mat_sub(w, one)) for w in enumerate_group(C)}


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
    after l(w) steps; a matrix that ends elsewhere is not in W (ValueError),
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


def reduced_word(C: CartanMatrix, w: Matrix) -> tuple[int, ...]:
    """(i_1, ..., i_m) with w = s_{i_1} ... s_{i_m} reduced: _peel's letters,
    last first.  No command calls it; it is _peel's public form, through
    which the tests check the peel."""
    return tuple(j + 1 for j, _ in _peel(C, w))[::-1]


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
    # t_p's coroot row is phi(v) = B(v, beta) / d_j, as B(beta, beta) = 2 d_j.
    form, d = symmetrized(C), symmetrizer(C)
    inversions = [
        Reflection(beta, tuple(sum(x * y for x, y in zip(row, beta)) // d[j] for row in form))
        for j, beta in steps
    ]
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
