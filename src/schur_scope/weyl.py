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

from . import _matrix as _mat
from ._matrix import Matrix, Vector, identity, mat_sub, matmul
from .cartan import (
    CartanMatrix,
    TypeClass,
    classify_type,
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
        return sum(p * x for p, x in zip(self.coroot, v))

    def apply(self, v: Vector) -> Vector:
        k = self.pair(v)
        return tuple(x - k * b for x, b in zip(v, self.root))

    @functools.cached_property
    def matrix(self) -> Matrix:
        """id - beta phi, for finite-group tables and I/O."""
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
    """Product s_{order(1)} ... s_{order(n)}; default order is 1, 2, ..., n."""
    result = identity(C.n)
    for i in _check_order(C, order):
        result = matmul(result, simple_reflection(C, i).matrix)
    return result


def is_reflection(w: Matrix) -> bool:
    """True iff w^2 = id and w - id has rank exactly 1."""
    n = len(w)
    if sum(w[i][i] for i in range(n)) != n - 2:
        return False  # an involution moving rank 1 has trace n - 2
    if matmul(w, w) != identity(n):
        return False
    return _mat.rank(mat_sub(w, identity(n))) == 1


def root_of_reflection(t: Matrix) -> Root:
    """The primitive positive generator of the image lattice of t - id."""
    n = len(t)
    moved = mat_sub(t, identity(n))
    columns = [tuple(moved[row][col] for row in range(n)) for col in range(n)]
    generator: Root | None = None
    for col in columns:
        if any(col):
            generator = _mat.primitive(col)
            break
    if generator is None:
        raise ValueError("identity matrix is not a reflection")
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
    return _reflection_pool(C, 1)  # the bound is ignored on finite types


@functools.lru_cache(maxsize=None)
def _reflection_pool(C: CartanMatrix, height_bound: int) -> tuple[Reflection, ...]:
    return tuple(
        reflection_for_root(C, beta)
        for beta in positive_real_roots(C, height_bound)
    )


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


def _parity_matches(w: Matrix, k: int) -> bool:
    return _mat.det(w) == (1 if k % 2 == 0 else -1)


def length_lower_bound(w: Matrix) -> int:
    """rank(w - id), raised by one when determinant parity rules that value out.

    Any product of k reflections moves a sublattice of rank at most k and has
    determinant (-1)^k, so a length equal to this bound is certified minimal.
    On finite types the bound is exact (Carter's lemma).
    """
    r = _mat.rank(mat_sub(w, identity(len(w))))
    return r if _parity_matches(w, r) else r + 1


def factor_into_reflections(
    w: Matrix, count: int, pool: tuple[Reflection, ...]
) -> tuple[Reflection, ...] | None:
    """A product of exactly `count` pool reflections equal to w, or None.

    Depth-first search pruned by the rank of w - id (a product of k reflections
    moves a sublattice of rank at most k) and by determinant parity.
    """
    n = len(w)

    def search(target: Matrix, k: int) -> tuple[Reflection, ...] | None:
        if k == 0:
            return () if target == identity(n) else None
        if k == 1:
            # Pool-free last step: the remaining factor is forced to be the
            # target = id - beta phi itself.  root_of_reflection has checked
            # that the columns are multiples of beta, so phi_c is exact.
            if not is_reflection(target):
                return None
            beta = root_of_reflection(target)
            p = next(i for i, x in enumerate(beta) if x)
            row = tuple((int(p == c) - target[p][c]) // beta[p] for c in range(n))
            return (Reflection(beta, row),)
        if not _parity_matches(target, k):
            return None
        if _mat.rank(mat_sub(target, identity(n))) > k:
            return None
        for t in pool:
            rest = search(matmul(t.matrix, target), k - 1)
            if rest is not None:
                return (t,) + rest
        return None

    return search(w, count)


_ADAPTIVE_DOUBLINGS = 4


def adaptive_pool_bounds(base: int) -> list[int]:
    """Height bounds 2*base, 4*base, ... rounded up to powers of two so the
    cached reflection pools are shared between queries."""
    bounds = []
    bound = 2
    while bound < 2 * max(base, 1):
        bound *= 2
    for _ in range(_ADAPTIVE_DOUBLINGS):
        bounds.append(bound)
        bound *= 2
    return bounds


def _moved_height(w: Matrix) -> int:
    """Largest height among the moved vectors w e_j - e_j."""
    n = len(w)
    return max(
        height(tuple(w[row][j] - (1 if row == j else 0) for row in range(n)))
        for j in range(n)
    )


def absolute_length(C: CartanMatrix, w: Matrix, cap: int | None = None) -> int | None:
    """Minimal number of reflections multiplying to w; None means unknown.

    Exact (and cap-free) for finite types via the cached group table.  For
    infinite types the reflection pool is height-bounded, starting at twice the
    tallest moved vector of w and doubling a few times; if no factorization of
    length <= cap is found the honest answer is None, never a guess.
    """
    if len(w) != C.n:
        raise ValueError("rank mismatch")
    if classify_type(C) is TypeClass.FINITE:
        table = _absolute_length_table(C)
        if w not in table:
            raise ValueError("matrix is not an element of the Weyl group")
        return table[w]
    if cap is None:
        cap = C.n
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if w == identity(C.n):
        return 0
    for k in range(length_lower_bound(w), cap + 1, 2):
        for bound in adaptive_pool_bounds(_moved_height(w)):
            pool = _reflection_pool(C, bound)
            witness = factor_into_reflections(w, k, pool)
            if witness is not None:
                return k
    return None
