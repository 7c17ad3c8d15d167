"""Symmetrizable generalized Cartan matrices: parsing, presets, classification.

A CartanMatrix is the single source of truth for a session: it fixes the rank,
the simple-reflection action on the root lattice and the symmetrized
invariant form.  Everything here is exact integer arithmetic; type
classification is one elimination of that form, never floating point.

The package's one breadth-first walk, _bounded_closure, lives here, in the
lowest module that walks; weyl's root and group walks and hurwitz's orbit
walks run on it.  Here it walks the diagram: once from each least vertex
not yet met for the connected components, and once per component, with
parents, for the symmetrizer, which carries each vertex's ratio d_j / d_i
from its parent.
"""

from __future__ import annotations

import enum
import functools
import itertools
import re
from collections import namedtuple
from math import gcd, lcm

from ._matrix import Matrix, _eliminate


class CartanError(ValueError):
    """Validation failure, tagged with the invariant that broke.

    kind is one of: "format", "diagonal", "sign", "symmetrizability",
    "irreducibility", "preset".
    """

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


class TypeClass(enum.Enum):
    FINITE = "finite"
    AFFINE = "affine"
    INDEFINITE = "indefinite"


class CartanMatrix(namedtuple("CartanMatrix", "entries")):
    """Symmetrizable generalized Cartan matrix.

    Stored row-major: entry(i, j) with 1-based indices is a_ij.  Construction
    checks the diagonal, the sign pattern and symmetrizability; connectivity is
    enforced by the public constructors (parse_cartan / preset) but not here,
    so a reducible matrix, such as one of the index-range submatrices of a
    connected diagram, is still a valid input to classify_type and the Weyl
    group.
    """

    __slots__ = ()

    def __new__(cls, entries: Matrix):
        self = tuple.__new__(cls, (entries,))
        n = len(entries)
        if n == 0 or any(len(row) != n for row in entries):
            raise CartanError("format", "matrix must be square and non-empty")
        for i in range(n):
            if entries[i][i] != 2:
                raise CartanError("diagonal", f"a[{i + 1}][{i + 1}] must be 2")
        for i, j in itertools.combinations(range(n), 2):
            aij, aji = entries[i][j], entries[j][i]
            if aij > 0 or aji > 0:
                raise CartanError("sign", f"off-diagonal a[{i + 1}][{j + 1}] must be <= 0")
            if (aij == 0) != (aji == 0):
                raise CartanError("sign", f"a[{i + 1}][{j + 1}] = 0 requires a[{j + 1}][{i + 1}] = 0")
        symmetrizer(self)  # raises CartanError("symmetrizability") when none exists
        return self

    @property
    def n(self) -> int:
        return len(self.entries)


def _bounded_closure(starts, moves, node_cap, expand=None, parents=None):
    """Breadth-first closure of the starts under moves, keeping at most
    node_cap nodes; returns (nodes in discovery order, complete).

    moves(node) returns a list of the node's images.  An image not met
    before is kept while fewer than node_cap nodes are kept; otherwise it is
    dropped and complete becomes False.  A kept node for which expand(node)
    is false is recorded but not expanded.  The walk goes one breadth-first
    level at a time, which meets the nodes in the order of a queue.

    Each kept node is recorded with its parent, the node whose moves first
    met it, and the starts with None; so a node's parent is kept before it.
    In a complete walk that expanded every node, the parent chain of a node
    is a shortest path to it from the starts in the graph of the moves.  A
    caller that wants the parents passes an empty dict as parents, and the
    walk records the nodes in it.
    """
    seen = {} if parents is None else parents
    seen.update(dict.fromkeys(starts))
    frontier = list(seen)
    complete = True
    while frontier:
        found = []
        for node in frontier:
            if expand is not None and not expand(node):
                continue
            for image in moves(node):
                if image in seen:
                    continue
                if len(seen) >= node_cap:
                    complete = False
                    continue
                seen[image] = node
                found.append(image)
        frontier = found
    return tuple(seen), complete


def _neighbours(entries: Matrix):
    """The moves of the diagram walks: i -> every j != i with a_ij != 0."""
    n = len(entries)
    return lambda i: [j for j in range(n) if j != i and entries[i][j]]


def components(entries: Matrix) -> tuple[tuple[int, ...], ...]:
    """The connected components, as sorted 0-based vertex tuples in the order
    of their least vertices, of the graph with an edge i-j whenever a_ij != 0:
    one walk from each least vertex not yet met."""
    n = len(entries)
    neighbours = _neighbours(entries)
    found: list[tuple[int, ...]] = []
    left = set(range(n))
    while left:
        component, _ = _bounded_closure([min(left)], neighbours, n)
        found.append(tuple(sorted(component)))
        left.difference_update(component)
    return tuple(found)


def parse_cartan(text: str) -> CartanMatrix:
    """Parse the documented text format: first token n, then n*n integers.

    Rows may be separated by newlines or '/'; all whitespace is equivalent.
    """
    tokens = text.replace("/", " ").split()
    if not tokens:
        raise CartanError("format", "empty matrix source")
    try:
        values = [int(t) for t in tokens]
    except ValueError as exc:
        raise CartanError("format", f"non-integer token in matrix source: {exc}") from None
    n = values[0]
    if n <= 0:
        raise CartanError("format", f"rank must be positive, got {n}")
    if len(values) != 1 + n * n:
        raise CartanError(
            "format", f"expected {n * n} entries after the rank, got {len(values) - 1}"
        )
    entries = tuple(
        tuple(values[1 + i * n + j] for j in range(n)) for i in range(n)
    )
    matrix = CartanMatrix(entries)
    if len(components(entries)) > 1:
        raise CartanError("irreducibility", "matrix graph is not connected")
    return matrix


@functools.lru_cache(maxsize=None)
def symmetrizer(C: CartanMatrix) -> tuple[int, ...]:
    """Componentwise-minimal positive integer d with d_i a_ij = d_j a_ji.

    One walk per connected component, from its least vertex, records each
    vertex's parent; along the edge from parent i, d_j / d_i = a_ij / a_ji,
    so each vertex's ratio to the start is an exact pair of integer
    products.  The component is brought over the lcm of the denominators
    and divided by the gcd of the results.  The identity on every pair is
    then the one test that the ratios agree around each cycle.
    """
    n = C.n
    a = C.entries
    neighbours = _neighbours(a)
    d = [0] * n
    for start in range(n):
        if d[start]:
            continue
        parents: dict[int, int | None] = {}
        _bounded_closure([start], neighbours, n, parents=parents)
        ratio = {start: (1, 1)}  # j -> (num, den) with d_j / d_start = num / den
        for j, i in parents.items():  # a parent is met before its children
            if i is not None:
                num, den = ratio[i]
                ratio[j] = (num * a[i][j], den * a[j][i])
        scale = lcm(*(den for _, den in ratio.values()))
        scaled = {j: num * scale // den for j, (num, den) in ratio.items()}
        g = gcd(*scaled.values())
        for j, x in scaled.items():
            d[j] = x // g
    result = tuple(d)
    # The walk reads only tree edges; the identity must hold on every pair.
    for i in range(n):
        for j in range(n):
            if result[i] * a[i][j] != result[j] * a[j][i]:
                raise CartanError("symmetrizability", "no positive symmetrizer exists")
    return result


@functools.lru_cache(maxsize=None)
def symmetrized(C: CartanMatrix) -> Matrix:
    """The symmetric matrix S with S_ij = d_i a_ij."""
    d = symmetrizer(C)
    return tuple(
        tuple(d[i] * C.entries[i][j] for j in range(C.n)) for i in range(C.n)
    )


@functools.lru_cache(maxsize=None)
def classify_type(C: CartanMatrix) -> TypeClass:
    """Finite / affine / indefinite by one exact elimination of the symmetrized
    form with diagonal pivots (a congruence, so the inertia is kept).

    A negative pivot, or a zero pivot whose row is not zero, means the form is
    not positive semidefinite.  Otherwise its nullity is the number of zero
    pivots: finite at 0, affine at 1, indefinite above.

    The elimination stays in integers: a row below pivot p is replaced by
    p times itself minus its column-k entry times the pivot row, then divided
    by the gcd of its entries (_matrix._eliminate; both rows are zero left of
    column k).  Each row of the trailing block is so a positive multiple of
    the row a rational elimination gives, which changes neither the sign of a
    pivot nor which entries are zero.
    """
    a = [list(row) for row in symmetrized(C)]
    nullity = 0
    for k, row in enumerate(a):
        pivot = row[k]
        if pivot < 0 or (pivot == 0 and any(row[k + 1 :])):
            return TypeClass.INDEFINITE
        if pivot == 0:
            nullity += 1
            continue
        for i in range(k + 1, len(a)):
            if a[i][k]:
                a[i] = _eliminate(a[i], row, k)
    return {0: TypeClass.FINITE, 1: TypeClass.AFFINE}.get(nullity, TypeClass.INDEFINITE)


def _path_matrix(n: int, tweaks: dict[tuple[int, int], int] | None = None) -> Matrix:
    """Type-A path with optional entry tweaks (0-based)."""
    entries = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        entries[i][i + 1] = entries[i + 1][i] = -1
    for (i, j), value in (tweaks or {}).items():
        entries[i][j] = value
    return tuple(tuple(row) for row in entries)


def _fork_matrix(n: int, branch: int) -> Matrix:
    """Path on vertices 1..n-1 with vertex n attached only to `branch` (0-based)."""
    entries = [list(row) + [0] for row in _path_matrix(n - 1)]
    entries.append([0] * n)
    entries[n - 1][n - 1] = 2
    entries[branch][n - 1] = entries[n - 1][branch] = -1
    return tuple(tuple(row) for row in entries)


# ASCII digits only: int() and a plain \d would also read signs, spaces
# and other scripts' digits.
_PRESET_RE = re.compile(r"universal:(\d+):(\d+)|affine-?a(\d+)|([a-g])(\d+)", re.ASCII)


def preset(name: str) -> CartanMatrix:
    """Standard matrices by label: A_n, B_n, C_n, D_n, E6-E8, F4, G2,
    affine-A_n, and universal:rank:weight (all off-diagonal entries -weight).
    Each number is unsigned ASCII digits; a universal label with other than
    these three fields is refused as malformed.
    """
    key = name.strip().lower().replace("_", "")
    match = _PRESET_RE.fullmatch(key)
    if match is None:
        kind = "malformed universal" if key.startswith("universal:") else "unknown"
        raise CartanError("preset", f"{kind} preset {name!r}")
    k, m, affine, family, n = match.groups()
    if k is not None:
        k, m = int(k), int(m)
        if k < 1:
            raise CartanError("preset", "universal preset needs rank >= 1")
        if m < 2:
            raise CartanError("preset", "universal preset needs weight >= 2")
        entries = tuple(
            tuple(2 if i == j else -m for j in range(k)) for i in range(k)
        )
        return CartanMatrix(entries)
    if affine is not None:
        n = int(affine)
        if n < 1:
            raise CartanError("preset", "affine-A needs rank >= 1")
        if n == 1:
            return CartanMatrix(((2, -2), (-2, 2)))
        size = n + 1
        entries = [[2 if i == j else 0 for j in range(size)] for i in range(size)]
        for i in range(size):
            j = (i + 1) % size
            entries[i][j] = entries[j][i] = -1
        return CartanMatrix(tuple(tuple(row) for row in entries))
    n = int(n)
    if family == "a" and n >= 1:
        return CartanMatrix(_path_matrix(n))
    if family == "b" and n >= 2:
        return CartanMatrix(_path_matrix(n, tweaks={(n - 2, n - 1): -2}))
    if family == "c" and n >= 2:
        return CartanMatrix(_path_matrix(n, tweaks={(n - 1, n - 2): -2}))
    if family == "d" and n >= 3:
        # Path on 1..n-1 with vertex n also attached to vertex n-2.
        return CartanMatrix(_fork_matrix(n, branch=n - 3))
    if family == "e" and n in (6, 7, 8):
        # Path on 1..n-1 with vertex n attached to vertex 3.
        return CartanMatrix(_fork_matrix(n, branch=2))
    if family == "f" and n == 4:
        return CartanMatrix(_path_matrix(4, tweaks={(1, 2): -2}))
    if family == "g" and n == 2:
        return CartanMatrix(((2, -1), (-3, 2)))
    raise CartanError("preset", f"unknown preset {name!r}")
