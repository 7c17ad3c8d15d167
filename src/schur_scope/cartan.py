"""Symmetrizable generalized Cartan matrices: parsing, presets, classification.

A CartanMatrix is the single source of truth for a session: it fixes the rank,
the simple-reflection action on the root lattice and the symmetrized bilinear
form.  Everything here is exact integer (or Fraction) arithmetic; type
classification is one elimination of that form, never floating point.
"""

from __future__ import annotations

import enum
import functools
import itertools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from ._matrix import Matrix


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


@dataclass(frozen=True)
class CartanMatrix:
    """Symmetrizable generalized Cartan matrix with optional vertex labels.

    Stored row-major: entry(i, j) with 1-based indices is a_ij.  Construction
    checks the diagonal, the sign pattern and symmetrizability; connectivity is
    enforced by the public constructors (parse_cartan / preset) but not here,
    because index-range submatrices of a connected diagram may be disconnected.
    """

    entries: Matrix
    labels: tuple[str, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        n = len(self.entries)
        if n == 0 or any(len(row) != n for row in self.entries):
            raise CartanError("format", "matrix must be square and non-empty")
        for i in range(n):
            if self.entries[i][i] != 2:
                raise CartanError("diagonal", f"a[{i + 1}][{i + 1}] must be 2")
        for i, j in itertools.combinations(range(n), 2):
            aij, aji = self.entries[i][j], self.entries[j][i]
            if aij > 0 or aji > 0:
                raise CartanError("sign", f"off-diagonal a[{i + 1}][{j + 1}] must be <= 0")
            if (aij == 0) != (aji == 0):
                raise CartanError("sign", f"a[{i + 1}][{j + 1}] = 0 requires a[{j + 1}][{i + 1}] = 0")
        if self.labels is not None and len(self.labels) != n:
            raise CartanError("format", "label count must match rank")
        symmetrizer(self)  # raises CartanError("symmetrizability") when none exists

    @property
    def n(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> int:
        """a_ij with 1-based indices."""
        return self.entries[i - 1][j - 1]


def components(entries: Matrix) -> tuple[tuple[int, ...], ...]:
    """The connected components, as sorted 0-based vertex tuples, of the
    graph with an edge i-j whenever a_ij != 0."""
    n = len(entries)
    found: list[tuple[int, ...]] = []
    left = set(range(n))
    while left:
        start = min(left)
        seen = {start}
        frontier = [start]
        while frontier:
            i = frontier.pop()
            for j in range(n):
                if j not in seen and i != j and entries[i][j] != 0:
                    seen.add(j)
                    frontier.append(j)
        found.append(tuple(sorted(seen)))
        left -= seen
    return tuple(found)


def is_irreducible(entries: Matrix) -> bool:
    """Connectivity of the graph with an edge i-j whenever a_ij != 0."""
    return len(components(entries)) == 1


def parse_cartan(text: str, labels: tuple[str, ...] | None = None) -> CartanMatrix:
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
    matrix = CartanMatrix(entries, labels)
    if not is_irreducible(entries):
        raise CartanError("irreducibility", "matrix graph is not connected")
    return matrix


@functools.lru_cache(maxsize=None)
def symmetrizer(C: CartanMatrix) -> tuple[int, ...]:
    """Componentwise-minimal positive integer d with d_i a_ij = d_j a_ji.

    Computed by propagating ratios along graph edges, one connected component
    at a time, then clearing denominators and dividing out common factors.
    """
    n = C.n
    a = C.entries
    d: list[Fraction | None] = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        component = [start]
        frontier = [start]
        while frontier:
            i = frontier.pop()
            for j in range(n):
                if i == j or a[i][j] == 0:
                    continue
                required = d[i] * Fraction(a[i][j], a[j][i])
                if d[j] is None:
                    d[j] = required
                    component.append(j)
                    frontier.append(j)
                elif d[j] != required:
                    raise CartanError("symmetrizability", "no positive symmetrizer exists")
        scale = lcm(*(d[i].denominator for i in component))
        scaled = [int(d[i] * scale) for i in component]
        g = 0
        for x in scaled:
            g = gcd(g, x)
        for i, x in zip(component, scaled):
            d[i] = Fraction(x, g)
    result = tuple(int(x) for x in d)
    # Cross-check the defining identity on every pair, not only graph edges.
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
    """
    a = [[Fraction(x) for x in row] for row in symmetrized(C)]
    nullity = 0
    for k, row in enumerate(a):
        pivot = row[k]
        if pivot < 0 or (pivot == 0 and any(row[k + 1 :])):
            return TypeClass.INDEFINITE
        if pivot == 0:
            nullity += 1
            continue
        for other in a[k + 1 :]:
            factor = other[k] / pivot
            for j in range(k + 1, len(a)):
                other[j] -= factor * row[j]
    return {0: TypeClass.FINITE, 1: TypeClass.AFFINE}.get(nullity, TypeClass.INDEFINITE)


def submatrix(C: CartanMatrix, indices: tuple[int, ...]) -> CartanMatrix:
    """Cartan matrix restricted to the given 1-based vertices (may be reducible)."""
    rows = tuple(
        tuple(C.entry(i, j) for j in indices) for i in indices
    )
    labels = None
    if C.labels is not None:
        labels = tuple(C.labels[i - 1] for i in indices)
    return CartanMatrix(rows, labels)


def _path_matrix(n: int, tweaks: dict[tuple[int, int], int] | None = None,
                 extra_edges: tuple[tuple[int, int], ...] = ()) -> Matrix:
    """Type-A path with optional entry tweaks and extra -1 edges (0-based)."""
    entries = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        entries[i][i + 1] = entries[i + 1][i] = -1
    for i, j in extra_edges:
        entries[i][j] = entries[j][i] = -1
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


_PRESET_RE = re.compile(r"^([a-g])(\d+)$")


def preset(name: str) -> CartanMatrix:
    """Standard matrices by label: A_n, B_n, C_n, D_n, E6-E8, F4, G2,
    affine-A_n, and universal:rank:weight (all off-diagonal entries -weight).
    """
    key = name.strip().lower().replace("_", "")
    if key.startswith("universal:"):
        parts = key.split(":")
        try:
            k, m = int(parts[1]), int(parts[2])
        except (IndexError, ValueError):
            raise CartanError("preset", f"malformed universal preset {name!r}") from None
        if k < 1:
            raise CartanError("preset", "universal preset needs rank >= 1")
        if m < 2:
            raise CartanError("preset", "universal preset needs weight >= 2")
        entries = tuple(
            tuple(2 if i == j else -m for j in range(k)) for i in range(k)
        )
        return CartanMatrix(entries)
    if key.startswith("affine-a") or key.startswith("affinea"):
        digits = key[8:] if key.startswith("affine-a") else key[7:]
        try:
            n = int(digits)
        except ValueError:
            raise CartanError("preset", f"unknown preset {name!r}") from None
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
    match = _PRESET_RE.match(key)
    if not match:
        raise CartanError("preset", f"unknown preset {name!r}")
    family, n = match.group(1), int(match.group(2))
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
