"""The interval below the Coxeter element in absolute order.

Membership uses only the defining identity l(u) + l(u^-1 w) = l(w).  For
finite types every length comes from the cached group table, so the poset is
exact.  For infinite types only the membership test is exposed; absolute
lengths are exact there too (Dyer's deletion search), so it answers YES or NO.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import weyl
from ._matrix import Matrix, identity, inverse, matmul
from .cartan import CartanMatrix, TypeClass, classify_type
from .hurwitz import Factorization, Ternary
from .weyl import Reflection, coxeter_element


def _leq_in_table(table: dict[Matrix, int], u: Matrix, w: Matrix) -> bool:
    """l(u) + l(u^-1 w) = l(w), every length read from a finite group's table."""
    quotient = matmul(inverse(u), w)
    try:
        return table[u] + table[quotient] == table[w]
    except KeyError:
        raise ValueError("matrix is not an element of the Weyl group") from None


def absolute_leq(u: Matrix, w: Matrix, C: CartanMatrix) -> Ternary:
    """Does l(u) + l(u^-1 w) = l(w) hold?  Exact on every type.

    Finite types read the group table.  Otherwise l(u) and l(w) come from
    weyl.absolute_length; l(u^-1 w) >= l(w) - l(u) by subadditivity, so
    the identity holds iff u^-1 w is a product of exactly l(w) - l(u)
    reflections, which one Dyer search at that count decides.
    """
    if classify_type(C) is TypeClass.FINITE:
        table = weyl._absolute_length_table(C)
        return Ternary.YES if _leq_in_table(table, u, w) else Ternary.NO
    rest = weyl.absolute_length(C, w) - weyl.absolute_length(C, u)
    quotient = matmul(inverse(u), w)
    found = weyl.factor_into_reflections(C, quotient, rest) is not None
    return Ternary.YES if found else Ternary.NO


@dataclass(frozen=True)
class NCPoset:
    """Elements between the identity and c in absolute order, graded by length."""

    cartan: CartanMatrix
    order: tuple[int, ...]
    elements: tuple[Matrix, ...]
    ranks: tuple[int, ...]
    covers: tuple[tuple[int, int], ...]  # index pairs (lower, upper)

    @property
    def bottom(self) -> Matrix:
        return self.elements[0]

    @property
    def top(self) -> Matrix:
        return self.elements[-1]

    @property
    def n(self) -> int:
        return self.cartan.n

    def leq(self, i: int, j: int) -> bool:
        """Order relation between element indices via the defining identity."""
        table = weyl._absolute_length_table(self.cartan)
        return _leq_in_table(table, self.elements[i], self.elements[j])


def enumerate_nc(C: CartanMatrix, order: tuple[int, ...] | None = None) -> NCPoset:
    """Filter the full group by the membership identity and grade by length."""
    if classify_type(C) is not TypeClass.FINITE:
        raise ValueError("poset enumeration requires a finite-type matrix")
    order = weyl._check_order(C, order)
    c = coxeter_element(C, order)
    table = weyl._absolute_length_table(C)
    members = [w for w in weyl.enumerate_group(C) if _leq_in_table(table, w, c)]
    members.sort(key=lambda w: (table[w], w))
    ranks = tuple(table[w] for w in members)
    index = {w: i for i, w in enumerate(members)}
    # u < w is a cover iff w = u t for a reflection t and l(w) = l(u) + 1.
    covers = sorted(
        (i, j)
        for i, u in enumerate(members)
        for t in weyl.reflections(C)
        if (j := index.get(matmul(u, t.matrix))) is not None
        and ranks[j] == ranks[i] + 1
    )
    return NCPoset(C, order, tuple(members), ranks, tuple(covers))


@dataclass(frozen=True)
class IntervalFactorization:
    """Reflections stepping u up to w, extended to a full factorization of c."""

    steps: tuple[Reflection, ...]
    full: Factorization


def interval_factorization(
    u: Matrix, w: Matrix, poset: NCPoset
) -> IntervalFactorization:
    """Reflections t_1 ... t_m with u t_1 ... t_m = w and m = l(w) - l(u).

    Found greedily: from x, step to x t for the first reflection t with
    l(x t) = l(x) + 1 and x t <= w.  Every such cover lies on a saturated
    chain to w, so the climb never has to back up.  The returned sequence is
    also embedded in a full reflection factorization of c (identity to u, the
    steps, then w to c).
    """
    C = poset.cartan
    table = weyl._absolute_length_table(C)
    c = coxeter_element(C, poset.order)

    if not (_leq_in_table(table, u, w) and _leq_in_table(table, w, c)):
        raise ValueError("interval requires u <= w <= c in absolute order")

    def climb(lower: Matrix, upper: Matrix) -> tuple[Reflection, ...]:
        steps = []
        while lower != upper:
            for t in weyl.reflections(C):
                y = matmul(lower, t.matrix)
                if table[y] == table[lower] + 1 and _leq_in_table(table, y, upper):
                    break
            else:
                raise ArithmeticError("graded interval must contain a saturated chain")
            steps.append(t)
            lower = y
        return tuple(steps)

    steps = climb(u, w)
    prefix = climb(identity(C.n), u)
    suffix = climb(w, c)
    full = Factorization(prefix + steps + suffix, c)
    return IntervalFactorization(steps, full)


def maximal_chain_count(p: NCPoset) -> int:
    """Number of saturated bottom-to-top chains, by dynamic programming."""
    counts = [0] * len(p.elements)
    counts[0] = 1
    by_rank = sorted(range(len(p.elements)), key=lambda i: p.ranks[i])
    incoming: dict[int, list[int]] = {}
    for lo, hi in p.covers:
        incoming.setdefault(hi, []).append(lo)
    for i in by_rank:
        if p.ranks[i] == 0:
            continue
        counts[i] = sum(counts[j] for j in incoming.get(i, ()))
    return counts[len(p.elements) - 1]


@dataclass(frozen=True)
class PosetReport:
    rank_counts: tuple[int, ...]
    self_dual_rank_function: bool
    maximal_chains: int
    is_lattice: bool
    atom_count: int

    def to_json_dict(self) -> dict:
        return {
            "rank_counts": list(self.rank_counts),
            "self_dual_rank_function": self.self_dual_rank_function,
            "maximal_chains": self.maximal_chains,
            "is_lattice": self.is_lattice,
            "atom_count": self.atom_count,
        }


def poset_properties(p: NCPoset) -> PosetReport:
    """Aggregate order-theoretic checks: rank generating function and its
    palindromicity, chain count, meet/join existence, atom count."""
    size = len(p.elements)
    n = p.n
    rank_counts = [0] * (n + 1)
    for r in p.ranks:
        rank_counts[r] += 1
    leq = [[p.leq(i, j) for j in range(size)] for i in range(size)]

    def unique_extreme(candidates: list[int], upper: bool) -> bool:
        if not candidates:
            return False
        for z in candidates:
            if all(leq[x][z] if upper else leq[z][x] for x in candidates):
                return True
        return False

    lattice = True
    for i in range(size):
        for j in range(i + 1, size):
            lower = [k for k in range(size) if leq[k][i] and leq[k][j]]
            upper = [k for k in range(size) if leq[i][k] and leq[j][k]]
            if not unique_extreme(lower, upper=True) or not unique_extreme(
                upper, upper=False
            ):
                lattice = False
                break
        if not lattice:
            break
    return PosetReport(
        rank_counts=tuple(rank_counts),
        self_dual_rank_function=rank_counts == rank_counts[::-1],
        maximal_chains=maximal_chain_count(p),
        is_lattice=lattice,
        atom_count=rank_counts[1] if n >= 1 else 0,
    )
