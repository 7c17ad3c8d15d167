"""The interval below the Coxeter element in absolute order.

Membership uses only the defining identity l(u) + l(u^-1 w) = l(w).  Every
absolute length, and so every order test, comes from Dyer's deletion search
(weyl.absolute_length and weyl.factor_into_reflections), exact on every type.
Only enumerate_nc, which lists the whole poset of a finite type, reads the
cached group table.
"""

from __future__ import annotations

from collections import namedtuple

from . import weyl
from ._matrix import Matrix, identity, inverse, matmul
from .cartan import CartanMatrix, TypeClass, classify_type
from .hurwitz import Factorization, Ternary
from .weyl import Reflection, coxeter_element


def _below(C: CartanMatrix, u: Matrix, w: Matrix, length_u: int, length_w: int) -> bool:
    """u <= w, given l(u) and l(w): l(u^-1 w) >= l(w) - l(u) by
    subadditivity, so the identity holds iff u^-1 w is a product of exactly
    l(w) - l(u) reflections, which one Dyer search at that count decides."""
    quotient = matmul(inverse(u), w)
    return weyl.factor_into_reflections(C, quotient, length_w - length_u) is not None


def absolute_leq(u: Matrix, w: Matrix, C: CartanMatrix) -> Ternary:
    """Does l(u) + l(u^-1 w) = l(w) hold?  Exact on every type.

    l(w) and l(u) come from weyl.absolute_length, whose peel refuses a matrix
    outside W (ValueError); then one Dyer search decides (see _below).
    """
    length_w = weyl.absolute_length(C, w)
    length_u = weyl.absolute_length(C, u)
    return Ternary.YES if _below(C, u, w, length_u, length_w) else Ternary.NO


class NCPoset(namedtuple("NCPoset", "cartan order elements ranks covers")):
    """Elements between the identity and c in absolute order, graded by
    length: elements and their ranks, and covers as index pairs (lower,
    upper)."""

    __slots__ = ()


def enumerate_nc(C: CartanMatrix, order: tuple[int, ...] | None = None) -> NCPoset:
    """Filter the full group by the membership identity and grade by length.

    w <= c iff l(w) + l(w^-1 c) = l(c).  Since l(x) = l(x^-1) and
    (w^-1 c)^-1 = c^-1 w, the filter reads l(c^-1 w) from the table, so c is
    inverted once, as its permutation of the roots, and c^-1 w is n root-id
    lookups.  u < w is a cover iff w = u t for a reflection t and
    l(w) = l(u) + 1; as u t u^-1 is a reflection too, {u t : t in T} =
    {t u : t in T}, so the covers of u are found as t u, through t's
    permutation of the roots.  Elements stay root-id tuples of the weyl
    tables until the members become matrices, sorted by (rank, matrix).
    """
    if classify_type(C) is not TypeClass.FINITE:
        raise ValueError("poset enumeration requires a finite-type matrix")
    order = weyl._check_order(C, order)
    table = weyl._absolute_length_table(C)
    c = coxeter_element(C, order)
    c_inverse = weyl._matrix_permutation(C, inverse(c))
    length_c = table[weyl._element_ids(C, c)]
    members = [
        w
        for w in weyl.enumerate_group(C)
        if table[w] + table[weyl._act_on(w)(c_inverse)] == length_c
    ]
    matrices = {w: weyl._element_matrix(C, w) for w in members}
    members.sort(key=lambda w: (table[w], matrices[w]))
    ranks = tuple(table[w] for w in members)
    index = {w: i for i, w in enumerate(members)}
    reflections = weyl._root_ids(C).permutations
    covers = sorted(
        (i, j)
        for i, u in enumerate(members)
        for j in map(index.get, map(weyl._act_on(u), reflections))
        if j is not None and ranks[j] == ranks[i] + 1
    )
    return NCPoset(C, order, tuple(matrices[w] for w in members), ranks, tuple(covers))


class IntervalFactorization(namedtuple("IntervalFactorization", "steps full")):
    """Reflections stepping u up to w (steps), extended to a full
    factorization of c (full)."""

    __slots__ = ()


def interval_factorization(
    u: Matrix, w: Matrix, C: CartanMatrix, order: tuple[int, ...] | None = None
) -> IntervalFactorization:
    """Reflections t_1 ... t_m with u t_1 ... t_m = w and m = l(w) - l(u).

    Found greedily: from x, step to x t for the first reflection t of
    weyl.reflections with l(x t) = l(x) + 1 and x t <= w.  Every such cover
    lies on a saturated chain to w, so the climb never has to back up.  With
    q = x^-1 w and m = l(q), that test is l(t q) = m - 1 (subadditivity gives
    the rest), one Dyer search per candidate.  The returned sequence is also
    embedded in a full reflection factorization of c for the given order
    (identity to u, the steps, then w to c).
    """
    if classify_type(C) is not TypeClass.FINITE:
        raise ValueError("interval factorization requires a finite-type matrix")
    c = coxeter_element(C, order)
    length_u, length_w = weyl.absolute_length(C, u), weyl.absolute_length(C, w)
    length_c = weyl.absolute_length(C, c)
    if not (_below(C, u, w, length_u, length_w) and _below(C, w, c, length_w, length_c)):
        raise ValueError("interval requires u <= w <= c in absolute order")

    def climb(lower: Matrix, upper: Matrix, m: int) -> tuple[Reflection, ...]:
        q = matmul(inverse(lower), upper)
        steps = []
        while m:
            for t in weyl.reflections(C):
                rest = t.left_multiply(q)
                if weyl.factor_into_reflections(C, rest, m - 1) is not None:
                    break
            else:
                raise ArithmeticError("graded interval must contain a saturated chain")
            steps.append(t)
            q, m = rest, m - 1
        return tuple(steps)

    steps = climb(u, w, length_w - length_u)
    prefix = climb(identity(C.n), u, length_u)
    suffix = climb(w, c, length_c - length_w)
    full = Factorization(prefix + steps + suffix, c)
    return IntervalFactorization(steps, full)
