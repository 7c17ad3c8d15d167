"""Every tuple of a Hurwitz orbit is an exceptional sequence under the
Euler form of its orientation.

For c = s_{o_1} ... s_{o_n}, the Euler form E has E_ii = d_i and
E_ij = d_i a_ij when i precedes j in the order o, else 0, so that
E + E^T is the symmetrized form (Ringel, "Tame algebras and integral
quadratic forms", LNM 1099, 1984).  A complete exceptional sequence
(E_1, ..., E_n) has Hom(E_j, E_i) = Ext^1(E_j, E_i) = 0 for j > i, so its
dimension vectors pair to <beta_j, beta_i> = 0 (Crawley-Boevey,
"Exceptional sequences of representations of quivers", 1993), and Igusa
and Schiffler ("Exceptional sequences and clusters", J. Algebra 323, 2010)
match those sequences with the reflection factorizations of c.
"""

import pytest

from schur_scope.cartan import preset, symmetrized, symmetrizer
from schur_scope.hurwitz import Factorization, canonical_factorization, hurwitz_orbit

COMPLETE = ("A3", "B3", "C3", "G2", "D4", "F4")
CAPPED = ("affine-A2", "affine-A3", "universal:3:2", "universal:4:2", "universal:3:3")
PREFIX = 3_000


def euler_form(C, order):
    """E_ii = d_i, E_ij = d_i a_ij when i precedes j in order, else 0."""
    d, a = symmetrizer(C), C.entries
    place = {o - 1: k for k, o in enumerate(order)}
    return tuple(
        tuple(
            d[i] if i == j else d[i] * a[i][j] if place[i] < place[j] else 0
            for j in range(C.n)
        )
        for i in range(C.n)
    )


def pairing(E, u, v):
    """u^T E v."""
    return sum(u[i] * E[i][j] * v[j] for i in range(len(u)) for j in range(len(v)))


def violations(E, roots):
    """The slot pairs i < j of a root tuple with beta_j^T E beta_i != 0."""
    return [
        (i, j)
        for i in range(len(roots))
        for j in range(i + 1, len(roots))
        if pairing(E, roots[j], roots[i])
    ]


@pytest.mark.parametrize("name", COMPLETE + CAPPED)
@pytest.mark.parametrize("reverse", [False, True], ids=["identity", "reversed"])
def test_orbit_tuples_are_exceptional_sequences(name, reverse):
    C = preset(name)
    order = tuple(range(1, C.n + 1))[:: -1 if reverse else 1]
    E = euler_form(C, order)
    assert tuple(
        tuple(x + y for x, y in zip(row, column)) for row, column in zip(E, zip(*E))
    ) == symmetrized(C)
    orbit = hurwitz_orbit(C, canonical_factorization(C, order), PREFIX)
    assert orbit.complete == (name in COMPLETE)
    if not orbit.complete:
        assert len(orbit) == PREFIX
    bad = [roots for roots in orbit.roots if violations(E, roots)]
    assert bad == [], (name, order, bad[:3])


def test_two_non_commuting_slots_swapped_are_not_exceptional():
    # s_1 and s_2 of A3 do not commute; swapping them breaks both the
    # product and the vanishing of E below the diagonal.
    A3 = preset("A3")
    order = (1, 2, 3)
    E = euler_form(A3, order)
    start = canonical_factorization(A3, order)
    assert violations(E, start.roots()) == []
    swapped = (start.parts[1], start.parts[0], start.parts[2])
    assert violations(E, tuple(t.root for t in swapped)) == [(0, 1)]
    with pytest.raises(ValueError):
        Factorization(swapped, start.coxeter)
