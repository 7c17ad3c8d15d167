"""Schur-root certification for an orientation of a Cartan matrix.

An orientation is a Cartan matrix plus a permutation fixing the Coxeter
element; sink/source mutation is rotation of that permutation.  The flagship
operation verifies, at desk scale, that the positive roots certified through
the reflection route coincide with the roots harvested from simple-curve words.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import curves, hurwitz, weyl
from .cartan import CartanMatrix, TypeClass, classify_type
from .curves import CurveWord
from .hurwitz import DEFAULT_NODE_CAP, DEFAULT_PRUNE_MULTIPLIER, Ternary
from .weyl import Root, height


@dataclass(frozen=True)
class Orientation:
    """A Cartan matrix together with the order defining c = s_{o1} ... s_{on}."""

    cartan: CartanMatrix
    order: tuple[int, ...]

    def __post_init__(self):
        weyl._check_order(self.cartan, self.order)

    @classmethod
    def default(cls, C: CartanMatrix) -> "Orientation":
        return cls(C, tuple(range(1, C.n + 1)))

    @property
    def n(self) -> int:
        return self.cartan.n

    @property
    def source(self) -> int:
        """Index of the first simple reflection of c."""
        return self.order[0]

    @property
    def sink(self) -> int:
        """Index of the last simple reflection of c."""
        return self.order[-1]


def mutate(o: Orientation, which: str) -> Orientation:
    """Source mutation rotates the order left (new c is s(c) c s(c)); sink
    mutation is the inverse rotation."""
    if which == "source":
        return Orientation(o.cartan, o.order[1:] + o.order[:1])
    if which == "sink":
        return Orientation(o.cartan, o.order[-1:] + o.order[:-1])
    raise ValueError("which must be 'source' or 'sink'")


def is_schur_root(
    beta: Root,
    o: Orientation,
    node_cap: int = DEFAULT_NODE_CAP,
) -> hurwitz.PrefixVerdict:
    """Certify that the reflection of the real root beta (either sign) starts
    a reflection factorization of the Coxeter element; a beta that is not a
    real root raises ValueError.  YES verdicts always carry a witness
    factorization.

    Finite types (where every positive root passes, by Bessis) and rank 2 are
    decided exactly.  On other infinite types the witness is the canonical
    factorization moved by a braid word that a height-pruned orbit search
    found, so it starts with the reflection of |beta|; when that search finds
    none the answer is UNKNOWN.
    """
    return hurwitz.is_prefix_of_coxeter(beta, o.cartan, o.order, node_cap=node_cap)


def schur_transversal_finite(o: Orientation) -> tuple[Root, ...]:
    """The roots s_{o1} ... s_{o(k-1)} alpha_{ok}, one per c-orbit.  No command
    calls it yet; it is kept as the start of the planned spiral route of
    `schur verify` on finite types."""
    if classify_type(o.cartan) is not TypeClass.FINITE:
        raise ValueError("finite transversal requires a finite-type matrix")
    return tuple(
        curves.root_of_curve(CurveWord(o.order[: k - 1], o.order[k - 1]), o.cartan)
        for k in range(1, o.n + 1)
    )


def _curve_root_harvest(
    o: Orientation,
    height_bound: int,
    node_cap: int,
    prune_multiplier: int,
) -> tuple[set[Root], bool]:
    """Positive roots of curve words reachable from the fan by braid moves.

    The walk is the closure of the canonical factorization, whose roots are
    the fan's roots, under the moves of the reflection table of o.cartan
    (hurwitz._root_tuples), which walks tuples of root ids and returns the
    roots (_ReflectionTable.harvest).  A braid move replaces one curve by a
    neighbour's loop w s_end w^-1 = t_a applied to it, so the new curve's
    root is +-t_a(beta_b), the root the tuple move computes
    (tests/test_properties.py::test_braid_move_transforms_signed_roots).
    The key is exact: t_beta = t_gamma iff beta = +-gamma, so two curve-word
    tuples have the same root tuple iff their loops evaluate to the same
    reflection tuple.
    tests/test_schur.py::test_curve_harvest_matches_matrix_keyed_reference
    compares with the curve-word walk keyed by loop matrices.  Tuples with a
    root taller than prune_multiplier * height_bound are kept, not expanded.
    """
    start = hurwitz.canonical_factorization(o.cartan, o.order)
    return hurwitz._root_tuples(o.cartan).harvest(
        start, node_cap, prune_multiplier * height_bound, height_bound
    )


@dataclass(frozen=True)
class ConjectureReport:
    """Set comparison between prefix-certified roots and curve-harvested roots."""

    height_bound: int
    prefix_roots: tuple[Root, ...]
    curve_roots: tuple[Root, ...]
    all_positive: tuple[Root, ...] | None
    unknowns: tuple[Root, ...]
    truncated: bool

    @property
    def sets_match(self) -> bool:
        if set(self.prefix_roots) != set(self.curve_roots):
            return False
        if self.all_positive is not None:
            return set(self.prefix_roots) == set(self.all_positive)
        return True

    def to_json_dict(self) -> dict:
        return {
            "height_bound": self.height_bound,
            "sets": {
                "prefix": [list(r) for r in self.prefix_roots],
                "curves": [list(r) for r in self.curve_roots],
                "all_positive": (
                    None
                    if self.all_positive is None
                    else [list(r) for r in self.all_positive]
                ),
            },
            "unknowns": [list(r) for r in self.unknowns],
            "truncated": self.truncated,
            "sets_match": self.sets_match,
        }


def _root_sort_key(r: Root):
    return (height(r), r)


def verify_conjecture(
    o: Orientation,
    height_bound: int = 20,
    node_cap: int = DEFAULT_NODE_CAP,
) -> ConjectureReport:
    """Compare three root sets below the height bound: roots whose reflection
    passes the prefix certificate (P), roots harvested from simple-curve words
    reachable from the fan (S), and, for finite types, all positive roots (F).

    Truncation of either search is reported, never silent; roots with an
    unresolved prefix status are listed as stragglers.  A finite type whose
    Hurwitz orbit, walked by the harvest, exceeds the node cap is refused.
    """
    C = o.cartan
    enumerated = weyl.positive_real_roots(C, height_bound)  # exhaustive if finite
    all_positive: tuple[Root, ...] | None = None
    if classify_type(C) is TypeClass.FINITE:
        count = hurwitz.factorization_count_formula(C)
        if count > node_cap:
            raise ValueError(
                f"the Hurwitz orbit has {count} factorizations, more than the "
                f"node cap of {node_cap}"
            )
        all_positive = enumerated
    positives = tuple(r for r in enumerated if height(r) <= height_bound)
    prefix_roots = []
    unknowns = []
    for beta in positives:
        verdict = is_schur_root(beta, o, node_cap)
        if verdict.answer is Ternary.YES:
            prefix_roots.append(beta)
        elif verdict.answer is Ternary.UNKNOWN:
            unknowns.append(beta)
    harvested, exhausted = _curve_root_harvest(
        o, height_bound, node_cap, DEFAULT_PRUNE_MULTIPLIER
    )
    return ConjectureReport(
        height_bound=height_bound,
        prefix_roots=tuple(sorted(prefix_roots, key=_root_sort_key)),
        curve_roots=tuple(sorted(harvested, key=_root_sort_key)),
        all_positive=all_positive,
        unknowns=tuple(sorted(unknowns, key=_root_sort_key)),
        truncated=not exhausted,
    )
