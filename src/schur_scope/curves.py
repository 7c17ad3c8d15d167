"""Word model of curves and loops in the n-punctured disc.

A curve from the basepoint to puncture `end` is recorded as the sequence of
rays it crosses.  The canonical form is freely reduced with trailing windings
around the endpoint stripped into a sign, so each isotopy class of curves has
one word (exactly one, once words are read in the universal Coxeter group,
where the Cayley graph is a tree).  Geometry is never computed: braid moves,
spiraling and simplicity certificates are all word rewriting plus exact
evaluation in a Weyl group.  A curve's root is its word applied to the
endpoint's simple root, and its reflection is the reflection of that root.
"""

from __future__ import annotations

from collections import namedtuple

from . import hurwitz, weyl
from .cartan import CartanMatrix, preset
from .weyl import Root

LoopWord = tuple[int, ...]


class CurveWord(namedtuple("CurveWord", "letters end sign")):
    """Canonical ray-crossing word: freely reduced, last letter != end."""

    __slots__ = ()

    def __new__(cls, letters: tuple[int, ...], end: int, sign: int = 1):
        if end < 1 or any(x < 1 for x in letters):
            raise ValueError("ray and puncture indices are 1-based positives")
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if any(a == b for a, b in zip(letters, letters[1:])):
            raise ValueError("letters are not freely reduced")
        if letters and letters[-1] == end:
            raise ValueError("canonical words do not end with the endpoint letter")
        return tuple.__new__(cls, (letters, end, sign))


def free_reduce(letters: tuple[int, ...]) -> tuple[int, ...]:
    """Delete adjacent equal pairs until none remain (letters are involutions)."""
    stack: list[int] = []
    for x in letters:
        if stack and stack[-1] == x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def canonicalize(letters: tuple[int, ...], end: int, sign: int = 1) -> CurveWord:
    """Freely reduce, then strip terminal windings around the endpoint.

    Each stripped endpoint letter is one winding and flips the sign, so the
    signed evaluation of the result equals the evaluation of the input.
    """
    reduced = list(free_reduce(tuple(letters)))
    while reduced and reduced[-1] == end:
        reduced.pop()
        sign = -sign
    return CurveWord(tuple(reduced), end, sign)


def loop_of_curve(cw: CurveWord) -> LoopWord:
    """letters ++ (end) ++ reversed letters: the odd-length palindrome of the
    loop obtained by circling the endpoint and retracing the curve."""
    return cw.letters + (cw.end,) + tuple(reversed(cw.letters))


def root_of_curve(cw: CurveWord, C: CartanMatrix) -> Root:
    """sign * s_{j_1} ... s_{j_k} (alpha_end), always a real root."""
    v = weyl.simple_root(C.n, cw.end)
    for letter in reversed(cw.letters):
        v = weyl.simple_reflection(C, letter).apply(v)
    return v if cw.sign == 1 else weyl.negate(v)


def reflection_of_curve(cw: CurveWord, C: CartanMatrix) -> weyl.Reflection:
    """The reflection of the curve's root, which the loop word spells."""
    return weyl.reflection_for_root(C, root_of_curve(cw, C))


# No command reaches fan, braid_move_curves or apply_braid_word_curves yet:
# they are kept for the curve words that `schur verify` is to carry as
# certificates, and perfbench/tracer.py wraps braid_move_curves by name.
def fan(n: int) -> tuple[CurveWord, ...]:
    """The n straight curves to the punctures; they present (s_1, ..., s_n)."""
    if n < 1:
        raise ValueError("need at least one puncture")
    return tuple(CurveWord((), k) for k in range(1, n + 1))


def braid_move_curves(
    curves: tuple[CurveWord, ...], i: int, inverse: bool = False
) -> tuple[CurveWord, ...]:
    """Generator move on a curve tuple, mirroring the move on reflection tuples.

    Slot i of the image presents (loop of slot i) applied to slot i+1, i.e. the
    conjugated curve; the displaced curve shifts one slot.  The inverse move
    conjugates by the reversed loop word of the right-hand neighbour.
    """
    n = len(curves)
    if not 1 <= i <= n - 1:
        raise ValueError(f"braid index {i} out of range 1..{n - 1}")
    left, right = curves[i - 1], curves[i]
    if inverse:
        conjugated = canonicalize(
            tuple(reversed(loop_of_curve(right))) + left.letters, left.end, left.sign
        )
        pair = (right, conjugated)
    else:
        conjugated = canonicalize(
            loop_of_curve(left) + right.letters, right.end, right.sign
        )
        pair = (conjugated, left)
    return curves[: i - 1] + pair + curves[i + 1 :]


def apply_braid_word_curves(
    curves: tuple[CurveWord, ...], word: hurwitz.BraidWord
) -> tuple[CurveWord, ...]:
    for letter in word:
        if letter == 0 or abs(letter) > len(curves) - 1:
            raise ValueError(f"braid letter {letter} out of range")
        curves = braid_move_curves(curves, abs(letter), inverse=letter < 0)
    return curves


_SPIRAL_LETTER_CAP = 10**6


def spiral(cw: CurveWord, order: tuple[int, ...], k: int) -> CurveWord:
    """Prepend the Coxeter word (reversed for negative k) |k| times.

    Realizes the action of c^k on the root while staying inside the word model,
    so simplicity status is preserved.  A word of more than _SPIRAL_LETTER_CAP
    letters before reduction is refused (RuntimeError) before it is built.
    """
    size = len(order) * abs(k) + len(cw.letters)
    if size > _SPIRAL_LETTER_CAP:
        raise RuntimeError(
            f"spiral word of {size} letters exceeds the safety cap of "
            f"{_SPIRAL_LETTER_CAP} letters"
        )
    if k >= 0:
        prefix = tuple(order) * k
    else:
        prefix = tuple(reversed(order)) * (-k)
    return canonicalize(prefix + cw.letters, cw.end, cw.sign)


def mutation_word_map(cw: CurveWord, which: str, order: tuple[int, ...]) -> CurveWord:
    """Prepend the first (source) or last (sink) letter of the Coxeter order.

    The result is a curve word for the reoriented session obtained by rotating
    the order; see the orientation module for the matching rotation.
    """
    if which == "source":
        letter = order[0]
    elif which == "sink":
        letter = order[-1]
    else:
        raise ValueError("which must be 'source' or 'sink'")
    return canonicalize((letter,) + cw.letters, cw.end, cw.sign)


def universal_model(n: int) -> CartanMatrix:
    """The weight-2 universal matrix: its Weyl group is the universal Coxeter
    group on n generators, where curve words are faithful."""
    return preset(f"universal:{n}:2")


def is_simple(cw: CurveWord, n: int) -> hurwitz.Ternary:
    """Decide whether the curve's reflection t starts a reflection
    factorization of the Coxeter element, i.e. whether the curve lies in the
    braid-orbit closure of the fan.

    Simplicity is a property of the curve, not of any particular root system,
    so t is read in the universal group U on n generators, and Dyer's search
    decides whether t c is a product of n - 1 reflections there
    (hurwitz.dyer_prefix).  YES means it found a product-checked
    factorization, NO is decided, and UNKNOWN means the descent to t
    (reflection_of_curve) or the search passed weyl._DYER_CAP.
    """
    if cw.end > n or any(x > n for x in cw.letters):
        raise ValueError(f"word references punctures beyond {n}")
    U = universal_model(n)
    try:
        t = reflection_of_curve(cw, U)
        witness = hurwitz.dyer_prefix(U, t, hurwitz.canonical_factorization(U).coxeter)
    except RuntimeError:
        return hurwitz.Ternary.UNKNOWN
    return hurwitz.Ternary.NO if witness is None else hurwitz.Ternary.YES
