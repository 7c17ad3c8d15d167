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

import enum
from dataclasses import dataclass

from . import hurwitz, weyl
from .cartan import CartanMatrix, preset
from .hurwitz import DEFAULT_NODE_CAP, Ternary
from .weyl import Root

LoopWord = tuple[int, ...]


@dataclass(frozen=True)
class CurveWord:
    """Canonical ray-crossing word: freely reduced, last letter != end."""

    letters: tuple[int, ...]
    end: int
    sign: int = 1

    def __post_init__(self):
        if self.end < 1 or any(x < 1 for x in self.letters):
            raise ValueError("ray and puncture indices are 1-based positives")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if any(a == b for a, b in zip(self.letters, self.letters[1:])):
            raise ValueError("letters are not freely reduced")
        if self.letters and self.letters[-1] == self.end:
            raise ValueError("canonical words do not end with the endpoint letter")


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


def spiral(cw: CurveWord, order: tuple[int, ...], k: int) -> CurveWord:
    """Prepend the Coxeter word (reversed for negative k) |k| times.

    Realizes the action of c^k on the root while staying inside the word model,
    so simplicity status is preserved.
    """
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


class SimpleVerdict(enum.Enum):
    YES = "yes"
    NO_WITHIN_BOUND = "no-within-bound"
    UNKNOWN = "unknown"


def universal_model(n: int) -> CartanMatrix:
    """The weight-2 universal matrix: its Weyl group is the universal Coxeter
    group on n generators, where curve words are faithful."""
    return preset(f"universal:{n}:2")


def is_simple(
    cw: CurveWord,
    n: int,
    node_cap: int = DEFAULT_NODE_CAP,
) -> SimpleVerdict:
    """Certify that the word lies in the braid-orbit closure of the fan.

    Simplicity is a property of the curve, not of any particular root system,
    so the curve's root is read in the universal group on n generators and fed
    to the bounded prefix search there, which builds the root's reflection.
    YES always comes with an explicit factorization found;
    NO_WITHIN_BOUND means the pruned search region was explored completely
    without a witness.
    """
    if cw.end > n or any(x > n for x in cw.letters):
        raise ValueError(f"word references punctures beyond {n}")
    U = universal_model(n)
    verdict = hurwitz.is_prefix_of_coxeter(root_of_curve(cw, U), U, node_cap=node_cap)
    if verdict.answer is Ternary.YES:
        return SimpleVerdict.YES
    if verdict.answer is Ternary.NO or verdict.exhausted:
        return SimpleVerdict.NO_WITHIN_BOUND
    return SimpleVerdict.UNKNOWN
