"""Workloads of the schur-scope CLI benchmark: the commands, drawn from a seed,
and the checks each command's JSON output must pass.

Every command is one cold `python -m schur_scope --json ...` invocation.  The
seed draws the `--order` permutation of every command and the extra curve
word of `certify`; the expected answers below hold for every draw.

The order draw does not change the work of the finite-type commands: the
traced call counts of every layer are the same for four orders each of
`orbit count` on A5 and D5, `nc list` on D5 and `group order` on D6 (all
Coxeter elements of a finite Weyl group are conjugate).  Their cold times,
as the fastest of four repeats per order on a 2-vCPU VM under load from
other tenants, were A5 orbit 2.57-3.15 s, D5 orbit 4.42-5.57 s, D5 nc list
4.70-5.15 s and D6 group order 5.67-6.23 s across three orders; repeats of
a single order spread as widely (the traced self time of A5 orbit moved
from 2.4 s to 3.4 s between two repeats of one order), so no cost
difference between orders could be told from the host's noise.

Why each workload:

- orbit: exhaustive Hurwitz-orbit closures (braid moves, factorization
  re-checks, root_of_reflection, matmul) that never reach group tables, pools
  or curves.
- groups: dense finite-group tables and invariants (enumerate_group, the
  absolute-length table, the Fraction inverse in nc list, classify_type's
  minor walk) with no braid moves.
- certify: the infinite-type certificate searches: height-pruned targeted
  orbit searches with early exit, lazily grown reflection pools, the
  curve-tuple harvest keyed on evaluated loop matrices, and curve simplicity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

Root = tuple[int, ...]


@dataclass(frozen=True)
class Outcome:
    """What one command's output showed: a failed check, and how many of its
    answers were definitive (resolved) or UNKNOWN (unresolved)."""

    problem: str | None
    resolved: int = 0
    unresolved: int = 0


Check = Callable[[dict, int], Outcome]


@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]  # CLI arguments after `python -m schur_scope --json`
    seed_seconds: float  # typical cold wall time at the seed commit
    check: Check

    @property
    def timeout(self) -> float:
        """Well above the seed time, so only a hang or a large slowdown trips it."""
        return max(10.0, 10.0 * self.seed_seconds)


@dataclass(frozen=True)
class Workload:
    commands: tuple[Command, ...]
    setup: tuple[Command, ...]  # `mutate source` once per preset: start-up cost only


def _expect_code(code: int, expected: int) -> str | None:
    return None if code == expected else f"exit code {code}, expected {expected}"


# --- orbit ---------------------------------------------------------------------

# n! h^n / |W| for each type.
ORBIT_COUNTS = {"A3": 16, "A5": 1296, "B4": 256, "D5": 2048}


def _check_orbit(count: int) -> Check:
    def check(payload: dict, code: int) -> Outcome:
        if payload != {"count": count, "complete": True}:
            return Outcome(f"orbit payload {payload}, expected count {count}, complete")
        problem = _expect_code(code, 0)
        return Outcome(problem, resolved=1)

    return check


# --- groups --------------------------------------------------------------------


def _chains_from_covers(ranks: list[int], covers: list[list[int]]) -> int:
    """Maximal chains counted from the emitted cover relation alone."""
    ways = [0] * len(ranks)
    ways[ranks.index(0)] = 1
    for lo, hi in sorted(covers, key=lambda edge: ranks[edge[0]]):
        ways[hi] += ways[lo]
    return ways[ranks.index(max(ranks))]


def _check_nc(size: int, rank_counts: list[int], chains: int) -> Check:
    def check(payload: dict, code: int) -> Outcome:
        nodes, covers = payload.get("nodes", []), payload.get("covers", [])
        ranks = [node["rank"] for node in nodes]
        if payload.get("size") != size or len(nodes) != size:
            return Outcome(f"nc size {payload.get('size')}, expected {size}")
        if [node["id"] for node in nodes] != list(range(size)):
            return Outcome("nc node ids are not 0..size-1")
        if [ranks.count(r) for r in range(len(rank_counts))] != rank_counts:
            return Outcome(f"nc rank counts differ from {rank_counts}")
        if any(ranks[hi] != ranks[lo] + 1 for lo, hi in covers):
            return Outcome("nc cover joins non-adjacent ranks")
        found = _chains_from_covers(ranks, covers)
        if found != chains:
            return Outcome(f"nc covers give {found} maximal chains, expected {chains}")
        return Outcome(_expect_code(code, 0), resolved=1)

    return check


def _check_group_order(order: int) -> Check:
    def check(payload: dict, code: int) -> Outcome:
        if payload != {"order": order}:
            return Outcome(f"group order payload {payload}, expected {order}")
        return Outcome(_expect_code(code, 0), resolved=1)

    return check


def _check_unit_roots(rank: int) -> Check:
    """Height-1 real roots are exactly the simple roots and their negatives."""
    expected = sorted(
        tuple(sign * int(i == j) for j in range(rank))
        for i in range(rank)
        for sign in (1, -1)
    )

    def check(payload: dict, code: int) -> Outcome:
        roots = sorted(tuple(r) for r in payload.get("roots", []))
        if payload.get("height_bound") != 1 or roots != expected:
            return Outcome(f"roots list gave {len(roots)} roots, expected {len(expected)}")
        return Outcome(_expect_code(code, 0), resolved=1)

    return check


# --- certify -------------------------------------------------------------------

# Seed-commit `schur verify` answers with the identity order: (YES roots,
# UNKNOWN roots).  Every preset used here has a Cartan matrix fixed by all
# vertex permutations, so the answers for order (o1, ..., on) are these roots
# with coordinate k moved to position o_k (see _relabel).
_U32_H12_YES = [
    (0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0),
    (2, 0, 1), (2, 1, 0), (0, 2, 3), (0, 3, 2), (2, 0, 3), (2, 3, 0), (3, 0, 2),
    (3, 2, 0), (0, 3, 4), (0, 4, 3), (3, 0, 4), (3, 4, 0), (4, 0, 3), (4, 3, 0),
    (0, 4, 5), (0, 5, 4), (1, 2, 6), (2, 1, 6), (4, 0, 5), (4, 5, 0), (5, 0, 4),
    (5, 4, 0), (6, 1, 2), (6, 2, 1), (0, 5, 6), (0, 6, 5), (5, 0, 6), (5, 6, 0),
    (6, 0, 5), (6, 5, 0),
]
_U32_H12_UNKNOWN = [(1, 6, 2), (2, 6, 1)]
_AA2_H10_YES = [
    (0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 2),
    (2, 1, 1), (1, 2, 2), (2, 2, 1), (2, 2, 3), (3, 2, 2), (2, 3, 3), (3, 3, 2),
    (3, 3, 4), (4, 3, 3),
]
_AA2_H10_UNKNOWN = [(1, 2, 1), (2, 1, 2), (2, 3, 2), (3, 2, 3), (3, 4, 3)]
_U42_H4_YES = [
    (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 2),
    (0, 0, 2, 1), (0, 1, 0, 2), (0, 1, 2, 0), (0, 2, 0, 1), (0, 2, 1, 0),
    (1, 0, 0, 2), (1, 0, 2, 0), (1, 2, 0, 0), (2, 0, 0, 1), (2, 0, 1, 0),
    (2, 1, 0, 0),
]
_U32_H4_YES = [
    (0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0),
    (2, 0, 1), (2, 1, 0),
]


def _relabel(root: Root, order: tuple[int, ...]) -> Root:
    """Image of a root under the diagram automorphism k -> order[k - 1], which
    carries the identity-order Coxeter element to the one of `order`."""
    image = [0] * len(root)
    for k, target in enumerate(order):
        image[target - 1] = root[k]
    return tuple(image)


def _check_verify(
    order: tuple[int, ...], yes: list[Root], unknown: list[Root]
) -> Check:
    """A seed YES stays YES and YES plus UNKNOWN stays the same root set; an
    UNKNOWN may turn into YES, which lowers the unresolved count."""
    seed_yes = {_relabel(r, order) for r in yes}
    seed_all = seed_yes | {_relabel(r, order) for r in unknown}

    def check(payload: dict, code: int) -> Outcome:
        if payload.get("truncated") is not False or payload.get("sets_match") is not True:
            return Outcome("schur verify was truncated or its root sets differ")
        got_yes = {tuple(r) for r in payload["sets"]["prefix"]}
        got_unknown = {tuple(r) for r in payload["unknowns"]}
        if not seed_yes <= got_yes:
            return Outcome(f"seed YES roots lost: {sorted(seed_yes - got_yes)}")
        if got_yes | got_unknown != seed_all or got_yes & got_unknown:
            return Outcome("schur verify root set differs from the seed commit")
        problem = _expect_code(code, 2 if got_unknown else 0)
        return Outcome(problem, resolved=len(got_yes), unresolved=len(got_unknown))

    return check


# (letters, end) on universal:3:2 with the verdict at the seed commit.
CURVE_BASELINE = ((2, 1, 3, 1), 2, "no-within-bound")

# Freely reduced length-4 words on three letters certified simple at the seed
# commit.  The seed draws the extra certify word from these only: a YES stops
# at its witness (0.1-0.3 s), while a no-within-bound search runs the whole
# pruned region (1.4-3.9 s), so drawing from all 48 words would let the seed,
# not the program, move certify's wall time by up to a quarter.  The fixed
# baseline word above measures the exhaustive path.
SIMPLE_WORDS = [
    ((1, 2, 1, 2), 1), ((1, 2, 1, 3), 1), ((1, 2, 3, 1), 2), ((1, 2, 3, 1), 3),
    ((1, 2, 3, 2), 1), ((1, 2, 3, 2), 3), ((1, 3, 1, 3), 1), ((1, 3, 1, 3), 2),
    ((1, 3, 2, 3), 1), ((1, 3, 2, 3), 2), ((2, 1, 2, 1), 2), ((2, 3, 2, 3), 2),
    ((3, 1, 2, 1), 2), ((3, 1, 2, 1), 3), ((3, 1, 3, 1), 2), ((3, 1, 3, 1), 3),
    ((3, 2, 1, 2), 1), ((3, 2, 1, 2), 3), ((3, 2, 1, 3), 1), ((3, 2, 1, 3), 2),
    ((3, 2, 3, 1), 3), ((3, 2, 3, 2), 3),
]


def _check_curve(letters: tuple[int, ...], end: int, verdict: str) -> Check:
    """A definitive seed verdict never changes; an unknown one may resolve."""

    def check(payload: dict, code: int) -> Outcome:
        got = payload.get("simple")
        if payload.get("letters") != list(letters) or payload.get("end") != end:
            return Outcome(f"curve simple echoed the wrong word: {payload}")
        if got not in ("yes", "no-within-bound", "unknown"):
            return Outcome(f"curve simple verdict {got!r}")
        if verdict != "unknown" and got != verdict:
            return Outcome(f"curve simple verdict {got!r}, seed verdict {verdict!r}")
        problem = _expect_code(code, 0 if got == "yes" else 2)
        if got == "unknown":
            return Outcome(problem, unresolved=1)
        return Outcome(problem, resolved=1)

    return check


# --- set-up commands -----------------------------------------------------------


def _check_mutate(order: tuple[int, ...]) -> Check:
    rotated = list(order[1:] + order[:1])

    def check(payload: dict, code: int) -> Outcome:
        if payload != {"order": rotated}:
            return Outcome(f"mutate source gave {payload}, expected {rotated}")
        return Outcome(_expect_code(code, 0))

    return check


# --- assembly ------------------------------------------------------------------

RANKS = {
    "A3": 3, "A5": 5, "B2": 2, "B4": 4, "D5": 5, "D6": 6, "affine-A12": 13,
    "universal:3:2": 3, "affine-A2": 3, "universal:4:2": 4,
}


def _session(rng: random.Random, preset: str, *rest: str):
    """A seed-drawn --order for the preset, and the CLI arguments using it."""
    n = RANKS[preset]
    order = tuple(rng.sample(range(1, n + 1), n))
    return order, ("--type", preset, "--order", ",".join(map(str, order)), *rest)


def _orbit_count(rng: random.Random, preset: str, seconds: float) -> Command:
    _, args = _session(rng, preset, "orbit", "count")
    return Command(args, seconds, _check_orbit(ORBIT_COUNTS[preset]))


def _verify(rng: random.Random, preset: str, height: int, yes, unknown, seconds: float):
    order, args = _session(rng, preset, "--height", str(height), "schur", "verify")
    return Command(args, seconds, _check_verify(order, yes, unknown))


def _curve(rng: random.Random, letters, end: int, verdict: str, seconds: float):
    word = ",".join(map(str, letters))
    _, args = _session(rng, "universal:3:2", "curve", "simple", "--word", word, "--end", str(end))
    return Command(args, seconds, _check_curve(letters, end, verdict))


def _mutate(rng: random.Random, preset: str) -> Command:
    order, args = _session(rng, preset, "mutate", "source")
    return Command(args, 0.07, _check_mutate(order))


def build(name: str, seed: int) -> Workload:
    """The workload's commands, with every random choice drawn from `seed`.

    The seconds given to each command are its median cold wall time at the
    seed commit on a 2-CPU machine; they only set its timeout.
    """
    rng = random.Random(seed)
    if name == "orbit":
        commands = [
            _orbit_count(rng, "A5", 2.5),
            _orbit_count(rng, "B4", 0.3),
            _orbit_count(rng, "D5", 3.8),
        ]
    elif name == "groups":
        commands = [
            Command(
                _session(rng, "D5", "nc", "list")[1], 5.2,
                _check_nc(182, [1, 20, 70, 70, 20, 1], ORBIT_COUNTS["D5"]),
            ),
            Command(_session(rng, "D6", "group", "order")[1], 4.5, _check_group_order(23040)),
            Command(
                _session(rng, "affine-A12", "--height", "1", "roots", "list")[1], 1.3,
                _check_unit_roots(13),
            ),
        ]
    elif name == "certify":
        letters, end = rng.choice(SIMPLE_WORDS)
        commands = [
            _verify(rng, "universal:3:2", 12, _U32_H12_YES, _U32_H12_UNKNOWN, 1.7),
            _verify(rng, "affine-A2", 10, _AA2_H10_YES, _AA2_H10_UNKNOWN, 1.25),
            _verify(rng, "universal:4:2", 4, _U42_H4_YES, [], 3.6),
            _curve(rng, *CURVE_BASELINE, 2.45),
            _curve(rng, letters, end, "yes", 0.15),
        ]
    elif name == "smoke":  # tiny inputs for perfbench/test_smoke.py
        commands = [
            _orbit_count(rng, "A3", 0.1),
            Command(_session(rng, "B2", "nc", "list")[1], 0.1, _check_nc(6, [1, 4, 1], 4)),
            _verify(rng, "universal:3:2", 4, _U32_H4_YES, [], 0.35),
        ]
    else:
        raise ValueError(f"unknown workload {name!r}")
    presets = dict.fromkeys(command.args[1] for command in commands)
    return Workload(tuple(commands), tuple(_mutate(rng, p) for p in presets))


WORKLOADS = ("orbit", "groups", "certify", "smoke")
