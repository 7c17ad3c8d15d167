"""The golden corpus of CLI outputs: one line of tests/golden/cli.jsonl per
command line, with its exit code and the sha256 of its stdout, its stderr
and, for `curve render`, the SVG file it writes.

    PYTHONPATH=src python tests/golden/regen.py

recomputes every entry in-process through cli.run, rewrites cli.jsonl and
prints each entry that changed.  A change whose output is meant to move
regenerates the corpus and names every printed entry and its reason in
CHANGES.md; any other changed entry is a regression, and
tests/test_golden.py fails on it.

Every line is read by the parser (no --help, no refusal by the grammar);
validation errors from the handlers (exit 1) and caps (exit 2) are kept,
since their exit codes are part of the surface.  Each line runs in a
temporary working directory that holds CARTAN_FILES, and `curve render`
writes its SVG to the relative path RENDER_OUT there.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from schur_scope import cartan, cli, weyl

CORPUS = Path(__file__).with_name("cli.jsonl")
RENDER_OUT = "curve.svg"
CARTAN_FILES = {
    "affine-b4.txt": "5\n2 -1 0 0 0\n-1 2 -1 0 -1\n0 -1 2 -2 0\n0 0 -1 2 0\n0 -1 0 0 2\n",
    # Two components, refused as reducible.
    "reducible.txt": "3\n2 -1 0\n-1 2 0\n0 0 2\n",
    # A 3-cycle whose ratios a_ij/a_ji multiply to 1/8, refused as not symmetrizable.
    "three-cycle.txt": "3\n2 -1 -2\n-2 2 -1\n-1 -2 2\n",
    # d = (3, 2, 2): the ratio d_2/d_1 = 2/3 is not integral.
    "valued.txt": "3\n2 -2 0\n-3 2 -1\n0 -1 2\n",
    # An entry with a "_" separator, which int() would read as -10; refused.
    "separator.txt": "2 / 2 -1_0 / -1 2\n",
}

# preset: (rank, height bound or None); an infinite type runs at its bound,
# and its orbit commands stop at an orbit cap of 60.
_PRESETS = {
    "A2": (2, None), "B2": (2, None), "G2": (2, None), "A3": (3, None), "B3": (3, None),
    "C3": (3, None), "A4": (4, None), "D4": (4, None), "F4": (4, None),
    "affine-A1": (2, "6"), "affine-A2": (3, "4"), "affine-A3": (4, "4"),
    "universal:2:3": (2, "6"), "universal:3:2": (3, "4"), "universal:3:3": (3, "3"),
    "universal:4:2": (4, "3"),
}


def _csv(values) -> str:
    return ",".join(map(str, values))


def _preset_lines(name: str) -> list[list[str]]:
    n, height = _PRESETS[name]
    session = ["--type", name] + (["--height", height] if height else [])
    capped = ["--orbit-cap", "60"] if height else []
    root = _csv([1, 1] + [0] * (n - 2))  # the sum of the first two simple roots
    last = _csv([0] * (n - 1) + [1])  # the last simple root
    word = "1,-2,1" if n > 2 else "1,-1,1"
    curve = ["--word", _csv(range(n - 1, 0, -1)), "--end", str(n)]
    tails = [
        ["roots", "list"],
        ["group", "order"],
        [*capped, "orbit", "count"],
        [*capped, "orbit", "dump"],
        ["schur", "check", "--root", root],
        ["schur", "check", "--root", last],
        ["schur", "list"],
        ["schur", "verify"],
        ["nc", "list"],
        ["nc", "list", "--dot"],
        ["nc", "leq", "--u", last, "--w", root],
        ["nc", "leq", "--u", root, "--w", root],
        ["nc", "chain"],
        ["nc", "chain", "--u", root],
        ["braid", "apply", "--word", word],
        ["braid", "stab", "--word", word],
        ["curve", "root", *curve],
        ["curve", "root", "--neg", *curve],
        ["curve", "loop", *curve],
        ["curve", "simple", *curve],
        ["curve", "simple", "--end", "1"],
        ["curve", "spiral", "--k", "2", *curve],
        ["curve", "spiral", "--k=-1", "--neg", *curve],
        ["curve", "render", *curve, "--out", RENDER_OUT],
        ["mutate", "source"],
        ["mutate", "sink"],
    ]
    lines = [session + tail for tail in tails]
    # The reversed Coxeter order n, ..., 1.
    reversed_order = ["--order", _csv(range(n, 0, -1))]
    for tail in ([*capped, "orbit", "count"], ["schur", "verify"], ["mutate", "source"],
                 ["nc", "chain"]):
        lines.append(session + reversed_order + tail)
    return lines


# The commands of the CI job, but for E7 `orbit count` (a million tuples).
_CI_LINES = [
    ["--type", "E8", "group", "order"],
    ["--type", "E7", "group", "order"],
    ["--type", "B30", "group", "order"],
    ["--type", "E6", "nc", "list"],
    ["--type", "D6", "nc", "list"],
    ["--type", "E7", "nc", "list"],
    ["--type", "E7", "nc", "leq", "--u", "1,0,0,0,0,0,0", "--w", "1,0,0,0,0,0,0"],
    ["--type", "E8", "nc", "chain"],
    ["--type", "E8", "schur", "list"],
    ["--type", "E7", "schur", "verify"],
    ["--type", "E6", "schur", "verify"],
    ["--type", "universal:4:2", "--height", "4", "schur", "verify"],
    ["--type", "A5", "--height", "2", "schur", "verify"],
    ["--type", "E6", "orbit", "count"],
    ["--type", "universal:4:2", "curve", "simple", "--word", "1,2,1,2,3", "--end", "4"],
    ["--type", "universal:4:2", "curve", "simple", "--word", "1,2,3", "--end", "4"],
    ["--type", "affine-A3", "--height", "12", "schur", "verify"],
    ["--type", "affine-A2", "nc", "leq", "--u", "31,32,31", "--w", "[[2,1,-2],[2,0,-1],[1,1,-1]]"],
    ["--cartan", "affine-b4.txt", "schur", "check", "--root", "1,0,1,0,0"],
    ["--type", "universal:3:2", "--orbit-cap", "20000", "orbit", "count"],
    ["--type", "universal:2:3", "nc", "leq", "--u", "1,0", "--w", "[[-1,0],[0,-1]]"],
]

# A prefix search that ends UNKNOWN (exit 2) under the default orbit cap.
_UNKNOWN_LINES = [["--type", "affine-A2", "--height", "4", "schur", "check", "--root", "1,2,1"]]

# The orbit searches: every positive real root up to height 6 of these
# presets, in the identity and reversed orders, at the default cap and at
# tight ones.
_SEARCH_PRESETS = ("universal:3:2", "affine-A2", "affine-A3", "universal:4:2")
_SEARCH_HEIGHT = 6

# Freely reduced length-4 words on universal:3:2 whose curves are simple,
# with their ends.
_SIMPLE_WORDS = [
    ((1, 2, 1, 2), 1), ((1, 2, 1, 3), 1), ((1, 2, 3, 1), 2), ((1, 2, 3, 1), 3),
    ((1, 2, 3, 2), 1), ((1, 2, 3, 2), 3), ((1, 3, 1, 3), 1), ((1, 3, 1, 3), 2),
    ((1, 3, 2, 3), 1), ((1, 3, 2, 3), 2), ((2, 1, 2, 1), 2), ((2, 3, 2, 3), 2),
    ((3, 1, 2, 1), 2), ((3, 1, 2, 1), 3), ((3, 1, 3, 1), 2), ((3, 1, 3, 1), 3),
    ((3, 2, 1, 2), 1), ((3, 2, 1, 2), 3), ((3, 2, 1, 3), 1), ((3, 2, 1, 3), 2),
    ((3, 2, 3, 1), 3), ((3, 2, 3, 2), 3),
]


def _search_lines() -> list[list[str]]:
    lines = []
    for name in _SEARCH_PRESETS:
        n = _PRESETS[name][0]
        roots = weyl.positive_real_roots(cartan.preset(name), _SEARCH_HEIGHT)
        for order in ([], ["--order", _csv(range(n, 0, -1))]):
            session = ["--type", name, *order]
            for cap in ([], ["--orbit-cap", "10"]):
                check = session + cap + ["schur", "check", "--root"]
                lines += [check + [_csv(root)] for root in roots]
            for cap in ([], ["--orbit-cap", "10"], ["--orbit-cap", "50"]):
                lines.append(session + cap + ["--height", str(_SEARCH_HEIGHT), "schur", "verify"])
    for letters, end in _SIMPLE_WORDS:
        lines.append(["--type", "universal:3:2", "curve", "simple",
                      "--word", _csv(letters), "--end", str(end)])
    return lines


# The prefix certificates past _SEARCH_HEIGHT: `--json schur check` on every
# positive real root of each preset between its two heights, in the identity
# and reversed orders, at the default cap and at a tight one.  These lines
# come in --json only.
_PREFIX_SLICE = {
    "universal:3:3": (1, 10), "affine-A4": (1, 7), "universal:5:2": (1, 5),
    "universal:3:2": (7, 12), "affine-A2": (7, 12), "affine-A3": (7, 10),
    "universal:4:2": (7, 7),
}


def _prefix_lines() -> list[list[str]]:
    lines = []
    for name, (low, high) in _PREFIX_SLICE.items():
        C = cartan.preset(name)
        roots = [root for root in weyl.positive_real_roots(C, high) if weyl.height(root) >= low]
        for order in ([], ["--order", _csv(range(C.n, 0, -1))]):
            for cap in ([], ["--orbit-cap", "10"]):
                check = ["--json", "--type", name, *order, *cap, "schur", "check", "--root"]
                lines += [check + [_csv(root)] for root in roots]
    return lines


# The group tables of the finite presets past rank 4, as `nc list` and the
# benchmark's groups workload read them, in the identity and reversed orders.
# With --dot, the payload holds a string with newlines.
_GROUP_PRESETS = {"A5": 5, "B4": 4, "D5": 5, "D6": 6}


def _group_lines() -> list[list[str]]:
    lines = []
    for name, n in _GROUP_PRESETS.items():
        for order in ([], ["--order", _csv(range(n, 0, -1))]):
            session = ["--type", name, *order]
            for tail in (["nc", "list"], ["nc", "list", "--dot"], ["group", "order"],
                         ["roots", "list"], ["orbit", "count"]):
                lines.append(session + tail)
    return lines


_FIXTURES = ("example-2.6", "example-3.6", "table-4")

# Entry and error paths that no other line runs (tests/test_reach.py): an
# abbreviated option, which only argparse reads; an unknown preset and an
# unknown fixture (exit 1); the rank-1 group table and orbit; a reducible
# and a non-symmetrizable matrix file (exit 1); a valued matrix whose
# symmetrizer is not found by integral ratios alone; preset labels with a
# sign or a digit outside ASCII, and integer tokens with a digit outside
# ASCII or a "_" separator, which are refused (exit 1); and an --order that
# repro, which needs no matrix, is given without one (exit 1).
_ENTRY_LINES = [
    ["--typ", "A2", "roots", "list"],
    ["--type", "Z9", "roots", "list"],
    ["repro", "no-such-fixture"],
    ["--type", "A1", "nc", "list"],
    ["--type", "A1", "orbit", "count"],
    ["--type", "A1", "orbit", "dump"],
    ["--cartan", "reducible.txt", "roots", "list"],
    ["--cartan", "three-cycle.txt", "roots", "list"],
    ["--cartan", "valued.txt", "--height", "4", "schur", "verify"],
    ["--type", "affine-A+2", "roots", "list"],
    ["--type", "A\u0663", "group", "order"],
    ["--type", "A3", "schur", "check", "--root", "\u0661,0,0"],
    ["--type", "A3", "--order", "\u0663,1,2", "mutate", "source"],
    ["--type", "A3", "braid", "apply", "--word", "1_2"],
    ["--cartan", "separator.txt", "roots", "list"],
    ["--order", "2,1,3", "repro", "table-4"],
]


# The braid commands past the preset lines' one short word: on every preset,
# a positive word and a mixed one of twelve or more letters (the positive one
# in the reversed order too), and the letters 0, n and -n, which are refused
# for n strands; on A1, whose one strand takes no letter, +1 and -1; and the
# words sigma_1^h that fix the fan of a rank-2 finite type of Coxeter number h.
_STABILIZING_WORDS = {"A2": 3, "B2": 4, "G2": 6}


def _braid_lines() -> list[list[str]]:
    lines = []
    for name, (n, _) in _PRESETS.items():
        session = ["--type", name]
        letters = [k % (n - 1) + 1 for k in range(13)]
        words = [_csv(letters[:12]), _csv(x if k % 3 < 2 else -x for k, x in enumerate(letters))]
        reversed_order = ["--order", _csv(range(n, 0, -1))]
        for action in ("apply", "stab"):
            lines += [session + ["braid", action, "--word", word] for word in words]
            lines.append(session + reversed_order + ["braid", action, "--word", words[0]])
            lines += [session + ["braid", action, f"--word={x}"] for x in (0, n, -n)]
    for action in ("apply", "stab"):
        lines += [["--type", "A1", "braid", action, f"--word={x}"] for x in (1, -1)]
        lines += [["--type", name, "braid", action, "--word", _csv([1] * h)]
                  for name, h in _STABILIZING_WORDS.items()]
    return lines


# A real root of affine-A1 of height about 2 10^12, whose descent to a simple
# root would take 10^12 steps, refused at weyl._DYER_CAP steps (exit 2).
_TALL_ROOT = "1000000000000,1000000000001"
_TALL_ROOT_LINES = [
    ["--type", "affine-A1", "schur", "check", "--root", _TALL_ROOT],
    ["--type", "affine-A1", "nc", "leq", "--u", _TALL_ROOT, "--w", "1,0"],
    ["--type", "affine-A1", "nc", "leq", "--u", "1,0", "--w", _TALL_ROOT],
]


def corpus_lines() -> list[list[str]]:
    lines = [line for name in _PRESETS for line in _preset_lines(name)]
    lines += _CI_LINES + _UNKNOWN_LINES + _search_lines()
    lines += [["repro", fixture] for fixture in _FIXTURES]
    # D6 `nc list` is a CI line too; each line is kept once, where it first comes.
    lines += [line for line in _group_lines() if line not in lines]
    lines += _ENTRY_LINES + _braid_lines() + _TALL_ROOT_LINES
    return [argv for line in lines for argv in (line, ["--json", *line])] + _prefix_lines()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record(argv: list[str]) -> dict:
    """The entry of argv, run through cli.run in the current directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    entry = {
        "argv": argv,
        "exit": code,
        "stdout": _sha(out.getvalue().encode()),
        "stderr": _sha(err.getvalue().encode()),
    }
    if os.path.exists(RENDER_OUT):
        entry["file"] = _sha(Path(RENDER_OUT).read_bytes())
        os.remove(RENDER_OUT)
    return entry


def prepare(workdir: Path) -> None:
    """Write the input files that the corpus lines read into workdir."""
    for name, text in CARTAN_FILES.items():
        (workdir / name).write_text(text, encoding="utf-8")


def main() -> int:
    old = {}
    if CORPUS.exists():
        for text in CORPUS.read_text(encoding="utf-8").splitlines():
            entry = json.loads(text)
            old[tuple(entry["argv"])] = text
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        prepare(Path(workdir))
        os.chdir(workdir)
        try:
            entries = [json.dumps(record(argv), sort_keys=True) for argv in corpus_lines()]
        finally:
            os.chdir(here)
    changed = 0
    for text in entries:
        argv = tuple(json.loads(text)["argv"])
        if old.pop(argv, None) != text:
            print(f"changed: {text}")
            changed += 1
    for text in old.values():
        print(f"removed: {text}")
    CORPUS.write_text("".join(text + "\n" for text in entries), encoding="utf-8")
    print(f"{len(entries)} entries, {changed + len(old)} changed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
