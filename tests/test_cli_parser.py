"""The CLI reads every command line as the argparse parser of the earlier CLI
did.

The CLI's grammar is the standard library's argparse, built by cli._parser
from the option tables; cli._plain reads the plain lines without building
it.  build_parser below is the earlier CLI's argparse parser, kept verbatim
as the reference.  On each line of the corpus the CLI must give the same
attributes, or refuse the line (exit 1), or ask for help (exit 0) as the
reference does, and wherever _plain reads a line it must give the
reference's attributes.  The reference is the argparse of the running
Python; the corpus keeps to lines that argparse 3.10 to 3.13 read alike, so
it leaves out "-hx" and "-h=h" (3.13 reads a single-dash -h with text glued
to it differently) and a value of exactly "--" joined by "=" (argparse
before 3.13 stores an empty list for it; see
test_a_joined_double_dash_is_a_plain_value).
"""

import argparse
import contextlib
import functools
import io
import random
import sys

import pytest

from schur_scope import cli
from schur_scope.cli import (
    EXIT_OK,
    EXIT_USAGE,
    _COMMANDS,
    _GLOBAL_OPTIONS,
    _plain,
    parse_args,
    run,
)
from schur_scope.hurwitz import DEFAULT_HEIGHT_BOUND, DEFAULT_NODE_CAP


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schur-scope",
        description="Exact computations with Coxeter elements, reflection "
        "factorizations, curve words and noncrossing partitions.",
    )
    parser.add_argument("--type", help="preset label, e.g. A3, B2, universal:3:2")
    parser.add_argument("--cartan", help="file with a Cartan matrix in text form")
    parser.add_argument("--order", help="Coxeter order as a permutation, e.g. 2,1,3")
    parser.add_argument("--json", action="store_true", help="emit JSON reports")
    parser.add_argument(
        "--orbit-cap", type=int, default=DEFAULT_NODE_CAP, help="orbit search node cap"
    )
    parser.add_argument(
        "--height", type=int, default=DEFAULT_HEIGHT_BOUND, help="root height bound"
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    sub.add_parser("roots").add_argument("action", choices=["list"])
    sub.add_parser("group").add_argument("action", choices=["order"])
    sub.add_parser("orbit").add_argument("action", choices=["count", "dump"])

    p = sub.add_parser("schur")
    p.add_argument("action", choices=["check", "list", "verify"])
    p.add_argument("--root", help="root coordinates, e.g. 1,1,0")

    p = sub.add_parser("nc")
    p.add_argument("action", choices=["list", "leq", "chain"])
    p.add_argument("--u", help="element (JSON matrix or reflection root)")
    p.add_argument("--w", help="element (JSON matrix or reflection root)")
    p.add_argument(
        "--dot",
        action="store_true",
        help="nc list: add a DOT graph of the covers (key dot) beside nodes and covers",
    )

    p = sub.add_parser("braid")
    p.add_argument("action", choices=["apply", "stab"])
    p.add_argument("--word", required=True, help="braid word, e.g. 1,-2,1")

    p = sub.add_parser("curve")
    p.add_argument("action", choices=["root", "loop", "simple", "spiral", "render"])
    p.add_argument("--word", default="", help="ray crossings, e.g. 2,1 (empty for fan)")
    p.add_argument("--end", type=int, required=True, help="endpoint puncture")
    p.add_argument("--neg", action="store_true", help="negative sign")
    p.add_argument("--k", type=int, default=1, help="spiral power")
    p.add_argument("--out", help="output path for render")

    p = sub.add_parser("mutate")
    p.add_argument("action", choices=["source", "sink"])

    p = sub.add_parser("repro")
    p.add_argument("fixture", help="fixture name, e.g. table-4")

    return parser


REFERENCE = build_parser()  # parse_args leaves the parser unchanged


def _quiet(parse, argv: list[str]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = parse(argv)
        except SystemExit as exc:
            return "help" if exc.code == 0 else "refused"
    # The argparse CLI printed its usage and exited 1 on a line with no command.
    return "refused" if args.command is None else vars(args)


def _reference(argv: list[str]):
    return _quiet(REFERENCE.parse_args, argv)


def _table(argv: list[str]):
    return _quiet(parse_args, argv)


VALUES = {
    "str": ["A2", "2,1", "-1", "-5", "-1 2", "", "a=b", "-", "x"],
    "int": ["3", "-3", "0", "+2", " 4", "1_0", "x", "-1.5", "-1,2", ""],
}


def _required(command: str) -> list[str]:
    return {"braid": ["--word", "1,-2"], "curve": ["--end", "3"]}.get(command, [])


def _heads(command: str) -> list[str]:
    choices = _COMMANDS[command][1]
    return list(choices) if choices else ["table-4", "-3", "x"]


def _structured_corpus() -> list[list[str]]:
    lines = [[]]
    # Every command and action; each option in both forms, before and after
    # the positional, abbreviated, and repeated.
    for command, (_, _, options) in _COMMANDS.items():
        for head in _heads(command):
            base = ["--type", "A2", command]
            lines.append(base + [head] + _required(command))
            lines.append(base + _required(command) + [head])
            lines.append(base + [head])
            for name, (kind, _, _, _) in options.items():
                rest = [] if name in _required(command) else _required(command)
                values = [None] if kind == "flag" else VALUES[kind]
                for value in values:
                    for form in (name, name[:3], name[:4]):
                        spelled = [form] if value is None else [form, value]
                        joined = [form] if value is None else [f"{form}={value}"]
                        lines.append(base + [head] + spelled + rest)
                        lines.append(base + spelled + [head] + rest)
                        lines.append(base + rest + joined + [head])
                        lines.append(base + [head] + rest + joined + joined)
                        lines.append(base + [head] + rest + spelled + joined)
                    if value is not None:
                        lines.append(base + [head] + rest + [name])  # no value
                lines.append(base + [head] + rest + [f"{name}=1"])
    # Global options in both forms, abbreviated and repeated.
    for name, (kind, _, _, _) in _GLOBAL_OPTIONS.items():
        values = [None] if kind == "flag" else VALUES[kind]
        for value in values:
            for form in (name, name[:3], name[:5], name[:6]):
                spelled = [form] if value is None else [form, value]
                joined = [form] if value is None else [f"{form}={value}"]
                for tail in (["roots", "list"], ["schur", "verify", "--root", "1,1"]):
                    lines.append(spelled + tail)
                    lines.append(joined + tail)
                    lines.append(spelled + joined + tail)
                    lines.append(["--type", "A3"] + tail[:1] + spelled + tail[1:])
    # Refusals, help, and "--".
    lines += [
        ["--type", "A2", "frobnicate"],
        ["--type", "A2", "orbit", "count", "--bogus"],
        ["--type", "A2", "--bogus", "orbit", "count"],
        ["--type", "A2", "--bogus=1", "orbit", "count"],
        ["--orbit-cap", "x", "orbit", "count"],
        ["--type", "A2", "orbit", "counted"],
        ["--type", "A2", "braid", "apply"],
        ["--type", "A2", "curve", "root", "--word", "2"],
        ["--o", "2,1", "--type", "A2", "orbit", "count"],
        ["--type", "A2", "curve", "render", "--end", "3", "--o", "x.svg"],
        ["--type", "A2", "curve", "render", "--end", "3", "--ou", "x.svg"],
        ["--json=1", "--type", "A2", "orbit", "count"],
        ["--type", "A2", "braid", "apply", "--word", "-1,2"],
        ["--type", "A2", "braid", "apply", "--word=-1,2"],
        ["--type", "A2", "braid", "apply", "--word", "-1"],
        ["--type", "A2", "schur", "verify", "--height", "4"],
        ["--type", "A2", "schur", "verify", "--json"],
        ["--type", "A2", "schur", "verify", "list"],
        ["--type", "A2", "schur", "verify", "--h"],
        ["--type", "A2", "schur", "verify", "--hel"],
        ["--type", "A2", "--h", "schur", "verify"],
        ["--type", "A2", "--he", "4", "schur", "verify"],
        ["--type", "A2", "--hei", "4", "schur", "verify"],
        ["--help"], ["-h"], ["-hh"], ["-h="], ["--help=x"], ["--hel"],
        ["--type", "A2"], ["--type"], ["schur"], ["repro"], ["repro", "-x"], ["-5"],
        ["--bogus", "--help"], ["--help", "--bogus"], ["--help", "--o"],
        ["--orbit-cap", "x", "--help"], ["--help", "--orbit-cap", "x"],
        ["--type", "A2", "schur", "bad", "--help"],
        ["--type", "A2", "schur", "--help", "bad"],
        ["--type", "A2", "nc", "list", "-h"],
        ["--type", "A2", "nc", "list", "--dot=1"],
        ["--type", "A2", "nc", "list", "--=x"],
        ["--type", "A2", "roots", "list", "--=x"],
        ["--type", "A2", "--", "roots", "list"],
        ["--", "--type", "A2", "roots", "list"],
        ["--type", "A2", "roots", "--", "list"],
        ["--type", "A2", "roots", "list", "--"],
        ["--type", "A2", "roots", "list", "--", "--"],
        ["--type", "A2", "roots", "list", "--", "list"],
        ["--type", "A2", "schur", "--root", "1", "--", "verify"],
        ["--type", "A2", "schur", "verify", "--root", "1", "--"],
        ["--type", "A2", "schur", "--root", "--", "verify"],
        ["--type", "A2", "schur", "--root", "1", "--"],
        ["--type", "A2", "repro", "--", "-x"],
        ["--type", "A2", "repro", "--", "--o"],
        ["--type", "A2", "repro", "--", "--"],
        ["--type", "A2", "repro", "-1 2"],
        ["--type", "-A2", "roots", "list"],
        ["--type", "-", "roots", "list"],
        ["--type=", "roots", "list"],
        ["---", "roots", "list"],
        ["-x", "roots", "list"],
        ["", "roots", "list"],
        ["--type", "A2", ""],
    ]
    return lines


TOKENS = [
    "--type", "A2", "--t", "--ty=A3", "--type=", "--o", "--or", "--ord", "--order=2,1",
    "2,1", "--orb", "--orbit-cap", "5", "-5", "-1.5", "x", "--json", "--json=1", "--j",
    "--height", "--hei=4", "--he", "--h", "--hel", "--help", "--help=x", "-h", "-hh", "-h=",
    "--", "-", "", "schur", "verify", "check", "list", "--root", "1,1", "--r=1,0", "--ro",
    "--word", "-1,2", "--word=-1,2", "--wo=1", "--end", "3", "--e", "--end=x", "nc", "leq",
    "--u", "--w", "--dot", "--d", "--dot=1", "curve", "simple", "render", "--out", "--ou",
    "--k", "-2", "--neg", "repro", "table-4", "braid", "apply", "roots", "group", "order",
    "orbit", "count", "mutate", "source", "-1 2", "--=x", "---", "frobnicate", "--bogus",
    "-x", "--c",
]


def _random_corpus(seed: int, count: int) -> list[list[str]]:
    rng = random.Random(seed)
    heads = [["--type", "A2"], [], ["--json"], ["--type=A2", "--height", "-3"]]
    lines = []
    for _ in range(count):
        tail = [rng.choice(TOKENS) for _ in range(rng.randint(0, 8))]
        if rng.random() < 0.6:
            tail = rng.choice(heads) + [rng.choice(list(_COMMANDS))] + tail
        lines.append(tail)
    return lines


def test_the_table_reads_every_line_as_argparse_did(monkeypatch):
    # One parser for the whole corpus: parsing leaves it unchanged, and
    # building it per line is most of this test's time.
    monkeypatch.setattr(cli, "_parser", functools.lru_cache(cli._parser))
    corpus = _structured_corpus() + _random_corpus(21, 4000)
    outcomes = {"help": 0, "refused": 0, "accepted": 0, "plain": 0}
    for argv in corpus:
        expected = _reference(argv)
        assert _table(argv) == expected, argv
        outcomes["accepted" if isinstance(expected, dict) else expected] += 1
        plain = _plain(argv)
        if plain is not None:
            assert vars(plain) == expected, argv
            outcomes["plain"] += 1
    # The corpus reaches every outcome often, and _plain reads many lines.
    assert min(outcomes.values()) > 200, outcomes
    assert outcomes["plain"] >= 1500, outcomes


def test_no_command_option_is_a_prefix_of_a_global_option():
    # argparse's top-level pass reads every token of the line, so such a
    # prefix would stand for the global option there, where _plain reads the
    # command's option.
    top = [*_GLOBAL_OPTIONS, "--help"]
    for _, _, options in _COMMANDS.values():
        for name in options:
            assert not any(other.startswith(name) for other in top), name


def test_every_accepted_line_has_the_reference_attributes():
    argv = ["--json", "--type", "A3", "curve", "--neg", "spiral", "--end", "3", "--k=-2"]
    assert _table(argv) == _reference(argv) == {
        "type": "A3", "cartan": None, "order": None, "json": True,
        "orbit_cap": DEFAULT_NODE_CAP, "height": DEFAULT_HEIGHT_BOUND,
        "command": "curve", "action": "spiral", "word": "", "end": 3, "neg": True,
        "k": -2, "out": None,
    }


def test_a_joined_double_dash_is_a_plain_value(capsys):
    # Before Python 3.13 argparse stores an empty list for a value of exactly
    # "--" joined by "=", and the braid handler crashed on it with a
    # traceback.  The CLI reads "--" as 3.13 does: a value like any other.
    if sys.version_info < (3, 13):
        assert _reference(["--type", "A2", "braid", "apply", "--wo=--"])["word"] == []
    for word in ("--word=--", "--wo=--"):
        assert parse_args(["--type", "A2", "braid", "apply", word]).word == "--"
    malformed = "error: malformed {} '--'; expected comma-separated integers\n"
    for argv, err in [
        (["--type", "A2", "braid", "apply", "--word=--"], malformed.format("braid word")),
        (["--type", "A2", "braid", "apply", "--wo=--"], malformed.format("braid word")),
        (["--ord=--", "--type", "A2", "roots", "list"], malformed.format("order")),
    ]:
        assert run(argv) == EXIT_USAGE
        assert capsys.readouterr().err == err
    # An int option refuses it, as argparse 3.13 does.
    assert run(["--hei=--", "--type", "A2", "roots", "list"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: schur-scope [-h]")
    assert captured.err.endswith(
        "\nschur-scope: error: argument --height: invalid int value: '--'\n"
    )
    # A command's own int option is refused by that command's parser.
    for argv, name in [
        (["--type", "A2", "curve", "root", "--end=--"], "--end"),
        (["--type", "A2", "curve", "spiral", "--end", "1", "--k=--"], "--k"),
    ]:
        assert run(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: schur-scope curve [-h]")
        assert captured.err.endswith(
            f"\nschur-scope curve: error: argument {name}: invalid int value: '--'\n"
        )


@pytest.mark.parametrize(
    "argv, usage",
    [
        ([], "usage: schur-scope [-h] [--type TYPE]"),
        (["--type", "A2", "frobnicate"], "usage: schur-scope [-h] [--type TYPE]"),
        (["--o", "1", "roots", "list"], "usage: schur-scope [-h] [--type TYPE]"),
        (["--type", "A2", "braid", "apply"], "usage: schur-scope braid [-h] --word WORD {apply,stab}"),
        (["--type", "A2", "curve", "root", "--end", "x"], "usage: schur-scope curve [-h]"),
    ],
)
def test_a_refusal_prints_a_usage_line_and_the_error(capsys, argv, usage):
    assert run(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    first, *rest = captured.err.splitlines()
    assert first.startswith(usage)
    # argparse names the parser that refused: "schur-scope braid: error: ".
    prog = usage[len("usage: "):].split(" [")[0]
    assert rest[-1].startswith(f"{prog}: error: ")


@pytest.mark.parametrize("command", [None, *_COMMANDS])
def test_help_lists_every_option_of_the_table(capsys, command):
    argv = ["--help"] if command is None else [command, "-h"]
    assert run(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    options = _GLOBAL_OPTIONS if command is None else _COMMANDS[command][2]
    assert captured.out.startswith("usage: schur-scope")
    for name, (_, _, _, text) in options.items():
        assert name in captured.out
        assert text.split()[0] in captured.out
    if command is None:
        assert all(f"  {name} " in captured.out for name in _COMMANDS)
