"""Command-line surface: session flags, one subcommand per core operation.

Exit codes: 0 for definitive answers (and --help), 1 for usage or validation
errors, 2 when the result contains an unknown or truncated component or a
safety cap stopped the command, so scripts can tell "no" apart from "gave
up", and 3 when an internal self-check failed.  Every handler is a thin
adapter around exactly one core operation; --json emits the report dict with
sorted keys.  Each handler imports the layers above hurwitz that it runs, so
a command loads only its own layers.
"""

from __future__ import annotations

import os
import sys
from collections import namedtuple
from types import SimpleNamespace

from . import cartan, hurwitz, weyl
from .cartan import CartanError, CartanMatrix
from .hurwitz import Ternary

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNRESOLVED = 2
EXIT_INTERNAL = 3


Session = namedtuple("Session", "cartan order orbit_cap height_bound json_mode")


def _parse_csv_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(map(cartan.parse_int, text.split(",")))
    except ValueError:
        raise ValueError(f"malformed {what} {text!r}; expected comma-separated integers")


def _parse_root(text: str, n: int) -> tuple[int, ...]:
    root = _parse_csv_ints(text, "root")
    if len(root) != n:
        raise ValueError(f"root {text!r} has {len(root)} coordinates, expected {n}")
    return root


def _parse_element(text: str, session: Session):
    """A Weyl element: JSON row-major matrix, or a root meaning its reflection."""
    stripped = text.strip()
    if stripped.startswith("["):
        import json

        data = json.loads(stripped)  # JSONDecodeError is a ValueError
        n = session.cartan.n
        # type() rather than isinstance: JSON true/false decode to bool, an int.
        if not (
            isinstance(data, list) and len(data) == n
            and all(isinstance(row, list) and len(row) == n for row in data)
            and all(type(x) is int for row in data for x in row)
        ):
            raise ValueError(f"matrix must be a JSON list of {n} lists of {n} integers")
        return tuple(tuple(row) for row in data)
    root = _parse_root(stripped, session.cartan.n)
    return weyl.reflection_for_root(session.cartan, root).matrix


# --- the command line ---------------------------------------------------------
#
# One table holds the whole command line, and the standard library's argparse,
# built from it by _parser, is its grammar: global options come before the
# command; after it, the command's options and its one positional come in any
# order; a unique prefix stands for an option name, and help, usage and
# refusals are argparse's.  Building that parser imports gettext and locale
# and makes a help formatter per argument, about half of a cold command's
# start-up, so _plain reads the lines that need no grammar, and argparse
# reads every other line.  tests/test_cli_parser.py checks both against the
# argparse parser of the earlier CLI, kept there verbatim as the reference.
#
# An option is (kind, default, required, help); kind is "flag", "str" or "int".

_GLOBAL_OPTIONS = {
    "--type": ("str", None, False, "preset label, e.g. A3, B2, universal:3:2"),
    "--cartan": ("str", None, False, "file with a Cartan matrix in text form"),
    "--order": ("str", None, False, "Coxeter order as a permutation, e.g. 2,1,3"),
    "--json": ("flag", False, False, "emit JSON reports"),
    "--orbit-cap": ("int", hurwitz.DEFAULT_NODE_CAP, False, "orbit search node cap"),
    "--height": ("int", hurwitz.DEFAULT_HEIGHT_BOUND, False, "root height bound"),
}

_ELEMENT_HELP = "element (JSON matrix or reflection root)"

# A command is (positional, its choices or None for free text, its options).
_COMMANDS = {
    "roots": ("action", ("list",), {}),
    "group": ("action", ("order",), {}),
    "orbit": ("action", ("count", "dump"), {}),
    "schur": ("action", ("check", "list", "verify"), {
        "--root": ("str", None, False, "root coordinates, e.g. 1,1,0"),
    }),
    "nc": ("action", ("list", "leq", "chain"), {
        "--u": ("str", None, False, _ELEMENT_HELP),
        "--w": ("str", None, False, _ELEMENT_HELP),
        "--dot": ("flag", False, False,
                  "nc list: add a DOT graph of the covers (key dot) beside nodes and covers"),
    }),
    "braid": ("action", ("apply", "stab"), {
        "--word": ("str", None, True, "braid word, e.g. 1,-2,1"),
    }),
    "curve": ("action", ("root", "loop", "simple", "spiral", "render"), {
        "--word": ("str", "", False, "ray crossings, e.g. 2,1 (empty for fan)"),
        "--end": ("int", None, True, "endpoint puncture"),
        "--neg": ("flag", False, False, "negative sign"),
        "--k": ("int", 1, False, "spiral power"),
        "--out": ("str", None, False, "output path for render"),
    }),
    "mutate": ("action", ("source", "sink"), {}),
    "repro": ("fixture", None, {}),
}


def _dest(name: str) -> str:
    return name[2:].replace("-", "_")


def _parser():
    import argparse

    def add_options(parser, options: dict) -> None:
        for name, (kind, default, required, text) in options.items():
            if kind == "flag":
                spec = {"action": "store_true"}
            else:
                spec = {"type": int if kind == "int" else None, "default": default,
                        "required": required}
            parser.add_argument(name, help=text, **spec)

    parser = argparse.ArgumentParser(
        prog="schur-scope",
        description="Exact computations with Coxeter elements, reflection "
        "factorizations, curve words and noncrossing partitions.",
    )
    add_options(parser, _GLOBAL_OPTIONS)
    commands = parser.add_subparsers(dest="command", metavar="command", required=True)
    for command, (positional, choices, options) in _COMMANDS.items():
        shown = "{" + ",".join(choices) + "}" if choices else positional.upper()
        sub = commands.add_parser(command, help=shown)
        sub.add_argument(positional, choices=choices)
        add_options(sub, options)
    return parser, commands.choices  # the parser, and each command's parser by name


def _plain(argv: list[str]) -> SimpleNamespace | None:
    """argv's attributes if it is a plain line, else None.  A plain line names
    each option exactly, the global ones before the command and the command's
    own after it; gives a flag no value, and any other option a value joined
    by "=" or as the next token, which does not start with "-"; gives an int
    option an int and every required option; and has, after the command, one
    positional among the command's choices.  argparse reads it alike."""
    options, positional, choices = _GLOBAL_OPTIONS, None, None
    args = SimpleNamespace(command=None, **{_dest(n): o[1] for n, o in options.items()})
    seen = set()
    tokens = iter(argv)
    for token in tokens:
        if token[:1] != "-":
            if args.command is None and token in _COMMANDS:
                args.command = token
                positional, choices, options = _COMMANDS[token]
                vars(args).update({_dest(n): o[1] for n, o in options.items()})
                setattr(args, positional, None)
            elif positional and getattr(args, positional) is None and (
                choices is None or token in choices
            ):
                setattr(args, positional, token)
            else:
                return None
            continue
        name, joined, value = token.partition("=")
        kind = name in options and options[name][0]
        if not kind or kind == "flag" and joined:
            return None
        if kind == "flag":
            value = True
        elif not joined:
            value = next(tokens, "-")  # a missing value is not plain
            if value[:1] == "-":
                return None
        if kind == "int":
            try:
                value = int(value)
            except ValueError:
                return None
        setattr(args, _dest(name), value)
        seen.add(name)
    if positional is None or getattr(args, positional) is None:
        return None
    return None if any(o[2] and n not in seen for n, o in options.items()) else args


def parse_args(argv: list[str]) -> SimpleNamespace:
    """argv read into the attributes the handlers read: the global options,
    command, the command's positional and its options.  argparse raises
    SystemExit for --help (code 0) and for a refused line (code 2)."""
    args = _plain(argv)
    if args is not None:
        return args
    parser, commands = _parser()
    args = parser.parse_args(argv)
    # Before Python 3.13, argparse reads a value of exactly "--" joined by
    # "=" (--word=--) as []; read it as 3.13 does: a string, and not an int,
    # refused by the parser that owns the option.
    options = _COMMANDS[args.command][2]
    for name, (kind, _, _, _) in {**_GLOBAL_OPTIONS, **options}.items():
        if getattr(args, _dest(name)) == []:
            if kind == "int":
                owner = commands[args.command] if name in options else parser
                owner.error(f"argument {name}: invalid int value: '--'")
            setattr(args, _dest(name), "--")
    return args


def _build_session(args: SimpleNamespace) -> Session:
    """The session of args.  repro reads no matrix, so it needs neither
    --type nor --cartan and its session may hold none; one it is given is
    still read and validated, and so is an --order against it."""
    if args.command != "repro" and bool(args.type) == bool(args.cartan):
        raise ValueError("exactly one of --type or --cartan is required")
    matrix = order = None
    if args.type:
        matrix = cartan.preset(args.type)
    elif args.cartan:
        with open(args.cartan, encoding="utf-8") as handle:
            matrix = cartan.parse_cartan(handle.read())
    elif args.order:
        raise ValueError("--order needs --type or --cartan")
    if args.order:
        order = _parse_csv_ints(args.order, "order")
    if min(args.orbit_cap, args.height) < 1:
        raise ValueError("caps must be positive")
    if matrix is not None:
        order = weyl._check_order(matrix, order)
    return Session(matrix, order, args.orbit_cap, args.height, args.json)


def _ternary_exit(answer: Ternary) -> int:
    return EXIT_UNRESOLVED if answer is Ternary.UNKNOWN else EXIT_OK


def _root_list(roots) -> list[list[int]]:
    return [list(r) for r in roots]


def _cmd_roots(session: Session, args) -> tuple[dict, int]:
    roots = weyl.enumerate_real_roots(session.cartan, session.height_bound)
    return {"height_bound": session.height_bound, "roots": _root_list(roots)}, EXIT_OK


def _cmd_group(session: Session, args) -> tuple[dict, int]:
    return {"order": weyl.group_order(session.cartan)}, EXIT_OK


def _cmd_orbit(session: Session, args) -> tuple[dict, int]:
    start = hurwitz.canonical_factorization(session.cartan, session.order)
    orbit = hurwitz.hurwitz_orbit(session.cartan, start, node_cap=session.orbit_cap)
    code = EXIT_OK if orbit.complete else EXIT_UNRESOLVED
    payload: dict = {"count": len(orbit), "complete": orbit.complete}
    if args.action == "dump":
        payload["factorizations"] = [_root_list(node) for node in orbit.roots]
    return payload, code


def _cmd_schur(session: Session, args) -> tuple[dict, int]:
    from . import schur

    o = schur.Orientation(session.cartan, session.order)
    if args.action == "check":
        if not args.root:
            raise ValueError("schur check requires --root")
        beta = _parse_root(args.root, session.cartan.n)
        verdict = schur.is_schur_root(beta, o, node_cap=session.orbit_cap)
        payload = {
            "root": list(beta),
            "answer": verdict.answer.value,
            "certificate": (
                None
                if verdict.factorization is None
                else _root_list(verdict.factorization.roots())
            ),
        }
        return payload, _ternary_exit(verdict.answer)
    if args.action == "list":
        entries = []
        code = EXIT_OK
        for beta in weyl.positive_real_roots(session.cartan, session.height_bound):
            verdict = schur.is_schur_root(beta, o, node_cap=session.orbit_cap)
            entries.append({"root": list(beta), "answer": verdict.answer.value})
            if verdict.answer is Ternary.UNKNOWN:
                code = EXIT_UNRESOLVED
        return {"height_bound": session.height_bound, "roots": entries}, code
    report = schur.verify_conjecture(
        o, height_bound=session.height_bound, node_cap=session.orbit_cap
    )
    code = EXIT_OK
    if report.truncated or report.unknowns or not report.sets_match:
        code = EXIT_UNRESOLVED
    return report.to_json_dict(), code


def _nc_nodes(poset) -> list[dict]:
    nodes = []
    for i, w in enumerate(poset.elements):
        node: dict = {"id": i, "rank": poset.ranks[i]}
        if poset.ranks[i] == 1:
            node["root"] = list(weyl.root_of_reflection(w))
        nodes.append(node)
    return nodes


def _cmd_nc(session: Session, args) -> tuple[dict, int]:
    from . import ncposet

    C = session.cartan
    if args.action == "leq":
        if not args.u or not args.w:
            raise ValueError("nc leq requires --u and --w")
        u = _parse_element(args.u, session)
        w = _parse_element(args.w, session)
        answer = ncposet.absolute_leq(u, w, C)
        return {"answer": answer.value}, _ternary_exit(answer)
    if args.action == "list":
        poset = ncposet.enumerate_nc(C, session.order)
        payload = {
            "size": len(poset.elements),
            "nodes": _nc_nodes(poset),
            "covers": [list(edge) for edge in poset.covers],
        }
        if args.dot:
            lines = ["digraph nc {"]
            lines += [f"  n{lo} -> n{hi};" for lo, hi in poset.covers]
            lines.append("}")
            payload["dot"] = "\n".join(lines)
        return payload, EXIT_OK
    # chain: interval factorization witness between --u and --w (defaults: 1, c)
    u = _parse_element(args.u, session) if args.u else weyl.identity(C.n)
    w = (
        _parse_element(args.w, session)
        if args.w
        else weyl.coxeter_element(C, session.order)
    )
    witness = ncposet.interval_factorization(u, w, C, session.order)
    payload = {
        "steps": _root_list(t.root for t in witness.steps),
        "full_factorization": _root_list(witness.full.roots()),
    }
    return payload, EXIT_OK


def _cmd_braid(session: Session, args) -> tuple[dict, int]:
    word = _parse_csv_ints(args.word, "braid word")
    start = hurwitz.canonical_factorization(session.cartan, session.order)
    if args.action == "stab":
        fixed = hurwitz.stabilizer_check(word, session.cartan, session.order)
        return {"word": list(word), "stabilizes": fixed}, EXIT_OK
    moved = hurwitz.apply_braid_word(session.cartan, start, word)
    return {"word": list(word), "factorization": _root_list(moved.roots())}, EXIT_OK


def _cmd_curve(session: Session, args) -> tuple[dict, int]:
    from . import curves

    n = session.cartan.n
    letters = _parse_csv_ints(args.word, "curve word") if args.word else ()
    cw = curves.canonicalize(letters, args.end, -1 if args.neg else 1)
    if cw.end > n or any(x > n for x in cw.letters):
        raise ValueError(f"curve word references punctures beyond {n}")
    base = {"letters": list(cw.letters), "end": cw.end, "sign": cw.sign}
    if args.action == "root":
        root = curves.root_of_curve(cw, session.cartan)
        return {**base, "root": list(root)}, EXIT_OK
    if args.action == "loop":
        return {**base, "loop": list(curves.loop_of_curve(cw))}, EXIT_OK
    if args.action == "simple":
        verdict = curves.is_simple(cw, n)
        # A decided NO keeps the label and exit 2 that perfbench/workloads.py::
        # _check_curve accepts, until ROADMAP items 1-2 admit "no".
        simple = "no-within-bound" if verdict is Ternary.NO else verdict.value
        code = EXIT_OK if verdict is Ternary.YES else EXIT_UNRESOLVED
        return {**base, "simple": simple}, code
    if args.action == "spiral":
        spiraled = curves.spiral(cw, session.order, args.k)
        return {
            **base,
            "k": args.k,
            "spiraled": {
                "letters": list(spiraled.letters),
                "end": spiraled.end,
                "sign": spiraled.sign,
            },
        }, EXIT_OK
    if not args.out:
        raise ValueError("curve render requires --out")
    svg = render_curve_svg(cw, session.cartan, args.out)
    return {**base, "svg_path": args.out, "bytes": len(svg)}, EXIT_OK


def _cmd_mutate(session: Session, args) -> tuple[dict, int]:
    from . import schur

    mutated = schur.mutate(schur.Orientation(session.cartan, session.order), args.action)
    return {"order": list(mutated.order)}, EXIT_OK


def _cmd_repro(session: Session, args) -> tuple[dict, int]:
    from . import repro

    result = repro.reproduce(args.fixture)
    return result.to_json_dict(), EXIT_OK if result.ok else EXIT_UNRESOLVED


_HANDLERS = {
    "roots": _cmd_roots,
    "group": _cmd_group,
    "orbit": _cmd_orbit,
    "schur": _cmd_schur,
    "nc": _cmd_nc,
    "braid": _cmd_braid,
    "curve": _cmd_curve,
    "mutate": _cmd_mutate,
    "repro": _cmd_repro,
}


# --- the output ---------------------------------------------------------------
#
# A report is written as JSON: --json writes the payload as
# json.dumps(payload, sort_keys=True, indent=2), and text mode writes each
# leaf as json.dumps(leaf).  Importing json is about a third of the package's
# own import, so _plain_json writes a plain value itself, byte for byte as
# json.dumps would, and json writes every other value.  Nearly every payload
# is plain; the DOT graph of `nc list --dot`, whose lines json escapes, is
# not.  tests/test_cli.py checks the two routes against each other.


def _plain_string(text: str) -> bool:
    """Printable ASCII without '"' or backslash: json writes it as it is."""
    return text.isascii() and text.isprintable() and '"' not in text and "\\" not in text


def _plain_json(value, newline: str | None) -> str | None:
    """json.dumps(value) for newline None, else json.dumps(value,
    sort_keys=True, indent=2) indented from newline ("\n" at the top); None
    unless value is made of None, bools, ints, plain strings (_plain_string),
    lists, tuples and dicts whose keys are plain strings."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    kind = type(value)
    if kind is int:
        return repr(value)
    if kind is str:
        return f'"{value}"' if _plain_string(value) else None
    inner = newline and newline + "  "
    if kind is dict:
        if not all(type(key) is str and _plain_string(key) for key in value):
            return None
        brackets, keys = "{}", sorted(value) if newline else value
        items = [(f'"{key}": ', value[key]) for key in keys]
    elif kind is list or kind is tuple:
        brackets, items = "[]", [("", item) for item in value]
    else:
        return None
    if not items:
        return brackets
    parts = []
    for label, item in items:
        text = _plain_json(item, inner)
        if text is None:
            return None
        parts.append(label + text)
    if newline:
        return brackets[0] + inner + ("," + inner).join(parts) + newline + brackets[1]
    return brackets[0] + ", ".join(parts) + brackets[1]


def _json_text(value, indent: bool) -> str:
    """json.dumps(value), or with indent json.dumps(value, sort_keys=True,
    indent=2); json is imported only for a value that is not plain."""
    text = _plain_json(value, "\n" if indent else None)
    if text is None:
        import json

        text = json.dumps(value, sort_keys=True, indent=2) if indent else json.dumps(value)
    return text


def _render_text(payload: dict, prefix: str = "") -> list[str]:
    """Stable \"key = value\" lines; nested dicts and short lists flattened."""
    lines = []
    for key in payload:
        value = payload[key]
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            lines += _render_text(value, prefix=f"{path}.")
        else:
            lines.append(f"{path} = {_json_text(value, False)}")
    return lines


def emit(payload: dict, json_mode: bool) -> str:
    if json_mode:
        return _json_text(payload, True)
    return "\n".join(_render_text(payload))


def run(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:  # argparse printed the help (0) or a refusal
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        session = _build_session(args)
        payload, code = _HANDLERS[args.command](session, args)
    except (CartanError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:  # a safety cap fired
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNRESOLVED
    except ArithmeticError as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    try:
        print(emit(payload, session.json_mode))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout has gone, and the answer stands.  What is
        # left to write, the flush at exit included, goes to os.devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def main() -> None:
    sys.exit(run())


# --- schematic SVG rendering -------------------------------------------------

_UNIT = 30  # pixels per height unit
_SPACING = 40  # pixels between punctures


def render_curve_svg(cw, C: CartanMatrix, path: str) -> str:
    """Deterministic schematic: punctures on a baseline, rays upward, basepoint
    below; the curve crosses ray l_j at strictly increasing heights in word
    order.  Crossing k of m sits 1 + k/(m+1) units above the baseline.  The
    output is byte-identical for identical input and is labeled as a schematic,
    not an isotopy-faithful picture.
    """
    from . import curves

    def _tenths(num: int, den: int = 1) -> str:
        """num / den to one decimal, a tie going to the even tenth, as
        round() rounds a Fraction."""
        scaled, rest = divmod(10 * num, den)
        if 2 * rest > den or (2 * rest == den and scaled % 2):
            scaled += 1
        return f"{scaled // 10}.{scaled % 10}"

    n = C.n
    baseline = 4 * _UNIT
    width = _SPACING * (n + 1)
    height_px = baseline + 3 * _UNIT
    ox, oy = width // 2, baseline + 2 * _UNIT

    # Crossing k of m sits 1 + k/(m+1) units above the baseline (1-based k);
    # every point is kept as integer numerators over d = m + 1.
    d = len(cw.letters) + 1
    crossings = [
        (_SPACING * j * d, (baseline - _UNIT) * d - _UNIT * k)
        for k, j in enumerate(cw.letters, start=1)
    ]
    curve_points = [(ox * d, oy * d), *crossings, (_SPACING * cw.end * d, baseline * d)]

    word_text = "".join(f"s_{j}" for j in cw.letters) or "id"
    root_text = ("-" if cw.sign < 0 else "") + word_text.replace("id", "") + f"a_{cw.end}"
    loop_text = ",".join(str(x) for x in curves.loop_of_curve(cw))

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height_px + 3 * _UNIT}" '
        f'viewBox="0 0 {width} {height_px + 3 * _UNIT}">',
        f'  <!-- schematic - not isotopy-faithful -->',
    ]
    for j in range(1, n + 1):
        x = _SPACING * j
        lines.append(
            f'  <line x1="{x}" y1="{baseline}" x2="{x}" y2="10" '
            f'stroke="#bbbbbb" stroke-dasharray="4,3"/>'
        )
        lines.append(f'  <circle cx="{x}" cy="{baseline}" r="3" fill="#000000"/>')
        lines.append(
            f'  <text x="{x + 5}" y="{baseline + 14}" font-size="11">p{j}</text>'
        )
    points = " ".join(f"{_tenths(x, d)},{_tenths(y, d)}" for x, y in curve_points)
    lines.append(
        f'  <polyline points="{points}" '
        f'fill="none" stroke="#cc0000" stroke-width="1.5"/>'
    )
    lines.append(f'  <circle cx="{_tenths(ox)}" cy="{_tenths(oy)}" r="3" fill="#000000"/>')
    lines.append(f'  <text x="{_tenths(ox + 6)}" y="{_tenths(oy + 4)}" font-size="11">O</text>')
    legend_y = height_px + _UNIT
    lines.append(
        f'  <text x="10" y="{legend_y}" font-size="11">word: {word_text} | '
        f'root: {root_text} | loop: {loop_text}</text>'
    )
    lines.append(
        f'  <text x="10" y="{legend_y + 14}" font-size="10" fill="#888888">'
        f"schematic - not isotopy-faithful</text>"
    )
    lines.append("</svg>")
    svg = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(svg)
    return svg
