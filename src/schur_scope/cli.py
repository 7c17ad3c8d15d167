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

import json
import os
import re
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
        return tuple(int(x) for x in text.split(","))
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
        data = json.loads(stripped)
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
# One table holds the whole command line, and parse_args reads argv against
# it.  Global options come before the command; after it, the command's
# options and its one positional come in any order.  An option's value
# follows it or is joined to it by "=", a unique prefix of an option name
# stands for the name, a value may start with "-" only if it is a negative
# number (or holds a space), and a repeated option keeps its last value.
# Every token is read against the global options before any is parsed, so an
# ambiguous prefix such as --o is refused wherever it stands, up to a "--",
# after which every token is a positional.  tests/test_cli_parser.py holds
# the standard library parser this grammar comes from, as the reference.
#
# An option is (kind, default, required, help); kind is "flag", "str" or "int".

_DESCRIPTION = (
    "Exact computations with Coxeter elements, reflection factorizations, "
    "curve words and noncrossing partitions."
)

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

_HELP = ("-h", "--help")


class UsageError(Exception):
    """A refused command line; command names the usage to print (None for the
    global one)."""

    def __init__(self, message: str, command: str | None = None):
        super().__init__(message)
        self.command = command


class HelpRequested(Exception):
    """-h or --help, for the global options (command None) or a command."""

    def __init__(self, command: str | None = None):
        super().__init__(command)
        self.command = command


def _dest(name: str) -> str:
    return name[2:].replace("-", "_")


def _read(token: str, options: dict, command: str | None):
    """One token read against options: None for a positional, else (name,
    attached): name is None for an unknown option, and attached is the text
    after "=" (after "-h" for a single-dash token), or None."""
    if token[:1] != "-" or token == "-":
        return None
    names = (*_HELP, *options)
    if token in names:
        return token, None
    head, eq, tail = token.partition("=")
    if eq and head in names:
        return head, tail
    if token[1] == "-":
        hits = [name for name in names if name.startswith(head)]
        attached = tail if eq else None
    else:
        hits = ["-h"] if token.startswith("-h") else []
        attached = token[2:]
    if len(hits) > 1:
        raise UsageError(
            f"ambiguous option: {token} could match {', '.join(hits)}", command
        )
    if hits:
        return hits[0], attached
    if re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token:
        return None
    return None, None


def _read_all(tokens: list[str], options: dict, command: str | None) -> list:
    """_read of each token up to the first "--", which reads as "--"; every
    token after it is a positional."""
    reads = []
    for i, token in enumerate(tokens):
        if token == "--":
            return reads + ["--"] + [None] * (len(tokens) - i - 1)
        reads.append(_read(token, options, command))
    return reads


def _take_options(tokens, reads, i, options, args, command, seen, unknown) -> int:
    """Set args from the options in tokens[i:] up to the next positional or
    "--", and return its index (len(tokens) if there is none).  Unknown
    options go to unknown; they are refused only once the line is read, so a
    later -h still prints help."""
    while i < len(tokens) and reads[i] is not None and reads[i] != "--":
        name, attached = reads[i]
        i += 1
        if name is None:
            unknown.append(tokens[i - 1])
            continue
        if name in _HELP:
            # -hh reads as -h -h.
            if attached is None or (name == "-h" and attached and not attached.strip("h")):
                raise HelpRequested(command)
            raise UsageError(f"argument -h/--help: ignored explicit argument {attached!r}", command)
        kind = options[name][0]
        if kind == "flag":
            if attached is not None:
                raise UsageError(f"argument {name}: ignored explicit argument {attached!r}", command)
            value = True
        else:
            if attached is None:
                if i == len(tokens) or reads[i] is not None:
                    raise UsageError(f"argument {name}: expected one argument", command)
                attached = tokens[i]
                i += 1
            value = attached
            if kind == "int":
                try:
                    value = int(attached)
                except ValueError:
                    raise UsageError(
                        f"argument {name}: invalid int value: {attached!r}", command
                    ) from None
        setattr(args, _dest(name), value)
        seen.add(name)
    return i


def parse_args(argv: list[str]) -> SimpleNamespace:
    """argv read by the grammar above into the attributes the handlers read:
    the global options, command, the command's positional and its options.
    Raises HelpRequested for -h/--help and UsageError for a refused line."""
    args = SimpleNamespace(command=None)
    for name, option in _GLOBAL_OPTIONS.items():
        setattr(args, _dest(name), option[1])
    reads = _read_all(argv, _GLOBAL_OPTIONS, None)
    unknown: list[str] = []
    i = _take_options(argv, reads, 0, _GLOBAL_OPTIONS, args, None, set(), unknown)
    if i == len(argv):
        raise UsageError("the following arguments are required: command")
    command = argv[i]
    if reads[i] is not None or command not in _COMMANDS:
        raise UsageError(
            f"argument command: invalid choice: {command!r} "
            f"(choose from {', '.join(map(repr, _COMMANDS))})"
        )
    args.command = command
    positional, choices, options = _COMMANDS[command]
    setattr(args, positional, None)
    for name, option in options.items():
        setattr(args, _dest(name), option[1])
    tokens = argv[i + 1:]
    reads = _read_all(tokens, options, command)
    seen: set[str] = set()
    i = 0
    while True:
        i = _take_options(tokens, reads, i, options, args, command, seen, unknown)
        if i == len(tokens):
            break
        # A "--" just before or after the positional goes with it; any other
        # "--", like any second positional, is unrecognized.
        j = i + (reads[i] == "--")
        if positional in seen or j == len(tokens):
            unknown.append(tokens[i])
            i += 1
            continue
        token = tokens[j]
        if choices is not None and token not in choices:
            raise UsageError(
                f"argument {positional}: invalid choice: {token!r} "
                f"(choose from {', '.join(map(repr, choices))})",
                command,
            )
        setattr(args, positional, token)
        seen.add(positional)
        i = j + 1
        if i < len(tokens) and reads[i] == "--":
            i += 1
    missing = [positional] if positional not in seen else []
    missing += [name for name, option in options.items() if option[2] and name not in seen]
    if missing:
        raise UsageError(
            f"the following arguments are required: {', '.join(missing)}", command
        )
    if unknown:
        raise UsageError(f"unrecognized arguments: {' '.join(unknown)}")
    return args


def _metavar(positional: str, choices) -> str:
    return "{" + ",".join(choices) + "}" if choices else positional.upper()


def _spelled(name: str, kind: str) -> str:
    return name if kind == "flag" else f"{name} {_dest(name).upper()}"


def _usage(command: str | None) -> str:
    """The usage line, wrapped at 79 columns."""
    if command is None:
        prog, options, tail = "schur-scope", _GLOBAL_OPTIONS, "command ..."
    else:
        positional, choices, options = _COMMANDS[command]
        prog, tail = f"schur-scope {command}", _metavar(positional, choices)
    parts = ["[-h]"]
    for name, (kind, _, required, _) in options.items():
        part = _spelled(name, kind)
        parts.append(part if required else f"[{part}]")
    lines = [f"usage: {prog}"]
    for part in [*parts, tail]:
        if len(lines[-1]) + 1 + len(part) > 79:
            lines.append(" " * len(f"usage: {prog}"))
        lines[-1] += " " + part
    return "\n".join(lines)


def _help_text(command: str | None) -> str:
    import textwrap

    lines = [_usage(command), ""]
    if command is None:
        options = _GLOBAL_OPTIONS
        lines += textwrap.wrap(_DESCRIPTION, 79) + ["", "commands:"]
        lines += [f"  {name} {_metavar(*spec[:2])}" for name, spec in _COMMANDS.items()]
        lines.append("")
    else:
        options = _COMMANDS[command][2]
    rows = [("-h, --help", "show this help message and exit")]
    rows += [(_spelled(name, kind), text) for name, (kind, _, _, text) in options.items()]
    width = max(len(left) for left, _ in rows) + 2
    lines.append("options:")
    for left, text in rows:
        lines += textwrap.wrap(
            text, 79, initial_indent=f"  {left:<{width}}", subsequent_indent=" " * (width + 2)
        )
    return "\n".join(lines)


def _build_session(args: SimpleNamespace) -> Session:
    if args.command != "repro":
        if bool(args.type) == bool(args.cartan):
            raise ValueError("exactly one of --type or --cartan is required")
    if args.type:
        matrix = cartan.preset(args.type)
    elif args.cartan:
        with open(args.cartan, encoding="utf-8") as handle:
            matrix = cartan.parse_cartan(handle.read())
    else:
        matrix = cartan.preset("A2")  # unused placeholder for repro
    order = tuple(range(1, matrix.n + 1))
    if args.order:
        order = _parse_csv_ints(args.order, "order")
    if min(args.orbit_cap, args.height) < 1:
        raise ValueError("caps must be positive")
    weyl._check_order(matrix, order)
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
    moved = hurwitz.apply_braid_word(start, word)
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


def _render_text(payload: dict, prefix: str = "") -> list[str]:
    """Stable \"key = value\" lines; nested dicts and short lists flattened."""
    lines = []
    for key in payload:
        value = payload[key]
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            lines += _render_text(value, prefix=f"{path}.")
        else:
            lines.append(f"{path} = {json.dumps(value)}")
    return lines


def emit(payload: dict, json_mode: bool) -> str:
    if json_mode:
        return json.dumps(payload, sort_keys=True, indent=2)
    return "\n".join(_render_text(payload))


def run(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except HelpRequested as exc:
        print(_help_text(exc.command))
        return EXIT_OK
    except UsageError as exc:
        print(_usage(exc.command), file=sys.stderr)
        print(f"schur-scope: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        session = _build_session(args)
        payload, code = _HANDLERS[args.command](session, args)
    except (CartanError, ValueError, OSError, json.JSONDecodeError) as exc:
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
