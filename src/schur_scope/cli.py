"""Command-line surface: session flags, one subcommand per core operation.

Exit codes: 0 for definitive answers (and --help), 1 for usage or validation
errors, argparse's own included, 2 when the result contains an unknown or
truncated component or a safety cap stopped the command, so scripts can tell
"no" apart from "gave up", and 3 when an internal self-check failed.  Every
handler is a thin adapter around exactly one core operation; --json emits the
report dict with sorted keys.  Each handler imports the layers above hurwitz
that it runs, so a command loads only its own layers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import namedtuple

from . import cartan, hurwitz, weyl
from .cartan import CartanError, CartanMatrix
from .hurwitz import Ternary

DEFAULT_ORBIT_CAP = 10**6
DEFAULT_HEIGHT_BOUND = 20

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
        "--orbit-cap", type=int, default=DEFAULT_ORBIT_CAP, help="orbit search node cap"
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


def _build_session(args: argparse.Namespace) -> Session:
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
        verdict = curves.is_simple(cw, n, node_cap=session.orbit_cap)
        code = EXIT_OK if verdict is curves.SimpleVerdict.YES else EXIT_UNRESOLVED
        return {**base, "simple": verdict.value}, code
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed its usage error or --help
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    if args.command is None:
        parser.print_usage(sys.stderr)
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
    from fractions import Fraction

    from . import curves

    def _tenths(value: Fraction) -> str:
        scaled = round(value * 10)
        return f"{scaled // 10}.{scaled % 10}"

    n = C.n
    baseline = 4 * _UNIT
    width = _SPACING * (n + 1)
    height_px = baseline + 3 * _UNIT
    origin = (Fraction(width, 2), Fraction(baseline + 2 * _UNIT))

    def point(x: Fraction, y: Fraction) -> str:
        return f"{_tenths(x)},{_tenths(y)}"

    m = len(cw.letters)
    # Crossing k of m sits 1 + k/(m+1) units above the baseline (1-based k).
    crossings = [
        (
            Fraction(_SPACING * j),
            Fraction(baseline) - _UNIT * (1 + Fraction(k, m + 1)),
        )
        for k, j in enumerate(cw.letters, start=1)
    ]
    curve_points = [origin, *crossings, (Fraction(_SPACING * cw.end), Fraction(baseline))]

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
    lines.append(
        f'  <polyline points="{" ".join(point(x, y) for x, y in curve_points)}" '
        f'fill="none" stroke="#cc0000" stroke-width="1.5"/>'
    )
    ox, oy = origin
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
