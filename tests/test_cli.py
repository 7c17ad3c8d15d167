import contextlib
import enum
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from golden import regen
from schur_scope import cartan, cli, curves, hurwitz, repro, weyl
from schur_scope._matrix import matmul
from schur_scope.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_UNRESOLVED,
    EXIT_USAGE,
    emit,
    render_curve_svg,
    run,
)
from schur_scope.curves import CurveWord
from test_matrix import mat_pow

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


def _run(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out


def test_orbit_count_example(capsys):
    code, out = _run(capsys, ["--type", "A3", "orbit", "count"])
    assert code == EXIT_OK
    assert "count = 16" in out.splitlines()


def test_schur_check_example(capsys):
    code, out = _run(capsys, ["--type", "A2", "schur", "check", "--root", "1,1"])
    assert code == EXIT_OK
    assert 'answer = "yes"' in out.splitlines()
    assert any(line.startswith("certificate = ") for line in out.splitlines())


def test_curve_simple_example(capsys):
    code, out = _run(
        capsys,
        ["--type", "universal:3:2", "curve", "simple", "--word", "2", "--end", "3"],
    )
    assert code == EXIT_OK
    assert 'simple = "yes"' in out.splitlines()


def test_curve_simple_bounded_no_gives_exit_2(capsys):
    code, out = _run(
        capsys,
        ["--type", "universal:3:2", "curve", "simple", "--word", "2,1", "--end", "3"],
    )
    assert code == EXIT_UNRESOLVED
    assert 'simple = "no-within-bound"' in out.splitlines()


SPIRAL = ["--json", "--type", "A3", "curve", "--word", "2", "--end", "3", "spiral"]


def test_curve_spiral_refuses_words_past_its_cap(capsys, monkeypatch):
    # 3 * 10^9 letters would exhaust memory; the cap refuses before building.
    code = run([*SPIRAL, "--k", str(10**9)])
    captured = capsys.readouterr()
    assert code == EXIT_UNRESOLVED
    assert captured.out == ""
    assert captured.err == (
        "error: spiral word of 3000000001 letters exceeds the safety cap of 1000000 letters\n"
    )
    # The cap counts n |k| + len(word) letters, so k = 1000 needs 3 001.
    for k, cap, expected in ((1000, 3001, EXIT_OK), (-1000, 3000, EXIT_UNRESOLVED)):
        monkeypatch.setattr(curves, "_SPIRAL_LETTER_CAP", cap)
        assert run([*SPIRAL, "--k", str(k)]) == expected
        capsys.readouterr()


@pytest.mark.parametrize("k", [1000, -1000])
def test_curve_spiral_below_the_cap_is_unchanged(capsys, k):
    code, out = _run(capsys, [*SPIRAL, "--k", str(k)])
    assert code == EXIT_OK
    coxeter_word = [1, 2, 3] if k > 0 else [3, 2, 1]
    assert json.loads(out)["spiraled"] == {
        "end": 3, "letters": coxeter_word * abs(k) + [2], "sign": 1,
    }


def test_orbit_truncation_gives_exit_2(capsys):
    code, out = _run(
        capsys,
        ["--type", "universal:2:2", "--orbit-cap", "10", "orbit", "count"],
    )
    assert code == EXIT_UNRESOLVED
    assert "complete = false" in out.splitlines()


def test_usage_errors(capsys):
    assert run(["--type", "ZZ9", "roots", "list"]) == EXIT_USAGE
    assert run(["--type", "A2", "schur", "check"]) == EXIT_USAGE
    assert run(["--type", "A2", "--order", "2,2", "roots", "list"]) == EXIT_USAGE
    assert run(["--type", "A2", "--cartan", "x", "roots", "list"]) == EXIT_USAGE
    # A universal label with a field past rank and weight.
    assert run(["--type", "universal:3:2:junk", "mutate", "source"]) == EXIT_USAGE
    assert run(["--type", "universal:3:2:", "mutate", "source"]) == EXIT_USAGE
    assert run([]) == EXIT_USAGE
    # Refused by the argument parser: a missing required option, an unknown
    # command and an unknown option; --help is not an error.
    assert run(["--type", "A2", "braid", "apply"]) == EXIT_USAGE
    assert run(["--type", "A2", "frobnicate"]) == EXIT_USAGE
    assert run(["--type", "A2", "orbit", "count", "--bogus"]) == EXIT_USAGE
    assert run(["--help"]) == EXIT_OK
    capsys.readouterr()


def test_zero_root_is_named_as_zero(capsys):
    code = run(["--type", "A3", "schur", "check", "--root", "0,0,0"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.err == "error: (0, 0, 0) is the zero vector, so it is not a real root\n"


def test_failed_self_check_gives_exit_3(capsys, monkeypatch):
    # The reflection search then disagrees with Carter's rank route.
    monkeypatch.setattr(weyl, "factor_into_reflections", lambda *args: None)
    code = run(["--type", "A3", "schur", "check", "--root", "1,0,0"])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL
    assert captured.out == ""
    assert captured.err.startswith("error: internal invariant failed: ")
    assert "disagree" in captured.err


def test_safety_cap_gives_exit_2(capsys, monkeypatch):
    monkeypatch.setattr(weyl, "_FINITE_CLOSURE_CAP", 10)
    code = run(["--type", "universal:3:2", "--height", "9", "roots", "list"])
    captured = capsys.readouterr()
    assert code == EXIT_UNRESOLVED
    assert captured.out == ""
    assert captured.err == "error: root closure exceeded safety cap\n"


def test_cartan_file_input(tmp_path, capsys):
    source = tmp_path / "b2.txt"
    source.write_text("2 / 2 -2 / -1 2", encoding="utf-8")
    code, out = _run(capsys, ["--cartan", str(source), "group", "order"])
    assert code == EXIT_OK
    assert "order = 8" in out.splitlines()


def test_non_root_on_a_cartan_file_is_refused(tmp_path, capsys):
    # (1, 0, 1, 0, 0) has the norm of alpha_4 of this affine B4 matrix but is
    # not a root; the orbit search alone could only answer unknown.
    source = tmp_path / "affine-b4.txt"
    source.write_text(
        "5 / 2 -1 0 0 0 / -1 2 -1 0 -1 / 0 -1 2 -2 0 / 0 0 -1 2 0 / 0 -1 0 0 2",
        encoding="utf-8",
    )
    code = run(["--cartan", str(source), "schur", "check", "--root", "1,0,1,0,0"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == "error: (1, 0, 1, 0, 0) is not a real root\n"


def test_json_mode_round_trips(capsys):
    for argv in (
        ["--type", "A3", "--json", "orbit", "dump"],
        ["--type", "A2", "--json", "schur", "verify"],
        ["--type", "B2", "--json", "nc", "list"],
        ["--type", "A3", "--json", "braid", "apply", "--word", "2,-1"],
        ["--type", "A2", "--json", "repro", "table-4"],
    ):
        code, out = _run(capsys, argv)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert json.loads(json.dumps(payload, sort_keys=True)) == payload


def test_cli_is_thin_adapter_over_core(capsys):
    code, out = _run(capsys, ["--type", "A3", "--json", "orbit", "count"])
    A3 = cartan.preset("A3")
    orbit = hurwitz.hurwitz_orbit(A3, hurwitz.canonical_factorization(A3), node_cap=10**6)
    expected = emit({"count": len(orbit), "complete": orbit.complete}, True)
    assert out.strip() == expected.strip()

    code, out = _run(capsys, ["--type", "A2", "--json", "group", "order"])
    expected = emit({"order": len(weyl.enumerate_group(cartan.preset("A2")))}, True)
    assert out.strip() == expected.strip()

    code, out = _run(capsys, ["--type", "A2", "--json", "schur", "verify"])
    from schur_scope.schur import Orientation, verify_conjecture

    report = verify_conjecture(
        Orientation.default(cartan.preset("A2")), height_bound=20, node_cap=10**6
    )
    assert out.strip() == emit(report.to_json_dict(), True).strip()


def test_group_order_of_e8_without_enumeration(capsys):
    code, out = _run(capsys, ["--type", "E8", "--json", "group", "order"])
    assert code == EXIT_OK
    assert json.loads(out) == {"order": 696729600}


def test_nc_list_refuses_groups_above_the_enumeration_cap(capsys):
    code = run(["--type", "E7", "nc", "list"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == (
        "error: the Weyl group has 2903040 elements, more than the enumeration "
        "cap of 2000000\n"
    )


def _json_matrix(m) -> str:
    return json.dumps([list(row) for row in m])


def test_nc_leq_answers_on_e7_and_e8(capsys):
    # Dyer's search answers without enumerating W (2.9 and 697 million elements).
    code, out = _run(capsys, ["--type", "E7", "nc", "leq", "--u", "1,0,0,0,0,0,0", "--w", "1,0,0,0,0,0,0"])
    assert code == EXIT_OK
    assert out.splitlines() == ['answer = "yes"']
    c = _json_matrix(weyl.coxeter_element(cartan.preset("E8")))
    for u, w, answer in (("0,0,0,0,0,0,0,1", c, "yes"), (c, "0,0,0,0,0,0,0,1", "no")):
        code, out = _run(capsys, ["--type", "E8", "nc", "leq", "--u", u, "--w", w])
        assert code == EXIT_OK
        assert out.splitlines() == [f'answer = "{answer}"']


def test_nc_chain_on_e8_climbs_to_the_coxeter_element(capsys):
    code, out = _run(capsys, ["--type", "E8", "--json", "nc", "chain"])
    assert code == EXIT_OK
    payload = json.loads(out)
    E8 = cartan.preset("E8")
    assert len(payload["steps"]) == 8
    assert payload["full_factorization"] == payload["steps"]  # from 1 to c
    product = weyl.identity(8)
    for root in payload["steps"]:
        product = matmul(product, weyl.reflection_for_root(E8, tuple(root)).matrix)
    assert product == weyl.coxeter_element(E8)


def test_nc_chain_refuses_infinite_types(capsys):
    code = run(["--type", "universal:3:2", "nc", "chain"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == "error: interval factorization requires a finite-type matrix\n"


A3_FLIP = "[[0,0,1],[0,1,0],[1,0,0]]"  # the diagram automorphism 1 <-> 3


@pytest.mark.parametrize(
    "argv",
    [
        ["--type", "A2", "nc", "leq", "--u", "[[-1,0],[0,-1]]", "--w", "1,0"],
        ["--type", "A2", "nc", "chain", "--u", "[[-1,0],[0,-1]]"],
        ["--type", "A3", "nc", "leq", "--u", "1,0,0", "--w", A3_FLIP],
        ["--type", "A3", "nc", "chain", "--w", A3_FLIP],
    ],
)
def test_nc_refuses_finite_non_members(capsys, argv):
    # -1 is not in W(A2), and the A3 flip permutes the simple roots: peeling
    # a reduced word stops short of the identity.
    code = run(argv)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == "error: matrix is not an element of the Weyl group\n"


def test_schur_check_on_e7_answers_with_a_witness(capsys):
    # The highest root of E7.
    argv = ["--type", "E7", "--json", "schur", "check", "--root", "2,3,4,3,2,1,2"]
    code, out = _run(capsys, argv)
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["answer"] == "yes"
    assert data["certificate"][0] == [2, 3, 4, 3, 2, 1, 2]
    assert len(data["certificate"]) == 7


@pytest.mark.parametrize(
    "argv, count, cap",
    [
        (["--type", "E7", "schur", "verify"], 1062882, 1000000),
        # A3 printed a truncated report with exit 2 before the refusal.
        (["--type", "A3", "--orbit-cap", "10", "schur", "verify"], 16, 10),
    ],
)
def test_schur_verify_refuses_finite_orbits_above_the_node_cap(capsys, argv, count, cap):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == (
        f"error: the Hurwitz orbit has {count} factorizations, more than the node "
        f"cap of {cap}\n"
    )


@pytest.mark.parametrize("name, height, count", [("A5", 2, 9), ("D4", 3, 10)])
def test_schur_verify_below_the_highest_root_compares_roots_below_the_bound(
    capsys, name, height, count
):
    # F is cut at the bound like P and S, so below the highest root the three
    # sets are the roots no taller than the bound, and they match.
    argv = ["--json", "--type", name, "--height", str(height), "schur", "verify"]
    code, out = _run(capsys, argv)
    data = json.loads(out)
    assert code == EXIT_OK
    assert data["sets_match"] is True
    sets = data["sets"]
    assert len(sets["all_positive"]) == count
    assert sets["prefix"] == sets["curves"] == sets["all_positive"]
    assert max(map(sum, sets["all_positive"])) == height


def test_caps_must_be_positive(capsys):
    assert run(["--type", "A2", "--orbit-cap", "0", "roots", "list"]) == EXIT_USAGE
    capsys.readouterr()


def test_braid_apply_matches_core(capsys):
    code, out = _run(capsys, ["--type", "A3", "braid", "apply", "--word", "2"])
    assert code == EXIT_OK
    A3 = cartan.preset("A3")
    moved = hurwitz.apply_braid_word(A3, hurwitz.canonical_factorization(A3), (2,))
    assert f"factorization = {json.dumps([list(r) for r in moved.roots()])}" in out


def test_nc_dot_output(capsys):
    code, out = _run(capsys, ["--type", "A2", "nc", "list", "--dot"])
    assert code == EXIT_OK
    assert "digraph nc {" in out
    # --dot adds the graph beside the nodes and covers; it replaces nothing.
    code, out = _run(capsys, ["--json", "--type", "A2", "nc", "list", "--dot"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert {"nodes", "covers", "dot"} <= set(payload)
    assert len(payload["nodes"]) == payload["size"] == 5
    assert payload["dot"].count("->") == len(payload["covers"])


# sha256 of the --json stdout of nc list, as first recorded: a change in the
# member order, the ranks or the covers changes the digest.
NC_LIST_DIGESTS = {
    ("--type", "D5", "--order", "2,1,5,4,3"):
        "e9a432dd7206d6f3505ff5ddf3eb179c80af3882d83ee712f41f877d9b6b8ccc",
    ("--type", "F4"): "bd863416653ea572d9106fc0ff76b5697615df77c339b9a8e19ea42830792df2",
    ("--type", "A1"): "886e546eed94ade3e488db5b63a5be44620aa0a4f1f882931ca4a4e2fb654278",
    ("--type", "B2"): "cef967674414c58762300f697714df5621a1272e9b41c343dbc13c0f65410c47",
    ("--type", "G2"): "dc68184c850b5b94fe5f0d1e74e6e3251511283057e7b861ebd6e2b60d0b725c",
    ("--type", "A5", "--order", "2,1,5,4,3"):
        "161935c27f1504adf4821cfc4c97e46fee72b3a129aa629cb00f52e1e977e61d",
    ("--type", "D5"): "c97f95051bcd48721e98a519dc5d250f1baebb17d3bca8e33df7f7772859f64c",
    ("--type", "D6"): "0cd85bd7890053b3789374afe2733f1a48fa2c1a8c7ac5512e160c97f6edb6c1",
    ("--type", "E6"): "ecacd9e4f6d54ef83a4f2315b2a705e4f62f618a5cc7639bd0d567bb1b516764",
}

# Text mode, with the DOT graph of the covers.
NC_LIST_DOT_D4_DIGEST = "644962dc83b05c44fa70260f2f4700451066c34cf47899ac835bd42086f46cfa"


@pytest.mark.parametrize("session", sorted(NC_LIST_DIGESTS))
def test_nc_list_json_matches_its_golden_digest(capsys, session):
    code, out = _run(capsys, ["--json", *session, "nc", "list"])
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == NC_LIST_DIGESTS[session]


def _outcome(write, value):
    """What write(value) returns, or the type of the exception it raises."""
    try:
        return write(value)
    except TypeError as exc:  # json refuses keys that it cannot sort
        return type(exc)


def _text_by_json(monkeypatch, payload) -> str:
    """emit's text with the plain writer switched off: json writes each leaf."""
    with monkeypatch.context() as patched:
        patched.setattr(cli, "_plain_json", lambda value, newline: None)
        return emit(payload, False)


def _corpus_payloads(tmp_path, monkeypatch) -> list[dict]:
    """The payload of every golden-corpus line, captured from emit in-process
    (the text lines: a --json line has the same payload)."""
    payloads = []

    def capture(payload, json_mode):
        payloads.append(payload)
        return ""

    regen.prepare(tmp_path)
    monkeypatch.chdir(tmp_path)
    with monkeypatch.context() as patched:
        patched.setattr(cli, "emit", capture)
        for argv in regen.corpus_lines():
            if argv[0] != "--json":
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    run(argv)
                if os.path.exists(regen.RENDER_OUT):
                    os.remove(regen.RENDER_OUT)
    return payloads


def test_the_plain_writer_writes_every_corpus_payload_as_json_does(tmp_path, monkeypatch):
    payloads = _corpus_payloads(tmp_path, monkeypatch)
    assert len(payloads) > 800
    for payload in payloads:
        assert emit(payload, True) == json.dumps(payload, sort_keys=True, indent=2)
        assert emit(payload, False) == _text_by_json(monkeypatch, payload)
        # Only the DOT graph, whose lines json escapes, needs json.
        plain = cli._plain_json(payload, "\n") is not None
        assert plain == ("dot" not in payload), payload


class _Answer(str, enum.Enum):
    YES = "yes"


class _Count(enum.IntEnum):
    ONE = 1


# Values past the plain writer's reach, and plain ones beside them.
_CRAFTED = [
    None, True, False, 0, -7, 10**40, "", "plain text", "caf\u00e9", "\u2203",
    'say "yes"', "back\\slash", "two\nlines", "tab\there", "del\x7f", "bell\x07",
    "nul\x00", "\x1f", 0.5, float("nan"), float("inf"), -float("inf"), [], {}, (),
    [[]], [{}], {"a": []}, {"a": {}}, (1, (2, 3)), [True, 1, False, 0], {"k": True, "j": 1},
    {"b": 1, "a": {"d": [1, {"z": None, "y": "x"}], "c": ()}}, {1: "one"}, {1: "a", "1": "b"},
    {"a": 1, 2: "b"}, {True: 1}, {None: 1}, {"caf\u00e9": 1}, {'q"': 1}, {"n\n": 1},
    [1, "a", None, [2.5]], _Answer.YES, [_Answer.YES], {"count": _Count.ONE},
    {"nested": [[1, 2], [3, [4, [5, []]]]]},
]


@pytest.mark.parametrize("value", _CRAFTED, ids=repr)
def test_the_plain_writer_falls_back_to_json(monkeypatch, value):
    indented = functools.partial(json.dumps, sort_keys=True, indent=2)
    assert _outcome(lambda v: cli._json_text(v, True), value) == _outcome(indented, value)
    assert _outcome(lambda v: cli._json_text(v, False), value) == _outcome(json.dumps, value)
    payload = {"value": value, "other": [value, {"inner": value}]}
    assert _outcome(lambda p: emit(p, True), payload) == _outcome(indented, payload)
    assert emit(payload, False) == _text_by_json(monkeypatch, payload)


def test_nc_list_text_dot_matches_its_golden_digest(capsys):
    code, out = _run(capsys, ["--type", "D4", "nc", "list", "--dot"])
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == NC_LIST_DOT_D4_DIGEST


def test_rank_one_group_commands_keep_their_bytes(capsys):
    # Rank 1 is where the permutation product takes its one-id branch.
    expected = {
        ("nc", "list"): 'size = 2\nnodes = [{"id": 0, "rank": 0}, '
        '{"id": 1, "rank": 1, "root": [1]}]\ncovers = [[0, 1]]\n',
        ("nc", "chain"): "steps = [[1]]\nfull_factorization = [[1]]\n",
        ("group", "order"): "order = 2\n",
    }
    for command, text in expected.items():
        assert _run(capsys, ["--type", "A1", *command]) == (EXIT_OK, text), command


def test_mutate_output(capsys):
    code, out = _run(capsys, ["--type", "A3", "mutate", "source"])
    assert code == EXIT_OK
    assert "order = [2, 3, 1]" in out.splitlines()


def test_repro_fixtures_all_ok(capsys):
    for fixture in repro.fixture_names():
        code, out = _run(capsys, ["repro", fixture])
        assert code == EXIT_OK
        assert "ok = true" in out.splitlines()


def test_repro_unknown_fixture(capsys):
    assert run(["repro", "example-9.9"]) == EXIT_USAGE
    capsys.readouterr()


def test_repro_byte_stable(capsys):
    outputs = set()
    for _ in range(2):
        code, out = _run(capsys, ["--json", "repro", "example-2.6"])
        assert code == EXIT_OK
        outputs.add(out)
    assert len(outputs) == 1


def test_svg_deterministic_and_golden(tmp_path):
    cw = CurveWord((2,), 3)
    C = cartan.preset("A3")
    first = render_curve_svg(cw, C, str(tmp_path / "a.svg"))
    second = render_curve_svg(cw, C, str(tmp_path / "b.svg"))
    assert first == second
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()
    golden = (DATA / "curve_2_end3_a3.svg").read_text(encoding="utf-8")
    assert first == golden


def _fraction_points(cw, n):
    """The polyline points as render_curve_svg wrote them over Fractions:
    each coordinate rounded to tenths by round(), which takes a tie to the
    even tenth."""
    unit, spacing = 30, 40
    baseline = 4 * unit

    def tenths(value):
        scaled = round(value * 10)
        return f"{scaled // 10}.{scaled % 10}"

    m = len(cw.letters)
    points = [(Fraction(spacing * (n + 1), 2), Fraction(baseline + 2 * unit))]
    points += [
        (Fraction(spacing * j), baseline - unit * (1 + Fraction(k, m + 1)))
        for k, j in enumerate(cw.letters, start=1)
    ]
    points.append((Fraction(spacing * cw.end), Fraction(baseline)))
    return " ".join(f"{tenths(x)},{tenths(y)}" for x, y in points)


@pytest.mark.parametrize(
    "letters, end",
    [
        ((), 1), ((2,), 3), ((1, 2), 3), ((3, 1, 2), 1), ((1, 2, 1, 2, 1), 3),
        # m = 7: crossing 1 sits at 120 - 30 * 9/8 = 86.25, a tie kept at 86.2.
        ((1, 2, 3, 1, 2, 3, 1), 2),
        ((1, 2, 1, 3, 2, 3, 1, 2, 1), 3),
    ],
)
def test_svg_points_match_the_fraction_route(tmp_path, letters, end):
    cw = CurveWord(letters, end)
    svg = render_curve_svg(cw, cartan.preset("A3"), str(tmp_path / "curve.svg"))
    points = svg.split('<polyline points="', 1)[1].split('"', 1)[0]
    assert points == _fraction_points(cw, 3)


def test_svg_contents(tmp_path):
    cw = CurveWord((), 2)
    svg = render_curve_svg(cw, cartan.preset("A3"), str(tmp_path / "fan.svg"))
    assert "schematic - not isotopy-faithful" in svg
    assert svg.count("<circle") == 4  # three punctures and the basepoint
    assert "a_2" in svg


def test_curve_render_via_cli(tmp_path, capsys):
    out_path = tmp_path / "curve.svg"
    code, out = _run(
        capsys,
        ["--type", "A3", "curve", "render", "--word", "2", "--end", "3",
         "--out", str(out_path)],
    )
    assert code == EXIT_OK
    assert out_path.exists()


def test_schur_list(capsys):
    code, out = _run(capsys, ["--type", "A2", "schur", "list"])
    assert code == EXIT_OK
    assert out.count('"answer": "yes"') == 3  # the three positive roots
    assert "roots = " in out


def test_nc_leq_cli(capsys):
    code, out = _run(
        capsys,
        ["--type", "A2", "nc", "leq", "--u", "1,0", "--w", "[[0,-1],[1,-1]]"],
    )
    assert code == EXIT_OK
    assert 'answer = "yes"' in out.splitlines()


@pytest.mark.parametrize("u", ["[[1.5,0],[0,1]]", "[1,2]", "[[true,0],[0,1]]", "[[1,0],[0,"])
def test_nc_leq_rejects_non_integer_matrix(capsys, u):
    # 1.5 used to truncate to the identity (answer yes), [1,2] to raise TypeError.
    # Malformed JSON raises json.JSONDecodeError, a ValueError.
    code = run(["--type", "A2", "nc", "leq", "--u", u, "--w", "1,0"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith("error: ")


# c for the identity order, as JSON matrices.
U32_COXETER = "[[15,10,-6],[6,3,-2],[2,2,-1]]"
AFFINE_A2_COXETER = "[[2,1,-2],[2,0,-1],[1,1,-1]]"


@pytest.mark.parametrize(
    "name, c, u, answer",
    [
        ("universal:3:2", U32_COXETER, "1,6,2", "no"),
        ("universal:3:2", U32_COXETER, "1,2,6", "yes"),
        ("affine-A2", AFFINE_A2_COXETER, "11,12,11", "no"),
    ],
)
def test_nc_leq_is_decided_on_infinite_types(capsys, name, c, u, answer):
    # Absolute lengths are exact on every type (Dyer's deletion search), so
    # t <= c is decided where the height-pruned orbit search stops short.
    assert json.loads(c) == [list(row) for row in weyl.coxeter_element(cartan.preset(name))]
    code, out = _run(capsys, ["--type", name, "nc", "leq", "--u", u, "--w", c])
    assert code == EXIT_OK
    assert out.splitlines() == [f'answer = "{answer}"']


def test_nc_leq_refuses_minus_identity_in_an_infinite_group(capsys, monkeypatch):
    # -id is not in the infinite dihedral group W(universal:2:3): every column
    # stays a descent, but it sends alpha_1 + alpha_2, which every element of
    # W keeps non-negative, to its negative, so it is refused before a reduced
    # word is peeled.  The old search took -t_beta, a lattice reflection
    # outside W, as its last factor and answered yes.
    monkeypatch.setattr(weyl, "_DYER_CAP", 50)
    code = run(["--type", "universal:2:3", "nc", "leq", "--u", "1,0", "--w", "[[-1,0],[0,-1]]"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == "error: matrix is not an element of the Weyl group\n"
    # c^30, of length 60, is in W: peeling it stops at the safety cap (set low
    # here; at 10^5 steps the entries reach tens of thousands of digits).
    U = cartan.preset("universal:2:3")
    power = json.dumps(mat_pow(weyl.coxeter_element(U), 30))
    code = run(["--type", "universal:2:3", "nc", "leq", "--u", "1,0", "--w", power])
    captured = capsys.readouterr()
    assert code == EXIT_UNRESOLVED
    assert captured.out == ""
    assert captured.err == (
        f"error: reduced word exceeded the safety cap of {weyl._DYER_CAP} steps\n"
    )


def test_nc_leq_refuses_a_diagram_rotation(capsys):
    # Rotating the affine-A2 diagram permutes the simple roots, so the matrix
    # has no descent and is not the identity: not in W (it used to be unknown).
    argv = ["--type", "affine-A2", "nc", "leq", "--u", "1,0,0", "--w", "[[0,0,1],[1,0,0],[0,1,0]]"]
    code = run(argv)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == "error: matrix is not an element of the Weyl group\n"


def test_reflection_search_cap_gives_exit_2(capsys, monkeypatch):
    # c^2 on universal:4:2 has a reduced word of 8 letters, and its absolute
    # length, 6, takes the search 24 nodes to decide.
    c2 = "[[3573,3180,2044,-1236],[1236,1101,708,-428],[428,380,245,-148],[148,132,84,-51]]"
    C = cartan.preset("universal:4:2")
    c = weyl.coxeter_element(C)
    assert json.loads(c2) == [list(row) for row in matmul(c, c)]
    monkeypatch.setattr(weyl, "_DYER_CAP", 20)
    code = run(["--type", "universal:4:2", "nc", "leq", "--u", "1,0,0,0", "--w", c2])
    captured = capsys.readouterr()
    assert code == EXIT_UNRESOLVED
    assert captured.out == ""
    assert captured.err == (
        "error: reflection search exceeded the safety cap of 20 nodes\n"
    )


def test_a_reader_that_has_gone_is_no_error():
    """A command whose stdout is a pipe with no reader (the read end is
    closed before the child starts) prints no traceback and exits with its
    own code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "schur_scope", "--type", "A3", "orbit", "count"],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write)
    assert done.stderr == b""
    assert done.returncode == EXIT_OK


def _imported_modules(*args: str) -> set[str]:
    """The modules a fresh interpreter imports for `python -X importtime
    ARGS`, read off its import-time listing on stderr (whose header line
    adds the name "imported package" to every set alike).  The command must
    run to its answer: exit 0, or 2 for an answer with an unknown part."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode in (EXIT_OK, EXIT_UNRESOLVED), done.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:")
    }


# Loaded by dataclasses (inspect) and fractions (decimal) in Python 3.10 and
# 3.11; no command needs any of them.
_HEAVY_STDLIB = {"dataclasses", "inspect", "fractions", "decimal"}
# argparse builds a help formatter for every parser and argument and looks up
# gettext translations for each (and gettext imports locale): about half of
# a cold command's own start-up.  cli builds it only for a line that is not
# plain (cli._plain), and every line below is plain.
_PARSER_STDLIB = {"argparse", "gettext", "locale"}
# About a third of the package's own import; cli writes a plain payload
# without it (cli._plain_json), and every payload below is plain.
_JSON_STDLIB = {"json", "json.decoder", "json.encoder", "json.scanner", "_json"}
_UPPER_LAYERS = {f"schur_scope.{name}" for name in ("curves", "schur", "ncposet", "repro")}


@pytest.mark.parametrize(
    "command, layers",
    [
        (("orbit", "count"), set()),
        (("group", "order"), set()),
        (("roots", "list"), set()),
        (("mutate", "source"), {"schur_scope.schur"}),
        (("nc", "list"), {"schur_scope.ncposet"}),
        (("--order", "2,1,3", "--height", "4", "schur", "verify"), {"schur_scope.schur"}),
        # The curve word of the benchmark; its answer, no-within-bound, exits 2.
        (("curve", "simple", "--word", "2,1,3,1", "--end", "2"), {"schur_scope.curves"}),
    ],
)
def test_a_cold_command_imports_only_its_own_layers(command, layers):
    baseline = _imported_modules("-c", "pass")
    loaded = _imported_modules("-m", "schur_scope", "--json", "--type", "A3", *command)
    extra = loaded - baseline
    assert "schur_scope.hurwitz" in extra  # the listing is read correctly
    assert not extra & _HEAVY_STDLIB
    assert not extra & _PARSER_STDLIB
    assert not extra & _JSON_STDLIB
    assert extra & _UPPER_LAYERS == layers
