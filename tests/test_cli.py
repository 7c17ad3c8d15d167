import json
from pathlib import Path

import pytest

from schur_scope import cartan, curves, hurwitz, repro, weyl
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
    assert run([]) == EXIT_USAGE
    # argparse's own errors: a missing required option, an unknown command and
    # an unknown option; --help is not an error.
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


def test_caps_must_be_positive(capsys):
    assert run(["--type", "A2", "--orbit-cap", "0", "roots", "list"]) == EXIT_USAGE
    capsys.readouterr()


def test_braid_apply_matches_core(capsys):
    code, out = _run(capsys, ["--type", "A3", "braid", "apply", "--word", "2"])
    assert code == EXIT_OK
    moved = hurwitz.apply_braid_word(
        hurwitz.canonical_factorization(cartan.preset("A3")), (2,)
    )
    assert f"factorization = {json.dumps([list(r) for r in moved.roots()])}" in out


def test_nc_dot_output(capsys):
    code, out = _run(capsys, ["--type", "A2", "nc", "list", "--dot"])
    assert code == EXIT_OK
    assert "digraph nc {" in out


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


@pytest.mark.parametrize("u", ["[[1.5,0],[0,1]]", "[1,2]", "[[true,0],[0,1]]"])
def test_nc_leq_rejects_non_integer_matrix(capsys, u):
    # 1.5 used to truncate to the identity (answer yes), [1,2] to raise TypeError.
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
