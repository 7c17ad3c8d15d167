"""Smoke test of the benchmark on tiny inputs (A3 orbit count, B2 nc list,
universal:3:2 schur verify at height 4), untraced and traced:

    python -m pytest perfbench
"""

from __future__ import annotations

import functools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@functools.cache
def _run(trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "smoke",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_emits_every_named_metric(trace, section):
    result = _run(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_traced_run_splits_layers():
    metrics = {k: v["value"] for k, v in _run(1)["metrics"].items()}
    assert metrics["matrix.inverse.calls"] > 0  # nc list computes u^-1 w
    assert metrics["hurwitz.braid_move.calls"] > 0  # orbit count
    assert metrics["ncposet.enumerate_nc.member_ratio"] == 6 / 8  # |NC(B2)| / |W(B2)|
    assert metrics["trace.overhead_ratio"] > 0


def test_benchmark_file_follows_naming_rules():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    units = [m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", u) for u in units)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert set(names[: len(SPEC["workloads"])]) <= set(workloads.WORKLOADS)


def test_checks_reject_wrong_answers():
    assert workloads._check_orbit(16)({"count": 15, "complete": True}, 0).problem
    assert workloads._check_group_order(8)({"order": 8}, 1).problem
    nc = workloads._check_nc(3, [1, 1, 1], 1)
    nodes = [{"id": i, "rank": i} for i in range(3)]
    assert nc({"size": 3, "nodes": nodes, "covers": [[0, 1], [1, 2]]}, 0).problem is None
    assert nc({"size": 3, "nodes": nodes, "covers": [[0, 1]]}, 0).problem


def test_verify_check_allows_unknown_to_resolve_only():
    check = workloads._check_verify((2, 1), yes=[(1, 0)], unknown=[(1, 1)])
    report = {"truncated": False, "sets_match": True}
    resolved = check({**report, "sets": {"prefix": [[0, 1], [1, 1]]}, "unknowns": []}, 0)
    assert resolved.problem is None and resolved.unresolved == 0
    lost = check({**report, "sets": {"prefix": [[1, 1]]}, "unknowns": [[0, 1]]}, 2)
    assert lost.problem


def test_seed_draws_are_replayable():
    first = workloads.build("certify", 5)
    assert [c.args for c in first.commands] == [c.args for c in workloads.build("certify", 5).commands]
    assert any(
        [c.args for c in workloads.build("certify", s).commands]
        != [c.args for c in first.commands]
        for s in range(6, 9)
    )
