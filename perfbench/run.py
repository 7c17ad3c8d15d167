"""Benchmark of the schur-scope CLI: cold one-shot commands, as a user runs them.

    python3 perfbench/run.py --workload orbit --seed 1 --seconds 42 --trace 0

Every command runs in a fresh interpreter (`python -m schur_scope --json ...`),
because a user pays the cold cost of every cached table on every call.  Each
child gets an empty temporary working directory, HOME, XDG_CACHE_HOME and
TMPDIR under perfbench/.work, an environment without SCHUR_SCOPE_CAPS (so CLI
defaults apply) and PYTHONHASHSEED=0 (so a run can be replayed).  A command
that exceeds its timeout is killed and counts as failed, as does one that
exits 1, crashes, or prints output that breaks its check (see workloads.py).

A run does, in order: one untimed warm-up round of the set-up commands (it
compiles the package's bytecode), then passes over the workload's commands
for about --seconds.  Every command runs at least once; after that, the
commands go on in turn until the next one would probably end past the
budget, so the last pass may be partial.  About SETUP_ROUNDS_PER_PASS timed
rounds of the set-up commands are run in each pass, split evenly after its
commands, so the set-up samples are spread over the whole run rather than
bunched at its start.  With --trace 1 the set-up rounds are skipped and each
command is followed by the same command under perfbench/tracer.py; the
per-layer metrics replace the end-to-end ones, and traced over untraced wall
time is the overhead.  The loop is closed: one command at a time, each
started when the previous one has exited.

wall_s and setup_s are seconds on a reference host, not on this one.  On a
shared 2-vCPU VM the speed of a vCPU changes by up to 1.6x from one second
to the next (work on the other hyperthread of the same core comes and goes),
which moved the unscaled wall_s of whole 42-second runs by up to a fifth.
So the parent times a fixed piece of pure-Python work like the program's own
(_calibration_s: a fraction of a second, in code no change to the program
touches) before and after every timed command and every group of set-up
rounds, and scales each of their wall times by CALIBRATION_REF_S over the
mean of the two calibrations around it.  The benchmark pins itself, and so
every child, to one CPU, so that the calibration sees the same CPU as the
commands; one process runs at a time, so it loses no parallelism by that.
Unscaled times and every calibration sample are in the record.

Each command's samples are reduced to their median first, so a burst of load
from outside that hits one command once is discarded: wall_s and setup_s are
the sums of the per-command medians, peak_rss_mb the largest per-command
median and resolved the sum of the per-command medians.  The metrics printed,
and their units, are the ones BENCHMARK.json names: its end_to_end list with
--trace 0, its per_layer list with --trace 1.

Output: one JSON line with the replay record (argv lists, source revision,
Python, CPU count, the CPU pinned to, platform, per-command samples,
calibration samples, unscaled wall_s and setup_s), then, as the last line,
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"
TRACER = Path(tracer.__file__).resolve()

SETUP_ROUNDS_PER_PASS = 9

# Time metrics are given in seconds on a reference host that runs
# _calibration_s() in this time.  The value only sets the scale; a 2-vCPU Xeon
# VM took 0.17-0.37 s, 0.25 s in the median.
CALIBRATION_REF_S = 0.25
_GENERATORS = (  # reflections of a rank-3 hyperbolic root system
    ((-1, 2, 2), (0, 1, 0), (0, 0, 1)),
    ((1, 0, 0), (2, -1, 2), (0, 0, 1)),
    ((1, 0, 0), (0, 1, 0), (2, 2, -1)),
)


@dataclass
class Result:
    """One command execution."""

    args: tuple[str, ...]
    wall_s: float
    rss_mb: float
    outcome: workloads.Outcome
    summary: dict | None = None  # tracer output, traced runs only
    ref_s: float | None = None  # wall_s at the reference host speed, untraced runs only


# Built from scratch, so nothing else (such as SCHUR_SCOPE_CAPS) reaches a child.
_CHILD_ENV = {
    "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
    "PYTHONPATH": str(SRC),
    "PYTHONHASHSEED": "0",
    "LC_ALL": "C.UTF-8",
}


def _child_env(scratch: Path) -> dict[str, str]:
    env = dict(_CHILD_ENV)
    for var, sub in (("HOME", "home"), ("XDG_CACHE_HOME", "cache"), ("TMPDIR", "tmp")):
        path = scratch / sub
        path.mkdir()
        env[var] = str(path)
    return env


def _wait(proc: subprocess.Popen, timeout: float, start: float):
    """Wait for the child with a kill timer; returns (wall, status, rusage, killed).

    The child is waited for without reaping it first, so the timer can never
    signal a recycled pid; the clock stops when the child has exited.
    """
    lock = threading.Lock()
    state = {"exited": False, "killed": False}

    def kill() -> None:
        with lock:
            if not state["exited"]:
                os.kill(proc.pid, signal.SIGKILL)
                state["killed"] = True

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        with lock:
            state["exited"] = True
    except BaseException:  # interrupted: do not leave the child behind
        with lock:
            state["exited"] = True
            proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        timer.join()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage, state["killed"]


def run_command(command: workloads.Command, traced: bool) -> Result:
    """Run one command in a fresh interpreter and check its output."""
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=WORK))
    try:
        env = _child_env(scratch)
        cwd = scratch / "cwd"
        cwd.mkdir()
        trace_out = scratch / "trace.json"
        if traced:
            argv = [sys.executable, str(TRACER), str(trace_out), "--json", *command.args]
        else:
            argv = [sys.executable, "-m", "schur_scope", "--json", *command.args]
        timeout = command.timeout * (3 if traced else 1)
        with open(scratch / "stdout", "wb") as out, open(scratch / "stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        wall, code, usage, killed = _wait(proc, timeout, start)
        rss_mb = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
        stdout = (scratch / "stdout").read_bytes()
        summary = None
        if killed:
            outcome = workloads.Outcome(f"killed after {timeout:.0f} s")
        elif code not in (0, 2):
            stderr = (scratch / "stderr").read_text(errors="replace").strip()
            outcome = workloads.Outcome(f"exit code {code}: {stderr[-300:]}")
        else:
            try:
                payload = json.loads(stdout)
            except ValueError:
                outcome = workloads.Outcome("output is not JSON")
            else:
                outcome = command.check(payload, code)
            if traced:
                summary = json.loads(trace_out.read_text())
        return Result(command.args, wall, rss_mb, outcome, summary)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _calibration_s() -> float:
    """Seconds this process takes for a fixed amount of pure-Python work like
    the program's own (tuple matrix products, a set of seen elements): the
    host's speed at this moment, measured with code that no change to the
    program can touch."""
    start = time.perf_counter()
    seen = {_GENERATORS[0]}
    queue = deque([_GENERATORS[0]])
    columns = [tuple(zip(*g)) for g in _GENERATORS]
    for _ in range(24000 // len(columns)):  # 24000 matrix products
        m = queue.popleft()
        for cols in columns:
            p = tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in m)
            if p not in seen:
                seen.add(p)
                queue.append(p)
    return time.perf_counter() - start


def run_pass(commands, traced: bool = False) -> list[Result]:
    return [run_command(command, traced) for command in commands]


def _at_reference_speed(results: list[Result], before: float, after: float) -> None:
    """Scale the wall times of results run between two calibrations to the
    reference host, by the host's speed around them."""
    scale = CALIBRATION_REF_S / ((before + after) / 2)
    for result in results:
        result.ref_s = result.wall_s * scale


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def _median_pass(columns, field: str = "wall_s") -> float:
    """Time of one pass: the sum over commands of each command's median time
    (the Result field named), where a column holds one command's results."""
    return sum(statistics.median(getattr(r, field) for r in column) for column in columns)


def _source_identity() -> dict:
    """Git revision when there is one, and a digest of the package sources."""
    revision = None
    if (ROOT / ".git").exists():  # a plain checkout may sit inside another repository
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            revision = rev.stdout.strip() if rev.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "schur_scope").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_revision": revision, "source_sha256": digest.hexdigest()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "schur_scope" / "cli.py").is_file():
        print(f"error: no schur_scope sources under {SRC}", file=sys.stderr)
        return 2

    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # children inherit it; see the module docstring
    workload = workloads.build(args.workload, args.seed)
    traced = bool(args.trace)
    all_results: list[Result] = []

    warmup = run_pass(workload.setup)  # compiles bytecode; not timed
    all_results += warmup
    _calibration_s()  # warm-up, not timed

    commands = workload.commands
    plain: list[list[Result]] = [[] for _ in commands]  # a column per command
    traced_runs: list[list[Result]] = [[] for _ in commands]
    step_s: list[list[float]] = [[] for _ in commands]  # a step: command and what follows it
    setup_rounds: list[list[Result]] = []
    calibration_s = [] if traced else [_calibration_s()]
    rounds_per_command = 0 if traced else -(-SETUP_ROUNDS_PER_PASS // len(commands))
    start = time.perf_counter()
    for step in itertools.count():
        k = step % len(commands)
        begin = time.perf_counter()
        result = run_command(commands[k], traced=False)
        plain[k].append(result)
        if traced:
            traced_runs[k].append(run_command(commands[k], traced=True))
        else:
            calibration_s.append(_calibration_s())
            _at_reference_speed([result], *calibration_s[-2:])
            rounds = [run_pass(workload.setup) for _ in range(rounds_per_command)]
            calibration_s.append(_calibration_s())
            _at_reference_speed([r for rnd in rounds for r in rnd], *calibration_s[-2:])
            setup_rounds += rounds
        now = time.perf_counter()
        step_s[k].append(now - begin)
        # Commands run in turn, each at least once, until the next would
        # probably end past the budget.
        upcoming = (step + 1) % len(commands)
        if step_s[upcoming] and now - start + statistics.median(step_s[upcoming]) > args.seconds:
            break
    for group in setup_rounds + plain + traced_runs:
        all_results += group
    with contextlib.suppress(OSError):  # left in place if anything remains
        WORK.rmdir()

    failed = [r for r in all_results if r.outcome.problem is not None]
    walls = [sum(r.wall_s for r in p) for p in zip(*plain)]  # whole passes only
    if traced:
        overhead = _median_pass(traced_runs) / _median_pass(plain)
        per_pass = [
            tracer.layer_metrics([r.summary for r in p], overhead)
            for p in zip(*traced_runs)
            if all(r.outcome.problem is None for r in p)
        ]
        values = {
            name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]
        } if per_pass else {}
    else:
        values = {
            "wall_s": _median_pass(plain, "ref_s"),
            "setup_s": _median_pass(zip(*setup_rounds), "ref_s"),
            "peak_rss_mb": max(statistics.median(r.rss_mb for r in column) for column in plain),
            "resolved": sum(
                statistics.median(r.outcome.resolved for r in column) for column in plain
            ),
            "ok_rate": (len(all_results) - len(failed)) / len(all_results),
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if traced else "end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section
    } if values else {}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **_source_identity(),
        "python": sys.version,
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "platform": platform.platform(),
        "argv": [[sys.executable, "-m", "schur_scope", "--json", *c.args] for c in commands],
        "setup_argv": [[sys.executable, "-m", "schur_scope", "--json", *c.args] for c in workload.setup],
        "child_env": _CHILD_ENV,
        "pass_wall_s": {"samples": len(walls), "median": statistics.median(walls),
                        "quartiles": _quartiles(walls), "passes": walls},
        "setup_s": [sum(r.wall_s for r in rnd) for rnd in setup_rounds],
        "unscaled_wall_s": _median_pass(plain),
        "unscaled_setup_s": _median_pass(zip(*setup_rounds)) if setup_rounds else None,
        "calibration_s": calibration_s,
        "command_wall_s": {
            " ".join(c.args): [r.wall_s for r in column] for c, column in zip(commands, plain)
        },
        "unresolved": [sum(r.outcome.unresolved for r in p) for p in zip(*plain)],
        "failures": [{"args": list(r.args), "problem": r.outcome.problem} for r in failed[:10]],
    }
    if traced:
        traced_passes = list(zip(*traced_runs))
        record["traced_wall_s"] = [sum(r.wall_s for r in p) for p in traced_passes]
        record["spans"] = [sum(r.summary["spans"] for r in p if r.summary) for p in traced_passes]
    print(json.dumps({"record": record}))
    result = {
        "correct": not failed and bool(metrics),
        "attempted": len(all_results),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
