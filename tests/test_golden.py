"""Every line of the golden corpus (tests/golden/cli.jsonl) gives the exit
code and the stdout, stderr and written-file digests it was recorded with.
See tests/golden/regen.py for the corpus and its regeneration rule."""

import json
import time

from golden import regen
from schur_scope.cli import _COMMANDS
from schur_scope.repro import fixture_names


def _entries() -> list[dict]:
    return [json.loads(text) for text in regen.CORPUS.read_text(encoding="utf-8").splitlines()]


def test_the_corpus_is_the_generated_line_list():
    argvs = [entry["argv"] for entry in _entries()]
    assert argvs == regen.corpus_lines()
    assert len({tuple(argv) for argv in argvs}) == len(argvs)
    assert sum(entry["exit"] == 0 for entry in _entries()) >= 200
    # Every command and action is in it, in text and --json alike, but for
    # the prefix slice, which is --json only.
    doubled = argvs[: len(argvs) - len(regen._prefix_lines())]
    assert sum(argv[0] == "--json" for argv in doubled) * 2 == len(doubled)
    assert all(argv[0] == "--json" for argv in argvs[len(doubled):])
    pairs = {tuple(argv[i:i + 2]) for argv in argvs for i in range(len(argv) - 1)}
    for command, (_, choices, _) in _COMMANDS.items():
        for action in choices or fixture_names():
            assert (command, action) in pairs


def test_every_golden_line_replays_byte_for_byte(tmp_path, monkeypatch):
    regen.prepare(tmp_path)
    monkeypatch.chdir(tmp_path)
    started = time.monotonic()
    changed = [
        entry["argv"] for entry in _entries() if regen.record(entry["argv"]) != entry
    ]
    assert changed == []
    assert time.monotonic() - started < 15
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(regen.CARTAN_FILES)
