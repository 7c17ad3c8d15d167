"""Every function in src/schur_scope is reached by a line of the golden
corpus (tests/golden/cli.jsonl), or is on ALLOWED with its reason.

The corpus replays in a fresh interpreter (this file run as a script), so no
cache warmed by an earlier test hides a call.  A global sys.settrace function
records the code object of every call into the package; ast maps each
`def` and `lambda` to its qualified name (module.Class.function, with
nested functions and lambdas under their enclosing function).  A decorated
function's code object starts at its first decorator line.

    PYTHONPATH=src python tests/test_reach.py

prints the reached code objects, one `module line name` a line: functions,
lambdas, and the comprehensions and class and module bodies, which the gate
ignores.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "schur_scope"

# Unreached by the corpus, each with its reason.
ALLOWED = {
    "cli.main": "the console-script entry point in pyproject.toml; the corpus runs cli.run",
    "curves.fan": "ROADMAP items 5 and 17",
    "curves.braid_move_curves": "pinned by perfbench's tracer; ROADMAP items 5 and 17",
    "curves.apply_braid_word_curves": "ROADMAP items 5 and 17",
    "schur.schur_transversal_finite": "the start of the spiral route of ROADMAP item 5",
    "hurwitz.OrbitResult.__setattr__": "the immutability guard, reached only by misuse",
}


def _functions(path: Path) -> dict[tuple[int, str], str]:
    """(first line, name) of each function's code object -> its qualified name."""
    module = path.stem
    names: dict[tuple[int, str], str] = {}

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{scope}.{child.name}"
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                names[first, child.name] = name
                visit(child, name)
            elif isinstance(child, ast.Lambda):
                names[child.lineno, "<lambda>"] = f"{scope}.<lambda>"
                visit(child, scope)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{scope}.{child.name}")
            else:
                visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), module)
    return names


def _all_functions() -> dict[tuple[str, int, str], str]:
    return {
        (path.stem, *key): name
        for path in sorted(PACKAGE.glob("*.py"))
        for key, name in _functions(path).items()
    }


def _replay() -> None:
    """Replay every corpus line under the trace; print what it reached."""
    reached: set[tuple[str, int, str]] = set()
    prefix = str(PACKAGE) + os.sep

    def trace(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            reached.add((code.co_filename, code.co_firstlineno, code.co_name))

    sys.settrace(trace)
    from golden import regen  # imports the package under the trace
    from schur_scope import __file__ as package_file

    with tempfile.TemporaryDirectory() as workdir:
        regen.prepare(Path(workdir))
        os.chdir(workdir)
        for argv in regen.corpus_lines():
            regen.record(argv)
    sys.settrace(None)
    if Path(package_file).resolve().parent != PACKAGE:
        sys.exit(f"replayed {package_file}, not {PACKAGE}")
    for filename, line, name in sorted(reached):
        print(Path(filename).stem, line, name)


def test_every_function_is_reached_or_allowed():
    functions = _all_functions()
    names = list(functions.values())
    assert len(names) == len(set(names)), "two functions share a qualified name"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, __file__], capture_output=True, text=True, env=env, timeout=600
    )
    assert done.returncode == 0, done.stderr
    reached = {(module, int(line), name)
               for module, line, name in map(str.split, done.stdout.splitlines())}
    unreached = {name for key, name in functions.items() if key not in reached}
    assert sorted(unreached - set(ALLOWED)) == [], "unreached and not allowed"
    assert sorted(set(ALLOWED) - unreached) == [], "allowed but reached, or gone"
    assert all(reason.strip() for reason in ALLOWED.values())


if __name__ == "__main__":
    _replay()
