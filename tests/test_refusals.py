"""The refusal rows that no other test module runs, and the check that every row runs once.

The rows, their harness and ``refusal_test`` live in ``_refusals.py``, a
helper module, so no test module imports another. A row with a plain name
runs once here, as ``test_refusal[name]``: refusing a new input takes one
entry of ``LIBRARY`` or ``CLI``.
"""

import ast
import re
from pathlib import Path

from _refusals import CLI, LIBRARY, refusal_test

test_refusal = refusal_test("test_refusal")


def _homes(path):
    """The homes that `path` binds, each as `home = refusal_test("home")` and bound by no other top-level statement."""
    body = ast.parse(path.read_text()).body
    names = [stmt.name for stmt in body if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))]
    names += [node.id for stmt in body if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
              for node in ast.walk(stmt) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]
    homes = []
    for stmt in body:
        if isinstance(stmt, ast.Assign) and getattr(getattr(stmt.value, "func", None), "id", None) == "refusal_test":
            binding = re.fullmatch(r"(test_\w+) = refusal_test\('\1'\)", ast.unparse(stmt))
            assert binding, f"{path.name}: {ast.unparse(stmt)}"
            assert names.count(binding[1]) == 1, f"{path.name} rebinds {binding[1]}"
            homes.append(binding[1])
    return homes


def test_every_row_runs_once():
    # fails for a row whose home binds no refusal_test or binds it twice, for a home that mixes `home` rows
    # with `home[id]` rows, and for a binding that pytest would not collect under its home's name; the
    # bindings are read from the source, so no test module is imported here
    homes = [home for path in Path(__file__).parent.glob("test_*.py") for home in _homes(path)]
    run = [name for home in homes for name in refusal_test(home).refusal_rows]
    assert sorted(run) == sorted([*LIBRARY, *CLI])
