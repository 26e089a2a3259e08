"""Module boundaries of src/popsched, read from each module's syntax tree."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "popsched"
RUN_FILES = {"config.json", "metrics.csv", "events.jsonl", "checkpoints", "result.json", "schedule.csv"}


def trees():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no modules under {SRC}"
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"))) for path in paths]


def test_no_module_imports_a_private_name_from_a_sibling():
    found = [
        f"{name}:{node.lineno} imports {alias.name} from {'.' * node.level}{node.module or ''}"
        for name, tree in trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "popsched")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


def joined_names(tree) -> list[str]:
    """Run-directory file names that appear as the right operand of a path join."""
    return [
        node.right.value
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
        and isinstance(node.right, ast.Constant) and node.right.value in RUN_FILES
    ]


def test_only_rundir_joins_run_directory_file_names():
    joined = {name: joined_names(tree) for name, tree in trees()}
    assert sorted(joined.pop("rundir.py")) == sorted(RUN_FILES)
    assert {name: names for name, names in joined.items() if names} == {}
