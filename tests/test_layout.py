"""Module boundaries of src/popsched, read from each module's syntax tree."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import popsched

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "popsched"
PUBLIC_API = {
    "run_experiment", "get_preset", "replay_run", "iqm", "ExperimentConfig",  # README example
    "iqr_bounds", "TwoBasinTrainable", "SeedLotteryTrainable",  # scripts/calibrate.py
    "ConfigError", "LineageError",  # what the functions above raise
}
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


def package_names_used(tree) -> set[str]:
    """Names taken from the top-level package: `from popsched import X` and `popsched.X`."""
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "popsched"
        for alias in node.names
    }
    attributes = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "popsched"
    }
    submodules = {path.stem for path in SRC.glob("*.py")}
    return {name for name in imported | attributes if name not in submodules and not name.startswith("_")}


def test_the_package_exports_the_library_api():
    assert set(popsched.__all__) == PUBLIC_API
    assert len(popsched.__all__) == len(PUBLIC_API)
    assert all(hasattr(popsched, name) for name in popsched.__all__)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    assert [name for name in sorted(PUBLIC_API) if not re.search(rf"\b{name}\b", library)] == []


def test_scripts_and_the_benchmark_take_only_exported_names_from_the_package():
    paths = sorted(ROOT.glob("scripts/*.py")) + sorted(ROOT.glob("perfbench/*.py"))
    assert paths
    used = {
        name: path.relative_to(ROOT).as_posix()
        for path in paths
        for name in package_names_used(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert {"run_experiment", "get_preset", "iqm"} <= set(used)
    assert {name: where for name, where in used.items() if name not in popsched.__all__} == {}


# The popsched.runner attributes perfbench/tracing.py wraps to time the persist
# workload's layers (events, metrics reads, elite archive, backtracking, rounds).
TRACED_RUNNER_NAMES = {
    "write_events", "read_events", "read_metrics", "update_elites", "backtrack",
    "mfpbt_round", "build_trainable",
}


def test_the_runner_looks_up_the_traced_names_at_call_time():
    """Each name is imported into runner and read by name inside a function, so a
    wrapper set on the module attribute sees every call."""
    tree = dict(trees())["runner.py"]
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    read_in_functions = {
        node.id
        for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert TRACED_RUNNER_NAMES - imported == set()
    assert TRACED_RUNNER_NAMES - read_in_functions == set()
