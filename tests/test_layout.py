"""Module boundaries of src/popsched, read from each module's syntax tree."""

from __future__ import annotations

import ast
import importlib
import importlib.util
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


def test_only_config_parses_a_config_dict():
    """config.read_config is the one reader of config JSON, so no other module calls from_json_dict."""
    calls = [
        f"{name}:{node.lineno}"
        for name, tree in trees() if name != "config.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "from_json_dict"
    ]
    assert calls == []


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


def test_the_readme_library_example_runs(tmp_path, monkeypatch):
    """The README's Library block, run as written in an empty directory; a stale name or keyword fails here."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", library, re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], "README.md (Library)", "exec"), {})
    assert (tmp_path / "runs" / "demo" / "metrics.csv").is_file()


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


def test_every_name_the_scripts_and_the_benchmark_import_from_the_package_resolves():
    """A name deleted or moved in src would stop perfbench/run.py with an ImportError."""
    paths = sorted(ROOT.glob("scripts/*.py")) + sorted(ROOT.glob("perfbench/*.py"))
    imports = [
        (path.relative_to(ROOT).as_posix(), node.module, alias.name)
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level == 0
        and (node.module or "").split(".")[0] == "popsched"
        for alias in node.names
    ]
    assert ("perfbench/workloads.py", "popsched.lineage", "validate_event_log") in imports

    def resolves(module: str, name: str) -> bool:
        mod = importlib.import_module(module)
        return hasattr(mod, name) or (
            hasattr(mod, "__path__") and importlib.util.find_spec(f"{module}.{name}") is not None
        )

    assert [imp for imp in imports if not resolves(*imp[1:])] == []


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
