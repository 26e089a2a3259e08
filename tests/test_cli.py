"""Presets and the command line surface."""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys

import pytest

from popsched.cli import main
from popsched.config import ExperimentConfig
from popsched.presets import PRESETS, get_preset, preset_names


# ---------------------------------------------------------------- presets

def test_preset_names_sorted_and_complete():
    names = preset_names()
    assert names == sorted(names)
    assert len(names) == len(PRESETS)
    for expected in [
        "twobasin-mfpbt", "twobasin-mfpbt-sym", "twobasin-rs",
        "twobasin-pbt-delta1", "twobasin-pbt-delta16",
        "mfpbt-default", "mfpbt-symmetric", "mfpbt-geometric",
        "pbt-delta1", "pbt-delta50", "rs-default", "pbt-bt-default",
        "quadratic-mfpbt", "seedlottery-mfpbt-var", "seedlottery-rs",
    ]:
        assert expected in names


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_every_preset_validates_and_round_trips(name):
    cfg = get_preset(name)
    cfg.validate()
    assert ExperimentConfig.from_json_dict(cfg.to_json_dict()) == cfg


def test_unknown_preset_raises():
    with pytest.raises(KeyError, match="unknown preset 'nope'"):
        get_preset("nope")


def test_benchmark_preset_shapes():
    bench = get_preset("twobasin-mfpbt")
    assert bench.num_agents == 16
    assert bench.deltas == (1, 4, 8, 16)
    assert bench.trainable["params"]["start_x"] == -2.0
    assert bench.num_rounds == 400

    single = get_preset("twobasin-pbt-delta4")
    assert single.algorithm == "pbt"
    assert single.deltas == (4,)
    assert single.num_subpops == 1

    var = get_preset("seedlottery-mfpbt-var")
    assert var.variance_exploitation
    assert var.trainable["kind"] == "seed_lottery"


# ------------------------------------------------------------- cli: basics

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_presets_subcommand_lists_names(capsys):
    code, out, err = run_cli(capsys, "presets")
    assert code == 0
    assert err == ""
    assert out.splitlines() == preset_names()


def test_presets_show_prints_config_json(capsys):
    code, out, _ = run_cli(capsys, "presets", "--show", "rs-default")
    assert code == 0
    data = json.loads(out)
    assert data["algorithm"] == "rs"
    assert ExperimentConfig.from_json_dict(data) == get_preset("rs-default")


def test_presets_show_unknown_exits_2(capsys):
    code, out, err = run_cli(capsys, "presets", "--show", "nope")
    assert code == 2
    envelope = json.loads(err)
    assert envelope["error"] == "KeyError"
    assert "unknown preset" in envelope["message"]


def test_validate_preset(capsys):
    code, out, _ = run_cli(capsys, "validate", "--preset", "twobasin-mfpbt")
    assert code == 0
    assert json.loads(out)["deltas"] == [1, 4, 8, 16]


def test_validate_config_file(tmp_path, capsys):
    cfg = get_preset("twobasin-rs")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_json_dict()))
    code, out, _ = run_cli(capsys, "validate", "--config", str(path))
    assert code == 0
    assert json.loads(out)["algorithm"] == "rs"


def test_validate_bad_config_exits_2(tmp_path, capsys):
    cfg = get_preset("twobasin-rs").to_json_dict()
    cfg["num_agents"] = 3
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "validate", "--config", str(path))
    assert code == 2
    envelope = json.loads(err)
    assert envelope["error"] == "ConfigError"
    assert envelope["message"].startswith("num_agents:")


def test_missing_config_file_exits_1(capsys):
    code, _, err = run_cli(capsys, "validate", "--config", "/no/such/file.json")
    assert code == 1
    assert json.loads(err)["error"] == "FileNotFoundError"


# ---------------------------------------------------------------- cli: run

def tiny_config_file(tmp_path, name="tiny.json", **overrides):
    data = get_preset("twobasin-rs").to_json_dict()
    data.update(num_agents=4, t_ready=5, total_steps=20, seeds=[5])
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def test_run_writes_run_directory(tmp_path, capsys):
    path = tiny_config_file(tmp_path)
    out = tmp_path / "run1"
    code, stdout, _ = run_cli(capsys, "run", "--config", str(path), "--out", str(out))
    assert code == 0
    assert "run complete" in stdout
    assert "final best fitness" in stdout
    for name in ["config.json", "metrics.csv", "events.jsonl", "result.json"]:
        assert (out / name).exists()
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["seeds"] == [5]


def test_run_seed_flag_overrides_config(tmp_path, capsys):
    path = tiny_config_file(tmp_path)
    out = tmp_path / "run2"
    code, stdout, _ = run_cli(
        capsys, "run", "--config", str(path), "--out", str(out), "--seed", "9"
    )
    assert code == 0
    assert "(seed 9)" in stdout
    assert json.loads((out / "config.json").read_text())["seeds"] == [9]


def test_run_without_out_needs_env_root(tmp_path, capsys, monkeypatch):
    path = tiny_config_file(tmp_path)
    monkeypatch.delenv("POPSCHED_OUT_ROOT", raising=False)
    code, _, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 2
    assert "POPSCHED_OUT_ROOT" in json.loads(err)["message"]

    monkeypatch.setenv("POPSCHED_OUT_ROOT", str(tmp_path / "root"))
    code, stdout, _ = run_cli(capsys, "run", "--config", str(path))
    assert code == 0
    assert (tmp_path / "root" / "tiny-seed5" / "metrics.csv").exists()


def test_run_without_out_uses_the_config_out_dir(tmp_path, capsys, monkeypatch):
    out = tmp_path / "from-config"
    path = tiny_config_file(tmp_path, out_dir=str(out))
    monkeypatch.setenv("POPSCHED_OUT_ROOT", str(tmp_path / "root"))
    code, stdout, _ = run_cli(capsys, "run", "--config", str(path))
    assert code == 0
    assert f"run complete: {out}" in stdout
    assert (out / "metrics.csv").exists()
    assert not (tmp_path / "root").exists()

    flag = tmp_path / "from-flag"
    code, _, _ = run_cli(capsys, "run", "--config", str(path), "--out", str(flag))
    assert code == 0
    assert (flag / "metrics.csv").exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_run_rejects_workers_below_one(tmp_path, capsys, workers):
    path = tiny_config_file(tmp_path)
    out = tmp_path / "run"
    code, _, err = run_cli(
        capsys, "run", "--config", str(path), "--out", str(out), "--workers", workers
    )
    assert code == 2
    envelope = json.loads(err)
    assert envelope["error"] == "ConfigError"
    assert envelope["message"].startswith("workers:")
    assert not out.exists()


def test_run_writes_same_bytes_for_any_worker_count(tmp_path, capsys):
    path = tiny_config_file(tmp_path, checkpoint_every=2)
    outs = {}
    for workers in ("1", "2"):
        out = tmp_path / f"workers{workers}"
        code, _, _ = run_cli(
            capsys, "run", "--config", str(path), "--out", str(out), "--workers", workers
        )
        assert code == 0
        outs[workers] = {
            p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "result.json"
        }
    assert "checkpoints/round_000004.json" in outs["1"]
    assert outs["2"] == outs["1"]


def test_run_resume_completes_partial_run(tmp_path, capsys):
    path = tiny_config_file(tmp_path, checkpoint_every=1)
    full, part = tmp_path / "full", tmp_path / "part"
    run_cli(capsys, "run", "--config", str(path), "--out", str(full))

    from popsched.runner import run_experiment

    cfg = ExperimentConfig.from_json_dict(json.loads(path.read_text()))
    run_experiment(cfg, seed=5, out_dir=part, stop_after_round=2)
    code, stdout, _ = run_cli(
        capsys, "run", "--config", str(path), "--out", str(part), "--resume"
    )
    assert code == 0
    assert (part / "metrics.csv").read_bytes() == (full / "metrics.csv").read_bytes()


def test_run_resume_with_another_seed_exits_2(tmp_path, capsys):
    path = tiny_config_file(tmp_path, checkpoint_every=1)
    out = tmp_path / "run"
    from popsched.runner import run_experiment

    cfg = ExperimentConfig.from_json_dict(json.loads(path.read_text()))
    run_experiment(cfg, seed=5, out_dir=out, stop_after_round=2)
    code, _, err = run_cli(
        capsys, "run", "--config", str(path), "--out", str(out), "--resume", "--seed", "7"
    )
    assert code == 2
    envelope = json.loads(err)
    assert envelope["error"] == "ConfigError"
    assert envelope["message"].startswith("seeds:")


def test_run_resume_with_another_config_exits_2_and_touches_nothing(tmp_path, capsys):
    path = tiny_config_file(tmp_path, algorithm="pbt", checkpoint_every=1)
    other = tiny_config_file(tmp_path, "other.json", algorithm="pbt", checkpoint_every=1, deltas=[4])
    out = tmp_path / "run"
    from popsched.runner import run_experiment

    cfg = ExperimentConfig.from_json_dict(json.loads(path.read_text()))
    run_experiment(cfg, seed=5, out_dir=out, stop_after_round=2)
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    code, _, err = run_cli(capsys, "run", "--config", str(other), "--out", str(out), "--resume")
    assert code == 2
    envelope = json.loads(err)
    assert envelope["error"] == "ConfigError"
    assert envelope["message"].startswith("deltas:")
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("kind,named,read", [("two_basin", "lr", "sigma"), ("quadratic_lr", "sigma", "lr")])
def test_a_search_space_without_a_hyperparameter_the_trainable_reads_exits_2(
    tmp_path, capsys, command, kind, named, read
):
    path = tiny_config_file(tmp_path, trainable={"kind": kind, "params": {}},
                            search_space=[{"name": named, "low": 0.1, "high": 1.0, "scale": "log-uniform"}])
    out = tmp_path / "run"
    argv = [command, "--config", str(path)] + (["--out", str(out)] if command == "run" else [])
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert json.loads(err) == {"error": "ConfigError",
                               "message": f"search_space: names no {read!r}, which the {kind} trainable reads"}
    assert not out.exists()


def test_refused_resume_creates_no_out_directory(tmp_path, capsys):
    out = tmp_path / "X" / "deep"
    code, _, err = run_cli(capsys, "run", "--preset", "twobasin-rs", "--out", str(out), "--resume")
    assert code == 2
    assert json.loads(err)["error"] == "ConfigError"
    assert not (tmp_path / "X").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize(
    "field,value", [("variance_exploitation", "false"), ("num_agents", 8.9)]
)
def test_mistyped_config_value_exits_2(tmp_path, capsys, command, field, value):
    path = tiny_config_file(tmp_path, **{field: value})
    out = tmp_path / "run"
    argv = [command, "--config", str(path)] + (["--out", str(out)] if command == "run" else [])
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    envelope = json.loads(err)
    assert envelope["error"] == "ConfigError"
    assert envelope["message"].startswith(field + ":")
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("low", "1e-3"), ("high", True)])
def test_mistyped_search_space_bound_exits_2(tmp_path, capsys, key, value):
    data = get_preset("twobasin-rs").to_json_dict()
    data["search_space"][0][key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "validate", "--config", str(path))
    assert code == 2
    envelope = json.loads(err)
    assert envelope["error"] == "ConfigError"
    assert envelope["message"].startswith(f"search_space[0].{key}:")


@pytest.mark.parametrize("value", [True, 1.0], ids=["true", "float"])
def test_version_that_is_not_the_int_1_exits_2(tmp_path, capsys, value):
    data = get_preset("twobasin-rs").to_json_dict()
    data["version"] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "validate", "--config", str(path))
    assert code == 2
    envelope = json.loads(err)
    assert envelope["error"] == "ConfigError"
    assert envelope["message"].startswith("version:")


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "two_basin", "paramz": {"start_x": 5.0}},
        [["kind", "two_basin"], ["params", {"start_x": 5.0}]],
        {"kind": "two_basin", "params": [["start_x", 5.0]]},
        {"kind": "two_basin", "params": {"start_x": "5"}},
        {"kind": "two_basin", "params": {"start_x": True}},
        {"kind": "quadratic_lr", "params": {"curvature": [1.0, "10"]}},
        "ab",
        {"kind": "cnn", "params": {}},
        {"kind": "two_basin", "params": {"nope": 1.0}},
        {"kind": "two_basin", "params": {"forget_prob": 2.0}},
    ],
    ids=["mistyped-key", "pairs", "pairs-params", "string-param", "bool-param",
         "string-in-list", "string", "unknown-kind", "unknown-param", "forget-prob"],
)
def test_bad_trainable_spec_exits_2(tmp_path, capsys, spec):
    path = tiny_config_file(tmp_path, trainable=spec)
    code, _, err = run_cli(capsys, "validate", "--config", str(path))
    assert code == 2
    envelope = json.loads(err)
    assert envelope["error"] == "ConfigError"
    assert envelope["message"].startswith("trainable")


# ------------------------------------------------------------- cli: report

def test_report_aggregates_runs(tmp_path, capsys):
    rs_cfg = tiny_config_file(tmp_path)
    pbt_cfg = tiny_config_file(tmp_path, name="pbt.json", algorithm="pbt")
    dirs = []
    for name, cfg, seed in [
        ("a", rs_cfg, 1), ("b", rs_cfg, 2), ("c", pbt_cfg, 1), ("d", pbt_cfg, 2),
    ]:
        out = tmp_path / name
        run_cli(capsys, "run", "--config", str(cfg), "--out", str(out),
                "--seed", str(seed))
        dirs.append(str(out))

    report_dir = tmp_path / "report"
    code, stdout, _ = run_cli(capsys, "report", *dirs, "--out", str(report_dir))
    assert code == 0
    assert "algorithm" in stdout

    report_lines = (report_dir / "report.csv").read_text().splitlines()
    assert report_lines[0] == "algorithm,num_runs,iqm,iqr_low,iqr_high,within_best_iqr"
    names = {line.split(",")[0] for line in report_lines[1:]}
    assert names == {"rs", "pbt"}
    assert all(line.split(",")[1] == "2" for line in report_lines[1:])

    curve_lines = (report_dir / "curves.csv").read_text().splitlines()
    assert curve_lines[0] == "algorithm,round,iqm,iqr_low,iqr_high"
    assert len(curve_lines) == 1 + 2 * 4  # two labels, four rounds each


@pytest.mark.parametrize("spelling", ["same", "dot-slash", "trailing-slash"])
def test_report_refuses_a_run_directory_named_twice(tmp_path, capsys, monkeypatch, spelling):
    cfg = tiny_config_file(tmp_path)
    for name in ("r0", "r1"):
        run_cli(capsys, "run", "--config", str(cfg), "--out", str(tmp_path / name))
    monkeypatch.chdir(tmp_path)
    again = {"same": "r0", "dot-slash": "./r0", "trailing-slash": str(tmp_path / "r0") + "/"}
    code, _, err = run_cli(capsys, "report", "r0", again[spelling], "r1", "--out", "report")
    assert code == 2
    envelope = json.loads(err)
    assert envelope["error"] == "ConfigError"
    assert envelope["message"].startswith("run_dirs: ")
    assert not (tmp_path / "report").exists()


# ------------------------------------------------------------ cli: lineage

def test_lineage_writes_schedule_and_replays(tmp_path, capsys):
    path = tiny_config_file(tmp_path, algorithm="pbt")
    out = tmp_path / "run"
    run_cli(capsys, "run", "--config", str(path), "--out", str(out))

    code, stdout, _ = run_cli(capsys, "lineage", str(out), "--replay")
    assert code == 0
    assert "replay matches the log bit for bit" in stdout
    schedule = (out / "schedule.csv").read_text().splitlines()
    assert schedule[0] == "start_round,end_round,agent_id,subpop_id,trained,kind,sigma"
    assert schedule[1].startswith("0,")

    other = tmp_path / "schedule-agent2.csv"
    code, stdout, _ = run_cli(
        capsys, "lineage", str(out), "--agent", "2", "--round", "3",
        "--out", str(other),
    )
    assert code == 0
    assert "agent 2 at round 3" in stdout
    assert other.exists()


def test_lineage_bad_agent_exits_1(tmp_path, capsys):
    path = tiny_config_file(tmp_path)
    out = tmp_path / "run"
    run_cli(capsys, "run", "--config", str(path), "--out", str(out))
    code, _, err = run_cli(capsys, "lineage", str(out), "--agent", "99")
    assert code == 1
    assert json.loads(err)["error"] == "LineageError"


@pytest.mark.parametrize(
    "flag,value", [("--agent", "abc"), ("--agent", "-1"), ("--agent", "1.5"),
                   ("--round", "0"), ("--round", "-2")],
)
def test_lineage_flag_out_of_its_domain_exits_2_naming_it(tmp_path, capsys, flag, value):
    path = tiny_config_file(tmp_path)
    out = tmp_path / "run"
    run_cli(capsys, "run", "--config", str(path), "--out", str(out))
    code, _, err = run_cli(capsys, "lineage", str(out), flag, value)
    assert code == 2
    envelope = json.loads(err)
    assert envelope["error"] == "ConfigError"
    assert envelope["message"].startswith(f"{flag[2:]}: ")
    assert not (out / "schedule.csv").exists()


def _row_index(round_no, agent_id):
    """Index in an 8-agent run's metrics.csv lines (header at 0) of the row the writer puts there."""
    return 1 + (round_no - 1) * 8 + agent_id


def _swap(lines, i, j):
    lines[i], lines[j] = lines[j], lines[i]
    return lines


def _set_cell(lines, i, column, value):
    cells = lines[i].split(",")
    cells[column] = value
    lines[i] = ",".join(cells)
    return lines


def _set_sigma(round_no, agent_id, cell):
    """A fault that writes cell as the sigma of round_no, agent_id; it returns the lines and that row's line."""
    index = _row_index(round_no, agent_id)
    return lambda lines: (_set_cell(lines, index, 4, cell + "\n"), index + 1)


# Faults that leave a sigma cell no run writes (a hyperparameter is a positive finite real), and that cell.
SIGMA_CELLS = {"negative-sigma": "-0.5", "zero-sigma": "0.0", "negative-zero-sigma": "-0.0", "inf-sigma": "inf",
               "nan-sigma": "nan"}
# Each fault breaks the lines of an 8-agent, 64-round metrics.csv and gives the
# first line (1-based) that is not what the writer puts there.
MALFORMED_METRICS = {
    "short-row": lambda lines: (lines + ["401,3\n"], len(lines) + 1),
    "missing-row": lambda lines: (lines[:_row_index(63, 6)] + lines[_row_index(63, 7):],
                                  _row_index(63, 6) + 1),
    "row-twice": lambda lines: (lines[:_row_index(63, 7)] + lines[_row_index(63, 6):],
                                _row_index(63, 7) + 1),
    "rows-swapped": lambda lines: (_swap(lines, _row_index(63, 6), _row_index(63, 7)),
                                   _row_index(63, 6) + 1),
    "partial-last-round": lambda lines: (lines[:_row_index(64, 5)], _row_index(64, 5) + 1),
    "blank-line-and-missing-row": lambda lines: (
        lines[:1] + ["\n"] + lines[1:_row_index(63, 6)] + lines[_row_index(63, 7):], _row_index(63, 6) + 2),
    "other-subpop": lambda lines: (_set_cell(lines, _row_index(63, 6), 2, "1"), _row_index(63, 6) + 1),
    "nan-fitness": lambda lines: (_set_cell(lines, _row_index(63, 6), 3, "nan"), _row_index(63, 6) + 1),
    "round-past-the-config": lambda lines: (
        lines + [line.replace("64,", "65,", 1) for line in lines[_row_index(64, 0):]], len(lines) + 1),
    "last-line-cut-short": lambda lines: (lines[:-1] + [lines[-1][:lines[-1].rindex(",") + 2]], len(lines)),
    "last-row-three-cells": lambda lines: (lines[:-1] + [",".join(lines[-1].split(",")[:3]) + "\n"],
                                           len(lines)),
    **{fault: _set_sigma(63, 6, cell) for fault, cell in SIGMA_CELLS.items()},
}
# Faults that leave a row with the wrong number of cells, and that number.
CELLS_FOUND = {"short-row": 2, "last-row-three-cells": 3}


@pytest.mark.parametrize(
    "command, fault",
    [pytest.param(command, fault, id=command if fault == "short-row" else f"{command}-{fault}")
     for fault in MALFORMED_METRICS for command in ("lineage", "report")],
)
def test_malformed_metrics_row_exits_1_naming_file_and_line(tmp_path, capsys, command, fault):
    path = tiny_config_file(tmp_path, algorithm="pbt", num_agents=8, total_steps=5 * 64)
    out = tmp_path / "run"
    run_cli(capsys, "run", "--config", str(path), "--out", str(out))
    metrics = out / "metrics.csv"
    lines, line_no = MALFORMED_METRICS[fault](metrics.read_text().splitlines(keepends=True))
    metrics.write_text("".join(lines))
    argv = [command, str(out)] + (["--out", str(tmp_path / "report")] if command == "report" else [])
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    envelope = json.loads(err)
    assert envelope["error"] == "ValueError"
    assert envelope["message"].startswith(f"{metrics}: line {line_no}: ")
    if fault in CELLS_FOUND:
        width = len(lines[0].split(","))
        assert envelope["message"] == (
            f"{metrics}: line {line_no}: expected {width} cells; found {CELLS_FOUND[fault]}")
    if fault in SIGMA_CELLS:
        fitness = lines[line_no - 1].split(",")[3]
        assert envelope["message"] == (
            f"{metrics}: line {line_no}: expected round 63, agent 6, subpop_id 0, a finite fitness and positive "
            f"finite hyperparameters; found round 63, agent 6, subpop_id 0, fitness {fitness}, "
            f"sigma {SIGMA_CELLS[fault]}")



@pytest.mark.parametrize("command", ["lineage", "report"])
@pytest.mark.parametrize("row", ["1_0,3,0,1.0,0.5", f"{2**63},3,0,1.0,0.5", "#4,3,0,1.0,0.5"])
def test_metrics_cells_loadtxt_refuses_exit_1_naming_file_and_line(tmp_path, capsys, command, row):
    path = tiny_config_file(tmp_path, algorithm="pbt")
    out = tmp_path / "run"
    run_cli(capsys, "run", "--config", str(path), "--out", str(out))
    metrics = out / "metrics.csv"
    with open(metrics, "a", encoding="utf-8") as fh:
        fh.write(row + "\n")
    argv = [command, str(out)] + (["--out", str(tmp_path / "report")] if command == "report" else [])
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    envelope = json.loads(err)
    assert envelope["error"] == "ValueError"
    assert envelope["message"].startswith(f"{metrics}: line 18: ")


@pytest.mark.parametrize("command", ["lineage", "report"])
def test_header_only_metrics_exits_1(tmp_path, capsys, command):
    path = tiny_config_file(tmp_path, algorithm="pbt")
    out = tmp_path / "run"
    run_cli(capsys, "run", "--config", str(path), "--out", str(out))
    metrics = out / "metrics.csv"
    metrics.write_text(metrics.read_text().splitlines(keepends=True)[0])
    argv = [command, str(out)] + (["--out", str(tmp_path / "report")] if command == "report" else [])
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    envelope = json.loads(err)
    assert envelope["error"] == ("LineageError" if command == "lineage" else "ValueError")
    assert "empty" in envelope["message"] or "no metrics rows" in envelope["message"]

def _break_event_line(run_dir, line_no, broken):
    """Replace line line_no of run_dir's events.jsonl by broken(line)."""
    events = run_dir / "events.jsonl"
    lines = events.read_text().splitlines(keepends=True)
    lines[line_no - 1] = broken(lines[line_no - 1].rstrip("\n")) + "\n"
    events.write_text("".join(lines))
    return events


MALFORMED_EVENT_LINES = {
    "missing key": lambda line: line.replace('"target_agent_id"', '"target"'),
    "bad json": lambda line: line[:14],
    "string id": lambda line: re.sub(r'"target_agent_id":(\d+)', r'"target_agent_id":"\1"', line),
}


def test_lineage_validates_the_whole_event_log_whatever_the_round(tmp_path, capsys):
    path = tiny_config_file(tmp_path, algorithm="pbt")
    out = tmp_path / "run"
    run_cli(capsys, "run", "--config", str(path), "--out", str(out))
    last = len((out / "events.jsonl").read_text().splitlines())
    _break_event_line(out, last, lambda line: line.replace('"target_agent_id":', '"target_agent_id":9', 1))
    code, _, err = run_cli(capsys, "lineage", str(out), "--round", "1")
    assert code == 1
    envelope = json.loads(err)
    assert envelope["error"] == "LineageError"
    assert "out of range" in envelope["message"]

@pytest.mark.parametrize("fault", sorted(MALFORMED_EVENT_LINES))
def test_malformed_event_line_exits_1_naming_file_and_line(tmp_path, capsys, fault):
    path = tiny_config_file(tmp_path, algorithm="pbt")
    out = tmp_path / "run"
    run_cli(capsys, "run", "--config", str(path), "--out", str(out))
    events = _break_event_line(out, 3, MALFORMED_EVENT_LINES[fault])
    code, _, err = run_cli(capsys, "lineage", str(out), "--replay")
    assert code == 1
    envelope = json.loads(err)
    assert envelope["error"] == "ValueError"
    assert envelope["message"].startswith(f"{events}: line 3: ")


def test_event_id_written_as_a_string_exits_1_naming_file_and_line(tmp_path, capsys):
    path = tiny_config_file(tmp_path, algorithm="pbt")
    out = tmp_path / "run"
    run_cli(capsys, "run", "--config", str(path), "--out", str(out))
    events = _break_event_line(
        out, 4, lambda line: line.replace('"source_agent_id":1,', '"source_agent_id":"1",')
    )
    assert '"source_agent_id":"1"' in events.read_text().splitlines()[3]
    code, _, err = run_cli(capsys, "lineage", str(out))
    assert code == 1
    envelope = json.loads(err)
    assert envelope["error"] == "ValueError"
    assert envelope["message"].startswith(f"{events}: line 4: ")


HYPERPARAM_FAULTS = {
    "extra value": lambda values: "[0.5," + values + "]",
    "negative value": lambda values: "[-0.5]",
}


@pytest.mark.parametrize("command", ["lineage", "lineage --replay", "run --resume"])
@pytest.mark.parametrize("fault", sorted(HYPERPARAM_FAULTS))
def test_clone_hyperparams_the_run_cannot_hold_exit_1_naming_file_and_line(
    tmp_path, capsys, fault, command
):
    """The run has one hyperparameter, sigma; a clone's vector must hold one positive value."""
    path = tiny_config_file(tmp_path, algorithm="pbt", checkpoint_every=1)
    out = tmp_path / "run"
    from popsched.runner import run_experiment

    run_experiment(ExperimentConfig.from_json_dict(json.loads(path.read_text())), seed=5,
                   out_dir=out, stop_after_round=3)
    events = out / "events.jsonl"
    line_no, line = next((i, line) for i, line in enumerate(events.read_text().splitlines(), 1)
                         if '"kind":"perturbed_clone"' in line)
    _break_event_line(out, line_no, lambda line: re.sub(
        r'"hyperparams_after":\[([^\]]*)\]',
        lambda m: '"hyperparams_after":' + HYPERPARAM_FAULTS[fault](m.group(1)), line))
    before = {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    argv = command.split() + ([str(out)] if command.startswith("lineage") else
                              ["--config", str(path), "--out", str(out)])
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    envelope = json.loads(err)
    assert envelope["error"] == "LineageError"
    assert envelope["message"].startswith(
        f"{events}: line {line_no}: event log broken at round {json.loads(line)['round']}: "
        "hyperparams_after "
    )
    assert {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()} == before


@pytest.mark.parametrize("fault", sorted(MALFORMED_EVENT_LINES))
def test_resume_over_a_malformed_event_line_exits_1_naming_file_and_line(
    tmp_path, capsys, fault
):
    path = tiny_config_file(tmp_path, algorithm="pbt", checkpoint_every=1)
    out = tmp_path / "run"
    from popsched.runner import run_experiment

    cfg = ExperimentConfig.from_json_dict(json.loads(path.read_text()))
    run_experiment(cfg, seed=5, out_dir=out, stop_after_round=3)
    events = _break_event_line(out, 3, MALFORMED_EVENT_LINES[fault])
    code, _, err = run_cli(capsys, "run", "--config", str(path), "--out", str(out), "--resume")
    assert code == 1
    envelope = json.loads(err)
    assert envelope["error"] == "ValueError"
    assert envelope["message"].startswith(f"{events}: line 3: ")


def test_resume_refuses_an_event_log_that_lineage_refuses_and_touches_nothing(
    tmp_path, capsys
):
    """A well-formed round-1 survive line that targets agent 999 of 32."""
    data = get_preset("pbt-bt-default").to_json_dict()
    data.update(total_steps=500, checkpoint_every=1)
    path = tmp_path / "pbt-bt.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "run"
    from popsched.runner import run_experiment

    run_experiment(ExperimentConfig.from_json_dict(data), seed=0, out_dir=out, stop_after_round=7)
    events = out / "events.jsonl"
    line_no = next(i for i, line in enumerate(events.read_text().splitlines(), 1)
                   if '"kind":"survive"' in line and '"round":1,' in line)
    _break_event_line(out, line_no, lambda line: re.sub(
        r'"target_agent_id":\d+', '"target_agent_id":999', line))
    before = {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    message = f"{events}: line {line_no}: event log broken at round 1: agent id 999 out of range"

    code, _, err = run_cli(capsys, "lineage", str(out))
    assert code == 1
    assert json.loads(err) == {"error": "LineageError", "message": message}
    code, _, err = run_cli(capsys, "run", "--config", str(path), "--out", str(out), "--resume")
    assert code == 1
    assert json.loads(err) == {"error": "LineageError", "message": message}
    assert {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()} == before


def test_resume_over_metrics_with_a_kept_row_missing_exits_1_and_touches_nothing(tmp_path, capsys):
    """Round 3, agent 2 deleted below a round-5 checkpoint: refused before any round is trained."""
    data = get_preset("pbt-bt-default").to_json_dict()
    data.update(total_steps=500, checkpoint_every=5)
    path = tmp_path / "pbt-bt.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "run"
    from popsched.runner import run_experiment

    run_experiment(ExperimentConfig.from_json_dict(data), seed=0, out_dir=out, stop_after_round=7)
    metrics = out / "metrics.csv"
    lines = metrics.read_text().splitlines(keepends=True)
    index = 1 + 2 * 32 + 2  # the header, rounds 1 and 2, agents 0 and 1 of round 3
    assert lines[index].startswith("3,2,0,")
    metrics.write_text("".join(lines[:index] + lines[index + 1:]))
    before = {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    fitness, sigma = map(float, lines[index + 1].split(",")[3:])

    code, _, err = run_cli(capsys, "run", "--config", str(path), "--out", str(out), "--resume")
    assert code == 1
    assert json.loads(err) == {"error": "ValueError", "message": (
        f"{metrics}: line {index + 1}: expected round 3, agent 2, subpop_id 0, a finite fitness and positive "
        f"finite hyperparameters; found round 3, agent 3, subpop_id 0, fitness {fitness!r}, sigma {sigma!r}")}
    assert {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()} == before


@pytest.mark.parametrize("command", ["lineage --replay", "report", "run --resume"])
def test_a_metrics_header_of_another_width_exits_1_and_touches_nothing(tmp_path, capsys, command):
    """`,extra` on the header and `,0.5` on every row; a resume's run stops at round 3, after a round-2 checkpoint."""
    path = tiny_config_file(tmp_path, algorithm="pbt", checkpoint_every=2)
    out = tmp_path / "run"
    from popsched.runner import run_experiment

    run_experiment(ExperimentConfig.from_json_dict(json.loads(path.read_text())), seed=5, out_dir=out,
                   stop_after_round=3 if command == "run --resume" else None)
    metrics = out / "metrics.csv"
    header, *rows = metrics.read_text().splitlines()
    metrics.write_text(f"{header},extra\n" + "".join(f"{row},0.5\n" for row in rows))
    before = {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    argv = {"lineage --replay": ["lineage", str(out), "--replay"],
            "report": ["report", str(out), "--out", str(tmp_path / "report")],
            "run --resume": ["run", "--config", str(path), "--out", str(out), "--resume"]}[command]
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert json.loads(err) == {"error": "ValueError", "message": (
        f"{metrics}: line 1: expected round,agent_id,subpop_id,fitness,sigma; "
        "found round,agent_id,subpop_id,fitness,sigma,extra")}
    assert {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()} == before


def _resume_refused(capsys, path, out):
    """Resume out under the config at path; the refusal's exit code, envelope, and no file touched."""
    before = {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    code, _, err = run_cli(capsys, "run", "--config", str(path), "--out", str(out), "--resume")
    assert {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()} == before
    return code, json.loads(err)


@pytest.mark.parametrize("cell", ["-0.5", "nan"])
def test_resume_over_a_sigma_cell_no_run_writes_exits_1_and_touches_nothing(tmp_path, capsys, cell):
    """Round 1, agent 4's sigma below a round-2 checkpoint: refused before any round is trained."""
    path = tiny_config_file(tmp_path, algorithm="pbt", num_agents=8, total_steps=5 * 8, checkpoint_every=2)
    out = tmp_path / "run"
    from popsched.runner import run_experiment

    run_experiment(ExperimentConfig.from_json_dict(json.loads(path.read_text())), seed=5,
                   out_dir=out, stop_after_round=3)
    metrics = out / "metrics.csv"
    lines, line_no = _set_sigma(1, 4, cell)(metrics.read_text().splitlines(keepends=True))
    metrics.write_text("".join(lines))
    fitness = lines[line_no - 1].split(",")[3]

    code, envelope = _resume_refused(capsys, path, out)
    assert code == 1
    assert envelope == {"error": "ValueError", "message": (
        f"{metrics}: line {line_no}: expected round 1, agent 4, subpop_id 0, a finite fitness and positive finite "
        f"hyperparameters; found round 1, agent 4, subpop_id 0, fitness {fitness}, sigma {cell}")}


def test_resume_from_a_checkpoint_of_another_population_size_exits_2_and_touches_nothing(tmp_path, capsys):
    """A 16-agent run checkpointed at round 10; a 32-agent run of the same config reuses the directory."""
    data = get_preset("twobasin-pbt-delta1").to_json_dict()
    data.update(total_steps=40 * data["t_ready"], checkpoint_every=5)
    out = tmp_path / "run"
    from popsched.runner import run_experiment

    run_experiment(ExperimentConfig.from_json_dict(data), seed=0, out_dir=out, stop_after_round=10)
    data.update(num_agents=32, checkpoint_every=20)
    path = tmp_path / "n32.json"
    path.write_text(json.dumps(data))
    run_experiment(ExperimentConfig.from_json_dict(data), seed=0, out_dir=out, stop_after_round=15)
    assert sorted(p.name for p in (out / "checkpoints").iterdir()) == ["round_000005.json", "round_000010.json"]

    code, envelope = _resume_refused(capsys, path, out)
    assert code == 2
    assert envelope == {"error": "ConfigError", "message": (
        f"num_agents: {out / 'checkpoints' / 'round_000010.json'} holds 16 agents, but this run has 32")}


PBT_BT = {"algorithm": "pbt_bt", "elite_capacity": 2, "backtrack_period": 1}


def _agent_0(**edit):
    return lambda s: {**s, "agents": [{**s["agents"][0], **edit}, *s["agents"][1:]]}


def _elite_0(**edit):
    return lambda s: {**s, "archive": {**s["archive"], "entries": [
        {**s["archive"]["entries"][0], **edit}, *s["archive"]["entries"][1:]]}}


def _elite_payloads(**edit):
    return lambda s: {**s, "archive": {**s["archive"], "entries": [
        {**e, "payload": {**e["payload"], **edit}} for e in s["archive"]["entries"]]}}


CHECKPOINT_FAULTS = {  # (config overrides, edit of the checkpoint, message)
    "swapped-agents": ({}, lambda s: {**s, "agents": [s["agents"][1], s["agents"][0], *s["agents"][2:]]},
                       "agent_id: {} holds agent 1 where agent 0 belongs"),
    "two-wide-vectors": ({}, lambda s: {**s, "agents": [{**a, "hyperparams": a["hyperparams"] * 2}
                                                        for a in s["agents"]]},
                         "hyperparams: {} holds 2 values for agent 0, but search_space has 1"),
    "two-wide-elites": ({"algorithm": "pbt_bt", "elite_capacity": 2, "backtrack_period": 1},
                        lambda s: {**s, "archive": {**s["archive"], "entries": [
                            {**e, "hyperparams": e["hyperparams"] * 2} for e in s["archive"]["entries"]]}},
                        "hyperparams: {} holds 2 values for elite 0, but search_space has 1"),
    "vector-a-number": ({}, _agent_0(hyperparams=1.5), "hyperparams: {} for agent 0 must be a list, got 1.5"),
    "vector-negative": ({}, _agent_0(hyperparams=[-1.0]),
                        "hyperparams: {} for agent 0 must be positive reals, got -1.0"),
    "vector-a-string": ({}, _agent_0(hyperparams=["1.5"]),
                        "hyperparams: {} for agent 0 must be positive reals, got '1.5'"),
    "vector-a-bool": ({}, _agent_0(hyperparams=[True]),
                      "hyperparams: {} for agent 0 must be positive reals, got True"),
    "elite-capacity": (PBT_BT, lambda s: {**s, "archive": {**s["archive"], "capacity": 3}},
                       "elite_capacity: {} holds an elite archive of capacity 3, but this run has 2"),
    "elite-of-another-kind": (PBT_BT, _elite_payloads(kind="quadratic_lr"),
                              "payload: {} holds a payload for elite 0 that a two_basin trainable refuses: "
                              "ValueError: payload kind 'quadratic_lr' != 'two_basin'"),
    "elite-without-weights": (PBT_BT, _elite_payloads(weights={}),
                              "payload: {} holds a payload for elite 0 that a two_basin trainable refuses: "
                              "KeyError: 'x'"),
    "elite-payload-a-list": (PBT_BT, lambda s: {**s, "archive": {**s["archive"], "entries": [
                                 {**e, "payload": []} for e in s["archive"]["entries"]]}},
                             "payload: {} holds a payload for elite 0 that a two_basin trainable refuses: "
                             "AttributeError: 'list' object has no attribute 'get'"),
    "agent-payload-a-number": ({}, _agent_0(payload=1),
                               "payload: {} holds a payload for agent 0 that a two_basin trainable refuses: "
                               "AttributeError: 'int' object has no attribute 'get'"),
    "elite-fitness-a-string": (PBT_BT, _elite_0(fitness="1e9"),
                               "fitness: {} for elite 0 must be a finite float, got '1e9'"),
    "elite-round-a-string": (PBT_BT, _elite_0(round="1"), "round: {} for elite 0 must be an integer, got '1'"),
    "elite-of-no-agent": (PBT_BT, _elite_0(agent_id=99), "agent_id: {} for elite 0 must be in 0..3, got 99"),
    "elite-after-the-checkpoint": (PBT_BT, _elite_0(round=3), "round: {} for elite 0 must be in 1..2, got 3"),
    "round-a-string": ({}, lambda s: {**s, "round": "2"}, "round: {} must be an integer, got '2'"),
    "round-of-another-file": ({}, lambda s: {**s, "round": 1},
                              "round: {} holds round 1, but its file is not round_000001.json"),
    "agent-fitness-a-string": ({}, _agent_0(fitness="abc"),
                               "fitness: {} for agent 0 must be a finite float, got 'abc'"),
    "agent-fitness-nan": ({}, _agent_0(fitness=math.nan), "fitness: {} for agent 0 must be a finite float, got nan"),
    "unknown-key": ({}, lambda s: {**s, "extra": 1},
                    "checkpoint: {} must be an object of the keys ['agents', 'archive', 'master_seed', 'round'], "
                    "got ['agents', 'archive', 'extra', 'master_seed', 'round']"),
    "archive-a-list": (PBT_BT, lambda s: {**s, "archive": []}, "archive: {} must be an object or null, got []"),
    "checkpoint-a-list": ({}, lambda s: [], "checkpoint: {} must be an object of the keys "
                          "['agents', 'archive', 'master_seed', 'round'], got list"),
    "evolve-state-a-string": ({}, _agent_0(evolve_state="x"), "evolve_state: {} holds a state for agent 0 that "
                              "numpy's PCG64 refuses: TypeError: state must be a dict"),
}


@pytest.mark.parametrize("fault", sorted(CHECKPOINT_FAULTS))
def test_resume_from_a_checkpoint_the_run_cannot_hold_exits_2_and_touches_nothing(tmp_path, capsys, fault):
    """The round-2 checkpoint of a 4-agent, one-hyperparameter run stopped at round 3, edited."""
    overrides, edit, message = CHECKPOINT_FAULTS[fault]
    path = tiny_config_file(tmp_path, **{"algorithm": "pbt", **overrides}, total_steps=5 * 8, checkpoint_every=2)
    out = tmp_path / "run"
    from popsched.runner import run_experiment

    run_experiment(ExperimentConfig.from_json_dict(json.loads(path.read_text())), seed=5,
                   out_dir=out, stop_after_round=3)
    checkpoint = out / "checkpoints" / "round_000002.json"
    checkpoint.write_text(json.dumps(edit(json.loads(checkpoint.read_text()))))

    code, envelope = _resume_refused(capsys, path, out)
    assert code == 2
    assert envelope == {"error": "ConfigError", "message": message.format(checkpoint)}


def test_resume_from_a_checkpoint_that_is_not_json_exits_2_and_touches_nothing(tmp_path, capsys):
    path = tiny_config_file(tmp_path, algorithm="pbt", total_steps=5 * 8, checkpoint_every=2)
    out = tmp_path / "run"
    from popsched.runner import run_experiment

    run_experiment(ExperimentConfig.from_json_dict(json.loads(path.read_text())), seed=5,
                   out_dir=out, stop_after_round=3)
    checkpoint = out / "checkpoints" / "round_000002.json"
    checkpoint.write_text('{"round": 2"master_seed": 5}')

    code, envelope = _resume_refused(capsys, path, out)
    assert code == 2
    assert envelope == {"error": "ConfigError", "message": (
        f"checkpoint: {checkpoint} is not JSON: Expecting ',' delimiter: line 1 column 12 (char 11)")}

# -------------------------------------------------------------- subprocess

def test_metrics_id_read_through_a_float_exits_1_from_the_command_line(tmp_path, capsys):
    # A fresh interpreter has Python's default warning filters, not the test run's.
    path = tiny_config_file(tmp_path, algorithm="pbt")
    out = tmp_path / "run"
    run_cli(capsys, "run", "--config", str(path), "--out", str(out))
    metrics = out / "metrics.csv"
    with open(metrics, "a", encoding="utf-8") as fh:
        fh.write("1.5,3,0,1.0,0.5\n")
    proc = subprocess.run(
        [sys.executable, "-m", "popsched.cli", "lineage", str(out)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["message"].startswith(f"{metrics}: line 18: ")


def test_module_entry_point_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "popsched.cli", "presets"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == preset_names()

    proc = subprocess.run(
        [sys.executable, "-m", "popsched.cli", "validate", "--preset", "nope"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"] == "KeyError"
