"""Experiment configs, the synchronous runner, and its on-disk artifacts."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popsched import events, rundir, runner
from popsched.config import ExperimentConfig, read_config
from popsched.core import ConfigError, HyperparamSpace, SpaceEntry
from popsched.presets import get_preset, preset_names
from popsched.events import (
    ELITE_RESTORE,
    PERTURBED_CLONE,
    SURVIVE,
    EvolutionEvent,
    event_from_json_line,
)
from popsched.rundir import (
    MetricRow,
    MetricTable,
    RunDir,
    read_metrics,
    read_run,
)
from popsched.runner import run_experiment
from popsched.seeding import agent_trainable_seed
from popsched.trainables import TwoBasinTrainable, build_trainable


def small_config(algorithm="rs", **overrides) -> ExperimentConfig:
    base = dict(
        algorithm=algorithm,
        num_agents=4,
        t_ready=5,
        total_steps=20,
        search_space=HyperparamSpace((SpaceEntry("sigma", 0.05, 5.0),)),
        trainable={"kind": "two_basin", "params": {}},
    )
    base.update(overrides)
    cfg = ExperimentConfig(**base)
    cfg.validate()
    return cfg


# ------------------------------------------------------------- validation

@pytest.mark.parametrize(
    "field,overrides",
    [
        ("algorithm", dict(algorithm="sgd")),
        ("num_agents", dict(num_agents=3)),
        ("num_agents", dict(num_agents=12, num_subpops=5)),
        ("num_agents", dict(num_agents=6)),
        ("deltas", dict(algorithm="mfpbt", num_agents=8, num_subpops=2)),
        ("num_subpops", dict(algorithm="pbt", num_agents=8, num_subpops=2, deltas=(1, 2))),
        ("t_ready", dict(t_ready=0)),
        ("total_steps", dict(total_steps=18)),
        ("total_steps", dict(total_steps=0)),
        ("eval_repeats", dict(eval_repeats=0)),
        ("seeds", dict(seeds=())),
        ("seeds", dict(seeds=(-3,))),
        ("elite_capacity", dict(algorithm="pbt_bt", backtrack_period=5)),
        ("backtrack_period", dict(algorithm="pbt_bt", elite_capacity=4)),
        ("elite_capacity/backtrack_period", dict(elite_capacity=4)),
        ("checkpoint_every", dict(checkpoint_every=-1)),
        ("workers", dict(workers=0)),
        ("deltas", dict(deltas=())),
        ("deltas", dict(algorithm="mfpbt", num_agents=8, num_subpops=2, deltas=(1, 2.5))),
        ("deltas", dict(algorithm="mfpbt", num_agents=8, num_subpops=2, deltas=(1, 0))),
    ],
)
def test_validation_errors_name_the_field(field, overrides):
    with pytest.raises(ConfigError) as exc:
        small_config(**overrides)
    assert str(exc.value).startswith(field + ":")


def test_validation_rejects_non_increasing_deltas():
    with pytest.raises(ConfigError, match="^deltas: must be strictly increasing"):
        small_config(algorithm="mfpbt", num_agents=24, num_subpops=3, deltas=(1, 10, 10))


def test_validation_requires_leading_delta_one_for_mfpbt():
    with pytest.raises(ConfigError, match="start at 1"):
        small_config(algorithm="mfpbt", num_agents=8, num_subpops=2, deltas=(2, 4))


def test_validation_checks_trainable_spec():
    with pytest.raises(ValueError, match="unknown trainable kind"):
        small_config(trainable={"kind": "transformer"})


def test_validation_accepts_reference_shapes():
    small_config(
        algorithm="mfpbt", num_agents=32, num_subpops=4, deltas=(1, 10, 25, 50)
    )
    small_config(
        algorithm="pbt_bt", num_agents=32, elite_capacity=16, backtrack_period=50
    )


# ------------------------------------------------------------ config JSON

def test_config_json_round_trip():
    cfg = small_config(
        algorithm="mfpbt",
        num_agents=16,
        num_subpops=2,
        deltas=(1, 4),
        seeds=(7, 8),
        symmetric_migration=True,
    )
    assert ExperimentConfig.from_json_dict(cfg.to_json_dict()) == cfg


# config.json's keys in the order resume compares them (it names the first that differs).
ECHO_KEYS = [
    "version", "algorithm", "num_agents", "num_subpops", "deltas", "t_ready", "total_steps",
    "eval_repeats", "search_space", "trainable", "variance_exploitation", "symmetric_migration",
    "clamp_hyperparams", "seeds", "elite_capacity", "backtrack_period", "checkpoint_every",
    "workers", "out_dir",
]


@pytest.mark.parametrize("name", preset_names())
def test_config_json_keys_keep_their_order(name):
    assert list(get_preset(name).to_json_dict()) == ECHO_KEYS


def test_config_json_of_only_the_required_keys_takes_every_default():
    data = {
        "version": 1, "algorithm": "pbt", "num_agents": 8, "t_ready": 5, "total_steps": 20,
        "search_space": [{"name": "lr", "low": 0.01, "high": 1.0}],
        "trainable": {"kind": "quadratic_lr", "params": {}},
    }
    assert ExperimentConfig.from_json_dict(data) == ExperimentConfig(
        algorithm="pbt", num_agents=8, t_ready=5, total_steps=20,
        search_space=HyperparamSpace((SpaceEntry("lr", 0.01, 1.0),)),
        trainable={"kind": "quadratic_lr", "params": {}},
    )


def test_config_json_rejects_unknown_keys():
    data = small_config().to_json_dict()
    data["learning_rate"] = 0.1
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_json_dict(data)


def test_config_json_rejects_wrong_version():
    data = small_config().to_json_dict()
    data["version"] = 2
    with pytest.raises(ConfigError, match="version: expected 1"):
        ExperimentConfig.from_json_dict(data)


def test_config_json_rejects_missing_keys():
    data = small_config().to_json_dict()
    del data["total_steps"]
    with pytest.raises(ConfigError, match=r"missing config keys: \['total_steps'\]"):
        ExperimentConfig.from_json_dict(data)


def test_config_json_rejects_unknown_space_keys():
    data = small_config().to_json_dict()
    data["search_space"][0]["prior"] = "normal"
    with pytest.raises(ConfigError, match="search_space: unknown entry keys"):
        ExperimentConfig.from_json_dict(data)


# Integer fields of the config JSON; those in NULLABLE also accept null.
INT_FIELDS = (
    "num_agents", "num_subpops", "t_ready", "total_steps", "eval_repeats",
    "checkpoint_every", "workers", "elite_capacity", "backtrack_period",
)
NULLABLE = ("elite_capacity", "backtrack_period")
BOOL_FIELDS = ("variance_exploitation", "symmetric_migration", "clamp_hyperparams")
INT_LIST_FIELDS = ("deltas", "seeds")


@pytest.mark.parametrize(
    "field,value",
    [
        ("variance_exploitation", "false"),
        ("num_agents", 8.9),
        ("num_agents", 8.0),
        ("num_agents", True),
        ("num_agents", "8"),
        ("t_ready", 5.0),
        ("checkpoint_every", "2"),
        ("workers", 1.5),
        ("eval_repeats", False),
        ("symmetric_migration", 1),
        ("clamp_hyperparams", None),
        ("deltas", [1.0]),
        ("deltas", "1"),
        ("seeds", [0.5]),
        ("seeds", ["3"]),
        ("seeds", 3),
        ("elite_capacity", 4.0),
        ("elite_capacity", True),
        ("backtrack_period", "2"),
    ],
)
def test_config_json_rejects_values_of_the_wrong_type(field, value):
    data = small_config("pbt_bt", elite_capacity=4, backtrack_period=2).to_json_dict()
    data[field] = value
    with pytest.raises(ConfigError, match=f"^{field}:"):
        ExperimentConfig.from_json_dict(data)


@pytest.mark.parametrize(
    "key,value",
    [
        ("low", "1e-3"),
        ("low", True),
        ("high", True),
        ("high", None),
        ("high", [5.0]),
        pytest.param("low", 10**400, id="low-int-beyond-float"),
        ("scale", 1),
        ("name", 5),
    ],
)
def test_config_json_rejects_search_space_values_of_the_wrong_type(key, value):
    data = small_config().to_json_dict()
    data["search_space"][0][key] = value
    with pytest.raises(ConfigError, match=rf"^search_space\[0\]\.{key}:"):
        ExperimentConfig.from_json_dict(data)


@pytest.mark.parametrize("space", ["sigma", {"name": "sigma"}, [["sigma", 0.1, 1.0]], None])
def test_config_json_rejects_a_search_space_that_is_not_a_list_of_objects(space):
    data = small_config().to_json_dict()
    data["search_space"] = space
    with pytest.raises(ConfigError, match="^search_space:"):
        ExperimentConfig.from_json_dict(data)


SIGMA_ENTRY = {"name": "sigma", "low": 0.05, "high": 5.0, "scale": "log-uniform"}


@pytest.mark.parametrize(
    "space,prefix",
    [
        pytest.param([], "search_space: hyperparameter space must contain", id="empty"),
        pytest.param([SIGMA_ENTRY] * 2, "search_space: duplicate hyperparameter names", id="duplicate"),
        pytest.param([SIGMA_ENTRY, dict(SIGMA_ENTRY, name="1x")],
                     "search_space[1]: hyperparameter name '1x' is not an identifier", id="name"),
        pytest.param([dict(SIGMA_ENTRY, low=-1.0)], "search_space[0]: sigma: need 0 < low <= high",
                     id="low"),
        pytest.param([dict(SIGMA_ENTRY, scale="linear")],
                     "search_space[0]: sigma: unsupported scale 'linear'", id="scale"),
    ],
)
def test_config_json_search_space_errors_start_with_the_field(space, prefix):
    data = small_config().to_json_dict()
    data["search_space"] = space
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_json_dict(data)
    assert str(exc.value).startswith(prefix)


def test_config_json_takes_integer_bounds_as_floats():
    data = small_config().to_json_dict()
    data["search_space"][0].update(low=1, high=5)
    cfg = ExperimentConfig.from_json_dict(data)
    assert cfg.to_json_dict()["search_space"][0] == {
        "name": "sigma", "low": 1.0, "high": 5.0, "scale": "log-uniform",
    }


@pytest.mark.parametrize(
    "field,spec",
    [
        ("trainable", {"params": {}}),
        ("trainable", {"kind": "two_basin", "seed": 1}),
        ("trainable", [{"kind": "two_basin"}]),
        ("trainable.params", {"kind": "two_basin", "params": []}),
        ("trainable.params", {"kind": "two_basin", "params": {"start_x": "-2"}}),
        ("trainable.params", {"kind": "two_basin", "params": {"start_x": [True]}}),
    ],
)
def test_config_json_rejects_a_mistyped_trainable_by_name(field, spec):
    data = small_config().to_json_dict()
    data["trainable"] = spec
    with pytest.raises(ConfigError, match=rf"^{re.escape(field)}:"):
        ExperimentConfig.from_json_dict(data)


@pytest.mark.parametrize("value", [5, True, ["runs"], {"dir": "runs"}])
def test_config_json_rejects_out_dir_that_is_not_a_string(value):
    data = small_config().to_json_dict()
    data["out_dir"] = value
    with pytest.raises(ConfigError, match="^out_dir:"):
        ExperimentConfig.from_json_dict(data)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(preset_names()))
def test_config_json_round_trips_every_preset(name):
    cfg = get_preset(name)
    data = json.loads(json.dumps(cfg.to_json_dict()))
    assert ExperimentConfig.from_json_dict(data) == cfg


_NOT_INT = st.one_of(
    st.floats(), st.booleans(), st.text(max_size=4), st.lists(st.integers(), max_size=2)
)
_NOT_BOOL = st.one_of(st.integers(), st.floats(), st.text(max_size=4), st.none())


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(preset_names()),
    st.data(),
)
def test_config_json_names_any_mistyped_field(name, data):
    """Any field given a value of the wrong JSON type is refused by name."""
    doc = get_preset(name).to_json_dict()
    field = data.draw(st.sampled_from(INT_FIELDS + BOOL_FIELDS + INT_LIST_FIELDS))
    if field in BOOL_FIELDS:
        bad = data.draw(_NOT_BOOL)
    elif field in INT_LIST_FIELDS:
        bad = data.draw(st.one_of(
            _NOT_INT.filter(lambda v: not isinstance(v, list)),
            st.lists(_NOT_INT.filter(lambda v: not isinstance(v, list)), min_size=1, max_size=3),
        ))
    else:
        bad = data.draw(_NOT_INT if field in NULLABLE else st.one_of(_NOT_INT, st.none()))
    doc[field] = bad
    with pytest.raises(ConfigError, match=f"^{field}:"):
        ExperimentConfig.from_json_dict(doc)


# -------------------------------------------------------------- snapshots

def test_snapshots_match_independently_trained_trainables():
    """Each round's fitness is the agent's own trainable, trained and evaluated."""
    cfg = small_config(
        "rs", eval_repeats=3, trainable={"kind": "two_basin", "params": {"eval_noise": 0.1}}
    )
    res = run_experiment(cfg, seed=4)
    rows = {(r.round, r.agent_id): r.fitness for r in res.metrics}
    for i, h in res.initial_hyperparams.items():
        t = build_trainable(cfg.trainable)
        t.init(agent_trainable_seed(4, i), {"sigma": h[0]})
        for r in range(1, cfg.num_rounds + 1):
            t.train(cfg.t_ready)
            assert rows[(r, i)] == t.evaluate(cfg.eval_repeats)


def test_run_rejects_non_finite_fitness():
    cfg = small_config(trainable={"kind": "two_basin", "params": {"start_x": float("nan")}})
    with pytest.raises(ValueError, match="agent 0 produced non-finite fitness nan"):
        run_experiment(cfg, seed=0)


# ------------------------------------------------------------------- runs

def test_random_search_run_shape():
    cfg = small_config("rs", total_steps=50)  # 10 rounds
    res = run_experiment(cfg, seed=1)
    assert res.run_dir is None
    assert res.events == []
    assert len(res.metrics) == 10 * 4
    for k, row in enumerate(res.metrics):
        assert row.round == k // 4 + 1
        assert row.agent_id == k % 4
        assert row.hyperparams == res.initial_hyperparams[row.agent_id]


def test_mfpbt_run_gates_subpops_by_round():
    cfg = small_config(
        "mfpbt", num_agents=8, num_subpops=2, deltas=(1, 2), total_steps=20
    )
    res = run_experiment(cfg, seed=5)
    assert {e.round for e in res.events if e.subpop_id == 0} == {1, 2, 3, 4}
    assert {e.round for e in res.events if e.subpop_id == 1} == {2, 4}


def test_pbt_bt_run_alternates_evolution_and_backtracking():
    cfg = small_config(
        "pbt_bt", elite_capacity=2, backtrack_period=2, total_steps=20
    )
    res = run_experiment(cfg, seed=2)
    by_round = {}
    for e in res.events:
        by_round.setdefault(e.round, []).append(e.kind)
    assert set(by_round[1]) == {SURVIVE, PERTURBED_CLONE}
    assert set(by_round[3]) == {SURVIVE, PERTURBED_CLONE}
    # Backtracking rounds replace evolution entirely.
    assert by_round[2] == [ELITE_RESTORE] * 2
    assert by_round[4] == [ELITE_RESTORE] * 2
    for e in res.events:
        if e.kind == ELITE_RESTORE:
            assert e.source_round is not None
            assert e.source_round <= e.round
        else:
            assert e.source_round is None


def test_round_one_metrics_report_pre_barrier_hyperparams():
    cfg = small_config("pbt", total_steps=10)
    res = run_experiment(cfg, seed=4)
    first = [r for r in res.metrics if r.round == 1]
    for row in first:
        assert row.hyperparams == res.initial_hyperparams[row.agent_id]
    # Round 2 rows reflect what round 1's barrier rewrote.
    clones = [e for e in res.events if e.round == 1 and e.kind == PERTURBED_CLONE]
    assert clones
    second = {r.agent_id: r for r in res.metrics if r.round == 2}
    for e in clones:
        assert second[e.target_agent_id].hyperparams == e.hyperparams_after


def test_runs_are_byte_identical_across_repeats_and_workers(tmp_path):
    cfg = small_config(
        "mfpbt", num_agents=8, num_subpops=2, deltas=(1, 2), total_steps=20
    )
    outs = []
    for name, workers in [("a", 1), ("b", 1), ("c", 2)]:
        out = tmp_path / name
        run_experiment(dataclasses.replace(cfg, workers=workers), seed=11, out_dir=out)
        outs.append(out)
    ref_metrics = (outs[0] / "metrics.csv").read_bytes()
    ref_events = (outs[0] / "events.jsonl").read_bytes()
    for out in outs[1:]:
        assert (out / "metrics.csv").read_bytes() == ref_metrics
        assert (out / "events.jsonl").read_bytes() == ref_events


def test_seed_changes_results():
    cfg = small_config("pbt", total_steps=20)
    a = run_experiment(cfg, seed=0)
    b = run_experiment(cfg, seed=1)
    assert a.metrics != b.metrics


def test_eval_repeats_equivalent_for_noiseless_trainable():
    a = run_experiment(small_config("pbt", eval_repeats=1), seed=9)
    b = run_experiment(small_config("pbt", eval_repeats=4), seed=9)
    assert a.metrics == b.metrics
    assert a.events == b.events


def test_run_directory_artifacts(tmp_path):
    out = tmp_path / "run"
    cfg = small_config("pbt", total_steps=20, checkpoint_every=2)
    res = run_experiment(cfg, seed=6, out_dir=out)

    cfg_echo = read_config(RunDir(out).config)
    assert cfg_echo.seeds == (6,)
    assert cfg_echo.algorithm == "pbt"

    rows = read_metrics(out / "metrics.csv", cfg)
    assert rows == res.metrics
    header = (out / "metrics.csv").read_text().splitlines()[0]
    assert header == "round,agent_id,subpop_id,fitness,sigma"

    with open(out / "result.json") as fh:
        summary = json.load(fh)
    assert summary["final_best_fitness"] == res.final_best()
    assert summary["rounds"] == 4
    assert summary["algorithm"] == "pbt"

    ckpts = sorted(p.name for p in (out / "checkpoints").iterdir())
    assert ckpts == ["round_000002.json", "round_000004.json"]


def test_on_disk_floats_round_trip_exactly(tmp_path):
    out = tmp_path / "run"
    run_experiment(small_config("pbt"), seed=8, out_dir=out)
    lines = (out / "metrics.csv").read_text().splitlines()[1:]
    assert lines
    for line in lines:
        for field in line.split(",")[3:]:
            assert field == repr(float(field))
    for line in (out / "events.jsonl").read_text().splitlines():
        assert " " not in line
        assert event_from_json_line(line).to_json_line() == line


def test_resume_reproduces_full_run_bytes(tmp_path):
    cfg = small_config(
        "mfpbt",
        num_agents=8,
        num_subpops=2,
        deltas=(1, 2),
        total_steps=30,
        checkpoint_every=2,
    )
    full, part = tmp_path / "full", tmp_path / "part"
    ref = run_experiment(cfg, seed=3, out_dir=full)
    run_experiment(cfg, seed=3, out_dir=part, stop_after_round=3)
    res = run_experiment(cfg, seed=3, out_dir=part, resume=True)

    assert (part / "metrics.csv").read_bytes() == (full / "metrics.csv").read_bytes()
    assert (part / "events.jsonl").read_bytes() == (full / "events.jsonl").read_bytes()
    assert res.metrics == ref.metrics
    assert res.events == ref.events
    assert res.final_best() == ref.final_best()


def test_resume_error_cases(tmp_path):
    cfg = small_config("rs")
    with pytest.raises(ConfigError, match="resume requires an out_dir"):
        run_experiment(cfg, seed=0, resume=True)

    out = tmp_path / "empty"
    out.mkdir()
    with pytest.raises(ConfigError, match="resume requires an out_dir"):
        run_experiment(cfg, seed=0, out_dir=out, resume=True)

    (out / "checkpoints").mkdir()
    with pytest.raises(ConfigError, match="no checkpoint present"):
        run_experiment(cfg, seed=0, out_dir=out, resume=True)


def test_resume_from_a_stale_checkpoint_past_the_logs_is_refused_and_touches_nothing(tmp_path):
    """A fresh run killed at round 7 in a directory that still holds a round-40 checkpoint."""
    cfg = small_config("pbt_bt", num_agents=8, total_steps=5 * 50, elite_capacity=4,
                       backtrack_period=3, checkpoint_every=5)
    out = tmp_path / "run"
    run_experiment(cfg, seed=1, out_dir=out, stop_after_round=40)
    run_experiment(cfg, seed=1, out_dir=out, stop_after_round=7)
    assert (out / "checkpoints" / "round_000040.json").exists()
    before = _run_files(out)
    metrics = out / "metrics.csv"
    with pytest.raises(ValueError, match=rf"^{metrics}: line {2 + 7 * 8}: expected round 8, agent 0, "
                                         "subpop_id 0, a finite fitness and positive finite hyperparameters; "
                                         "found the end of the file$"):
        run_experiment(cfg, seed=1, out_dir=out, resume=True)
    assert _run_files(out) == before


def test_resume_refuses_another_config_naming_the_first_differing_field(tmp_path):
    cfg = small_config("pbt", checkpoint_every=1)
    run_experiment(cfg, seed=3, out_dir=tmp_path, stop_after_round=2)
    before = _run_files(tmp_path)
    other = dataclasses.replace(cfg, deltas=(2,), checkpoint_every=2)
    with pytest.raises(ConfigError, match=r"^deltas: .*config\.json has \[1\], but this run has \[2\]$"):
        run_experiment(other, seed=3, out_dir=tmp_path, resume=True)
    assert _run_files(tmp_path) == before


def _run_files(run_dir: Path) -> dict[str, bytes]:
    """Every byte-compared file of a run directory, hidden ones included."""
    return {
        p.relative_to(run_dir).as_posix(): p.read_bytes()
        for p in sorted(run_dir.rglob("*"))
        if p.is_file() and p.name != "result.json"
    }


def _checkpointed_pbt_bt() -> ExperimentConfig:
    return small_config(
        "pbt_bt", num_agents=8, total_steps=40, elite_capacity=4, backtrack_period=3,
        checkpoint_every=1,
    )


def _fail_on_rename_to(monkeypatch, name: str) -> None:
    real_replace = os.replace

    def replace(src, dst):
        if Path(dst).name == name:
            raise OSError(f"interrupted before {name} was replaced")
        real_replace(src, dst)

    monkeypatch.setattr(rundir.os, "replace", replace)


def test_failed_checkpoint_write_leaves_a_resumable_run(tmp_path, monkeypatch):
    cfg = _checkpointed_pbt_bt()
    full, part = tmp_path / "full", tmp_path / "part"
    run_experiment(cfg, seed=2, out_dir=full)

    real_checkpoint_dict = runner._Engine.checkpoint_dict

    def checkpoint_dict(self, round_no):
        if round_no == 5:
            raise OSError("disk full")
        return real_checkpoint_dict(self, round_no)

    monkeypatch.setattr(runner._Engine, "checkpoint_dict", checkpoint_dict)
    with pytest.raises(OSError, match="disk full"):
        run_experiment(cfg, seed=2, out_dir=part)
    monkeypatch.undo()

    assert sorted(p.name for p in (part / "checkpoints").iterdir()) == [
        f"round_{r:06d}.json" for r in range(1, 5)
    ]
    res = run_experiment(cfg, seed=2, out_dir=part, resume=True)
    assert res.metrics[-1].round == cfg.num_rounds
    assert _run_files(part) == _run_files(full)


def test_resume_ignores_temp_file_of_an_interrupted_checkpoint(tmp_path, monkeypatch):
    cfg = _checkpointed_pbt_bt()
    full, part = tmp_path / "full", tmp_path / "part"
    run_experiment(cfg, seed=2, out_dir=full)

    _fail_on_rename_to(monkeypatch, "round_000005.json")
    with pytest.raises(OSError, match="interrupted"):
        run_experiment(cfg, seed=2, out_dir=part)
    monkeypatch.undo()

    names = sorted(p.name for p in (part / "checkpoints").iterdir())
    assert [n for n in names if n.startswith("round_")] == [
        f"round_{r:06d}.json" for r in range(1, 5)
    ]
    assert len(names) == 5  # the leftover temp file of round 5
    run_experiment(cfg, seed=2, out_dir=part, resume=True)
    assert _run_files(part) == _run_files(full)


def test_a_crash_while_the_config_echo_is_written_leaves_no_config_json(tmp_path, monkeypatch):
    """A process killed once 100 characters of config.json's echo are written: no half-written echo."""

    class Killed(Exception):
        pass

    class Torn:  # a file opened for writing that is killed after 100 characters
        def __init__(self, fh):
            self.fh, self.room = fh, 100

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, chunk):
            self.fh.write(chunk[:self.room])
            self.room = max(self.room - len(chunk), 0)
            if not self.room:
                raise Killed

        def writelines(self, chunks):
            for chunk in chunks:
                self.write(chunk)

    def torn_open(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        return Torn(fh) if "w" in mode else fh

    monkeypatch.setattr(rundir, "open", torn_open, raising=False)
    with pytest.raises(Killed):
        run_experiment(small_config("pbt"), seed=0, out_dir=tmp_path / "run")
    monkeypatch.undo()
    assert not (tmp_path / "run" / "config.json").exists()


def _rounds_upto(run_dir: Path, num_agents: int, round_no: int) -> tuple[str, str]:
    """A run directory's metrics.csv and events.jsonl cut to rounds 1..round_no."""
    header, *rows = (run_dir / "metrics.csv").read_text().splitlines(keepends=True)
    events = (run_dir / "events.jsonl").read_text().splitlines(keepends=True)
    return (header + "".join(rows[:round_no * num_agents]),
            "".join(line for line in events if json.loads(line)["round"] <= round_no))


def test_every_checkpoint_finds_its_rounds_flushed_to_both_logs(tmp_path, monkeypatch):
    """A run killed in round 8's barrier, then resumed from round 7: when round r's checkpoint
    is written, both logs read through a fresh handle hold rounds 1..r of a run in one go."""
    cfg = _checkpointed_pbt_bt()
    full, part = tmp_path / "full", tmp_path / "part"
    run_experiment(cfg, seed=2, out_dir=full)
    checked, killed = [], []
    real_checkpoint, real_barrier = rundir.RunDir.write_checkpoint, runner._Engine.barrier_events

    def write_checkpoint(self, round_no, state):
        with open(self.metrics, encoding="utf-8") as metrics, open(self.events, encoding="utf-8") as evs:
            assert (metrics.read(), evs.read()) == _rounds_upto(full, cfg.num_agents, round_no), round_no
        checked.append(round_no)
        real_checkpoint(self, round_no, state)

    def barrier_events(self, round_no):
        if round_no == 8 and not killed:
            killed.append(round_no)
            raise RuntimeError("killed")
        return real_barrier(self, round_no)

    monkeypatch.setattr(rundir.RunDir, "write_checkpoint", write_checkpoint)
    monkeypatch.setattr(runner._Engine, "barrier_events", barrier_events)
    with pytest.raises(RuntimeError, match="killed"):
        run_experiment(cfg, seed=2, out_dir=part)
    assert (part / "metrics.csv").read_text().count("\n8,") == cfg.num_agents  # resume drops these
    run_experiment(cfg, seed=2, out_dir=part, resume=True)
    assert checked == list(range(1, cfg.num_rounds + 1))
    assert _run_files(part) == _run_files(full)


@pytest.mark.parametrize("fault,last_round", [("non-finite fitness", 2), ("checkpoint", 5)])
def test_a_run_that_raises_closes_both_logs_and_keeps_its_flushed_rounds(tmp_path, monkeypatch, fault,
                                                                           last_round):
    """A non-finite fitness in round 3, or a checkpoint write failing at round 5."""
    cfg = _checkpointed_pbt_bt()
    full, part = tmp_path / "full", tmp_path / "part"
    run_experiment(cfg, seed=2, out_dir=full)
    opened = []

    def spy_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    real_checkpoint_dict, real_rounds, trained = runner._Engine.checkpoint_dict, TwoBasinTrainable.train_rounds, []

    def checkpoint_dict(self, round_no):
        if round_no == 5:
            raise OSError("disk full")
        return real_checkpoint_dict(self, round_no)

    def train_rounds(trainables, num_steps, rounds, repeats):  # a pbt_bt run trains one round per call
        rows = real_rounds(trainables, num_steps, rounds, repeats)
        trained.append(rounds)
        if len(trained) == 3:
            rows[0][0] = math.nan
        return rows

    if fault == "checkpoint":
        monkeypatch.setattr(runner._Engine, "checkpoint_dict", checkpoint_dict)
    else:
        monkeypatch.setattr(TwoBasinTrainable, "train_rounds", staticmethod(train_rounds))
    monkeypatch.setattr(rundir, "open", spy_open, raising=False)
    with pytest.raises((OSError, ValueError), match="disk full|non-finite fitness nan"):
        run_experiment(cfg, seed=2, out_dir=part)
    monkeypatch.undo()
    assert trained in ([], [1, 1, 1])

    logs = [fh for fh in opened if fh.mode == "a"]
    assert [Path(fh.name).name for fh in logs] == ["metrics.csv", "events.jsonl"]
    assert all(fh.closed for fh in opened)
    on_disk = ((part / "metrics.csv").read_text(), (part / "events.jsonl").read_text())
    assert on_disk == _rounds_upto(full, cfg.num_agents, last_round)


def test_checkpoint_text_is_json_dumps_of_checkpoint_dict_at_every_round(tmp_path, monkeypatch):
    """Admissions, backtracks and a resume from the middle; the archive's JSON is
    encoded at round 1, after each change, and once for the restored archive."""
    cfg = small_config(
        "pbt_bt", num_agents=8, total_steps=75, elite_capacity=4, backtrack_period=3,
        checkpoint_every=1,
    )
    texts, archive_encodes = {}, []
    real_text, real_dumps = runner._Engine.checkpoint_text, json.dumps

    def checkpoint_text(self, round_no):
        text = real_text(self, round_no)
        assert text == real_dumps(self.checkpoint_dict(round_no))
        texts[round_no] = text
        return text

    def dumps(obj, *args, **kwargs):
        if isinstance(obj, dict) and "capacity" in obj:
            archive_encodes.append(obj)
        return real_dumps(obj, *args, **kwargs)

    monkeypatch.setattr(runner._Engine, "checkpoint_text", checkpoint_text)
    monkeypatch.setattr(json, "dumps", dumps)
    run_experiment(cfg, seed=4, out_dir=tmp_path, stop_after_round=6)
    res = run_experiment(cfg, seed=4, out_dir=tmp_path, resume=True)
    monkeypatch.undo()

    rounds = range(1, cfg.num_rounds + 1)
    assert sorted(texts) == list(rounds)
    for r in rounds:
        assert (tmp_path / "checkpoints" / f"round_{r:06d}.json").read_text() == texts[r]
    archives = {r: json.loads(texts[r])["archive"] for r in rounds}
    changed = [r for r in rounds if r in (1, 7) or archives[r] != archives[r - 1]]
    assert archive_encodes == [archives[r] for r in changed]
    assert 7 < max(changed) < cfg.num_rounds  # admissions after the resume, then none
    restores = {ev.round for ev in res.events if ev.kind == ELITE_RESTORE}
    assert min(restores) < 6 < max(restores)


@pytest.mark.parametrize("algorithm,deltas", [("rs", (1,)), ("pbt", (4,))])
def test_each_checkpoint_round_ends_a_stretch_of_batched_rounds(tmp_path, algorithm, deltas):
    """rs, and pbt every 4 rounds, train the rounds between barriers in one batch; a checkpoint every
    3 rounds is still written at each of its rounds, and a resume from each writes the run's bytes."""
    cfg = small_config(algorithm, deltas=deltas, total_steps=5 * 14, checkpoint_every=3)
    full = tmp_path / "full"
    run_experiment(cfg, seed=3, out_dir=full)
    assert sorted(p.name for p in (full / "checkpoints").iterdir()) == [
        f"round_{r:06d}.json" for r in (3, 6, 9, 12)]
    for stop in (4, 8, 13):  # the resume starts from rounds 3, 6 and 12
        part = tmp_path / f"stopped-at-{stop}"
        run_experiment(cfg, seed=3, out_dir=part, stop_after_round=stop)
        run_experiment(cfg, seed=3, out_dir=part, resume=True)
        assert _run_files(part) == _run_files(full)


def test_a_resume_with_nothing_to_drop_leaves_both_logs_untouched(tmp_path):
    cfg = _checkpointed_pbt_bt()
    run_experiment(cfg, seed=2, out_dir=tmp_path, stop_after_round=6)
    logs = [tmp_path / "metrics.csv", tmp_path / "events.jsonl"]
    before = [(p.stat().st_ino, p.stat().st_mtime_ns) for p in logs]
    res = run_experiment(cfg, seed=2, out_dir=tmp_path, resume=True, stop_after_round=6)
    assert [(p.stat().st_ino, p.stat().st_mtime_ns) for p in logs] == before
    assert res.metrics[-1].round == res.events[-1].round == 6

    with open(logs[1], "a", encoding="utf-8") as fh:
        fh.write("\n")  # a blank line is dropped, so the log is rewritten
    run_experiment(cfg, seed=2, out_dir=tmp_path, resume=True, stop_after_round=6)
    assert logs[1].stat().st_ino != before[1][0]
    assert "" not in logs[1].read_text().split("\n")[:-1]


def test_hyperparams_are_pushed_to_a_trainable_only_after_a_change(tmp_path, monkeypatch):
    """Each round pushes the agents an exploit gave new hyperparameters; a resumed
    run's first round pushes every agent, whose restored trainable holds none."""
    cfg = small_config("pbt", num_agents=8, total_steps=60, checkpoint_every=1)
    pushed: list[dict] = []  # per round: agent id -> the mapping it was given
    owner: dict[int, int] = {}
    real_set, real_rounds = TwoBasinTrainable.set_hyperparams, runner._Engine.train_eval_rounds

    def set_hyperparams(self, hyperparams):
        if owner:  # inside a round, not a trainable's own init
            pushed[-1][owner[id(self)]] = dict(hyperparams)
        real_set(self, hyperparams)

    def train_eval_rounds(engine, rounds):
        owner.update((id(a.trainable), a.agent_id) for a in engine.population.agents)
        pushed.append({})
        try:
            return real_rounds(engine, rounds)
        finally:
            owner.clear()

    monkeypatch.setattr(TwoBasinTrainable, "set_hyperparams", set_hyperparams)
    monkeypatch.setattr(runner._Engine, "train_eval_rounds", train_eval_rounds)
    full, part = tmp_path / "full", tmp_path / "part"
    run_experiment(cfg, seed=5, out_dir=part, stop_after_round=6)
    res = run_experiment(cfg, seed=5, out_dir=part, resume=True)
    monkeypatch.undo()

    assert len(pushed) == cfg.num_rounds
    clones = {r: {} for r in range(cfg.num_rounds + 1)}
    for ev in res.events:
        if ev.kind != SURVIVE:
            clones[ev.round][ev.target_agent_id] = {"sigma": ev.hyperparams_after[0]}
    assert pushed[0] == {}  # init gave every trainable its hyperparameters
    assert set(pushed[6]) == set(range(cfg.num_agents))
    for r in range(2, cfg.num_rounds + 1):
        if r != 7:
            assert pushed[r - 1] == clones[r - 1], r
    assert sum(map(len, pushed)) < cfg.num_agents * cfg.num_rounds / 2
    run_experiment(cfg, seed=5, out_dir=full)
    assert _run_files(part) == _run_files(full)


@pytest.mark.parametrize("log", ["metrics.csv", "events.jsonl"])
def test_interrupted_log_truncation_keeps_the_log(tmp_path, monkeypatch, log):
    cfg = _checkpointed_pbt_bt()
    full, part = tmp_path / "full", tmp_path / "part"
    run_experiment(cfg, seed=2, out_dir=full)
    run_experiment(cfg, seed=2, out_dir=part, stop_after_round=6)
    (part / "checkpoints" / "round_000006.json").unlink()  # resume truncates to 5
    before = (part / log).read_bytes()

    _fail_on_rename_to(monkeypatch, log)
    with pytest.raises(OSError, match="interrupted"):
        run_experiment(cfg, seed=2, out_dir=part, resume=True)
    monkeypatch.undo()

    assert (part / log).read_bytes() == before
    run_experiment(cfg, seed=2, out_dir=part, resume=True)
    assert _run_files(part) == _run_files(full)


@pytest.mark.parametrize(
    "log,torn",
    [("metrics.csv", "1"), ("events.jsonl", '{"round":1')],
)
def test_resume_drops_a_torn_last_line(tmp_path, log, torn):
    """A kill mid-write leaves a last line without its newline."""
    cfg = small_config(
        "pbt_bt", num_agents=8, total_steps=75, elite_capacity=4, backtrack_period=3,
        checkpoint_every=1,
    )
    full, part = tmp_path / "full", tmp_path / "part"
    run_experiment(cfg, seed=2, out_dir=full)
    run_experiment(cfg, seed=2, out_dir=part, stop_after_round=12)
    with open(part / log, "a", encoding="utf-8") as fh:
        fh.write(torn)
    run_experiment(cfg, seed=2, out_dir=part, resume=True)
    assert _run_files(part) == _run_files(full)


def test_resume_rejects_checkpoint_of_another_master_seed(tmp_path):
    cfg = small_config("rs", checkpoint_every=1)
    out = tmp_path / "run"
    run_experiment(cfg, seed=0, out_dir=out, stop_after_round=2)
    before = _run_files(out)
    with pytest.raises(ConfigError, match=r"^seeds: .*master seed 0.* 7"):
        run_experiment(cfg, seed=7, out_dir=out, resume=True)
    assert _run_files(out) == before


def test_run_rejects_negative_seed():
    with pytest.raises(ConfigError, match="non-negative"):
        run_experiment(small_config("rs"), seed=-1)


# --------------------------------------------------------- result helpers

def row(r, a, f):
    return MetricRow(round=r, agent_id=a, subpop_id=0, fitness=f, hyperparams=(1.0,))


def test_result_best_helpers():
    cfg = small_config("rs", total_steps=10)
    res = run_experiment(cfg, seed=12)
    by_round = {}
    for r in res.metrics:
        by_round.setdefault(r.round, []).append(r.fitness)
    assert res.best_by_round() == [max(by_round[r]) for r in sorted(by_round)]
    assert res.final_best() == res.best_by_round()[-1]


def test_final_best_of_a_run_stopped_early_is_its_last_round_best():
    res = run_experiment(get_preset("twobasin-rs"), seed=0, stop_after_round=5)
    last = max(row.fitness for row in res.metrics if row.round == 5)
    assert res.best_by_round()[-1] == last
    assert len(res.best_by_round()) == 5
    assert res.final_best() == last

def test_best_agent_tie_breaks_toward_lower_id():
    cfg = small_config("rs", total_steps=5)
    res = run_experiment(cfg, seed=0)
    res.metrics = MetricTable(cfg, [2.0, 5.0, 5.0, 1.0], [(1.0,)] * 4)
    assert res.metrics == [row(1, 0, 2.0), row(1, 1, 5.0), row(1, 2, 5.0), row(1, 3, 1.0)]
    assert res.best_agent_at(1) == 1
    for round_no in (0, -1, 9):
        with pytest.raises(ValueError, match=f"no metrics for round {round_no}"):
            res.best_agent_at(round_no)


def test_result_metrics_read_as_a_list_of_metric_rows():
    cfg = small_config("mfpbt", num_agents=8, num_subpops=2, deltas=(1, 2), total_steps=30)
    res = run_experiment(cfg, seed=3)
    rows = [MetricRow(r, a, a // 4, f, h) for (r, a, _, f, h) in res.metrics]
    assert len(res.metrics) == len(rows) == 8 * cfg.num_rounds
    assert all(type(v) is int for r in res.metrics for v in r[:3])
    assert all(type(r.fitness) is float and type(r) is MetricRow for r in res.metrics)
    assert list(map(repr, res.metrics)) == list(map(repr, rows))
    assert res.metrics[-1] == rows[-1] and res.metrics[-8] == rows[-8] and res.metrics[-8].subpop_id == 0
    assert res.metrics[-9:-7] == rows[-9:-7]
    with pytest.raises(IndexError):
        res.metrics[len(rows)]
    assert res.metrics == rows and rows == res.metrics
    assert not (res.metrics != rows or rows != res.metrics)
    assert res.metrics != rows[:-1] and rows[:-1] != res.metrics
    assert res.metrics != tuple(rows)


# ----------------------------------------------------------- event schema

def make_event(**overrides):
    base = dict(
        round=1,
        subpop_id=0,
        target_agent_id=3,
        kind=PERTURBED_CLONE,
        source_agent_id=0,
        source_round=None,
        hyperparams_after=(0.8,),
        fitness_snapshot=1.5,
    )
    base.update(overrides)
    return EvolutionEvent(**base)


def test_event_kind_validation():
    with pytest.raises(ValueError, match="unknown event kind"):
        make_event(kind="promotion")
    with pytest.raises(ValueError, match="carry no source"):
        make_event(kind=SURVIVE)
    with pytest.raises(ValueError, match="require a source agent"):
        make_event(source_agent_id=None)


BAD_EVENTS = [
    (dict(kind="promotion"), "unknown event kind 'promotion'"),
    (dict(kind=SURVIVE), "survive events carry no source"),
    (dict(kind=ELITE_RESTORE, source_agent_id=None, source_round=1), "elite_restore events require a source agent"),
]


@pytest.mark.parametrize("overrides,message", BAD_EVENTS)
def test_event_guard_refuses_positional_and_keyword_construction_alike(overrides, message):
    fields = {**make_event()._asdict(), **overrides}
    with pytest.raises(ValueError) as by_keyword:
        EvolutionEvent(**fields)
    with pytest.raises(ValueError) as by_position:
        EvolutionEvent(*fields.values())
    assert str(by_keyword.value) == str(by_position.value) == message


def test_event_fields_are_the_json_keys_in_order():
    assert events._FIELDS == ("round", "subpop_id", "target_agent_id", "kind", "source_agent_id",
                              "source_round", "hyperparams_after", "fitness_snapshot")
    assert list(json.loads(make_event().to_json_line())) == list(events._FIELDS)


def test_records_carry_no_instance_dict():
    """A run builds a metric row per agent per round and an event per agent per barrier."""
    for record in (make_event(), row(1, 0, 1.5)):
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.extra = 0


def test_event_json_round_trip():
    for ev in [
        make_event(),
        make_event(kind=SURVIVE, source_agent_id=None),
        make_event(kind=ELITE_RESTORE, source_round=4, hyperparams_after=(1.0, 2.5)),
    ]:
        assert event_from_json_line(ev.to_json_line()) == ev


def test_read_run_returns_what_the_run_wrote(tmp_path):
    out = tmp_path / "run"
    cfg = small_config("mfpbt", num_agents=8, num_subpops=2, deltas=(1, 2), total_steps=30)
    res = run_experiment(cfg, seed=6, out_dir=out)
    config, seed, metrics = read_run(out)
    echo = read_config(RunDir(out).config)
    assert (config, seed) == (echo, echo.seeds[0])
    cells = [line.split(",") for line in (out / "metrics.csv").read_text().splitlines()[1:]]
    assert metrics == [MetricRow(int(r), int(a), int(s), float(f), tuple(map(float, h)))
                       for r, a, s, f, *h in cells] == res.metrics
    assert {row.subpop_id for row in metrics} == {0, 1}


# ------------------------------------------------------------ metrics.csv

@pytest.mark.parametrize(
    "tail,line",
    [("401,3\n", 6), ("401,3", 6), ("4,0,0,1.0,2.0,3.0\n", 6), ("\n4,x,0,1.0,2.0\n", 7)],
)
def test_read_metrics_names_the_file_and_line_of_a_malformed_row(tmp_path, tail, line):
    path = tmp_path / "metrics.csv"
    rows = [f"{r},{a},0,{r + a / 10!r},0.5" for r in (1, 2) for a in (0, 1)]
    path.write_text("round,agent_id,subpop_id,fitness,sigma\n" + "\n".join(rows) + "\n" + tail)
    with pytest.raises(ValueError, match=rf"^{path}: line {line}: "):
        read_metrics(path, small_config(), 1)  # parsed before the rows' shape is checked
