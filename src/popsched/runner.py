"""Experiment runner: synchronous generations over live trainables.

Every round each agent trains t_ready steps and is evaluated; at the
round barrier the configured scheduler may rewrite agents in place,
emitting the events that describe what it did. Metrics and events are
appended (and flushed) per round, so a crashed run leaves a valid prefix
on disk.

All streams derive from (master_seed, agent_id, kind), so results are
byte-identical across repeats. Each agent keeps one live trainable for
the whole run; payloads are exported only where state is persisted
(checkpoints and the elite archive).

The runner owns the experiment directory layout:

    config.json     canonical config echo (seeds pinned to the run's seed)
    metrics.csv     round,agent_id,subpop_id,fitness,<one column per hyperparameter>
    events.jsonl    one EvolutionEvent per line, in application order
    checkpoints/    full engine state per round (when enabled)
    result.json     summary incl. wall-clock

Checkpoints, and the logs a resume truncates, are replaced atomically
(temp file, then os.replace), so a crash leaves the old file or the new
one, never a partial one. metrics.csv is parsed by one np.loadtxt call,
events.jsonl by one json.loads per block of lines; a resume decodes each line once.
"""

from __future__ import annotations

import json
import math
import os
import time
import warnings
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Sequence

import numpy as np

from .baselines import EliteArchive, backtrack, rs_round, update_elites
from .core import (
    AgentState,
    ConfigError,
    HyperparamSpace,
    HyperparamVector,
    Population,
    SpaceEntry,
    sample_hyperparams,
)
from .events import EvolutionEvent, _text, read_events, write_events
from .mfpbt import MfpbtConfig, mfpbt_round, subpop_due
from .pbt import pbt_evolution_step
from .seeding import agent_trainable_seed, seed_hierarchy
from .trainables import build_trainable

ALGORITHMS = ("rs", "pbt", "mfpbt", "pbt_bt")

CONFIG_VERSION = 1

_CONFIG_KEYS = {
    "version", "algorithm", "num_agents", "num_subpops", "deltas", "t_ready",
    "total_steps", "eval_repeats", "search_space", "trainable",
    "variance_exploitation", "symmetric_migration", "clamp_hyperparams",
    "seeds", "elite_capacity", "backtrack_period", "checkpoint_every",
    "workers", "out_dir",
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _json_int(data: dict, key: str, default=None, *, nullable: bool = False):
    value = data.get(key, default)
    if not (_is_int(value) or (nullable and value is None)):
        kind = "an integer or null" if nullable else "an integer"
        raise ConfigError(f"{key}: expected {kind}, got {value!r}")
    return value


def _json_ints(data: dict, key: str, default: list) -> tuple[int, ...]:
    value = data.get(key, default)
    if not isinstance(value, list) or not all(_is_int(v) for v in value):
        raise ConfigError(f"{key}: expected a list of integers, got {value!r}")
    return tuple(value)


def _json_bool(data: dict, key: str) -> bool:
    value = data.get(key, False)
    if not isinstance(value, bool):
        raise ConfigError(f"{key}: expected true or false, got {value!r}")
    return value


def _json_str(data: dict, key: str, default=None, *, nullable: bool = False, field: str = ""):
    value = data.get(key, default)
    if not (isinstance(value, str) or (nullable and value is None)):
        kind = "a string or null" if nullable else "a string"
        raise ConfigError(f"{field or key}: expected {kind}, got {value!r}")
    return value


def _json_float(data: dict, key: str, field: str) -> float:
    value = data.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{field}: integer too large for a float") from None


@dataclass(frozen=True)
class ExperimentConfig:
    algorithm: str
    num_agents: int
    t_ready: int
    total_steps: int
    search_space: HyperparamSpace
    trainable: dict
    num_subpops: int = 1
    deltas: tuple[int, ...] = (1,)
    eval_repeats: int = 1
    variance_exploitation: bool = False
    symmetric_migration: bool = False
    clamp_hyperparams: bool = False
    seeds: tuple[int, ...] = (0,)
    elite_capacity: int | None = None
    backtrack_period: int | None = None
    checkpoint_every: int = 0
    workers: int = 1  # kept so older config echoes parse; a run is one process
    out_dir: str | None = None

    @property
    def num_rounds(self) -> int:
        return self.total_steps // self.t_ready

    @property
    def subpop_size(self) -> int:
        return self.num_agents // self.num_subpops

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm: unknown {self.algorithm!r}, expected one of {ALGORITHMS}")
        if self.num_agents < 4:
            raise ConfigError(f"num_agents: need at least 4, got {self.num_agents}")
        if self.num_subpops < 1:
            raise ConfigError(f"num_subpops: need at least 1, got {self.num_subpops}")
        if self.num_agents % self.num_subpops != 0:
            raise ConfigError(
                f"num_agents: {self.num_agents} not divisible by num_subpops {self.num_subpops}"
            )
        if self.subpop_size % 4 != 0:
            raise ConfigError(
                f"num_agents: sub-population size {self.subpop_size} must be a multiple of 4"
            )
        if len(self.deltas) != self.num_subpops:
            raise ConfigError(
                f"deltas: got {len(self.deltas)} periods for {self.num_subpops} sub-populations"
            )
        if list(self.deltas) != sorted(set(self.deltas)) or any(
            int(d) != d or d < 1 for d in self.deltas
        ):
            raise ConfigError(f"deltas: must be strictly increasing positive integers, got {self.deltas}")
        if self.algorithm == "mfpbt":
            MfpbtConfig(deltas=self.deltas)  # also checks deltas[0] == 1
        elif self.num_subpops != 1:
            raise ConfigError(f"num_subpops: {self.algorithm} runs a single population")
        if self.t_ready < 1:
            raise ConfigError(f"t_ready: need >= 1, got {self.t_ready}")
        if self.total_steps < self.t_ready or self.total_steps % self.t_ready != 0:
            raise ConfigError(
                f"total_steps: {self.total_steps} must be a positive multiple of t_ready {self.t_ready}"
            )
        if self.eval_repeats < 1:
            raise ConfigError(f"eval_repeats: need >= 1, got {self.eval_repeats}")
        if not self.seeds:
            raise ConfigError("seeds: need at least one master seed")
        if any(int(s) != s or s < 0 for s in self.seeds):
            raise ConfigError(f"seeds: must be non-negative integers, got {self.seeds}")
        if self.algorithm == "pbt_bt":
            if self.elite_capacity is None or self.elite_capacity < 1:
                raise ConfigError(f"elite_capacity: pbt_bt needs >= 1, got {self.elite_capacity}")
            if self.backtrack_period is None or self.backtrack_period < 1:
                raise ConfigError(f"backtrack_period: pbt_bt needs >= 1, got {self.backtrack_period}")
        else:
            if self.elite_capacity is not None or self.backtrack_period is not None:
                raise ConfigError("elite_capacity/backtrack_period: only valid for pbt_bt")
        if self.checkpoint_every < 0:
            raise ConfigError(f"checkpoint_every: need >= 0, got {self.checkpoint_every}")
        if self.workers < 1:
            raise ConfigError(f"workers: need >= 1, got {self.workers}")
        build_trainable(self.trainable)  # raises on unknown kind or bad params

    def to_json_dict(self) -> dict:
        return {
            "version": CONFIG_VERSION,
            "algorithm": self.algorithm,
            "num_agents": self.num_agents,
            "num_subpops": self.num_subpops,
            "deltas": list(self.deltas),
            "t_ready": self.t_ready,
            "total_steps": self.total_steps,
            "eval_repeats": self.eval_repeats,
            "search_space": [
                {"name": e.name, "low": e.low, "high": e.high, "scale": e.scale}
                for e in self.search_space.entries
            ],
            "trainable": {
                "kind": self.trainable.get("kind"),
                "params": dict(self.trainable.get("params") or {}),
            },
            "variance_exploitation": self.variance_exploitation,
            "symmetric_migration": self.symmetric_migration,
            "clamp_hyperparams": self.clamp_hyperparams,
            "seeds": list(self.seeds),
            "elite_capacity": self.elite_capacity,
            "backtrack_period": self.backtrack_period,
            "checkpoint_every": self.checkpoint_every,
            "workers": self.workers,
            "out_dir": self.out_dir,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> ExperimentConfig:
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(data) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if data.get("version") != CONFIG_VERSION:
            raise ConfigError(f"version: expected {CONFIG_VERSION}, got {data.get('version')!r}")
        required = ("algorithm", "num_agents", "t_ready", "total_steps", "search_space", "trainable")
        missing = [k for k in required if k not in data]
        if missing:
            raise ConfigError(f"missing config keys: {missing}")
        space = data["search_space"]
        if not isinstance(space, list) or not all(isinstance(e, dict) for e in space):
            raise ConfigError(f"search_space: expected a list of objects, got {space!r}")
        entries = []
        for i, e in enumerate(space):
            extra = set(e) - {"name", "low", "high", "scale"}
            if extra:
                raise ConfigError(f"search_space: unknown entry keys {sorted(extra)}")
            at = f"search_space[{i}]"
            entries.append(
                SpaceEntry(
                    name=_json_str(e, "name", field=f"{at}.name"),
                    low=_json_float(e, "low", f"{at}.low"),
                    high=_json_float(e, "high", f"{at}.high"),
                    scale=_json_str(e, "scale", "log-uniform", field=f"{at}.scale"),
                )
            )
        cfg = cls(
            algorithm=data["algorithm"],
            num_agents=_json_int(data, "num_agents"),
            num_subpops=_json_int(data, "num_subpops", 1),
            deltas=_json_ints(data, "deltas", [1]),
            t_ready=_json_int(data, "t_ready"),
            total_steps=_json_int(data, "total_steps"),
            eval_repeats=_json_int(data, "eval_repeats", 1),
            search_space=HyperparamSpace(tuple(entries)),
            trainable=dict(data["trainable"]),
            variance_exploitation=_json_bool(data, "variance_exploitation"),
            symmetric_migration=_json_bool(data, "symmetric_migration"),
            clamp_hyperparams=_json_bool(data, "clamp_hyperparams"),
            seeds=_json_ints(data, "seeds", [0]),
            elite_capacity=_json_int(data, "elite_capacity", nullable=True),
            backtrack_period=_json_int(data, "backtrack_period", nullable=True),
            checkpoint_every=_json_int(data, "checkpoint_every", 0),
            workers=_json_int(data, "workers", 1),
            out_dir=_json_str(data, "out_dir", nullable=True),
        )
        cfg.validate()
        return cfg


@dataclass(frozen=True)
class MetricRow:
    round: int
    agent_id: int
    subpop_id: int
    fitness: float
    hyperparams: tuple[float, ...]


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    seed: int
    run_dir: str | None
    metrics: list[MetricRow]
    events: list[EvolutionEvent]
    initial_hyperparams: dict[int, HyperparamVector]
    wall_clock: float

    def best_by_round(self) -> list[float]:
        from .reporting import best_fitness_by_round  # reporting imports this module
        return best_fitness_by_round(self.metrics)

    def final_best(self) -> float:
        return self.best_by_round()[-1]

    def best_agent_at(self, round_no: int) -> int:
        """Best snapshot fitness at a round; ties go to the lower agent id."""
        rows = [r for r in self.metrics if r.round == round_no]
        if not rows:
            raise ValueError(f"no metrics for round {round_no}")
        return min(rows, key=lambda r: (-r.fitness, r.agent_id)).agent_id


# ------------------------------------------------------------ persistence

def _fmt(x: float) -> str:
    return repr(float(x))


def _metrics_header(space: HyperparamSpace) -> str:
    return ",".join(["round", "agent_id", "subpop_id", "fitness", *space.names])


def _metric_line(row: MetricRow) -> str:
    parts = [str(row.round), str(row.agent_id), str(row.subpop_id), _fmt(row.fitness)]
    parts.extend(_fmt(v) for v in row.hyperparams)
    return ",".join(parts)


def _read_metric_columns(path, lines: Sequence[str] | None = None) -> list[list]:
    """metrics.csv by column: rounds, agent ids, subpop ids, fitness, then one
    column per hyperparameter, parsed by one np.loadtxt call (int64 ids,
    float64 values); a file it rejects is parsed line by line to name the bad line."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")  # header only
        # older numpy reads an id such as 1.5 or 2**63 through a float, warning only
        warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
        with _text(path, lines) as fh:
            width = max(len(next(fh, "").split(",")), 4)  # an empty file has no rows
            dtype = np.dtype(",".join(["i8"] * 3 + ["f8"] * (width - 3)))
            try:
                table = np.loadtxt(filter(str.strip, fh), dtype, delimiter=",", comments=None, ndmin=1)
                return [table[name].tolist() for name in dtype.names]
            except ValueError as exc:
                error = exc
        with _text(path, lines) as fh:
            for line_no, line in enumerate(islice(fh, 1, None), 2):
                try:
                    if line.strip():
                        np.loadtxt([line], dtype, delimiter=",", comments=None)
                except ValueError as exc:
                    raise ValueError(f"{path}: line {line_no}: {exc}") from None
    raise ValueError(f"{path}: {error}")


def read_metrics(path, lines: Sequence[str] | None = None) -> list[MetricRow]:
    rounds, agents, subpops, fitness, *hyperparams = _read_metric_columns(path, lines)
    return list(map(MetricRow, rounds, agents, subpops, fitness, zip(*hyperparams)))


def load_run_config(run_dir) -> tuple[ExperimentConfig, int]:
    """Read a run directory's config echo; returns (config, master_seed)."""
    with open(Path(run_dir) / "config.json", "r", encoding="utf-8") as fh:
        data = json.load(fh)
    cfg = ExperimentConfig.from_json_dict(data)
    return cfg, cfg.seeds[0]


# ------------------------------------------------------------------ engine

class _Engine:
    def __init__(self, config: ExperimentConfig, seed: int) -> None:
        self.config = config
        self.seed = int(seed)
        self.space = config.search_space
        self.archive = (
            EliteArchive(config.elite_capacity) if config.algorithm == "pbt_bt" else None
        )
        self.evolve_rngs = {
            i: seed_hierarchy(self.seed, i, "evolve") for i in range(config.num_agents)
        }
        self.population: Population | None = None

    def init_population(self) -> None:
        cfg = self.config
        per = cfg.subpop_size
        agents = []
        for i in range(cfg.num_agents):
            h = sample_hyperparams(self.space, seed_hierarchy(self.seed, i, "init"))
            trainable = build_trainable(cfg.trainable)
            trainable.init(agent_trainable_seed(self.seed, i), self.space.to_mapping(h))
            agents.append(
                AgentState(agent_id=i, subpop_id=i // per, trainable=trainable, hyperparams=h)
            )
        self.population = Population(agents=agents, deltas=cfg.deltas)

    def train_eval_round(self) -> None:
        cfg = self.config
        for a in self.population.agents:
            a.trainable.set_hyperparams(self.space.to_mapping(a.hyperparams))
            a.trainable.train(cfg.t_ready)
            fitness = float(a.trainable.evaluate(cfg.eval_repeats))
            if not math.isfinite(fitness):
                raise ValueError(f"agent {a.agent_id} produced non-finite fitness {fitness!r}")
            a.snapshot_fitness = fitness

    def barrier_events(self, round_no: int) -> list[EvolutionEvent]:
        cfg = self.config
        pop = self.population
        if cfg.algorithm == "rs":
            return rs_round(pop, round_no)
        if cfg.algorithm == "mfpbt":
            mconf = MfpbtConfig(
                deltas=cfg.deltas,
                symmetric_migration=cfg.symmetric_migration,
                variance_exploitation=cfg.variance_exploitation,
                clamp_hyperparams=cfg.clamp_hyperparams,
            )
            return mfpbt_round(pop, round_no, self.evolve_rngs, mconf, self.space)
        if cfg.algorithm == "pbt_bt":
            update_elites(self.archive, pop, round_no)
            if subpop_due(round_no, cfg.backtrack_period):
                # Backtracking replaces this round's exploitation step.
                return backtrack(pop, self.archive, round_no)
        if not subpop_due(round_no, cfg.deltas[0]):
            return []
        return pbt_evolution_step(
            pop.agents,
            self.evolve_rngs,
            round_no,
            0,
            variance_exploitation=cfg.variance_exploitation,
            space=self.space,
            clamp=cfg.clamp_hyperparams,
        )

    # ------------------------------------------------------- checkpointing

    def checkpoint_dict(self, round_no: int) -> dict:
        agents = []
        for a in self.population.agents:
            agents.append(
                {
                    "agent_id": a.agent_id,
                    "subpop_id": a.subpop_id,
                    "hyperparams": list(a.hyperparams.values),
                    "fitness": a.snapshot_fitness,
                    "payload": a.trainable.export_payload(),
                    "evolve_state": self.evolve_rngs[a.agent_id].bit_generator.state,
                }
            )
        return {
            "round": round_no,
            "master_seed": self.seed,
            "agents": agents,
            "archive": self.archive.to_json_dict() if self.archive is not None else None,
        }

    def restore_checkpoint(self, data: dict) -> int:
        if data["master_seed"] != self.seed:
            raise ConfigError(
                f"seeds: the checkpoint was written with master seed {data['master_seed']}, "
                f"but this run uses seed {self.seed}"
            )
        cfg = self.config
        per = cfg.subpop_size
        agents = []
        for rec in data["agents"]:
            i = int(rec["agent_id"])
            trainable = build_trainable(cfg.trainable)
            trainable.import_payload(rec["payload"])
            agents.append(
                AgentState(
                    agent_id=i,
                    subpop_id=i // per,
                    trainable=trainable,
                    hyperparams=HyperparamVector(tuple(float(v) for v in rec["hyperparams"])),
                    snapshot_fitness=rec["fitness"],
                )
            )
            gen = np.random.default_rng()
            gen.bit_generator.state = rec["evolve_state"]
            self.evolve_rngs[i] = gen
        self.population = Population(agents=agents, deltas=cfg.deltas)
        if data.get("archive") is not None:
            self.archive = EliteArchive.from_json_dict(data["archive"])
        return int(data["round"])


def _write_atomic(path: Path, chunks: list[str]) -> None:
    """Replace path by chunks through a temp file that round_*.json never matches.

    No fsync: this protects against a crashed process, not a lost disk.
    """
    tmp = path.with_name(f".{path.name}.tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)
    os.replace(tmp, path)


def _truncate_log(path: Path, keep_round: int, read, header: int = 0) -> list:
    """Drop a log's records after keep_round, blank lines and a line torn by a kill
    mid-write; returns the kept records, decoded once by read(path, lines)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    if lines and not lines[-1].endswith("\n"):
        lines.pop()  # torn by a kill mid-write
    body = [line for line in lines[header:] if line.strip()]
    kept = [(line, rec) for line, rec in zip(body, read(path, lines)) if rec.round <= keep_round]
    _write_atomic(path, lines[:header] + [line for line, _ in kept])
    return [rec for _, rec in kept]


def run_experiment(
    config: ExperimentConfig,
    seed: int | None = None,
    out_dir: str | os.PathLike | None = None,
    *,
    stop_after_round: int | None = None,
    resume: bool = False,
) -> ExperimentResult:
    """Run one seed of one configured experiment.

    With out_dir=None the run happens entirely in memory (no files).
    resume=True picks up from the latest checkpoint in out_dir and
    truncates any partial rows written after it.
    """
    config.validate()
    seed = config.seeds[0] if seed is None else int(seed)
    if seed < 0:
        raise ConfigError(f"seeds: master seed must be non-negative, got {seed}")
    start = time.monotonic()

    run_dir = Path(out_dir) if out_dir is not None else None
    metrics_path = events_path = ckpt_dir = None
    if run_dir is not None:
        run_dir.mkdir(parents=True, exist_ok=True)
        metrics_path = run_dir / "metrics.csv"
        events_path = run_dir / "events.jsonl"
        ckpt_dir = run_dir / "checkpoints"

    engine = _Engine(config, seed)
    start_round = 0
    metrics: list[MetricRow] = []
    all_events: list[EvolutionEvent] = []

    if resume:
        if run_dir is None or ckpt_dir is None or not ckpt_dir.exists():
            raise ConfigError("resume requires an out_dir with checkpoints")
        snaps = sorted(ckpt_dir.glob("round_*.json"))
        if not snaps:
            raise ConfigError("resume requested but no checkpoint present")
        with open(snaps[-1], "r", encoding="utf-8") as fh:
            start_round = engine.restore_checkpoint(json.load(fh))
        metrics = _truncate_log(metrics_path, start_round, read_metrics, header=1)
        all_events = _truncate_log(events_path, start_round, read_events)
    else:
        engine.init_population()
        if run_dir is not None:
            echo = config.to_json_dict()
            echo["seeds"] = [seed]
            with open(run_dir / "config.json", "w", encoding="utf-8") as fh:
                json.dump(echo, fh, indent=2, sort_keys=True)
                fh.write("\n")
            with open(metrics_path, "w", encoding="utf-8") as fh:
                fh.write(_metrics_header(config.search_space) + "\n")
            with open(events_path, "w", encoding="utf-8") as fh:
                pass
            if config.checkpoint_every > 0:
                ckpt_dir.mkdir(exist_ok=True)

    # Initial vectors are a pure function of the seed; recompute so the
    # resume path reports them identically.
    initial_h = {
        i: sample_hyperparams(config.search_space, seed_hierarchy(seed, i, "init"))
        for i in range(config.num_agents)
    }

    last_round = config.num_rounds if stop_after_round is None else min(
        stop_after_round, config.num_rounds
    )
    for round_no in range(start_round + 1, last_round + 1):
        engine.train_eval_round()
        round_rows = [
            MetricRow(
                round=round_no,
                agent_id=a.agent_id,
                subpop_id=a.subpop_id,
                fitness=a.snapshot_fitness,
                hyperparams=a.hyperparams.values,
            )
            for a in engine.population.agents
        ]
        metrics.extend(round_rows)
        if metrics_path is not None:
            with open(metrics_path, "a", encoding="utf-8") as fh:
                for row in round_rows:
                    fh.write(_metric_line(row) + "\n")
                fh.flush()
        events = engine.barrier_events(round_no)
        all_events.extend(events)
        if events_path is not None and events:
            write_events(events_path, events, append=True)
        if (
            ckpt_dir is not None
            and config.checkpoint_every > 0
            and round_no % config.checkpoint_every == 0
        ):
            # json.dumps takes the C encoder; json.dump never does. Same bytes.
            _write_atomic(
                ckpt_dir / f"round_{round_no:06d}.json",
                [json.dumps(engine.checkpoint_dict(round_no))],
            )

    wall = time.monotonic() - start
    result = ExperimentResult(
        config=config,
        seed=seed,
        run_dir=str(run_dir) if run_dir is not None else None,
        metrics=metrics,
        events=all_events,
        initial_hyperparams=initial_h,
        wall_clock=wall,
    )
    if run_dir is not None and stop_after_round is None:
        counts: dict[str, int] = {}
        for ev in all_events:
            counts[ev.kind] = counts.get(ev.kind, 0) + 1
        summary = {
            "version": 1,
            "algorithm": config.algorithm,
            "master_seed": seed,
            "rounds": config.num_rounds,
            "final_best_fitness": result.final_best(),
            "final_best_agent_id": result.best_agent_at(config.num_rounds),
            "event_counts": counts,
            "wall_clock_seconds": wall,
        }
        with open(run_dir / "result.json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return result
