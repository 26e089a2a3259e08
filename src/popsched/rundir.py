"""The run directory: the only module that names or formats its files.

    config.json     canonical config echo (seeds pinned to the run's seed)
    metrics.csv     round,agent_id,subpop_id,fitness,<one column per hyperparameter>
    events.jsonl    one EvolutionEvent per line, in application order (codec in events.py)
    checkpoints/    full engine state per round (when enabled)
    result.json     summary incl. wall-clock
    schedule.csv    a lineage's schedule, written by `popsched lineage`

Checkpoints, and the logs a resume truncates, are replaced atomically
(temp file, then os.replace), so a crash leaves the old file or the new
one, never a partial one. A resume rewrites a log only when it drops a
torn line, a blank line or a record after the checkpoint. metrics.csv is
parsed by one np.loadtxt call; a resume decodes each log line once.
read_run, the reader of `lineage` and `report`, takes metrics only in the
shape the writer writes: rounds 1..R in order (R at most num_rounds), each
num_agents rows in agent-id order with the config's subpop_id for that
agent and a finite fitness, the last row ending in a newline. It refuses
anything else, a run killed mid-round too (which a resume still takes),
with ValueError("<path>: line <n>: ..."), which the CLI exits 1 on.
"""

from __future__ import annotations

import json
import os
import warnings
from collections import Counter
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .config import ExperimentConfig
from .core import ConfigError
from .events import text

if TYPE_CHECKING:
    from .runner import ExperimentResult


class MetricRow(NamedTuple):
    round: int
    agent_id: int
    subpop_id: int
    fitness: float
    hyperparams: tuple[float, ...]


def fmt(x: float) -> str:
    """Every float this package writes to CSV: repr, which reads back exactly."""
    return repr(float(x))


def _config_echo(config: ExperimentConfig, seed: int) -> dict:
    """config.json: the canonical config with seeds pinned to the run's seed."""
    return {**config.to_json_dict(), "seeds": [seed]}


class RunDir:
    """The files of one run directory, and the writes a run makes to them."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.config = self.root / "config.json"
        self.metrics = self.root / "metrics.csv"
        self.events = self.root / "events.jsonl"
        self.checkpoints = self.root / "checkpoints"
        self.result = self.root / "result.json"
        self.schedule = self.root / "schedule.csv"

    def create(self, config: ExperimentConfig, seed: int) -> None:
        """Start a fresh run: config echo, header-only metrics.csv, empty events.jsonl."""
        self.root.mkdir(parents=True, exist_ok=True)
        _write_json(self.config, _config_echo(config, seed))
        header = ["round", "agent_id", "subpop_id", "fitness", *config.search_space.names]
        with open(self.metrics, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
        open(self.events, "w", encoding="utf-8").close()
        if config.checkpoint_every > 0:
            self.checkpoints.mkdir(exist_ok=True)

    def append_metrics(self, rows: Sequence[MetricRow]) -> None:
        with open(self.metrics, "a", encoding="utf-8") as fh:
            for row in rows:
                values = map(fmt, (row.fitness, *row.hyperparams))
                fh.write(",".join([str(row.round), str(row.agent_id), str(row.subpop_id), *values]) + "\n")

    def write_checkpoint(self, round_no: int, state: str) -> None:
        """state: the engine state as json.dumps writes it (runner.checkpoint_text)."""
        _write_atomic(self.checkpoints / f"round_{round_no:06d}.json", [state])

    def resume_state(self, config: ExperimentConfig, seed: int) -> dict:
        """The latest checkpoint, once config.json matches this run's echo.

        Seeds are left out: restoring checks the checkpoint's master seed.
        """
        if not self.checkpoints.exists():
            raise ConfigError("resume requires an out_dir with checkpoints")
        snaps = sorted(self.checkpoints.glob("round_*.json"))  # never a temp file
        if not snaps:
            raise ConfigError("resume requested but no checkpoint present")
        stored = load_run_config(self.root)[0].to_json_dict()
        for key, value in _config_echo(config, seed).items():
            if key != "seeds" and stored[key] != value:
                raise ConfigError(f"{key}: {self.config} has {stored[key]!r}, but this run has {value!r}")
        with open(snaps[-1], "r", encoding="utf-8") as fh:
            return json.load(fh)

    def write_result(self, result: ExperimentResult) -> None:
        rounds = result.config.num_rounds
        _write_json(self.result, {
            "version": 1,
            "algorithm": result.config.algorithm,
            "master_seed": result.seed,
            "rounds": rounds,
            "final_best_fitness": result.final_best(),
            "final_best_agent_id": result.best_agent_at(rounds),
            "event_counts": Counter(ev.kind for ev in result.events),
            "wall_clock_seconds": result.wall_clock,
        })


def load_run_config(run_dir) -> tuple[ExperimentConfig, int]:
    """Read a run directory's config echo; returns (config, master_seed)."""
    with open(RunDir(run_dir).config, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    cfg = ExperimentConfig.from_json_dict(data)
    return cfg, cfg.seeds[0]


def read_run(run_dir) -> tuple[ExperimentConfig, int, list[list]]:
    """A run directory's config, master seed and metrics.csv columns (read_metric_columns),
    once the rows have the writer's shape (module docstring); the line named counts blank lines."""
    config, seed = load_run_config(run_dir)
    path = RunDir(run_dir).metrics
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    table = _metric_table(path, lines)
    rounds, agents, subpops, fitness = (table[name] for name in table.dtype.names[:4])
    n, last, row = config.num_agents, config.num_agents * config.num_rounds, np.arange(len(table))
    torn = bool(lines and lines[-1].strip() and not lines[-1].endswith("\n"))  # as truncate_log
    ok = np.append((rounds == row // n + 1) & (agents == row % n) & (row < last) & (row < len(row) - torn)
                   & (subpops == row % n // config.subpop_size) & np.isfinite(fitness),
                   len(row) % n == 0)  # past the last row: no round cut short
    if not ok.all():
        i = int(ok.argmin())  # the first row not as written, or the end of the file
        line_no = ([k for k, line in enumerate(lines[1:], 2) if line.strip()] + [len(lines) + 1])[i]
        want = (f"round {i // n + 1}, agent {i % n}, subpop_id {i % n // config.subpop_size}, "
                "a finite fitness" if i < last else f"the end of the file after round {config.num_rounds}")
        found = ("round {}, agent {}, subpop_id {}, fitness {!r}".format(*table[i].tolist())
                 if i < len(row) else "the end of the file")
        cut = " on a last line with no newline, cut short" if torn and i == len(row) - 1 else ""
        raise ValueError(f"{path}: line {line_no}: expected {want}; found {found}{cut}")
    return config, seed, [table[name].tolist() for name in table.dtype.names]


def read_metric_columns(path, lines: Sequence[str] | None = None) -> list[list]:
    """metrics.csv by column: rounds, agent ids, subpop ids, fitness, then one
    column per hyperparameter (int64 ids, float64 values)."""
    table = _metric_table(path, lines)
    return [table[name].tolist() for name in table.dtype.names]


def _metric_table(path, lines: Sequence[str] | None = None) -> np.ndarray:
    """metrics.csv's rows as one structured array (int64 ids, float64 values), parsed by one
    np.loadtxt call; a file it rejects is parsed line by line to name the bad line."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")  # header only
        # older numpy reads an id such as 1.5 or 2**63 through a float, warning only
        warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
        with text(path, lines) as fh:
            width = max(len(next(fh, "").split(",")), 4)  # an empty file has no rows
            dtype = np.dtype(",".join(["i8"] * 3 + ["f8"] * (width - 3)))
            try:
                return np.loadtxt(filter(str.strip, fh), dtype, delimiter=",", comments=None, ndmin=1)
            except ValueError as exc:
                error = exc
        with text(path, lines) as fh:
            for line_no, line in enumerate(islice(fh, 1, None), 2):
                try:
                    if line.strip():
                        np.loadtxt([line], dtype, delimiter=",", comments=None)
                except ValueError as exc:
                    raise ValueError(f"{path}: line {line_no}: {exc}") from None
    raise ValueError(f"{path}: {error}")


def read_metrics(path, lines: Sequence[str] | None = None) -> list[MetricRow]:
    rounds, agents, subpops, fitness, *hyperparams = read_metric_columns(path, lines)
    return list(map(MetricRow, rounds, agents, subpops, fitness, zip(*hyperparams)))


def truncate_log(path: Path, keep_round: int, read, header: int = 0) -> list:
    """Drop a log's records after keep_round, blank lines and a line torn by a kill
    mid-write; returns the kept records, decoded once by read(path, lines).
    A log with nothing to drop is left as it is."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    logged = len(lines) - header
    if lines and not lines[-1].endswith("\n"):
        lines.pop()  # torn by a kill mid-write
    body = [line for line in lines[header:] if line.strip()]
    kept = [(line, rec) for line, rec in zip(body, read(path, lines)) if rec.round <= keep_round]
    if len(kept) != logged:  # a record, a blank line or a torn one to drop
        _write_atomic(path, lines[:header] + [line for line, _ in kept])
    return [rec for _, rec in kept]


def _write_atomic(path: Path, chunks: list[str]) -> None:
    """Replace path by chunks through a temp file that round_*.json never matches.

    No fsync: this protects against a crashed process, not a lost disk.
    """
    tmp = path.with_name(f".{path.name}.tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)
    os.replace(tmp, path)


def _write_json(path: Path, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
