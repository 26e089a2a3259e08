"""The run directory: the only module that names or formats its files.

    config.json     canonical config echo (seeds pinned to the run's seed)
    metrics.csv     round,agent_id,subpop_id,fitness,<one column per hyperparameter>
    events.jsonl    one EvolutionEvent per line, in application order (codec in events.py)
    checkpoints/    full engine state per round (when enabled)
    result.json     summary incl. wall-clock
    schedule.csv    a lineage's schedule, written by `popsched lineage`

config.json, checkpoints, result.json and the logs a resume truncates are
replaced atomically (temp file, then os.replace), so a crash leaves the old
file or the new one, never a partial one. A resume takes the latest
checkpoint (resume_state refuses one that is not JSON) only if the engine's
restore accepts every record in it, before any file is touched, and rewrites
a log only to drop a torn line, a blank line or a record after the
checkpoint. A RunDir holds both logs open once create or truncate_logs is
done (open_logs) and formats each vector's cells once. metrics.csv is
parsed by one np.loadtxt call; a resume decodes each log line once.
read_metrics, the one reader of its rows, takes them only in the shape
the writer writes: metrics_header, then rounds 1..R in order, each
num_agents rows in agent-id order with the config's subpop_id for that
agent, a finite fitness and positive finite hyperparameter cells. For
`lineage` and `report` (read_run) that is the whole file, R at most
num_rounds and the last row ending in a newline; for a resume, the rows
up to its checkpoint. It refuses anything else with
ValueError("<path>: line <n>: ..."), which the CLI exits 1 on, and
returns a MetricTable.
"""

from __future__ import annotations

import json
import os
import warnings
from array import array
from collections import Counter
from collections.abc import Sequence
from contextlib import contextmanager
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .config import ExperimentConfig
from .core import ConfigError
from .events import text

if TYPE_CHECKING:
    from .runner import ExperimentResult

CHECKPOINT_NAME = "round_{:06d}.json"  # checkpoints/ file of round r: CHECKPOINT_NAME.format(r)


class MetricRow(NamedTuple):
    round: int
    agent_id: int
    subpop_id: int
    fitness: float
    hyperparams: tuple[float, ...]


class MetricTable(Sequence):
    """A run's metric rows, read-only, as columns: fitness in an array('d') and per row a
    reference to its hyperparameter tuple. Rows are num_agents-row round blocks in agent-id
    order, so round, agent_id and subpop_id follow from a row's index; reading builds its row."""

    def __init__(self, config: ExperimentConfig, fitness=(), hyperparams=()) -> None:
        self.num_agents, self.subpop_size = config.num_agents, config.subpop_size
        self.fitness = array("d", fitness)
        self.hyperparams: list[tuple[float, ...]] = list(hyperparams)

    def __len__(self) -> int:
        return len(self.fitness)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(len(self))[i]]
        k, n = range(len(self))[i], self.num_agents  # a negative index counts from the end
        return MetricRow(k // n + 1, k % n, k % n // self.subpop_size, self.fitness[k], self.hyperparams[k])

    def __eq__(self, other) -> bool:
        return list(self) == list(other) if isinstance(other, (list, MetricTable)) else NotImplemented


def metrics_header(config: ExperimentConfig) -> str:
    """metrics.csv's first line, without its newline."""
    return ",".join(["round", "agent_id", "subpop_id", "fitness", *config.search_space.names])


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
        self._cells: dict[tuple[float, ...], str] = {}  # a vector's metrics.csv cells, once per run

    def create(self, config: ExperimentConfig, seed: int) -> None:
        """Start a fresh run: config echo, header-only metrics.csv, empty events.jsonl."""
        self.root.mkdir(parents=True, exist_ok=True)
        _write_json(self.config, _config_echo(config, seed))
        with open(self.metrics, "w", encoding="utf-8") as fh:
            fh.write(metrics_header(config) + "\n")
        open(self.events, "w", encoding="utf-8").close()
        if config.checkpoint_every > 0:
            self.checkpoints.mkdir(exist_ok=True)

    @contextmanager
    def open_logs(self):
        """Hold metrics.csv and events.jsonl open for append as metrics_log and events_log; both close on any exit."""
        with (open(self.metrics, "a", encoding="utf-8") as self.metrics_log,
              open(self.events, "a", encoding="utf-8") as self.events_log):
            yield

    def append_metrics(self, table: MetricTable, start: int) -> None:
        """Write table's rows from index start (a round boundary) in one write, and flush. Ids follow the
        row index; a vector's cells are formatted once per run (positive reals: equal vectors print alike)."""
        n, per, cells, vectors = table.num_agents, table.subpop_size, self._cells, table.hyperparams[start:]
        for hps in vectors:
            if hps not in cells:
                cells[hps] = ",".join(map(fmt, hps))
        rows = zip(range(start, len(table)), table.fitness[start:], vectors)  # fitness!r is fmt(fitness)
        self.metrics_log.write("".join([f"{k // n + 1},{k % n},{k % n // per},{fitness!r},{cells[hps]}\n"
                                        for k, fitness, hps in rows]))
        self.metrics_log.flush()

    def write_checkpoint(self, round_no: int, state: str) -> None:
        """state: the engine state as json.dumps writes it (runner.checkpoint_text)."""
        _write_atomic(self.checkpoints / CHECKPOINT_NAME.format(round_no), [state])

    def resume_state(self, config: ExperimentConfig, seed: int) -> tuple[Path, dict]:
        """The latest checkpoint's path and state, once config.json matches this run's echo but for seeds."""
        if not self.checkpoints.exists():
            raise ConfigError("resume requires an out_dir with checkpoints")
        snaps = sorted(self.checkpoints.glob("round_*.json"))  # never a temp file
        if not snaps:
            raise ConfigError("resume requested but no checkpoint present")
        stored = load_run_config(self.root)[0].to_json_dict()
        for key, value in _config_echo(config, seed).items():
            if key != "seeds" and stored[key] != value:
                raise ConfigError(f"{key}: {self.config} has {stored[key]!r}, but this run has {value!r}")
        try:
            return snaps[-1], json.loads(snaps[-1].read_text(encoding="utf-8"))
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ConfigError(f"checkpoint: {snaps[-1]} is not JSON: {exc}") from None

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


def read_run(run_dir) -> tuple[ExperimentConfig, int, MetricTable]:
    """A run directory's config, master seed and metrics (read_metrics of the whole file)."""
    config, seed = load_run_config(run_dir)
    return config, seed, read_metrics(RunDir(run_dir).metrics, config)


def read_metrics(path, config: ExperimentConfig, rounds: int | None = None,
                 lines: Sequence[str] | None = None) -> MetricTable:
    """metrics.csv's rows in the writer's shape (module docstring): the whole file, or with
    rounds the rows of rounds 1..rounds that a resume keeps; later rows are then neither
    checked nor kept. The line a refusal names counts blank lines."""
    with text(path, lines) as fh:
        lines = list(fh)
    header = metrics_header(config)
    found = lines[0].rstrip("\n") if lines else "the end of the file"
    if found != header:
        raise ValueError(f"{path}: line 1: expected {header}; found {found}")
    n = config.num_agents
    last = n * (config.num_rounds if rounds is None else rounds)
    table = _metric_table(path, lines)[:None if rounds is None else last]
    logged_rounds, agents, subpops, fitness, *hps = (table[name] for name in table.dtype.names)
    row = np.arange(len(table))
    torn = bool(lines and lines[-1].strip() and not lines[-1].endswith("\n"))  # as truncate_logs
    ok = np.append((logged_rounds == row // n + 1) & (agents == row % n) & (row < last) & (row < len(row) - torn)
                   & (subpops == row % n // config.subpop_size) & np.isfinite(fitness)
                   & np.logical_and.reduce([(0 < h) & (h < np.inf) for h in hps]),  # as positive_reals requires
                   len(row) % n == 0 if rounds is None else len(row) == last)  # no round cut short
    if not ok.all():
        i = int(ok.argmin())  # the first row not as written, or the end of the file
        line_no = ([k for k, line in enumerate(lines[1:], 2) if line.strip()] + [len(lines) + 1])[i]
        want = (f"round {i // n + 1}, agent {i % n}, subpop_id {i % n // config.subpop_size}, a finite fitness "
                "and positive finite hyperparameters" if i < last else
                f"the end of the file after round {config.num_rounds}")
        names = ("round", "agent", "subpop_id", "fitness", *config.search_space.names)
        found = (", ".join(f"{name} {value!r}" for name, value in zip(names, table[i].tolist()))
                 if i < len(row) else "the end of the file")
        cut = " on a last line with no newline, cut short" if torn and i == len(row) - 1 else ""
        raise ValueError(f"{path}: line {line_no}: expected {want}; found {found}{cut}")
    kept, vectors = zip(*(h.tolist() for h in hps)), {}  # one tuple per distinct vector
    return MetricTable(config, fitness.tobytes(), [vectors.setdefault(v, v) for v in kept])


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
                if line.strip() and line.count(",") + 1 != width:
                    raise ValueError(f"{path}: line {line_no}: expected {width} cells; found {line.count(',') + 1}")
                try:
                    if line.strip():
                        np.loadtxt([line], dtype, delimiter=",", comments=None)
                except ValueError as exc:
                    raise ValueError(f"{path}: line {line_no}: {exc}") from None
    raise ValueError(f"{path}: {error}")


def truncate_logs(*logs: tuple[Path, Callable[..., Sequence], int]) -> list[Sequence]:
    """Cut each (path, read, header) log back to the prefix of records read(path, lines) keeps,
    dropping blank lines and a line torn by a kill mid-write (read never sees it); returns
    the kept records. Every log is read before any is rewritten, once it needs to be."""
    cuts = []
    for path, read, header in logs:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        torn = bool(lines) and not lines[-1].endswith("\n")  # by a kill mid-write
        cuts.append((path, lines, header, read(path, lines=lines[:len(lines) - torn])))
    for path, lines, header, kept in cuts:
        if len(kept) != len(lines) - header:  # a record, a blank line or a torn one to drop
            _write_atomic(path, lines[:header] + [line for line in lines[header:] if line.strip()][:len(kept)])
    return [kept for *_, kept in cuts]


def _write_atomic(path: Path, chunks: list[str]) -> None:
    """Replace path, a whole file, by chunks through a temp file that round_*.json never matches.

    No fsync: this protects against a crashed process, not a lost disk.
    """
    tmp = path.with_name(f".{path.name}.tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)
    os.replace(tmp, path)


def _write_json(path: Path, data: dict) -> None:
    _write_atomic(path, [json.dumps(data, indent=2, sort_keys=True), "\n"])
