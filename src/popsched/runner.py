"""Experiment runner: synchronous generations over live trainables.

Every round the agents train t_ready steps and are evaluated; at the round
barrier the configured scheduler may rewrite agents in place, emitting the
events that describe what it did. Random search does nothing there; every
other barrier runs mfpbt_round (PBT as its one-sub-population case) unless
PBT with backtracking backtracks. The rounds up to the next whose barrier or
checkpoint reads an agent (stretch_ends) train in one train_rounds call.
Through the run's two open logs (RunDir.open_logs), each such stretch writes
and flushes its metric rows at once, then runs the barrier, then writes and
flushes its events, then writes its checkpoint, so a crashed run leaves a
valid prefix on disk that a resume picks up. A checkpoint is json.dumps of
the engine state, the elite archive's JSON spliced in and encoded only when
it changed. Its records are declared once (CHECKPOINT and AGENT here, ARCHIVE
and ELITE in baselines) and written with the declared keys; a resume checks
and restores them in one pass, then reads the events (read_events) and the
metrics rows up to the checkpoint (read_metrics) before it rewrites or opens
a file. A trainable is given hyperparameters only when its vector changed.

All streams derive from (master_seed, agent_id, kind), so results are
byte-identical across repeats. Each agent keeps one live trainable for
the whole run; payloads are exported only where state is persisted
(checkpoints and the elite archive); a metrics row keeps the hyperparameter
tuple its agent held (rundir.MetricTable). The files themselves are named
and formatted by the rundir module.
"""

from __future__ import annotations

import json
import math
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .baselines import ARCHIVE, ELITE, EliteArchive, EliteEntry, backtrack, update_elites
from .config import ANY, FINITE, INT, LIST, OBJECT_OR_NULL, ExperimentConfig, Shape
from .core import AgentState, ConfigError, Population, positive_reals, sample_hyperparams
from .events import EvolutionEvent, read_events, write_events
from .mfpbt import mfpbt_round, subpop_due
from .reporting import best_fitness_by_round
from .rundir import CHECKPOINT_NAME, MetricTable, RunDir, read_metrics, truncate_logs
from .seeding import agent_trainable_seed, restore_generator, seed_hierarchy
from .trainables import build_trainable


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    seed: int
    run_dir: str | None
    metrics: MetricTable
    events: list[EvolutionEvent]
    initial_hyperparams: dict[int, tuple[float, ...]]
    wall_clock: float

    def best_by_round(self) -> list[float]:
        return best_fitness_by_round(self.metrics.fitness, self.config.num_agents)

    def final_best(self) -> float:
        return self.best_by_round()[-1]

    def best_agent_at(self, round_no: int) -> int:
        """Best snapshot fitness at a round; ties go to the lower agent id."""
        n = self.config.num_agents
        block = self.metrics.fitness[(round_no - 1) * n:round_no * n]
        if round_no < 1 or not block:
            raise ValueError(f"no metrics for round {round_no}")
        return block.index(max(block))


# The records _Engine.checkpoint_dict writes, each key with its value's shape (the archive's are in baselines).
CHECKPOINT = {"round": INT, "master_seed": INT, "agents": LIST, "archive": OBJECT_OR_NULL}
AGENT = {"agent_id": INT, "subpop_id": INT, "hyperparams": LIST, "fitness": FINITE, "payload": ANY, "evolve_state": ANY}


def _checked(record, shapes: dict[str, Shape], name: str, at) -> list:
    """record's values in shapes' order, uncoerced, once record is an object of exactly shapes' keys
    and each value has its shape; else a ConfigError naming the key (or name, the record's) and at."""
    if not isinstance(record, dict) or record.keys() != shapes.keys():
        got = sorted(record) if isinstance(record, dict) else type(record).__name__
        raise ConfigError(f"{name}: {at} must be an object of the keys {sorted(shapes)}, got {got}")
    for key, shape in shapes.items():
        if not shape.test(record[key]):
            raise ConfigError(f"{key}: {at} must be {shape.expected}, got {record[key]!r}")
    return [record[key] for key in shapes]


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
        self.pushed: dict[int, tuple[float, ...]] = {}  # agent id -> the vector object its trainable holds
        per = config.subpop_size
        agents = []
        for i in range(config.num_agents):  # the initial population, which a restore overwrites
            h = sample_hyperparams(self.space, seed_hierarchy(self.seed, i, "init"))
            trainable = build_trainable(config.trainable)
            trainable.init(agent_trainable_seed(self.seed, i), self.space.to_mapping(h))
            self.pushed[i] = h
            agents.append(
                AgentState(agent_id=i, subpop_id=i // per, trainable=trainable, hyperparams=h)
            )
        self.population = Population(agents=agents, deltas=config.deltas)

    def train_eval_rounds(self, rounds: int) -> list[float]:
        """Train and evaluate the next rounds with one train_rounds call; their fitness, row after row."""
        cfg = self.config
        agents = self.population.agents
        for a in agents:
            if self.pushed.get(a.agent_id) is not a.hyperparams:  # set by the barrier or a restore
                a.trainable.set_hyperparams(self.space.to_mapping(a.hyperparams))
                self.pushed[a.agent_id] = a.hyperparams
        rows = type(agents[0].trainable).train_rounds([a.trainable for a in agents], cfg.t_ready, rounds,
                                                      cfg.eval_repeats)
        fitness = [f for row in rows for f in row]
        if not all(map(math.isfinite, fitness)):
            k = next(k for k, f in enumerate(fitness) if not math.isfinite(f))
            raise ValueError(f"agent {k % len(agents)} produced non-finite fitness {fitness[k]!r}")
        for a, f in zip(agents, rows[-1]):
            a.snapshot_fitness = f
        return fitness

    def stretch_ends(self, first: int, last: int) -> list[int]:
        """Each round after first, to last, whose barrier (see subpop_due) or checkpoint reads an agent; and last."""
        periods = {"rs": (), "pbt_bt": (1,)}.get(self.config.algorithm, self.config.deltas)
        periods += (self.config.checkpoint_every,) if self.config.checkpoint_every > 0 else ()
        return sorted({last}.union(*(range(first - first % p + p, last, p) for p in periods))) if first < last else []

    def barrier_events(self, round_no: int) -> list[EvolutionEvent]:
        cfg = self.config
        pop = self.population
        if cfg.algorithm == "rs":
            return []
        if cfg.algorithm == "pbt_bt":
            update_elites(self.archive, pop, round_no)
            if subpop_due(round_no, cfg.backtrack_period):
                # Backtracking replaces this round's exploitation step.
                return backtrack(pop, self.archive, round_no)
        return mfpbt_round(
            pop, round_no, self.evolve_rngs, symmetric_migration=cfg.symmetric_migration,
            variance_exploitation=cfg.variance_exploitation, space=self.space,
            clamp=cfg.clamp_hyperparams,
        )

    # ------------------------------------------------------- checkpointing

    def checkpoint_dict(self, round_no: int) -> dict:
        agents = [dict(zip(AGENT, (a.agent_id, a.subpop_id, list(a.hyperparams), a.snapshot_fitness,
                                   a.trainable.export_payload(), self.evolve_rngs[a.agent_id].bit_generator.state)))
                  for a in self.population.agents]
        archive = self.archive.to_json_dict() if self.archive is not None else None
        return dict(zip(CHECKPOINT, (round_no, self.seed, agents, archive)))

    def checkpoint_text(self, round_no: int) -> str:
        """json.dumps(self.checkpoint_dict(round_no)); its last key, the archive, is cached text."""
        archive = self.archive.json_text() if self.archive is not None else "null"
        head = json.dumps({**self.checkpoint_dict(round_no), "archive": None}, check_circular=False)
        return head[: -len("null}")] + archive + "}"

    def restore_checkpoint(self, path: Path, data) -> int:
        """Overwrite the initial population with the checkpoint data read from path, in one pass over its
        records, each read once _checked passes it; returns its round. Refuses, naming the field and path,
        another seed, elite capacity or file round, agents not 0..num_agents-1 in order, an elite of no agent
        or of a later round, elites of another count or out of rank order, and a vector, payload or
        evolve_state the run cannot hold (the run then stops)."""
        cfg = self.config
        round_no, seed, recs, archive = _checked(data, CHECKPOINT, "checkpoint", path)
        capacity, entries = _checked(archive, ARCHIVE, "archive", path) if archive is not None else (None, [])
        if path.name != CHECKPOINT_NAME.format(round_no):
            raise ConfigError(f"round: {path} holds round {round_no}, "
                              f"but its file is not {CHECKPOINT_NAME.format(round_no)}")
        if seed != self.seed:
            raise ConfigError(f"seeds: the checkpoint was written with master seed {seed}, "
                              f"but this run uses seed {self.seed}")
        if len(recs) != cfg.num_agents:
            raise ConfigError(f"num_agents: {path} holds {len(recs)} agents, but this run has {cfg.num_agents}")
        if capacity != cfg.elite_capacity:
            raise ConfigError(f"elite_capacity: {path} holds an elite archive of capacity {capacity!r}, "
                              f"but this run has {cfg.elite_capacity!r}")
        for i, rec in enumerate(recs):
            agent_id, _, hps, _, payload, state = _checked(rec, AGENT, "agents", f"{path} for agent {i}")
            if agent_id != i:
                raise ConfigError(f"agent_id: {path} holds agent {agent_id!r} where agent {i} belongs")
            agent = self.population.agents[i]
            agent.hyperparams = self._import_vector_and_payload(path, f"agent {i}", hps, payload, agent.trainable)
            try:
                self.evolve_rngs[i] = restore_generator(state)
            except (KeyError, OverflowError, TypeError, ValueError) as exc:
                raise ConfigError(f"evolve_state: {path} holds a state for agent {i} that numpy's PCG64 "
                                  f"refuses: {type(exc).__name__}: {exc}") from None
        probe = build_trainable(cfg.trainable)  # takes each elite payload
        for i, rec in enumerate(entries):  # into self.archive, empty and of the checked capacity
            at = f"{path} for elite {i}"
            payload, hps, fitness, agent_id, elite_round = _checked(rec, ELITE, "entries", at)
            if not 0 <= agent_id < cfg.num_agents:
                raise ConfigError(f"agent_id: {at} must be in 0..{cfg.num_agents - 1}, got {agent_id}")
            if not 1 <= elite_round <= round_no:
                raise ConfigError(f"round: {at} must be in 1..{round_no}, got {elite_round}")
            h = self._import_vector_and_payload(path, f"elite {i}", hps, payload, probe)
            self.archive.entries.append(EliteEntry(payload, h, fitness, agent_id, elite_round))
        if self.archive is not None:  # as EliteArchive.update keeps it: the capacity best snapshots, ranked
            keys = [(-e.fitness, e.agent_id, e.round) for e in self.archive.entries]
            want = min(capacity, round_no * cfg.num_agents)
            if len(keys) != want:
                raise ConfigError(f"entries: {path} holds {len(keys)} elites, but an archive of capacity {capacity} "
                                  f"holds {want} after {round_no} rounds of {cfg.num_agents} agents")
            unranked = [i for i in range(1, want) if keys[i - 1] >= keys[i]]
            if unranked:
                raise ConfigError(f"entries: {path} holds elite {unranked[0]} out of rank order: each elite must "
                                  "rank below the one before it (lower fitness; on a tie, a higher agent_id; "
                                  "then a later round)")
        return round_no

    def _import_vector_and_payload(self, path: Path, owner: str, hps: list, payload, target) -> tuple[float, ...]:
        """hps as owner's vector, once it is search_space wide, positive_reals passes it and target imports payload."""
        if len(hps) != len(self.space):
            raise ConfigError(f"hyperparams: {path} holds {len(hps)} values for {owner}, "
                              f"but search_space has {len(self.space)}")
        h = positive_reals(hps, f"hyperparams: {path} for {owner}")
        try:
            target.import_payload(payload)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"payload: {path} holds a payload for {owner} that a {target.kind} "
                              f"trainable refuses: {type(exc).__name__}: {exc}") from None
        return h


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
    resume=True picks up from the latest checkpoint in out_dir and truncates
    any partial rows written after it; it refuses a directory whose
    config.json differs from this run's config, whose checkpoint the run cannot
    hold (_Engine.restore_checkpoint), whose event log read_events
    refuses (as `popsched lineage` does), or whose metrics rows up to the
    checkpoint read_metrics refuses, and touches no file then.
    """
    config.validate()
    seed = config.seeds[0] if seed is None else int(seed)
    if seed < 0:
        raise ConfigError(f"seeds: master seed must be non-negative, got {seed}")
    start = time.monotonic()

    run = RunDir(out_dir) if out_dir is not None else None
    engine = _Engine(config, seed)
    start_round = 0
    metrics = MetricTable(config)
    all_events: list[EvolutionEvent] = []

    initial_h = {a.agent_id: a.hyperparams for a in engine.population.agents}  # taken before a restore
    if resume:
        if run is None:
            raise ConfigError("resume requires an out_dir with checkpoints")
        start_round = engine.restore_checkpoint(*run.resume_state(config, seed))
        read_log = partial(read_events, num_agents=config.num_agents, num_hyperparams=len(config.search_space))
        all_events, metrics = truncate_logs(
            (run.events, lambda path, lines: [ev for ev in read_log(path, lines) if ev.round <= start_round], 0),
            (run.metrics, partial(read_metrics, config=config, rounds=start_round), 1))
    elif run is not None:
        run.create(config, seed)

    last_round = config.num_rounds if stop_after_round is None else min(
        stop_after_round, config.num_rounds
    )
    ends = engine.stretch_ends(start_round, last_round)
    with run.open_logs() if run is not None else nullcontext():
        for first, round_no in zip([start_round, *ends], ends):  # rounds first+1 .. round_no, then the barrier
            fitness = engine.train_eval_rounds(round_no - first)
            metrics.fitness.extend(fitness)
            metrics.hyperparams.extend([a.hyperparams for a in engine.population.agents] * (round_no - first))
            if run is not None:
                run.append_metrics(metrics, len(metrics) - len(fitness))
            events = engine.barrier_events(round_no)
            all_events.extend(events)
            if run is not None and events:
                write_events(run.events_log, events)
            if run is not None and config.checkpoint_every > 0 and round_no % config.checkpoint_every == 0:
                run.write_checkpoint(round_no, engine.checkpoint_text(round_no))

    result = ExperimentResult(
        config=config,
        seed=seed,
        run_dir=str(run.root) if run is not None else None,
        metrics=metrics,
        events=all_events,
        initial_hyperparams=initial_h,
        wall_clock=time.monotonic() - start,
    )
    if run is not None and stop_after_round is None:
        run.write_result(result)
    return result
