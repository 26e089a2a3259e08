"""Experiment runner: synchronous generations over live trainables.

Every round the agents train t_ready steps in one train_all call and are
evaluated; at the round barrier the configured scheduler may rewrite
agents in place, emitting the events that describe what it did. Random
search does nothing there; every other barrier runs mfpbt_round (PBT as
its one-sub-population case) unless PBT with backtracking backtracks.
Through the run's two open logs (RunDir.open_logs), each round writes
and flushes its metric rows, then runs the barrier, then writes and
flushes its events, then writes its checkpoint, so a crashed run leaves a
valid prefix on disk that a resume picks up; resume reads the events with
read_events, whose check `popsched lineage` runs too, and the metrics rows
up to the checkpoint with read_metrics, and rewrites either before it
opens them. A checkpoint is json.dumps of the engine state with the elite
archive's JSON spliced in, encoded only when the archive changed; a
trainable is given hyperparameters only when its agent's vector changed
(or was restored).

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

from .baselines import EliteArchive, backtrack, update_elites
from .config import ExperimentConfig
from .core import AgentState, ConfigError, HyperparamVector, Population, sample_hyperparams
from .events import EvolutionEvent, read_events, write_events
from .mfpbt import mfpbt_round, subpop_due
from .reporting import best_fitness_by_round
from .rundir import MetricTable, RunDir, read_metrics, truncate_logs
from .seeding import agent_trainable_seed, restore_generator, seed_hierarchy
from .trainables import build_trainable


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    seed: int
    run_dir: str | None
    metrics: MetricTable
    events: list[EvolutionEvent]
    initial_hyperparams: dict[int, HyperparamVector]
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
        self.pushed: dict[int, HyperparamVector] = {}  # agent id -> vector its trainable holds

    def init_population(self) -> None:
        cfg = self.config
        per = cfg.subpop_size
        agents = []
        for i in range(cfg.num_agents):
            h = sample_hyperparams(self.space, seed_hierarchy(self.seed, i, "init"))
            trainable = build_trainable(cfg.trainable)
            trainable.init(agent_trainable_seed(self.seed, i), self.space.to_mapping(h))
            self.pushed[i] = h
            agents.append(
                AgentState(agent_id=i, subpop_id=i // per, trainable=trainable, hyperparams=h)
            )
        self.population = Population(agents=agents, deltas=cfg.deltas)

    def train_eval_round(self) -> None:
        cfg = self.config
        agents = self.population.agents
        for a in agents:
            if self.pushed.get(a.agent_id) is not a.hyperparams:  # set by the barrier or a restore
                a.trainable.set_hyperparams(self.space.to_mapping(a.hyperparams))
                self.pushed[a.agent_id] = a.hyperparams
        type(agents[0].trainable).train_all([a.trainable for a in agents], cfg.t_ready)
        for a in agents:
            fitness = float(a.trainable.evaluate(cfg.eval_repeats))
            if not math.isfinite(fitness):
                raise ValueError(f"agent {a.agent_id} produced non-finite fitness {fitness!r}")
            a.snapshot_fitness = fitness

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
        agents = [
            {
                "agent_id": a.agent_id,
                "subpop_id": a.subpop_id,
                "hyperparams": list(a.hyperparams.values),
                "fitness": a.snapshot_fitness,
                "payload": a.trainable.export_payload(),
                "evolve_state": self.evolve_rngs[a.agent_id].bit_generator.state,
            }
            for a in self.population.agents
        ]
        return {
            "round": round_no,
            "master_seed": self.seed,
            "agents": agents,
            "archive": self.archive.to_json_dict() if self.archive is not None else None,
        }

    def checkpoint_text(self, round_no: int) -> str:
        """json.dumps(self.checkpoint_dict(round_no)); its last key, the archive, is cached text."""
        archive = self.archive.json_text() if self.archive is not None else "null"
        head = json.dumps({**self.checkpoint_dict(round_no), "archive": None}, check_circular=False)
        return head[: -len("null}")] + archive + "}"

    def restore_checkpoint(self, path: os.PathLike, data: dict) -> int:
        """Restore the checkpoint read from path; refuses, naming the field and path, one of another
        seed, one whose agents are not 0..num_agents-1 in order, or a vector not len(search_space) wide."""
        cfg, (seed, recs) = self.config, (data["master_seed"], data["agents"])
        per, width = cfg.subpop_size, len(cfg.search_space)
        if seed != self.seed:
            raise ConfigError(f"seeds: the checkpoint was written with master seed {seed}, "
                              f"but this run uses seed {self.seed}")
        if len(recs) != cfg.num_agents:
            raise ConfigError(f"num_agents: {path} holds {len(recs)} agents, but this run has {cfg.num_agents}")
        archive = data.get("archive")
        for owner, owned in ("agent", recs), ("elite", archive["entries"] if archive is not None else []):
            for i, rec in enumerate(owned):
                if owner == "agent" and rec["agent_id"] != i:
                    raise ConfigError(f"agent_id: {path} holds agent {rec['agent_id']!r} where agent {i} belongs")
                if len(rec["hyperparams"]) != width:
                    raise ConfigError(f"hyperparams: {path} holds {len(rec['hyperparams'])} values for {owner} {i}, "
                                      f"but search_space has {width}")
        agents = []
        for i, rec in enumerate(recs):
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
            self.evolve_rngs[i] = restore_generator(rec["evolve_state"])
        self.population = Population(agents=agents, deltas=cfg.deltas)
        if archive is not None:
            self.archive = EliteArchive.from_json_dict(archive)
        return int(data["round"])


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
    config.json differs from this run's config, whose checkpoint holds another
    population or width (_Engine.restore_checkpoint), whose event log read_events
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

    if resume:
        if run is None:
            raise ConfigError("resume requires an out_dir with checkpoints")
        start_round = engine.restore_checkpoint(*run.resume_state(config, seed))
        read_log = partial(read_events, num_agents=config.num_agents, num_hyperparams=len(config.search_space))
        all_events, metrics = truncate_logs(
            (run.events, lambda path, lines: [ev for ev in read_log(path, lines) if ev.round <= start_round], 0),
            (run.metrics, partial(read_metrics, config=config, rounds=start_round), 1))
    else:
        engine.init_population()
        if run is not None:
            run.create(config, seed)

    # Initial vectors are a pure function of the seed; recompute so the
    # resume path reports them identically.
    initial_h = {
        i: sample_hyperparams(config.search_space, seed_hierarchy(seed, i, "init"))
        for i in range(config.num_agents)
    }

    last_round = config.num_rounds if stop_after_round is None else min(
        stop_after_round, config.num_rounds
    )
    with run.open_logs() if run is not None else nullcontext():
        for round_no in range(start_round + 1, last_round + 1):
            engine.train_eval_round()
            agents = engine.population.agents  # in agent-id order
            metrics.fitness.extend([a.snapshot_fitness for a in agents])
            metrics.hyperparams.extend([a.hyperparams.values for a in agents])
            if run is not None:
                run.append_metrics(metrics, len(metrics) - len(agents))
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
