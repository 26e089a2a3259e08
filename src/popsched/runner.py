"""Experiment runner: synchronous generations over live trainables.

Every round the agents train t_ready steps in one train_all call and are
evaluated; at the round barrier the configured scheduler may rewrite
agents in place, emitting the events that describe what it did. Random
search does nothing there; every other barrier runs mfpbt_round (PBT as
its one-sub-population case) unless PBT with backtracking backtracks.
Each round appends (and flushes) its metrics, then runs the barrier,
then appends its events, then writes its checkpoint, so a crashed run
leaves a valid prefix on disk that a resume picks up; resume reads the
events with read_events, whose check `popsched lineage` runs too. A checkpoint is
json.dumps of the engine state with the elite archive's JSON spliced in,
encoded only when the archive changed; a trainable is given
hyperparameters only when its agent's vector changed (or was restored).

All streams derive from (master_seed, agent_id, kind), so results are
byte-identical across repeats. Each agent keeps one live trainable for
the whole run; payloads are exported only where state is persisted
(checkpoints and the elite archive). The files themselves are named and
formatted by the rundir module.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from functools import partial

from .baselines import EliteArchive, backtrack, update_elites
from .config import ExperimentConfig
from .core import AgentState, ConfigError, HyperparamVector, Population, sample_hyperparams
from .events import EvolutionEvent, read_events, write_events
from .mfpbt import mfpbt_round, subpop_due
from .reporting import best_fitness_by_round
from .rundir import MetricRow, RunDir, read_metrics, truncate_log
from .seeding import agent_trainable_seed, restore_generator, seed_hierarchy
from .trainables import build_trainable


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
        return best_fitness_by_round([r.fitness for r in self.metrics], self.config.num_agents)

    def final_best(self) -> float:
        return self.best_by_round()[-1]

    def best_agent_at(self, round_no: int) -> int:
        """Best snapshot fitness at a round; ties go to the lower agent id."""
        rows = [r for r in self.metrics if r.round == round_no]
        if not rows:
            raise ValueError(f"no metrics for round {round_no}")
        return min(rows, key=lambda r: (-r.fitness, r.agent_id)).agent_id


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
            self.evolve_rngs[i] = restore_generator(rec["evolve_state"])
        self.population = Population(agents=agents, deltas=cfg.deltas)
        if data.get("archive") is not None:
            self.archive = EliteArchive.from_json_dict(data["archive"])
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
    resume=True picks up from the latest checkpoint in out_dir and
    truncates any partial rows written after it; it refuses a directory
    whose config.json differs from this run's config, or whose event log
    read_events refuses (as `popsched lineage` does), and touches no file then.
    """
    config.validate()
    seed = config.seeds[0] if seed is None else int(seed)
    if seed < 0:
        raise ConfigError(f"seeds: master seed must be non-negative, got {seed}")
    start = time.monotonic()

    run = RunDir(out_dir) if out_dir is not None else None
    engine = _Engine(config, seed)
    start_round = 0
    metrics: list[MetricRow] = []
    all_events: list[EvolutionEvent] = []

    if resume:
        if run is None:
            raise ConfigError("resume requires an out_dir with checkpoints")
        start_round = engine.restore_checkpoint(run.resume_state(config, seed))
        # events first: a log the reader's check refuses leaves both logs as they are
        all_events = truncate_log(run.events, start_round, partial(
            read_events, num_agents=config.num_agents, num_hyperparams=len(config.search_space)))
        metrics = truncate_log(run.metrics, start_round, read_metrics, header=1)
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
    for round_no in range(start_round + 1, last_round + 1):
        engine.train_eval_round()
        round_rows = [
            MetricRow(round_no, a.agent_id, a.subpop_id, a.snapshot_fitness, a.hyperparams.values)
            for a in engine.population.agents
        ]
        metrics.extend(round_rows)
        if run is not None:
            run.append_metrics(round_rows)
        events = engine.barrier_events(round_no)
        all_events.extend(events)
        if run is not None and events:
            write_events(run.events, events)
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
