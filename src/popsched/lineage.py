"""Lineage reconstruction and replay from the event log.

Given the events a run emitted, walk backwards from (agent, round) to
recover the chain of payload transfers that produced the snapshot the
runner evaluated at that round (after training, before that round's
barrier). The result is a schedule: an ordered list of segments, each
naming the agent that carried the payload, the hyperparameters it
trained under, and the round interval (start_round, end_round] it
covers. Elite restores add untrained dwell segments for the interval a
payload sat in the archive.

Replaying a schedule from nothing but the master seed reproduces every
logged fitness of its carriers bit for bit, because

  * a train step consumes a fixed number of draws, so a carrier's
    private stream can be fast-forwarded to any round without training;
  * transfers move weights only, so each carrier keeps its own stream;
  * evaluation draws never touch the training stream.

read_lineage reads the metrics with rundir.read_run and the log with
events.read_events (each refuses a file no well-formed run writes, naming
its line, so reconstruction trusts its input), checks the agent and round
asked for, and reconstructs the schedule; it trains nothing.
replay_run, which `popsched lineage --replay` calls, adds the replay: it
advances and trains in per-round chunks so the draw order inside each
carrier's stream matches the original run exactly, checks every trained
round against metrics.csv, and raises LineageError at the first that differs.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Mapping, Sequence

from .config import ExperimentConfig
from .events import ELITE_RESTORE, SURVIVE, EvolutionEvent, LineageError, read_events
from .rundir import RunDir, read_run
from .seeding import agent_trainable_seed
from .trainables import build_trainable, transfer_weights

# Defined in events; importable here because perfbench/workloads.py imports it from lineage.
from .events import validate_event_log  # noqa: F401


@dataclass(frozen=True)
class ScheduleSegment:
    """One stretch of a payload's history.

    Covers training rounds start_round+1 .. end_round, all carried out by
    `agent_id` (a member of sub-population `subpop_id`) under
    `hyperparams`. Untrained segments (trained=False) are archive dwells:
    the payload sat frozen over the interval. `kind` names the event that
    put the payload into this segment's hands ("init" for the original
    initialization); the hyperparams field always records what the
    carrier actually trained with, so weights-only transfers keep both
    attributions visible (payload provenance via agent_id, schedule via
    hyperparams).
    """

    start_round: int
    end_round: int
    agent_id: int
    subpop_id: int
    hyperparams: tuple[float, ...] | None
    trained: bool
    kind: str

    @property
    def num_rounds(self) -> int:
        return self.end_round - self.start_round


def reconstruct_schedule(
    events: Sequence[EvolutionEvent],
    agent_id: int,
    final_round: int,
    initial_hyperparams: Mapping[int, Sequence[float]],
    subpop_size: int | None = None,
) -> list[ScheduleSegment]:
    """Provenance of the payload agent_id held when evaluated at final_round.

    The target snapshot is the post-training, pre-barrier state of that
    round, i.e. exactly what metrics.csv records there. subpop_size tags
    each segment with its carrier's sub-population (0 when omitted).
    events must be checked already (read_lineage's reader checks the whole log),
    final_round at least 1 and initial_hyperparams must hold every agent.
    """

    def subpop_of(aid: int) -> int:
        return aid // subpop_size if subpop_size else 0

    # One index walks the log backward: every hop lands at an earlier position.
    rounds = [ev.round for ev in events]
    segments: list[ScheduleSegment] = []
    cur, upper = agent_id, final_round
    i = bisect_left(rounds, final_round)  # exclude all of final_round's own events
    while True:
        i -= 1
        while i >= 0 and (events[i].target_agent_id != cur or events[i].kind == SURVIVE):
            i -= 1
        if i < 0:
            break
        ev = events[i]
        e = ev.round
        if upper > e:
            segments.append(
                ScheduleSegment(
                    start_round=e,
                    end_round=upper,
                    agent_id=cur,
                    subpop_id=subpop_of(cur),
                    hyperparams=ev.hyperparams_after,
                    trained=True,
                    kind=ev.kind,
                )
            )
        if ev.kind == ELITE_RESTORE:
            sr = ev.source_round
            if sr < e:
                segments.append(
                    ScheduleSegment(
                        start_round=sr,
                        end_round=e,
                        agent_id=ev.source_agent_id,
                        subpop_id=subpop_of(ev.source_agent_id),
                        hyperparams=None,
                        trained=False,
                        kind="archive_dwell",
                    )
                )
            i = bisect_left(rounds, sr, hi=i)  # snapshot was taken before round sr's events
            upper = sr
        else:
            upper = e  # live state: later same-round events excluded
        cur = ev.source_agent_id
    segments.append(
        ScheduleSegment(
            start_round=0,
            end_round=upper,
            agent_id=cur,
            subpop_id=subpop_of(cur),
            hyperparams=tuple(float(v) for v in initial_hyperparams[cur]),
            trained=True,
            kind="init",
        )
    )
    segments.reverse()
    return segments


def replay_schedule(
    segments: Sequence[ScheduleSegment],
    config: ExperimentConfig,
    master_seed: int,
    fitness: Sequence[float],
) -> None:
    """Re-train a schedule from the master seed and check every trained round's fitness against
    fitness, the run's metrics.csv column; the first round that differs raises LineageError.

    The stream advance and the training both happen in per-round chunks
    so draw order matches the original run draw for draw.
    """
    trainable = None
    for seg in segments:
        if not seg.trained:
            continue  # archive dwell: the weights are carried over unchanged
        carrier = build_trainable(config.trainable)
        carrier.init(agent_trainable_seed(master_seed, seg.agent_id), config.search_space.to_mapping(seg.hyperparams))
        for _ in range(seg.start_round):
            carrier.advance_rng(config.t_ready)
        if trainable is not None:
            transfer_weights(trainable, carrier)
        trainable = carrier
        for r in range(seg.start_round + 1, seg.end_round + 1):
            trainable.train(config.t_ready)
            got = float(trainable.evaluate(config.eval_repeats))
            want = fitness[(r - 1) * config.num_agents + seg.agent_id]
            if got != want:
                raise LineageError(
                    f"replay diverges at round {r} on agent {seg.agent_id}: "
                    f"replayed {got!r}, logged {want!r}"
                )


@dataclass(frozen=True)
class Lineage:
    """agent_id's schedule at final_round, with what a replay reads: the run's config, master seed
    and metrics.csv fitness column (logged)."""

    agent_id: int
    final_round: int
    segments: tuple[ScheduleSegment, ...]
    config: ExperimentConfig
    master_seed: int
    logged: Sequence[float]

    @property
    def fitness(self) -> float:
        """agent_id's logged fitness at final_round, which a replay_run that returns has reproduced."""
        return self.logged[(self.final_round - 1) * self.config.num_agents + self.agent_id]


def read_lineage(run_dir, agent_id: int | None = None, final_round: int | None = None) -> Lineage:
    """Reconstruct a logged run's schedule; trains nothing.

    agent_id=None picks the best agent at final_round (id tie-break);
    final_round=None takes the last logged round.
    """
    run = RunDir(run_dir)
    config, seed, metrics = read_run(run_dir)
    fitness = metrics.fitness
    events = read_events(run.events, num_agents=config.num_agents, num_hyperparams=len(config.search_space))
    n = config.num_agents  # read_run checked that rounds are n-row blocks in agent-id order
    final_round = len(fitness) // n if final_round is None else int(final_round)
    if not 1 <= final_round <= len(fitness) // n:
        raise LineageError(f"{run.root}: no metrics rows at round {final_round}")
    final = fitness[(final_round - 1) * n:final_round * n]
    if agent_id is None:
        agent_id = final.index(max(final))  # the first best: ties go to the lower id
    if not 0 <= agent_id < n:
        raise LineageError(f"{run.root}: no metrics row for agent {agent_id} at round {final_round}")
    initial_h = dict(enumerate(metrics.hyperparams[:n]))
    segments = reconstruct_schedule(events, agent_id, final_round, initial_h, config.subpop_size)
    return Lineage(agent_id, final_round, tuple(segments), config, seed, fitness)


def replay_run(run_dir, agent_id: int | None = None, final_round: int | None = None) -> Lineage:
    """read_lineage, then replay_schedule: raises LineageError at the first trained round whose
    replayed fitness is not the one metrics.csv logged."""
    lineage = read_lineage(run_dir, agent_id, final_round)
    replay_schedule(lineage.segments, lineage.config, lineage.master_seed, lineage.logged)
    return lineage
