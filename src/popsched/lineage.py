"""Lineage reconstruction and replay from the event log.

Given the events a run emitted, walk backwards from (agent, round) to
recover the chain of payload transfers that produced the snapshot the
runner evaluated at that round (after training, before that round's
barrier). The result is a schedule: an ordered list of segments, each
naming the agent that carried the payload, the hyperparameters it
trained under, and the round interval (start_round, end_round] it
covers. Elite restores add untrained dwell segments for the interval a
payload sat in the archive.

Replaying a schedule from nothing but the master seed reproduces the
final payload and fitness bit for bit, because

  * a train step consumes a fixed number of draws, so a carrier's
    private stream can be fast-forwarded to any round without training;
  * transfers move weights only, so each carrier keeps its own stream;
  * evaluation draws never touch the training stream.

The replay advances and trains in per-round chunks so the draw order
inside each carrier's stream matches the original run exactly. replay_run
reads the metrics with rundir.read_run and the log with
events.read_payload_events; each refuses a file no well-formed run writes,
naming its line, so reconstruction trusts its input.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .events import ELITE_RESTORE, SURVIVE, EvolutionEvent, LineageError, read_payload_events
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
    events must be checked already (replay_run's reader checks the whole log).
    """
    if final_round < 1:
        raise LineageError(f"final_round must be >= 1, got {final_round}")

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
    if cur not in initial_hyperparams:
        raise LineageError(f"no initial hyperparameters for root agent {cur}")
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
    trainable_spec: Mapping,
    master_seed: int,
    t_ready: int,
    hp_names: Sequence[str],
    eval_repeats: int = 1,
    expected_fitness: Callable[[int, int], float] | None = None,
) -> tuple[dict, float]:
    """Re-run a schedule from the master seed; returns (payload, fitness).

    The stream advance and the training both happen in per-round chunks
    so draw order matches the original run draw for draw. When
    expected_fitness(round, carrier agent_id) gives the logged values,
    every trained round is cross-checked and the first divergence raises.
    """
    if not segments:
        raise LineageError("empty schedule")
    trainable = None
    for seg in segments:
        if not seg.trained:
            continue  # archive dwell: the weights are carried over unchanged
        if seg.hyperparams is None:
            raise LineageError(f"trained segment {seg} lacks hyperparameters")
        hmap = dict(zip(hp_names, seg.hyperparams))
        carrier = build_trainable(trainable_spec)
        carrier.init(agent_trainable_seed(master_seed, seg.agent_id), hmap)
        for _ in range(seg.start_round):
            carrier.advance_rng(t_ready)
        if trainable is not None:
            transfer_weights(trainable, carrier)
        trainable = carrier
        for r in range(seg.start_round + 1, seg.end_round + 1):
            trainable.train(t_ready)
            if expected_fitness is not None:
                got = float(trainable.evaluate(eval_repeats))
                want = expected_fitness(r, seg.agent_id)
                if got != want:
                    raise LineageError(
                        f"replay diverges at round {r} on agent {seg.agent_id}: "
                        f"replayed {got!r}, logged {want!r}"
                    )
    fitness = float(trainable.evaluate(eval_repeats))
    return trainable.export_payload(), fitness


def schedule_csv_lines(
    segments: Sequence[ScheduleSegment], hp_names: Sequence[str]
) -> list[str]:
    lines = [
        ",".join(
            ["start_round", "end_round", "agent_id", "subpop_id", "trained", "kind", *hp_names]
        )
    ]
    for seg in segments:
        cells = [
            str(seg.start_round),
            str(seg.end_round),
            str(seg.agent_id),
            str(seg.subpop_id),
            "1" if seg.trained else "0",
            seg.kind,
        ]
        if seg.hyperparams is None:
            cells.extend("" for _ in hp_names)
        else:
            cells.extend(repr(float(v)) for v in seg.hyperparams)
        lines.append(",".join(cells))
    return lines


@dataclass(frozen=True)
class ReplayReport:
    agent_id: int
    final_round: int
    segments: tuple[ScheduleSegment, ...]
    hp_names: tuple[str, ...]
    replayed_fitness: float
    logged_fitness: float

    @property
    def exact(self) -> bool:
        return self.replayed_fitness == self.logged_fitness


def replay_run(
    run_dir,
    agent_id: int | None = None,
    final_round: int | None = None,
    verify_rounds: bool = False,
) -> ReplayReport:
    """Reconstruct and replay a logged run; compare against metrics.csv.

    agent_id=None picks the best agent at final_round (id tie-break).
    verify_rounds cross-checks every intermediate round of the lineage
    against the log and raises on the first divergence.
    """
    run = RunDir(run_dir)
    config, seed, (_, _, _, fitness, *hp_columns) = read_run(run_dir)
    changed = read_payload_events(run.events, config.num_agents, len(config.search_space))
    n = config.num_agents  # read_run checked that rounds are n-row blocks in agent-id order
    final_round = len(fitness) // n if final_round is None else int(final_round)
    if not 1 <= final_round <= len(fitness) // n:
        raise LineageError(f"{run.root}: no metrics rows at round {final_round}")
    final = fitness[(final_round - 1) * n:final_round * n]
    if agent_id is None:
        agent_id = final.index(max(final))  # the first best: ties go to the lower id
    if not 0 <= agent_id < n:
        raise LineageError(f"{run.root}: no metrics row for agent {agent_id} at round {final_round}")
    initial_h = dict(enumerate(zip(*(column[:n] for column in hp_columns))))
    relevant = [ev for ev in changed if ev.round <= final_round]
    segments = reconstruct_schedule(
        relevant, agent_id, final_round, initial_h, config.subpop_size
    )
    expected = (lambda r, a: fitness[(r - 1) * n + a]) if verify_rounds else None
    _, replayed = replay_schedule(
        segments,
        config.trainable,
        seed,
        config.t_ready,
        config.search_space.names,
        config.eval_repeats,
        expected_fitness=expected,
    )
    return ReplayReport(
        agent_id=agent_id,
        final_round=final_round,
        segments=tuple(segments),
        hp_names=config.search_space.names,
        replayed_fitness=replayed,
        logged_fitness=final[agent_id],
    )
