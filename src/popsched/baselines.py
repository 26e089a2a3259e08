"""PBT with backtracking: the elite archive and its restores.

The archive keeps the best population snapshots seen so far, and every
backtrack period the worst half (capped at the archive capacity) takes
elite clones. Random search, the other baseline, emits no events.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .config import ANY, FINITE, INT, LIST
from .core import AgentState, Population, rank_descending
from .events import ELITE_RESTORE, EvolutionEvent
from .trainables import Trainable

# The records EliteArchive.to_json_dict writes into a checkpoint, each key with its value's shape.
ARCHIVE = {"capacity": INT, "entries": LIST}
ELITE = {"payload": ANY, "hyperparams": LIST, "fitness": FINITE, "agent_id": INT, "round": INT}


@dataclass(frozen=True)
class EliteEntry:
    """Exported payload of one agent at one round."""

    payload: dict
    hyperparams: tuple[float, ...]
    fitness: float
    agent_id: int
    round: int

    def restore_weights(self, target: Trainable) -> None:
        """Copy this snapshot's weights into a live trainable of its kind; its streams stay."""
        target.import_weights(self.payload["weights"])


class EliteArchive:
    """The capacity best (round, agent) snapshots observed so far.

    Ordered best first; ties prefer the lower agent id, then the earlier
    round. Entries hold exported payloads, so later training cannot
    corrupt them.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.entries: list[EliteEntry] = []
        self._json: tuple[list[EliteEntry], str] | None = None  # (entries, their JSON text)

    def update(self, agents: Sequence[AgentState], round_no: int) -> None:
        """Merge this round's snapshots and keep the top capacity.

        Only the snapshots that make the cut are exported; when none does,
        entries stays the same list, and so does its cached JSON.
        """
        merged = [((-e.fitness, e.agent_id, e.round), e) for e in self.entries]
        merged += [((-a.snapshot_fitness, a.agent_id, round_no), a) for a in agents]
        merged.sort(key=lambda pair: pair[0])
        if all(isinstance(item, EliteEntry) for _, item in merged[: self.capacity]):
            return
        self.entries = [
            item if isinstance(item, EliteEntry) else EliteEntry(
                payload=item.trainable.export_payload(),
                hyperparams=item.hyperparams,
                fitness=item.snapshot_fitness,
                agent_id=item.agent_id,
                round=round_no,
            )
            for _, item in merged[: self.capacity]
        ]

    def json_text(self) -> str:
        """json.dumps(self.to_json_dict()), encoded again only once entries is replaced."""
        if self._json is None or self._json[0] is not self.entries:
            self._json = (self.entries, json.dumps(self.to_json_dict(), check_circular=False))
        return self._json[1]

    def to_json_dict(self) -> dict:
        entries = [dict(zip(ELITE, (e.payload, list(e.hyperparams), e.fitness, e.agent_id, e.round)))
                   for e in self.entries]
        return dict(zip(ARCHIVE, (self.capacity, entries)))


def update_elites(archive: EliteArchive, population: Population, round_no: int) -> None:
    archive.update(population.agents, round_no)


def backtrack(
    population: Population,
    archive: EliteArchive,
    round_no: int,
) -> list[EvolutionEvent]:
    """Replace the worst agents with elite clones, in place.

    Targets are the bottom min(capacity, N/2) agents by snapshot fitness.
    Elites are assigned cyclically from the best downward (restoring one
    elite onto several agents is fine when the archive is short). Both the
    weights and the hyperparameters of the elite are restored; the target
    keeps its own random streams. An empty archive is a no-op.
    """
    if not archive.entries:
        return []
    ranked = rank_descending(
        [(a.agent_id, a.snapshot_fitness) for a in population.agents]
    )
    count = min(archive.capacity, population.size // 2)
    targets = ranked[len(ranked) - count :]  # descending fitness within the bottom set
    events: list[EvolutionEvent] = []
    for j, target_id in enumerate(targets):
        elite = archive.entries[j % len(archive.entries)]
        target = population.agent(target_id)
        elite.restore_weights(target.trainable)
        target.hyperparams = elite.hyperparams
        events.append(
            EvolutionEvent(
                round=round_no,
                subpop_id=target.subpop_id,
                target_agent_id=target_id,
                kind=ELITE_RESTORE,
                source_agent_id=elite.agent_id,
                source_round=elite.round,
                hyperparams_after=elite.hyperparams,
                fitness_snapshot=target.snapshot_fitness,
            )
        )
    return events
