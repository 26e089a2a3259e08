"""Domain types shared by every scheduler.

Hyperparameter spaces and vectors (plain tuples of floats, checked by
positive_reals where one is made from numbers nothing has checked),
per-agent state, the partition of a population into sub-populations,
fitness ranking, and the quartile brackets used by truncation selection.
The scheduler functions here and in pbt, mfpbt and baselines take agents
built from a validated config and a checked checkpoint (runner's one-pass
restore), each with the finite snapshot fitness its round's evaluation
set, and do not check them again.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .trainables import Trainable

LOG_UNIFORM = "log-uniform"


class ConfigError(ValueError):
    """A configuration or structural invariant was violated."""


@dataclass(frozen=True)
class SpaceEntry:
    """One named hyperparameter with its initial sampling range."""

    name: str
    low: float
    high: float
    scale: str = LOG_UNIFORM

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise ConfigError(f"hyperparameter name {self.name!r} is not an identifier")
        if not (math.isfinite(self.low) and math.isfinite(self.high)):
            raise ConfigError(f"{self.name}: bounds must be finite")
        if not 0.0 < self.low <= self.high:
            raise ConfigError(
                f"{self.name}: need 0 < low <= high, got [{self.low}, {self.high}]"
            )
        if self.scale != LOG_UNIFORM:
            raise ConfigError(f"{self.name}: unsupported scale {self.scale!r}")


@dataclass(frozen=True)
class HyperparamSpace:
    """Ordered collection of SpaceEntry; vector positions follow entry order."""

    entries: tuple[SpaceEntry, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ConfigError("hyperparameter space must contain at least one entry")
        names = [e.name for e in self.entries]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate hyperparameter names: {names}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def to_mapping(self, vector: tuple[float, ...]) -> dict[str, float]:
        return {e.name: v for e, v in zip(self.entries, vector)}

    def clip(self, vector: tuple[float, ...]) -> tuple[float, ...]:
        """Clamp each entry back into its initial sampling range."""
        return tuple(min(max(v, e.low), e.high) for e, v in zip(self.entries, vector))


def positive_reals(values: Sequence, what: str = "hyperparameter values") -> tuple[float, ...]:
    """values as a hyperparameter vector, a tuple of floats, once each is a positive finite number
    (not a bool or a str); else a ConfigError naming what and the first value that is not."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0 < v <= sys.float_info.max:
            raise ConfigError(f"{what} must be positive reals, got {v!r}")
    return tuple(map(float, values))


def sample_hyperparams(space: HyperparamSpace, rng: np.random.Generator) -> tuple[float, ...]:
    """Draw one vector, each entry log-uniform within its range.

    A degenerate range (low == high) returns that bound exactly.
    """
    out = []
    for e in space.entries:
        if e.low == e.high:
            out.append(float(e.low))
        else:
            out.append(math.exp(rng.uniform(math.log(e.low), math.log(e.high))))
    return tuple(out)


@dataclass
class AgentState:
    """One population slot.

    `trainable` is the agent's live model (see the trainables module).
    Schedulers move state between agents in place with transfer_weights,
    so each agent keeps its own random streams for the whole run.
    """

    agent_id: int
    subpop_id: int
    trainable: Trainable
    hyperparams: tuple[float, ...]
    snapshot_fitness: float | None = None


@dataclass
class Population:
    """N agents split into M equally sized sub-populations.

    Agents 0..n-1 belong to sub-population 0, the next n to 1, and so on.
    `deltas[i]` is the evolution period (in rounds) of sub-population i.
    """

    agents: list[AgentState]
    deltas: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.agents)

    @property
    def subpop_size(self) -> int:
        return len(self.agents) // len(self.deltas)

    def subpop(self, i: int) -> list[AgentState]:
        per = self.subpop_size
        return self.agents[i * per : (i + 1) * per]

    def agent(self, agent_id: int) -> AgentState:
        return self.agents[agent_id]


@dataclass(frozen=True)
class Brackets:
    """Fitness quarters of one ranked sub-population (agent ids)."""

    winners: tuple[int, ...]
    survivors: tuple[int, ...]
    migration_open: tuple[int, ...]
    losers: tuple[int, ...]


def rank_descending(fitness_by_agent: Sequence[tuple[int, float]]) -> list[int]:
    """Rank agent ids by fitness, best first; ties break toward lower id."""
    ordered = sorted(fitness_by_agent, key=lambda p: (-p[1], p[0]))
    return [agent_id for agent_id, _ in ordered]


def compute_brackets(ranked: Sequence[int]) -> Brackets:
    """Split a ranked id list into winner/survivor/migration/loser quarters."""
    q = len(ranked) // 4
    ids = list(ranked)
    return Brackets(
        winners=tuple(ids[:q]),
        survivors=tuple(ids[q : 2 * q]),
        migration_open=tuple(ids[2 * q : 3 * q]),
        losers=tuple(ids[3 * q :]),
    )
