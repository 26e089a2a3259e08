"""Multi-frequency population-based training.

The population is split into M sub-populations that all train and are
evaluated every round, but sub-population i only runs its evolution step
every population.deltas[i] rounds (ExperimentConfig checks deltas[0] == 1
for mfpbt). PBT runs as the one-sub-population case, with any period:
its external pool is empty, so nothing migrates.
After a sub-population evolves, its migration-open quarter is compared
against the best agents of the rest of the population and may import
their state.

Migration is asymmetric by default, which is what keeps slow (steady)
sub-populations from being flooded by transient leaders: when the better
external contender comes from a *more dynamic* sub-population (smaller
delta), only its weights are taken and the hyperparameters are reset to
the local top winner's; when it comes from a *steadier* one, weights and
hyperparameters both transfer. Sub-populations are processed in ascending
index order within a round, and fitness comparisons always use the
round's snapshot while weight transfers read live state, so a later
sub-population can import state already rewritten earlier in the round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import Brackets, HyperparamSpace, Population, compute_brackets
from .events import MIGRATION_FULL, MIGRATION_WEIGHTS_ONLY, EvolutionEvent
from .pbt import pbt_evolution_step
from .trainables import transfer_weights


def subpop_due(round_no: int, delta: int) -> bool:
    """Sub-populations evolve on round multiples of their period (rounds start at 1)."""
    return round_no % delta == 0


@dataclass(frozen=True)
class PoolEntry:
    agent_id: int
    subpop_id: int
    fitness: float


def build_external_pool(population: Population, subpop_id: int) -> list[PoolEntry]:
    """All agents outside sub-population subpop_id, best snapshot first."""
    entries = [PoolEntry(a.agent_id, a.subpop_id, a.snapshot_fitness)
               for a in population.agents if a.subpop_id != subpop_id]
    entries.sort(key=lambda e: (-e.fitness, e.agent_id))
    return entries


def migrate(
    population: Population,
    subpop_id: int,
    brackets: Brackets,
    pool: list[PoolEntry],
    round_no: int,
    *,
    symmetric: bool = False,
    variance_exploitation: bool = False,
) -> list[EvolutionEvent]:
    """Compare the migration-open quarter against the external pool, in place.

    Both sides are ordered best-first. The pool cursor only advances when
    a replacement happens, so each contender is consumed at most once; an
    open agent at least as fit as the current contender is kept as is. An
    exhausted pool keeps all remaining agents.
    """
    deltas = population.deltas
    my_delta = deltas[subpop_id]
    own_best = population.agent(brackets.winners[0])
    events: list[EvolutionEvent] = []
    k = 0
    for open_id in brackets.migration_open:
        if k >= len(pool):
            break
        target = population.agent(open_id)
        contender = pool[k]
        if target.snapshot_fitness >= contender.fitness:
            continue  # kept as is; the contender stays available
        source = population.agent(contender.agent_id)
        contender_is_dynamic = deltas[contender.subpop_id] < my_delta
        if variance_exploitation:
            # Weight cloning only, hyperparameters frozen for the whole run.
            kind = MIGRATION_WEIGHTS_ONLY
            new_h = target.hyperparams
        elif symmetric or not contender_is_dynamic:
            kind = MIGRATION_FULL
            new_h = source.hyperparams
        else:
            # Dynamic contender into a steadier sub-population: take the
            # weights but keep hyperparameters within the local gene pool.
            kind = MIGRATION_WEIGHTS_ONLY
            new_h = own_best.hyperparams
        transfer_weights(source.trainable, target.trainable)
        target.hyperparams = new_h
        events.append(
            EvolutionEvent(
                round=round_no,
                subpop_id=subpop_id,
                target_agent_id=open_id,
                kind=kind,
                source_agent_id=contender.agent_id,
                source_round=None,
                hyperparams_after=new_h,
                fitness_snapshot=target.snapshot_fitness,
            )
        )
        k += 1
    return events


def mfpbt_round(
    population: Population,
    round_no: int,
    evolve_rngs: Mapping[int, np.random.Generator],
    *,
    symmetric_migration: bool = False,
    variance_exploitation: bool = False,
    space: HyperparamSpace | None = None,
    clamp: bool = False,
) -> list[EvolutionEvent]:
    """Evolve and migrate every due sub-population (see subpop_due), ascending index order."""
    events: list[EvolutionEvent] = []
    for i, delta in enumerate(population.deltas):
        if not subpop_due(round_no, delta):
            continue
        step = pbt_evolution_step(
            population.subpop(i),
            evolve_rngs,
            round_no,
            i,
            variance_exploitation=variance_exploitation,
            space=space,
            clamp=clamp,
        )
        events.extend(step)
        # The step's events list the sub-population in snapshot rank order.
        brackets = compute_brackets([e.target_agent_id for e in step])
        pool = build_external_pool(population, i)
        events.extend(
            migrate(
                population,
                i,
                brackets,
                pool,
                round_no,
                symmetric=symmetric_migration,
                variance_exploitation=variance_exploitation,
            )
        )
    return events
