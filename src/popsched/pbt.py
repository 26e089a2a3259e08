"""Truncation-selection evolution step.

Exploit clones the winner quarter onto the loser quarter (cyclically) and
explore perturbs each cloned hyperparameter independently by one of two
multiplicative factors. The step mutates agents in place and returns the
events describing what it did, in the order the effects were applied.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .core import AgentState, Brackets, HyperparamSpace, compute_brackets, positive_reals, rank_descending
from .events import PERTURBED_CLONE, SURVIVE, EvolutionEvent
from .trainables import transfer_weights

PERTURB_FACTORS = (0.8, 1.25)


def exploit(brackets: Brackets) -> list[tuple[int, int]]:
    """Pair each loser with a winner: k-th loser <- (k mod W)-th winner."""
    winners = brackets.winners
    return [(loser, winners[k % len(winners)]) for k, loser in enumerate(brackets.losers)]


def explore_perturb(
    hyperparams: tuple[float, ...],
    rng: np.random.Generator,
    space: HyperparamSpace | None = None,
    clamp: bool = False,
) -> tuple[float, ...]:
    """Multiply each entry independently by a factor drawn from {0.8, 1.25}.

    Values may leave the initial sampling range; pass clamp=True (with the
    space) to clip them back. A product that overflows to inf is refused
    (ConfigError); one cannot reach 0, as 0.8 times the least subnormal
    rounds back to it.
    """
    # A scalar draw per entry uses the stream as one sized integers call does, at a third of the cost.
    out = positive_reals([v * PERTURB_FACTORS[rng.integers(0, len(PERTURB_FACTORS))] for v in hyperparams])
    if clamp:
        if space is None:
            raise ValueError("clamping requires the hyperparameter space")
        out = space.clip(out)
    return out


def pbt_evolution_step(
    agents: Sequence[AgentState],
    evolve_rngs: Mapping[int, np.random.Generator],
    round_no: int,
    subpop_id: int,
    *,
    variance_exploitation: bool = False,
    space: HyperparamSpace | None = None,
    clamp: bool = False,
) -> list[EvolutionEvent]:
    """Run one truncation step over one sub-population, in place.

    Non-losers continue unchanged and emit survive events in rank order. Each
    loser takes its paired winner's weights; its hyperparameters become the
    winner's perturbed by explore_perturb, except under variance exploitation
    where the loser keeps its own (weights-only cloning). The events name every
    agent once, in rank order, so they also carry the ranking.
    """
    by_id = {a.agent_id: a for a in agents}
    ranked = rank_descending([(a.agent_id, a.snapshot_fitness) for a in agents])
    brackets = compute_brackets(ranked)

    kept = [by_id[i] for i in brackets.winners + brackets.survivors + brackets.migration_open]
    events = [EvolutionEvent(round=round_no, subpop_id=subpop_id, target_agent_id=a.agent_id, kind=SURVIVE,
                             source_agent_id=None, source_round=None,
                             hyperparams_after=a.hyperparams, fitness_snapshot=a.snapshot_fitness)
              for a in kept]

    for loser_id, winner_id in exploit(brackets):
        loser, winner = by_id[loser_id], by_id[winner_id]
        transfer_weights(winner.trainable, loser.trainable)
        if variance_exploitation:
            new_h = loser.hyperparams
        else:
            new_h = explore_perturb(winner.hyperparams, evolve_rngs[loser_id], space, clamp)
        loser.hyperparams = new_h
        events.append(
            EvolutionEvent(
                round=round_no,
                subpop_id=subpop_id,
                target_agent_id=loser_id,
                kind=PERTURBED_CLONE,
                source_agent_id=winner_id,
                source_round=None,
                hyperparams_after=new_h,
                fitness_snapshot=loser.snapshot_fitness,
            )
        )
    return events
