"""Shared builders for scheduler tests.

The logic-level tests (ranking, exploitation, migration, backtracking)
need populations of agents with live trainables that are never trained;
`make_population` builds those. Each agent's two-basin trainable starts
at x = agent id and is seeded with the agent id, so weight transfers are
easy to assert on (`weights`) and "the target keeps its own streams" is
directly checkable (`streams` against `own_streams`).
"""

from __future__ import annotations

import numpy as np
import pytest

from popsched.core import AgentState, Population
from popsched.seeding import seed_hierarchy
from popsched.trainables import TwoBasinTrainable


def make_trainable(agent_id: int) -> TwoBasinTrainable:
    t = TwoBasinTrainable(start_x=float(agent_id))
    t.init(agent_id, {"sigma": 1.0})
    return t


def weights(agent: AgentState) -> dict:
    return agent.trainable.export_payload()["weights"]


def streams(agent: AgentState) -> dict:
    return agent.trainable.export_payload()["rng"]


def own_streams(agent_id: int) -> dict:
    """The untouched streams agent_id's trainable started with."""
    return make_trainable(agent_id).export_payload()["rng"]


def make_agent(
    agent_id: int,
    subpop_id: int,
    fitness: float | None,
    h: tuple[float, ...] = (1.0,),
) -> AgentState:
    return AgentState(
        agent_id=agent_id,
        subpop_id=subpop_id,
        trainable=make_trainable(agent_id),
        hyperparams=h,
        snapshot_fitness=fitness,
    )


def make_population(
    fitnesses: list[float],
    deltas: tuple[int, ...] = (1,),
    h_for=None,
) -> Population:
    """One agent per fitness, split evenly over len(deltas) sub-populations."""
    n = len(fitnesses)
    per = n // len(deltas)
    agents = [
        make_agent(
            i,
            i // per,
            fitnesses[i],
            h_for(i) if h_for else (float(i + 1),),
        )
        for i in range(n)
    ]
    return Population(agents=agents, deltas=deltas)


def evolve_rngs_for(population: Population, master_seed: int = 0):
    return {
        a.agent_id: seed_hierarchy(master_seed, a.agent_id, "evolve")
        for a in population.agents
    }


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
