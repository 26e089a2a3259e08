"""Sub-population scheduling, external pools, and asymmetric migration."""

from __future__ import annotations

import numpy as np
import pytest

from popsched.core import compute_brackets, rank_descending
from popsched.events import MIGRATION_FULL, MIGRATION_WEIGHTS_ONLY, PERTURBED_CLONE, SURVIVE
from popsched.mfpbt import (
    PoolEntry,
    build_external_pool,
    migrate,
    mfpbt_round,
    subpop_due,
)
from popsched.pbt import pbt_evolution_step

from conftest import evolve_rngs_for, make_population, own_streams, streams, weights


def test_subpop_due_schedule():
    deltas = (1, 10, 25, 50)
    assert [d for d in deltas if subpop_due(30, d)] == [1, 10]
    assert [d for d in deltas if subpop_due(50, d)] == [1, 10, 25, 50]
    assert [d for d in deltas if subpop_due(1, d)] == [1]
    assert subpop_due(4, 2)
    assert not subpop_due(5, 2)


# ------------------------------------------------------------------ pool

def test_pool_orders_outsiders_best_first():
    pop = make_population([5.0, 2.0, 8.0, 1.0, 9.0, 3.0, 9.0, 4.0], deltas=(1, 2))
    pool = build_external_pool(pop, 0)
    assert [e.agent_id for e in pool] == [4, 6, 7, 5]
    assert pool[0] == PoolEntry(agent_id=4, subpop_id=1, fitness=9.0)
    pool = build_external_pool(pop, 1)
    assert [e.agent_id for e in pool] == [2, 0, 1, 3]


def test_pool_empty_for_single_subpop():
    pop = make_population([1.0, 2.0, 3.0, 4.0])
    assert build_external_pool(pop, 0) == []


def test_pool_random_oracle(rng):
    for _ in range(500):
        m = int(rng.integers(2, 4))
        fits = [float(v) for v in rng.integers(0, 10, size=4 * m)]
        pop = make_population(fits, deltas=tuple(range(1, m + 1)))
        sp = int(rng.integers(0, m))
        pool = build_external_pool(pop, sp)
        expected = sorted(
            (
                PoolEntry(a.agent_id, a.subpop_id, a.snapshot_fitness)
                for a in pop.agents
                if a.subpop_id != sp
            ),
            key=lambda e: (-e.fitness, e.agent_id),
        )
        assert pool == expected


# --------------------------------------------------------------- migrate

def subpop_brackets(pop, subpop_id):
    ranked = rank_descending(
        [(a.agent_id, a.snapshot_fitness) for a in pop.subpop(subpop_id)]
    )
    return compute_brackets(ranked)


def steady_population():
    """deltas (1, 50); sub-population 1 is the steady migration target.

    Sub-population 1 (ids 8..15) ranks 8,9 / 10,11 / 12,13 / 14,15 with
    the migration-open pair at fitness 3.0 and 1.0; the best outsiders are
    agents 0 (5.0) and 1 (2.0) from the dynamic sub-population 0.
    """
    fits_sp0 = [5.0, 2.0, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]
    fits_sp1 = [20.0, 19.0, 18.0, 17.0, 3.0, 1.0, 0.5, 0.4]
    return make_population(fits_sp0 + fits_sp1, deltas=(1, 50))


def test_migrate_dynamic_into_steady_takes_weights_only():
    pop = steady_population()
    brackets = subpop_brackets(pop, 1)
    assert brackets.migration_open == (12, 13)
    own_best_h = pop.agent(8).hyperparams

    events = migrate(pop, 1, brackets, build_external_pool(pop, 1), round_no=50)

    assert [(e.target_agent_id, e.source_agent_id, e.kind) for e in events] == [
        (12, 0, MIGRATION_WEIGHTS_ONLY),
        (13, 1, MIGRATION_WEIGHTS_ONLY),
    ]
    # Weights come from the contenders, streams remain the targets' own.
    assert weights(pop.agent(12)) == {"x": 0.0}
    assert weights(pop.agent(13)) == {"x": 1.0}
    assert streams(pop.agent(12)) == own_streams(12)
    # Hyperparams reset to the local top winner's, not the contenders'.
    assert pop.agent(12).hyperparams == own_best_h
    assert pop.agent(13).hyperparams == own_best_h
    assert events[0].hyperparams_after == own_best_h
    assert events[0].round == 50 and events[0].subpop_id == 1
    assert events[0].source_round is None
    assert events[0].fitness_snapshot == 3.0


def test_migrate_steady_into_dynamic_takes_everything():
    fits_sp0 = [20.0, 19.0, 1.0, 0.9, 0.5, 0.1, 0.05, 0.01]
    fits_sp1 = [4.0, 0.2, 0.09, 0.08, 0.07, 0.06, 0.05, 0.04]
    pop = make_population(fits_sp0 + fits_sp1, deltas=(1, 50))
    brackets = subpop_brackets(pop, 0)
    assert brackets.migration_open == (4, 5)

    events = migrate(pop, 0, brackets, build_external_pool(pop, 0), round_no=3)

    assert [(e.target_agent_id, e.source_agent_id, e.kind) for e in events] == [
        (4, 8, MIGRATION_FULL),
        (5, 9, MIGRATION_FULL),
    ]
    assert weights(pop.agent(4)) == {"x": 8.0}
    assert pop.agent(4).hyperparams == (9.0,)
    assert pop.agent(5).hyperparams == (10.0,)
    assert streams(pop.agent(4)) == own_streams(4)


def test_migrate_keeps_fitter_open_agent_without_consuming_contender():
    fits_sp0 = [5.0, 2.0, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]
    fits_sp1 = [20.0, 19.0, 18.0, 17.0, 9.0, 0.5, 0.3, 0.2]
    pop = make_population(fits_sp0 + fits_sp1, deltas=(1, 50))
    brackets = subpop_brackets(pop, 1)
    assert brackets.migration_open == (12, 13)

    events = migrate(pop, 1, brackets, build_external_pool(pop, 1), round_no=50)

    # Agent 12 (9.0) beats the best contender (5.0) and is kept; the same
    # contender then replaces agent 13 (0.5).
    assert [(e.target_agent_id, e.source_agent_id) for e in events] == [(13, 0)]
    assert weights(pop.agent(12)) == {"x": 12.0}
    assert weights(pop.agent(13)) == {"x": 0.0}


def test_migrate_symmetric_always_transfers_fully():
    pop = steady_population()
    brackets = subpop_brackets(pop, 1)
    events = migrate(
        pop, 1, brackets, build_external_pool(pop, 1), round_no=50, symmetric=True
    )
    assert [e.kind for e in events] == [MIGRATION_FULL, MIGRATION_FULL]
    assert pop.agent(12).hyperparams == (1.0,)
    assert pop.agent(13).hyperparams == (2.0,)


def test_migrate_variance_exploitation_keeps_own_h():
    pop = steady_population()
    brackets = subpop_brackets(pop, 1)
    events = migrate(
        pop, 1, brackets, build_external_pool(pop, 1), round_no=50,
        variance_exploitation=True,
    )
    assert [e.kind for e in events] == [MIGRATION_WEIGHTS_ONLY] * 2
    assert pop.agent(12).hyperparams == (13.0,)
    assert pop.agent(13).hyperparams == (14.0,)
    assert weights(pop.agent(12)) == {"x": 0.0}


def test_migrate_stops_when_pool_is_exhausted():
    pop = steady_population()
    brackets = subpop_brackets(pop, 1)
    pool = build_external_pool(pop, 1)[:1]
    events = migrate(pop, 1, brackets, pool, round_no=50)
    assert [(e.target_agent_id, e.source_agent_id) for e in events] == [(12, 0)]
    assert weights(pop.agent(13)) == {"x": 13.0}

    events = migrate(pop, 1, brackets, [], round_no=50)
    assert events == []


# ----------------------------------------------------------- full round

def test_round_gates_by_delta():
    fits = [float(v) for v in np.random.default_rng(8).permutation(16)]
    pop = make_population(fits, deltas=(1, 2))
    rngs = evolve_rngs_for(pop)

    odd = mfpbt_round(pop, 7, rngs)
    assert odd and all(e.subpop_id == 0 for e in odd)
    assert all(e.target_agent_id < 8 for e in odd)

    for a in pop.agents:
        a.snapshot_fitness = float(np.random.default_rng(9).random()) + a.agent_id
    both = mfpbt_round(pop, 8, rngs)
    ids = [e.subpop_id for e in both]
    assert set(ids) == {0, 1}
    assert ids == sorted(ids)


def test_round_with_one_subpop_equals_plain_evolution_step():
    fits = [3.0, 7.0, 1.0, 9.0, 5.0, 2.0, 8.0, 4.0]
    pop_a = make_population(fits)
    pop_b = make_population(fits)

    ev_a = mfpbt_round(pop_a, 4, evolve_rngs_for(pop_a, 99))
    ev_b = pbt_evolution_step(pop_b.agents, evolve_rngs_for(pop_b, 99), 4, 0)

    assert ev_a == ev_b
    for a, b in zip(pop_a.agents, pop_b.agents):
        assert a.hyperparams == b.hyperparams
        assert a.trainable.export_payload() == b.trainable.export_payload()


@pytest.mark.parametrize(
    "n,deltas", [(16, (1, 2)), (24, (1, 2, 3)), (32, (1, 2, 4, 8))]
)
def test_round_event_replay_oracle(n, deltas):
    """Replay every event against independently tracked hyperparam state."""
    rng = np.random.default_rng(n)
    per = n // len(deltas)
    pop = make_population(
        [float(v) for v in rng.permutation(n)], deltas=deltas
    )
    rngs = evolve_rngs_for(pop, master_seed=n)

    for round_no in range(1, 9):
        snap = {a.agent_id: a.snapshot_fitness for a in pop.agents}
        pre_h = {a.agent_id: a.hyperparams for a in pop.agents}
        tracked = dict(pre_h)
        due = [i for i in range(len(deltas)) if round_no % deltas[i] == 0]

        events = mfpbt_round(pop, round_no, rngs)

        assert [e.subpop_id for e in events] == sorted(e.subpop_id for e in events)
        assert set(e.subpop_id for e in events) <= set(due)
        for i in due:
            members = list(range(i * per, (i + 1) * per))
            ranked = sorted(members, key=lambda a: (-snap[a], a))
            brk = compute_brackets(ranked)
            mine = [e for e in events if e.subpop_id == i]
            evo = [e for e in mine if e.kind in (SURVIVE, PERTURBED_CLONE)]
            mig = [e for e in mine if e.kind not in (SURVIVE, PERTURBED_CLONE)]

            # Evolution: rank order, survive then clones, right sources.
            assert [e.target_agent_id for e in evo] == ranked
            for k, e in enumerate(evo[3 * per // 4:]):
                assert e.kind == PERTURBED_CLONE
                winner = brk.winners[k % len(brk.winners)]
                assert e.source_agent_id == winner
                for before, after in zip(tracked[winner], e.hyperparams_after):
                    assert after in (before * 0.8, before * 1.25)
            for e in evo[: 3 * per // 4]:
                assert e.kind == SURVIVE
                assert e.hyperparams_after == tracked[e.target_agent_id]
            for e in evo:
                tracked[e.target_agent_id] = e.hyperparams_after

            # Migration: open quarter only, unique consumed sources,
            # strict fitness improvement, and the asymmetric h rule.
            assert set(e.target_agent_id for e in mig) <= set(brk.migration_open)
            srcs = [e.source_agent_id for e in mig]
            assert len(srcs) == len(set(srcs))
            for e in mig:
                assert e.source_agent_id // per != i
                assert snap[e.source_agent_id] > snap[e.target_agent_id]
                dynamic = deltas[e.source_agent_id // per] < deltas[i]
                if dynamic:
                    assert e.kind == MIGRATION_WEIGHTS_ONLY
                    assert e.hyperparams_after == tracked[brk.winners[0]]
                else:
                    assert e.kind == MIGRATION_FULL
                    assert e.hyperparams_after == tracked[e.source_agent_id]
                tracked[e.target_agent_id] = e.hyperparams_after

        for a in pop.agents:
            assert a.hyperparams == tracked[a.agent_id]
            a.snapshot_fitness = float(rng.permutation(n)[a.agent_id])
