"""Random search, the elite archive, and backtracking restores."""

from __future__ import annotations

import json

import numpy as np
import pytest

from popsched.baselines import EliteArchive, backtrack, update_elites
from popsched.core import ConfigError
from popsched.events import ELITE_RESTORE
from popsched.runner import run_experiment
from popsched.seeding import agent_trainable_seed
from popsched.trainables import build_trainable, transfer_weights

from conftest import make_population, own_streams, streams, weights
from test_runner import small_config


def test_random_search_never_emits_events():
    cfg = small_config("rs", total_steps=25)
    res = run_experiment(cfg, seed=3)
    assert cfg.num_rounds == 5
    assert res.events == []
    for i, h in res.initial_hyperparams.items():
        rows = [r for r in res.metrics if r.agent_id == i]
        assert [r.hyperparams for r in rows] == [h] * cfg.num_rounds
        # No weights arrive from another agent: training alone gives the same fitness.
        alone = build_trainable(cfg.trainable)
        alone.init(agent_trainable_seed(3, i), cfg.search_space.to_mapping(h))
        fitness = []
        for _ in rows:
            alone.train(cfg.t_ready)
            fitness.append(float(alone.evaluate(cfg.eval_repeats)))
        assert [r.fitness for r in rows] == fitness


# ---------------------------------------------------------------- archive

def test_archive_capacity_validation():
    """The config refuses a capacity below 1, so no archive is built with one."""
    with pytest.raises(ConfigError, match="elite_capacity: pbt_bt needs >= 1, got 0"):
        small_config("pbt_bt", elite_capacity=0, backtrack_period=1)
    assert EliteArchive(1).capacity == 1


def test_archive_keeps_top_entries():
    pop = make_population([3.0, 1.0, 2.0, 4.0])
    archive = EliteArchive(2)
    update_elites(archive, pop, round_no=1)
    assert [(e.fitness, e.agent_id, e.round) for e in archive.entries] == [
        (4.0, 3, 1),
        (3.0, 0, 1),
    ]
    assert archive.entries[-1].fitness == 3.0


def test_archive_merges_across_rounds():
    pop = make_population([5.0, 4.0, 0.1, 0.1])
    archive = EliteArchive(2)
    update_elites(archive, pop, round_no=1)
    for a, f in zip(pop.agents, [4.5, 0.2, 0.2, 0.2]):
        a.snapshot_fitness = f
    update_elites(archive, pop, round_no=2)
    assert [(e.fitness, e.agent_id, e.round) for e in archive.entries] == [
        (5.0, 0, 1),
        (4.5, 0, 2),
    ]


def test_archive_tie_break_prefers_low_id_then_early_round():
    archive = EliteArchive(3)
    pop = make_population([7.0, 7.0, 1.0, 1.0])
    update_elites(archive, pop, round_no=4)
    update_elites(archive, pop, round_no=3)
    assert [(e.agent_id, e.round) for e in archive.entries] == [(0, 3), (0, 4), (1, 3)]


def test_archive_min_fitness_never_decreases(rng):
    archive = EliteArchive(4)
    pop = make_population([0.0] * 8, deltas=(1, 2))
    prev = None
    for r in range(1, 30):
        for a in pop.agents:
            a.snapshot_fitness = float(rng.normal())
        update_elites(archive, pop, r)
        cur = archive.entries[-1].fitness
        if prev is not None:
            assert cur >= prev
        prev = cur
    assert len(archive.entries) == 4


def test_archive_entries_are_deep_copies():
    pop = make_population([9.0, 1.0, 1.0, 1.0])
    archive = EliteArchive(1)
    update_elites(archive, pop, 1)
    transfer_weights(pop.agent(3).trainable, pop.agent(0).trainable)
    assert weights(pop.agent(0)) == {"x": 3.0}
    assert archive.entries[0].payload["weights"] == {"x": 0.0}


def test_archive_json_round_trip():
    pop = make_population([3.0, 1.0, 4.0, 1.5])
    archive = EliteArchive(3)
    update_elites(archive, pop, 7)
    data = json.loads(json.dumps(archive.to_json_dict()))
    restored = EliteArchive.from_json_dict(data, [tuple(e["hyperparams"]) for e in data["entries"]])
    assert restored.capacity == archive.capacity
    assert restored.entries == archive.entries


def test_archive_matches_brute_force_top_k(rng):
    """Merging round by round equals sorting all snapshots at once."""
    for _ in range(50):
        cap = int(rng.integers(1, 6))
        archive = EliteArchive(cap)
        pop = make_population([0.0] * 4)
        seen = []
        for r in range(1, int(rng.integers(2, 8))):
            for a in pop.agents:
                a.snapshot_fitness = float(rng.integers(0, 6))
            update_elites(archive, pop, r)
            seen.extend((a.snapshot_fitness, a.agent_id, r) for a in pop.agents)
        expected = sorted(seen, key=lambda t: (-t[0], t[1], t[2]))[:cap]
        got = [(e.fitness, e.agent_id, e.round) for e in archive.entries]
        assert got == expected


# -------------------------------------------------------------- backtrack

def test_backtrack_hand_trace():
    """N=4, archive holds (A=0@r1, 9.0) and (B=1@r1, 8.0).

    The bottom min(2, 4/2) = 2 agents by snapshot are 2 (1.5) and 3 (1.0),
    listed best first; they receive elites A and B in order.
    """
    pop = make_population([9.0, 8.0, 1.5, 1.0])
    archive = EliteArchive(2)
    update_elites(archive, pop, 1)
    # Later changes to the live agent must not reach the archived snapshot.
    transfer_weights(pop.agent(3).trainable, pop.agent(0).trainable)

    events = backtrack(pop, archive, round_no=6)

    assert [(e.target_agent_id, e.source_agent_id, e.source_round) for e in events] == [
        (2, 0, 1),
        (3, 1, 1),
    ]
    assert all(e.kind == ELITE_RESTORE for e in events)
    assert weights(pop.agent(2)) == {"x": 0.0}
    assert weights(pop.agent(3)) == {"x": 1.0}
    assert pop.agent(2).hyperparams == (1.0,)
    assert pop.agent(3).hyperparams == (2.0,)
    assert streams(pop.agent(2)) == own_streams(2)
    assert events[0].hyperparams_after == (1.0,)
    assert events[0].fitness_snapshot == 1.5
    assert events[0].round == 6


def test_backtrack_count_capped_by_half_population():
    pop = make_population([8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0], deltas=(1, 2))
    archive = EliteArchive(16)
    update_elites(archive, pop, 1)
    events = backtrack(pop, archive, round_no=2)
    assert len(events) == 4  # min(16, 8 // 2)
    assert [e.target_agent_id for e in events] == [4, 5, 6, 7]


def test_backtrack_count_capped_by_capacity():
    pop = make_population([9.0, 2.0, 1.5, 1.0])
    archive = EliteArchive(1)
    update_elites(archive, pop, 1)
    events = backtrack(pop, archive, round_no=3)
    assert [(e.target_agent_id, e.source_agent_id) for e in events] == [(3, 0)]
    assert weights(pop.agent(3)) == {"x": 0.0}
    assert weights(pop.agent(2)) == {"x": 2.0}


def test_backtrack_cycles_short_archive():
    """An archive holding fewer entries than the restore count wraps around."""
    pop = make_population([9.0, 2.0, 1.5, 1.0])
    archive = EliteArchive(4)
    update_elites(archive, pop, 1)
    archive.entries = archive.entries[:1]
    events = backtrack(pop, archive, round_no=3)
    assert [(e.target_agent_id, e.source_agent_id) for e in events] == [(2, 0), (3, 0)]
    assert weights(pop.agent(2)) == weights(pop.agent(3)) == {"x": 0.0}


def test_backtrack_empty_archive_is_noop():
    pop = make_population([4.0, 3.0, 2.0, 1.0])
    before = [a.trainable.export_payload() for a in pop.agents]
    assert backtrack(pop, EliteArchive(4), round_no=2) == []
    assert [a.trainable.export_payload() for a in pop.agents] == before


def test_backtrack_targets_oracle(rng):
    """Targets are exactly the bottom min(Ne, N/2) snapshots, best first."""
    for _ in range(100):
        n = 4 * int(rng.integers(1, 5))
        cap = int(rng.integers(1, 9))
        fits = [float(v) for v in rng.permutation(n)]
        pop = make_population(fits)
        archive = EliteArchive(cap)
        update_elites(archive, pop, 1)
        events = backtrack(pop, archive, round_no=2)
        count = min(cap, n // 2)
        expected = sorted(range(n), key=lambda i: (-fits[i], i))[n - count:]
        assert [e.target_agent_id for e in events] == expected
        for j, e in enumerate(events):
            elite = archive.entries[j % len(archive.entries)]
            assert e.source_agent_id == elite.agent_id
            assert e.source_round == elite.round
            assert e.hyperparams_after == elite.hyperparams
