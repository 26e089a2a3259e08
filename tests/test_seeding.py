"""Stream derivation: disjointness, reproducibility, uniformity."""

from __future__ import annotations

import numpy as np
import pytest

from popsched.seeding import STREAM_KINDS, agent_trainable_seed, restore_generator, seed_hierarchy


def test_same_inputs_same_stream():
    a = seed_hierarchy(7, 3, "train").random(5)
    b = seed_hierarchy(7, 3, "train").random(5)
    assert a.tolist() == b.tolist()


def test_streams_differ_across_agents():
    a = seed_hierarchy(7, 0, "train").random(4)
    b = seed_hierarchy(7, 1, "train").random(4)
    assert a.tolist() != b.tolist()


def test_streams_differ_across_kinds():
    draws = {
        kind: seed_hierarchy(7, 3, kind).random(4).tolist() for kind in STREAM_KINDS
    }
    values = list(draws.values())
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            assert values[i] != values[j]


def test_streams_differ_across_master_seeds():
    a = seed_hierarchy(0, 0, "evolve").random(4)
    b = seed_hierarchy(1, 0, "evolve").random(4)
    assert a.tolist() != b.tolist()


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown stream kind"):
        seed_hierarchy(0, 0, "explore")


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        seed_hierarchy(-1, 0, "train")
    with pytest.raises(ValueError):
        seed_hierarchy(0, -2, "train")


def test_restored_generator_continues_the_saved_stream():
    gen = seed_hierarchy(7, 3, "evolve")
    gen.random(11)
    restored = restore_generator(gen.bit_generator.state)
    assert restored.random(5).tolist() == gen.random(5).tolist()
    assert restored.integers(0, 9, size=4).tolist() == gen.integers(0, 9, size=4).tolist()
    with pytest.raises(ValueError):
        restore_generator(np.random.Generator(np.random.MT19937(0)).bit_generator.state)


def test_agent_trainable_seed_stable_and_distinct():
    s = agent_trainable_seed(5, 9)
    assert s == agent_trainable_seed(5, 9)
    assert 0 <= s < 2**64
    seeds = {agent_trainable_seed(5, i) for i in range(100)}
    assert len(seeds) == 100


def test_trainable_seed_disjoint_from_runner_streams():
    # The trainable seed for agent 0 must not collide with the runner's
    # own stream family for the same (master, agent) pair.
    master, agent = 11, 0
    tseed = agent_trainable_seed(master, agent)
    first = seed_hierarchy(master, agent, "train").random()
    other = np.random.default_rng(tseed).random()
    assert first != other


def test_first_draw_uniformity_bins():
    # First uniform draw of 10^4 per-agent train streams: 10 bins, each
    # holding between 8% and 12% of the draws.
    n = 10_000
    draws = np.array([seed_hierarchy(0, i, "train").random() for i in range(n)])
    counts, _ = np.histogram(draws, bins=10, range=(0.0, 1.0))
    assert counts.sum() == n
    assert counts.min() >= 0.08 * n, counts.tolist()
    assert counts.max() <= 0.12 * n, counts.tolist()
