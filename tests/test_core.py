"""Spaces, vectors, populations, ranking, and bracket computation."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popsched.core import (
    Brackets,
    ConfigError,
    HyperparamSpace,
    SpaceEntry,
    compute_brackets,
    rank_descending,
    sample_hyperparams,
)
from popsched.pbt import PERTURB_FACTORS, explore_perturb
from popsched.runner import run_experiment

from conftest import make_population
from test_runner import small_config


def lr_space(low=1e-5, high=1e-3) -> HyperparamSpace:
    return HyperparamSpace((SpaceEntry("lr", low, high),))


# ----------------------------------------------------------- construction

def test_space_entry_rejects_bad_name():
    with pytest.raises(ConfigError, match="identifier"):
        SpaceEntry("2lr", 0.1, 1.0)


def test_space_entry_rejects_bad_bounds():
    with pytest.raises(ConfigError):
        SpaceEntry("lr", 0.0, 1.0)
    with pytest.raises(ConfigError):
        SpaceEntry("lr", 2.0, 1.0)
    with pytest.raises(ConfigError):
        SpaceEntry("lr", 0.1, math.inf)


def test_space_entry_rejects_unknown_scale():
    with pytest.raises(ConfigError, match="scale"):
        SpaceEntry("lr", 0.1, 1.0, scale="linear")


def test_space_rejects_duplicates_and_empty():
    with pytest.raises(ConfigError, match="duplicate"):
        HyperparamSpace((SpaceEntry("lr", 0.1, 1.0), SpaceEntry("lr", 0.1, 1.0)))
    with pytest.raises(ConfigError):
        HyperparamSpace(())


def test_space_names_and_mapping():
    space = HyperparamSpace((SpaceEntry("lr", 0.1, 1.0), SpaceEntry("sigma", 1.0, 2.0)))
    assert space.names == ("lr", "sigma")
    assert space.to_mapping((0.5, 1.5)) == {"lr": 0.5, "sigma": 1.5}


def test_space_clip():
    space = lr_space(0.1, 1.0)
    assert space.clip((5.0,)) == (1.0,)
    assert space.clip((0.01,)) == (0.1,)
    assert space.clip((0.5,)) == (0.5,)


def test_explore_perturb_refuses_a_product_that_overflows():
    """1.5e308 * 1.25 is inf, refused; 1.5e308 * 0.8 is kept, and 0.8 never takes a value to 0."""
    factors = set()
    for seed in range(8):
        factor = PERTURB_FACTORS[np.random.default_rng(seed).integers(0, len(PERTURB_FACTORS))]
        factors.add(factor)
        if factor == 1.25:
            with pytest.raises(ConfigError, match="^hyperparameter values must be positive reals, got inf$"):
                explore_perturb((1.5e308,), np.random.default_rng(seed))
        else:
            assert explore_perturb((1.5e308,), np.random.default_rng(seed)) == (1.5e308 * 0.8,)
        assert explore_perturb((5e-324,), np.random.default_rng(seed)) == (5e-324,)
    assert factors == set(PERTURB_FACTORS)


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_restore_refuses_a_non_positive_vector(tmp_path, value):
    cfg = small_config("pbt", total_steps=5 * 4, checkpoint_every=2)
    run_experiment(cfg, seed=1, out_dir=tmp_path, stop_after_round=3)
    checkpoint = tmp_path / "checkpoints" / "round_000002.json"
    state = json.loads(checkpoint.read_text())
    state["agents"][1]["hyperparams"] = [value]
    checkpoint.write_text(json.dumps(state))
    with pytest.raises(ConfigError) as exc:
        run_experiment(cfg, seed=1, out_dir=tmp_path, resume=True)
    assert str(exc.value) == f"hyperparams: {checkpoint} for agent 1 must be positive reals, got {value!r}"


# -------------------------------------------------------------- sampling

def test_sampling_respects_bounds(rng):
    space = lr_space()
    for _ in range(200):
        (v,) = sample_hyperparams(space, rng)
        assert 1e-5 <= v <= 1e-3


def test_sampling_degenerate_range_is_exact(rng):
    space = lr_space(1e-4, 1e-4)
    assert sample_hyperparams(space, rng) == (1e-4,)


def test_sampling_deterministic_for_fixed_seed():
    a = sample_hyperparams(lr_space(), np.random.default_rng(99))
    b = sample_hyperparams(lr_space(), np.random.default_rng(99))
    assert a == b


def test_sampling_log_uniformity_bins():
    # 10^4 samples; ln(v) split into 10 equal-width bins over [ln low,
    # ln high]; each bin must hold 5..15% of the samples.
    space = lr_space()
    rng = np.random.default_rng(7)
    n = 10_000
    logs = np.array(
        [math.log(sample_hyperparams(space, rng)[0]) for _ in range(n)]
    )
    counts, _ = np.histogram(logs, bins=10, range=(math.log(1e-5), math.log(1e-3)))
    assert counts.sum() == n
    assert counts.min() >= 0.05 * n, counts.tolist()
    assert counts.max() <= 0.15 * n, counts.tolist()


# --------------------------------------------------------------- ranking

def rank_oracle(pairs):
    """Selection sort on (-fitness, id): repeatedly extract the best."""
    remaining = list(pairs)
    out = []
    while remaining:
        best = remaining[0]
        for cand in remaining[1:]:
            if cand[1] > best[1] or (cand[1] == best[1] and cand[0] < best[0]):
                best = cand
        remaining.remove(best)
        out.append(best[0])
    return out


def test_rank_examples():
    assert rank_descending([(0, 3.0), (1, 1.0), (2, 2.0)]) == [0, 2, 1]
    assert rank_descending([(0, 1.0), (1, 1.0)]) == [0, 1]


def test_rank_matches_selection_sort_oracle():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        ids = list(range(n))
        rng.shuffle(ids)
        # Coarse grid so ties actually occur.
        pairs = [(i, float(rng.integers(0, 5))) for i in ids]
        assert rank_descending(pairs) == rank_oracle(pairs)


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40))
def test_rank_is_permutation(fitnesses):
    pairs = list(enumerate(fitnesses))
    ranked = rank_descending(pairs)
    assert sorted(ranked) == list(range(len(fitnesses)))


# -------------------------------------------------------------- brackets

def test_bracket_example_n8():
    ranked = list("abcdefgh")
    b = compute_brackets(ranked)
    assert b.winners == ("a", "b")
    assert b.survivors == ("c", "d")
    assert b.migration_open == ("e", "f")
    assert b.losers == ("g", "h")


def test_bracket_example_n4():
    b = compute_brackets([3, 1, 0, 2])
    assert b == Brackets(winners=(3,), survivors=(1,), migration_open=(0,), losers=(2,))


def test_bracket_set_arithmetic_oracle():
    rng = np.random.default_rng(5)
    for _ in range(500):
        n = 4 * int(rng.integers(1, 9))
        ranked = list(rng.permutation(n))
        b = compute_brackets(ranked)
        quarters = [b.winners, b.survivors, b.migration_open, b.losers]
        assert all(len(q) == n // 4 for q in quarters)
        union = set()
        for q in quarters:
            assert union.isdisjoint(q)
            union.update(q)
        assert union == set(ranked)
        # Order preservation: concatenation reproduces the ranking.
        flat = [x for q in quarters for x in q]
        assert flat == ranked


@given(st.integers(1, 10), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_bracket_partition_property(quarter, seed):
    n = 4 * quarter
    ranked = list(np.random.default_rng(seed).permutation(n))
    b = compute_brackets(ranked)
    combined = list(b.winners) + list(b.survivors) + list(b.migration_open) + list(b.losers)
    assert combined == ranked


# ------------------------------------------------------------ population

def test_population_subpop_slices():
    pop = make_population(list(map(float, range(8))), deltas=(1, 2))
    assert pop.size == 8
    assert pop.subpop_size == 4
    assert [a.agent_id for a in pop.subpop(0)] == [0, 1, 2, 3]
    assert [a.agent_id for a in pop.subpop(1)] == [4, 5, 6, 7]
    assert pop.agent(5).agent_id == 5
