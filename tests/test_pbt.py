"""Exploit pairing, explore perturbation, and the full truncation step."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popsched.core import Brackets, HyperparamSpace, HyperparamVector, SpaceEntry, compute_brackets
from popsched.events import PERTURBED_CLONE, SURVIVE
from popsched.pbt import PERTURB_FACTORS,exploit, explore_perturb, pbt_evolution_step

from conftest import evolve_rngs_for, make_population, own_streams, streams, weights


# ---------------------------------------------------------------- exploit

def test_exploit_cyclic_pairing():
    b = Brackets(winners=(0, 1), survivors=(2, 3), migration_open=(4, 5), losers=(6, 7))
    assert exploit(b) == [(6, 0), (7, 1)]

    # More losers than winners wraps around.
    b = Brackets(winners=(9,), survivors=(8,), migration_open=(7,), losers=(1, 2, 3))
    assert exploit(b) == [(1, 9), (2, 9), (3, 9)]


def test_exploit_membership_oracle(rng):
    """Pair targets are exactly the losers; sources cycle through winners."""
    for _ in range(500):
        n = 4 * int(rng.integers(1, 9))
        ranked = list(rng.permutation(n))
        b = compute_brackets(ranked)
        pairs = exploit(b)
        assert [t for t, _ in pairs] == list(b.losers)
        for k, (_, src) in enumerate(pairs):
            assert src == b.winners[k % len(b.winners)]


# ------------------------------------------------------- explore_perturb

def test_perturb_scales_each_entry_by_known_factor(rng):
    h = HyperparamVector((0.4, 2.0, 7.0))
    for _ in range(100):
        out = explore_perturb(h, rng)
        for before, after in zip(h.values, out.values):
            assert after in (before * 0.8, before * 1.25)


def test_perturb_can_leave_range_unless_clamped():
    space = HyperparamSpace((SpaceEntry("sigma", 0.5, 1.0),))
    h = HyperparamVector((1.0,))
    seen_above = False
    rng = np.random.default_rng(0)
    for _ in range(50):
        out = explore_perturb(h, rng, space=space, clamp=False)
        if out.values[0] > 1.0:
            seen_above = True
    assert seen_above

    rng = np.random.default_rng(0)
    for _ in range(50):
        out = explore_perturb(h, rng, space=space, clamp=True)
        assert 0.5 <= out.values[0] <= 1.0


def test_perturb_clamp_needs_space(rng):
    with pytest.raises(ValueError, match="requires the hyperparameter space"):
        explore_perturb(HyperparamVector((1.0,)), rng, space=None, clamp=True)


def test_perturb_factor_frequency_and_independence():
    """Each factor appears about half the time; entries are uncorrelated."""
    rng = np.random.default_rng(123)
    h = HyperparamVector((1.0, 1.0))
    n = 10_000
    picks = np.empty((n, 2))
    for i in range(n):
        picks[i] = explore_perturb(h, rng).values
    up = picks == 1.25
    freq = up.mean(axis=0)
    assert abs(freq[0] - 0.5) < 0.02
    assert abs(freq[1] - 0.5) < 0.02
    corr = np.corrcoef(up[:, 0], up[:, 1])[0, 1]
    assert abs(corr) < 0.05
    assert PERTURB_FACTORS == (0.8, 1.25)


def _perturb_oracle(hyperparams, rng, space, clamp):
    """explore_perturb as it drew before: all factors from one sized integers call."""
    idx = rng.integers(0, len(PERTURB_FACTORS), size=len(hyperparams))
    out = hyperparams.scaled([PERTURB_FACTORS[i] for i in idx])
    return space.clip(out) if clamp else out


def _draw_between(rng, kind, count):
    """Another consumer of the stream between two perturbations; count 0 is a scalar draw."""
    draw = rng.standard_normal if kind == "normal" else rng.random
    return np.atleast_1d(draw() if count == 0 else draw(count)).tolist()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**64 - 1), clamp=st.booleans(),
       calls=st.lists(st.tuples(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=6),
                                st.sampled_from(["none", "normal", "random"]), st.integers(0, 3)),
                      min_size=1, max_size=8))
def test_perturb_consumes_the_stream_as_one_sized_integers_call(seed, clamp, calls):
    """Same factors and the same generator state as the sized draw, with other draws between."""
    ours, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    for values, between, count in calls:
        h = HyperparamVector(tuple(values))
        space = HyperparamSpace(tuple(SpaceEntry(f"h{i}", 0.5, 2.0) for i in range(len(values))))
        assert explore_perturb(h, ours, space, clamp) == _perturb_oracle(h, oracle, space, clamp)
        if between != "none":
            assert _draw_between(ours, between, count) == _draw_between(oracle, between, count)
    assert ours.bit_generator.state == oracle.bit_generator.state


# ------------------------------------------------------ evolution step

def test_evolution_step_hand_trace():
    """n=4, fitness [4,3,2,1]: agents 0,1,2 survive, 3 clones winner 0."""
    pop = make_population([4.0, 3.0, 2.0, 1.0])
    rngs = evolve_rngs_for(pop)
    before_h0 = pop.agent(0).hyperparams
    before_w3_rng = streams(pop.agent(3))

    events = pbt_evolution_step(pop.agents, rngs, round_no=1, subpop_id=0)

    assert [e.kind for e in events] == [SURVIVE, SURVIVE, SURVIVE, PERTURBED_CLONE]
    assert [e.target_agent_id for e in events] == [0, 1, 2, 3]
    assert events[3].source_agent_id == 0
    assert events[3].round == 1
    assert events[3].source_round is None
    assert events[0].fitness_snapshot == 4.0

    loser = pop.agent(3)
    # Weights come from the winner, streams stay the loser's own.
    assert weights(loser) == {"x": 0.0}
    assert streams(loser) == before_w3_rng == own_streams(3)
    # Hyperparams are the winner's, perturbed entrywise.
    assert loser.hyperparams.values[0] in (
        before_h0.values[0] * 0.8,
        before_h0.values[0] * 1.25,
    )
    assert events[3].hyperparams_after == loser.hyperparams.values
    # Winner itself is untouched.
    assert pop.agent(0).hyperparams == before_h0
    assert weights(pop.agent(0)) == {"x": 0.0}


def test_evolution_step_survive_events_in_rank_order():
    pop = make_population([1.0, 5.0, 3.0, 2.0, 8.0, 6.0, 4.0, 7.0])
    rngs = evolve_rngs_for(pop)
    events = pbt_evolution_step(pop.agents, rngs, round_no=2, subpop_id=0)
    # Ranking: 4(8.0) 7(7.0) 5(6.0) 1(5.0) 6(4.0) 2(3.0) 3(2.0) 0(1.0)
    assert [e.target_agent_id for e in events] == [4, 7, 5, 1, 6, 2, 3, 0]
    assert [e.kind for e in events] == [SURVIVE] * 6 + [PERTURBED_CLONE] * 2
    assert events[6].source_agent_id == 4
    assert events[7].source_agent_id == 7


def test_evolution_step_clone_count_and_targets(rng):
    for _ in range(50):
        n = 4 * int(rng.integers(1, 6))
        fits = [float(v) for v in rng.permutation(n)]
        pop = make_population(fits)
        events = pbt_evolution_step(pop.agents, evolve_rngs_for(pop), 1, 0)
        clones = [e for e in events if e.kind == PERTURBED_CLONE]
        assert len(clones) == n // 4
        ranked_ids = sorted(range(n), key=lambda i: (-fits[i], i))
        assert [e.target_agent_id for e in clones] == ranked_ids[-(n // 4):]


def test_evolution_step_tie_breaks_toward_lower_id():
    pop = make_population([1.0, 1.0, 1.0, 1.0])
    events = pbt_evolution_step(pop.agents, evolve_rngs_for(pop), 1, 0)
    assert [e.target_agent_id for e in events] == [0, 1, 2, 3]
    assert events[3].kind == PERTURBED_CLONE
    assert events[3].source_agent_id == 0


def test_evolution_step_variance_exploitation_keeps_own_h():
    pop = make_population([4.0, 3.0, 2.0, 1.0])
    own_h = pop.agent(3).hyperparams
    events = pbt_evolution_step(
        pop.agents, evolve_rngs_for(pop), 1, 0, variance_exploitation=True
    )
    assert pop.agent(3).hyperparams == own_h
    assert events[3].hyperparams_after == own_h.values
    # Weights still move.
    assert weights(pop.agent(3)) == {"x": 0.0}


def test_evolution_step_variance_mode_preserves_h_multiset(rng):
    for _ in range(20):
        n = 8
        fits = [float(v) for v in rng.permutation(n)]
        pop = make_population(fits)
        before = sorted(a.hyperparams.values for a in pop.agents)
        pbt_evolution_step(
            pop.agents, evolve_rngs_for(pop), 3, 0, variance_exploitation=True
        )
        after = sorted(a.hyperparams.values for a in pop.agents)
        assert before == after


def test_evolution_step_clamp_respects_space():
    space = HyperparamSpace((SpaceEntry("sigma", 0.9, 1.1),))
    for trial in range(10):
        pop = make_population([4.0, 3.0, 2.0, 1.0], h_for=lambda i: (1.0,))
        pbt_evolution_step(
            pop.agents, evolve_rngs_for(pop, master_seed=trial), 1, 0,
            space=space, clamp=True,
        )
        v = pop.agent(3).hyperparams.values[0]
        assert v in (0.9, 1.1)
