"""Built-in synthetic trainables: dynamics, payloads, stream accounting."""

from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popsched.baselines import EliteEntry
from popsched.presets import get_preset
from popsched.runner import run_experiment
from popsched.trainables import (
    _BLOCK,
    TRAINABLES,
    QuadraticLRTrainable,
    SeedLotteryTrainable,
    Trainable,
    TwoBasinTrainable,
    _skip_radii,
    build_trainable,
    transfer_weights,
    two_basin_objective,
)

# Frozen values, computed by hand from the closed forms:
#   f(5) = 3 * exp(-12.5)
#   quadratic loss after 100 steps of lr=0.05 on curvature (1, 10),
#   theta0 = (1, 1): 0.5 * (0.95**200 + 10 * 0.5**200)
F_AT_5 = 1.1179959516236013e-05
QUAD_LOSS_100 = 1.752633312441434e-05


# ----------------------------------------------------------- two_basin

def test_objective_frozen_values():
    assert abs(two_basin_objective(0.0) - 1.0) < 1e-12
    assert abs(two_basin_objective(10.0) - 2.0) < 1e-12
    assert abs(two_basin_objective(5.0) - F_AT_5) < 1e-4 * F_AT_5
    assert two_basin_objective(5.0) == 3.0 * math.exp(-12.5)


def test_two_basin_tiny_sigma_stays_local():
    t = TwoBasinTrainable()
    t.init(0, {"sigma": 1e-6})
    t.train(100)
    x = t.export_payload()["weights"]["x"]
    assert abs(x) <= 0.01
    assert abs(t.evaluate() - 1.0) < 1e-6


def test_two_basin_fitness_never_decreases():
    t = TwoBasinTrainable()
    t.init(3, {"sigma": 1.0})
    prev = t.evaluate()
    for _ in range(20):
        t.train(25)
        cur = t.evaluate()
        assert cur >= prev
        prev = cur


def test_two_basin_large_sigma_reaches_global_basin():
    t = TwoBasinTrainable()
    t.init(1, {"sigma": 5.0})
    t.train(10_000)
    assert t.evaluate() > 1.5


def test_two_basin_requires_sigma():
    t = TwoBasinTrainable()
    t.init(0, {})
    with pytest.raises(ValueError, match="positive 'sigma'"):
        t.train(1)
    t.set_hyperparams({"sigma": 0.0})
    with pytest.raises(ValueError, match="positive 'sigma'"):
        t.train(1)


def test_two_basin_forget_prob_validation():
    with pytest.raises(ValueError, match="forget_prob"):
        TwoBasinTrainable(forget_prob=1.0)
    with pytest.raises(ValueError, match="forget_prob"):
        TwoBasinTrainable(forget_prob=-0.1)
    TwoBasinTrainable(forget_prob=0.5)


@pytest.mark.parametrize("forget_prob", [0.0, 0.3])
def test_advance_rng_mirrors_train_draws(forget_prob):
    """After train(n) and advance_rng(n) the private stream states agree."""
    a = TwoBasinTrainable(forget_prob=forget_prob)
    b = TwoBasinTrainable(forget_prob=forget_prob)
    a.init(7, {"sigma": 0.5})
    b.init(7, {"sigma": 0.5})
    a.train(50)
    b.advance_rng(50)
    assert a.export_payload()["rng"] == b.export_payload()["rng"]
    # Mirroring holds chunk by chunk as well.
    a.train(10)
    a.train(7)
    b.advance_rng(10)
    b.advance_rng(7)
    assert a.export_payload()["rng"] == b.export_payload()["rng"]
    # An agent resuming from the trained payload stays in lockstep.
    c = TwoBasinTrainable(forget_prob=forget_prob)
    c.import_payload(a.export_payload())
    c.set_hyperparams({"sigma": 0.5})
    a.train(10)
    c.train(10)
    assert a.export_payload() == c.export_payload()


def test_forgetting_can_destroy_progress():
    t = TwoBasinTrainable(forget_prob=0.1, forget_scale=8.0)
    t.init(2, {"sigma": 5.0})
    dipped = False
    prev = t.evaluate()
    for _ in range(60):
        t.train(50)
        cur = t.evaluate()
        if cur < prev - 1e-9:
            dipped = True
        prev = cur
    assert dipped


class _ReferenceTwoBasin(TwoBasinTrainable):
    """The hill climb as first written: every proposal evaluated. The oracle for train()."""

    def train(self, num_steps: int) -> None:
        sigma = self._hyperparams.get("sigma")
        if sigma is None or sigma <= 0.0:
            raise ValueError(f"two_basin needs a positive 'sigma' hyperparameter, got {sigma}")
        exp = math.exp
        x = self._x
        fx = exp(-0.5 * x * x) + 2.0 * exp(-0.5 * (x - 10.0) * (x - 10.0))
        gs = self._rng_train.standard_normal(num_steps).tolist()
        if self.forget_prob > 0.0:
            us = self._rng_train.random(num_steps).tolist()
            p, scale = self.forget_prob, self.forget_scale
            for g, u in zip(gs, us):
                if u < p:
                    x = x + scale * g
                    fx = exp(-0.5 * x * x) + 2.0 * exp(-0.5 * (x - 10.0) * (x - 10.0))
                    continue
                xp = x + sigma * g
                fxp = exp(-0.5 * xp * xp) + 2.0 * exp(-0.5 * (xp - 10.0) * (xp - 10.0))
                if fxp > fx:
                    x, fx = xp, fxp
        else:
            for g in gs:
                xp = x + sigma * g
                fxp = exp(-0.5 * xp * xp) + 2.0 * exp(-0.5 * (xp - 10.0) * (xp - 10.0))
                if fxp > fx:
                    x, fx = xp, fxp
        self._x = x
        self._steps += num_steps

    def evaluate(self, num_repeats: int = 1) -> float:
        """F(x) computed afresh at every call (these tests use no evaluation noise)."""
        return two_basin_objective(self._x)


def _evaluates_f_of_x(t: Trainable) -> bool:
    """A two_basin walker's evaluate() is F of its x, bit for bit; other kinds pass."""
    return not isinstance(t, TwoBasinTrainable) or t.evaluate() == two_basin_objective(t._x)


# The tops of both basins, the valley between them (about 5 - ln(2)/10), the
# point where train()'s two bounds meet and its float neighbours, and far tails;
# the valley's slopes, where the walker's fitness is close to the bounds' 2 exp(-12.5).
_START_X = st.one_of(
    st.sampled_from([0.0, 1e-9, -1e-9, 5.0, math.nextafter(5.0, math.inf),
                     math.nextafter(5.0, -math.inf), 10.0, 5.0 - math.log(2.0) / 10.0, 40.0, -40.0]),
    st.floats(-40.0, 40.0),
    st.floats(3.5, 6.5),
)
_SIGMA = st.one_of(st.floats(1e-6, 50.0), st.floats(-6.0, math.log10(50.0)).map(lambda e: 10.0 ** e))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    start_x=_START_X,
    forget_prob=st.one_of(st.just(0.0), st.floats(1e-3, 0.5)),
    seed=st.integers(0, 2**32),
    calls=st.lists(st.tuples(_SIGMA, st.integers(1, 300), st.one_of(st.none(), _START_X)),
                   min_size=1, max_size=4),
)
def test_two_basin_train_matches_the_reference_loop(start_x, forget_prob, seed, calls):
    """Chained calls; a call may first move the walker, as a weight transfer does."""
    fast = TwoBasinTrainable(start_x=start_x, forget_prob=forget_prob)
    ref = _ReferenceTwoBasin(start_x=start_x, forget_prob=forget_prob)
    fast.init(seed, {"sigma": calls[0][0]})
    ref.init(seed, {"sigma": calls[0][0]})
    for sigma, steps, moved_to in calls:
        if moved_to is not None:
            fast.import_weights({"x": moved_to})
            ref.import_weights({"x": moved_to})
        fast.set_hyperparams({"sigma": sigma})
        ref.set_hyperparams({"sigma": sigma})
        fast.train(steps)
        ref.train(steps)
        assert (fast._x, fast._steps) == (ref._x, ref._steps)
        assert fast.export_payload() == ref.export_payload()
        assert fast.evaluate() == ref.evaluate()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    walkers=st.lists(st.tuples(_START_X, _SIGMA, st.integers(0, 2**32)), min_size=1, max_size=32),
    forget_prob=st.one_of(st.just(0.0), st.floats(1e-3, 0.5)),
    calls=st.lists(st.tuples(st.integers(1, 300), st.integers(1, 3),
                             st.lists(st.tuples(st.integers(0, 31), _START_X), max_size=4)),
                   min_size=1, max_size=3),
    bad=st.tuples(st.integers(0, 31), st.sampled_from([None, 0.0, -0.5])),
)
def test_two_basin_train_rounds_matches_the_reference_loop_on_each_walker(walkers, forget_prob, calls,
                                                                           bad):
    """Chained train_rounds calls over a population, some walkers moved by import_weights
    between them; then a walker without a positive sigma fails the call before any draw."""
    batch = [TwoBasinTrainable(start_x=x, forget_prob=forget_prob) for x, _, _ in walkers]
    refs = [_ReferenceTwoBasin(start_x=x, forget_prob=forget_prob) for x, _, _ in walkers]
    for (_, sigma, seed), fast, ref in zip(walkers, batch, refs):
        fast.init(seed, {"sigma": sigma})
        ref.init(seed, {"sigma": sigma})
    for steps, rounds, moves in calls:
        for i, moved_to in moves:
            batch[i % len(batch)].import_weights({"x": moved_to})
            refs[i % len(refs)].import_weights({"x": moved_to})
        rows = TwoBasinTrainable.train_rounds(batch, steps, rounds, 1)
        want = []
        for _ in range(rounds):
            for ref in refs:
                ref.train(steps)
            want.append([ref.evaluate() for ref in refs])
        assert rows == want
        for fast, ref in zip(batch, refs):
            assert (fast._x, fast._steps) == (ref._x, ref._steps)
            assert fast.export_payload() == ref.export_payload()

    i, sigma = bad
    batch[i % len(batch)].set_hyperparams({} if sigma is None else {"sigma": sigma})
    before = [t.export_payload() for t in batch]
    with pytest.raises(ValueError, match="positive 'sigma'"):
        TwoBasinTrainable.train_rounds(batch, calls[0][0], 2, 1)
    assert [t.export_payload() for t in batch] == before


class _CountingTwoBasin(TwoBasinTrainable):
    """A walker that counts its train() calls, which only train_rounds' default path makes."""

    calls = 0

    def train(self, num_steps: int) -> None:
        _CountingTwoBasin.calls += 1
        super().train(num_steps)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    walkers=st.lists(st.tuples(_START_X, _SIGMA, st.integers(0, 2**32), st.integers(0, 120),
                               st.one_of(st.none(), _START_X)), min_size=1, max_size=16),
    num_steps=st.sampled_from([1, 7, 50]),
    rounds=st.sampled_from(["1", "2", "3", "one past a block", "40"]),
    default=st.sampled_from([None, "forget_prob", "eval_noise"]),
)
def test_two_basin_train_rounds_equals_rounds_of_train_and_evaluate(walkers, num_steps, rounds, default):
    """One train_rounds call against rounds x (train on each, then evaluate each), bit for bit, from
    walkers trained first (radii at some fitness), some then moved (radii reset). One walker with
    corruption or evaluation noise sends the whole population down the default path."""
    rounds = _BLOCK // num_steps + 1 if rounds == "one past a block" else int(rounds)

    def population():
        out = []
        for k, (x, sigma, seed, steps, moved_to) in enumerate(walkers):
            t = _CountingTwoBasin(start_x=x, **({default: 0.05} if default and k == len(walkers) // 2 else {}))
            t.init(seed, {"sigma": sigma})
            t.train(steps)
            if moved_to is not None:
                t.import_weights({"x": moved_to})
            out.append(t)
        return out

    batch, refs = population(), population()
    _CountingTwoBasin.calls = 0
    rows = TwoBasinTrainable.train_rounds(batch, num_steps, rounds, 2)
    assert _CountingTwoBasin.calls == (rounds * len(batch) if default else 0)
    want = []
    for _ in range(rounds):
        for ref in refs:
            ref.train(num_steps)
        want.append([ref.evaluate(2) for ref in refs])
    assert rows == want
    assert [t.export_payload() for t in batch] == [ref.export_payload() for ref in refs]


def test_a_twobasin_rs_run_never_holds_its_whole_run_of_draws():
    """Random search trains its 400 rounds as one stretch, which train_rounds draws block by block:
    the run's traced peak stays under half of its draws' bytes (a single block would hold them all)."""
    config = get_preset("twobasin-rs")
    run_experiment(config, seed=0, stop_after_round=2)  # what a first run caches is not the batch's
    tracemalloc.start()
    try:
        run_experiment(config, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    draws = config.num_agents * config.num_rounds * config.t_ready * 8
    assert config.num_rounds == 400
    assert peak < draws / 2


def _skipped(xp: float, t0: float, t1: float) -> bool:
    """train()'s skip test for proposal xp."""
    if xp <= 5.0:
        return xp * xp >= t0
    return (xp - 10.0) * (xp - 10.0) >= t1


def _with_neighbours(v: float, n: int = 3) -> list[float]:
    out, lo, hi = [v], v, v
    for _ in range(n):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


# Walkers whose fitness is just above 2 exp(-12.5), where the radii turn finite,
# or where a first radius crosses 25 (4.8553..., -4.7752..., 14.9182...).
_NEAR_THRESHOLD_X = st.one_of(st.floats(4.8, 5.2), st.floats(14.9, 15.1), st.floats(-4.8, -4.7),
                              st.sampled_from([4.8589, 4.85895, 15.0, -4.8589, 4.8553333635214075,
                                               -4.775225169538827, 14.918238483446114]))
# Walkers near a basin's top, where the radii are narrowest.
_NEAR_TOP_X = st.one_of(st.floats(-1e-4, 1e-4), st.floats(10.0 - 1e-4, 10.0 + 1e-4))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(x=st.one_of(_START_X, _NEAR_THRESHOLD_X, _NEAR_TOP_X), far=st.floats(-60.0, 60.0))
def test_two_basin_skip_test_never_skips_an_improving_proposal(x, far):
    # two_basin_objective computes F with train()'s expression, operation for operation.
    fx = two_basin_objective(x)
    t0, t1 = _skip_radii(fx)
    if fx > 3.0 * math.exp(-12.5):
        assert t0 < math.inf and t1 < math.inf
    edges = [5.0, far]
    if 0.0 <= t0 < math.inf:
        edges += [math.sqrt(t0), -math.sqrt(t0)]
    if 0.0 <= t1 < math.inf:
        edges += [10.0 - math.sqrt(t1), 10.0 + math.sqrt(t1)]
    for xp in (p for edge in edges for p in _with_neighbours(edge)):
        if _skipped(xp, t0, t1):
            assert two_basin_objective(xp) <= fx, (x, xp)


def test_two_basin_skip_test_leaves_only_a_narrow_band_near_the_top():
    t0, t1 = _skip_radii(two_basin_objective(0.0))
    assert _skipped(1e-3, t0, t1) and _skipped(-3.0, t0, t1) and _skipped(13.0, t0, t1)
    assert not _skipped(10.0, t0, t1)
    assert not _skipped(1e-5, t0, t1)
    t0, t1 = _skip_radii(two_basin_objective(10.0))
    assert _skipped(10.0 + 1e-3, t0, t1) and _skipped(0.0, t0, t1)
    assert not _skipped(10.0 - 1e-5, t0, t1)


# -------------------------------------------------------- quadratic_lr

def test_quadratic_one_step_to_optimum():
    t = QuadraticLRTrainable(curvature=(1.0,))
    t.init(0, {"lr": 1.0})
    t.train(1)
    assert t.evaluate() == 0.0


def test_quadratic_frozen_loss():
    t = QuadraticLRTrainable()
    t.init(0, {"lr": 0.05})
    t.train(100)
    assert abs(-t.evaluate() - QUAD_LOSS_100) < 1e-12


def test_quadratic_divergence_is_clamped_finite():
    t = QuadraticLRTrainable(curvature=(1.0,))
    t.init(0, {"lr": 2.5})
    t.train(500)
    f = t.evaluate()
    assert math.isfinite(f)
    assert f == -1e30


def test_quadratic_requires_lr():
    t = QuadraticLRTrainable()
    t.init(0, {"sigma": 1.0})
    with pytest.raises(ValueError, match="positive 'lr'"):
        t.train(1)


def test_quadratic_parameter_validation():
    with pytest.raises(ValueError, match="curvature"):
        QuadraticLRTrainable(curvature=(0.0,))
    with pytest.raises(ValueError, match="dimensions"):
        QuadraticLRTrainable(curvature=(1.0,), theta0=(1.0, 2.0))


def test_quadratic_consumes_no_training_draws():
    t = QuadraticLRTrainable()
    t.init(5, {"lr": 0.1})
    before = t.export_payload()["rng"]["train_state"]
    t.train(200)
    after = t.export_payload()["rng"]["train_state"]
    assert before == after


# -------------------------------------------------------- seed_lottery

def test_seed_lottery_zero_drift_zero_noise_is_constant():
    t = SeedLotteryTrainable(drift_median=0.0, drift_sigma_log=0.0, noise_scale=0.0)
    t.init(0, {})
    t.train(100)
    assert t.evaluate() == 0.0


def test_seed_lottery_level_tracks_drift():
    fast = SeedLotteryTrainable(drift_median=1.0, drift_sigma_log=0.0, noise_scale=0.0)
    slow = SeedLotteryTrainable(drift_median=0.1, drift_sigma_log=0.0, noise_scale=0.0)
    fast.init(0, {})
    slow.init(0, {})
    fast.train(100)
    slow.train(100)
    assert abs(fast.evaluate() - 100.0) < 1e-9
    assert abs(slow.evaluate() - 10.0) < 1e-9


def test_seed_lottery_ignores_hyperparams():
    a = SeedLotteryTrainable(noise_scale=0.0, drift_sigma_log=0.0)
    b = SeedLotteryTrainable(noise_scale=0.0, drift_sigma_log=0.0)
    a.init(4, {"rate": 0.001})
    b.init(4, {"rate": 999.0})
    a.train(50)
    b.train(50)
    assert a.evaluate() == b.evaluate()


def test_seed_lottery_drift_lives_in_weights():
    t = SeedLotteryTrainable()
    t.init(11, {})
    w = t.export_payload()["weights"]
    assert set(w) == {"level", "drift"}
    assert w["drift"] > 0.0


def test_seed_lottery_parameter_validation():
    with pytest.raises(ValueError, match="non-negative"):
        SeedLotteryTrainable(drift_median=-1.0)


# ------------------------------------------------- payloads and streams

ALL_KINDS = [
    (TwoBasinTrainable, {"sigma": 0.7}),
    (QuadraticLRTrainable, {"lr": 0.05}),
    (SeedLotteryTrainable, {}),
]


@pytest.mark.parametrize("cls,h", ALL_KINDS)
def test_payload_round_trip_is_exact(cls, h):
    src = cls()
    src.init(13, h)
    assert _evaluates_f_of_x(src)
    src.train(30)
    assert _evaluates_f_of_x(src)
    payload = src.export_payload()

    dst = cls()
    dst.import_payload(json.loads(json.dumps(payload)))
    dst.set_hyperparams(h)
    assert dst.export_payload() == payload
    assert _evaluates_f_of_x(dst)

    # Training both after the round trip keeps them identical.
    src.train(10)
    dst.train(10)
    assert src.export_payload() == dst.export_payload()
    assert src.evaluate() == dst.evaluate()
    # And so does training one of them as a batch of one.
    src.train(10)
    assert cls.train_rounds([dst], 10, 1, 1) == [[src.evaluate()]]
    assert src.export_payload() == dst.export_payload()
    assert _evaluates_f_of_x(dst)


@pytest.mark.parametrize("cls,h", ALL_KINDS)
def test_evaluate_is_pure(cls, h):
    t = cls()
    t.init(9, h)
    t.train(20)
    snapshot = t.export_payload()
    f1 = t.evaluate()
    f2 = t.evaluate()
    assert f1 == f2
    assert t.export_payload() == snapshot


def _containers(obj, found: set) -> set:
    """ids of every dict and list reachable from obj."""
    if isinstance(obj, (dict, list)):
        found.add(id(obj))
        for v in obj.values() if isinstance(obj, dict) else obj:
            _containers(v, found)
    return found


def _scramble(obj) -> None:
    """Change every number inside obj in place."""
    for k, v in list(obj.items() if isinstance(obj, dict) else enumerate(obj)):
        if isinstance(v, (dict, list)):
            _scramble(v)
        elif isinstance(v, (int, float)) and not isinstance(v, bool):
            obj[k] = v + 1


@pytest.mark.parametrize("cls,h", ALL_KINDS)
def test_export_payload_shares_nothing_with_the_trainable(cls, h):
    t, twin = cls(), cls()
    for x in (t, twin):
        x.init(5, h)
        x.train(20)
    first, second = t.export_payload(), t.export_payload()
    assert first == second
    assert not _containers(first, set()) & _containers(second, set())

    _scramble(first)
    assert first["rng"]["train_state"] != second["rng"]["train_state"]
    assert first["weights"] != second["weights"]
    assert t.export_payload() == second
    t.train(15)
    twin.train(15)
    assert t.export_payload() == twin.export_payload()
    assert t.evaluate() == twin.evaluate()


@pytest.mark.parametrize("cls,h", ALL_KINDS)
def test_import_payload_shares_nothing_with_the_payload(cls, h):
    src = cls()
    src.init(5, h)
    src.train(20)
    payload = src.export_payload()
    t = cls()
    t.import_payload(payload)
    imported = t.export_payload()

    _scramble(payload)
    assert payload != imported
    assert t.export_payload() == imported


@pytest.mark.parametrize(
    "name,cls", sorted(TRAINABLES.items()), ids=sorted(TRAINABLES)
)
def test_every_registered_trainable_supplies_the_contract(name, cls):
    assert cls in {c for c, _ in ALL_KINDS}
    assert issubclass(cls, Trainable)
    assert cls.kind == name
    for method in ("_reset", "train", "advance_rng", "evaluate", "export_weights", "import_weights"):
        assert method in vars(cls), method


def test_eval_repeats_equivalent_without_noise():
    t = TwoBasinTrainable(eval_noise=0.0)
    t.init(0, {"sigma": 1.0})
    t.train(40)
    assert t.evaluate(1) == t.evaluate(4)


def test_eval_noise_matches_direct_average():
    """Noisy evaluation equals the mean over the derived eval stream."""
    t = TwoBasinTrainable(eval_noise=0.3)
    t.init(21, {"sigma": 1.0})
    t.train(17)
    base = two_basin_objective(t.export_payload()["weights"]["x"])
    draws = np.random.default_rng(np.random.SeedSequence((21, 2, 17))).standard_normal(512)
    expected = float(np.mean(base + 0.3 * draws))
    assert abs(t.evaluate(512) - expected) < 1e-12


def test_eval_noise_changes_after_training_only():
    t = TwoBasinTrainable(eval_noise=0.5)
    t.init(3, {"sigma": 1.0})
    t.train(10)
    f1 = t.evaluate(8)
    assert t.evaluate(8) == f1
    t.train(10)
    assert t.evaluate(8) != f1


# --------------------------------------------------- transfer and build

def test_transfer_weights_keeps_target_streams():
    src = TwoBasinTrainable()
    tgt = TwoBasinTrainable()
    src.init(1, {"sigma": 5.0})
    tgt.init(2, {"sigma": 0.1})
    src.train(100)
    tgt.train(100)
    sp, tp = src.export_payload(), tgt.export_payload()

    transfer_weights(src, tgt)
    assert _evaluates_f_of_x(tgt)
    merged = tgt.export_payload()
    assert merged["weights"] == sp["weights"]
    assert merged["rng"] == tp["rng"]
    assert src.export_payload() == sp

    # No shared state: training either side afterwards leaves the other alone.
    tgt.train(50)
    assert src.export_payload() == sp
    a, b = QuadraticLRTrainable(), QuadraticLRTrainable()
    a.init(0, {"lr": 0.05})
    b.init(1, {"lr": 0.3})
    transfer_weights(a, b)
    before = a.export_payload()
    b.train(5)
    assert a.export_payload() == before
    assert b.export_payload()["weights"] != before["weights"]


def _snapshot(cls, h) -> EliteEntry:
    """An elite entry as a checkpoint holds it: the payload after a JSON round trip."""
    src = cls()
    src.init(3, h)
    src.train(25)
    payload = json.loads(json.dumps(src.export_payload()))
    return EliteEntry(payload, (1.0,), src.evaluate(), agent_id=0, round=1)


@pytest.mark.parametrize("cls,h", ALL_KINDS)
def test_restore_weights_matches_transfer_from_an_imported_payload(cls, h):
    entry = _snapshot(cls, h)
    old, new = cls(), cls()
    for t in (old, new):
        t.init(8, h)
        t.train(5)
    # The reference: a throwaway trainable takes the whole payload, then lends its weights.
    source = build_trainable({"kind": entry.payload["kind"]})
    source.import_payload(entry.payload)
    transfer_weights(source, old)

    entry.restore_weights(new)
    assert new.export_payload() == old.export_payload()
    assert _evaluates_f_of_x(source) and _evaluates_f_of_x(new)
    new.train(10)
    old.train(10)
    assert new.export_payload() == old.export_payload()


def test_import_payload_rejects_bad_format_and_kind():
    t = TwoBasinTrainable()
    t.init(0, {"sigma": 1.0})
    good = t.export_payload()

    bad_format = dict(good, format=2)
    with pytest.raises(ValueError, match="unsupported payload format"):
        TwoBasinTrainable().import_payload(bad_format)

    with pytest.raises(ValueError, match="payload kind"):
        QuadraticLRTrainable().import_payload(good)


def test_build_trainable():
    t = build_trainable({"kind": "two_basin", "params": {"start_x": -2.0}})
    assert isinstance(t, TwoBasinTrainable)
    assert t.start_x == -2.0
    assert isinstance(build_trainable({"kind": "seed_lottery"}), SeedLotteryTrainable)

    with pytest.raises(ValueError, match="unknown trainable kind"):
        build_trainable({"kind": "cnn"})
    with pytest.raises(ValueError, match="bad parameters"):
        build_trainable({"kind": "two_basin", "params": {"nope": 1}})
