"""The Trainable base class and the built-in synthetic trainables.

Trainable is the whole contract. It owns the private random streams, the
hyperparameters, init(seed, hyperparams) and the payload codec; a
subclass sets `kind` and the hyperparameter_names that train reads (a
config's search_space must name each), and supplies the model: _reset,
train, advance_rng, evaluate, export_weights and import_weights. The
runner keeps one live trainable per agent for the whole run. Payloads
are the persisted form of that state (checkpoints, elite-archive
snapshots, the result of a lineage replay) and follow a fixed schema:

    {
      "format": 1,
      "kind": "<registry name>",
      "weights": {... trainable-specific reals ...},
      "rng": {"seed": int, "steps": int, "train_state": <bit generator state>},
    }

`weights` is the cloneable part. `rng` pins the private streams so that
import_payload() restores behavior bit-for-bit. export_payload() returns
fresh containers, shared with neither the trainable nor an earlier
export, and import_payload() keeps no container of its payload, so a
caller may keep or change a payload freely. Cloning between agents goes
through transfer_weights(), which copies only the weights from one live
trainable into another and leaves the receiving agent's streams
untouched.

The runner trains each stretch of rounds between barriers with one
train_rounds(trainables, num_steps, rounds, repeats) call: rounds x
(train() on each, then evaluate each), one fitness row per round. An
override may batch, but must return those rows and leave each
trainable's trajectory, step count and streams as that loop would.

Evaluation draws come from a generator derived from (seed, step counter),
never from the training stream, so repeated evaluation between train
calls cannot change a trajectory.

Determinism note: each built-in consumes a fixed number of random draws
per train step (independent of hyperparameters and of state), which is
what allows lineage replay to fast-forward a stream with advance_rng().
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .seeding import restore_generator

PAYLOAD_FORMAT = 1

_TRAIN_SUBSTREAM = 1
_EVAL_SUBSTREAM = 2
_INIT_SUBSTREAM = 3


def two_basin_objective(x: float) -> float:
    """Two Gaussian bumps: local maximum 1 at x=0, global maximum 2 at x=10."""
    return math.exp(-0.5 * x * x) + 2.0 * math.exp(-0.5 * (x - 10.0) * (x - 10.0))


# 2 * exp(-12.5): the most the right bump adds at x <= 5; the left one adds half that at x > 5.
_FAR = 2.0 * math.exp(-12.5)
_PAD = 1e-10
_BLOCK = 1024  # draws per walker that one array pass of train_rounds holds, at least one round's


def _radius(bound: float) -> float:
    """-2 ln(bound), padded upward: +inf when bound <= 0."""
    if bound <= 0.0:
        return math.inf
    r = -2.0 * math.log(bound)
    return r + abs(r) * _PAD + _PAD


def _skipped(x, t0, t1, sigma, gs: np.ndarray) -> np.ndarray:
    """Which proposals x + sigma * g, g in gs, the skip test skips: _climb()'s test, operation for operation."""
    xp = x + sigma * gs
    left = xp <= 5.0
    d = np.where(left, xp, xp - 10.0)
    return d * d >= np.where(left, t0, t1)


def _skip_radii(fx: float) -> tuple[float, float]:
    """(T0, T1) of TwoBasinTrainable's skip test for a walker at fitness fx."""
    c = fx * (1.0 - 1e-9)
    t0, t1 = _radius(c - _FAR), _radius((c - 0.5 * _FAR) * 0.5)  # then with the other bump's most
    f0, f1 = (_FAR if t >= 25 else 2 * math.exp(-0.5 * (10 - math.sqrt(max(t, 0)) - 1e-6) ** 2) for t in (t0, t1))
    return _radius(c - f0), _radius((c - 0.5 * f1) * 0.5)


class Trainable:
    """Base of every trainable: streams, hyperparameters, init and payloads."""

    kind = "base"
    hyperparameter_names: tuple[str, ...] = ()

    def __init__(self) -> None:
        self._seed = 0
        self._steps = 0
        self._rng_train: np.random.Generator | None = None
        self._hyperparams: dict[str, float] = {}

    def init(self, seed: int, hyperparams: Mapping[str, float]) -> None:
        """Fresh state for seed: streams seeded, hyperparameters set, then _reset()."""
        self._seed = int(seed)
        self._steps = 0
        self._rng_train = self._stream(_TRAIN_SUBSTREAM)
        self.set_hyperparams(hyperparams)
        self._reset()

    def _stream(self, *key: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence((self._seed, *key)))

    def set_hyperparams(self, hyperparams: Mapping[str, float]) -> None:
        self._hyperparams = {k: float(v) for k, v in hyperparams.items()}

    def _reset(self) -> None:
        """Put the weights at their initial values; streams and hyperparameters are set."""
        raise NotImplementedError

    def train(self, num_steps: int) -> None:
        raise NotImplementedError

    @classmethod
    def train_rounds(cls, trainables: list[Trainable], num_steps: int, rounds: int, repeats: int) -> list[list[float]]:
        """rounds x (train(num_steps) on each, then evaluate(repeats) on each): a fitness row per round."""
        rows = []
        for _ in range(rounds):
            for t in trainables:
                t.train(num_steps)
            rows.append([float(t.evaluate(repeats)) for t in trainables])
        return rows

    def advance_rng(self, num_steps: int) -> None:
        """Consume exactly what train(num_steps) would, without training."""
        raise NotImplementedError

    def evaluate(self, num_repeats: int = 1) -> float:
        raise NotImplementedError

    def export_weights(self) -> dict:
        """The weights in fresh containers."""
        raise NotImplementedError

    def import_weights(self, weights: dict) -> None:
        """Set the weights from fresh values built out of weights."""
        raise NotImplementedError

    def export_payload(self) -> dict:
        assert self._rng_train is not None, "init() or import_payload() first"
        return {
            "format": PAYLOAD_FORMAT,
            "kind": self.kind,
            "weights": self.export_weights(),
            "rng": {
                "seed": self._seed,
                "steps": self._steps,
                # numpy builds a fresh nested dict on every access.
                "train_state": self._rng_train.bit_generator.state,
            },
        }

    def import_payload(self, payload: dict) -> None:
        if payload.get("format") != PAYLOAD_FORMAT:
            raise ValueError(f"unsupported payload format {payload.get('format')!r}")
        if payload.get("kind") != self.kind:
            raise ValueError(f"payload kind {payload.get('kind')!r} != {self.kind!r}")
        rng = payload["rng"]
        self._seed = int(rng["seed"])
        self._steps = int(rng["steps"])
        self._rng_train = restore_generator(rng["train_state"])
        self.import_weights(payload["weights"])  # which builds fresh values


class TwoBasinTrainable(Trainable):
    """Stochastic hill climb on the two-basin objective.

    Each step proposes x' = x + sigma * g with g standard normal and keeps
    the proposal only if the objective improves, so the fitness trace of a
    single walker never decreases. Small sigma converges inside the
    current basin; reaching the global basin from x near 0 takes a
    proposal of magnitude about 10.

    Optional corruption (`forget_prob` > 0) replaces an occasional step by
    an unconditional jump of scale `forget_scale`, which can destroy an
    already-found optimum; this is the stand-in for catastrophic
    forgetting used to exercise backtracking. With corruption enabled a
    train step consumes one normal plus one uniform draw; otherwise one
    normal only.

    Without corruption, train() skips the objective for a proposal that
    provably cannot be accepted, so its trajectory is that of evaluating
    every one. With F(x) = exp(-x^2/2) + 2 exp(-(x-10)^2/2), beta =
    2 exp(-12.5) and c = fx (1 - 1e-9), fx the walker's fitness as
    computed: at xp <= 5 the right bump is at most beta, so F(xp) <= c
    once xp^2 >= T0 = -2 ln(c - beta); at xp > 5 the left bump is at most
    beta/2, so F(xp) <= c once (xp-10)^2 >= T1 = -2 ln((c - beta/2) / 2).
    A radius is +inf when its log's argument is <= 0. A radius T < 25
    keeps only xp within r = sqrt(T) + 1e-6 of its bump's top, where the
    other bump is at most 2 exp(-(10-r)^2/2) (half that at xp > 5), so T
    is computed again with that for beta: 5e-5, not 4e-3, on the local
    top. The test is exact in floats too (u = 2^-53 = 1.1e-16):

    - the radii's pad, 1e-10 relative plus 1e-10 absolute, is a million
      times the rounding of the log, the pad and the square (a few u
      each), so a skipped proposal meets the real inequality, and with
      the rounding of beta and of c - beta the real F(xp) <= c (1 + 4u);
    - F as computed exceeds the real one by under 1e-12 relative (an exp
      argument's rounding is under 4u, times |argument| <= 745 before
      the result underflows) plus 1e-322 from subnormal results;
    - c is 1e-9 fx below fx, and fx > beta when a radius is finite, so a
      skipped proposal computes F(xp) <= fx: `fxp > fx` would reject it;
    - what the new T skips, the first T skips or it lies within r; r's
      1e-6, a million times the rounding of the square and the root,
      raises the other bump's bound by over 4e-6 relative, its rounding
      by under 1e-13.

    Radii from a lower fitness are larger, so they stay sound after an
    accept. The walker keeps them between train() calls with the fitness
    they were computed at, and import_weights() resets them to +inf when
    it lowers the fitness below that one; it also keeps F(x) beside x.
    They are recomputed, at about eight evaluations' cost, at the second
    evaluated rejection since the last accept, unless they are already
    the current fitness's: a small-sigma walker climbs by alternating
    accepts and single rejections, and radii computed at one of those go
    stale at the next accept. The corruption loop evaluates every
    proposal: a jump can lower the walker's fitness at any step, which
    leaves the radii stale in the unsafe direction. Without corruption or
    evaluation noise, train_rounds() draws each walker's block of whole
    rounds (up to _BLOCK draws) in one call and tests the population's
    block as array ops, which round alike; a walker climbs with _climb()
    through the round of each kept proposal, and its remaining draws are
    tested again if that changed its state.
    """

    kind = "two_basin"
    hyperparameter_names = ("sigma",)

    def __init__(self, start_x: float = 0.0, forget_prob: float = 0.0,
                 forget_scale: float = 8.0, eval_noise: float = 0.0) -> None:
        super().__init__()
        if not 0.0 <= forget_prob < 1.0:
            raise ValueError("forget_prob must be in [0, 1)")
        self.start_x = float(start_x)
        self.forget_prob = float(forget_prob)
        self.forget_scale = float(forget_scale)
        self.eval_noise = float(eval_noise)
        self._radii = (math.inf, math.inf, math.inf)  # the skip test's (fitness, T0, T1); see train()
        self._reset()

    def _reset(self) -> None:
        self.import_weights({"x": self.start_x})

    def _sigma(self) -> float:
        sigma = self._hyperparams.get("sigma")
        if sigma is None or sigma <= 0.0:
            raise ValueError(f"two_basin needs a positive 'sigma' hyperparameter, got {sigma}")
        return sigma

    def train(self, num_steps: int) -> None:
        sigma = self._sigma()
        gs = self._rng_train.standard_normal(num_steps).tolist()
        self._steps += num_steps
        if self.forget_prob == 0.0:
            self._climb(sigma, gs)
            return
        exp = math.exp
        x, fx = self._x, self._fx
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
        self._x, self._fx = x, fx

    def _climb(self, sigma: float, gs: list[float]) -> None:
        """The skip loop over proposals x + sigma * g, g in gs, from the walker's state."""
        exp = math.exp
        x, fx = self._x, self._fx
        radii_fx, t0, t1 = self._radii
        rejects = 0  # evaluated and rejected since the last accept
        for g in gs:
            xp = x + sigma * g
            if xp <= 5.0:
                if xp * xp >= t0:
                    continue
            elif (xp - 10.0) * (xp - 10.0) >= t1:
                continue
            fxp = exp(-0.5 * xp * xp) + 2.0 * exp(-0.5 * (xp - 10.0) * (xp - 10.0))
            if fxp > fx:
                x, fx = xp, fxp
                rejects = 0
            else:
                rejects += 1
                if rejects == 2 and radii_fx != fx:
                    t0, t1 = _skip_radii(fx)
                    radii_fx = fx
        self._x, self._fx, self._radii = x, fx, (radii_fx, t0, t1)

    @classmethod
    def train_rounds(cls, trainables: list[Trainable], num_steps: int, rounds: int, repeats: int) -> list[list[float]]:
        """Trainable.train_rounds; without corruption or evaluation noise, in blocks of rounds (class docstring)."""
        sigmas = [t._sigma() for t in trainables]  # every check before any draw
        if not trainables or any(t.forget_prob or t.eval_noise for t in trainables):
            return super().train_rounds(trainables, num_steps, rounds, repeats)
        rows: list[list[float]] = []
        per_block = max(1, _BLOCK // num_steps)
        for done in range(0, rounds, per_block):
            steps = min(per_block, rounds - done) * num_steps
            gs = np.empty((len(trainables), steps))
            for t, row in zip(trainables, gs):
                t._rng_train.standard_normal(out=row)
                t._steps += steps
            x, _, t0, t1 = np.array([(t._x, *t._radii) for t in trainables]).T[:, :, None]
            skip = _skipped(x, t0, t1, np.array(sigmas)[:, None], gs)
            fit = [[t._fx for t in trainables] for _ in range(steps // num_steps)]  # a row per round: fitness after it
            for i in np.flatnonzero(~skip.all(axis=1)).tolist():
                t, row, j = trainables[i], skip[i], int(skip[i].argmin())
                while not row[j]:  # climb through the round of a kept proposal, then test the rest again
                    end, state = (j // num_steps + 1) * num_steps, (t._x, t._radii)
                    t._climb(sigmas[i], gs[i, j:end].tolist())
                    for f in fit[j // num_steps:]:
                        f[i] = t._fx
                    if end == steps:
                        break
                    if (t._x, t._radii) != state:
                        row[end:] = _skipped(t._x, *t._radii[1:], sigmas[i], gs[i, end:])
                    j = end + int(row[end:].argmin())
            rows += fit
        return rows

    def advance_rng(self, num_steps: int) -> None:
        self._rng_train.standard_normal(num_steps)
        if self.forget_prob > 0.0:
            self._rng_train.random(num_steps)
        self._steps += num_steps

    def evaluate(self, num_repeats: int = 1) -> float:
        base = self._fx
        if self.eval_noise == 0.0:
            return base
        # Keyed by the step counter, not drawn from the train stream: evaluation is pure.
        draws = self._stream(_EVAL_SUBSTREAM, self._steps).standard_normal(num_repeats)
        return float(np.mean(base + self.eval_noise * draws))

    def export_weights(self) -> dict:
        return {"x": self._x}

    def import_weights(self, weights: dict) -> None:
        self._x = float(weights["x"])
        self._fx = two_basin_objective(self._x)  # F(x), which train() and evaluate() read
        if self._radii[0] > self._fx:  # the radii hold only at or above their fitness
            self._radii = (math.inf, math.inf, math.inf)


class QuadraticLRTrainable(Trainable):
    """Gradient descent on a diagonal quadratic bowl.

    theta[j] <- theta[j] * (1 - lr * a[j]) each step; fitness is the
    negative loss. The iteration contracts iff lr < 2 / max(a), so a
    learning rate pushed too high by perturbation visibly diverges. Loss
    and iterates are clamped at a large finite bound so divergence shows
    up as a terrible fitness rather than a non-finite evaluation.

    Consumes no random draws during training.
    """

    kind = "quadratic_lr"
    hyperparameter_names = ("lr",)

    _CLAMP = 1e30

    def __init__(self, curvature: tuple[float, ...] = (1.0, 10.0),
                 theta0: tuple[float, ...] | None = None) -> None:
        super().__init__()
        self.curvature = tuple(float(a) for a in curvature)
        if not self.curvature or any(a <= 0 for a in self.curvature):
            raise ValueError("curvature must be positive")
        if theta0 is None:
            theta0 = tuple(1.0 for _ in self.curvature)
        self.theta0 = tuple(float(t) for t in theta0)
        if len(self.theta0) != len(self.curvature):
            raise ValueError("theta0 and curvature dimensions differ")
        self._theta = list(self.theta0)

    def _reset(self) -> None:
        self._theta = list(self.theta0)

    def train(self, num_steps: int) -> None:
        lr = self._hyperparams.get("lr")
        if lr is None or lr <= 0.0:
            raise ValueError(f"quadratic_lr needs a positive 'lr' hyperparameter, got {lr}")
        clamp = self._CLAMP
        for _ in range(num_steps):
            self._theta = [
                max(-clamp, min(clamp, t * (1.0 - lr * a)))
                for t, a in zip(self._theta, self.curvature)
            ]
        self._steps += num_steps

    def advance_rng(self, num_steps: int) -> None:
        self._steps += num_steps

    def evaluate(self, num_repeats: int = 1) -> float:
        loss = 0.5 * sum(a * t * t for a, t in zip(self.curvature, self._theta))
        return -min(loss, self._CLAMP)

    def export_weights(self) -> dict:
        return {"theta": list(self._theta)}

    def import_weights(self, weights: dict) -> None:
        self._theta = [float(t) for t in weights["theta"]]


class SeedLotteryTrainable(Trainable):
    """Pure seed lottery: progress rate is decided once at init.

    A per-agent drift is drawn log-normally (median `drift_median`,
    log-scale `drift_sigma_log`) from the init stream; every train step
    adds drift plus zero-mean noise to a scalar level, and evaluation
    returns the level. Hyperparameters are accepted and ignored, so any
    fitness differences come from initialization luck and noise alone.

    The drift belongs to the weights section: cloning an agent clones its
    luck along with its level. Consumes one normal draw per train step.
    """

    kind = "seed_lottery"

    def __init__(self, drift_median: float = 0.1, drift_sigma_log: float = 1.0,
                 noise_scale: float = 0.5) -> None:
        super().__init__()
        if drift_median < 0 or drift_sigma_log < 0 or noise_scale < 0:
            raise ValueError("seed_lottery parameters must be non-negative")
        self.drift_median = float(drift_median)
        self.drift_sigma_log = float(drift_sigma_log)
        self.noise_scale = float(noise_scale)
        self._level = 0.0
        self._drift = 0.0

    def _reset(self) -> None:
        z = float(self._stream(_INIT_SUBSTREAM).standard_normal())
        self._drift = self.drift_median * math.exp(self.drift_sigma_log * z)
        self._level = 0.0

    def train(self, num_steps: int) -> None:
        gs = self._rng_train.standard_normal(num_steps).tolist()
        level, drift, scale = self._level, self._drift, self.noise_scale
        for g in gs:
            level += drift + scale * g
        self._level = level
        self._steps += num_steps

    def advance_rng(self, num_steps: int) -> None:
        self._rng_train.standard_normal(num_steps)
        self._steps += num_steps

    def evaluate(self, num_repeats: int = 1) -> float:
        return self._level

    def export_weights(self) -> dict:
        return {"level": self._level, "drift": self._drift}

    def import_weights(self, weights: dict) -> None:
        self._level = float(weights["level"])
        self._drift = float(weights["drift"])


TRAINABLES: dict[str, type[Trainable]] = {
    TwoBasinTrainable.kind: TwoBasinTrainable,
    QuadraticLRTrainable.kind: QuadraticLRTrainable,
    SeedLotteryTrainable.kind: SeedLotteryTrainable,
}


def build_trainable(spec: Mapping) -> Trainable:
    """Instantiate a trainable from {"kind": ..., "params": {...}}."""
    kind = spec.get("kind")
    if kind not in TRAINABLES:
        raise ValueError(f"unknown trainable kind {kind!r}; known: {sorted(TRAINABLES)}")
    params = dict(spec.get("params") or {})
    try:
        return TRAINABLES[kind](**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for trainable {kind!r}: {exc}") from None


def transfer_weights(source: Trainable, target: Trainable) -> None:
    """Copy source's weights into target in place; target keeps its own streams."""
    target.import_weights(source.export_weights())
