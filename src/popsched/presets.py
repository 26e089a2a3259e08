"""Named experiment presets.

Two families:

  * `twobasin-*` is the greediness benchmark: 16 agents on the two-basin
    hill climb starting on the slope of the local basin, sigma sampled
    log-uniformly across [0.05, 5]. Greedy selection collapses sigma and
    locks the population into the local optimum; steadier selection
    keeps large-sigma agents alive long enough to find the global basin.
    The start position and decision thresholds were frozen from the
    calibration run recorded in CALIBRATION.md.

  * the remaining presets mirror the canonical configuration shapes at
    desk scale: a 32-agent four-sub-population default with frequency
    factors (1, 10, 25, 50), a less spread geometric variant
    (1, 2, 4, 8) with t_ready scaled by 6, single-frequency ablations,
    population-size ablations, backtracking, and the seed-lottery
    variance-exploitation pair.
"""

from __future__ import annotations

from .core import HyperparamSpace, SpaceEntry
from .config import ExperimentConfig

# Frozen by calibration (see CALIBRATION.md): the walkers start on the
# slope of the local basin so short-horizon selection favors small sigma.
TWO_BASIN_START_X = -2.0

SIGMA_SPACE = HyperparamSpace((SpaceEntry("sigma", 0.05, 5.0),))
LR_SPACE = HyperparamSpace((SpaceEntry("lr", 1e-3, 1.0),))
RATE_SPACE = HyperparamSpace((SpaceEntry("rate", 0.1, 10.0),))

# Base shapes; each preset is one of them with a few fields replaced.
_BENCHMARK = dict(
    algorithm="mfpbt", num_agents=16, num_subpops=4, deltas=(1, 4, 8, 16), t_ready=50,
    total_steps=20_000, eval_repeats=1, search_space=SIGMA_SPACE,
    trainable={"kind": "two_basin", "params": {"start_x": TWO_BASIN_START_X}},
)
_REFERENCE = dict(_BENCHMARK, num_agents=32, deltas=(1, 10, 25, 50))
_LOTTERY = dict(
    _BENCHMARK, t_ready=20, total_steps=2_000, search_space=RATE_SPACE,
    trainable={"kind": "seed_lottery", "params": {}}, variance_exploitation=True,
)


def _preset(base: dict, **overrides) -> ExperimentConfig:
    return ExperimentConfig(**{**base, **overrides})


def _single_delta(delta: int, **overrides) -> dict:
    return dict(algorithm="pbt", num_subpops=1, deltas=(delta,), **overrides)


PRESETS: dict[str, ExperimentConfig] = {
    # Greediness benchmark (16 agents, deltas 1/4/8/16).
    "twobasin-mfpbt": _preset(_BENCHMARK),
    "twobasin-mfpbt-sym": _preset(_BENCHMARK, symmetric_migration=True),
    "twobasin-rs": _preset(_BENCHMARK, algorithm="rs", num_subpops=1, deltas=(1,)),
    "twobasin-pbt-delta1": _preset(_BENCHMARK, **_single_delta(1)),
    "twobasin-pbt-delta4": _preset(_BENCHMARK, **_single_delta(4)),
    "twobasin-pbt-delta8": _preset(_BENCHMARK, **_single_delta(8)),
    "twobasin-pbt-delta16": _preset(_BENCHMARK, **_single_delta(16)),
    # Canonical 32-agent shapes.
    "mfpbt-default": _preset(_REFERENCE),
    "mfpbt-symmetric": _preset(_REFERENCE, symmetric_migration=True),
    "mfpbt-geometric": _preset(_REFERENCE, deltas=(1, 2, 4, 8), t_ready=300, total_steps=19_200),
    "mfpbt-n16": _preset(_REFERENCE, num_agents=16),
    "mfpbt-n64": _preset(_REFERENCE, num_agents=64),
    "pbt-delta1": _preset(_REFERENCE, **_single_delta(1)),
    "pbt-delta10": _preset(_REFERENCE, **_single_delta(10)),
    "pbt-delta25": _preset(_REFERENCE, **_single_delta(25)),
    "pbt-delta50": _preset(_REFERENCE, **_single_delta(50)),
    "rs-default": _preset(_REFERENCE, algorithm="rs", num_subpops=1, deltas=(1,)),
    # Backtracking on a payload-corrupting variant of the hill climb.
    "pbt-bt-default": _preset(
        _REFERENCE,
        algorithm="pbt_bt",
        num_subpops=1,
        deltas=(1,),
        elite_capacity=16,
        backtrack_period=50,
        trainable={
            "kind": "two_basin",
            "params": {"start_x": TWO_BASIN_START_X, "forget_prob": 0.02},
        },
    ),
    # Learning-rate collapse testbed.
    "quadratic-mfpbt": _preset(
        _REFERENCE,
        num_agents=16,
        t_ready=25,
        total_steps=2_500,
        search_space=LR_SPACE,
        trainable={"kind": "quadratic_lr", "params": {}},
        deltas=(1, 4, 8, 16),
    ),
    # Seed-lottery pair for variance exploitation vs a frozen baseline.
    "seedlottery-mfpbt-var": _preset(_LOTTERY),
    "seedlottery-rs": _preset(
        _LOTTERY, algorithm="rs", num_subpops=1, deltas=(1,), variance_exploitation=False
    ),
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def get_preset(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; known: {preset_names()}")
    config = PRESETS[name]
    config.validate()
    return config
