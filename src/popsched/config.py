"""Experiment configuration: the one config type, its JSON codec and validation.

ExperimentConfig holds everything a run depends on: the scheduler, the
population and its sub-population periods (deltas), the migration and
exploration switches, the trainable and the search space. from_json_dict
takes JSON integers and booleans only where those belong and names the
bad field; validate() raises ConfigError whose message starts with it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .core import ConfigError, HyperparamSpace, SpaceEntry
from .trainables import build_trainable

ALGORITHMS = ("rs", "pbt", "mfpbt", "pbt_bt")

CONFIG_VERSION = 1


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _json_int(data: dict, key: str, default=None, *, nullable: bool = False):
    value = data.get(key, default)
    if not (_is_int(value) or (nullable and value is None)):
        kind = "an integer or null" if nullable else "an integer"
        raise ConfigError(f"{key}: expected {kind}, got {value!r}")
    return value


def _json_ints(data: dict, key: str, default: list) -> tuple[int, ...]:
    value = data.get(key, default)
    if not isinstance(value, list) or not all(_is_int(v) for v in value):
        raise ConfigError(f"{key}: expected a list of integers, got {value!r}")
    return tuple(value)


def _json_bool(data: dict, key: str) -> bool:
    value = data.get(key, False)
    if not isinstance(value, bool):
        raise ConfigError(f"{key}: expected true or false, got {value!r}")
    return value


def _json_str(data: dict, key: str, default=None, *, nullable: bool = False, field: str = ""):
    value = data.get(key, default)
    if not (isinstance(value, str) or (nullable and value is None)):
        kind = "a string or null" if nullable else "a string"
        raise ConfigError(f"{field or key}: expected {kind}, got {value!r}")
    return value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _json_float(data: dict, key: str, field: str) -> float:
    value = data.get(key)
    if not _is_number(value):
        raise ConfigError(f"{field}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{field}: integer too large for a float") from None


@dataclass(frozen=True)
class ExperimentConfig:
    algorithm: str
    num_agents: int
    t_ready: int
    total_steps: int
    search_space: HyperparamSpace
    trainable: dict
    num_subpops: int = 1
    deltas: tuple[int, ...] = (1,)
    eval_repeats: int = 1
    variance_exploitation: bool = False
    symmetric_migration: bool = False
    clamp_hyperparams: bool = False
    seeds: tuple[int, ...] = (0,)
    elite_capacity: int | None = None
    backtrack_period: int | None = None
    checkpoint_every: int = 0
    workers: int = 1  # kept so older config echoes parse; a run is one process
    out_dir: str | None = None

    @property
    def num_rounds(self) -> int:
        return self.total_steps // self.t_ready

    @property
    def subpop_size(self) -> int:
        return self.num_agents // self.num_subpops

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm: unknown {self.algorithm!r}, expected one of {ALGORITHMS}")
        if self.num_agents < 4:
            raise ConfigError(f"num_agents: need at least 4, got {self.num_agents}")
        if self.num_subpops < 1:
            raise ConfigError(f"num_subpops: need at least 1, got {self.num_subpops}")
        if self.num_agents % self.num_subpops != 0:
            raise ConfigError(
                f"num_agents: {self.num_agents} not divisible by num_subpops {self.num_subpops}"
            )
        if self.subpop_size % 4 != 0:
            raise ConfigError(
                f"num_agents: sub-population size {self.subpop_size} must be a multiple of 4"
            )
        if len(self.deltas) != self.num_subpops:
            raise ConfigError(
                f"deltas: got {len(self.deltas)} periods for {self.num_subpops} sub-populations"
            )
        if list(self.deltas) != sorted(set(self.deltas)) or any(
            int(d) != d or d < 1 for d in self.deltas
        ):
            raise ConfigError(f"deltas: must be strictly increasing positive integers, got {self.deltas}")
        if self.algorithm == "mfpbt":
            if self.deltas[0] != 1:
                raise ConfigError(f"deltas: must start at 1, got {self.deltas}")
        elif self.num_subpops != 1:
            raise ConfigError(f"num_subpops: {self.algorithm} runs a single population")
        if self.t_ready < 1:
            raise ConfigError(f"t_ready: need >= 1, got {self.t_ready}")
        if self.total_steps < self.t_ready or self.total_steps % self.t_ready != 0:
            raise ConfigError(
                f"total_steps: {self.total_steps} must be a positive multiple of t_ready {self.t_ready}"
            )
        if self.eval_repeats < 1:
            raise ConfigError(f"eval_repeats: need >= 1, got {self.eval_repeats}")
        if not self.seeds:
            raise ConfigError("seeds: need at least one master seed")
        if any(int(s) != s or s < 0 for s in self.seeds):
            raise ConfigError(f"seeds: must be non-negative integers, got {self.seeds}")
        if self.algorithm == "pbt_bt":
            if self.elite_capacity is None or self.elite_capacity < 1:
                raise ConfigError(f"elite_capacity: pbt_bt needs >= 1, got {self.elite_capacity}")
            if self.backtrack_period is None or self.backtrack_period < 1:
                raise ConfigError(f"backtrack_period: pbt_bt needs >= 1, got {self.backtrack_period}")
        else:
            if self.elite_capacity is not None or self.backtrack_period is not None:
                raise ConfigError("elite_capacity/backtrack_period: only valid for pbt_bt")
        if self.checkpoint_every < 0:
            raise ConfigError(f"checkpoint_every: need >= 0, got {self.checkpoint_every}")
        if self.workers < 1:
            raise ConfigError(f"workers: need >= 1, got {self.workers}")
        try:
            build_trainable(self.trainable)
        except ValueError as exc:  # unknown kind or bad params
            raise ConfigError(f"trainable: {exc}") from None

    def to_json_dict(self) -> dict:
        return {
            "version": CONFIG_VERSION,
            "algorithm": self.algorithm,
            "num_agents": self.num_agents,
            "num_subpops": self.num_subpops,
            "deltas": list(self.deltas),
            "t_ready": self.t_ready,
            "total_steps": self.total_steps,
            "eval_repeats": self.eval_repeats,
            "search_space": [
                {"name": e.name, "low": e.low, "high": e.high, "scale": e.scale}
                for e in self.search_space.entries
            ],
            "trainable": {
                "kind": self.trainable.get("kind"),
                "params": dict(self.trainable.get("params") or {}),
            },
            "variance_exploitation": self.variance_exploitation,
            "symmetric_migration": self.symmetric_migration,
            "clamp_hyperparams": self.clamp_hyperparams,
            "seeds": list(self.seeds),
            "elite_capacity": self.elite_capacity,
            "backtrack_period": self.backtrack_period,
            "checkpoint_every": self.checkpoint_every,
            "workers": self.workers,
            "out_dir": self.out_dir,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> ExperimentConfig:
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(data) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if data.get("version") != CONFIG_VERSION:
            raise ConfigError(f"version: expected {CONFIG_VERSION}, got {data.get('version')!r}")
        required = ("algorithm", "num_agents", "t_ready", "total_steps", "search_space", "trainable")
        missing = [k for k in required if k not in data]
        if missing:
            raise ConfigError(f"missing config keys: {missing}")
        trainable = data["trainable"]
        if not (isinstance(trainable, dict) and "kind" in trainable
                and set(trainable) <= {"kind", "params"}):
            raise ConfigError(f"trainable: expected an object of kind and params, got {trainable!r}")
        params = trainable.get("params", {})
        if not isinstance(params, dict) or not all(
            _is_number(v) or (isinstance(v, list) and all(map(_is_number, v))) for v in params.values()
        ):
            raise ConfigError(f"trainable.params: expected numbers or lists of numbers, got {params!r}")
        space = data["search_space"]
        if not isinstance(space, list) or not all(isinstance(e, dict) for e in space):
            raise ConfigError(f"search_space: expected a list of objects, got {space!r}")
        entries = []
        for i, e in enumerate(space):
            extra = set(e) - {"name", "low", "high", "scale"}
            if extra:
                raise ConfigError(f"search_space: unknown entry keys {sorted(extra)}")
            at = f"search_space[{i}]"
            entries.append(
                SpaceEntry(
                    name=_json_str(e, "name", field=f"{at}.name"),
                    low=_json_float(e, "low", f"{at}.low"),
                    high=_json_float(e, "high", f"{at}.high"),
                    scale=_json_str(e, "scale", "log-uniform", field=f"{at}.scale"),
                )
            )
        cfg = cls(
            algorithm=data["algorithm"],
            num_agents=_json_int(data, "num_agents"),
            num_subpops=_json_int(data, "num_subpops", 1),
            deltas=_json_ints(data, "deltas", [1]),
            t_ready=_json_int(data, "t_ready"),
            total_steps=_json_int(data, "total_steps"),
            eval_repeats=_json_int(data, "eval_repeats", 1),
            search_space=HyperparamSpace(tuple(entries)),
            trainable=dict(trainable),
            variance_exploitation=_json_bool(data, "variance_exploitation"),
            symmetric_migration=_json_bool(data, "symmetric_migration"),
            clamp_hyperparams=_json_bool(data, "clamp_hyperparams"),
            seeds=_json_ints(data, "seeds", [0]),
            elite_capacity=_json_int(data, "elite_capacity", nullable=True),
            backtrack_period=_json_int(data, "backtrack_period", nullable=True),
            checkpoint_every=_json_int(data, "checkpoint_every", 0),
            workers=_json_int(data, "workers", 1),
            out_dir=_json_str(data, "out_dir", nullable=True),
        )
        cfg.validate()
        return cfg


_CONFIG_KEYS = {f.name for f in fields(ExperimentConfig)} | {"version"}
