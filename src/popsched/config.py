"""Experiment configuration: the one config type, its JSON codec and validation.

ExperimentConfig holds everything a run depends on: the scheduler, the
population and its sub-population periods (deltas), the migration and
exploration switches, the trainable and the search space. Each field is
declared once, in ExperimentConfig in config.json's key order: its JSON
shape, its default (none for a required key) and any lower bound. The
JSON codec and validate() loop over those declarations; every error is a
ConfigError whose message starts with the bad field. read_config is the one
reader of a config JSON file: a --config file or a run's config.json.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, NamedTuple

from .core import LOG_UNIFORM, ConfigError, HyperparamSpace, SpaceEntry
from .trainables import build_trainable

ALGORITHMS = ("rs", "pbt", "mfpbt", "pbt_bt")
CONFIG_VERSION = 1


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class Shape(NamedTuple):
    """A JSON value's shape: what it must be, and its codec once it is."""

    expected: str
    test: Callable[[object], bool]
    decode: Callable = lambda value: value
    encode: Callable = lambda value: value


def _parse(name: str, shape: Shape, value):
    """value decoded by shape; a ConfigError naming the field when it does not fit."""
    if not shape.test(value):
        raise ConfigError(f"{name}: expected {shape.expected}, got {value!r}")
    try:
        return shape.decode(value)
    except OverflowError:  # an integer bound float() cannot hold
        raise ConfigError(f"{name}: integer too large for a float") from None


def _space_from_json(space: list) -> HyperparamSpace:
    """The entries' own errors are prefixed with search_space[i], the space's with search_space."""
    entries = []
    for i, e in enumerate(space):
        extra = set(e) - set(_ENTRY_SHAPES)
        if extra:
            raise ConfigError(f"search_space: unknown entry keys {sorted(extra)}")
        at = f"search_space[{i}]"
        entry = {"scale": LOG_UNIFORM, **e}
        values = {key: _parse(f"{at}.{key}", shape, entry.get(key)) for key, shape in _ENTRY_SHAPES.items()}
        try:
            entries.append(SpaceEntry(**values))
        except ConfigError as exc:
            raise ConfigError(f"{at}: {exc}") from None
    try:
        return HyperparamSpace(tuple(entries))
    except ConfigError as exc:
        raise ConfigError(f"search_space: {exc}") from None


def _trainable_from_json(spec: dict) -> dict:
    _parse("trainable.params", PARAMS, spec.get("params", {}))
    return dict(spec)


INT = Shape("an integer", _is_int)
ANY = Shape("any value", lambda value: True)  # a payload or evolve_state, which its importer checks
LIST = Shape("a list", lambda value: isinstance(value, list))
FINITE = Shape("a finite float", lambda value: isinstance(value, float) and math.isfinite(value))
OBJECT_OR_NULL = Shape("an object or null", lambda value: value is None or isinstance(value, dict))
INT_OR_NULL = Shape("an integer or null", lambda v: v is None or _is_int(v))
INTS = Shape("a list of integers", lambda v: isinstance(v, list) and all(map(_is_int, v)), tuple, list)
BOOL = Shape("true or false", lambda v: isinstance(v, bool))
STR = Shape("a string", lambda v: isinstance(v, str))
STR_OR_NULL = Shape("a string or null", lambda v: v is None or isinstance(v, str))
NUMBER = Shape("a number", _is_number, float)
SPACE = Shape("a list of objects", lambda v: isinstance(v, list) and all(isinstance(e, dict) for e in v),
               _space_from_json, lambda space: [asdict(e) for e in space.entries])
TRAINABLE = Shape(
    "an object of kind and params",
    lambda v: isinstance(v, dict) and "kind" in v and set(v) <= {"kind", "params"},
    _trainable_from_json, lambda spec: {"kind": spec.get("kind"), "params": dict(spec.get("params") or {})},
)
PARAMS = Shape("numbers or lists of numbers", lambda v: isinstance(v, dict) and all(
    _is_number(x) or (isinstance(x, list) and all(map(_is_number, x))) for x in v.values()))
_ENTRY_SHAPES = {"name": STR, "low": NUMBER, "high": NUMBER, "scale": STR}


def _field(shape: Shape, default=MISSING, *, least: int | None = None):
    """A config field: its JSON shape, its default, and the least value it takes."""
    return field(default=default, metadata={"shape": shape, "least": least})


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    algorithm: str = _field(STR)
    num_agents: int = _field(INT, least=4)
    num_subpops: int = _field(INT, 1, least=1)
    deltas: tuple[int, ...] = _field(INTS, (1,))
    t_ready: int = _field(INT, least=1)
    total_steps: int = _field(INT)
    eval_repeats: int = _field(INT, 1, least=1)
    search_space: HyperparamSpace = _field(SPACE)
    trainable: dict = _field(TRAINABLE)
    variance_exploitation: bool = _field(BOOL, False)
    symmetric_migration: bool = _field(BOOL, False)
    clamp_hyperparams: bool = _field(BOOL, False)
    seeds: tuple[int, ...] = _field(INTS, (0,))
    elite_capacity: int | None = _field(INT_OR_NULL, None)
    backtrack_period: int | None = _field(INT_OR_NULL, None)
    checkpoint_every: int = _field(INT, 0, least=0)
    workers: int = _field(INT, 1, least=1)  # kept so older config echoes parse; a run is one process
    out_dir: str | None = _field(STR_OR_NULL, None)

    @property
    def num_rounds(self) -> int:
        return self.total_steps // self.t_ready

    @property
    def subpop_size(self) -> int:
        return self.num_agents // self.num_subpops

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm: unknown {self.algorithm!r}, expected one of {ALGORITHMS}")
        for f in fields(self):
            least, value = f.metadata["least"], getattr(self, f.name)
            if least is not None and value < least:
                raise ConfigError(f"{f.name}: need >= {least}, got {value}")
        if self.num_agents % self.num_subpops != 0:
            raise ConfigError(f"num_agents: {self.num_agents} not divisible by "
                              f"num_subpops {self.num_subpops}")
        if self.subpop_size % 4 != 0:
            raise ConfigError(f"num_agents: sub-population size {self.subpop_size} must be a multiple of 4")
        if len(self.deltas) != self.num_subpops:
            raise ConfigError(f"deltas: got {len(self.deltas)} periods for "
                              f"{self.num_subpops} sub-populations")
        if list(self.deltas) != sorted(set(self.deltas)) or any(int(d) != d or d < 1 for d in self.deltas):
            raise ConfigError(f"deltas: must be strictly increasing positive integers, got {self.deltas}")
        if self.algorithm == "mfpbt":
            if self.deltas[0] != 1:
                raise ConfigError(f"deltas: must start at 1, got {self.deltas}")
        elif self.num_subpops != 1:
            raise ConfigError(f"num_subpops: {self.algorithm} runs a single population")
        if self.total_steps < self.t_ready or self.total_steps % self.t_ready != 0:
            raise ConfigError(f"total_steps: {self.total_steps} must be a positive multiple "
                              f"of t_ready {self.t_ready}")
        if not self.seeds:
            raise ConfigError("seeds: need at least one master seed")
        if any(int(s) != s or s < 0 for s in self.seeds):
            raise ConfigError(f"seeds: must be non-negative integers, got {self.seeds}")
        if self.algorithm == "pbt_bt":
            if self.elite_capacity is None or self.elite_capacity < 1:
                raise ConfigError(f"elite_capacity: pbt_bt needs >= 1, got {self.elite_capacity}")
            if self.backtrack_period is None or self.backtrack_period < 1:
                raise ConfigError(f"backtrack_period: pbt_bt needs >= 1, got {self.backtrack_period}")
        elif self.elite_capacity is not None or self.backtrack_period is not None:
            raise ConfigError("elite_capacity/backtrack_period: only valid for pbt_bt")
        try:
            trainable = build_trainable(self.trainable)
        except ValueError as exc:  # unknown kind or bad params
            raise ConfigError(f"trainable: {exc}") from None
        for name in trainable.hyperparameter_names:
            if name not in self.search_space.names:
                raise ConfigError(f"search_space: names no {name!r}, which the {trainable.kind} trainable reads")

    def to_json_dict(self) -> dict:
        echo = {f.name: f.metadata["shape"].encode(getattr(self, f.name)) for f in fields(self)}
        return {"version": CONFIG_VERSION, **echo}

    @classmethod
    def from_json_dict(cls, data: dict) -> ExperimentConfig:
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(data) - {"version", *(f.name for f in fields(cls))}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if not _is_int(data.get("version")) or data["version"] != CONFIG_VERSION:
            raise ConfigError(f"version: expected {CONFIG_VERSION}, got {data.get('version')!r}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in data]
        if missing:
            raise ConfigError(f"missing config keys: {missing}")
        cfg = cls(**{f.name: _parse(f.name, f.metadata["shape"], data[f.name])
                     for f in fields(cls) if f.name in data})
        cfg.validate()
        return cfg


def read_config(path) -> ExperimentConfig:
    """The validated config of a JSON file; one that is not JSON, or not UTF-8, is a ConfigError naming it."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ConfigError(f"config: {path} is not JSON: {exc}") from None
    return ExperimentConfig.from_json_dict(data)
