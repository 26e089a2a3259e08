"""Population-based hyperparameter-schedule optimization engine.

Schedulers (PBT, multi-frequency PBT with asymmetric migration, random
search, PBT with backtracking) drive trainables through a deterministic
round-based runner; every mutation is event-logged so schedules can be
reconstructed and replayed bit-exactly.
"""

from .core import (
    AgentState,
    Brackets,
    ConfigError,
    HyperparamSpace,
    HyperparamVector,
    Population,
    SpaceEntry,
    compute_brackets,
    rank_descending,
    sample_hyperparams,
)
from .events import (
    ELITE_RESTORE,
    EVENT_KINDS,
    MIGRATION_FULL,
    MIGRATION_WEIGHTS_ONLY,
    PERTURBED_CLONE,
    SURVIVE,
    EvolutionEvent,
    read_events,
    write_events,
)
from .trainables import (
    QuadraticLRTrainable,
    SeedLotteryTrainable,
    Trainable,
    TRAINABLES,
    TwoBasinTrainable,
    build_trainable,
    transfer_weights,
    two_basin_objective,
)
from .pbt import PERTURB_FACTORS, exploit, explore_perturb, pbt_evolution_step
from .mfpbt import build_external_pool, mfpbt_round, migrate, subpop_due
from .baselines import EliteArchive, backtrack, rs_round, update_elites
from .seeding import agent_trainable_seed, seed_hierarchy
from .config import ExperimentConfig
from .rundir import MetricRow, load_run_config, read_metrics
from .runner import ExperimentResult, run_experiment
from .lineage import (
    LineageError,
    ReplayReport,
    ScheduleSegment,
    reconstruct_schedule,
    replay_run,
    replay_schedule,
    validate_event_log,
)
from .reporting import (
    AggregateCurve,
    AlgorithmSummary,
    aggregate_curve,
    best_fitness_by_round,
    compare_final,
    iqm,
    iqr_bounds,
)
from .presets import PRESETS, get_preset, preset_names

__version__ = "0.1.0"

__all__ = [
    "AgentState",
    "AggregateCurve",
    "AlgorithmSummary",
    "Brackets",
    "ConfigError",
    "ELITE_RESTORE",
    "EVENT_KINDS",
    "EliteArchive",
    "EvolutionEvent",
    "ExperimentConfig",
    "ExperimentResult",
    "HyperparamSpace",
    "HyperparamVector",
    "LineageError",
    "MIGRATION_FULL",
    "MIGRATION_WEIGHTS_ONLY",
    "MetricRow",
    "PERTURBED_CLONE",
    "PERTURB_FACTORS",
    "PRESETS",
    "Population",
    "QuadraticLRTrainable",
    "ReplayReport",
    "SURVIVE",
    "ScheduleSegment",
    "SeedLotteryTrainable",
    "SpaceEntry",
    "TRAINABLES",
    "Trainable",
    "TwoBasinTrainable",
    "agent_trainable_seed",
    "aggregate_curve",
    "backtrack",
    "best_fitness_by_round",
    "build_external_pool",
    "build_trainable",
    "compare_final",
    "compute_brackets",
    "exploit",
    "explore_perturb",
    "get_preset",
    "iqm",
    "iqr_bounds",
    "load_run_config",
    "mfpbt_round",
    "migrate",
    "pbt_evolution_step",
    "preset_names",
    "rank_descending",
    "read_events",
    "read_metrics",
    "reconstruct_schedule",
    "replay_run",
    "replay_schedule",
    "rs_round",
    "run_experiment",
    "sample_hyperparams",
    "seed_hierarchy",
    "subpop_due",
    "transfer_weights",
    "two_basin_objective",
    "update_elites",
    "validate_event_log",
    "write_events",
]
