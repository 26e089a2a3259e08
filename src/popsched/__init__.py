"""Population-based hyperparameter-schedule optimization engine.

Schedulers (PBT, multi-frequency PBT with asymmetric migration, random
search, PBT with backtracking) drive trainables through a deterministic
round-based runner; every mutation is event-logged so schedules can be
reconstructed and replayed bit-exactly.
"""

from .core import ConfigError
from .trainables import SeedLotteryTrainable, TwoBasinTrainable
from .config import ExperimentConfig
from .runner import run_experiment
from .lineage import LineageError, replay_run
from .reporting import iqm, iqr_bounds
from .presets import get_preset

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "LineageError",
    "SeedLotteryTrainable",
    "TwoBasinTrainable",
    "get_preset",
    "iqm",
    "iqr_bounds",
    "replay_run",
    "run_experiment",
]
