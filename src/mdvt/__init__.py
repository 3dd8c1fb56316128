"""Graph collaborative filtering with multimodal virtual-triplet training."""

__version__ = "0.1.0"

from .dataset import load_bundle, load_interactions, split_dataset
from .errors import (CheckpointError, ConfigError, DataError, MdvtError,
                     SelectionError, TrainingCollapseError)
from .trainer import (RunConfig, TrainHistory, evaluate_split,
                      run_strategy_search, train_run)

__all__ = [
    "__version__",
    "CheckpointError",
    "ConfigError",
    "DataError",
    "MdvtError",
    "SelectionError",
    "TrainingCollapseError",
    "RunConfig",
    "TrainHistory",
    "train_run",
    "run_strategy_search",
    "evaluate_split",
    "load_bundle",
    "load_interactions",
    "split_dataset",
]
