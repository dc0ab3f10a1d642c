"""Token re-attention pipeline for weakly supervised object localization."""

from .backbone import ModelConfig, init_params
from .localization import localize
from .numerics import GradTape
from .pipeline import ForwardResult, two_branch_forward
from .training import ToyTaskConfig, TrainConfig, train_toy

__version__ = "0.1.0"

__all__ = [
    "ForwardResult",
    "GradTape",
    "ModelConfig",
    "ToyTaskConfig",
    "TrainConfig",
    "__version__",
    "init_params",
    "localize",
    "train_toy",
    "two_branch_forward",
]
