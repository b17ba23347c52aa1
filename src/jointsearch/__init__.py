"""Joint architecture and hyperparameter search over a weight-shared model."""

__version__ = "0.1.0"

from .config import ConfigError, EngineConfig, RewardSection, load_config, parse_config
from .engine import (
    BaselineResult,
    RetrainResult,
    SearchResult,
    compute_reward,
    evaluate_candidate,
    random_search_baseline,
    retrain,
    search,
)
from .space import (
    DerivedConfig,
    SearchSpace,
    SpaceConfig,
    build_space,
    derive,
    make_continuous_basis,
)

__all__ = [
    "__version__",
    "ConfigError",
    "EngineConfig",
    "RewardSection",
    "load_config",
    "parse_config",
    "BaselineResult",
    "RetrainResult",
    "SearchResult",
    "compute_reward",
    "evaluate_candidate",
    "random_search_baseline",
    "retrain",
    "search",
    "DerivedConfig",
    "SearchSpace",
    "SpaceConfig",
    "build_space",
    "derive",
    "make_continuous_basis",
]
