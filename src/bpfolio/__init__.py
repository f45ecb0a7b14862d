"""Belief-propagation solver for budget-constrained portfolio selection.

The package splits into data/model types (`model`), scalar response channels
(`channels`), the message-passing engine (`engine`), independent reference
solvers (`oracles`), ensemble-level predictions (`theory`), numeric primitives
(`special`), and the command-line harness (`cli`).
"""
from .engine import DivergenceDetected, default_config, solve
from .model import (
    ABSOLUTE_DEVIATION,
    MEAN_VARIANCE,
    BpConfig,
    generate_returns,
    generic_model,
    load_returns,
    save_returns,
)
from .oracles import convex_oracle, exact_mean_variance
from .theory import portfolio_similarity

__version__ = "0.1.0"

__all__ = [
    "ABSOLUTE_DEVIATION",
    "MEAN_VARIANCE",
    "BpConfig",
    "DivergenceDetected",
    "convex_oracle",
    "default_config",
    "exact_mean_variance",
    "generate_returns",
    "generic_model",
    "load_returns",
    "portfolio_similarity",
    "save_returns",
    "solve",
    "__version__",
]
