"""Stochastic cell transmission models with acceptable-design estimation."""

from .network import (
    Route,
    TrafficNetwork,
    FlowRecord,
    NetworkError,
)
from .cells import CellSpec
from .signals import SignalSchedule
from .solvers import InteractionRule, SimulationEngine
from .env import FrankCopula
from .evaluation import (
    Utility,
    BenchmarkSpec,
    calibrate_threshold,
    sequential_mc,
)

__version__ = "0.1.0"

#: the estimation stack's names, imported on first access (PEP 562), so the
#: replicate commands load neither the GP nor the learning loop
_ESTIMATION = {
    **dict.fromkeys(("Kernel", "GprDataset", "GprPosterior", "posterior",
                     "fit_hyperparameters"), "gpr"),
    **dict.fromkeys(("DesignSpace", "LoopConfig", "LevelSetEstimate", "sobol_points",
                     "run_active_learning"), "learning"),
}


def __getattr__(name):
    if name not in _ESTIMATION:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{_ESTIMATION[name]}"), name)
