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
from .gpr import Kernel, GprDataset, GprPosterior, posterior, fit_hyperparameters
from .learning import (
    DesignSpace,
    LoopConfig,
    LevelSetEstimate,
    sobol_points,
    run_active_learning,
)

__version__ = "0.1.0"
