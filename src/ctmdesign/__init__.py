"""Stochastic cell transmission models with acceptable-design estimation."""

from .network import (
    Route,
    TrafficNetwork,
    TurningFractions,
    FlowRecord,
    NetworkError,
)
from .cells import CellSpec
from .signals import SignalSchedule
from .solvers import (
    LocalProblem,
    InteractionRule,
    SimulationEngine,
    solve_dpf,
    solve_cpf,
    solve_priority,
    solve_cooperative,
)
from .env import FrankCopula, ArSourceSink, GaussianSourceSink, clamp_net_flow
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
    SobolStream,
    LevelSetEstimate,
    run_active_learning,
)

__version__ = "0.1.0"
