"""Steady-state cooling of mechanical modes through tunable magnon polaritons.

The pipeline: describe the system (:mod:`polarcool.model`), pick a working
point (:mod:`polarcool.tuning`), linearize around the classical steady state
(:mod:`polarcool.dynamics`), solve for the stationary covariance
(:mod:`polarcool.steadystate`), and cross-check against closed-form sideband
rates (:mod:`polarcool.analytics`).
"""

from .analytics import (
    CoolingRates,
    cooling_report,
    network_cooling,
    quantum_backaction_limit,
    sideband_rates,
)
from .config import (
    NModeConfig,
    OptimizeConfig,
    RunConfig,
    SweepConfig,
    dump_config,
    load_config,
    parse_config,
    serialize_config,
)
from .dynamics import (
    LinearModel,
    MatterMode,
    NetworkDrive,
    NetworkPolariton,
    PolaritonMode,
    SteadyStateAverages,
    build_linear_model,
    build_network,
    photon_matter_diagonalize,
)
from .errors import ConvergenceError, SolverError, UnstableSystemError, ValidationError
from .model import (
    DriveCalibration,
    MechanicalMode,
    PolaritonBasis,
    SystemParams,
    calibrate_drive,
    diagonalize_polaritons,
    thermal_occupation,
)
from .steadystate import (
    StabilityInfo,
    SteadyState,
    check_stability,
    extract_occupations,
    integrate_covariance,
    solve_lyapunov,
    steady_state,
)
from .tuning import (
    NModeResult,
    OptimizeResult,
    SweepRow,
    TuneResult,
    TwoModeSetup,
    evaluate_point,
    optimize_theta,
    polariton_network,
    sweep,
    tune_n_mode,
    tune_two_mode,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "CoolingRates",
    "DriveCalibration",
    "LinearModel",
    "MatterMode",
    "MechanicalMode",
    "NetworkDrive",
    "NetworkPolariton",
    "NModeConfig",
    "NModeResult",
    "OptimizeConfig",
    "OptimizeResult",
    "PolaritonBasis",
    "PolaritonMode",
    "RunConfig",
    "SolverError",
    "StabilityInfo",
    "SteadyState",
    "SteadyStateAverages",
    "SweepConfig",
    "SweepRow",
    "SystemParams",
    "TuneResult",
    "TwoModeSetup",
    "UnstableSystemError",
    "ValidationError",
    "build_linear_model",
    "build_network",
    "calibrate_drive",
    "check_stability",
    "cooling_report",
    "diagonalize_polaritons",
    "dump_config",
    "evaluate_point",
    "extract_occupations",
    "integrate_covariance",
    "load_config",
    "network_cooling",
    "optimize_theta",
    "parse_config",
    "photon_matter_diagonalize",
    "polariton_network",
    "quantum_backaction_limit",
    "serialize_config",
    "sideband_rates",
    "solve_lyapunov",
    "steady_state",
    "sweep",
    "thermal_occupation",
    "tune_n_mode",
    "tune_two_mode",
    "__version__",
]
