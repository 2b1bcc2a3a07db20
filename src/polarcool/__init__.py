"""Steady-state cooling of mechanical modes through tunable magnon polaritons.

The pipeline: describe the system (:mod:`polarcool.model`), pick a working
point (:mod:`polarcool.tuning`), linearize around the classical steady state
(:mod:`polarcool.dynamics`), solve for the stationary covariance
(:mod:`polarcool.steadystate`), and cross-check against closed-form sideband
rates (:mod:`polarcool.analytics`).
"""

from types import ModuleType as _ModuleType

from .analytics import (
    CoolingRates,
    network_cooling,
    quantum_backaction_limit,
    sideband_rates,
)
from .config import (
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
    build_network,
    photon_matter_diagonalize,
)
from .errors import ConvergenceError, SolverError, UnstableSystemError, ValidationError
from .model import (
    DriveCalibration,
    MechanicalMode,
    calibrate_drive,
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
    Device,
    NModeResult,
    OptimizeResult,
    SweepRow,
    evaluate_point,
    optimize_theta,
    sweep,
    tune_n_mode,
)

__version__ = "0.1.0"

# every name imported above, and the version
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
__all__.append("__version__")
