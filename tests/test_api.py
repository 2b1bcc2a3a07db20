"""The package's public names: a change to them shows up here as a deliberate diff."""
import polarcool as pc

PUBLIC_API = [
    "ConvergenceError",
    "CoolingRates",
    "Device",
    "DriveCalibration",
    "LinearModel",
    "MatterMode",
    "MechanicalMode",
    "NModeResult",
    "NetworkDrive",
    "NetworkPolariton",
    "OptimizeConfig",
    "OptimizeResult",
    "PolaritonMode",
    "RunConfig",
    "SolverError",
    "StabilityInfo",
    "SteadyState",
    "SteadyStateAverages",
    "SweepConfig",
    "SweepRow",
    "UnstableSystemError",
    "ValidationError",
    "__version__",
    "build_network",
    "calibrate_drive",
    "check_stability",
    "dump_config",
    "evaluate_point",
    "extract_occupations",
    "integrate_covariance",
    "load_config",
    "network_cooling",
    "optimize_theta",
    "parse_config",
    "photon_matter_diagonalize",
    "quantum_backaction_limit",
    "serialize_config",
    "sideband_rates",
    "solve_lyapunov",
    "steady_state",
    "sweep",
    "thermal_occupation",
    "tune_n_mode",
]

# the two-mode parameter layer, replaced by Device.working_point and build_network
REMOVED = ["SystemParams", "PolaritonBasis", "diagonalize_polaritons", "build_linear_model",
           "params_at"]


def test_the_public_names_are_pinned():
    assert sorted(pc.__all__) == PUBLIC_API
    assert len(set(pc.__all__)) == len(pc.__all__)
    for name in pc.__all__:
        assert hasattr(pc, name), name


def test_the_removed_two_mode_layer_is_gone():
    for name in REMOVED:
        assert not hasattr(pc, name), name
    assert not hasattr(pc.Device, "params_at")
