"""Barrier-function safety filtering for fixed-wing collision avoidance
under limited-range sensing."""

import os
import sys

# One BLAS thread, set before any submodule imports numpy.  wingsafe's largest
# BLAS call (a 310 x 60 matrix-vector product at N = 20) and its `A @ u`,
# `N N^T` and `solve` take as long on one OpenBLAS thread as on two, yet
# starting OpenBLAS's thread pool added about 65 ms to `import numpy` on a
# 2-core x86-64 host (137-157 ms against 60-93 ms).  Where the pool does
# engage it changes the rounding: an 80-vehicle circle wrote a different trace
# on two threads (min_distance 5.009868394757866) than on one
# (5.00986839475782).  A value the user set wins, and a program that imported
# numpy first keeps its BLAS as it was.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .dynamics import (
    ActuatorLimits,
    VehicleState,
    step_rk4,
    wrap_angle,
)
from .barrier import (
    BarrierConfig,
    LinearGain,
    PairState,
    SafetyParams,
    StraightManeuver,
    TurnManeuver,
    h_value,
    lie_derivatives,
)
from .shaping import (
    CompatibilityReport,
    SensorModel,
    ShapingParams,
    check_sensor_compatible,
    in_sensor_set,
    min_sensing_range,
    shape_h,
    xi_from_range,
)
from .qp import ConstraintRow, QPInfeasibleError, QPProblem, solve_qp
from .safety_filter import FilterConfig, FilterResult, FilterRun, filter_controls
from .sim import (
    CircleController,
    GoalController,
    Metrics,
    SimTrace,
    Simulation,
    compute_metrics,
)
from .scenarios import (
    ScenarioConfig,
    VehicleSpec,
    builtin_scenarios,
    config_from_dict,
    config_to_dict,
    load_config,
    run_scenario,
)

__all__ = [
    "ActuatorLimits",
    "BarrierConfig",
    "CircleController",
    "CompatibilityReport",
    "ConstraintRow",
    "FilterConfig",
    "FilterResult",
    "FilterRun",
    "GoalController",
    "LinearGain",
    "Metrics",
    "PairState",
    "QPInfeasibleError",
    "QPProblem",
    "SafetyParams",
    "ScenarioConfig",
    "SensorModel",
    "ShapingParams",
    "SimTrace",
    "Simulation",
    "StraightManeuver",
    "TurnManeuver",
    "VehicleSpec",
    "VehicleState",
    "builtin_scenarios",
    "check_sensor_compatible",
    "compute_metrics",
    "config_from_dict",
    "config_to_dict",
    "filter_controls",
    "h_value",
    "in_sensor_set",
    "lie_derivatives",
    "load_config",
    "min_sensing_range",
    "run_scenario",
    "shape_h",
    "solve_qp",
    "step_rk4",
    "wrap_angle",
    "xi_from_range",
]

__version__ = "0.1.0"
