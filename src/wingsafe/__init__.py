"""Barrier-function safety filtering for fixed-wing collision avoidance
under limited-range sensing."""

from .dynamics import (
    ActuatorLimits,
    ControlInput,
    VehicleState,
    step_rk4,
    wrap_angle,
)
from .barrier import (
    BarrierConfig,
    BarrierValue,
    DomainError,
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
    make_quadratic_psi,
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
    "BarrierValue",
    "CircleController",
    "CompatibilityReport",
    "ConstraintRow",
    "ControlInput",
    "DomainError",
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
    "make_quadratic_psi",
    "min_sensing_range",
    "run_scenario",
    "shape_h",
    "solve_qp",
    "step_rk4",
    "wrap_angle",
    "xi_from_range",
]

__version__ = "0.1.0"
