"""Safety-critical control filters with closed-form solutions.

Builds safety filters around hand-designed controllers: the plain filter
enforces a barrier constraint pointwise, the robust variant additionally
tolerates bounded input disturbance at the price of a quantified, tunable
degradation of the guaranteed safety level.  Ships two worked plants (an
inverted pendulum and a connected automated truck), barrier certification
tools, disturbance models, and a deterministic scenario simulator with a CLI.
"""

from .cbf import CbfFilter
from .core import (
    BarrierEvaluation,
    ClassKappaE,
    ControlAffineDynamics,
    DimensionError,
    SignalDomainError,
    linear_class_kappa,
    state_vector,
)
from .disturbance import (
    DisturbanceSignal,
    estimate_sup_norm,
    heaviside_pulse,
    lag_residual,
    sampled_disturbance,
    zero_disturbance,
)
from .issf import (
    EpsilonFunction,
    IssfFilter,
    RootBracketError,
    set_inflation,
    solve_h_star,
)
from .plants import (
    PendulumParams,
    TruckParams,
    pendulum_barrier,
    pendulum_cbf_filter,
    pendulum_dynamics,
    pendulum_issf_filter,
    pendulum_nominal,
    range_policy,
    range_policy_inverse,
    speed_policy,
    truck_barrier,
    truck_dynamics,
    truck_headway,
    truck_nominal,
    truck_robust_filter,
    truck_safe_filter,
)
from .sim import (
    LeaderProfile,
    Scenario,
    ScenarioResult,
    SimulationError,
    constant_speed_profile,
    hard_brake_profile,
    rk4_step,
    run_scenario,
    steady_state_shift,
    truck_lag_disturbance,
)
from .verification import (
    CertificationReport,
    certify_pendulum,
    certify_truck_grid,
    gradient_consistency,
)

__version__ = "0.1.0"
