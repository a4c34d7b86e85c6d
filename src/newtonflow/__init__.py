"""Global inversion of C1 maps on R^n via the continuous Newton flow.

The toolkit integrates xdot = -f'(x)^{-1}(f(x) - y*) to invert maps globally,
and checks the classical injectivity/bijectivity certificates (auxiliary
coercive functions, Hadamard-Levy growth bounds, coercivity of f, sphere
criteria) by structured, seeded numerical sampling.
"""

from .linalg import SingularError, inverse_norm
from .maps import (
    C1Map,
    DomainError,
    NonFiniteError,
    UnknownMapError,
    builtin,
    fd_jacobian_check,
    list_maps,
)
from .flow import (
    Direction,
    FlowFailure,
    FlowOptions,
    FlowStatus,
    Trajectory,
    decay_drift,
    direction_deviation,
    integrate,
    newton_field,
    solve_inverse,
)
from .certify import (
    AuxFunction,
    BallSampler,
    Certificate,
    GridSampler,
    OmegaPoly,
    SphereSampler,
    Verdict,
    aux_hadamard,
    aux_log_coercive,
    aux_log_h,
    check_ball_criterion,
    check_bounded_inverse_on_ball,
    check_coercive_map,
    check_cor22,
    check_hadamard,
    check_theorem21,
    check_theorem31,
    dplus,
)
from .basin import BasinGrid, export_grid, injectivity_probe, load_grid_records, scan_basin

__version__ = "0.1.0"

__all__ = [
    "SingularError", "inverse_norm",
    "C1Map", "DomainError", "NonFiniteError", "UnknownMapError", "builtin",
    "fd_jacobian_check", "list_maps",
    "Direction", "FlowFailure", "FlowOptions", "FlowStatus", "Trajectory",
    "decay_drift", "direction_deviation", "integrate", "newton_field",
    "solve_inverse",
    "AuxFunction", "BallSampler", "Certificate", "GridSampler", "OmegaPoly",
    "SphereSampler", "Verdict", "aux_hadamard", "aux_log_coercive", "aux_log_h",
    "check_ball_criterion", "check_bounded_inverse_on_ball", "check_coercive_map",
    "check_cor22", "check_hadamard", "check_theorem21", "check_theorem31", "dplus",
    "BasinGrid", "export_grid", "injectivity_probe", "load_grid_records", "scan_basin",
    "__version__",
]
