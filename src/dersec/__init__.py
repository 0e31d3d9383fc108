"""Security games on radial distribution feeders with vulnerable DER nodes.

The package solves the trilevel security-investment / attack / response game
on radial feeders under three branch-flow models, certifies loss bounds
between them, and ships exhaustive oracles for desk-scale verification.
"""

from . import errors
from .attack import (
    PivotAttack,
    candidate_attack_set,
    effective_setpoints,
    optimal_attack_fixed_response,
    pivot_optimal_attack,
)
from .cases import (
    balanced_tree,
    fig4_strategies,
    gen_case,
    heterogeneous37,
    homogeneous37,
    precedence_example,
    random_feasible_network,
)
from .game import (
    ADResult,
    BoundsReport,
    sandwich_bounds,
    solve_ad,
    solve_ad_exhaustive,
    solve_ad_iterative,
    solve_ad_oneshot,
)
from .loss import CostParams, LossBreakdown, evaluate_loss, line_loss_cap
from .netio import load_network, network_from_json, network_to_json, save_network
from .network import (
    Network,
    NodeSpec,
    Precedence,
    build_network,
    common_path_impedance,
    precedence_compare,
)
from .oracle import GridSpec, bf_ad, bf_attack_fixed_response, bf_security
from .powerflow import (
    LPF,
    NPF,
    A0Report,
    EpsilonCalibration,
    Injection,
    ModelTag,
    State,
    calibrate_epsilon,
    eps_lpf,
    injection,
    nominal_injection,
    solve_eps_lpf,
    solve_lpf,
    solve_npf,
    validate_assumptions,
)
from .response import (
    DefenderResponse,
    fixed_angle_setpoints,
    optimal_response,
    response_state,
)
from .security import (
    DADResult,
    compare_strategies,
    is_symmetric,
    optimal_security_strategy,
    solve_dad,
)
from .sweep import SweepConfig, SweepRow, run_sweep, with_gamma_lo

__version__ = "0.1.0"
