"""Online learning of action-bounded functions: games, bounds, polynomials."""

__version__ = "0.1.0"

from .interpolation import (
    ACTION_TOL,
    DuplicateKnotError,
    FeasibleInterval,
    SamplePoint,
    SampleSet,
    action_increment,
    eval_interpolant,
    feasible_reply_interval,
    h_potential,
    nearest_gap,
    q_action,
    slope_at,
)
from .learners import LinintLearner, StagedLearner, interval_of, median_center
from .adversaries import (
    Disclosure,
    GreedyAdversary,
    GreedyConfig,
    InsufficientInitAdversary,
    NoisyLowerBoundAdversary,
    RandomLiarAdversary,
    greedy_reveal,
    verify_legality,
)
from .engine import (
    GameConfig,
    IllegalAdversaryError,
    Transcript,
    TrialRecord,
    run_game,
    run_noisy_game,
    run_standard_game,
    scale_transcript,
    total_error,
)
from .inequalities import (
    GapReport,
    check_cumulative,
    check_dichotomy,
    gap_h_increment,
    gap_in,
    gap_out,
    gap_two_variable,
    search_near_violation,
)
from .bernstein import (
    BernsteinPolynomial,
    DegreeCapError,
    composite_rule_action,
    polynomial_roots,
    q_action_poly,
)
from .polyapprox import (
    BudgetPlan,
    SmoothedDerivative,
    approx_interpolant_poly,
    exact_interpolant_poly,
    weighted_combine,
)

__all__ = [name for name in dir() if not name.startswith("_")]
