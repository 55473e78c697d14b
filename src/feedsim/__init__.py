"""Mirroring-attack analysis for majority-vote decentralized data-feed systems.

Models a network of staked oracles reporting a categorical data point that is
aggregated by majority vote and rewarded in proportion to stake raised to an
exponent d. Provides exact and Monte Carlo expected payoffs under mirroring
(one user running many identical-reporting oracles), the grid search for the
smallest d at which single-oracle participation is a Nash equilibrium, system
error rates, experiment sweeps, and confusion-matrix estimation from
crowdsourced annotations.
"""

__version__ = "0.1.0"

from .aggregation import AggregateResult, VoteProfile, majority_vote
from .enumeration import EnumerationBudgetError
from .incentive import (
    MechanismParams,
    RewardOutcome,
    ZeroFactorSumError,
    allocation_factor,
    distribute_rewards,
    reward_factor,
    settle_round,
    stake_power,
)
from .ingest import (
    AnnotationRecord,
    AnnotationTable,
    IngestError,
    IngestReport,
    IngestSettings,
    estimate_confusion,
    read_annotation_csv,
)
from .metrics import (
    ExperimentSpec,
    SweepRow,
    error_rate_exact,
    error_rate_mc,
    run_experiment,
    write_sweep_csv,
)
from .model import (
    ClassLabel,
    ClassPrior,
    ConfigFormatError,
    ConfusionMatrix,
    InvalidConfigError,
    Strategy,
    SystemConfig,
    UserProfile,
    ValidationReport,
    load_config,
    require_valid,
    sample_report,
    validate_config,
)
from .payoff import (
    PayoffEstimate,
    PayoffQuery,
    best_response_c,
    expected_payoff_exact,
    expected_payoff_mc,
    optimal_allocation,
)
from .solver import (
    DMaxExceededError,
    NashCertificate,
    NashCheck,
    SolverSettings,
    find_d_opt,
    find_d_opt_from_oracle_stakes,
    verify_nash,
)
