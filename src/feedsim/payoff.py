"""Expected payoff of a (possibly mirroring) user, exact and Monte Carlo.

The exact path sums over rival report counts (the engine in `enumeration`,
which treats rivals as exchangeable apart from oracle count and reward
factor) and integrates the uniform tie-break analytically; the Monte Carlo
path samples full rounds, tie-breaks included. `engine_for` is the one place
an engine is built: a config keeps one per rival population, so the solver,
the sweep, the payoff and the error rate on one config share its tables.
Concentrating all stake beyond the per-oracle minimum on a single oracle
maximizes the reward factor for a fixed oracle count, so the concentrated
allocation is the canonical mirroring strategy and the one the best-response
search uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import _montecarlo
from ._montecarlo import spawn_seed
from .constants import DEFAULT_MC_SAMPLES, DEFAULT_SEED
from .enumeration import DEFAULT_BUDGET, ExactEnumerator
from .incentive import allocation_factor, stake_power
from .model import Strategy, SystemConfig, resolve_strategies

EXACT = "exact"
MONTE_CARLO = "monte_carlo"
METHODS = {"exact": EXACT, "mc": MONTE_CARLO, "monte_carlo": MONTE_CARLO}  # alias -> method


def resolve_method(alias) -> str:
    """The method that a `METHODS` alias names; anything else raises ValueError."""
    try:
        return METHODS[alias]
    except (KeyError, TypeError):
        raise ValueError(f"unknown method {alias!r}") from None


@dataclass(frozen=True)
class PayoffQuery:
    """Payoff question: one focal user's strategy against everyone else's.

    `other_strategies` defaults to every rival running a single oracle with
    its full stake. `d` is the reward-factor exponent.
    """

    config: SystemConfig
    focal_user: int
    focal_strategy: Strategy
    d: float
    other_strategies: Mapping[int, Strategy] | None = None

    def resolved_strategies(self) -> dict[int, Strategy]:
        """Per-user strategies with defaults filled in; validates feasibility."""
        if self.d < 1.0:
            raise ValueError(f"exponent must be >= 1, got {self.d!r}")
        self.config.user(self.focal_user)  # raises on unknown id
        overrides = dict(self.other_strategies or {})
        overrides[self.focal_user] = self.focal_strategy
        return resolve_strategies(self.config, overrides)


@dataclass(frozen=True)
class PayoffEstimate:
    """Expected payoff plus how it was obtained."""

    value: float
    method: str
    std_error: float = 0.0
    samples: int = 0


def optimal_allocation(total_stake: int, oracle_count: int) -> Strategy:
    """Stake split maximizing the reward factor at a fixed oracle count.

    Puts the minimum stake on all but one oracle: (s - c + 1, 1, ..., 1).
    For d >= 1 the factor is convex in each entry, so shifting stake from a
    smaller entry onto a larger one never decreases it; this allocation
    dominates every other integer split of `total_stake` into `oracle_count`
    parts.
    """
    return Strategy.concentrated(total_stake, oracle_count)


def engine_for(
    config: SystemConfig, rival_mults: Sequence[int], budget: int = DEFAULT_BUDGET
) -> ExactEnumerator:
    """The exact engine of `config` for rivals running `rival_mults` oracles,
    in that order, within `budget` cells.

    Built on first use and kept in the config, so every later query on the
    same rival population reads the tables already built; it lives exactly as
    long as the config. A payoff does not depend on the counts or rows that
    share an engine, so sharing one cannot change a value.
    """
    key = (tuple(int(m) for m in rival_mults), budget)
    engine = config._engines.get(key)
    if engine is None:
        engine = config._engines[key] = ExactEnumerator(
            config.confusion.entries, config.prior.probabilities, *key)
    return engine


def expected_payoff_exact(query: PayoffQuery) -> PayoffEstimate:
    """Exact expected payoff; EnumerationBudgetError if over the engine's budget."""
    strategies = query.resolved_strategies()
    rivals = [strategies[u.user_id] for u in query.config.users if u.user_id != query.focal_user]
    engine = engine_for(query.config, [s.oracle_count for s in rivals])
    focal = strategies[query.focal_user]
    value = engine.payoffs(
        [focal.oracle_count],
        [allocation_factor(focal.allocation, query.d)],
        [allocation_factor(s.allocation, query.d) for s in rivals],
        total_reward=query.config.total_reward,
    )[0]
    return PayoffEstimate(value=float(value), method=EXACT)


def expected_payoff_mc(
    query: PayoffQuery,
    samples: int = DEFAULT_MC_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> PayoffEstimate:
    """Unbiased sampled estimate of the same expectation, with standard error."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    strategies = query.resolved_strategies()
    ordered = [u.user_id for u in query.config.users]
    mults = [strategies[m].oracle_count for m in ordered]
    factors = [allocation_factor(strategies[m].allocation, query.d) for m in ordered]
    value, stderr = _montecarlo.payoff_mc(
        query.config.confusion.entries,
        query.config.prior.probabilities,
        mults,
        factors,
        ordered.index(query.focal_user),
        query.config.total_reward,
        samples,
        seed,
    )
    return PayoffEstimate(
        value=value, method=MONTE_CARLO, std_error=stderr, samples=int(samples)
    )


def single_oracle_rivals(config: SystemConfig, budget: int = DEFAULT_BUDGET) -> ExactEnumerator:
    """The engine for any focal user whose rivals each run one oracle: the
    config's own, shared by the solver, the sweep and the default error rate."""
    return engine_for(config, (1,) * (config.num_users - 1), budget)


def concentrated_payoffs(
    config: SystemConfig,
    focal_user: int,
    d: float | Sequence[float],
    oracle_counts,
) -> np.ndarray:
    """Exact payoffs for several concentrated oracle counts in one engine query.

    Rivals run single full-stake oracles. A scalar `d` gives one payoff per
    count; a sequence of exponents gives one row of them per exponent.
    """
    stake = config.user(focal_user).total_stake
    counts = [int(c) for c in oracle_counts]
    for c in counts:  # the bounds of `optimal_allocation`, without building one
        if not 1 <= c <= stake:
            raise ValueError(f"oracle count {c} infeasible for stake {stake}")
    rivals = [u.total_stake for u in config.users if u.user_id != focal_user]
    ds = [float(x) for x in np.atleast_1d(d)]

    def power(stakes):  # only the stakes asked for, so a huge stake lists nothing
        return np.array([[stake_power(s, x) for s in stakes] for x in ds]
                        ).reshape(len(ds), len(stakes))

    values = _concentrated(single_oracle_rivals(config), stake, np.array(counts), rivals,
                           power, config.total_reward)
    return values if np.ndim(d) else values[0]


def _concentrated(engine, stake, counts, rival_stakes, power, total_reward) -> np.ndarray:
    """The one builder of concentrated payoffs: `(rows, counts)`, against single
    oracles of `rival_stakes`, from `power(s)`, the `(rows, len(s))` array of
    s ** d_r for a list of stakes s."""
    # c oracles: c - 1 holding stake 1 and one holding the rest
    focal = (counts - 1) + power([stake - c + 1 for c in counts.tolist()])
    rivals = power(list(rival_stakes))
    return engine.payoffs(counts, focal, rivals, total_reward=total_reward)


def best_response_c(
    config: SystemConfig,
    focal_user: int,
    d: float,
    method: str = EXACT,
    samples: int = DEFAULT_MC_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> int:
    """Oracle count maximizing the focal user's expected payoff.

    Evaluates every feasible concentrated strategy with rivals at single
    full-stake oracles; ties break toward fewer oracles. `method` accepts any
    `METHODS` alias; count c samples the stream `spawn_seed(seed, c)`.
    """
    user = config.user(focal_user)
    stake, counts = user.total_stake, list(user.oracle_counts())
    if resolve_method(method) == EXACT:
        values = concentrated_payoffs(config, focal_user, d, counts)
    else:
        values = [expected_payoff_mc(
            PayoffQuery(config, focal_user, optimal_allocation(stake, c), d),
            samples=samples, seed=spawn_seed(seed, c)).value for c in counts]
    return counts[int(np.argmax(values))]  # argmax takes the first (smallest c) on ties
