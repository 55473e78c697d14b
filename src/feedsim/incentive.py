"""Reward factors and proportional reward distribution.

An oracle that matches the decided output earns the reward factor
``stake ** d`` (``d >= 1``); everyone else earns 0. The task reward is then
split proportionally to the factors. ``d = 1`` is exactly the plain
stake-proportional rule; ``d > 1`` makes concentrated stakes strictly more
rewarding than split ones, which is what removes the incentive to mirror.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._montecarlo import _split
from .aggregation import VoteProfile


class ZeroFactorSumError(ValueError):
    """All reward factors are zero, so there is nothing to normalize by.

    Cannot happen downstream of majority voting (the winning class always
    has at least one vote); surfaced for direct callers.
    """


@dataclass(frozen=True)
class MechanismParams:
    """Superlinearity exponent and task reward for one mechanism instance."""

    exponent: float = 1.0
    total_reward: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.exponent) and self.exponent >= 1.0):
            raise ValueError(f"exponent must be >= 1, got {self.exponent!r}")
        if not (math.isfinite(self.total_reward) and self.total_reward > 0):
            raise ValueError(f"total reward must be positive, got {self.total_reward!r}")


def stake_power(stake: int, d: float) -> float:
    """``stake ** d`` in double precision, with the stake-1 case exact. A
    power past the float range raises OverflowError naming the stake and d."""
    stake = int(stake)
    if stake < 1:
        raise ValueError(f"stake must be >= 1, got {stake}")
    if not (math.isfinite(d) and d >= 1.0):
        raise ValueError(f"exponent must be >= 1, got {d!r}")
    if stake == 1:
        return 1.0
    try:
        return math.pow(float(stake), d)
    except OverflowError:
        raise OverflowError(f"stake {stake} raised to d={d!r} is past the float range") from None


def reward_factor(stake: int, reported: int, decided: int, d: float) -> float:
    """Per-oracle factor: ``stake ** d`` if the report matches the decision, else 0."""
    value = stake_power(stake, d)  # validates stake and d even when not paid
    return value if reported == decided else 0.0


def allocation_factor(allocation: Sequence[int], d: float) -> float:
    """Total factor of one user's oracles when all of them are paid, summed
    smallest first: the same for any order of the allocation, and for a
    concentrated one exactly ``(c - 1) + (s - c + 1) ** d``."""
    return sum(sorted(stake_power(s, d) for s in allocation))


def distribute_rewards(factors: Sequence[float], total_reward: float) -> np.ndarray:
    """Split the task reward proportionally to the reward factors, through the
    Monte Carlo kernel's split with every positive factor counted as matched."""
    arr = np.asarray(factors, dtype=np.float64)
    if arr.size == 0 or np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise ValueError("factors must be a non-empty vector of finite non-negatives")
    matched = arr > 0.0
    if not matched.any():
        raise ZeroFactorSumError("all reward factors are zero")
    # divide each factor by the sum first: a sole positive factor maps to
    # exactly total_reward, and tiny (even subnormal) sums cannot overflow
    return _split(matched, arr, slice(None)) * float(total_reward)


@dataclass(frozen=True)
class RewardOutcome:
    """Settled round: per-oracle factors and payoffs, plus per-user totals."""

    factors: np.ndarray
    payoffs: np.ndarray
    per_user_payoffs: np.ndarray


def settle_round(
    profile: VoteProfile,
    allocations: Sequence[Sequence[int]],
    decided: int,
    params: MechanismParams,
) -> RewardOutcome:
    """Assign factors and distribute the reward for one decided round.

    `allocations[n]` lists the stakes on user n's oracles; all of a user's
    oracles carry that user's report from `profile`.
    """
    if len(allocations) != profile.num_users:
        raise ValueError("one allocation per user required")
    factors = []
    owner = []
    for n, (report, alloc) in enumerate(zip(profile.reports, allocations)):
        if len(alloc) != profile.multiplicities[n]:
            raise ValueError(
                f"user {n + 1}: allocation has {len(alloc)} oracles, "
                f"profile says {profile.multiplicities[n]}"
            )
        for s in alloc:
            factors.append(reward_factor(s, report, decided, params.exponent))
            owner.append(n)
    payoffs = distribute_rewards(factors, params.total_reward)
    per_user = np.zeros(profile.num_users)
    np.add.at(per_user, owner, payoffs)
    return RewardOutcome(
        factors=np.asarray(factors), payoffs=payoffs, per_user_payoffs=per_user
    )
