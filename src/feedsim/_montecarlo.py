"""Vectorized Monte Carlo round simulation shared by payoff and metrics code.

Each trial draws a truth class from the prior, one report per user from the
confusion row, resolves the majority vote with a uniformly sampled tie-break,
and settles the reward split -- the same round semantics as the scalar
building blocks (`sample_report`, `majority_vote`, `distribute_rewards`),
evaluated in batches of whole-array passes, whatever the number of users.

The stream is a contract: a batch draws n truth uniforms, then n x users
report uniforms, then one tie-break uniform per round, tied or not, in batches
of exactly `_BATCH`, so a seed yields the same rounds on every version
(`tests/helpers.reference_mc_rounds` is the reference). Both CDFs drop their
last column, so a uniform at or above a row's total (rows may sum to an ulp
below 1) lands in the last class.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

_BATCH = 1 << 16


def _reports(uniforms: np.ndarray, thresholds: np.ndarray, dtype) -> np.ndarray:
    """Class index of each (round, user) uniform: how many of its round's CDF
    thresholds it reaches."""
    reports = np.zeros(uniforms.shape, dtype=dtype)
    for j in range(thresholds.shape[1]):
        reports += uniforms >= thresholds[:, j, None]
    return reports


def _decide(reports: np.ndarray, weights: np.ndarray, num_classes: int,
            tie_uniforms: np.ndarray) -> np.ndarray:
    """Each round's output: its single winner, or the winner its tie uniform
    picks when several classes share the most votes."""
    n = reports.shape[0]
    cells = np.multiply(reports, n, dtype=np.int64) + np.arange(n)[:, None]
    votes = np.bincount(cells.ravel(), weights, n * num_classes).reshape(num_classes, n)
    winner_mask = votes == votes.max(axis=0)
    n_winners = winner_mask.sum(axis=0)
    output = winner_mask.argmax(axis=0)
    tied = np.flatnonzero(n_winners > 1)
    if tied.size:
        n_tied = n_winners[tied]
        pick = np.minimum((tie_uniforms[tied] * n_tied).astype(np.int64) + 1, n_tied)
        # the pick-th winner sits after every class whose running count is short
        output[tied] = (np.cumsum(winner_mask[:, tied], axis=0) < pick).sum(axis=0)
    return output


def mc_rounds(
    confusion: np.ndarray,
    prior: np.ndarray,
    multiplicities: Sequence[int],
    samples: int,
    rng: np.random.Generator,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield batches of (truth, per-user reports, decided output), all 0-based.

    The helpers' temporaries are freed on return, before the batch is yielded.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    mults = np.asarray(multiplicities, dtype=np.float64)
    num_users = mults.size
    cum_prior = np.cumsum(np.asarray(prior, dtype=np.float64))[:-1]
    cum_rows = np.cumsum(np.asarray(confusion, dtype=np.float64), axis=1)[:, :-1]
    num_classes = cum_rows.shape[1] + 1
    report_dtype = np.min_scalar_type(num_classes - 1)
    weights = np.tile(mults, min(int(samples), _BATCH))
    remaining = int(samples)
    while remaining > 0:
        n = min(remaining, _BATCH)
        remaining -= n
        truth = np.searchsorted(cum_prior, rng.random(n), side="right")
        reports = _reports(rng.random((n, num_users)), cum_rows[truth], report_dtype)
        output = _decide(reports, weights[: n * num_users], num_classes, rng.random(n))
        yield truth, reports, output


def mean_and_stderr(total: float, total_sq: float, samples: int) -> tuple[float, float]:
    mean = total / samples
    if samples < 2:
        return mean, 0.0
    variance = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
    return mean, float(np.sqrt(variance / samples))


def payoff_mc(
    confusion: np.ndarray,
    prior: np.ndarray,
    multiplicities: Sequence[int],
    user_factors: Sequence[float],
    focal_index: int,
    total_reward: float,
    samples: int,
    seed: int,
) -> tuple[float, float]:
    """Sample mean and standard error of the focal user's round payoff."""
    factors = np.asarray(user_factors, dtype=np.float64)
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    for _, reports, output in mc_rounds(confusion, prior, multiplicities, samples, rng):
        correct = reports == output[:, None]
        denom = correct @ factors
        # factor/denom first: a lone winner pays exactly total_reward
        payoff = np.where(
            correct[:, focal_index],
            factors[focal_index] / denom * float(total_reward),
            0.0,
        )
        total += float(payoff.sum())
        total_sq += float((payoff * payoff).sum())
    return mean_and_stderr(total, total_sq, samples)


def error_rate_mc_core(
    confusion: np.ndarray,
    prior: np.ndarray,
    multiplicities: Sequence[int],
    samples: int,
    seed: int,
) -> tuple[float, float]:
    """Sample mean and standard error of the output-differs-from-truth indicator."""
    rng = np.random.default_rng(seed)
    errors = 0
    for truth, _, output in mc_rounds(confusion, prior, multiplicities, samples, rng):
        errors += int((output != truth).sum())
    return mean_and_stderr(float(errors), float(errors), samples)
