"""The one definition of a round, and its vectorized Monte Carlo simulation.

A round draws a truth class from the prior and one report per user from the
confusion row (`_draw`), resolves the majority vote with a uniformly sampled
tie-break (`_decide`), and splits the reward among the payees that matched
in proportion to their factors (`_split`). The scalar building blocks
(`model.sample_report`, `aggregation.majority_vote`,
`incentive.distribute_rewards`) and `ingest.synthesize_records` call these
functions; `mc_rounds` and `payoff_mc` run them in whole-array passes
whatever the number of users.

A drawn batch is worked in blocks of at most `_CELLS` (user, round) cells, so
each block's temporaries stay in cache. A block is taken user-major, users
sorted by multiplicity, so users of equal multiplicity form one group of
contiguous rows. Per CDF threshold, one compare of the block against its
rounds' thresholds adds into the reports, and one `np.add.reduce` count per
group, times the group's multiplicity, gives the vote weight at or above that
threshold (`_tally` counts reports by `_draw`'s rule, fused with the vote
count). The votes are differences of those weights, exact integers, and one
pass per class finds the first winner. Reports are written back in user
order.

The stream is a contract: a batch draws n truth uniforms, then n x users
report uniforms, then one tie-break uniform per round, tied or not, in batches
of exactly `_BATCH`, so a seed yields the same rounds on every version
(`tests/helpers.reference_mc_rounds` is the reference). Blocks only split the
work on a batch already drawn. Both CDFs drop their last column, so a uniform
at or above a row's total (rows may sum to an ulp below 1) lands in the last
class.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

_BATCH = 1 << 16
_CELLS = 1 << 16  # (user, round) cells per block


def _draw(probabilities: np.ndarray, uniforms) -> np.ndarray:
    """Each uniform's 0-based class: how many thresholds of its row's CDF it
    reaches. `probabilities` holds one row, or one row per uniform, in its
    last axis; the CDF's last column is dropped, so a uniform at or above a
    row's total lands in the last class."""
    thresholds = np.cumsum(probabilities, axis=-1)[..., :-1]
    drawn = np.zeros(np.shape(uniforms), dtype=np.intp)
    for j in range(thresholds.shape[-1]):  # a right-side search: the CDF never decreases
        drawn += uniforms >= thresholds[..., j]
    return drawn


def _groups(mults: np.ndarray) -> tuple[np.ndarray, list[tuple[slice, int, np.dtype]]]:
    """The user order that sorts multiplicities, and each equal-multiplicity
    group as (its rows in that order, its multiplicity, a dtype its count
    cannot overflow)."""
    order = np.argsort(mults, kind="stable")
    bounds = [0, *(np.flatnonzero(np.diff(mults[order])) + 1).tolist(), mults.size]
    return order, [
        (slice(lo, hi), int(mults[order[lo]]), np.min_scalar_type(hi - lo))
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


def _tally(uniforms: np.ndarray, truth: np.ndarray, thresholds: np.ndarray,
           groups: list[tuple[slice, int, np.dtype]]) -> tuple[np.ndarray, np.ndarray]:
    """Each (user, round) report of a user-major block, the count of its round's
    thresholds its uniform reaches, and each round's class-major vote totals,
    one pass per threshold."""
    num_thresholds = thresholds.shape[0]
    reports = np.zeros(uniforms.shape, dtype=np.min_scalar_type(num_thresholds))
    # counts[g][j]: group g's users whose uniform reaches threshold j
    counts = [np.empty((num_thresholds, uniforms.shape[1]), dtype=dtype)
              for _, _, dtype in groups]
    for j, row in enumerate(thresholds.take(truth, axis=1)):
        reached = uniforms >= row
        reports += reached.view(np.uint8)
        for (part, _, dtype), count in zip(groups, counts):
            np.add.reduce(reached[part], axis=0, dtype=dtype, out=count[j])
    # above[j]: the vote weight at class j or higher, an exact integer no
    # larger than the total weight
    total = sum(mult * (part.stop - part.start) for part, mult, _ in groups)
    weight = np.min_scalar_type(total)
    above = np.zeros((num_thresholds + 2, uniforms.shape[1]), dtype=weight)
    above[0] = total
    for (_, mult, _), count in zip(groups, counts):
        above[1:-1] += np.multiply(count, weight.type(mult), dtype=weight)
    return reports, above[:-1] - above[1:]


def _decide(votes: np.ndarray, tie_uniforms: np.ndarray) -> np.ndarray:
    """Each round's output: its single winner, or the winner its tie uniform
    picks when several classes share the most votes."""
    winner_mask = votes == votes.max(axis=0)
    n_winners = winner_mask.sum(axis=0)
    # the first winner's class counts the classes before it: one pass per class
    ahead = ~winner_mask[0]
    output = ahead.astype(np.min_scalar_type(votes.shape[0] - 1))
    for row in winner_mask[1:-1]:
        ahead &= ~row
        output += ahead.view(np.uint8)
    tied = np.flatnonzero(n_winners > 1)
    if tied.size:
        n_tied = n_winners[tied]
        pick = np.minimum((tie_uniforms[tied] * n_tied).astype(np.int64) + 1, n_tied)
        # the pick-th winner sits after every class whose running count is short
        output[tied] = (np.cumsum(winner_mask[:, tied], axis=0) < pick).sum(axis=0)
    return output


def _split(matched: np.ndarray, factors: np.ndarray, payee) -> np.ndarray:
    """Each round's share of the reward for `payee` (an index or a slice of
    `factors`): its factor over the summed factors of the payees that matched,
    or 0 where it did not match. `matched` is one round's (payees,) mask or a
    (rounds, payees) one. Factors whose sum overflows are divided by their
    largest first: a share is scale-free."""
    if not math.isfinite(sum(factors.tolist())):  # a float sum: inf with no warning
        factors = factors / factors.max()
    return np.where(matched[..., payee], factors[payee] / (matched @ factors), 0.0)


def mc_rounds(
    confusion: np.ndarray,
    prior: np.ndarray,
    multiplicities: Sequence[int],
    samples: int,
    rng: np.random.Generator,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield batches of (truth, per-user reports, decided output), all 0-based.

    Block temporaries are freed block by block, before the batch is yielded.
    """
    mults = np.asarray(multiplicities, dtype=np.int64)
    order, groups = _groups(mults)
    block = max(1, _CELLS // mults.size)
    # class-major: row j holds the j-th report threshold of every truth class
    thresholds = np.cumsum(np.asarray(confusion, dtype=np.float64), axis=1)[:, :-1].T.copy()
    class_index = np.min_scalar_type(thresholds.shape[0])
    remaining = int(samples)
    while remaining > 0:
        n = min(remaining, _BATCH)
        remaining -= n
        truth = _draw(prior, rng.random(n))
        uniforms = rng.random((n, mults.size))
        tie_uniforms = rng.random(n)
        reports = np.empty(uniforms.shape, dtype=class_index)
        output = np.empty(n, dtype=class_index)
        for lo in range(0, n, block):
            part = slice(lo, lo + block)
            block_reports, votes = _tally(uniforms[part].T[order], truth[part],
                                          thresholds, groups)
            reports[part, order] = block_reports.T
            output[part] = _decide(votes, tie_uniforms[part])
        yield truth, reports, output


def spawn_seed(seed: int, *key: int) -> int:
    """The seed of the independent stream that `key` names under `seed`."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


def mean_and_stderr(total: float, total_sq: float, samples: int) -> tuple[float, float]:
    """Sample mean and standard error from a sum and a sum of squares; one
    sample has no standard error, so fewer than 2 raise ValueError."""
    if samples < 2:
        raise ValueError(f"a standard error needs at least 2 samples, got {samples}")
    mean = total / samples
    variance = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
    return mean, float(np.sqrt(variance / samples))


def payoff_mc(
    confusion: np.ndarray,
    prior: np.ndarray,
    multiplicities: Sequence[int],
    user_factors: Sequence[float],
    focal_index: int,
    samples: int,
    seed: int,
) -> tuple[float, float]:
    """Sample mean and standard error of the focal user's share of a round's
    reward. A share lies in [0, 1], so its squares stay finite; the caller
    multiplies both by the reward."""
    factors = np.asarray(user_factors, dtype=np.float64)
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    for _, reports, output in mc_rounds(confusion, prior, multiplicities, samples, rng):
        share = _split(reports == output[:, None], factors, focal_index)
        total += float(share.sum())
        total_sq += float((share * share).sum())
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
