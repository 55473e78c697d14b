"""Majority voting over oracle reports, with analytic tie handling.

All oracles of one user submit the same report, so a vote profile is one
report per user plus a multiplicity (that user's oracle count). Ties are
resolved uniformly at random, and `tie_mass` gives each class's win
probability. A sampled output comes from the Monte Carlo kernel's own
tie-break (`_montecarlo._decide`) on a one-round vote column; the exact
engine integrates ties over vote counts itself (`enumeration._standings`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._montecarlo import _decide


@dataclass(frozen=True)
class VoteProfile:
    """One report per user (1-based class labels) and per-user oracle counts."""

    reports: tuple[int, ...]
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        reports = tuple(int(r) for r in self.reports)
        mults = tuple(int(m) for m in self.multiplicities)
        if len(reports) != len(mults):
            raise ValueError(
                f"{len(reports)} reports but {len(mults)} multiplicities"
            )
        if any(m < 1 for m in mults):
            raise ValueError("multiplicities must be >= 1")
        object.__setattr__(self, "reports", reports)
        object.__setattr__(self, "multiplicities", mults)

    @property
    def num_users(self) -> int:
        return len(self.reports)


@dataclass(frozen=True)
class AggregateResult:
    """Vote counts, the argmax set, per-class win probability, optional sample.

    `vote_counts[k-1]` is the number of oracles voting class k; `tie_mass[k-1]`
    is the probability class k is the final output (1/#winners on the argmax
    set, 0 elsewhere). `sampled_output` is set only when an rng was supplied.
    """

    vote_counts: np.ndarray
    winners: frozenset[int]
    tie_mass: np.ndarray
    sampled_output: int | None = None


def majority_vote(
    profile: VoteProfile,
    num_classes: int,
    rng: np.random.Generator | None = None,
) -> AggregateResult:
    """Aggregate a vote profile into the most frequently reported class.

    Each oracle contributes one vote regardless of stake. On a tie the winner
    set holds every argmax class and `tie_mass` splits uniformly; if `rng` is
    given, one uniform from it picks `sampled_output` uniformly from the
    winners.
    """
    if profile.num_users == 0:
        raise ValueError("cannot aggregate an empty vote profile")
    counts = np.zeros(num_classes, dtype=np.int64)
    for report, mult in zip(profile.reports, profile.multiplicities):
        if not 1 <= report <= num_classes:
            raise ValueError(f"report {report} out of range [1, {num_classes}]")
        counts[report - 1] += mult
    top = counts == counts.max()
    winners = frozenset(int(i) + 1 for i in np.flatnonzero(top))
    tie_mass = top / np.count_nonzero(top)
    sampled = None
    if rng is not None:
        sampled = int(_decide(counts[:, None], rng.random(1))[0]) + 1
    return AggregateResult(
        vote_counts=counts, winners=winners, tie_mass=tie_mass, sampled_output=sampled
    )
