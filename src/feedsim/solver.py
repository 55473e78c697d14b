"""Grid search for the smallest exponent making single-oracle play a Nash equilibrium.

The solver scans d over {start, start + eps, ...} and returns the first grid
value at which no user can raise its expected payoff by running c >= 2
mirrored oracles while everyone else runs one. Each candidate d is checked
with a full sweep over (user, oracle count) pairs; any violation advances the
grid by one step, so the returned value is minimal on the grid. Whether a
check that once held can fail again at a larger d is not assumed: every
evaluation is recorded and reversals can be audited from the diagnostics.

A variant accepts the observed per-oracle stake vector in place of the
(unobservable) per-user staking powers; when every user actually runs one
oracle the two inputs coincide and the outputs are identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constants import DEFAULT_SEED
from .enumeration import DEFAULT_BUDGET, ExactEnumerator
from .incentive import stake_power
from .model import (
    ClassPrior,
    ConfusionMatrix,
    Strategy,
    SystemConfig,
    UserProfile,
    require_valid,
)
from .payoff import PayoffQuery, expected_payoff_mc

_TIGHTNESS_TOL = 1e-12


@dataclass(frozen=True)
class SolverSettings:
    """Grid parameters and evaluation policy for the exponent search."""

    epsilon: float = 0.01
    d_max: float = 16.0
    starting_d: float = 1.0
    fail_fast: bool = True            # stop a sweep at its first violation
    enumeration_budget: int = DEFAULT_BUDGET
    mc_samples: int = 1_000_000
    mc_margin: float = 4.0            # stderr multiples before a sampled check counts as violated
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be positive, got {self.epsilon!r}")
        if not (self.d_max > self.starting_d):
            raise ValueError("d_max must exceed starting_d")
        if self.starting_d < 1.0:
            raise ValueError("starting_d must be >= 1")


@dataclass(frozen=True)
class NashCheck:
    """One unilateral deviation: user n mirroring with c oracles."""

    user_id: int
    oracle_count: int
    payoff_single: float
    payoff_mirror: float

    @property
    def holds(self) -> bool:
        return self.payoff_mirror <= self.payoff_single

    @property
    def gap(self) -> float:
        """Positive when mirroring pays."""
        return self.payoff_mirror - self.payoff_single


@dataclass(frozen=True)
class NashCertificate:
    """All deviation checks at one exponent value."""

    d: float
    checks: tuple[NashCheck, ...]
    satisfied: bool

    def tightest_violation(self) -> NashCheck | None:
        """The violated check with the largest gap (near-ties resolve to the
        smallest user id, then oracle count)."""
        violated = [c for c in self.checks if not c.holds]
        if not violated:
            return None
        best = max(violated, key=lambda c: c.gap)
        candidates = [c for c in violated if c.gap >= best.gap - _TIGHTNESS_TOL]
        return min(candidates, key=lambda c: (c.user_id, c.oracle_count))

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "checks": [
                {
                    "n": c.user_id,
                    "c": c.oracle_count,
                    "payoff_single": c.payoff_single,
                    "payoff_mirror": c.payoff_mirror,
                }
                for c in self.checks
            ],
            "satisfied": self.satisfied,
        }


class DMaxExceededError(RuntimeError):
    """No grid value up to d_max removed the incentive to mirror."""

    def __init__(self, d_max: float, tightest: NashCheck | None):
        self.d_max = d_max
        self.tightest = tightest
        detail = ""
        if tightest is not None:
            detail = (
                f"; tightest violation at user {tightest.user_id} with "
                f"c={tightest.oracle_count}: mirror {tightest.payoff_mirror!r} "
                f"> single {tightest.payoff_single!r}"
            )
        super().__init__(f"no exponent up to d_max={d_max} suppresses mirroring{detail}")


class _CheckEvaluator:
    """Evaluates both sides of one deviation check, exactly when affordable.

    All rivals run single full-stake oracles, so every focal user shares the
    same engine; single-oracle payoffs are cached per (user, d).
    """

    def __init__(self, config: SystemConfig, settings: SolverSettings):
        self.config = config
        self.settings = settings
        self.users = sorted(config.users, key=lambda u: u.user_id)
        n_rivals = len(self.users) - 1
        self.engine = ExactEnumerator(
            config.confusion.entries,
            config.prior.probabilities,
            (1,) * n_rivals,
        )
        self.exact = self.engine.term_count <= settings.enumeration_budget
        self._singles: dict[tuple[int, float], float] = {}

    def _rival_factors(self, user_id: int, d: float) -> list[float]:
        return [
            stake_power(u.total_stake, d) for u in self.users if u.user_id != user_id
        ]

    def _exact_pair(self, user_id: int, c: int, d: float) -> tuple[float, float]:
        stake = self.config.user(user_id).total_stake
        rival_factors = self._rival_factors(user_id, d)
        single_key = (user_id, d)
        mirror_factor = (c - 1) + stake_power(stake - c + 1, d)
        if single_key in self._singles:
            mirror = self.engine.payoffs(
                [c], [mirror_factor], rival_factors,
                total_reward=self.config.total_reward,
            )[0]
            return self._singles[single_key], float(mirror)
        single, mirror = self.engine.payoffs(
            [1, c],
            [stake_power(stake, d), mirror_factor],
            rival_factors,
            total_reward=self.config.total_reward,
        )
        self._singles[single_key] = float(single)
        return float(single), float(mirror)

    def _mc_pair(self, user_id: int, c: int, d: float,
                 grid_index: int) -> tuple[float, float, float]:
        stake = self.config.user(user_id).total_stake
        results = []
        for side, strategy in enumerate(
            (Strategy.single(stake), Strategy.concentrated(stake, c))
        ):
            seed = np.random.SeedSequence(
                self.settings.seed, spawn_key=(grid_index, user_id, c, side)
            ).generate_state(1)[0]
            results.append(
                expected_payoff_mc(
                    PayoffQuery(self.config, user_id, strategy, d),
                    samples=self.settings.mc_samples,
                    seed=int(seed),
                )
            )
        single, mirror = results
        margin = self.settings.mc_margin * math.hypot(single.std_error, mirror.std_error)
        return single.value, mirror.value, margin

    def check(self, user_id: int, c: int, d: float, grid_index: int) -> NashCheck:
        if self.exact:
            single, mirror = self._exact_pair(user_id, c, d)
            return NashCheck(user_id, c, single, mirror)
        single, mirror, margin = self._mc_pair(user_id, c, d, grid_index)
        if mirror > single and mirror <= single + margin:
            # within sampling noise: count as holding to avoid inflating d
            mirror = single
        return NashCheck(user_id, c, single, mirror)


def _deviations(config: SystemConfig) -> list[tuple[int, int]]:
    return [
        (u.user_id, c)
        for u in sorted(config.users, key=lambda u: u.user_id)
        for c in range(2, u.total_stake + 1)
    ]


def verify_nash(
    config: SystemConfig,
    d: float,
    settings: SolverSettings | None = None,
) -> NashCertificate:
    """Check every unilateral mirroring deviation at a given exponent."""
    require_valid(config)
    if d < 1.0:
        raise ValueError(f"exponent must be >= 1, got {d!r}")
    settings = settings or SolverSettings()
    evaluator = _CheckEvaluator(config, settings)
    checks = tuple(
        evaluator.check(user_id, c, d, grid_index=0)
        for user_id, c in _deviations(config)
    )
    return NashCertificate(d=d, checks=checks, satisfied=all(c.holds for c in checks))


def find_d_opt(
    config: SystemConfig,
    settings: SolverSettings | None = None,
    diagnostics: dict | None = None,
) -> tuple[float, NashCertificate]:
    """Smallest grid exponent at which no unilateral mirroring deviation pays.

    Returns that exponent and the certificate of all checks evaluated there.
    `diagnostics`, when given, is filled with every evaluation, the grid
    points visited, and any pass-then-fail reversals observed for a single
    (user, oracle count) pair across increasing d.
    """
    settings = settings or SolverSettings()
    require_valid(config)
    deviations = _deviations(config)
    evaluations: list[dict] = []
    history: dict[tuple[int, int], list[tuple[float, bool]]] = {}

    def _finish(d: float, certificate: NashCertificate):
        if diagnostics is not None:
            diagnostics["evaluations"] = evaluations
            diagnostics["grid_points"] = round((d - settings.starting_d) / settings.epsilon) + 1
            diagnostics["reversals"] = _reversals(history)
        return d, certificate

    if not deviations:
        # nobody can afford a second oracle: the condition holds vacuously
        return _finish(
            settings.starting_d,
            NashCertificate(d=settings.starting_d, checks=(), satisfied=True),
        )

    evaluator = _CheckEvaluator(config, settings)
    warm: tuple[int, int] | None = None
    index = 0
    while True:
        d = settings.starting_d + index * settings.epsilon
        if d > settings.d_max + 1e-12:
            last_d = settings.starting_d + (index - 1) * settings.epsilon
            full = verify_nash(config, last_d, settings)
            raise DMaxExceededError(settings.d_max, full.tightest_violation())
        order = deviations
        if warm in deviations:
            order = [warm] + [pair for pair in deviations if pair != warm]
        results: dict[tuple[int, int], NashCheck] = {}
        violation = None
        for user_id, c in order:
            check = evaluator.check(user_id, c, d, grid_index=index)
            results[(user_id, c)] = check
            history.setdefault((user_id, c), []).append((d, check.holds))
            evaluations.append(
                {
                    "d": d,
                    "n": user_id,
                    "c": c,
                    "payoff_single": check.payoff_single,
                    "payoff_mirror": check.payoff_mirror,
                    "holds": check.holds,
                }
            )
            if not check.holds:
                violation = (user_id, c)
                if settings.fail_fast:
                    break
        if violation is None:
            checks = tuple(results[pair] for pair in deviations)
            return _finish(d, NashCertificate(d=d, checks=checks, satisfied=True))
        warm = violation
        index += 1


def _reversals(history: dict) -> list[dict]:
    out = []
    for (user_id, c), entries in sorted(history.items()):
        passed_at = None
        for d, holds in entries:
            if holds and passed_at is None:
                passed_at = d
            elif not holds and passed_at is not None:
                out.append({"n": user_id, "c": c, "held_at": passed_at, "failed_at": d})
                passed_at = None
    return out


def find_d_opt_from_oracle_stakes(
    oracle_stakes: Sequence[int],
    confusion: ConfusionMatrix,
    num_classes: int,
    settings: SolverSettings | None = None,
    prior: ClassPrior | None = None,
    total_reward: float = 1.0,
    diagnostics: dict | None = None,
) -> tuple[float, NashCertificate]:
    """Run the exponent search on observed per-oracle stakes.

    The ledger of a data-feed contract sees stakes per oracle, not per user;
    treating each oracle as a user is enough: when every user really does run
    one oracle the inputs coincide and the result is identical.
    """
    stakes = [int(s) for s in oracle_stakes]
    synthetic = SystemConfig(
        num_classes=num_classes,
        confusion=confusion,
        users=tuple(
            UserProfile(user_id=i + 1, total_stake=s) for i, s in enumerate(stakes)
        ),
        prior=prior,
        total_reward=total_reward,
    )
    return find_d_opt(synthetic, settings, diagnostics=diagnostics)
