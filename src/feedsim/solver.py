"""Grid search for the smallest exponent making single-oracle play a Nash equilibrium.

Row i of the gap matrix holds mirror - single payoff for every deviation
(user n running c >= 2 oracles while everyone else runs one) at the grid
value round(start + i * eps, 12). The answer is the first row whose gaps are
all <= 0, so it is minimal on the grid. Exactly, rows come in blocks: one
engine call per distinct stake, largest first, covers all oracle counts of
every user with that stake at every exponent of the block, and the
certificate, evaluations, grid points and reversals are read off those rows.
With the engine's canonical group order, the lowest-id user of a stake only
sets the call count: any user of that stake gets the same payoffs.
Once the engine refuses a block as over its cell budget, each check is two
Monte Carlo runs, and sampled rows go one at a time, starting from the last
violation seen and stopping at the first.

A variant accepts the observed per-oracle stake vector in place of the
(unobservable) per-user staking powers; when every user actually runs one
oracle the two inputs coincide and the outputs are identical.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ._montecarlo import spawn_seed
from .constants import DEFAULT_SEED
from .enumeration import EnumerationBudgetError
from .incentive import stake_power
from .model import (
    ClassPrior,
    ConfusionMatrix,
    Strategy,
    SystemConfig,
    UserProfile,
)
from .payoff import PayoffQuery, _concentrated, expected_payoff_mc, single_oracle_rivals

_TIGHTNESS_TOL = 1e-12
_BLOCK_ROWS = 16  # grid rows per engine call on the exact path
_GRID_DECIMALS = 12
_MIN_EPSILON = 10.0 ** -_GRID_DECIMALS


@dataclass(frozen=True)
class SolverSettings:
    """Grid parameters and evaluation policy for the exponent search."""

    epsilon: float = 0.01
    d_max: float = 16.0
    starting_d: float = 1.0
    mc_samples: int = 1_000_000
    mc_margin: float = 4.0            # stderr multiples before a sampled check counts as violated
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        # grid values are rounded to 12 decimals, so a finer step repeats rows
        if not (math.isfinite(self.epsilon) and self.epsilon >= _MIN_EPSILON):
            raise ValueError(f"epsilon must be at least {_MIN_EPSILON}, got {self.epsilon!r}")
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

    def to_dict(self) -> dict:
        return {"n": self.user_id, "c": self.oracle_count,
                "payoff_single": self.payoff_single, "payoff_mirror": self.payoff_mirror}


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
            "checks": [c.to_dict() for c in self.checks],
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


class _Row(NamedTuple):
    """One grid row: the (user, c) pairs evaluated, in deviation order, with
    the (single, mirror) payoffs of each."""

    d: float
    pairs: Sequence[tuple[int, int]]
    values: Sequence[tuple[float, float]]

    @property
    def satisfied(self) -> bool:
        return all(mirror <= single for single, mirror in self.values)

    def checks(self) -> tuple[NashCheck, ...]:
        return tuple(NashCheck(n, c, single, mirror)
                     for (n, c), (single, mirror) in zip(self.pairs, self.values))


class _Gaps:
    """Rows of the gap matrix: both sides of every deviation check at each
    grid exponent. Rivals run single full-stake oracles, so every focal user
    shares one engine, the config's own."""

    def __init__(self, config: SystemConfig, settings: SolverSettings):
        self.config = config
        self.settings = settings
        self.users = sorted(config.users, key=lambda u: u.user_id)
        self.deviations = [
            (u.user_id, c) for u in self.users for c in u.oracle_counts()[1:]
        ]
        self.engine = single_oracle_rivals(config)

    def grid_d(self, index: int) -> float | None:
        """Row `index`'s exponent, or None past d_max."""
        d = round(self.settings.starting_d + index * self.settings.epsilon, _GRID_DECIMALS)
        return d if d <= self.settings.d_max + 1e-12 else None

    def exact_rows(self, ds: Sequence[float]):
        """The (single, mirror) payoffs of every deviation at each exponent in
        `ds` in turn, from one engine call per distinct stake.

        Users of equal stake face the same rival multiset, so the lowest-id
        one answers for all of them. The largest stake goes first: its call
        builds the win tables of every count the later calls read. The block
        ends before the first exponent at which a stake factor overflows, so
        only a row the search reaches can raise.
        """
        stakes = [u.total_stake for u in self.users]
        power = []
        for d in ds:
            try:
                power.append([stake_power(s, d) for s in range(1, max(stakes) + 1)])
            except OverflowError:
                if not power:
                    raise
                break
        power = np.array(power)
        tables = {}
        for stake in sorted({s for s in stakes if s >= 2}, reverse=True):
            i = stakes.index(stake)
            tables[stake] = _concentrated(self.engine, stake, np.arange(1, stake + 1),
                                          stakes[:i] + stakes[i + 1:],
                                          lambda s: power[:, np.array(s, dtype=np.int64) - 1],
                                          self.config.total_reward).tolist()
        per_user = [tables[s] for s in stakes if s >= 2]
        return [[(payoffs[0], mirror) for payoffs in (t[row] for t in per_user)
                 for mirror in payoffs[1:]] for row in range(len(power))]

    def mc_check(self, user_id: int, c: int, d: float, grid_index: int) -> tuple[float, float]:
        """Sampled (single, mirror) payoffs of one deviation."""
        stake = self.config.user(user_id).total_stake
        results = []
        for side, strategy in enumerate(
            (Strategy.single(stake), Strategy.concentrated(stake, c))
        ):
            results.append(
                expected_payoff_mc(
                    PayoffQuery(self.config, user_id, strategy, d),
                    samples=self.settings.mc_samples,
                    seed=spawn_seed(self.settings.seed, grid_index, user_id, c, side),
                )
            )
        single, mirror = results
        margin = self.settings.mc_margin * math.hypot(single.std_error, mirror.std_error)
        if single.value < mirror.value <= single.value + margin:
            # within sampling noise: count as holding to avoid inflating d
            return single.value, single.value
        return single.value, mirror.value

    def rows(self):
        """Each grid row up to d_max in turn.

        Rows are exact until the engine refuses a block, then sampled. A
        sampled row starts from the last violation seen and ends at its
        first violation; the last grid row is always complete, so an
        exhausted search can name its tightest violation.
        """
        index = 0
        while ds := [d for d in map(self.grid_d, range(index, index + _BLOCK_ROWS))
                     if d is not None]:
            try:
                block = self.exact_rows(ds)
            except EnumerationBudgetError:
                break
            for d, values in zip(ds, block):
                index += 1
                yield _Row(d, self.deviations, values)
        warm = None
        for index in itertools.count(index):
            d = self.grid_d(index)
            if d is None:
                return
            more_rows = self.grid_d(index + 1) is not None
            checks = {}
            for pair in sorted(self.deviations, key=lambda pair: pair != warm):
                single, mirror = checks[pair] = self.mc_check(*pair, d, index)
                if mirror > single:
                    warm = pair
                    if more_rows:
                        break
            pairs = [pair for pair in self.deviations if pair in checks]
            yield _Row(d, pairs, [checks[pair] for pair in pairs])


def verify_nash(
    config: SystemConfig,
    d: float,
    settings: SolverSettings | None = None,
) -> NashCertificate:
    """Check every unilateral mirroring deviation at a given exponent."""
    if d < 1.0:
        raise ValueError(f"exponent must be >= 1, got {d!r}")
    gaps = _Gaps(config, settings or SolverSettings())
    try:
        values = gaps.exact_rows([d])[0]
    except EnumerationBudgetError:
        values = [gaps.mc_check(n, c, d, 0) for n, c in gaps.deviations]
    row = _Row(d, gaps.deviations, values)
    return NashCertificate(d=d, checks=row.checks(), satisfied=row.satisfied)


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
    visited = []  # kept only for diagnostics: a row holds every deviation's payoffs
    # with no user able to afford a second oracle, the first row holds vacuously
    for row in _Gaps(config, settings).rows():
        if diagnostics is not None:
            visited.append(row)
        if row.satisfied:
            break
    else:
        last = NashCertificate(d=row.d, checks=row.checks(), satisfied=False)
        raise DMaxExceededError(settings.d_max, last.tightest_violation())
    if diagnostics is not None:
        evaluations = [
            {"d": r.d, "n": n, "c": c, "payoff_single": single, "payoff_mirror": mirror,
             "holds": mirror <= single}
            for r in visited for (n, c), (single, mirror) in zip(r.pairs, r.values)
        ]
        diagnostics["evaluations"] = evaluations
        diagnostics["grid_points"] = len(visited)
        diagnostics["reversals"] = _reversals(evaluations)
    return row.d, NashCertificate(d=row.d, checks=row.checks(), satisfied=True)


def _reversals(evaluations: list[dict]) -> list[dict]:
    """Each (user, c) that held at one grid row and failed at a later one."""
    history: dict[tuple[int, int], list[tuple[float, bool]]] = {}
    for e in evaluations:
        history.setdefault((e["n"], e["c"]), []).append((e["d"], e["holds"]))
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
