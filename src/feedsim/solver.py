"""Grid search for the smallest exponent making single-oracle play a Nash equilibrium.

Row i of the gap matrix holds mirror - single payoff for every deviation
(user n running c >= 2 oracles while everyone else runs one) at the grid
value round(start + i * eps, 12). The answer is the first row whose gaps are
all <= 0, so it is minimal on the grid. A deviation's payoffs depend only on
the user's stake and the rivals' stakes, so on both routes the lowest-id user
of a stake answers for every user of that stake; `_Row` alone expands a row's
answers to users. Exactly, rows come in blocks: one engine call per distinct
stake covers all its oracle counts at every exponent of the block. Once the
engine refuses a block as over its cell budget, each distinct (stake, c) of a
row is two Monte Carlo runs of `DEFAULT_MC_SAMPLES` rounds from
`DEFAULT_SEED`, and sampled rows go one at a time, starting from the last
violation seen and stopping at the first. `_Gaps.rows` alone routes rows:
`verify_nash` is the search's one-row case, over the grid {d}.

A variant accepts the observed per-oracle stake vector in place of the
(unobservable) per-user staking powers; when every user actually runs one
oracle the two inputs coincide and the outputs are identical.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ._montecarlo import spawn_seed
from .constants import DEFAULT_MC_SAMPLES, DEFAULT_SEED
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
_MC_MARGIN = 4.0  # stderr multiples before a sampled check counts as violated


@dataclass(frozen=True)
class SolverSettings:
    """The exponent grid: round(starting_d + i * epsilon, 12) for i = 0, 1, ...
    up to d_max."""

    epsilon: float = 0.01
    d_max: float = 16.0
    starting_d: float = 1.0

    def __post_init__(self):
        # grid values are rounded to 12 decimals, so a finer step repeats rows
        if not (math.isfinite(self.epsilon) and self.epsilon >= _MIN_EPSILON):
            raise ValueError(f"epsilon must be at least {_MIN_EPSILON}, got {self.epsilon!r}")
        if not (self.d_max > self.starting_d):
            raise ValueError("d_max must exceed starting_d")
        if self.starting_d < 1.0:
            raise ValueError("starting_d must be >= 1")

    def grid_d(self, index: int) -> float | None:
        """Row `index`'s exponent, or None past d_max."""
        d = round(self.starting_d + index * self.epsilon, _GRID_DECIMALS)
        return d if d <= self.d_max + 1e-12 else None


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
    """One grid row: the (single, mirror) payoffs of each answer evaluated,
    and the map from every deviation to its answer, in certificate order."""

    d: float
    answers: dict[tuple[int, int], tuple[float, float]]
    deviations: dict[tuple[int, int], tuple[int, int]]

    @property
    def satisfied(self) -> bool:
        return all(mirror <= single for single, mirror in self.answers.values())

    def items(self):
        """Each deviation whose answer the row holds, with its payoffs, in certificate
        order; a sampled row that stopped early lacks the answers it did not reach."""
        payoffs = map(self.answers.get, self.deviations.values())
        return filter(itemgetter(1), zip(self.deviations, payoffs))

    def certificate(self) -> NashCertificate:
        checks = tuple(NashCheck(n, c, *payoffs) for (n, c), payoffs in self.items())
        return NashCertificate(d=self.d, checks=checks, satisfied=self.satisfied)


class _Gaps:
    """Rows of the gap matrix: both sides of every deviation check at each
    grid exponent. Rivals run single full-stake oracles, so every focal user
    shares one engine, the config's own, and users of equal stake face the
    same rival multiset: the lowest-id one answers for all of them."""

    def __init__(self, config: SystemConfig):
        self.config = config
        self.engine = single_oracle_rivals(config)
        self.deviations = {}  # (user, c), in certificate order -> the (user, c) answering it
        leaders = {}
        for u in sorted(config.users, key=lambda u: u.user_id):
            leader = leaders.setdefault(u.total_stake, u.user_id)
            for c in u.oracle_counts()[1:]:
                self.deviations[u.user_id, c] = (leader, c)

    def exact_rows(self, ds: Sequence[float]):
        """The (single, mirror) payoffs of every answer at each exponent in
        `ds` in turn, from one engine call per answering user. The block ends
        before the first exponent at which a stake factor overflows, so only a
        row the search reaches can raise.
        """
        # ids run 1..N, so user n's stake is stakes[n - 1]
        stakes = [u.total_stake for u in sorted(self.config.users, key=lambda u: u.user_id)]
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
        for n in sorted({n for n, _ in self.deviations.values()}):
            stake = stakes[n - 1]
            tables[n] = _concentrated(self.engine, stake, np.arange(1, stake + 1),
                                      stakes[:n - 1] + stakes[n:],
                                      lambda s: power[:, np.array(s, dtype=np.int64) - 1],
                                      self.config.total_reward).tolist()
        answers = [(n, c) for n in tables for c in range(2, stakes[n - 1] + 1)]
        return [dict(zip(answers, [(payoffs[0], mirror)
                                   for payoffs in (t[row] for t in tables.values())
                                   for mirror in payoffs[1:]]))
                for row in range(len(power))]

    def mc_check(self, user_id: int, c: int, d: float, grid_index: int) -> tuple[float, float]:
        """Sampled (single, mirror) payoffs of one deviation."""
        stake = self.config.user(user_id).total_stake
        single, mirror = (
            expected_payoff_mc(PayoffQuery(self.config, user_id, strategy, d),
                               samples=DEFAULT_MC_SAMPLES,
                               seed=spawn_seed(DEFAULT_SEED, grid_index, user_id, c, side))
            for side, strategy in enumerate(
                (Strategy.single(stake), Strategy.concentrated(stake, c))))
        margin = _MC_MARGIN * math.hypot(single.std_error, mirror.std_error)
        if single.value < mirror.value <= single.value + margin:
            # within sampling noise: count as holding to avoid inflating d
            return single.value, single.value
        return single.value, mirror.value

    def rows(self, grid: Callable[[int], float | None]):
        """Each row of `grid`, which maps a row index to its exponent and
        reads None past the last row, in turn.

        Rows are exact until the engine refuses a block, then sampled. A
        sampled row starts from the last violation seen and ends at its
        first violation; the last grid row is always complete, so an
        exhausted search can name its tightest violation.
        """
        index = 0
        while ds := [d for d in map(grid, range(index, index + _BLOCK_ROWS))
                     if d is not None]:
            try:
                block = self.exact_rows(ds)
            except EnumerationBudgetError:
                break
            for d, answers in zip(ds, block):
                index += 1
                yield _Row(d, answers, self.deviations)
        warm = None
        distinct = dict.fromkeys(self.deviations.values())
        for index in itertools.count(index):
            d = grid(index)
            if d is None:
                return
            more_rows = grid(index + 1) is not None
            answers = {}
            for pair in sorted(distinct, key=lambda pair: pair != warm):
                single, mirror = answers[pair] = self.mc_check(*pair, d, index)
                if mirror > single:
                    warm = pair
                    if more_rows:
                        break
            yield _Row(d, answers, self.deviations)


def verify_nash(config: SystemConfig, d: float) -> NashCertificate:
    """Check every unilateral mirroring deviation at a given exponent: the
    search's one-row case, whose only row is complete."""
    if d < 1.0:
        raise ValueError(f"exponent must be >= 1, got {d!r}")
    return next(_Gaps(config).rows(lambda index: None if index else d)).certificate()


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
    visited = []  # kept only for diagnostics
    # with no user able to afford a second oracle, the first row holds vacuously
    for row in _Gaps(config).rows(settings.grid_d):
        if diagnostics is not None:
            visited.append(row)
        if row.satisfied:
            break
    else:
        raise DMaxExceededError(settings.d_max, row.certificate().tightest_violation())
    if diagnostics is not None:
        evaluations = [
            {"d": r.d, "n": n, "c": c, "payoff_single": single, "payoff_mirror": mirror,
             "holds": mirror <= single}
            for r in visited for (n, c), (single, mirror) in r.items()
        ]
        diagnostics["evaluations"] = evaluations
        diagnostics["grid_points"] = len(visited)
        diagnostics["reversals"] = _reversals(evaluations)
    return row.d, row.certificate()


def _reversals(evaluations: list[dict]) -> list[dict]:
    """Each (user, c) that held at one grid row and failed at a later one."""
    held_at, out = {}, []
    for e in evaluations:
        pair = (e["n"], e["c"])
        if e["holds"]:
            held_at.setdefault(pair, e["d"])
        elif pair in held_at:
            out.append({"n": e["n"], "c": e["c"], "held_at": held_at.pop(pair),
                        "failed_at": e["d"]})
    return sorted(out, key=lambda r: (r["n"], r["c"]))


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
