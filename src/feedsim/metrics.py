"""System error rate and (oracle count, exponent) sweep experiments.

The error rate is the probability that the majority output differs from the
true class, with ties integrated analytically. It depends on vote counts
only, never on the reward exponent, so a sweep computes it once per oracle
count and repeats it across exponents. Sweeps emit fixed-schema CSV rows
ordered by (d, c), written atomically so a failed run never leaves a partial
file behind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import _montecarlo
from .constants import DEFAULT_MC_SAMPLES, DEFAULT_SEED
from .enumeration import DEFAULT_BUDGET, ExactEnumerator
from .model import (
    ConfigFormatError,
    Strategy,
    SystemConfig,
    require_valid,
    resolve_strategies,
    write_text_atomic,
)
from .payoff import (
    EXACT,
    MONTE_CARLO,
    PayoffQuery,
    concentrated_payoffs,
    expected_payoff_mc,
    optimal_allocation,
)

CSV_HEADER = "c,d,expected_payoff,payoff_stderr,error_rate,error_stderr"


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep: the focal user's oracle counts crossed with exponents."""

    config: SystemConfig
    focal_user: int
    c_values: tuple[int, ...]
    d_values: tuple[float, ...]
    method: str = EXACT
    samples: int = DEFAULT_MC_SAMPLES
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        require_valid(self.config)
        for key, convert in (("c_values", int), ("d_values", float)):
            try:
                values = tuple(convert(v) for v in getattr(self, key))
            except (TypeError, ValueError) as exc:
                raise ConfigFormatError(f"experiment {key} must be a list of numbers") from exc
            object.__setattr__(self, key, values)
        if not self.c_values or not self.d_values:
            raise ValueError("c_values and d_values must be non-empty")
        _check_focal_user(self.focal_user)
        stake = self.config.user(self.focal_user).total_stake
        for c in self.c_values:
            if not 1 <= c <= stake:
                raise ValueError(
                    f"c={c} infeasible for user {self.focal_user} with stake {stake}"
                )
        for d in self.d_values:
            if d < 1.0:
                raise ValueError(f"exponent must be >= 1, got {d!r}")
        if self.method not in (EXACT, MONTE_CARLO):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class SweepRow:
    c: int
    d: float
    expected_payoff: float
    payoff_stderr: float
    error_rate: float
    error_stderr: float


def _exact_error_rates(
    config: SystemConfig,
    focal_user: int,
    focal_counts: Sequence[int],
    strategies: Mapping[int, Strategy],
    budget: int,
) -> np.ndarray:
    """Error rate for each focal oracle count from one engine."""
    rival_mults = [s.oracle_count for m, s in strategies.items() if m != focal_user]
    engine = ExactEnumerator(
        config.confusion.entries, config.prior.probabilities, rival_mults
    )
    engine.check_budget(budget)
    return engine.error_rates(focal_counts)


def error_rate_exact(
    config: SystemConfig,
    strategies: Mapping[int, Strategy] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> float:
    """Exact probability that the decided output differs from the truth.

    Independent of the reward exponent: only oracle counts matter.
    """
    require_valid(config)
    resolved = resolve_strategies(config, strategies)
    # any user with the most oracles leaves the same rivals: user order cannot matter
    focal = max(resolved, key=lambda u: resolved[u].oracle_count)
    counts = [resolved[focal].oracle_count]
    return float(_exact_error_rates(config, focal, counts, resolved, budget)[0])


def error_rate_mc(
    config: SystemConfig,
    strategies: Mapping[int, Strategy] | None = None,
    samples: int = DEFAULT_MC_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> tuple[float, float]:
    """Sampled estimate of the error rate with its standard error."""
    require_valid(config)
    resolved = resolve_strategies(config, strategies)
    return _montecarlo.error_rate_mc_core(
        config.confusion.entries,
        config.prior.probabilities,
        [s.oracle_count for s in resolved.values()],
        samples,
        seed,
    )


def run_experiment(
    spec: ExperimentSpec,
    budget: int = DEFAULT_BUDGET,
) -> list[SweepRow]:
    """Evaluate payoff and error rate over the (c, d) grid of a spec.

    The focal user plays the concentrated allocation at each c; everyone else
    runs a single full-stake oracle. Rows are ordered by (d, c). Error rates
    are computed once per c and reused across d. Deterministic for a fixed
    seed.
    """
    config = spec.config
    stake = config.user(spec.focal_user).total_stake
    counts = list(spec.c_values)
    if spec.method == EXACT:
        # one engine query answers every d of the sweep
        values = concentrated_payoffs(config, spec.focal_user, spec.d_values, counts, budget)
        error_by_c = dict(zip(counts, _exact_error_rates(
            config, spec.focal_user, counts, config.default_strategies(), budget
        )))
        error_stderr_by_c = {c: 0.0 for c in counts}
        payoff_cell = {
            (c, d): (value, 0.0)
            for d, row in zip(spec.d_values, values.tolist())
            for c, value in zip(counts, row)
        }
    else:
        error_by_c = {}
        error_stderr_by_c = {}
        for ci, c in enumerate(counts):
            err_seed = np.random.SeedSequence(
                spec.seed, spawn_key=(0, ci)
            ).generate_state(1)[0]
            err, err_se = error_rate_mc(
                config,
                {spec.focal_user: optimal_allocation(stake, c)},
                samples=spec.samples,
                seed=int(err_seed),
            )
            error_by_c[c] = err
            error_stderr_by_c[c] = err_se
        payoff_cell = {}
        for di, d in enumerate(spec.d_values):
            for ci, c in enumerate(counts):
                pay_seed = np.random.SeedSequence(
                    spec.seed, spawn_key=(1, di, ci)
                ).generate_state(1)[0]
                est = expected_payoff_mc(
                    PayoffQuery(config, spec.focal_user, optimal_allocation(stake, c), d),
                    samples=spec.samples,
                    seed=int(pay_seed),
                )
                payoff_cell[(c, d)] = (est.value, est.std_error)
    rows = []
    for d in spec.d_values:
        for c in counts:
            value, stderr = payoff_cell[(c, d)]
            rows.append(
                SweepRow(
                    c=c,
                    d=d,
                    expected_payoff=value,
                    payoff_stderr=stderr,
                    error_rate=float(error_by_c[c]),
                    error_stderr=float(error_stderr_by_c[c]),
                )
            )
    return rows


def _format(value: float) -> str:
    return f"{value:.12g}"


def sweep_rows_to_csv(rows: Sequence[SweepRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [
                    str(r.c),
                    _format(r.d),
                    _format(r.expected_payoff),
                    _format(r.payoff_stderr),
                    _format(r.error_rate),
                    _format(r.error_stderr),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def write_sweep_csv(rows: Sequence[SweepRow], path) -> None:
    """Write the fixed-schema sweep CSV atomically."""
    write_text_atomic(path, sweep_rows_to_csv(rows))


def experiment_from_dict(
    config: SystemConfig, section: Mapping | None, **overrides
) -> ExperimentSpec:
    """Build a spec from a config document's `experiment` section plus overrides.

    A section that is not an object, value lists that are not sequences of
    numbers, or a sample count or seed that is not an integer raise
    ConfigFormatError naming the field."""
    if not isinstance(section, (Mapping, type(None))):
        raise ConfigFormatError("experiment must be a JSON object")
    section = dict(section or {})
    section.update({k: v for k, v in overrides.items() if v is not None})
    for key in ("c_values", "d_values"):
        # the spec would read a string's characters or an object's keys
        if isinstance(section.get(key), (str, Mapping)):
            raise ConfigFormatError(f"experiment {key} must be a list of numbers")
    focal = section.get("focal_user", config.users[0].user_id)
    _check_focal_user(focal)
    stake = config.user(focal).total_stake
    method = section.get("method", EXACT)
    return ExperimentSpec(
        config=config,
        focal_user=focal,
        c_values=section.get("c_values", range(1, stake + 1)),
        d_values=section.get("d_values", [1.0]),
        method=MONTE_CARLO if method == "mc" else method,
        samples=_field(section, "samples", DEFAULT_MC_SAMPLES, int, "an integer"),
        seed=_field(section, "seed", DEFAULT_SEED, int, "an integer"),
    )


def _check_focal_user(focal) -> None:
    """Only an int names a user: "1" matches no id, True and 1.0 match user 1."""
    if not isinstance(focal, int) or isinstance(focal, bool):
        raise ConfigFormatError(f"experiment focal_user must be an integer, got {focal!r}")


def _field(section: Mapping, key: str, default, convert, what: str):
    """`convert` of the field's value; a value it cannot take raises
    ConfigFormatError."""
    try:
        return convert(section.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ConfigFormatError(f"experiment {key} must be {what}") from exc
