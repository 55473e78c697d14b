"""System error rate and (oracle count, exponent) sweep experiments.

The error rate is the probability that the majority output differs from the
true class, with ties integrated analytically. It depends on vote counts
only, never on the reward exponent, so a sweep computes it once per oracle
count and repeats it across exponents. Sweeps emit fixed-schema CSV rows
ordered by (d, c), written atomically so a failed run never leaves a partial
file behind. `ExperimentSpec` is the one checker of a sweep's inputs: the CLI
and `experiment_from_dict` only gather them.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
from functools import partial
from numbers import Integral, Real
from typing import Mapping, Sequence

import numpy as np

from . import _montecarlo
from ._montecarlo import spawn_seed
from .constants import DEFAULT_MC_SAMPLES, DEFAULT_SEED
from .model import (
    ConfigFormatError,
    Strategy,
    SystemConfig,
    resolve_strategies,
    write_text_atomic,
)
from .payoff import (
    EXACT,
    PayoffQuery,
    concentrated_payoffs,
    engine_for,
    expected_payoff_mc,
    optimal_allocation,
    resolve_method,
)

CSV_HEADER = "c,d,expected_payoff,payoff_stderr,error_rate,error_stderr"


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep: the focal user's oracle counts crossed with exponents.

    The one place an experiment is converted and checked, before any work:
    `focal_user`, `samples`, `seed` and each c must be integers and each d a
    real number (bools are neither), else ConfigFormatError names the field;
    a c outside 1..stake, a d that is not finite or below 1, `samples` below
    1, a negative `seed` or an unknown method raise ValueError. `c_values`
    defaults to every count 1..stake (`UserProfile.oracle_counts`, which
    refuses a stake too large to list) and `method` accepts any `METHODS`
    alias. A `range` of counts is checked before it is listed, so a range far
    wider than the stake stops at its first infeasible count.
    """

    config: SystemConfig
    focal_user: int
    c_values: Sequence[int] | None = None
    d_values: Sequence[float] = (1.0,)
    method: str = EXACT
    samples: int = DEFAULT_MC_SAMPLES
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        put = partial(object.__setattr__, self)
        put("focal_user", _number(self.focal_user, "focal_user", Integral))
        if not isinstance(self.c_values, (range, type(None))):
            put("c_values", _numbers(self.c_values, "c_values", Integral))
        put("d_values", _numbers(self.d_values, "d_values", Real))
        put("samples", _number(self.samples, "samples", Integral))
        put("seed", _number(self.seed, "seed", Integral))
        user = self.config.user(self.focal_user)
        stake = user.total_stake
        if self.c_values is None:
            put("c_values", user.oracle_counts())
        put("method", resolve_method(self.method))
        if not self.c_values or not self.d_values:
            raise ValueError("c_values and d_values must be non-empty")
        for c in self.c_values:
            if not 1 <= c <= stake:
                raise ValueError(f"c={c} infeasible for user {self.focal_user} with stake {stake}")
        put("c_values", tuple(self.c_values))
        for d in self.d_values:
            if not (math.isfinite(d) and d >= 1.0):
                raise ValueError(f"exponent d must be finite and >= 1, got {d!r}")
        if self.samples < 1:
            raise ValueError(f"experiment samples must be >= 1, got {self.samples}")
        if self.seed < 0:
            raise ValueError(f"experiment seed must be >= 0, got {self.seed}")


def _number(value, field: str, kind):
    """`value` as an int for `kind` Integral, or as a float for Real; any
    other kind, bool included, raises ConfigFormatError naming `field`."""
    if isinstance(value, kind) and not isinstance(value, bool):
        return int(value) if kind is Integral else float(value)
    what = "an integer" if kind is Integral else "a real number"
    raise ConfigFormatError(f"experiment {field} must be {what}, got {value!r}")


def _numbers(values, field: str, kind) -> tuple:
    """Each of `values` through `_number`; a value that is not a list raises
    ConfigFormatError naming `field`."""
    try:
        return tuple(_number(v, field + " entry", kind) for v in values)
    except TypeError:
        raise ConfigFormatError(f"experiment {field} must be a list, got {values!r}") from None


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
) -> np.ndarray:
    """Error rate for each focal oracle count from the config's engine for
    these rivals."""
    rival_mults = [s.oracle_count for m, s in strategies.items() if m != focal_user]
    return engine_for(config, rival_mults).error_rates(focal_counts)


def error_rate_exact(
    config: SystemConfig,
    strategies: Mapping[int, Strategy] | None = None,
) -> float:
    """Exact probability that the decided output differs from the truth.

    Independent of the reward exponent: only oracle counts matter.
    """
    resolved = resolve_strategies(config, strategies)
    # any user with the most oracles leaves the same rivals: user order cannot matter
    focal = max(resolved, key=lambda u: resolved[u].oracle_count)
    counts = [resolved[focal].oracle_count]
    return float(_exact_error_rates(config, focal, counts, resolved)[0])


def error_rate_mc(
    config: SystemConfig,
    strategies: Mapping[int, Strategy] | None = None,
    samples: int = DEFAULT_MC_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> tuple[float, float]:
    """Sampled estimate of the error rate with its standard error."""
    resolved = resolve_strategies(config, strategies)
    return _montecarlo.error_rate_mc_core(
        config.confusion.entries,
        config.prior.probabilities,
        [s.oracle_count for s in resolved.values()],
        samples,
        seed,
    )


def run_experiment(spec: ExperimentSpec) -> list[SweepRow]:
    """Evaluate payoff and error rate over the (c, d) grid of a spec.

    The focal user plays the concentrated allocation at each c; everyone else
    runs a single full-stake oracle. Rows are ordered by (d, c). Error rates
    are computed once per c and reused across d. Deterministic for a fixed
    seed.
    """
    config, focal, counts = spec.config, spec.focal_user, spec.c_values
    if spec.method == EXACT:
        # one engine query answers every d of the sweep
        values = concentrated_payoffs(config, focal, spec.d_values, counts)
        payoff = {(c, d): (value, 0.0) for d, row in zip(spec.d_values, values.tolist())
                  for c, value in zip(counts, row)}
        rates = _exact_error_rates(config, focal, counts, config.default_strategies())
        error = {c: (rate, 0.0) for c, rate in zip(counts, rates.tolist())}
    else:
        stake = config.user(focal).total_stake
        error = {c: error_rate_mc(config, {focal: optimal_allocation(stake, c)},
                                  samples=spec.samples, seed=spawn_seed(spec.seed, 0, ci))
                 for ci, c in enumerate(counts)}

        def sampled(c, d, key):
            estimate = expected_payoff_mc(
                PayoffQuery(config, focal, optimal_allocation(stake, c), d),
                samples=spec.samples, seed=spawn_seed(spec.seed, *key))
            return estimate.value, estimate.std_error

        payoff = {(c, d): sampled(c, d, (1, di, ci))
                  for di, d in enumerate(spec.d_values) for ci, c in enumerate(counts)}
    return [SweepRow(c, d, *payoff[c, d], *error[c]) for d in spec.d_values for c in counts]


def _format(value: float) -> str:
    return f"{value:.12g}"


def sweep_rows_to_csv(rows: Sequence[SweepRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join([str(r.c), *map(_format, astuple(r)[1:])]))
    return "\n".join(lines) + "\n"


def write_sweep_csv(rows: Sequence[SweepRow], path) -> None:
    """Write the fixed-schema sweep CSV atomically."""
    write_text_atomic(path, sweep_rows_to_csv(rows))


def experiment_from_dict(
    config: SystemConfig, section: Mapping | None, **overrides
) -> ExperimentSpec:
    """Build a spec from a config document's `experiment` section plus the
    overrides that are not None; the spec checks every value. A section that
    is not an object raises ConfigFormatError."""
    if not isinstance(section, (Mapping, type(None))):
        raise ConfigFormatError("experiment must be a JSON object")
    given = {"focal_user": config.users[0].user_id, **(section or {}),
             **{k: v for k, v in overrides.items() if v is not None}}
    names = {f.name for f in fields(ExperimentSpec)} - {"config"}
    return ExperimentSpec(config, **{k: v for k, v in given.items() if k in names})
