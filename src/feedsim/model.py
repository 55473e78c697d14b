"""Domain types for a majority-vote data-feed system.

Class labels are 1-based integers in [1, K]. The confusion matrix is
row-stochastic with rows indexed by the true class: ``entries[k-1, l-1]``
is the probability that an oracle reports class l when the truth is k.
Stakes are positive integers in units of the minimum stake (normalized
to 1), so oracle counts and stake splits live on an integer lattice.

Construction checks shapes and types. A :class:`SystemConfig` also checks
every numeric invariant (row sums, prior normalization, stake bounds) once,
when it is built, and raises :class:`InvalidConfigError` carrying a report of
every violation, not just the first: a config that exists is valid, and no
operation checks it again.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from ._montecarlo import _draw

PRIOR_TOL = 1e-9
ROW_SUM_TOL = 1e-6
MAX_ORACLE_COUNTS = 10**4  # the most counts a search or sweep lists for one user

#: 1-based class index in [1, K].
ClassLabel = int


class ConfigFormatError(ValueError):
    """A config document is structurally unreadable (bad JSON, shapes, types)."""


class InvalidConfigError(ValueError):
    """A structurally sound config violates domain invariants."""

    def __init__(self, report: "ValidationReport"):
        super().__init__("; ".join(report.violations))
        self.report = report


def _require_numbers(value, field: str) -> None:
    """Raise ConfigFormatError naming `field` unless `value` is a JSON number
    or nested lists of them; a bool, string or null is not a number."""
    stack = [value]
    while stack:
        entry = stack.pop()
        if isinstance(entry, list):
            stack.extend(entry)
        elif isinstance(entry, bool) or not isinstance(entry, (int, float)):
            raise ConfigFormatError(f"{field} must hold only numbers, got {entry!r}")


def _read_only(arr: np.ndarray) -> np.ndarray:
    """`arr` as a float64 copy that cannot be written: a config's arrays
    cannot change under the exact engines the config keeps."""
    arr = np.array(arr, dtype=np.float64)
    arr.setflags(write=False)
    return arr


def _as_float_vector(values, name: str) -> np.ndarray:
    try:
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim == 1:
            return arr
    except (TypeError, ValueError):
        pass
    raise ConfigFormatError(f"{name} must be a flat sequence of numbers")


@dataclass(frozen=True)
class ClassPrior:
    """Prior distribution of the true class; defaults to uniform. The
    probabilities are a read-only copy of the array given."""

    probabilities: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "probabilities", _read_only(_as_float_vector(self.probabilities, "prior"))
        )

    @classmethod
    def uniform(cls, num_classes: int) -> "ClassPrior":
        return cls(np.full(num_classes, 1.0 / num_classes))

    @property
    def num_classes(self) -> int:
        return self.probabilities.size

    def violations(self) -> list[str]:
        out = []
        if np.any(self.probabilities < 0) or not np.all(np.isfinite(self.probabilities)):
            out.append("prior has negative or non-finite entries")
        total = float(self.probabilities.sum())
        if abs(total - 1.0) > PRIOR_TOL:
            out.append(f"prior sums to {total!r} (expected 1 within {PRIOR_TOL:g})")
        return out


@dataclass(frozen=True)
class ConfusionMatrix:
    """Shared K x K report distribution: rows truth, columns reported class.
    The entries are a read-only copy of the array given."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ConfigFormatError("confusion matrix must be square and non-empty")
        object.__setattr__(self, "entries", _read_only(arr))

    @classmethod
    def identity(cls, num_classes: int) -> "ConfusionMatrix":
        return cls(np.eye(num_classes))

    @property
    def num_classes(self) -> int:
        return self.entries.shape[0]

    def row(self, truth: ClassLabel) -> np.ndarray:
        """Report distribution given true class `truth` (1-based)."""
        if not 1 <= truth <= self.num_classes:
            raise ValueError(f"truth index {truth} out of range [1, {self.num_classes}]")
        return self.entries[truth - 1]

    def is_weakly_accurate(self) -> bool:
        """True iff each diagonal entry strictly exceeds every other entry in its row."""
        e = self.entries
        diag = np.diag(e).copy()
        off = e.copy()
        np.fill_diagonal(off, -np.inf)
        return bool(np.all(diag > off.max(axis=1)))

    def renormalized(self) -> "ConfusionMatrix":
        """Rows rescaled to unit sum. Explicit opt-in; loading never renormalizes silently."""
        sums = self.entries.sum(axis=1, keepdims=True)
        if np.any(sums <= 0):
            raise ValueError("cannot renormalize a row with non-positive sum")
        return ConfusionMatrix(self.entries / sums)

    def violations(self) -> list[str]:
        out = []
        e = self.entries
        if np.any(e < 0) or np.any(e > 1) or not np.all(np.isfinite(e)):
            out.append("confusion matrix has entries outside [0, 1]")
        for k, total in enumerate(e.sum(axis=1), start=1):
            if abs(total - 1.0) > ROW_SUM_TOL:
                out.append(f"row {k} sums to {total:g} (expected 1 within {ROW_SUM_TOL:g})")
        return out


@dataclass(frozen=True)
class UserProfile:
    """A participant identified by a 1-based id with integer staking power."""

    user_id: int
    total_stake: int

    def violations(self) -> list[str]:
        out = []
        if not isinstance(self.user_id, int) or isinstance(self.user_id, bool):
            out.append(f"user id {self.user_id!r} is not an integer")
        stake = self.total_stake
        if not isinstance(stake, int) or isinstance(stake, bool):
            out.append(f"user {self.user_id}: stake {stake!r} is not an integer")
        elif stake < 1:
            out.append(f"user {self.user_id}: stake {stake} is below the minimum stake 1")
        return out

    def oracle_counts(self) -> range:
        """Every oracle count this user can run, 1..stake.

        A search or a sweep lists and evaluates each of them, so a stake over
        `MAX_ORACLE_COUNTS` raises ValueError before any list is built.
        """
        if self.total_stake > MAX_ORACLE_COUNTS:
            raise ValueError(
                f"user {self.user_id}: stake {self.total_stake} has more oracle counts "
                f"than the {MAX_ORACLE_COUNTS} a search or sweep can list"
            )
        return range(1, self.total_stake + 1)


@dataclass(frozen=True)
class Strategy:
    """How a user splits its stake across mirrored oracles.

    `allocation[i]` is the stake on oracle i; every oracle submits the same
    report. The canonical form concentrates everything above the per-oracle
    minimum on the first oracle: (s - c + 1, 1, ..., 1).
    """

    allocation: tuple[int, ...]

    def __post_init__(self):
        alloc = tuple(int(a) for a in self.allocation)
        if not alloc:
            raise ValueError("a strategy needs at least one oracle")
        if any(a < 1 for a in alloc):
            raise ValueError("every oracle must stake at least the minimum stake 1")
        object.__setattr__(self, "allocation", alloc)

    @classmethod
    def single(cls, total_stake: int) -> "Strategy":
        return cls((total_stake,))

    @classmethod
    def concentrated(cls, total_stake: int, oracle_count: int) -> "Strategy":
        if not 1 <= oracle_count <= total_stake:
            raise ValueError(
                f"oracle count {oracle_count} infeasible for stake {total_stake}"
            )
        return cls((total_stake - oracle_count + 1,) + (1,) * (oracle_count - 1))

    @property
    def oracle_count(self) -> int:
        return len(self.allocation)

    @property
    def total_staked(self) -> int:
        return sum(self.allocation)

    def canonical(self) -> "Strategy":
        """Concentrated strategy with the same oracle count and total stake."""
        return Strategy.concentrated(self.total_staked, self.oracle_count)

    def violations_for_stake(self, total_stake: int) -> list[str]:
        out = []
        if self.total_staked > total_stake:
            out.append(
                f"allocation {self.allocation} stakes {self.total_staked} "
                f"but the user only holds {total_stake}"
            )
        if self.oracle_count > total_stake:
            out.append(
                f"{self.oracle_count} oracles infeasible with stake {total_stake}"
            )
        return out


@dataclass(frozen=True)
class SystemConfig:
    """Full description of one data-feed network. Building it runs every
    domain check, kept as `report`, and raises InvalidConfigError if any fails."""

    num_classes: int
    confusion: ConfusionMatrix
    users: tuple[UserProfile, ...]
    prior: ClassPrior = None  # defaults to uniform over num_classes
    total_reward: float = 1.0
    report: ValidationReport = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "users", tuple(self.users))
        # a num_classes the matrix disagrees with is reported, never allocated
        if self.prior is None and self.num_classes == self.confusion.num_classes:
            object.__setattr__(self, "prior", ClassPrior.uniform(self.confusion.num_classes))
        object.__setattr__(self, "report", _check(self))
        require_valid(self)

    @property
    def num_users(self) -> int:
        return len(self.users)

    @property
    def stakes(self) -> tuple[int, ...]:
        return tuple(u.total_stake for u in self.users)

    def user(self, user_id: int) -> UserProfile:
        for u in self.users:
            if u.user_id == user_id:
                return u
        raise ValueError(f"no user with id {user_id!r}")

    def default_strategies(self) -> dict[int, Strategy]:
        """Everyone runs a single oracle carrying their full stake."""
        return {u.user_id: Strategy.single(u.total_stake) for u in self.users}

    @functools.cached_property
    def _engines(self) -> dict:
        """This config's exact engines by rival oracle counts. Only
        `payoff.engine_for` fills it, and an engine lives as long as its config."""
        return {}


def resolve_strategies(
    config: SystemConfig, overrides: Mapping[int, Strategy] | None = None
) -> dict[int, Strategy]:
    """Every user's strategy in config order: the defaults with `overrides`
    applied. Raises ValueError on an unknown user or an infeasible strategy."""
    strategies = config.default_strategies()
    for user_id, strategy in (overrides or {}).items():
        problems = strategy.violations_for_stake(config.user(user_id).total_stake)
        if problems:
            raise ValueError(f"user {user_id}: " + "; ".join(problems))
        strategies[user_id] = strategy
    return strategies


@dataclass(frozen=True)
class ValidationReport:
    """All invariant violations found, plus the weak-accuracy predicate."""

    violations: tuple[str, ...]
    weakly_accurate: bool

    @property
    def is_valid(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        lines = [f"violation: {v}" for v in self.violations]
        lines.append(f"valid: {'yes' if self.is_valid else 'no'}")
        lines.append(f"weakly accurate: {'yes' if self.weakly_accurate else 'no'}")
        return "\n".join(lines)


def _check(config: SystemConfig) -> ValidationReport:
    """Check every domain invariant and report all violations found."""
    out: list[str] = []
    k = config.num_classes
    if not isinstance(k, int) or k < 1:
        out.append(f"num_classes {k!r} must be a positive integer")
    if config.confusion.num_classes != k:
        out.append(
            f"confusion matrix is {config.confusion.num_classes}x"
            f"{config.confusion.num_classes} but num_classes is {k}"
        )
    prior = config.prior  # None when num_classes disagrees with the matrix
    if prior is not None and prior.num_classes != k:
        out.append(f"prior has {prior.num_classes} entries, expected {k}")
    out.extend(config.confusion.violations())
    out.extend(prior.violations() if prior is not None else ())
    if not config.users:
        out.append("config has no users")
    for u in config.users:
        out.extend(u.violations())
    ids = [u.user_id for u in config.users]
    # an id that is not an integer is reported above and may not sort or hash
    if all(isinstance(i, int) for i in ids):
        if len(set(ids)) != len(ids):
            out.append(f"user ids are not unique: {sorted(ids)}")
        elif config.users and sorted(ids) != list(range(1, len(ids) + 1)):
            out.append(f"user ids must be contiguous 1..{len(ids)}, got {sorted(ids)}")
    reward = config.total_reward
    if not (isinstance(reward, (int, float)) and 0 < reward < math.inf):
        out.append(f"total reward {reward!r} must be a positive finite number")
    elif reward > sys.float_info.max:  # an integer no float holds
        out.append(f"total reward is above the largest float {sys.float_info.max!r}")
    elif reward < sys.float_info.min:  # subnormal payoffs would round the solver's gaps away
        out.append(f"total reward {reward!r} is below the smallest normal float "
                   f"{sys.float_info.min!r}")
    return ValidationReport(tuple(out), config.confusion.is_weakly_accurate())


def validate_config(config: SystemConfig) -> ValidationReport:
    """The report of the check `config` passed when it was built."""
    return config.report


def require_valid(config: SystemConfig) -> None:
    """Raise InvalidConfigError unless `config`'s report is valid: building a
    config calls this, so one that exists always passes."""
    if not config.report.is_valid:
        raise InvalidConfigError(config.report)


def sample_report(
    confusion: ConfusionMatrix,
    truth: ClassLabel,
    rng: np.random.Generator,
    size: int | None = None,
):
    """Draw oracle reports for a given true class.

    Returns a single 1-based label, or an array of them when `size` is given.
    Deterministic for a given generator state; the draw is the Monte Carlo
    kernel's (`_montecarlo._draw`).
    """
    row = confusion.row(truth)
    if size is None:
        return int(_draw(row, rng.random())) + 1
    return _draw(row, rng.random(size)) + 1


# ---------------------------------------------------------------------------
# Config document I/O (JSON) and output files
# ---------------------------------------------------------------------------

def write_text_atomic(path, text: str) -> None:
    """Write `text` to a sibling temporary file, then rename it over `path`.

    Readers see the old file or the new one, never a partial write; if any
    step fails the temporary file is removed and `path` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_config_document(path) -> dict:
    """Parse a JSON config document, raising ConfigFormatError on unreadable input."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigFormatError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except ValueError as exc:  # such as an integer past Python's digit limit
        raise ConfigFormatError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigFormatError("config document must be a JSON object")
    return doc


def config_from_dict(doc: Mapping, renormalize: bool = False) -> SystemConfig:
    """Build a SystemConfig from a parsed document.

    Structural problems raise ConfigFormatError; numeric invariant violations
    are all reported together by the built config's InvalidConfigError.
    """
    try:
        num_classes = doc["num_classes"]
        confusion_rows = doc["confusion"]
        users_doc = doc["users"]
    except KeyError as exc:
        raise ConfigFormatError(f"config is missing required key {exc}") from exc
    if not isinstance(num_classes, int) or isinstance(num_classes, bool):
        raise ConfigFormatError("num_classes must be an integer")
    _require_numbers(confusion_rows, "confusion")
    try:
        confusion = ConfusionMatrix(confusion_rows)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigFormatError):
            raise
        raise ConfigFormatError(f"confusion matrix is malformed: {exc}") from exc
    if renormalize:
        confusion = confusion.renormalized()
    if not isinstance(users_doc, list):
        raise ConfigFormatError("users must be a list of {id, stake} objects")
    users = []
    for entry in users_doc:
        if not isinstance(entry, dict) or "id" not in entry or "stake" not in entry:
            raise ConfigFormatError(f"user entry {entry!r} needs 'id' and 'stake'")
        users.append(UserProfile(user_id=entry["id"], total_stake=entry["stake"]))
    prior = None
    if doc.get("prior") is not None:
        _require_numbers(doc["prior"], "prior")
        prior = ClassPrior(_as_float_vector(doc["prior"], "prior"))
    total_reward = doc.get("total_reward", 1.0)
    if not isinstance(total_reward, (int, float)) or isinstance(total_reward, bool):
        raise ConfigFormatError("total_reward must be a number")
    if abs(total_reward) <= sys.float_info.max:  # past it, kept for the check to report
        total_reward = float(total_reward)
    return SystemConfig(
        num_classes=num_classes,
        confusion=confusion,
        users=tuple(users),
        prior=prior,
        total_reward=total_reward,
    )


def load_config(path, renormalize: bool = False) -> SystemConfig:
    return config_from_dict(read_config_document(path), renormalize=renormalize)


def config_to_dict(config: SystemConfig) -> dict:
    return {
        "num_classes": config.num_classes,
        "prior": config.prior.probabilities.tolist(),
        "confusion": config.confusion.entries.tolist(),
        "users": [{"id": u.user_id, "stake": u.total_stake} for u in config.users],
        "total_reward": config.total_reward,
    }
