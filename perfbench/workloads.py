"""Workloads of the feedsim benchmark: seeded inputs, timed answers, reference gates.

Why each workload exists:

* ``amt10-exact`` -- the paper's headline computation on the bundled ten-user
  network: certify ``d_opt`` on the 0.01 grid and sweep the mirroring payoff
  and error rate of user 1 over c = 1..8 at d in {1, d_opt}. Nearly all of its
  time is exact-engine queries over 5^9 x 25 = 48.8 M terms each, so a faster
  exact engine or solver must show its gain here.
* ``amt10-sample`` -- Monte Carlo payoff and error rate (1e6 samples each) on
  the same network, then confusion-matrix ingest of 1e5 synthetic annotation
  records. It never touches the exact engine, so engine or solver work should
  leave it unchanged; its time is the sampling kernel and the CSV parser.
* ``small-networks`` -- many small random networks (4-7 users, 2-5 classes),
  each validated, solved for ``d_opt`` and given an exact error rate with two
  users mirroring. Per-network set-up and per-call overhead dominate, not
  kernel throughput, and every network misses the engine cache, so a change
  that buys amt10 speed with a bigger per-network table shows its cost here.

The full ``find_d_opt`` from d = 1 on amt10 takes about 150 s on a 2-core
machine, longer than one benchmark run may last. The ``solve`` operation
therefore starts the grid search at the reference ``d_opt`` and, to show the
answer is minimal, evaluates the deviation that still pays one grid step
below it. Both are checked against values frozen from the full search.
"""

from __future__ import annotations

import json
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
EXACT_TOL = 1e-12        # exact answers against frozen seed values
MC_SIGMAS = 3.0          # Monte Carlo estimates against frozen exact values
MC_SEED = 12345          # the program's default seed: a fixed, reproducible stream

AMT10 = "configs/amt10.json"
FOCAL_USER = 1
SWEEP_C = tuple(range(1, 9))
MIRROR_C = 8             # user 1 running all 8 of its stake units as oracles

NETWORK_USERS = range(4, 8)
NETWORK_CLASSES = range(2, 6)
POOL_PER_STRATUM = 16    # frozen pool: 16 networks per (users, classes) pair
NETWORK_EPSILON = 0.05
NETWORK_D_MAX = 8.0
LURKER = "lurker"
LURKER_RECORDS = 5       # synthesize_records' planted records
MIN_PARTICIPATION = 0.1


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def grid_index(d: float, epsilon: float, start: float = 1.0) -> int:
    return round((d - start) / epsilon)


# ---------------------------------------------------------------------------
# Seeded input generators
# ---------------------------------------------------------------------------

def network_key(n_users: int, n_classes: int, index: int) -> str:
    return f"{n_users}u{n_classes}c{index}"


def network_doc(n_users: int, n_classes: int, index: int) -> dict:
    """One small network as a config document, determined by its arguments.

    Confusion rows are diagonally dominant, and stakes are at most N-2, so no
    user can cast more votes than all of its rivals together and every
    network has a finite d_opt.
    """
    rng = np.random.default_rng([n_users, n_classes, index])
    confusion = []
    for truth in range(n_classes):
        diagonal = rng.uniform(0.55, 0.9)
        off = rng.dirichlet(np.ones(n_classes - 1)) * (1.0 - diagonal)
        confusion.append(np.insert(off, truth, diagonal).tolist())
    stakes = rng.integers(1, n_users - 1, size=n_users)
    while (stakes >= 2).sum() < 2:  # two users must be able to mirror
        stakes = rng.integers(1, n_users - 1, size=n_users)
    return {
        "num_classes": n_classes,
        "confusion": confusion,
        "prior": rng.dirichlet(np.full(n_classes, 4.0)).tolist(),
        "users": [{"id": i + 1, "stake": int(s)} for i, s in enumerate(stakes)],
        "total_reward": 1.0,
    }


def pool_keys() -> list[tuple[int, int, int]]:
    return [(n, k, i) for n in NETWORK_USERS for k in NETWORK_CLASSES
            for i in range(POOL_PER_STRATUM)]


def population(seed: int, per_stratum: int) -> list[tuple[int, int, int]]:
    """Networks drawn from the frozen pool: `per_stratum` for every
    (users, classes) pair, so each seed gets the same mix of sizes."""
    rng = np.random.default_rng(seed)
    chosen = [
        (n, k, int(i))
        for n in NETWORK_USERS for k in NETWORK_CLASSES
        for i in sorted(rng.choice(POOL_PER_STRATUM, per_stratum, replace=False))
    ]
    return [chosen[j] for j in rng.permutation(len(chosen))]


def mirroring_users(config) -> dict[int, int]:
    """The two highest-id users able to mirror, each running one oracle per
    stake unit, so that rivals of user 1 hold several oracles."""
    able = [u for u in config.users if u.total_stake >= 2][-2:]
    return {u.user_id: u.total_stake for u in able}


# ---------------------------------------------------------------------------
# Operations and reference gates
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One timed operation of a pass and what it returned or raised."""

    name: str
    seconds: float
    result: object = None
    error: str | None = None


def attempt(name: str, fn, *args) -> Op:
    start = time.perf_counter()
    try:
        result = fn(*args)
    except Exception:  # a raising operation is counted as failed, not fatal
        return Op(name, time.perf_counter() - start, error=traceback.format_exc())
    return Op(name, time.perf_counter() - start, result)


def _close(got: float, want: float, tol: float = EXACT_TOL) -> bool:
    return abs(float(got) - float(want)) <= tol


def solve_problems(ref: dict, d: float, certificate, below: tuple[float, float]) -> list[str]:
    """amt10 d_opt: grid index, satisfied certificate with frozen payoffs, and
    the frozen deviation that still pays one grid step below."""
    out = []
    index = grid_index(d, ref["epsilon"])
    if index != ref["d_index"]:
        out.append(f"d_opt {d!r} is grid index {index}, expected {ref['d_index']}")
    if not certificate.satisfied:
        out.append("certificate is not satisfied")
    got = {(c.user_id, c.oracle_count): (c.payoff_single, c.payoff_mirror)
           for c in certificate.checks}
    if len(got) != len(ref["certificate"]):
        out.append(f"certificate has {len(got)} checks, expected {len(ref['certificate'])}")
    for n, c, single, mirror in ref["certificate"]:
        pair = got.get((n, c))
        if pair is None or not (_close(pair[0], single) and _close(pair[1], mirror)):
            out.append(f"check (user {n}, c={c}) is {pair}, expected {(single, mirror)}")
    b = ref["below"]
    if not below[1] > below[0]:
        out.append(f"mirroring (user {b['n']}, c={b['c']}) does not pay one step below d_opt")
    if not (_close(below[0], b["payoff_single"]) and _close(below[1], b["payoff_mirror"])):
        out.append(f"payoffs one step below d_opt are {below}, expected "
                   f"{(b['payoff_single'], b['payoff_mirror'])}")
    return out


def sweep_problems(ref: dict, c_values, rows, csv_text: str) -> list[str]:
    """Sweep rows against frozen payoffs and error rates, the best response at
    each d, and the CSV read back."""
    out = []
    want = []
    for column in ("d1", "d_opt"):
        for c in c_values:
            want.append((c, column) + tuple(ref["sweep"][column][c - 1]))
    if len(rows) != len(want):
        return [f"sweep has {len(rows)} rows, expected {len(want)}"]
    for row, (c, column, payoff, error) in zip(rows, want):
        if row.c != c or grid_index(row.d, ref["epsilon"]) != (
                0 if column == "d1" else ref["d_index"]):
            out.append(f"row (c={row.c}, d={row.d!r}) out of order, expected c={c} at {column}")
        elif not (_close(row.expected_payoff, payoff) and _close(row.error_rate, error)):
            out.append(f"row (c={c}, {column}) is ({row.expected_payoff!r}, "
                       f"{row.error_rate!r}), expected ({payoff!r}, {error!r})")
    half = len(c_values)
    for part, column, best in ((rows[:half], "d1", max(c_values)),
                               (rows[half:], "d_opt", min(c_values))):
        argmax = max(part, key=lambda r: r.expected_payoff).c
        if argmax != best:
            out.append(f"best response at {column} is c={argmax}, expected c={best}")
    lines = csv_text.splitlines()
    if not lines or lines[0] != "c,d,expected_payoff,payoff_stderr,error_rate,error_stderr":
        out.append("sweep CSV header differs")
    elif len(lines) - 1 != len(rows):
        out.append(f"sweep CSV has {len(lines) - 1} rows, expected {len(rows)}")
    else:
        for line, row in zip(lines[1:], rows):
            fields = [float(x) for x in line.split(",")]
            expected = [row.c, row.d, row.expected_payoff, row.payoff_stderr,
                        row.error_rate, row.error_stderr]
            if len(fields) != len(expected) or any(
                    abs(f - e) > 1e-11 * max(1.0, abs(e)) for f, e in zip(fields, expected)):
                out.append(f"sweep CSV line {line!r} differs from row {row}")
    return out


def mc_problems(estimate: float, stderr: float, exact: float, label: str) -> list[str]:
    if not stderr > 0 or abs(estimate - exact) > MC_SIGMAS * stderr:
        return [f"{label} estimate {estimate!r} (stderr {stderr!r}) is not within "
                f"{MC_SIGMAS} stderr of the exact {exact!r}"]
    return []


def ingest_problems(expected: dict, matrix: np.ndarray, report) -> list[str]:
    out = []
    gap = float(np.max(np.abs(np.asarray(matrix) - expected["matrix"])))
    if gap > EXACT_TOL:
        out.append(f"estimated matrix is {gap!r} from the recount of the records")
    if tuple(report.dropped_annotators) != (LURKER,):
        out.append(f"dropped annotators {report.dropped_annotators}, expected ({LURKER!r},)")
    if report.total_records != expected["records"]:
        out.append(f"read {report.total_records} records, expected {expected['records']}")
    if report.dropped_records != LURKER_RECORDS:
        out.append(f"dropped {report.dropped_records} records, expected {LURKER_RECORDS}")
    return out


def network_problems(ref: dict, key: str, valid: bool, d: float, satisfied: bool,
                     error_rate: float) -> list[str]:
    d_index, want_error = ref["networks"][key]
    out = []
    if not valid:
        out.append(f"network {key} fails validation")
    index = grid_index(d, ref["epsilon"])
    if index != d_index or not satisfied:
        out.append(f"network {key}: d_opt {d!r} is grid index {index} "
                   f"(certificate {satisfied}), expected {d_index}")
    if not _close(error_rate, want_error):
        out.append(f"network {key}: error rate {error_rate!r}, expected {want_error!r}")
    return out


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """Inputs made once from the seed; `answer` is one timed pass."""

    name = ""

    def __init__(self, root: Path, workdir: Path, seed: int, tiny: bool = False):
        self.root, self.workdir, self.seed, self.tiny = root, workdir, seed, tiny
        self.reference = load_reference()

    def prepare(self, fs) -> None:
        """Write the seeded inputs; untimed."""

    def config_paths(self) -> list[Path]:
        raise NotImplementedError

    def answer(self, fs) -> list[Op]:
        raise NotImplementedError

    def problems(self, op: Op) -> list[str]:
        raise NotImplementedError

    def phases(self, ops: list[Op]) -> dict[str, float]:
        """Timings and rates of this workload's own operations in one pass."""
        return {}

    def exact_configs(self) -> list[Path]:
        """Configs whose exact-engine build is probed in traced runs."""
        return []

    scalar_rounds = 0  # scalar majority_vote/settle_round calls timed in traced runs


def _seconds(ops: list[Op], name: str) -> float:
    return sum(op.seconds for op in ops if op.name == name)


class Amt10Exact(Workload):
    name = "amt10-exact"

    def config_paths(self):
        return [self.root / AMT10]

    exact_configs = config_paths

    def answer(self, fs):
        ref = self.reference["amt10"]
        config = fs.load_config(self.root / AMT10)
        fs.require_valid(config)
        ops = []
        d_opt = ref["d_opt"]
        if not self.tiny:
            ops.append(attempt("solve", self._solve, fs, config, ref))
            if ops[-1].error is None:
                d_opt = ops[-1].result[0]
        c_values = (1, MIRROR_C) if self.tiny else SWEEP_C
        ops.append(attempt("sweep", self._sweep, fs, config, c_values, d_opt))
        return ops

    def _solve(self, fs, config, ref):
        epsilon = ref["epsilon"]
        diagnostics = {}
        d, certificate = fs.find_d_opt(
            config,
            fs.SolverSettings(epsilon=epsilon, starting_d=1.0 + ref["d_index"] * epsilon),
            diagnostics=diagnostics,
        )
        b = ref["below"]
        d_below = 1.0 + (grid_index(d, epsilon) - 1) * epsilon
        stake = config.user(b["n"]).total_stake
        below = tuple(
            fs.expected_payoff_exact(
                fs.PayoffQuery(config, b["n"], fs.Strategy.concentrated(stake, c), d_below)
            ).value
            for c in (1, b["c"])
        )
        return d, certificate, below

    def _sweep(self, fs, config, c_values, d_opt):
        rows = fs.run_experiment(
            fs.ExperimentSpec(config, FOCAL_USER, c_values, (1.0, d_opt))
        )
        path = self.workdir / "sweep.csv"
        fs.write_sweep_csv(rows, path)
        return c_values, rows, path.read_text()

    def problems(self, op):
        ref = self.reference["amt10"]
        if op.name == "solve":
            return solve_problems(ref, *op.result)
        return sweep_problems(ref, *op.result)

    def phases(self, ops):
        return {"solve_s": _seconds(ops, "solve"), "sweep_s": _seconds(ops, "sweep")}


class Amt10Sample(Workload):
    name = "amt10-sample"
    scalar_rounds = 2000

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.samples = 20_000 if self.tiny else 1_000_000
        self.records, self.tasks, self.annotators = (
            (2_000, 300, 10) if self.tiny else (100_000, 300, 40))
        self.csv_path = self.workdir / "annotations.csv"

    def config_paths(self):
        return [self.root / AMT10]

    def prepare(self, fs):
        config = fs.load_config(self.root / AMT10)
        records = fs.ingest.synthesize_records(
            config.confusion, num_records=self.records, num_tasks=self.tasks,
            num_annotators=self.annotators, seed=self.seed,
            low_participation_annotator=LURKER,
        )
        fs.ingest.write_annotation_csv(records, self.csv_path)
        self.expected = self._recount(records, config.num_classes)

    @staticmethod
    def _recount(records, k: int) -> dict:
        """The pooled matrix of every annotator but the lurker, which is what
        the participation filter must leave."""
        gold_tasks = len({r.task_id for r in records})
        per_annotator = Counter(r.annotator_id for r in records if r.annotator_id != LURKER)
        if min(per_annotator.values()) < MIN_PARTICIPATION * gold_tasks:
            raise ValueError("a regular annotator falls below the participation bar")
        counts = np.zeros((k, k))
        for r in records:
            if r.annotator_id != LURKER:
                counts[r.gold_label - 1, r.label - 1] += 1.0
        return {"matrix": counts / counts.sum(axis=1)[:, None], "records": len(records)}

    def answer(self, fs):
        config = fs.load_config(self.root / AMT10)
        fs.require_valid(config)
        stake = config.user(FOCAL_USER).total_stake
        mirror = fs.Strategy.concentrated(stake, MIRROR_C)
        payoff = attempt("mc_payoff", lambda: fs.expected_payoff_mc(
            fs.PayoffQuery(config, FOCAL_USER, mirror, 1.0),
            samples=self.samples, seed=MC_SEED))
        error = attempt("mc_error", lambda: fs.error_rate_mc(
            config, {FOCAL_USER: mirror}, samples=self.samples, seed=MC_SEED))
        return [payoff, error, attempt("ingest", self._ingest, fs, config.num_classes)]

    def _ingest(self, fs, k):
        settings = fs.IngestSettings(min_participation=MIN_PARTICIPATION)
        records = fs.read_annotation_csv(self.csv_path, settings, k)
        return fs.estimate_confusion(records, settings, k)

    def problems(self, op):
        payoff, error = self.reference["amt10"]["sweep"]["d1"][MIRROR_C - 1]
        if op.name == "mc_payoff":
            return mc_problems(op.result.value, op.result.std_error, payoff, "payoff")
        if op.name == "mc_error":
            return mc_problems(*op.result, error, "error rate")
        matrix, report = op.result
        return ingest_problems(self.expected, matrix.entries, report)

    def scalar_rounds_run(self, fs, rng) -> None:
        """Scalar rounds on amt10 with user 1 mirroring: draw the truth and the
        reports, aggregate with majority_vote and settle with settle_round."""
        config = fs.load_config(self.root / AMT10)
        k = config.num_classes
        mirror = fs.Strategy.concentrated(config.user(FOCAL_USER).total_stake, MIRROR_C)
        allocations = [mirror.allocation if u.user_id == FOCAL_USER else (u.total_stake,)
                       for u in config.users]
        multiplicities = tuple(len(a) for a in allocations)
        params = fs.MechanismParams(exponent=1.0, total_reward=config.total_reward)
        for _ in range(self.scalar_rounds):
            truth = int(rng.choice(k, p=config.prior.probabilities)) + 1
            reports = tuple(fs.sample_report(config.confusion, truth, rng)
                            for _ in config.users)
            profile = fs.VoteProfile(reports, multiplicities)
            decided = fs.majority_vote(profile, k, rng).sampled_output
            fs.settle_round(profile, allocations, decided, params)

    def phases(self, ops):
        mc = _seconds(ops, "mc_payoff") + _seconds(ops, "mc_error")
        return {"mc_samples_per_s": 2 * self.samples / mc,
                "ingest_records_per_s": self.expected["records"] / _seconds(ops, "ingest")}


class SmallNetworks(Workload):
    name = "small-networks"

    def prepare(self, fs=None):
        self.networks = []
        for n, k, i in population(self.seed, 1 if self.tiny else 8):
            path = self.workdir / f"{network_key(n, k, i)}.json"
            path.write_text(json.dumps(network_doc(n, k, i)))
            self.networks.append((network_key(n, k, i), path))

    def config_paths(self):
        return [path for _, path in self.networks]

    exact_configs = config_paths

    def answer(self, fs):
        return [attempt("network", self._network, fs, key, path)
                for key, path in self.networks]

    def _network(self, fs, key, path):
        config = fs.load_config(path)
        valid = fs.validate_config(config).is_valid
        d, certificate = fs.find_d_opt(
            config, fs.SolverSettings(epsilon=NETWORK_EPSILON, d_max=NETWORK_D_MAX),
            diagnostics={})
        strategies = {user: fs.Strategy.concentrated(stake, stake)
                      for user, stake in mirroring_users(config).items()}
        return key, valid, d, certificate.satisfied, fs.error_rate_exact(config, strategies)

    def problems(self, op):
        return network_problems(self.reference["small_networks"], *op.result)

    def phases(self, ops):
        return {"networks_per_s": len(ops) / _seconds(ops, "network")}


WORKLOADS = {w.name: w for w in (Amt10Exact, Amt10Sample, SmallNetworks)}
