"""Construction helpers shared by the test modules."""

import functools
from collections import Counter

import numpy as np
import pytest

import feedsim as fs
from feedsim import _montecarlo


def count_engine_work(monkeypatch) -> Counter:
    """Count, for the rest of the test, exact-engine constructions and
    `payoffs` calls, and `_groups` and `_win_tables` builds."""
    engine = fs.enumeration.ExactEnumerator
    calls = Counter()
    for name in ("__init__", "payoffs"):
        def counted(self, *args, _method=getattr(engine, name), _name=name, **kwargs):
            calls[_name] += 1
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(engine, name, counted)
    for name in ("_groups", "_win_tables"):
        def built(self, _build=engine.__dict__[name].func, _name=name):
            calls[_name] += 1
            return _build(self)

        counted_build = functools.cached_property(built)
        counted_build.__set_name__(engine, name)
        monkeypatch.setattr(engine, name, counted_build)
    return calls


def weakly_accurate_matrix(rng, num_classes):
    """Random row-stochastic matrix whose diagonal dominates every row."""
    diag = rng.uniform(0.55, 0.9, size=num_classes)
    off = rng.uniform(0.05, 1.0, size=(num_classes, num_classes))
    np.fill_diagonal(off, 0.0)
    off = off / off.sum(axis=1, keepdims=True) * (1.0 - diag)[:, None]
    np.fill_diagonal(off, diag)
    return off


def random_config(rng, max_users=4, max_classes=3, max_stake=5, uniform_prior=True):
    num_classes = int(rng.integers(2, max_classes + 1))
    num_users = int(rng.integers(2, max_users + 1))
    stakes = [int(s) for s in rng.integers(1, max_stake + 1, size=num_users)]
    prior = None
    if not uniform_prior:
        prior = fs.ClassPrior(rng.dirichlet(np.ones(num_classes)))
    return fs.SystemConfig(
        num_classes=num_classes,
        confusion=fs.ConfusionMatrix(weakly_accurate_matrix(rng, num_classes)),
        users=tuple(fs.UserProfile(i + 1, s) for i, s in enumerate(stakes)),
        prior=prior,
    )


def grouped_instance(rng):
    """Config with 5-6 users plus a strategy per user, built so that rivals
    share groups: stakes come in equal pairs whose two users run the same
    concentrated strategy (one (multiplicity, factor) group), and the pairs
    run different oracle counts (several multiplicity groups).
    """
    num_users = int(rng.integers(5, 7))
    num_classes = int(rng.integers(2, 4))
    pair_stakes = [int(s) for s in rng.integers(2, 5, size=(num_users + 1) // 2)]
    pair_counts = [1, pair_stakes[1]] + [
        int(rng.integers(1, s + 1)) for s in pair_stakes[2:]
    ]
    pairs = [i % len(pair_stakes) for i in rng.permutation(num_users)]
    cfg = fs.SystemConfig(
        num_classes=num_classes,
        confusion=fs.ConfusionMatrix(weakly_accurate_matrix(rng, num_classes)),
        users=tuple(
            fs.UserProfile(i + 1, pair_stakes[p]) for i, p in enumerate(pairs)
        ),
        prior=fs.ClassPrior(rng.dirichlet(np.ones(num_classes))),
    )
    strategies = {
        i + 1: fs.Strategy.concentrated(pair_stakes[p], pair_counts[p])
        for i, p in enumerate(pairs)
    }
    return cfg, strategies


def counts_instance(rng, counts, num_classes=3):
    """Config whose users run `counts` oracles, one unit of stake each."""
    cfg = fs.SystemConfig(
        num_classes=num_classes,
        confusion=fs.ConfusionMatrix(weakly_accurate_matrix(rng, num_classes)),
        users=tuple(fs.UserProfile(i + 1, c) for i, c in enumerate(counts)),
        prior=fs.ClassPrior(rng.dirichlet(np.ones(num_classes))),
    )
    return cfg, {i + 1: fs.Strategy.concentrated(c, c) for i, c in enumerate(counts)}


# oracle counts per user whose first, the focal user's, passes the rivals'
# vote total plus one: it always wins alone, the last row of a win table
DOMINANT_CASES = [pytest.param(("counts", counts), id="dominant" + "".join(map(str, counts)))
                  for counts in ((5, 1, 1), (7, 2, 1, 1))]


# confusion rows and per-user oracle counts under which vote totals tie often:
# uniform rows, identity rows, and binary networks with even vote totals
TIE_NETWORKS = {
    "uniform3": (np.full((3, 3), 1 / 3), (1, 2, 1, 2)),
    "uniform4": (np.full((4, 4), 1 / 4), (2, 1, 1, 2)),
    "identity3": (np.eye(3), (1, 2, 1, 2)),
    "binary1122": ([[0.7, 0.3], [0.2, 0.8]], (1, 1, 2, 2)),
    "binary222": ([[0.6, 0.4], [0.35, 0.65]], (2, 2, 2)),
}


def tie_instance(name):
    """A `TIE_NETWORKS` config plus a strategy per user: user i runs the i-th
    oracle count, concentrated on one unit more stake than it has oracles."""
    matrix, counts = TIE_NETWORKS[name]
    cfg = fs.SystemConfig(
        num_classes=len(matrix),
        confusion=fs.ConfusionMatrix(matrix),
        users=tuple(fs.UserProfile(i + 1, c + 1) for i, c in enumerate(counts)),
    )
    return cfg, {i + 1: fs.Strategy.concentrated(c + 1, c) for i, c in enumerate(counts)}


def random_solvable_config(rng, max_users=4, max_classes=3):
    """Random config in which no user can force wins by mirroring.

    A user whose stake reaches the network size can cast more votes than all
    rivals combined and wins regardless of d, so no exponent deters it; keep
    every stake below N (and at least one user able to mirror at all).
    """
    num_classes = int(rng.integers(2, max_classes + 1))
    num_users = int(rng.integers(3, max_users + 1))
    stakes = [int(s) for s in rng.integers(1, num_users, size=num_users)]
    stakes[0] = num_users - 1
    return fs.SystemConfig(
        num_classes=num_classes,
        confusion=fs.ConfusionMatrix(weakly_accurate_matrix(rng, num_classes)),
        users=tuple(fs.UserProfile(i + 1, s) for i, s in enumerate(stakes)),
    )


def symmetric_binary_config(stakes, accuracy=0.8):
    matrix = [[accuracy, 1.0 - accuracy], [1.0 - accuracy, accuracy]]
    return fs.SystemConfig(
        num_classes=2,
        confusion=fs.ConfusionMatrix(matrix),
        users=tuple(fs.UserProfile(i + 1, s) for i, s in enumerate(stakes)),
    )


def reference_mc_rounds(confusion, prior, multiplicities, samples, rng):
    """The per-user loop kernel `_montecarlo.mc_rounds` replaced, kept as the
    reference its stream must match: same draws, same order, same batches."""

    def inverse_cdf(cum_rows, uniforms):
        idx = (uniforms[:, None] >= cum_rows).sum(axis=1)
        return np.minimum(idx, cum_rows.shape[1] - 1)

    mults = np.asarray(multiplicities, dtype=np.int64)
    num_users = mults.size
    cum_prior = np.cumsum(np.asarray(prior, dtype=np.float64))[None, :]
    cum_rows = np.cumsum(np.asarray(confusion, dtype=np.float64), axis=1)
    num_classes = cum_rows.shape[1]
    remaining = int(samples)
    while remaining > 0:
        n = min(remaining, _montecarlo._BATCH)
        remaining -= n
        truth = inverse_cdf(cum_prior.repeat(n, axis=0), rng.random(n))
        report_uniforms = rng.random((n, num_users))
        reports = np.empty((n, num_users), dtype=np.int64)
        truth_cdfs = cum_rows[truth]
        for m in range(num_users):
            reports[:, m] = inverse_cdf(truth_cdfs, report_uniforms[:, m])
        counts = np.zeros((n, num_classes), dtype=np.int64)
        rows = np.arange(n)
        for m in range(num_users):
            counts[rows, reports[:, m]] += mults[m]
        top = counts.max(axis=1)
        winner_mask = counts == top[:, None]
        n_winners = winner_mask.sum(axis=1)
        pick = np.minimum((rng.random(n) * n_winners).astype(np.int64) + 1, n_winners)
        output = (np.cumsum(winner_mask, axis=1) >= pick[:, None]).argmax(axis=1)
        yield truth, reports, output


def reference_synthesize_records(confusion, num_records, num_tasks, num_annotators,
                                 seed, low_participation_annotator=None,
                                 low_participation_records=5):
    """The per-record loop `ingest.synthesize_records` replaced, kept as the
    reference its records must equal: same draws, same order."""
    rng = np.random.default_rng(seed)
    k = confusion.num_classes
    gold = rng.integers(1, k + 1, size=num_tasks)
    cum = np.cumsum(confusion.entries, axis=1)
    records = []
    task_ids = rng.integers(0, num_tasks, size=num_records)
    annotators = rng.integers(0, num_annotators, size=num_records)
    uniforms = rng.random(num_records)
    for t, a, u in zip(task_ids, annotators, uniforms):
        truth = int(gold[t])
        label = int(min(np.searchsorted(cum[truth - 1], u, side="right"), k - 1)) + 1
        records.append(
            fs.AnnotationRecord(
                task_id=f"task{t:06d}",
                annotator_id=f"worker{a:04d}",
                label=label,
                gold_label=truth,
            )
        )
    if low_participation_annotator is not None:
        for t in range(low_participation_records):
            truth = int(gold[t % num_tasks])
            records.append(
                fs.AnnotationRecord(
                    task_id=f"task{t % num_tasks:06d}",
                    annotator_id=low_participation_annotator,
                    label=truth,
                    gold_label=truth,
                )
            )
    return records


def reference_estimate_confusion(records, settings, num_classes):
    """The per-record estimator `ingest.estimate_confusion` replaced, kept as
    the reference its matrix and report must equal."""
    if num_classes < 2:
        raise fs.IngestError("need at least two classes")
    golded = [r for r in records if r.gold_label is not None]
    gold_tasks = {r.task_id for r in golded}
    if not golded:
        raise fs.IngestError("no records carry a gold label")
    min_required = settings.min_participation * len(gold_tasks)
    per_annotator = Counter(r.annotator_id for r in golded)
    dropped = {a for a, n in per_annotator.items() if n < min_required}
    kept = [r for r in golded if r.annotator_id not in dropped]
    if not kept:
        raise fs.IngestError("participation filter removed every record")
    tally = np.zeros((num_classes, num_classes), dtype=np.int64)
    for r in kept:
        if not (1 <= r.gold_label <= num_classes and 1 <= r.label <= num_classes):
            raise ValueError(f"record {r} has a label outside 1..{num_classes}")
        tally[r.gold_label - 1, r.label - 1] += 1
    counts = tally + float(settings.smoothing)
    row_sums = counts.sum(axis=1)
    for k, total in enumerate(row_sums, start=1):
        if total <= 0:
            raise fs.IngestError(
                f"gold class {k} has no surviving records and no "
                "smoothing; cannot normalize its row"
            )
    report = fs.IngestReport(
        total_records=len(records),
        records_without_gold=len(records) - len(golded),
        dropped_annotators=tuple(sorted(dropped)),
        dropped_records=len(golded) - len(kept),
        kept_records=len(kept),
        gold_task_count=len(gold_tasks),
        min_records_required=int(np.ceil(min_required)),
        row_counts=tuple(int(n) for n in tally.sum(axis=1)),
    )
    return fs.ConfusionMatrix(counts / row_sums[:, None]), report
