"""Confusion-matrix estimation from crowdsourced annotation records.

Records pair an annotator's label with a gold-standard label per task.
Estimation drops records without gold labels, drops annotators who labeled
fewer than a minimum fraction of the distinct gold-labeled tasks, pools the
survivors into a count matrix (gold class x reported label), and normalizes
rows. Pooling is deliberate: the voting model assumes identically
distributed oracles, so one shared matrix is the estimand.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from ._montecarlo import _draw
from .model import ConfusionMatrix, write_text_atomic

CSV_FIELDS = ("task_id", "annotator_id", "label", "gold_label")


class IngestError(ValueError):
    """Annotation data cannot produce a valid confusion matrix."""


class AnnotationRecord(NamedTuple):
    task_id: str
    annotator_id: str
    label: int
    gold_label: int | None  # None when the task has no gold standard


@dataclass(frozen=True)
class IngestSettings:
    """Filtering and smoothing knobs for estimation.

    `min_participation` is the fraction of distinct gold-labeled tasks an
    annotator must have labeled to be kept. `smoothing` is an additive
    pseudo-count applied to every cell. `label_map` translates raw label
    strings to 1-based class indices; by default labels must already be
    integers.
    """

    min_participation: float = 0.1
    smoothing: float = 0.0
    label_map: Mapping[str, int] | None = None

    def __post_init__(self):
        if not 0.0 < self.min_participation <= 1.0:
            raise ValueError("min_participation must be in (0, 1]")
        if not (math.isfinite(self.smoothing) and self.smoothing >= 0):
            raise ValueError(f"smoothing must be finite and non-negative, got {self.smoothing!r}")


@dataclass(frozen=True)
class IngestReport:
    """What was dropped and what the surviving pool looked like."""

    total_records: int
    records_without_gold: int
    dropped_annotators: tuple[str, ...]
    dropped_records: int
    kept_records: int
    gold_task_count: int
    min_records_required: int
    row_counts: tuple[int, ...]
    # the participation denominator is the count of distinct gold-labeled
    # tasks, not of all tasks; recorded so downstream readers see the choice
    participation_denominator: str = "distinct gold-labeled tasks"

    def to_dict(self) -> dict:
        return {
            "total_records": self.total_records,
            "records_without_gold": self.records_without_gold,
            "dropped_annotators": list(self.dropped_annotators),
            "dropped_records": self.dropped_records,
            "kept_records": self.kept_records,
            "gold_task_count": self.gold_task_count,
            "min_records_required": self.min_records_required,
            "row_counts": list(self.row_counts),
            "participation_denominator": self.participation_denominator,
        }


def _map_label(raw: str, settings: IngestSettings, num_classes: int,
               context: str) -> int:
    raw = raw.strip()
    if settings.label_map is not None:
        if raw not in settings.label_map:
            raise IngestError(f"{context}: label {raw!r} missing from label map")
        value = settings.label_map[raw]
    else:
        try:
            value = int(raw)
        except ValueError as exc:
            raise IngestError(f"{context}: label {raw!r} is not an integer") from exc
    if not 1 <= value <= num_classes:
        raise IngestError(
            f"{context}: label {value} out of range [1, {num_classes}]"
        )
    return value


def read_annotation_csv(path, settings: IngestSettings,
                        num_classes: int) -> list[AnnotationRecord]:
    """Read `task_id,annotator_id,label,gold_label` rows; empty gold = missing.
    Blank lines are skipped, and errors name the physical line."""
    records = []
    ids: dict[str, str] = {}
    labels: dict[str, int] = {}
    golds: dict[str, int | None] = {}
    # utf-8-sig: spreadsheet exports may start with a byte order mark
    with Path(path).open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(header) != CSV_FIELDS:
            raise IngestError(
                f"annotation CSV must have header {','.join(CSV_FIELDS)}, "
                f"got {header}"
            )
        for row in reader:
            if not row:
                continue
            if len(row) != len(CSV_FIELDS):
                raise IngestError(f"line {reader.line_num}: expected "
                                  f"{len(CSV_FIELDS)} fields, got {len(row)}")
            task, annotator, label, gold = row
            if gold not in golds:
                golds[gold] = (_map_label(gold, settings, num_classes,
                                          f"line {reader.line_num}")
                               if gold.strip() else None)
            if label not in labels:
                labels[label] = _map_label(label, settings, num_classes,
                                           f"line {reader.line_num}")
            # tuple.__new__ skips the record's Python-level __new__
            records.append(tuple.__new__(AnnotationRecord, (
                ids.setdefault(task, task.strip()),
                ids.setdefault(annotator, annotator.strip()),
                labels[label], golds[gold],
            )))
    return records


def estimate_confusion(
    records: Sequence[AnnotationRecord],
    settings: IngestSettings,
    num_classes: int,
) -> tuple[ConfusionMatrix, IngestReport]:
    """Pooled confusion-matrix estimate with participation filtering."""
    if num_classes < 2:
        raise IngestError("need at least two classes")
    golded = [r for r in records if r.gold_label is not None]
    gold_tasks = {r.task_id for r in golded}
    if not golded:
        raise IngestError("no records carry a gold label")
    min_required = settings.min_participation * len(gold_tasks)
    per_annotator = Counter(r.annotator_id for r in golded)
    dropped = {a for a, n in per_annotator.items() if n < min_required}
    kept = [r for r in golded if r.annotator_id not in dropped]
    if not kept:
        raise IngestError("participation filter removed every record")
    shape = (num_classes, num_classes)
    # attrgetter reads a named tuple's fields in C, twice as fast as a genexpr
    cells = np.ravel_multi_index(  # raises on a label outside 1..num_classes
        (np.fromiter(map(attrgetter("gold_label"), kept), np.int64, len(kept)) - 1,
         np.fromiter(map(attrgetter("label"), kept), np.int64, len(kept)) - 1), shape)
    tally = np.bincount(cells, minlength=num_classes**2).reshape(shape)
    counts = tally + float(settings.smoothing)
    row_sums = counts.sum(axis=1)
    empty = np.flatnonzero(row_sums <= 0)
    if empty.size:
        raise IngestError(
            f"gold class {int(empty[0]) + 1} has no surviving records and no "
            "smoothing; cannot normalize its row"
        )
    matrix = ConfusionMatrix(counts / row_sums[:, None])
    report = IngestReport(
        total_records=len(records),
        records_without_gold=len(records) - len(golded),
        dropped_annotators=tuple(sorted(dropped)),
        dropped_records=len(golded) - len(kept),
        kept_records=len(kept),
        gold_task_count=len(gold_tasks),
        min_records_required=int(np.ceil(min_required)),
        row_counts=tuple(int(n) for n in tally.sum(axis=1)),
    )
    return matrix, report


def synthesize_records(
    confusion: ConfusionMatrix,
    num_records: int,
    num_tasks: int,
    num_annotators: int,
    seed: int,
    low_participation_annotator: str | None = None,
    low_participation_records: int = 5,
) -> list[AnnotationRecord]:
    """Generate a synthetic annotation corpus from a known matrix.

    Gold labels are uniform over classes; labels are drawn from the matrix
    row of each task's gold label. Optionally plants one extra annotator with
    only a handful of records, for exercising the participation filter.
    """
    rng = np.random.default_rng(seed)
    k = confusion.num_classes
    gold = rng.integers(1, k + 1, size=num_tasks)
    task_ids = rng.integers(0, num_tasks, size=num_records)
    annotators = rng.integers(0, num_annotators, size=num_records)
    uniforms = rng.random(num_records)
    truths = gold[task_ids]
    labels = _draw(confusion.entries[truths - 1], uniforms) + 1
    records = [
        AnnotationRecord(f"task{t:06d}", f"worker{a:04d}", label, truth)
        for t, a, label, truth in zip(task_ids.tolist(), annotators.tolist(),
                                      labels.tolist(), truths.tolist())
    ]
    if low_participation_annotator is not None:
        for t in range(low_participation_records):
            truth = int(gold[t % num_tasks])
            records.append(
                AnnotationRecord(
                    task_id=f"task{t % num_tasks:06d}",
                    annotator_id=low_participation_annotator,
                    label=truth,
                    gold_label=truth,
                )
            )
    return records


def write_annotation_csv(records: Iterable[AnnotationRecord], path) -> None:
    """Write the records as a CSV that `read_annotation_csv` reads back; the
    text is built in memory and written atomically."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(CSV_FIELDS)
    for r in records:
        writer.writerow(
            [r.task_id, r.annotator_id, r.label,
             "" if r.gold_label is None else r.gold_label]
        )
    write_text_atomic(path, text.getvalue())
