"""Confusion-matrix estimation from crowdsourced annotation records.

Records pair an annotator's label with a gold-standard label per task.
Estimation drops records without gold labels, drops annotators who labeled
fewer than a minimum fraction of the distinct gold-labeled tasks, pools the
survivors into a count matrix (gold class x reported label), and normalizes
rows. Pooling is deliberate: the voting model assumes identically
distributed oracles, so one shared matrix is the estimand.

Records are held as columns, in an `AnnotationTable`: task and annotator
codes into tuples of the distinct ids, and label and gold arrays.
`read_annotation_csv` reads the CSV `_CHUNK` rows at a time and codes each
chunk's fields before it reads the next, so it holds at most one chunk of
field strings, the distinct ids and raw labels, and the integer columns; it
builds no object per record. One function, `_read_table`, holds the rules of
a row. A chunk is checked only once all its rows are read, so on an error the
same function reads the file again, decoding one physical line at a time:
the chunks the first read finished whole, then one row per chunk, so the
first bad row names its line. `estimate_confusion` counts over the codes
with `np.bincount`.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import add, is_not, length_hint, sub
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from ._montecarlo import _draw
from .model import ConfusionMatrix, write_text_atomic

CSV_FIELDS = ("task_id", "annotator_id", "label", "gold_label")

# rows read and coded at a time: bounds the field strings held at once
_CHUNK = 1 << 12
_ROW_END = object()  # marks the end of each row in a flattened chunk


class IngestError(ValueError):
    """Annotation data cannot produce a valid confusion matrix."""


class AnnotationRecord(NamedTuple):
    task_id: str
    annotator_id: str
    label: int
    gold_label: int | None  # None when the task has no gold standard


@dataclass(frozen=True, eq=False)
class AnnotationTable:
    """Annotation records as columns.

    `tasks` and `annotators` are codes into `task_ids` and `annotator_ids`,
    whose ids are in order of first appearance. `golds` is meaningful only
    where `has_gold` is set, so no gold value a record can carry, 0 included,
    is taken for a missing one. The arrays are read-only.
    """

    task_ids: tuple[str, ...]
    annotator_ids: tuple[str, ...]
    tasks: np.ndarray
    annotators: np.ndarray
    labels: np.ndarray
    golds: np.ndarray
    has_gold: np.ndarray

    def __post_init__(self):
        for column in (self.tasks, self.annotators, self.labels, self.golds, self.has_gold):
            column.setflags(write=False)

    def __len__(self) -> int:
        return len(self.labels)

    @classmethod
    def from_records(cls, records: Iterable[AnnotationRecord]) -> AnnotationTable:
        """The table of `records`, ids taken as they are."""
        tasks, annotators, labels, golds = tuple(zip(*records)) or ((),) * len(CSV_FIELDS)
        task_ids: dict = {}
        annotator_ids: dict = {}
        task_codes = _code(tasks, task_ids, lambda _: len(task_ids))
        annotator_codes = _code(annotators, annotator_ids, lambda _: len(annotator_ids))
        return cls(
            task_ids=tuple(task_ids),
            annotator_ids=tuple(annotator_ids),
            tasks=task_codes,
            annotators=annotator_codes,
            labels=np.fromiter(labels, np.int64, len(labels)),
            golds=_code(golds, {}, lambda gold: 0 if gold is None else gold),
            has_gold=np.fromiter(map(is_not, golds, repeat(None)), bool, len(golds)),
        )

    def records(self) -> list[AnnotationRecord]:
        """The records, one per row; records of one task or annotator share
        its id string."""
        return [AnnotationRecord(*fields) for fields in zip(
            map(self.task_ids.__getitem__, self.tasks.tolist()),
            map(self.annotator_ids.__getitem__, self.annotators.tolist()),
            self.labels.tolist(),
            np.where(self.has_gold, self.golds, None).tolist(),
        )]


def _code(column: Sequence, index: dict, new: Callable) -> np.ndarray:
    """`column` mapped through `index`, which first gains `new(value)` for
    each value it lacks, in order of first appearance."""
    try:
        return np.fromiter(map(index.__getitem__, column), np.int64, len(column))
    except KeyError:
        pass
    for value in dict.fromkeys(column):
        if value not in index:
            index[value] = new(value)
    return np.fromiter(map(index.__getitem__, column), np.int64, len(column))


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


def _decoded_lines(handle) -> Iterator[str]:
    """The physical lines of a binary `handle` as the text pass reads them,
    decoded one at a time, so that a byte that is not UTF-8 names its line
    (the text reader decodes a whole buffer before csv sees any of its rows)."""
    # split as newline="" does: at \n, \r and \r\n, endings kept
    lines = chain.from_iterable(line.splitlines(keepends=True) for line in handle)
    for number, line in enumerate(lines, 1):
        try:
            yield line.decode("utf-8-sig" if number == 1 else "utf-8")
        except UnicodeDecodeError as exc:
            raise IngestError(f"line {number}: {exc}") from exc


def read_annotation_csv(path, settings: IngestSettings,
                        num_classes: int) -> AnnotationTable:
    """Read `task_id,annotator_id,label,gold_label` rows; empty gold = missing.
    Ids are stripped, blank lines are skipped, and errors name the physical
    line of the first bad row."""
    path = Path(path)
    sizes = repeat(_CHUNK, sys.maxsize)  # what is left counts the chunks begun
    try:
        # utf-8-sig: spreadsheet exports may start with a byte order mark
        with path.open(newline="", encoding="utf-8-sig") as handle:
            return _read_table(csv.reader(handle), sizes, "a row", settings, num_classes)
    except (IngestError, UnicodeDecodeError) as exc:
        error = exc
    # a chunk is checked only once all its rows are read: read again, the
    # chunks the first pass finished whole and then row by row, for the first
    # error in file order and its line (finding none, the file changed
    # between the reads, and the first error stands)
    finished = sys.maxsize - length_hint(sizes) - 1
    with path.open("rb") as handle:
        _read_table(csv.reader(_decoded_lines(handle)),
                    chain(repeat(_CHUNK, finished), repeat(1)),
                    "line {reader.line_num}", settings, num_classes)
    raise error


def _read_table(reader, sizes: Iterable[int], prefix: str, settings: IngestSettings,
                num_classes: int) -> AnnotationTable:
    """The table of csv `reader`'s rows, read and coded one chunk at a time,
    each chunk as many rows as the next of `sizes`. The first bad chunk
    raises IngestError, its message led by `prefix.format(reader=reader)`, so
    a one-row chunk can name its row's line with `reader.line_num`."""
    where = lambda: prefix.format(reader=reader)
    task_ids: dict[str, int] = {}
    annotator_ids: dict[str, int] = {}
    news = (
        lambda raw: task_ids.setdefault(raw.strip(), len(task_ids)),
        lambda raw: annotator_ids.setdefault(raw.strip(), len(annotator_ids)),
        lambda raw: _map_label(raw, settings, num_classes, where()),
        lambda raw: _map_label(raw, settings, num_classes, where()) if raw.strip() else 0,
    )
    indexes = tuple({} for _ in CSV_FIELDS)  # raw field -> code or class
    parts = tuple([np.empty(0, np.int64)] for _ in CSV_FIELDS)
    width = len(CSV_FIELDS) + 1
    end = [_ROW_END]
    try:
        header = next(reader, None)
        if header is None or tuple(header) != CSV_FIELDS:
            raise IngestError(f"annotation CSV must have header {','.join(CSV_FIELDS)}, "
                              f"got {header}")
        for size in sizes:
            line = reader.line_num
            ends = repeat(end, size)
            # each row gains one end marker, so a row of any other length moves
            # every later marker off the stride; `ends` left over counts the rows
            flat = list(chain.from_iterable(map(add, filter(None, islice(reader, size)), ends)))
            if reader.line_num == line:
                break
            rows = size - length_hint(ends)
            if len(flat) != width * rows or flat[width - 1::width].count(_ROW_END) != rows:
                stops = [-1, *(i for i, field in enumerate(flat) if field is _ROW_END)]
                got = next(n for n in map(sub, stops[1:], stops) if n != width) - 1
                raise IngestError(f"{where()}: expected {len(CSV_FIELDS)} fields, got {got}")
            for i in (0, 1, 3, 2):  # gold before label: a row with both wrong names its gold
                parts[i].append(_code(flat[i::width], indexes[i], news[i]))
    except csv.Error as exc:  # such as a field over the csv module's size limit
        raise IngestError(f"{where()}: {exc}") from exc
    tasks, annotators, labels, golds = map(np.concatenate, parts)
    return AnnotationTable(
        task_ids=tuple(task_ids), annotator_ids=tuple(annotator_ids),
        tasks=tasks, annotators=annotators, labels=labels, golds=golds,
        has_gold=golds != 0,  # a gold read is a class in 1..K; 0 marks none
    )


def estimate_confusion(
    records: AnnotationTable | Sequence[AnnotationRecord],
    settings: IngestSettings,
    num_classes: int,
) -> tuple[ConfusionMatrix, IngestReport]:
    """Pooled confusion-matrix estimate with participation filtering. Records
    that are not a table are made into one, ids taken as they are."""
    if num_classes < 2:
        raise IngestError("need at least two classes")
    table = (records if isinstance(records, AnnotationTable)
             else AnnotationTable.from_records(records))
    golded = table.has_gold
    golded_records = int(np.count_nonzero(golded))
    if not golded_records:
        raise IngestError("no records carry a gold label")
    gold_tasks = int(np.count_nonzero(np.bincount(table.tasks[golded])))
    min_required = settings.min_participation * gold_tasks
    per_annotator = np.bincount(table.annotators[golded], minlength=len(table.annotator_ids))
    dropped = (per_annotator > 0) & (per_annotator < min_required)
    kept = golded & ~dropped[table.annotators]
    kept_records = int(np.count_nonzero(kept))
    if not kept_records:
        raise IngestError("participation filter removed every record")
    shape = (num_classes, num_classes)
    cells = np.ravel_multi_index(  # raises on a label outside 1..num_classes
        (table.golds[kept] - 1, table.labels[kept] - 1), shape)
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
        total_records=len(table),
        records_without_gold=len(table) - golded_records,
        dropped_annotators=tuple(sorted(
            map(table.annotator_ids.__getitem__, np.flatnonzero(dropped).tolist()))),
        dropped_records=golded_records - kept_records,
        kept_records=kept_records,
        gold_task_count=gold_tasks,
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
