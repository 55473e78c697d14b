from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import feedsim as fs
import helpers
from feedsim import ingest
from feedsim.ingest import synthesize_records, write_annotation_csv


def rec(task, annotator, label, gold):
    return fs.AnnotationRecord(task, annotator, label, gold)


def test_all_correct_pool_yields_identity():
    records = [
        rec("t1", "a", 1, 1), rec("t2", "a", 2, 2),
        rec("t3", "b", 1, 1), rec("t4", "b", 2, 2),
    ]
    matrix, report = fs.estimate_confusion(records, fs.IngestSettings(), 2)
    assert np.array_equal(matrix.entries, np.eye(2))
    assert report.kept_records == 4
    assert report.dropped_annotators == ()
    with pytest.raises(fs.IngestError, match="need at least two classes"):
        fs.estimate_confusion(records, fs.IngestSettings(), 1)


def test_records_without_gold_are_dropped():
    records = [
        rec("t1", "a", 1, 1), rec("t2", "a", 2, 2),
        rec("t3", "a", 2, None), rec("t4", "a", 1, None),
    ]
    matrix, report = fs.estimate_confusion(records, fs.IngestSettings(), 2)
    assert report.records_without_gold == 2
    assert report.kept_records == 2
    assert np.array_equal(matrix.entries, np.eye(2))


def test_low_participation_annotator_dropped():
    # 300 distinct gold tasks; at 10% an annotator needs 30 of them
    records = []
    for t in range(300):
        records.append(rec(f"t{t}", "steady", 1 + t % 2, 1 + t % 2))
    for t in range(5):
        records.append(rec(f"t{t}", "dabbler", 2, 1))
    matrix, report = fs.estimate_confusion(records, fs.IngestSettings(), 2)
    assert report.gold_task_count == 300
    assert report.dropped_annotators == ("dabbler",)
    assert report.dropped_records == 5
    assert np.array_equal(matrix.entries, np.eye(2))


def test_all_records_dropped_is_an_error():
    records = [rec("t1", "a", 1, None)]
    with pytest.raises(fs.IngestError):
        fs.estimate_confusion(records, fs.IngestSettings(), 2)
    # ten gold tasks: one record meets the 10% participation bar exactly
    records = [rec(f"t{i}", "a", 1 + i % 2, 1 + i % 2) for i in range(10)]
    lonely = [rec("t0", "b", 1, 1)]
    matrix, report = fs.estimate_confusion(records + lonely, fs.IngestSettings(), 2)
    assert "b" not in report.dropped_annotators  # 1 >= 0.1 * 10


def test_empty_gold_class_needs_smoothing():
    records = [rec("t1", "a", 1, 1), rec("t2", "a", 2, 1)]
    with pytest.raises(fs.IngestError):
        fs.estimate_confusion(records, fs.IngestSettings(), 2)
    matrix, _ = fs.estimate_confusion(records, fs.IngestSettings(smoothing=1.0), 2)
    assert matrix.entries[1].tolist() == [0.5, 0.5]
    assert not matrix.violations()


def test_smoothing_pseudocounts():
    records = [rec("t1", "a", 1, 1), rec("t2", "a", 2, 2)]
    matrix, _ = fs.estimate_confusion(records, fs.IngestSettings(smoothing=1.0), 2)
    assert matrix.entries.tolist() == [[2 / 3, 1 / 3], [1 / 3, 2 / 3]]


def test_filter_is_idempotent():
    rng = np.random.default_rng(0)
    records = []
    for t in range(50):
        gold = 1 + t % 3
        for a in range(4):
            label = int(rng.integers(1, 4))
            records.append(rec(f"t{t}", f"a{a}", label, gold))
    records += [rec("t0", "rare", 1, 1)]
    settings = fs.IngestSettings(min_participation=0.2)
    first, report = fs.estimate_confusion(records, settings, 3)
    survivors = [
        r for r in records
        if r.gold_label is not None and r.annotator_id not in report.dropped_annotators
    ]
    second, report2 = fs.estimate_confusion(survivors, settings, 3)
    assert np.array_equal(first.entries, second.entries)
    assert report2.dropped_annotators == ()


def test_settings_validation():
    with pytest.raises(ValueError):
        fs.IngestSettings(min_participation=0.0)
    for smoothing in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="smoothing must be finite and non-negative"):
            fs.IngestSettings(smoothing=smoothing)


def test_round_trip_recovery_improves_with_data(ref_config):
    truth = ref_config.confusion
    small = synthesize_records(truth, num_records=10**3, num_tasks=300,
                               num_annotators=30, seed=11)
    large = synthesize_records(truth, num_records=10**5, num_tasks=300,
                               num_annotators=30, seed=11)
    est_small, _ = fs.estimate_confusion(small, fs.IngestSettings(), 5)
    est_large, _ = fs.estimate_confusion(large, fs.IngestSettings(), 5)
    err_small = np.abs(est_small.entries - truth.entries).max()
    err_large = np.abs(est_large.entries - truth.entries).max()
    assert err_large < err_small
    assert err_large <= 0.01
    assert not est_large.violations()


def _rows_short_of_one(k, shortfall):
    """k-class rows that sum to an ulp below 1 - shortfall, last column empty."""
    rows = np.full((k, k), 1.0 / (k - 1))
    rows[:, -1] = 0.0
    rows[:, -2] = np.nextafter(1.0, 0.0) - shortfall - rows[:, :-2].sum(axis=1)
    assert np.all(np.cumsum(rows, axis=1)[:, -1] < 1.0 - shortfall)
    return rows


@pytest.mark.parametrize("seed", [0, 7, 11, 2024])
@pytest.mark.parametrize("confusion", [
    helpers.weakly_accurate_matrix(np.random.default_rng(3), 4),
    _rows_short_of_one(3, 0.0),
    _rows_short_of_one(4, 0.25),  # uniforms past the total land in class k
], ids=["weakly-accurate", "ulp-below-one", "quarter-short"])
def test_synthesized_records_match_the_per_record_loop(confusion, seed):
    args = (fs.ConfusionMatrix(confusion), 3000, 40, 7, seed, "lurker", 6)
    assert synthesize_records(*args) == helpers.reference_synthesize_records(*args)


def test_records_read_back_equal_the_synthesized_ones(tmp_path, ref_config):
    records = synthesize_records(ref_config.confusion, num_records=500, num_tasks=50,
                                 num_annotators=6, seed=5,
                                 low_participation_annotator="lurker")
    path = tmp_path / "records.csv"
    write_annotation_csv(records, path)
    assert fs.read_annotation_csv(path, fs.IngestSettings(), 5).records() == records
    assert hash(records[0]) == hash(rec(*records[0]))
    with pytest.raises(AttributeError):
        records[0].label = 1


def test_csv_with_a_byte_order_mark_reads_the_same_records(tmp_path):
    text = "task_id,annotator_id,label,gold_label\nt1,a,1,2\nt2,b,2,\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    settings = fs.IngestSettings()
    assert (fs.read_annotation_csv(marked, settings, 2).records()
            == fs.read_annotation_csv(plain, settings, 2).records()
            == [rec("t1", "a", 1, 2), rec("t2", "b", 2, None)])


def test_csv_round_trip_with_label_map(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text(
        "task_id,annotator_id,label,gold_label\n"
        "t1,a,pos,pos\n"
        "t2,a,neg,neg\n"
        "t3,b,neg,\n"
    )
    settings = fs.IngestSettings(label_map={"pos": 1, "neg": 2})
    table = fs.read_annotation_csv(path, settings, 2)
    assert table.records()[2].gold_label is None
    matrix, report = fs.estimate_confusion(table, settings, 2)
    assert np.array_equal(matrix.entries, np.eye(2))
    assert report.records_without_gold == 1


def test_csv_write_read_round_trip(tmp_path):
    records = [rec("t1", "a", 1, 1), rec("t2", "b", 2, None)]
    path = tmp_path / "out.csv"
    write_annotation_csv(records, path)
    back = fs.read_annotation_csv(path, fs.IngestSettings(), 2)
    assert back.records() == records


def test_csv_write_failing_partway_leaves_no_file(tmp_path):
    def records():
        yield rec("t1", "a", 1, 1)
        raise RuntimeError("records ran dry")

    path = tmp_path / "out.csv"
    with pytest.raises(RuntimeError):
        write_annotation_csv(records(), path)
    assert list(tmp_path.iterdir()) == []


def test_csv_rejects_bad_header_and_labels(tmp_path):
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("task,worker,label,gold\nt,a,1,1\n")
    with pytest.raises(fs.IngestError):
        fs.read_annotation_csv(bad_header, fs.IngestSettings(), 2)
    bad_label = tmp_path / "bad2.csv"
    bad_label.write_text("task_id,annotator_id,label,gold_label\nt,a,7,1\n")
    with pytest.raises(fs.IngestError):
        fs.read_annotation_csv(bad_label, fs.IngestSettings(), 2)
    not_int = tmp_path / "bad3.csv"
    not_int.write_text("task_id,annotator_id,label,gold_label\nt,a,x,1\n")
    with pytest.raises(fs.IngestError):
        fs.read_annotation_csv(not_int, fs.IngestSettings(), 2)


@pytest.mark.parametrize("row,got", [("t2,a2", 2), ("t2,a2,1,1,extra", 5), (" ", 1),
                                     ("t2,a2,1\nt3,a3,1,1,x", 3)])
def test_csv_row_with_wrong_field_count_is_an_error(tmp_path, row, got):
    path = tmp_path / "short.csv"
    path.write_text(f"task_id,annotator_id,label,gold_label\nt1,a1,1,1\n{row}\n")
    with pytest.raises(fs.IngestError, match=f"^line 3: expected 4 fields, got {got}$"):
        fs.read_annotation_csv(path, fs.IngestSettings(), 2)


def test_csv_errors_name_the_physical_line(tmp_path):
    blank = tmp_path / "blank.csv"
    blank.write_text("task_id,annotator_id,label,gold_label\nt1,a,1,1\n\nt2,a,9,1\n")
    with pytest.raises(fs.IngestError, match="^line 4: label 9 out of range"):
        fs.read_annotation_csv(blank, fs.IngestSettings(), 2)
    quoted = tmp_path / "quoted.csv"
    quoted.write_text(
        'task_id,annotator_id,label,gold_label\n"t1\nsecond line",a,1,1\nt2,a,9,1\n'
    )
    with pytest.raises(fs.IngestError, match="^line 4: label 9 out of range"):
        fs.read_annotation_csv(quoted, fs.IngestSettings(), 2)


def test_csv_records_share_id_strings_and_skip_blank_lines(tmp_path):
    path = tmp_path / "ids.csv"
    path.write_text(
        "task_id,annotator_id,label,gold_label\n"
        " t1 ,a,1,2\n\nt1,a,2, 2 \n t1 ,b,1,\n"
    )
    records = fs.read_annotation_csv(path, fs.IngestSettings(), 2).records()
    assert records == [
        rec("t1", "a", 1, 2), rec("t1", "a", 2, 2), rec("t1", "b", 1, None)]
    assert records[0].task_id is records[2].task_id
    assert records[0].annotator_id is records[1].annotator_id


@pytest.mark.parametrize("label,gold", [(0, 2), (3, 2), (1, 0), (1, 3)],
                         ids=["0", "3", "gold-0", "gold-3"])
def test_out_of_range_record_label_is_an_error(label, gold):
    # a gold of 0 is out of range, not a missing gold; without the bad record
    # the estimate succeeds
    records = [rec("t1", "a", 1, 1), rec("t2", "a", 2, 2), rec("t3", "a", label, gold)]
    with pytest.raises(ValueError):
        fs.estimate_confusion(records, fs.IngestSettings(), 2)


def test_first_bad_row_in_a_chunk_is_named(tmp_path):
    path = tmp_path / "two_errors.csv"
    path.write_text("task_id,annotator_id,label,gold_label\n"
                    "t1,a,1,1\nt2,a,9,1\nt3,a,1,1\nt4,a\nt5,a,1,1\n")
    with pytest.raises(fs.IngestError, match="^line 3: label 9 out of range"):
        fs.read_annotation_csv(path, fs.IngestSettings(), 2)
    both = tmp_path / "bad_label_and_gold.csv"
    both.write_text("task_id,annotator_id,label,gold_label\nt1,a,9,8\n")
    with pytest.raises(fs.IngestError, match="^line 2: label 8 out of range"):
        fs.read_annotation_csv(both, fs.IngestSettings(), 2)


def test_small_chunks_read_the_same_and_name_the_same_lines(tmp_path, monkeypatch):
    monkeypatch.setattr(ingest, "_CHUNK", 2)
    settings = fs.IngestSettings()
    header = "task_id,annotator_id,label,gold_label\n"
    rows = [f"t{i},a{i % 3},{1 + i % 2},{1 + i % 2}\n" for i in range(9)]
    late = tmp_path / "late.csv"
    late.write_text(header + "".join(rows[:5]) + "t5,a,9,1\n" + "".join(rows[5:]))
    with pytest.raises(fs.IngestError, match="^line 7: label 9 out of range"):
        fs.read_annotation_csv(late, settings, 2)
    quoted = tmp_path / "quoted.csv"
    quoted.write_text(
        'task_id,annotator_id,label,gold_label\n"t1\nsecond line",a,1,1\nt2,a,9,1\n'
    )
    with pytest.raises(fs.IngestError, match="^line 4: label 9 out of range"):
        fs.read_annotation_csv(quoted, settings, 2)
    # a run of blank lines longer than a chunk does not end the read
    gapped = tmp_path / "gapped.csv"
    gapped.write_text(header + "".join(rows[:3]) + "\n" * 5 + "".join(rows[3:]))
    plain = tmp_path / "plain.csv"
    plain.write_text(header + "".join(rows))
    table = fs.read_annotation_csv(gapped, settings, 2)
    assert len(table) == 9
    assert table.records() == fs.read_annotation_csv(plain, settings, 2).records()


def _padded(ids):
    return st.builds("{}{}{}".format, st.sampled_from(["", " ", "  "]),
                     st.sampled_from(ids), st.sampled_from(["", " "]))


_records = st.lists(st.builds(
    fs.AnnotationRecord, _padded(["t1", "t2", "t3", "t4"]), _padded(["a", "b", "c"]),
    st.integers(1, 3), st.none() | st.integers(1, 3)), max_size=25)


@settings(derandomize=True, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=_records, gaps=st.sets(st.integers(1, 26)),
       chunk=st.sampled_from([1, 2, 3, ingest._CHUNK]),
       smoothing=st.sampled_from([0.0, 0.5]))
def test_read_table_matches_the_stripped_records(tmp_path, records, gaps, chunk, smoothing):
    path = tmp_path / "records.csv"
    write_annotation_csv(records, path)
    lines = path.read_bytes().split(b"\r\n")
    for at in sorted(gaps, reverse=True):
        lines.insert(at, b"")  # a blank line; the header stays first
    path.write_bytes(b"\r\n".join(lines))
    stripped = [r._replace(task_id=r.task_id.strip(), annotator_id=r.annotator_id.strip())
                for r in records]
    settings_ = fs.IngestSettings(min_participation=0.3, smoothing=smoothing)
    with mock.patch.object(ingest, "_CHUNK", chunk):
        table = fs.read_annotation_csv(path, settings_, 3)
    assert len(table) == len(records)
    assert table.records() == stripped

    def outcome(estimate, source):
        try:
            matrix, report = estimate(source, settings_, 3)
        except fs.IngestError as exc:
            return str(exc)
        return matrix.entries.tolist(), report

    assert (outcome(fs.estimate_confusion, table)
            == outcome(fs.estimate_confusion, stripped)
            == outcome(helpers.reference_estimate_confusion, stripped))
