import csv
import json
import os
import time

import numpy as np
import pytest

import feedsim as fs
import helpers
from feedsim.cli import main


def write_config(path, config):
    from feedsim.model import config_to_dict

    path.write_text(json.dumps(config_to_dict(config)))
    return str(path)


@pytest.fixture
def trio_path(tmp_path):
    return write_config(tmp_path / "trio.json", helpers.symmetric_binary_config([2, 1, 1]))


def test_validate_ok(capsys, ref_config_path):
    assert main(["validate", str(ref_config_path)]) == 0
    out = capsys.readouterr().out
    assert "valid: yes" in out
    assert "weakly accurate: yes" in out


def test_validate_accepts_byte_order_mark(tmp_path, capsys, ref_config_path):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf" + ref_config_path.read_bytes())
    assert main(["validate", str(ref_config_path)]) == 0
    plain = capsys.readouterr().out
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == plain


def test_validate_domain_violation_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"num_classes": 2, "confusion": [[1.0, 0.0], [0.4, 0.5]],'
        ' "users": [{"id": 1, "stake": 1}]}'
    )
    assert main(["validate", str(path)]) == 1
    assert "row 2 sums to 0.9" in capsys.readouterr().out


@pytest.mark.parametrize("flags,code,report", [
    ([], 1, "violation: row 2 sums to 0.9 (expected 1 within 1e-06)\nvalid: no\n"),
    (["--renormalize"], 0, "valid: yes\n"),
], ids=["as-read", "renormalized"])
def test_validate_renormalize_rescales_the_rows(tmp_path, capsys, ref_config_path,
                                                flags, code, report):
    """amt10 with row 2 scaled by 0.9 is refused as read and valid once its
    rows are rescaled to unit sum."""
    doc = json.loads(ref_config_path.read_text())
    doc["confusion"][1] = [0.9 * x for x in doc["confusion"][1]]
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path), *flags]) == code
    assert capsys.readouterr().out == report + "weakly accurate: yes\n"


@pytest.mark.parametrize("num_classes,violations", [
    (0, ["num_classes 0 must be a positive integer",
         "confusion matrix is 5x5 but num_classes is 0"]),
    (-2, ["num_classes -2 must be a positive integer",
          "confusion matrix is 5x5 but num_classes is -2"]),
    (10**12, ["confusion matrix is 5x5 but num_classes is 1000000000000"]),
    (6, ["confusion matrix is 5x5 but num_classes is 6"]),
])
def test_validate_reports_a_num_classes_the_matrix_disagrees_with(
        tmp_path, capsys, ref_config_path, num_classes, violations):
    """amt10 has no prior, and none is built from a num_classes that differs
    from the matrix's size: the report names num_classes and nothing else."""
    doc = json.loads(ref_config_path.read_text())
    assert "prior" not in doc
    doc["num_classes"] = num_classes
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [f"violation: {v}" for v in violations] + [
        "valid: no", "weakly accurate: yes"]
    assert err == ""


def test_validate_unreadable_exits_2(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "missing.json")]) == 2
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2


def test_payoff_single_user(tmp_path, capsys):
    cfg = fs.SystemConfig(
        num_classes=2,
        confusion=fs.ConfusionMatrix.identity(2),
        users=(fs.UserProfile(1, 3),),
    )
    path = write_config(tmp_path / "solo.json", cfg)
    assert main(["payoff", path, "--user", "1", "--c", "2", "--d", "2"]) == 0
    assert "expected_payoff=1 " in capsys.readouterr().out


def test_payoff_infeasible_c_exits_1(trio_path, capsys):
    assert main(["payoff", trio_path, "--user", "1", "--c", "3"]) == 1
    assert "error:" in capsys.readouterr().err


def test_payoff_monte_carlo(trio_path, capsys):
    code = main(
        ["payoff", trio_path, "--user", "1", "--c", "2", "--d", "1.5",
         "--method", "mc", "--samples", "2000", "--seed", "3"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "method=monte_carlo" in out and "samples=2000" in out


def test_solve_d_writes_certificate(trio_path, tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code = main(
        ["solve-d", trio_path, "--epsilon", "0.05", "--out", str(cert_path)]
    )
    assert code == 0
    assert "d_opt=1.6" in capsys.readouterr().out
    doc = json.loads(cert_path.read_text())
    assert doc["satisfied"] is True
    assert doc["d"] == 1.6
    assert doc["checks"][0].keys() == {"n", "c", "payoff_single", "payoff_mirror"}
    manifest = json.loads((tmp_path / "cert.json.manifest.json").read_text())
    assert manifest["command"] == "solve-d"
    assert manifest["config_path"] == trio_path
    assert manifest["tool_version"] == fs.__version__


def test_solve_d_certificate_records_the_grid_value(ref_config_path, tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    assert main(["solve-d", str(ref_config_path), "--out", str(cert_path)]) == 0
    assert capsys.readouterr().out == "d_opt=2.28 checks=45 satisfied=yes\n"
    assert '"d": 2.28,' in cert_path.read_text()


@pytest.mark.parametrize("oracle_stakes", [[], ["--from-oracle-stakes"]])
def test_solve_d_diagnostics_leave_stdout_and_certificate_alone(
        trio_path, tmp_path, capsys, oracle_stakes):
    plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
    args = ["solve-d", trio_path, "--epsilon", "0.05", *oracle_stakes]
    assert main([*args, "--out", str(plain)]) == 0
    out = capsys.readouterr().out
    diag = tmp_path / "diag.json"
    assert main([*args, "--out", str(traced), "--diagnostics", str(diag)]) == 0
    assert capsys.readouterr().out == out == "d_opt=1.6 checks=1 satisfied=yes\n"
    assert traced.read_bytes() == plain.read_bytes()
    want = {}
    fs.find_d_opt(fs.load_config(trio_path), fs.SolverSettings(epsilon=0.05), diagnostics=want)
    assert json.loads(diag.read_text()) == want and want["grid_points"] == 13
    manifest = json.loads((tmp_path / "diag.json.manifest.json").read_text())
    assert manifest["command"] == "solve-d" and manifest["config_path"] == trio_path


@pytest.mark.parametrize("command", [["solve-d"], ["sweep", "--out", "sweep.csv"]])
def test_stake_too_large_to_list_exits_1_at_once(tmp_path, capsys, command):
    """A validated stake of 10**30 is refused before any per-count list."""
    path = write_config(tmp_path / "huge.json", helpers.symmetric_binary_config([10**30, 1]))
    assert main(["validate", path]) == 0
    capsys.readouterr()
    start = time.perf_counter()
    args = [command[0], path, *[str(tmp_path / a) if a.endswith(".csv") else a
                                for a in command[1:]]]
    assert main(args) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: user 1: stake " + str(10**30))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.json"]


def test_sweep_against_a_huge_rival_stake_lists_only_its_own_counts(tmp_path, capsys):
    path = write_config(tmp_path / "huge.json", helpers.symmetric_binary_config([10**30, 1]))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", path, "--user", "2", "--d-list", "1,2", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote 2 rows to {out}\n"
    assert main(["sweep", path, "--c-range", "1:2", "--out", str(out)]) == 0


def test_solve_d_failed_rename_keeps_old_certificate(trio_path, tmp_path, monkeypatch):
    cert_path = tmp_path / "cert.json"
    cert_path.write_text("old certificate\n")

    def failing_replace(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", failing_replace)
    assert main(["solve-d", trio_path, "--epsilon", "0.05", "--out", str(cert_path)]) == 2
    assert cert_path.read_text() == "old certificate\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cert.json", "trio.json"]


def test_factor_overflow_exits_1_without_traceback(tmp_path, capsys):
    cfg = helpers.symmetric_binary_config([1000, 999, 998])
    path = write_config(tmp_path / "big.json", cfg)
    assert main(["validate", path]) == 0
    capsys.readouterr()
    assert main(["payoff", path, "--user", "1", "--d", "120"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("d", ["341", "341.3"])
def test_payoff_with_a_factor_total_past_the_float_range(ref_config_path, capsys, d):
    """Two stake-8 factors sum past the float range from d = 341 on, while
    each one fits until 341.33: the payoff is the one d = 340.9 gives."""
    assert main(["payoff", str(ref_config_path), "--user", "1", "--c", "1", "--d", d]) == 0
    out, err = capsys.readouterr()
    assert out == "expected_payoff=0.420474455397 method=exact std_error=0 samples=0\n"
    assert err == ""


def test_sweep_with_a_factor_total_past_the_float_range(ref_config_path, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(ref_config_path), "--c-range", "1:2", "--d-list", "341",
                 "--out", str(out)]) == 0
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows[0]["c"] == "1" and rows[0]["expected_payoff"] == "0.420474455397"


def test_a_factor_past_the_float_range_still_exits_1(ref_config_path, capsys):
    assert main(["payoff", str(ref_config_path), "--user", "1", "--c", "1", "--d", "341.4"]) == 1
    assert capsys.readouterr().err == "error: math range error\n"


def test_solve_d_from_oracle_stakes_matches(trio_path, capsys):
    assert main(["solve-d", trio_path, "--epsilon", "0.05"]) == 0
    direct = capsys.readouterr().out
    assert main(["solve-d", trio_path, "--epsilon", "0.05", "--from-oracle-stakes"]) == 0
    via_oracles = capsys.readouterr().out
    assert direct.split()[0] == via_oracles.split()[0] == "d_opt=1.6"


def test_solve_d_exhaustion_exits_1(trio_path, capsys):
    code = main(["solve-d", trio_path, "--epsilon", "0.05", "--d-max", "1.2"])
    assert code == 1
    assert "tightest violation" in capsys.readouterr().err


def test_solve_d_epsilon_below_grid_resolution_exits_1(ref_config_path, capsys):
    assert main(["solve-d", str(ref_config_path), "--epsilon", "1e-300"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "epsilon" in err


def test_sweep_deterministic_across_runs_and_threads(trio_path, tmp_path):
    args = ["sweep", trio_path, "--user", "1", "--c-range", "1:2",
            "--d-list", "1,1.6", "--method", "mc", "--samples", "5000",
            "--seed", "21"]
    out1, out2, out4 = (tmp_path / f"s{i}.csv" for i in (1, 2, 4))
    assert main(args + ["--threads", "1", "--out", str(out1)]) == 0
    assert main(args + ["--threads", "1", "--out", str(out2)]) == 0
    assert main(args + ["--threads", "4", "--out", str(out4)]) == 0
    assert out1.read_bytes() == out2.read_bytes() == out4.read_bytes()


def test_sweep_exact_zero_error_with_identity(tmp_path):
    cfg = fs.SystemConfig(
        num_classes=2,
        confusion=fs.ConfusionMatrix.identity(2),
        users=(fs.UserProfile(1, 2), fs.UserProfile(2, 1)),
    )
    path = write_config(tmp_path / "ident.json", cfg)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", path, "--c-range", "1:2", "--d-list", "1",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "c,d,expected_payoff,payoff_stderr,error_rate,error_stderr"
    assert len(lines) == 3
    assert all(line.split(",")[4] == "0" for line in lines[1:])


def test_sweep_uses_experiment_section(tmp_path):
    cfg = helpers.symmetric_binary_config([2, 1])
    doc = json.loads(json.dumps(fs.model.config_to_dict(cfg)))
    doc["experiment"] = {"focal_user": 1, "c_values": [1, 2], "d_values": [1.0, 2.0]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(path), "--out", str(out)]) == 0
    assert len(out.read_text().strip().split("\n")) == 5  # header + 2x2 grid


def test_estimate_cm_round_trip(tmp_path, capsys):
    csv_path = tmp_path / "records.csv"
    csv_path.write_text(
        "task_id,annotator_id,label,gold_label\n"
        "t1,a,1,1\nt2,a,2,2\nt3,b,1,1\nt4,b,2,2\n"
    )
    out = tmp_path / "fragment.json"
    code = main(["estimate-cm", str(csv_path), "--k", "2", "--out", str(out)])
    assert code == 0
    fragment = json.loads(out.read_text())
    assert fragment["num_classes"] == 2
    assert fragment["confusion"] == [[1.0, 0.0], [0.0, 1.0]]
    report = json.loads(capsys.readouterr().out)
    assert report["kept_records"] == 4


def test_estimate_cm_manifest_names_the_records_file(tmp_path):
    csv_path = tmp_path / "records.csv"
    csv_path.write_text("task_id,annotator_id,label,gold_label\nt1,a,1,1\nt2,a,2,2\n")
    out = tmp_path / "fragment.json"
    assert main(["estimate-cm", str(csv_path), "--k", "2", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "fragment.json.manifest.json").read_text())
    assert manifest.keys() == {"command", "records_path", "seed", "tool_version",
                               "timestamp"}
    assert manifest["command"] == "estimate-cm"
    assert manifest["records_path"] == str(csv_path)


def test_estimate_cm_without_gold_exits_1(tmp_path, capsys):
    csv_path = tmp_path / "records.csv"
    csv_path.write_text("task_id,annotator_id,label,gold_label\nt1,a,1,\n")
    assert main(["estimate-cm", str(csv_path), "--k", "2"]) == 1
    assert "gold" in capsys.readouterr().err


def test_estimate_cm_short_row_exits_1(tmp_path, capsys):
    csv_path = tmp_path / "records.csv"
    csv_path.write_text("task_id,annotator_id,label,gold_label\nt1,a1,1,1\nt2,a2\n")
    assert main(["estimate-cm", str(csv_path), "--k", "5"]) == 1
    err = capsys.readouterr().err
    assert err == "error: line 3: expected 4 fields, got 2\n"


def test_estimate_cm_field_over_the_csv_limit_names_its_line(tmp_path, capsys):
    """A field longer than the csv module's limit is a row error like any
    other; the quoted newline before it counts as a physical line."""
    csv_path = tmp_path / "records.csv"
    csv_path.write_text("task_id,annotator_id,label,gold_label\n"
                        f't1,"a\nb",1,1\nt2,{"x" * 200_000},1,1\n')
    assert main(["estimate-cm", str(csv_path), "--k", "2"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: line 4: field larger than field limit ({csv.field_size_limit()})\n"


@pytest.mark.parametrize("line", [3, 3001])
def test_estimate_cm_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, capsys, line):
    """The text reader fails on a whole buffer before csv sees its rows; the
    error still names the physical line that holds the byte."""
    csv_path = tmp_path / "records.csv"
    rows = "".join(f"t{i},a{i % 7},1,1\n" for i in range(1, line - 1))
    csv_path.write_bytes(f"task_id,annotator_id,label,gold_label\n{rows}".encode()
                         + b"t2,\xff\xfe,1,1\n")
    assert main(["estimate-cm", str(csv_path), "--k", "2"]) == 1
    assert capsys.readouterr().err == (f"error: line {line}: 'utf-8' codec can't decode "
                                       "byte 0xff in position 3: invalid start byte\n")


def test_estimate_cm_names_a_row_error_before_a_byte_that_is_not_utf8(tmp_path, capsys):
    csv_path = tmp_path / "records.csv"
    csv_path.write_bytes(b"task_id,annotator_id,label,gold_label\nt1,a1,9,1\nt2,\xff,1,1\n")
    assert main(["estimate-cm", str(csv_path), "--k", "2"]) == 1
    assert capsys.readouterr().err == "error: line 2: label 9 out of range [1, 2]\n"


@pytest.mark.parametrize("start,end", [(b"", b"\r"), (b"\xef\xbb\xbf", b"\r\n")],
                         ids=["cr", "bom-crlf"])
def test_estimate_cm_row_errors_name_lines_after_any_line_end_and_a_bom(
        tmp_path, capsys, start, end):
    csv_path = tmp_path / "records.csv"
    rows = [b"task_id,annotator_id,label,gold_label", b"t1,a1,1,1", b"t2,a2,9,1", b""]
    csv_path.write_bytes(start + end.join(rows))
    assert main(["estimate-cm", str(csv_path), "--k", "2"]) == 1
    assert capsys.readouterr().err == "error: line 3: label 9 out of range [1, 2]\n"


@pytest.mark.parametrize("k", ["0", "1", "-3"])
def test_estimate_cm_k_below_two_exits_1_before_reading(tmp_path, capsys, k):
    # the records file does not exist, so reading it would exit 2
    code = main(["estimate-cm", str(tmp_path / "absent.csv"), "--k", k])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: --k must be at least 2, got {k}\n"


def test_estimate_cm_label_map(tmp_path):
    csv_path = tmp_path / "records.csv"
    csv_path.write_text(
        "task_id,annotator_id,label,gold_label\nt1,a,yes,yes\nt2,a,no,no\n"
    )
    out = tmp_path / "fragment.json"
    code = main(
        ["estimate-cm", str(csv_path), "--k", "2",
         "--label-map", '{"yes": 1, "no": 2}', "--out", str(out)]
    )
    assert code == 0
    assert json.loads(out.read_text())["confusion"] == [[1.0, 0.0], [0.0, 1.0]]


def test_estimate_cm_label_missing_from_the_label_map_exits_1(tmp_path, capsys):
    csv_path = tmp_path / "records.csv"
    csv_path.write_text(
        "task_id,annotator_id,label,gold_label\nt1,a,yes,yes\nt2,a,maybe,no\n"
    )
    code = main(["estimate-cm", str(csv_path), "--k", "2",
                 "--label-map", '{"yes": 1, "no": 2}'])
    assert code == 1
    assert capsys.readouterr().err == "error: line 3: label 'maybe' missing from label map\n"


def assert_one_line_exit_2(code, capsys, field):
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and field in err


@pytest.mark.parametrize("experiment,field", [
    ([1, 2], "experiment"),
    (5, "experiment"),
    ({"c_values": 3}, "c_values"),
    ({"c_values": [None]}, "c_values"),
    ({"d_values": "2.28"}, "d_values"),
    ({"d_values": [[2.28]]}, "d_values"),
    ({"samples": None}, "samples"),
    ({"seed": None}, "seed"),
    ({"samples": 2.7}, "samples"),
    ({"samples": "1000"}, "samples"),
    ({"samples": True}, "samples"),
    ({"seed": True}, "seed"),
    ({"seed": 1.5}, "seed"),
    ({"c_values": [1.5, 2]}, "c_values"),
    ({"c_values": ["3"]}, "c_values"),
    ({"c_values": [True]}, "c_values"),
    ({"d_values": ["2.28"]}, "d_values"),
])
def test_sweep_ill_formed_experiment_exits_2(tmp_path, capsys, ref_config_path,
                                             experiment, field):
    doc = json.loads(ref_config_path.read_text())
    doc["experiment"] = experiment
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    code = main(["sweep", str(path), "--out", str(tmp_path / "sweep.csv")])
    assert_one_line_exit_2(code, capsys, field)


@pytest.mark.parametrize("prior", [{"a": 1}, "abc"], ids=["object", "string"])
@pytest.mark.parametrize("command", [
    ["validate"], ["payoff", "--user", "1"], ["solve-d"], ["sweep", "--out", "sweep.csv"]
], ids=lambda args: args[0])
def test_ill_formed_prior_exits_2(tmp_path, capsys, ref_config_path, command, prior):
    doc = json.loads(ref_config_path.read_text())
    doc["prior"] = prior
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    code = main([command[0], str(path), *command[1:]])
    assert_one_line_exit_2(code, capsys, "prior")


@pytest.mark.parametrize("label_map", ["[1]", '"x"', '{"yes": null}', '{"yes": true}',
                                       '{"yes": 1.7}', '{"yes": "1"}'])
def test_estimate_cm_ill_formed_label_map_exits_2(tmp_path, capsys, label_map):
    csv_path = tmp_path / "records.csv"
    csv_path.write_text("task_id,annotator_id,label,gold_label\nt1,a,yes,yes\n")
    code = main(["estimate-cm", str(csv_path), "--k", "2", "--label-map", label_map])
    assert_one_line_exit_2(code, capsys, "--label-map")


def test_sweep_options_replace_ill_formed_experiment_values(tmp_path):
    """--c-range and --d-list replace the section's values before any check."""
    doc = fs.model.config_to_dict(helpers.symmetric_binary_config([2, 1]))
    doc["experiment"] = {"c_values": 3, "d_values": "x"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(path), "--c-range", "1:2", "--d-list", "1",
                 "--out", str(out)]) == 0
    assert len(out.read_text().strip().split("\n")) == 3


@pytest.mark.parametrize("smoothing", ["nan", "inf"])
def test_estimate_cm_non_finite_smoothing_exits_1(tmp_path, capsys, smoothing):
    csv_path = tmp_path / "records.csv"
    csv_path.write_text("task_id,annotator_id,label,gold_label\nt1,a,1,1\nt2,a,2,2\n")
    out = tmp_path / "fragment.json"
    code = main(["estimate-cm", str(csv_path), "--k", "2", "--smoothing", smoothing,
                 "--out", str(out)])
    assert code == 1
    assert "smoothing" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("user_id", [None, "1", [1]], ids=["null", "string", "list"])
def test_non_integer_user_id_exits_1(tmp_path, capsys, user_id):
    doc = fs.model.config_to_dict(helpers.symmetric_binary_config([2, 1]))
    doc["users"][0]["id"] = user_id
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    assert f"user id {user_id!r} is not an integer" in capsys.readouterr().out
    assert main(["solve-d", str(path)]) == 1
    assert capsys.readouterr().err == f"error: user id {user_id!r} is not an integer\n"


@pytest.mark.parametrize("option,value", [
    ("--c-range", "3:"), ("--c-range", "a,b"), ("--d-list", "x"),
])
def test_sweep_ill_formed_option_exits_2(trio_path, tmp_path, capsys, option, value):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", trio_path, option, value, "--out", str(out)])
    assert_one_line_exit_2(code, capsys, option)
    assert not out.exists()


@pytest.mark.parametrize("hi", [3_000_000, 10**12])
def test_wide_c_range_exits_1_at_once(tmp_path, capsys, ref_config_path, hi):
    """A --c-range stays a range until its counts are checked, so a range far
    wider than the stake is refused at its first infeasible count."""
    out = tmp_path / "sweep.csv"
    start = time.process_time()
    code = main(["sweep", str(ref_config_path), "--c-range", f"1:{hi}", "--out", str(out)])
    assert time.process_time() - start < 0.5
    assert code == 1
    assert capsys.readouterr().err == "error: c=9 infeasible for user 1 with stake 8\n"
    assert not out.exists()


@pytest.mark.parametrize("focal_user", ["1", True, 1.0], ids=["string", "bool", "float"])
def test_sweep_non_integer_focal_user_exits_2(tmp_path, capsys, ref_config_path, focal_user):
    doc = json.loads(ref_config_path.read_text())
    doc["experiment"]["focal_user"] = focal_user
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "sweep.csv"
    code = main(["sweep", str(path), "--out", str(out)])
    assert_one_line_exit_2(code, capsys, "experiment focal_user")
    assert not out.exists()


@pytest.mark.parametrize("command,named", [
    (["sweep", "--method", "mc", "--d-list", "1,nan"], "exponent"),
    (["sweep", "--method", "mc", "--d-list", "1,1e999"], "exponent"),
    (["sweep", "--method", "mc", "--seed", "-3"], "seed"),
    (["payoff", "--user", "1", "--method", "mc", "--seed", "-1"], "seed"),
], ids=["nan-d", "inf-d", "sweep-seed", "payoff-seed"])
def test_out_of_range_value_exits_1_before_sampling(tmp_path, capsys, monkeypatch,
                                                    ref_config_path, command, named):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the inputs were checked")

    monkeypatch.setattr(fs._montecarlo, "mc_rounds", no_sampling)
    out = ["--out", str(tmp_path / "sweep.csv")] if command[0] == "sweep" else []
    code = main([command[0], str(ref_config_path), *command[1:], *out])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err
    assert list(tmp_path.iterdir()) == []


def amt10_with_reward(tmp_path, ref_config_path, reward):
    doc = json.loads(ref_config_path.read_text())
    doc["total_reward"] = reward
    path = tmp_path / "reward.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("reward", [5e-324, 1e-320])
def test_validate_refuses_a_subnormal_reward(tmp_path, capsys, ref_config_path, reward):
    """A subnormal reward would give subnormal payoffs, whose gaps round away."""
    path = amt10_with_reward(tmp_path, ref_config_path, reward)
    assert main(["validate", path]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"violation: total reward {reward!r} is below the smallest normal float "
        "2.2250738585072014e-308", "valid: no", "weakly accurate: yes"]


def test_the_smallest_normal_reward_is_accepted(tmp_path, capsys, ref_config_path):
    path = amt10_with_reward(tmp_path, ref_config_path, 2.2250738585072014e-308)
    assert main(["validate", path]) == 0
    assert main(["solve-d", path]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "d_opt=2.28 checks=45 satisfied=yes"


@pytest.mark.parametrize("command,message", [
    (["payoff", "--user", "1", "--c", "2", "--method", "mc", "--samples", "1"],
     "a standard error needs at least 2 samples, got 1"),
    (["sweep", "--method", "mc", "--samples", "1"], "experiment samples must be >= 2, got 1"),
], ids=["payoff", "sweep"])
def test_one_sample_has_no_standard_error(tmp_path, capsys, ref_config_path, command, message):
    out = ["--out", str(tmp_path / "sweep.csv")] if command[0] == "sweep" else []
    code = main([command[0], str(ref_config_path), *command[1:], *out])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []
