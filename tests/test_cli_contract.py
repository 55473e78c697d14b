"""The CLI's input contract as a property: every input ends in exit 0, 1 or 2.

Small random networks carry an `experiment` section whose fields, like the
`--c-range`, `--d-list`, `--samples` and `--seed` flags, take values of every
JSON kind. A sweep either writes a CSV of finite numbers or exits 1 or 2 with
exactly one `error:` line and no output or temporary file. `payoff` on the
same networks, with a total reward R and one of its flags of any JSON kind,
prints a payoff in [0, R] or exits 1 or 2 the same way. amt10 with one top-level field, or one
confusion or prior entry, of any JSON kind goes through `validate`, `payoff`
and `solve-d` the same way. So do `validate` (with and without
`--renormalize`) on small networks with one field of any JSON kind, `solve-d`
with its flags on small networks, and `estimate-cm` with its flags on small
annotation files; a certificate, diagnostics or confusion matrix they write
holds only finite numbers.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from feedsim.cli import main

AMT10 = Path(__file__).resolve().parent.parent / "configs" / "amt10.json"

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 6),
    st.floats(-2.0, 1e3),
    st.sampled_from([math.nan, math.inf, -math.inf, 1.5, 2.28]),
    st.text(alphabet="0123456789.-:,ae", max_size=4),
)
JSON_VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=3),
    st.dictionaries(st.text(alphabet="abc1", max_size=2), SCALARS, max_size=2),
)


EXPERIMENT = {
    "c_values": st.lists(st.integers(1, 4), min_size=1, max_size=3),
    "d_values": st.lists(st.floats(1.0, 6.0), min_size=1, max_size=3),
    "method": st.sampled_from(["exact", "mc", "monte_carlo"]),
    "seed": st.integers(0, 2**64),
}
FLAGS = {
    "--c-range": st.builds("1:{}".format, st.integers(1, 4)),
    "--d-list": st.lists(st.floats(1.0, 6.0), min_size=1, max_size=3).map(
        lambda ds: ",".join(map(str, ds))),
    "--samples": st.integers(1, 500).map(str),
    "--seed": st.integers(0, 2**40).map(str),
    "--method": st.sampled_from(["exact", "mc", "monte_carlo"]),
}


@st.composite
def networks(draw):
    """A config document of at most 6 users, stakes at most 4 and K at most 4."""
    k = draw(st.integers(2, 4))
    stakes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    accuracy = draw(st.floats(0.4, 0.95))
    confusion = [[accuracy if i == j else (1 - accuracy) / (k - 1) for j in range(k)]
                 for i in range(k)]
    return {
        "num_classes": k,
        "confusion": confusion,
        "users": [{"id": i + 1, "stake": s} for i, s in enumerate(stakes)],
    }


@st.composite
def sweeps(draw):
    """A `networks` document with an experiment section, and sweep flags, all
    well formed (a c may exceed the focal stake); at most one experiment field
    or flag then takes a value of any JSON kind."""
    doc = draw(networks())
    stakes = [user["stake"] for user in doc["users"]]
    experiment = draw(st.fixed_dictionaries(
        # samples is always present: the 10^6 default would take too long
        {"samples": st.integers(1, 500)},
        optional={"focal_user": st.integers(1, len(stakes)), **EXPERIMENT},
    ))
    flags = draw(st.fixed_dictionaries({}, optional=FLAGS))
    spot = draw(st.none() | st.sampled_from(["samples", "focal_user", *EXPERIMENT, *FLAGS]))
    if spot in FLAGS:
        flags[spot] = json.dumps(draw(JSON_VALUES))
    elif spot:
        experiment[spot] = draw(JSON_VALUES)
    doc["experiment"] = experiment
    return doc, flags


def run(argv):
    """`main`'s exit code, stdout and stderr. argparse rejects a flag value of
    the wrong kind with SystemExit(2), the exit status of the command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, deadline=None, max_examples=100)
@given(sweep=sweeps())
def test_sweep_ends_in_0_1_or_2(sweep):
    doc, flags = sweep
    with tempfile.TemporaryDirectory() as scratch:
        config = Path(scratch) / "cfg.json"
        config.write_text(json.dumps(doc))
        out_dir = Path(scratch) / "out"
        out_dir.mkdir()
        out = out_dir / "sweep.csv"
        argv = ["sweep", str(config), *(f"{flag}={value}" for flag, value in flags.items()),
                "--out", str(out)]
        code, _, err = run(argv)
        assert code in (0, 1, 2), err
        if code:
            assert sum("error:" in line for line in err.splitlines()) == 1, err
            assert list(out_dir.iterdir()) == []
        else:
            rows = out.read_text().splitlines()[1:]
            assert rows
            assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))
            assert sorted(p.name for p in out_dir.iterdir()) == [
                "sweep.csv", "sweep.csv.manifest.json"]


@st.composite
def payoffs(draw):
    """A `networks` document with a total reward, and well-formed payoff flags
    (`--c` may exceed the user's stake); at most one flag then takes a value of
    any JSON kind."""
    doc = {**draw(networks()), "total_reward": draw(st.sampled_from([1e-3, 1, 7.5, 1e300]))}
    flags = draw(st.fixed_dictionaries(
        # --user is required, and --samples always given: the 10^6 default
        # would take too long
        {"--user": st.integers(1, len(doc["users"])).map(str),
         "--samples": FLAGS["--samples"]},
        optional={"--c": st.integers(1, 4).map(str),
                  "--d": st.floats(1.0, 6.0).map(str),
                  "--method": FLAGS["--method"],
                  "--seed": FLAGS["--seed"]},
    ))
    spot = draw(st.none() | st.sampled_from(
        ["--user", "--c", "--d", "--method", "--samples", "--seed"]))
    if spot:
        flags[spot] = json.dumps(draw(JSON_VALUES))
    return doc, flags


@settings(derandomize=True, deadline=None, max_examples=80)
@given(case=payoffs())
def test_payoff_ends_in_0_1_or_2(case):
    doc, flags = case
    with tempfile.TemporaryDirectory() as scratch:
        config = Path(scratch) / "cfg.json"
        config.write_text(json.dumps(doc))
        argv = ["payoff", str(config), *(f"{flag}={value}" for flag, value in flags.items())]
        code, out, err = run(argv)
    assert code in (0, 1, 2), err
    if code:
        assert sum("error:" in line for line in err.splitlines()) == 1, err
    else:
        # a sole winner earns R, printed to 12 significant digits
        fields = dict(field.split("=") for field in out.split())
        assert 0 <= float(fields["expected_payoff"]) <= float(f"{doc['total_reward']:.12g}"), out
        assert 0 <= float(fields["std_error"]) < math.inf, out


@st.composite
def amt10_docs(draw):
    """amt10's document, its prior written out, with one top-level field or
    one confusion or prior entry replaced by a value of any JSON kind; the
    second item names the field when that value is an entry that is not a
    number."""
    doc = json.loads(AMT10.read_text())
    doc["prior"] = [0.2] * 5
    spot = draw(st.sampled_from(["num_classes", "confusion", "users", "prior",
                                 "total_reward", "confusion entry", "prior entry"]))
    value = draw(JSON_VALUES)
    if spot == "confusion entry":
        doc["confusion"][draw(st.integers(0, 4))][draw(st.integers(0, 4))] = value
    elif spot == "prior entry":
        doc["prior"][draw(st.integers(0, 4))] = value
    else:
        doc[spot] = value
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return doc, spot.split()[0] if spot.endswith("entry") and not number else None


@settings(derandomize=True, deadline=None, max_examples=60)
@given(case=amt10_docs())
def test_amt10_with_a_wrong_kind_field_ends_in_0_1_or_2(case):
    doc, refused = case
    with tempfile.TemporaryDirectory() as scratch:
        config = Path(scratch) / "cfg.json"
        config.write_text(json.dumps(doc))
        for argv in (["validate", str(config)], ["payoff", str(config), "--user", "1"],
                     ["solve-d", str(config), "--epsilon", "0.1"]):
            code, out, err = run(argv)
            assert code in (0, 1, 2), err
            if refused:
                assert code == 2 and refused in err, (argv, err)
            if code == 2 or (code == 1 and argv[0] != "validate"):
                assert err.startswith("error: ") and err.count("\n") == 1, err
            elif code == 1:
                assert "valid: no" in out and not err
            elif argv[0] == "payoff":
                value = float(out.split()[0].removeprefix("expected_payoff="))
                assert math.isfinite(value)
            elif argv[0] == "solve-d":
                assert out.startswith("d_opt=") and out.endswith(" satisfied=yes\n"), out


def numbers(doc):
    """Every number in a JSON document."""
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        return [x for item in doc for x in numbers(item)]
    return [doc] if isinstance(doc, (int, float)) and not isinstance(doc, bool) else []


def assert_one_error_line(out_dir, err):
    assert sum("error:" in line for line in err.splitlines()) == 1, err
    assert list(out_dir.iterdir()) == []


@st.composite
def validations(draw):
    """A `networks` document, as it is, with one confusion row scaled off unit
    sum, or with one top-level field of any JSON kind; and whether to pass
    `--renormalize`."""
    doc = draw(networks())
    spot = draw(st.sampled_from([None, "row", "num_classes", "confusion", "users", "prior",
                                 "total_reward"]))
    if spot == "row":
        row = draw(st.integers(0, doc["num_classes"] - 1))
        scale = draw(st.floats(0.5, 2.0))
        doc["confusion"][row] = [x * scale for x in doc["confusion"][row]]
    elif spot:
        doc[spot] = draw(JSON_VALUES)
    return doc, spot, draw(st.booleans())


@settings(derandomize=True, deadline=None, max_examples=100)
@given(case=validations())
def test_validate_ends_in_0_1_or_2(case):
    doc, spot, renormalize = case
    with tempfile.TemporaryDirectory() as scratch:
        config = Path(scratch) / "cfg.json"
        config.write_text(json.dumps(doc))
        code, out, err = run(["validate", str(config), *["--renormalize"] * renormalize])
    assert code in (0, 1, 2), err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert not err and out.splitlines()[-2] == f"valid: {'no' if code else 'yes'}", out
    if spot is None or (spot == "row" and renormalize):
        assert code == 0, out


# values that end a search before its first row; an --epsilon of 1e-6 or a
# --d-max of inf would walk millions of rows instead
ODD_GRID = ["nan", "-inf", "0", "-1", "0.5", "1e-13", "", "abc", "[1]", "null", "true"]


@st.composite
def solves(draw):
    """A `networks` document and solve-d flags. `--epsilon` and `--d-max` keep
    a search within 140 grid rows; at most one of them then takes an
    ill-formed or out-of-range value, or an `--epsilon` of 1e3 (one row)."""
    doc = draw(networks())
    flags = draw(st.fixed_dictionaries({}, optional={
        "--epsilon": st.floats(0.05, 1.0).map(str),
        "--d-max": st.floats(1.0, 8.0).map(str),
    }))
    flags.setdefault("--d-max", "8")  # the default 16 doubles an exhausted search
    spot = draw(st.none() | st.sampled_from(["--epsilon", "--d-max"]))
    if spot:
        extra = ["inf", "1e3"] if spot == "--epsilon" else []  # both end at once
        flags[spot] = draw(st.sampled_from([*ODD_GRID, *extra]))
    switches = draw(st.sets(st.sampled_from(["--from-oracle-stakes", "--diagnostics", "--out"])))
    return doc, flags, switches


@settings(derandomize=True, deadline=None, max_examples=40)
@given(case=solves())
def test_solve_d_ends_in_0_1_or_2(case):
    doc, flags, switches = case
    with tempfile.TemporaryDirectory() as scratch:
        config = Path(scratch) / "cfg.json"
        config.write_text(json.dumps(doc))
        out_dir = Path(scratch) / "out"
        out_dir.mkdir()
        files = {name: out_dir / f"{name.strip('-')}.json"
                 for name in ("--out", "--diagnostics") if name in switches}
        argv = ["solve-d", str(config), *(f"{flag}={value}" for flag, value in flags.items()),
                *["--from-oracle-stakes"] * ("--from-oracle-stakes" in switches),
                *(arg for name, path in files.items() for arg in (name, str(path)))]
        code, out, err = run(argv)
        assert code in (0, 1, 2), err
        if code:
            assert_one_error_line(out_dir, err)
            return
        assert out.startswith("d_opt=") and out.endswith(" satisfied=yes\n"), out
        for path in files.values():
            assert all(math.isfinite(x) for x in numbers(json.loads(path.read_text())))
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(
            name for path in files.values() for name in (path.name, f"{path.name}.manifest.json"))


@st.composite
def annotations(draw):
    """A small annotation CSV and well-formed estimate-cm flags. Task t has
    gold class t mod K + 1; labels are class indices, or words that
    `--label-map` maps to them. At most one flag then takes a value of any
    JSON kind."""
    k = draw(st.integers(2, 4))
    words = ["a", "b", "c", "d"][:k] if draw(st.booleans()) else None
    names = words or [str(j + 1) for j in range(k)]
    records = draw(st.lists(st.tuples(st.integers(0, 2 * k - 1), st.integers(1, 3),
                                      st.integers(0, k - 1)), min_size=1, max_size=12))
    text = "task_id,annotator_id,label,gold_label\n" + "".join(
        f"t{task},a{annotator},{names[label]},{names[task % k]}\n"
        for task, annotator, label in records)
    flags = draw(st.fixed_dictionaries({"--k": st.just(str(k))}, optional={
        "--min-participation": st.floats(0.05, 1.0).map(str),
        "--smoothing": st.floats(0.0, 2.0).map(str),
    }))
    if words:
        flags["--label-map"] = json.dumps({w: j + 1 for j, w in enumerate(words)})
    spot = draw(st.none() | st.sampled_from(
        ["--k", "--min-participation", "--smoothing", "--label-map"]))
    if spot:
        flags[spot] = json.dumps(draw(JSON_VALUES))
    return text, flags


@settings(derandomize=True, deadline=None, max_examples=100)
@given(case=annotations())
def test_estimate_cm_ends_in_0_1_or_2(case):
    text, flags = case
    with tempfile.TemporaryDirectory() as scratch:
        records = Path(scratch) / "records.csv"
        records.write_text(text)
        out_dir = Path(scratch) / "out"
        out_dir.mkdir()
        out = out_dir / "cm.json"
        argv = ["estimate-cm", str(records),
                *(f"{flag}={value}" for flag, value in flags.items()), "--out", str(out)]
        code, stdout, err = run(argv)
        assert code in (0, 1, 2), err
        if code:
            assert_one_error_line(out_dir, err)
            return
        report = json.loads(stdout)
        fragment = json.loads(out.read_text())
        assert fragment["num_classes"] == int(flags["--k"])
        assert all(math.isfinite(x) for x in numbers([report, fragment]))
