"""The CLI's input contract as a property: every input ends in exit 0, 1 or 2.

Small random networks carry an `experiment` section whose fields, like the
`--c-range`, `--d-list`, `--samples` and `--seed` flags, take values of every
JSON kind. A sweep either writes a CSV of finite numbers or exits 1 or 2 with
exactly one `error:` line and no output or temporary file. `payoff` on the
same networks, with one of its flags of any JSON kind, prints a finite
payoff or exits 1 or 2 the same way. amt10 with one top-level field, or one
confusion or prior entry, of any JSON kind goes through `validate` and
`payoff` the same way.
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
    """A `networks` document and well-formed payoff flags (`--c` may exceed the
    user's stake); at most one flag then takes a value of any JSON kind."""
    doc = draw(networks())
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
        fields = dict(field.split("=") for field in out.split())
        assert math.isfinite(float(fields["expected_payoff"])), out
        assert math.isfinite(float(fields["std_error"])), out


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
        for argv in (["validate", str(config)], ["payoff", str(config), "--user", "1"]):
            code, out, err = run(argv)
            assert code in (0, 1, 2), err
            if refused:
                assert code == 2 and refused in err, (argv, err)
            if code == 2 or (code == 1 and argv[0] == "payoff"):
                assert err.startswith("error: ") and err.count("\n") == 1, err
            elif code == 1:
                assert "valid: no" in out and not err
            elif argv[0] == "payoff":
                value = float(out.split()[0].removeprefix("expected_payoff="))
                assert math.isfinite(value)
