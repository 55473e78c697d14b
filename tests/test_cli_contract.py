"""The sweep's input contract as a property: every input ends in exit 0, 1 or 2.

Small random networks carry an `experiment` section whose fields, like the
`--c-range`, `--d-list`, `--samples` and `--seed` flags, take values of every
JSON kind. A run either writes a CSV of finite numbers or exits 1 or 2 with
exactly one `error:` line and no output or temporary file.
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
def sweeps(draw):
    """A config document of at most 6 users, stakes at most 4 and K at most 4,
    and sweep flags, all well formed (a c may exceed the focal stake); at most
    one experiment field or flag then takes a value of any JSON kind."""
    k = draw(st.integers(2, 4))
    stakes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    accuracy = draw(st.floats(0.4, 0.95))
    confusion = [[accuracy if i == j else (1 - accuracy) / (k - 1) for j in range(k)]
                 for i in range(k)]
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
    doc = {
        "num_classes": k,
        "confusion": confusion,
        "users": [{"id": i + 1, "stake": s} for i, s in enumerate(stakes)],
        "experiment": experiment,
    }
    return doc, flags


def run(argv):
    """`main`'s exit code and stderr. argparse rejects a flag value of the
    wrong kind with SystemExit(2), the exit status of the command."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


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
        code, err = run(argv)
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
