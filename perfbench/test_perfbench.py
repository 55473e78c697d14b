"""Self-test of the benchmark: tiny runs, gates that reject perturbed answers,
and seeded generators. Run from the repository root with

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import run as bench
import workloads as wl

sys.path.insert(0, str(bench.SRC))

import feedsim as fs  # noqa: E402

REF = wl.load_reference()
AMT10 = REF["amt10"]


@pytest.fixture
def scratch():
    bench.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bench.OUT_DIR) as tmp:
        yield Path(tmp)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_tiny_run_is_correct_and_reports_every_metric(name, trace):
    result = bench.run(name, seed=3, seconds=0, trace=trace, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert list(result["metrics"]) == [
        m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert all(isinstance(m["value"], float | int) for m in result["metrics"].values())


# -- gates ---------------------------------------------------------------------

def _certificate(bump: float = 0.0):
    return SimpleNamespace(satisfied=True, checks=tuple(
        SimpleNamespace(user_id=n, oracle_count=c, payoff_single=s, payoff_mirror=m + bump)
        for n, c, s, m in AMT10["certificate"]))


def test_solve_gate_accepts_either_spelling_of_the_grid_value():
    below = (AMT10["below"]["payoff_single"], AMT10["below"]["payoff_mirror"])
    for d in (AMT10["d_opt"], 2.28, 2.2800000000000002):
        assert wl.solve_problems(AMT10, d, _certificate(), below) == []


def test_solve_gate_rejects_perturbed_answers():
    below = (AMT10["below"]["payoff_single"], AMT10["below"]["payoff_mirror"])
    step = AMT10["epsilon"]
    for d in (AMT10["d_opt"] + step, AMT10["d_opt"] - step):
        assert wl.solve_problems(AMT10, d, _certificate(), below)
    assert wl.solve_problems(AMT10, AMT10["d_opt"], _certificate(1e-9), below)
    assert wl.solve_problems(AMT10, AMT10["d_opt"], _certificate(), (below[0], below[1] + 1e-9))
    unsatisfied = SimpleNamespace(satisfied=False, checks=_certificate().checks)
    assert wl.solve_problems(AMT10, AMT10["d_opt"], unsatisfied, below)


def _sweep(payoff_bump: float = 0.0, error_bump: float = 0.0):
    rows = [fs.SweepRow(c, d, payoff + payoff_bump, 0.0, error + error_bump, 0.0)
            for column, d in (("d1", 1.0), ("d_opt", AMT10["d_opt"]))
            for c, (payoff, error) in zip(wl.SWEEP_C, AMT10["sweep"][column])]
    return wl.SWEEP_C, rows, fs.metrics.sweep_rows_to_csv(rows)


def test_sweep_gate_rejects_perturbed_answers():
    assert wl.sweep_problems(AMT10, *_sweep()) == []
    assert wl.sweep_problems(AMT10, *_sweep(payoff_bump=1e-9))
    assert wl.sweep_problems(AMT10, *_sweep(error_bump=1e-9))
    c_values, rows, text = _sweep()
    assert wl.sweep_problems(AMT10, c_values, rows, text.replace("\n8,1,", "\n8,1.5,"))
    assert wl.sweep_problems(AMT10, c_values, rows[:-1], text)
    lines = text.splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0]
    assert wl.sweep_problems(AMT10, c_values, rows, "\n".join(lines))


def test_mc_gate_is_three_standard_errors():
    assert wl.mc_problems(0.5 + 2.9e-3, 1e-3, 0.5, "payoff") == []
    assert wl.mc_problems(0.5 - 3.1e-3, 1e-3, 0.5, "payoff")
    assert wl.mc_problems(0.5, 0.0, 0.5, "payoff")


def test_ingest_gate_rejects_perturbed_answers():
    matrix = np.full((2, 2), 0.5)
    expected = {"matrix": matrix, "records": 10}
    report = SimpleNamespace(dropped_annotators=(wl.LURKER,), total_records=10,
                             dropped_records=wl.LURKER_RECORDS)
    assert wl.ingest_problems(expected, matrix, report) == []
    assert wl.ingest_problems(expected, matrix + 1e-9, report)
    kept = SimpleNamespace(dropped_annotators=(), total_records=10, dropped_records=0)
    assert wl.ingest_problems(expected, matrix, kept)


def test_network_gate_rejects_perturbed_answers():
    ref = REF["small_networks"]
    key, (index, error) = next(iter(ref["networks"].items()))
    d = 1.0 + index * ref["epsilon"]
    assert wl.network_problems(ref, key, True, d, True, error) == []
    assert wl.network_problems(ref, key, True, d + ref["epsilon"], True, error)
    assert wl.network_problems(ref, key, True, d, True, error + 1e-9)
    assert wl.network_problems(ref, key, False, d, True, error)


# -- seeded inputs -------------------------------------------------------------

def test_one_seed_always_makes_the_same_population():
    first, again, other = wl.population(7, 8), wl.population(7, 8), wl.population(8, 8)
    assert first == again and first != other
    assert [wl.network_doc(*key) for key in first] == [wl.network_doc(*key) for key in again]
    assert len(first) == 8 * len(wl.NETWORK_USERS) * len(wl.NETWORK_CLASSES)
    assert {wl.network_key(*key) for key in first} <= set(REF["small_networks"]["networks"])


def test_one_seed_always_makes_the_same_annotations(scratch):
    texts = []
    for seed, sub in ((7, "a"), (7, "b"), (8, "c")):
        (scratch / sub).mkdir()
        workload = wl.Amt10Sample(bench.ROOT, scratch / sub, seed, tiny=True)
        workload.prepare(fs)
        texts.append(workload.csv_path.read_bytes())
    assert texts[0] == texts[1] != texts[2]


def test_refuses_to_run_without_the_program(scratch):
    shutil.copy(bench.ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(bench.ROOT / "perfbench", scratch / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-networks",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=scratch, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
