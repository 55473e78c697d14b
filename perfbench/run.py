#!/usr/bin/env python3
"""Run one workload of the feedsim benchmark and print its metrics.

Usage:
    python3 perfbench/run.py --workload amt10-exact --seed 1 --seconds 30 --trace 0

feedsim is imported from src/ of the checkout that holds this file; nothing
is built or installed. Inputs are made from --seed before timing starts.
Each pass starts from a fresh import of feedsim, so no cache survives from
one pass to the next, as with separate command-line runs. Passes repeat until
the next one would overrun --seconds (a run always makes at least one), and
every answer is checked against the reference answers in reference.json.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. A traced run alternates untraced and traced passes;
the per-layer numbers come from spans of the traced passes, the phase timings
from the untraced ones, and the tracing overhead is the difference between
the two pass times. The spans are written to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 15

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Op, Workload  # noqa: E402


def _forget_feedsim() -> None:
    for name in [m for m in sys.modules if m == "feedsim" or m.startswith("feedsim.")]:
        del sys.modules[name]
    gc.collect()


def fresh_feedsim():
    """Import feedsim anew, dropping every module-level cache of the last import."""
    _forget_feedsim()
    return importlib.import_module("feedsim")


def setup_seconds(paths: list[Path]) -> float:
    """Import, load_config and require_valid over the workload's configs."""
    _forget_feedsim()
    start = time.perf_counter()
    fs = importlib.import_module("feedsim")
    for path in paths:
        fs.require_valid(fs.load_config(path))
    return time.perf_counter() - start


@dataclass
class Pass:
    seconds: float
    ops: list[Op]
    tracer: Tracer | None


def run_passes(workload: Workload, seconds: float, trace: bool) -> list[Pass]:
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        fs = fresh_feedsim()
        tracer = None
        if trace and len(passes) % 2 == 1:
            tracer = Tracer()
            tracer.install(fs)
        began = time.perf_counter()
        ops = workload.answer(fs)
        passes.append(Pass(time.perf_counter() - began, ops, tracer))
        elapsed = time.perf_counter() - start
        if len(passes) >= (2 if trace else 1) and \
                elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced pass."""
    engine = t.named("enumeration.payoffs") + t.named("enumeration.error_rates")
    engine_wall = sum(s.seconds for s in engine)
    return {
        "model.load_validate_s": sum(t.total(f"model.{f}") for f in
                                     ("load_config", "require_valid", "validate_config")),
        "model.configs": len(t.named("model.load_config")),
        "enumeration.payoffs_s": median(s.seconds for s in t.named("enumeration.payoffs")),
        "enumeration.payoffs_calls": len(t.named("enumeration.payoffs")),
        "enumeration.error_rates_s": median(
            s.seconds for s in t.named("enumeration.error_rates")),
        "enumeration.error_rates_calls": len(t.named("enumeration.error_rates")),
        "enumeration.terms": t.count("enumeration.payoffs", "terms")
        + t.count("enumeration.error_rates", "terms"),
        "enumeration.cpu_per_wall": sum(s.cpu for s in engine) / engine_wall
        if engine_wall else 0.0,
        "solver.self_s": t.self_time("solver.find_d_opt"),
        "solver.grid_points": t.count("solver.find_d_opt", "grid_points"),
        "solver.checks": t.count("solver.find_d_opt", "checks"),
        "metrics.run_experiment_self_s": t.self_time("metrics.run_experiment"),
        "metrics.write_csv_s": t.total("metrics.write_sweep_csv"),
        "metrics.csv_bytes": t.count("metrics.write_sweep_csv", "bytes"),
        "payoff.mc_s": t.total("payoff.expected_payoff_mc"),
        "metrics.error_rate_mc_s": t.total("metrics.error_rate_mc"),
        "mc.samples": t.count("payoff.expected_payoff_mc", "samples")
        + t.count("metrics.error_rate_mc", "samples"),
        "ingest.read_s": t.total("ingest.read_annotation_csv"),
        "ingest.estimate_s": t.total("ingest.estimate_confusion"),
        "ingest.records_read": t.count("ingest.read_annotation_csv", "records"),
        "ingest.records_dropped": t.count("ingest.estimate_confusion", "dropped"),
        "trace.spans": len(t.spans),
    }


def build_probe(workload: Workload) -> float:
    """Exact-engine build: a first payoff query on a cold engine minus the
    same query repeated, summed over the workload's exact configs."""
    paths = workload.exact_configs()
    if not paths:
        return 0.0
    fs = fresh_feedsim()
    total = 0.0
    for path in paths:
        config = fs.load_config(path)
        query = fs.PayoffQuery(config, 1, fs.Strategy.single(config.user(1).total_stake), 1.0)
        times = []
        for _ in range(2):
            start = time.perf_counter()
            fs.expected_payoff_exact(query)
            times.append(time.perf_counter() - start)
        total += times[0] - times[1]
    return total


def scalar_probe(workload: Workload, seed: int) -> dict[str, float]:
    """Median microseconds of one scalar majority_vote and settle_round."""
    if not workload.scalar_rounds:
        return {"aggregation.majority_vote_us": 0.0, "incentive.settle_round_us": 0.0}
    fs = fresh_feedsim()
    tracer = Tracer()
    tracer.install(fs)
    workload.scalar_rounds_run(fs, np.random.default_rng(seed))
    return {"aggregation.majority_vote_us": tracer.median_us("aggregation.majority_vote"),
            "incentive.settle_round_us": tracer.median_us("incentive.settle_round")}


def git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def machine(fs) -> dict:
    resolve = getattr(getattr(fs, "enumeration", None), "resolve_threads", None)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(ROOT),
        "engine_threads": resolve(None) if resolve else None,
    }


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workload = WORKLOADS[name](ROOT, Path(tmp), seed, tiny)
        workload.prepare(fresh_feedsim())
        setup = [setup_seconds(workload.config_paths()) for _ in range(SETUP_REPEATS)]
        passes = run_passes(workload, seconds, trace)
        if trace:
            probes = {"enumeration.build_s": build_probe(workload),
                      **scalar_probe(workload, seed)}
        ops = [op for p in passes for op in p.ops]
        failed = 0
        for op in ops:
            try:
                problems = [f"raised:\n{op.error}"] if op.error else workload.problems(op)
            except Exception:  # a malformed answer fails its gate, not the run
                problems = [f"gate raised:\n{traceback.format_exc()}"]
            if problems:
                failed += 1
                print(f"{name} {op.name} failed: " + "; ".join(problems[:5]), file=sys.stderr)
    record = {"workload": name, "seed": seed, "trace": trace,
              "machine": machine(fresh_feedsim()),
              "pass_seconds": [p.seconds for p in passes],
              "traced": [p.tracer is not None for p in passes]}
    print(json.dumps(record))
    plain = [p for p in passes if p.tracer is None]
    if trace:
        traced = [p for p in passes if p.tracer is not None]
        per_pass = [layer_metrics(p.tracer) for p in traced]
        metrics = {key: median(m[key] for m in per_pass) for key in per_pass[0]}
        phases = [workload.phases(p.ops) for p in plain]
        for key in ("solve_s", "sweep_s", "mc_samples_per_s", "ingest_records_per_s",
                    "networks_per_s"):
            metrics[key] = median(ph[key] for ph in phases if key in ph)
        metrics.update(probes)
        metrics["trace.overhead_s"] = (median(p.seconds for p in traced)
                                       - median(p.seconds for p in plain))
        missing = sorted({m for p in traced for m in p.tracer.missing})
        (OUT_DIR / f"trace-{name}-seed{seed}.json").write_text(json.dumps({
            **record, "untraced_targets": missing,
            "spans": [p.tracer.to_json() for p in traced]}))
    else:
        metrics = {
            "time_to_answer_s": median(p.seconds for p in plain),
            "setup_s": median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(declared) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(declared)}")
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in declared.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "feedsim" / "__init__.py").is_file():
        print(f"perfbench: no feedsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
