#!/usr/bin/env python3
"""Write perfbench/reference.json: the answers the benchmark gates on.

Runs the full d_opt search on amt10 (about 150 s on 2 cores), the amt10 sweep
and every network of the small-network pool, exactly, with the sources under
src/. The committed file was written at commit 018eb44; regenerate it only
from a commit whose answers are trusted, never to make a failing gate pass.

Usage: python3 perfbench/freeze.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import feedsim as fs  # noqa: E402

import workloads as wl  # noqa: E402

EPSILON = 0.01


def freeze_amt10() -> dict:
    config = fs.load_config(ROOT / wl.AMT10)
    diagnostics = {}
    d, certificate = fs.find_d_opt(
        config, fs.SolverSettings(epsilon=EPSILON), diagnostics=diagnostics)
    index = wl.grid_index(d, EPSILON)
    below = [e for e in diagnostics["evaluations"]
             if wl.grid_index(e["d"], EPSILON) == index - 1 and not e["holds"]]
    rows = fs.run_experiment(fs.ExperimentSpec(config, wl.FOCAL_USER, wl.SWEEP_C, (1.0, d)))
    half = len(wl.SWEEP_C)
    return {
        "epsilon": EPSILON,
        "d_opt": d,
        "d_index": index,
        "certificate": [[c.user_id, c.oracle_count, c.payoff_single, c.payoff_mirror]
                        for c in certificate.checks],
        "below": {"n": below[0]["n"], "c": below[0]["c"],
                  "payoff_single": below[0]["payoff_single"],
                  "payoff_mirror": below[0]["payoff_mirror"]},
        "sweep": {column: [[r.expected_payoff, r.error_rate] for r in part]
                  for column, part in (("d1", rows[:half]), ("d_opt", rows[half:]))},
    }


def freeze_networks() -> dict:
    networks = {}
    settings = fs.SolverSettings(epsilon=wl.NETWORK_EPSILON, d_max=wl.NETWORK_D_MAX)
    for n, k, i in wl.pool_keys():
        config = fs.model.config_from_dict(wl.network_doc(n, k, i))
        fs.require_valid(config)
        d, _ = fs.find_d_opt(config, settings)
        strategies = {user: fs.Strategy.concentrated(stake, stake)
                      for user, stake in wl.mirroring_users(config).items()}
        networks[wl.network_key(n, k, i)] = [
            wl.grid_index(d, wl.NETWORK_EPSILON), fs.error_rate_exact(config, strategies)]
    return {"epsilon": wl.NETWORK_EPSILON, "d_max": wl.NETWORK_D_MAX, "networks": networks}


def main() -> int:
    reference = {"small_networks": freeze_networks(), "amt10": freeze_amt10()}
    wl.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {wl.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
