#!/usr/bin/env python3
"""End-to-end experiment: solve for d_opt, then sweep payoff and error rate.

Produces the two headline tables for a network config: the focal user's
expected payoff as a function of its oracle count for several exponents
(including the solved d_opt), and the system error rate over the same
oracle counts. Writes plot-ready CSVs plus the solver certificate.

Usage:
    python scripts/reward_sweep.py --config configs/amt10.json --out results/
"""

import argparse
import json
import sys
import time
from pathlib import Path

import feedsim as fs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default="configs/amt10.json")
    parser.add_argument("--out", default="results")
    parser.add_argument("--user", type=int, default=1)
    parser.add_argument("--epsilon", type=float, default=0.01)
    parser.add_argument("--d-list", default=None,
                        help="extra exponents besides 1 and d_opt, comma separated")
    args = parser.parse_args()

    config = fs.load_config(args.config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    print(f"solving for d_opt (epsilon={args.epsilon}) ...")
    started = time.time()
    d_opt, certificate = fs.find_d_opt(config, fs.SolverSettings(epsilon=args.epsilon))
    print(f"d_opt = {d_opt:.6g}  ({time.time() - started:.1f}s, "
          f"{len(certificate.checks)} checks)")
    cert_path = out_dir / "nash_certificate.json"
    fs.model.write_text_atomic(cert_path, json.dumps(certificate.to_dict(), indent=2) + "\n")

    extra = [float(x) for x in args.d_list.split(",")] if args.d_list else []
    d_values = sorted({1.0, *extra, d_opt})
    stake = config.user(args.user).total_stake
    spec = fs.ExperimentSpec(
        config=config,
        focal_user=args.user,
        c_values=tuple(range(1, stake + 1)),
        d_values=tuple(d_values),
        method="exact",
    )
    print(f"sweeping c=1..{stake} at d in {d_values} ...")
    rows = fs.run_experiment(spec)
    sweep_path = out_dir / "sweep.csv"
    fs.write_sweep_csv(rows, sweep_path)

    for d in d_values:
        best = max((r for r in rows if r.d == d), key=lambda r: r.expected_payoff)
        print(f"  d={d:<8.6g} payoff argmax at c={best.c} "
              f"(payoff {best.expected_payoff:.6f}, error {best.error_rate:.6f})")
    print(f"wrote {sweep_path} and {cert_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
