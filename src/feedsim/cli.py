"""Command-line surface: validate, payoff, solve-d, sweep, estimate-cm.

Every command is non-interactive and reproducible: seeds default to a fixed
constant (never the clock), and each output file is written atomically with
a sidecar manifest recording how it was produced. `--threads` is accepted for
compatibility and has no effect. Exit codes: 0 success, 1 domain failure
(invalid config, infeasible request, exhausted search, arithmetic overflow),
2 unreadable or ill-formed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone

from . import __version__
from .constants import DEFAULT_MC_SAMPLES, DEFAULT_SEED
from .enumeration import EnumerationBudgetError
from .ingest import IngestError, IngestSettings, estimate_confusion, read_annotation_csv
from .metrics import experiment_from_dict, run_experiment, sweep_rows_to_csv
from .model import (
    ConfigFormatError,
    InvalidConfigError,
    config_from_dict,
    load_config,
    read_config_document,
    write_text_atomic,
)
from .payoff import EXACT, METHODS, PayoffQuery, expected_payoff_exact, \
    expected_payoff_mc, optimal_allocation
from .solver import DMaxExceededError, SolverSettings, find_d_opt, \
    find_d_opt_from_oracle_stakes

_THREADS_HELP = "accepted for compatibility; has no effect"


def _write_output(path, text: str, command: str, seed: int, **inputs) -> None:
    """Write a command's output file, then its `<path>.manifest.json` sidecar,
    both atomically. The sidecar records the command, each input file by the
    kind of input it is (such as `config_path` or `records_path`), the seed,
    the tool version and the time."""
    write_text_atomic(path, text)
    manifest = {"command": command, **{key: str(value) for key, value in inputs.items()},
                "seed": int(seed), "tool_version": __version__,
                "timestamp": datetime.now(timezone.utc).isoformat()}
    write_text_atomic(f"{path}.manifest.json", json.dumps(manifest, indent=2) + "\n")


def _parse_c_range(text: str) -> range | list[int]:
    """Accept 'lo:hi' (inclusive) as a range, or a comma list like '1,2,5'."""
    text = text.strip()
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            return range(int(lo), int(hi) + 1)
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigFormatError(
            f"--c-range must be 'lo:hi' or a comma list of integers, got {text!r}"
        ) from exc


def _parse_d_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigFormatError(f"--d-list must be a comma list of numbers, got {text!r}") from exc


def _parse_label_map(text: str) -> dict[str, int]:
    """A JSON object mapping raw labels to integer class indices (not bools)."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # such as an integer past Python's digit limit
        raise ConfigFormatError(f"cannot parse --label-map: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigFormatError("--label-map must be a JSON object")
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in doc.values()):
        raise ConfigFormatError("--label-map values must be integer class indices")
    return doc


def cmd_validate(args) -> int:
    try:
        report = load_config(args.config, renormalize=args.renormalize).report
    except InvalidConfigError as exc:
        report = exc.report
    print(report)
    return 0 if report.is_valid else 1


def cmd_payoff(args) -> int:
    config = load_config(args.config)
    stake = config.user(args.user).total_stake
    query = PayoffQuery(
        config=config,
        focal_user=args.user,
        focal_strategy=optimal_allocation(stake, args.c),
        d=args.d,
    )
    if METHODS[args.method] == EXACT:
        estimate = expected_payoff_exact(query)
    else:
        estimate = expected_payoff_mc(query, samples=args.samples, seed=args.seed)
    print(
        f"expected_payoff={estimate.value:.12g} method={estimate.method} "
        f"std_error={estimate.std_error:.12g} samples={estimate.samples}"
    )
    return 0


def cmd_solve_d(args) -> int:
    config = load_config(args.config)
    settings = SolverSettings(epsilon=args.epsilon, d_max=args.d_max)
    diagnostics = {} if args.diagnostics else None
    if args.from_oracle_stakes:
        # observed per-oracle stakes: with default single-oracle participation
        # the config's stakes in user-id order are exactly that vector
        d_opt, certificate = find_d_opt_from_oracle_stakes(
            [u.total_stake for u in sorted(config.users, key=lambda u: u.user_id)],
            config.confusion,
            config.num_classes,
            settings,
            prior=config.prior,
            total_reward=config.total_reward,
            diagnostics=diagnostics,
        )
    else:
        d_opt, certificate = find_d_opt(config, settings, diagnostics=diagnostics)
    print(f"d_opt={d_opt:.12g} checks={len(certificate.checks)} "
          f"satisfied={'yes' if certificate.satisfied else 'no'}")
    for path, doc in ((args.out, certificate.to_dict()), (args.diagnostics, diagnostics)):
        if path:
            _write_output(path, json.dumps(doc, indent=2) + "\n", "solve-d", DEFAULT_SEED,
                          config_path=args.config)
    return 0


def cmd_sweep(args) -> int:
    doc = read_config_document(args.config)
    config = config_from_dict(doc)
    spec = experiment_from_dict(
        config,
        doc.get("experiment"),
        focal_user=args.user,
        c_values=_parse_c_range(args.c_range) if args.c_range else None,
        d_values=_parse_d_list(args.d_list) if args.d_list else None,
        method=args.method,
        samples=args.samples,
        seed=args.seed,
    )
    rows = run_experiment(spec)
    _write_output(args.out, sweep_rows_to_csv(rows), "sweep", spec.seed, config_path=args.config)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_estimate_cm(args) -> int:
    if args.k < 2:
        raise IngestError(f"--k must be at least 2, got {args.k}")
    label_map = _parse_label_map(args.label_map) if args.label_map else None
    settings = IngestSettings(
        min_participation=args.min_participation,
        smoothing=args.smoothing,
        label_map=label_map,
    )
    records = read_annotation_csv(args.records, settings, args.k)
    matrix, report = estimate_confusion(records, settings, args.k)
    fragment = {"num_classes": args.k, "confusion": matrix.entries.tolist()}
    if args.out:
        _write_output(args.out, json.dumps(fragment, indent=2) + "\n", "estimate-cm",
                      DEFAULT_SEED, records_path=args.records)
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="feedsim",
        description="Mirroring-attack analysis for majority-vote data feeds",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a config file's invariants")
    p.add_argument("config")
    p.add_argument("--renormalize", action="store_true",
                   help="rescale confusion rows to unit sum before checking")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("payoff", help="expected payoff of one user's strategy")
    p.add_argument("config")
    p.add_argument("--user", type=int, required=True)
    p.add_argument("--c", type=int, default=1, help="oracle count (concentrated split)")
    p.add_argument("--d", type=float, default=1.0, help="reward exponent")
    p.add_argument("--method", choices=sorted(METHODS), default="exact")
    p.add_argument("--samples", type=int, default=DEFAULT_MC_SAMPLES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--threads", type=int, default=None, help=_THREADS_HELP)
    p.set_defaults(func=cmd_payoff)

    p = sub.add_parser("solve-d", help="find the smallest mirroring-proof exponent")
    p.add_argument("config")
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--d-max", type=float, default=16.0)
    p.add_argument("--from-oracle-stakes", action="store_true",
                   help="treat the config's stakes as observed per-oracle stakes")
    p.add_argument("--out", default=None, help="write the certificate JSON here")
    p.add_argument("--diagnostics", default=None,
                   help="write the search's evaluations, grid points and reversals here")
    p.add_argument("--threads", type=int, default=None, help=_THREADS_HELP)
    p.set_defaults(func=cmd_solve_d)

    p = sub.add_parser("sweep", help="payoff and error-rate table over (c, d)")
    p.add_argument("config")
    p.add_argument("--user", type=int, default=None)
    p.add_argument("--c-range", default=None, help="'lo:hi' or comma list")
    p.add_argument("--d-list", default=None, help="comma list of exponents")
    p.add_argument("--method", choices=sorted(METHODS), default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=None, help=_THREADS_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("estimate-cm", help="estimate a confusion matrix from annotations")
    p.add_argument("records", help="CSV with task_id,annotator_id,label,gold_label")
    p.add_argument("--k", type=int, required=True, help="number of classes")
    p.add_argument("--min-participation", type=float, default=0.1)
    p.add_argument("--smoothing", type=float, default=0.0)
    p.add_argument("--label-map", default=None,
                   help="JSON object mapping raw labels to class indices")
    p.add_argument("--out", default=None, help="write the config fragment here")
    p.set_defaults(func=cmd_estimate_cm)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigFormatError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvalidConfigError, DMaxExceededError, EnumerationBudgetError,
            IngestError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
