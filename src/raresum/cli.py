"""Command-line experiment runner.

    raresum run <config> [--threads N] [--out PATH] [--seed S]
    raresum validate <config>

Exit codes: 0 success, 2 configuration parse error, 3 validation error,
4 runtime failure with every replicate aborted.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigParseError, load_config, validate_config
from .errors import RaresumError
from .estimate import CSV_HEADER, EstimateReport, format_comparison, run_point
# Re-exported so callers can find (and patch) the estimators run_point calls.
from .estimate import adaptive_estimate, tilted_iid_estimate  # noqa: F401

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4


def _load_checked(config_path: str):
    """(config, diagnostics, exit code) of the file: the code is EXIT_PARSE
    (config None) when it does not parse, EXIT_VALIDATION when a diagnostic
    is an error, else EXIT_OK.  Prints the parse error or the diagnostics,
    errors on stderr."""
    try:
        cfg = load_config(config_path)
    except ConfigParseError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return None, [], EXIT_PARSE
    diags = validate_config(cfg)
    for d in diags:
        print(str(d), file=sys.stderr if d.level == "error" else sys.stdout)
    return cfg, diags, EXIT_VALIDATION if any(d.level == "error" for d in diags) else EXIT_OK


def run_experiment(config_path: str, threads: int = 1, out: str | None = None,
                   seed: int | None = None) -> int:
    """Execute every sweep point and scheme in the configuration; write CSV."""
    cfg, _, code = _load_checked(config_path)
    if code != EXIT_OK:
        return code
    if seed is not None:
        cfg.seed = seed
    if out is not None:
        cfg.out_csv = out

    rows = []
    all_aborted = False
    for sweep_value in cfg.sweep_points():
        label = cfg.sweep_label(sweep_value)
        model, region, n, L = cfg.instantiate(sweep_value)
        reports: list[EstimateReport] = []
        for scheme in cfg.schemes:
            try:
                rep = run_point(model, region, n, L, scheme, cfg.seed,
                                sweep_label=label, path_config=cfg.path_config(),
                                chain_config=cfg.chain, threads=threads,
                                weighting=cfg.weighting)
            except RaresumError as exc:
                print(f"ERROR: {scheme} failed at sweep {label}: {exc}", file=sys.stderr)
                return EXIT_RUNTIME
            if rep.aborts == L:
                all_aborted = True
            rows.append(rep.csv_row(include_timing=cfg.timing))
            reports.append(rep)
        print(f"== sweep {label} (n={n}, L={L}) ==")
        print(format_comparison(reports))

    out_path = Path(cfg.out_csv)
    if out_path.parent != Path(""):
        out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text("\n".join([CSV_HEADER] + rows) + "\n", encoding="utf-8")
    print(f"wrote {len(rows)} rows to {out_path}")
    if all_aborted:
        print("ERROR: a scheme aborted every replicate", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def validate_file(config_path: str) -> int:
    _, diags, code = _load_checked(config_path)
    if code == EXIT_OK and not diags:
        print("configuration OK")
    return code


def _worker_count(text: str) -> int:
    """A --threads value: an integer of at least 1."""
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="raresum",
                                     description="Rare-event estimation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment configuration")
    p_run.add_argument("config")
    p_run.add_argument("--threads", type=_worker_count, default=1,
                       help="worker processes for replicate generation")
    p_run.add_argument("--out", default=None, help="override the CSV output path")
    p_run.add_argument("--seed", type=int, default=None, help="override the base seed")

    p_val = sub.add_parser("validate", help="check a configuration without running")
    p_val.add_argument("config")

    args = parser.parse_args(argv)
    if args.command == "run":
        return run_experiment(args.config, threads=args.threads, out=args.out,
                              seed=args.seed)
    return validate_file(args.config)


if __name__ == "__main__":
    sys.exit(main())
