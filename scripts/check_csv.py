#!/usr/bin/env python3
"""Check that the bundled configs give the same CSV bytes at --threads 1 and 2.

Runs `raresum run` on every `configs/*.cfg` of this checkout at --threads 1
and 2, each into a temporary directory, and compares
the CSV bytes across thread counts.  With --rev it also extracts that
revision with `git archive`, runs its configs the same way, alternating the
two trees, and reports for each config and thread count whether the bytes
match the revision's; where they do not, it prints the largest relative
difference in each numeric column but wall_time, so that a change of
rounding reads as one.  Prints one line per run with its wall time.

    python3 scripts/check_csv.py --rev HEAD~1 [--same]

Exits 1 when a run fails or a tree's CSVs differ across thread counts; a
difference from --rev is reported, since a change may mean to make one,
and with --same it exits 1 as well, for a change that must keep every byte.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def extract(rev: str, dest: Path) -> Path:
    """The files of commit `rev`, extracted into dest by git archive."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def run_config(tree: Path, config: str, threads: int, out: Path) -> tuple[float, bytes]:
    """Wall seconds and CSV bytes of `raresum run` on tree's config."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "raresum.cli", "run", f"configs/{config}",
                           "--threads", str(threads), "--out", str(out)],
                          cwd=tree, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {config} at --threads {threads} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr}")
    return seconds, out.read_bytes()


def largest_differences(ours: bytes, theirs: bytes) -> dict[str, float]:
    """For each numeric column but wall_time, the largest relative difference
    |a - b| / max(|a|, |b|) between the rows of two CSVs, row by row (inf
    where one value is NaN and the other is not).  Empty when the two do not
    have the same columns and number of rows."""
    a_rows, b_rows = (list(csv.DictReader(io.StringIO(text.decode()))) for text in (ours, theirs))
    if not a_rows or len(a_rows) != len(b_rows) or a_rows[0].keys() != b_rows[0].keys():
        return {}
    out = {}
    for column in a_rows[0]:
        if column == "wall_time":
            continue
        try:
            pairs = [(float(a[column]), float(b[column])) for a, b in zip(a_rows, b_rows)]
        except ValueError:  # not a numeric column
            continue
        worst = 0.0
        for a, b in pairs:
            if math.isnan(a) or math.isnan(b):
                worst = max(worst, 0.0 if math.isnan(a) and math.isnan(b) else math.inf)
            elif a != b:
                worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
        out[column] = worst
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", default=None, help="also run this git revision and compare")
    parser.add_argument("--same", action="store_true",
                        help="exit 1 when a CSV differs from --rev's")
    args = parser.parse_args(argv)
    if args.same and not args.rev:
        parser.error("--same needs --rev")
    threads = [1, 2]
    configs = sorted(p.name for p in (ROOT / "configs").glob("*.cfg"))

    with tempfile.TemporaryDirectory(prefix="check_csv_") as tmp:
        tmp = Path(tmp)
        trees = {"this": ROOT}
        if args.rev:
            trees[args.rev] = extract(args.rev, tmp / "rev")
        csvs = {}
        order = list(trees)
        for config in configs:
            for t in threads:
                for name in order:
                    out = tmp / f"{name.replace('/', '_')}-{config}-t{t}.csv"
                    seconds, csvs[name, config, t] = run_config(trees[name], config, t, out)
                    digest = hashlib.sha256(csvs[name, config, t]).hexdigest()[:12]
                    print(f"{config} --threads {t} [{name}]: {seconds:.2f} s, sha256 {digest}")
                order.reverse()

    ok = True
    for config in configs:
        for name in trees:
            same = all(csvs[name, config, t] == csvs[name, config, threads[0]] for t in threads)
            ok &= same
            print(f"{config} [{name}]: " + ("equal" if same else "DIFFERENT")
                  + " across --threads 1 and 2")
        if args.rev:
            same = all(csvs["this", config, t] == csvs[args.rev, config, t] for t in threads)
            ok &= same or not args.same
            print(f"{config}: " + ("equal to" if same else "different from") + f" {args.rev}")
            for t in threads:
                if csvs["this", config, t] != csvs[args.rev, config, t]:
                    diffs = largest_differences(csvs["this", config, t], csvs[args.rev, config, t])
                    print(f"  --threads {t}, largest relative difference: "
                          + (", ".join(f"{c} {d:.3g}" for c, d in diffs.items())
                             or "rows or columns differ"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
