#!/usr/bin/env python3
"""Benchmark two commits against each other in alternating pairs.

Extracts each commit's files with `git archive` into its own directory, then
runs `raresum_bench/run.py` there once per seed and workload, parent and
change alternating, with the side that runs first flipped every pair.  The
runs go one at a time.  Writes one JSON file with, per workload, the seeds,
the first side of each pair, each metric's runs and quartiles per side, the
pairwise wins and losses, failed/attempted per run, each run's round count
(attempted over the workload's replicates per round; the side's median sits
next to `peak_rss_mib`, which grows with the rounds the benchmark keeps),
and the claim rule's result for the claimed workload and metric.  It only
reads the benchmark (`BENCHMARK.json` and `raresum_bench/` of each copy).

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --seeds 1201-1210 --out BENCH_12.json \\
        --claim meansquare-paired:wnrv_s --trace-seed 1

Traced passes (`--trace 1`, `--seconds 1`: three rounds) of the claimed
workload (of every workload without a claim) run once per seed and side,
alternating like the timed runs, all at --trace-seed.

A change that is not committed yet can be named by `git stash create`
(after `git add -A`), which makes a commit of the index without touching
the working tree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """'1201-1210' or '1,5,9' (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def extract(rev: str, dest: Path) -> Path:
    """The files of commit `rev`, extracted into dest by git archive."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The JSON line of one benchmark run in the copy `tree`."""
    env = dict(os.environ, PYTHONPATH="")
    proc = subprocess.run(
        [sys.executable, "raresum_bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"benchmark run failed in {tree} ({workload}, seed {seed}):\n"
                         f"{proc.stderr}")
    return json.loads(lines[-1])


def replicates_per_round(tree: Path, workload: str) -> int:
    """The replicates of one round of `workload`: the L of its calls in the
    copy's raresum_bench/run.py, summed."""
    code = ("import sys; sys.path.insert(0, 'raresum_bench'); import run; "
            f"print(sum(call.L for call in run.WORKLOADS[{workload!r}].calls))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tree,
                          env=dict(os.environ, PYTHONPATH=""), capture_output=True, text=True,
                          check=True)
    return int(proc.stdout)


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": float(q1), "median": float(median), "q3": float(q3),
            "runs": [float(v) for v in values]}


def compare(parent, change, better: str) -> dict:
    """Pairwise wins of the change, its median gap (positive: better) and the
    parent's quartile distance."""
    sign = 1.0 if better == "lower" else -1.0
    gaps = [sign * (p - c) for p, c in zip(parent, change)]
    p_med, c_med = float(np.median(parent)), float(np.median(change))
    q1, q3 = np.percentile(parent, [25, 75])
    return {"change_wins": sum(g > 0 for g in gaps), "change_losses": sum(g < 0 for g in gaps),
            "pairs": len(gaps), "median_gap": sign * (p_med - c_med),
            "parent_iqr": float(q3 - q1),
            "median_ratio": c_med / p_med if p_med else float("nan")}


def claim_met(result: dict) -> bool:
    """The change wins at least nine tenths of the pairs, and the medians
    differ by more than the parent's quartile distance."""
    return (10 * result["change_wins"] >= 9 * result["pairs"]
            and result["median_gap"] > result["parent_iqr"])


def alternate(seeds, run) -> tuple[list, dict]:
    """run(side, seed) for every seed, parent and change alternating, the
    first side flipped every pair: (first side per pair, results per side)."""
    first, results = [], {side: [] for side in SIDES}
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            results[side].append(run(side, seed))
    return first, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--seeds", required=True, help="e.g. 1201-1210: one pair per seed")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default: every workload of BENCHMARK.json")
    parser.add_argument("--seconds", type=float, default=None,
                        help="--seconds of each run; default: BENCHMARK.json's run_seconds")
    parser.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC",
                        help="the end-to-end metric the change claims to improve")
    parser.add_argument("--trace-seed", type=int, default=None,
                        help="also run traced passes (3 rounds) at this seed, one pair per seed")
    parser.add_argument("--workdir", default=None, help="where the copies go (default: a temp dir)")
    parser.add_argument("--description", default="")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    seeds = parse_seeds(args.seeds)
    work = Path(args.workdir or tempfile.mkdtemp(prefix="bench_pairs_"))
    trees = {side: extract(rev, work / side)
             for side, rev in zip(SIDES, (args.parent, args.change))}

    out = {"description": args.description,
           "revisions": {"parent": args.parent, "change": args.change},
           "machine": f"{os.cpu_count()}-core {platform.machine()}, Python "
                      f"{platform.python_version()}, numpy {np.__version__}",
           "seconds": seconds, "workloads": {}}
    for workload in workloads:
        def run(side, seed):
            result = run_bench(trees[side], workload, seed, seconds, trace=0)
            print(f"{workload} seed {seed} {side}: attempted {result['attempted']}, " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()), file=sys.stderr)
            return result

        first, runs = alternate(seeds, run)
        values = {m: {side: [r["metrics"][m]["value"] for r in runs[side]] for side in SIDES}
                  for m in better}
        per_round = {side: replicates_per_round(trees[side], workload) for side in SIDES}
        rounds = {side: [r["attempted"] // per_round[side] for r in runs[side]] for side in SIDES}
        metrics = {m: {side: quartiles(v[side]) for side in SIDES} for m, v in values.items()}
        for side in SIDES:
            metrics["peak_rss_mib"][side]["median_rounds"] = float(np.median(rounds[side]))
        out["workloads"][workload] = {
            "seeds": seeds, "first_side": first, "metrics": metrics, "rounds": rounds,
            "pairs": {m: compare(v["parent"], v["change"], better[m])
                      for m, v in values.items()},
            "failed_over_attempted": {side: [[r["failed"], r["attempted"]] for r in runs[side]]
                                      for side in SIDES},
            "correct": {side: all(r["correct"] for r in runs[side]) for side in SIDES},
        }
    if args.claim:
        workload, metric = args.claim.split(":")
        result = out["workloads"][workload]["pairs"][metric]
        out["claim"] = {"metric": metric, "workload": workload,
                        "rule": "change better in >= 9/10 of the pairs and median gap "
                                "larger than the parent's quartile distance",
                        "result": result, "met": claim_met(result)}
    if args.trace_seed is not None:
        traced = out[f"trace_seed_{args.trace_seed}_3_rounds"] = {}
        for workload in ([args.claim.split(":")[0]] if args.claim else workloads):
            first, runs = alternate(seeds, lambda side, _: run_bench(
                trees[side], workload, args.trace_seed, 1, trace=1))
            traced[workload] = {
                "first_side": first,
                "correct": {side: all(r["correct"] for r in runs[side]) for side in SIDES},
                "metrics": {k: {side: quartiles([r["metrics"][k]["value"] for r in runs[side]])
                                for side in SIDES}
                            for k in runs["parent"][0]["metrics"]}}
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0 if out.get("claim", {}).get("met", True) else 1


if __name__ == "__main__":
    sys.exit(main())
