#!/usr/bin/env python3
"""Run the benchmark repeatedly and summarise how much each metric spreads.

    python3 perfbench/repeat.py --workloads ensemble,ladder --seeds 1-10
    python3 perfbench/repeat.py --seeds 1-10 --trace-repeats 2 --write perfbench/baseline.json

For each workload, runs ``perfbench/run.py`` once per seed (untraced) and
reports every end-to-end metric's median, quartiles and spread, the
inter-quartile distance as a share of the median, beside the bound in
BENCHMARK.json.  With ``--trace-repeats`` it also makes that many traced
runs on the default seed and checks that the traced counts repeat exactly.
``--write`` stores the whole summary as a baseline file.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import DEFAULT_SEED, HELD_OUT_SEED, ROOT

# Traced metrics that must repeat exactly between two traced runs.
COUNT_SUFFIXES = ("_calls", "eig_n3", "eig_distinct_ratio")


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=180)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = ROOT / ".perfbench_out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    return result, json.loads(record_path.read_text()), wall


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace-repeats", type=int, default=0)
    parser.add_argument("--trace-seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--write", default=None, help="write the summary to this JSON file")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    summary = {
        "seeds": {"default": DEFAULT_SEED, "held_out": HELD_OUT_SEED},
        "run_seconds": args.seconds,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        values = {}
        unscaled = {}
        failed = attempted = 0
        tails = []
        walls = []
        for seed in seed_list(args.seeds):
            result, record, wall = run_once(workload, seed, args.seconds, 0)
            failed += result["failed"]
            attempted += result["attempted"]
            tails.append(record["latency_tail"])
            walls.append(wall)
            summary["machine"] = record["machine"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name, value in record["wall"].items():
                unscaled.setdefault(name, []).append(value)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
            ) + f" ({wall:.1f} s wall)", flush=True)
        entry = {"why": why.get(workload), "fail_ratio": failed / attempted,
                 "attempted": attempted, "run_wall_s": spread(walls),
                 "latency_tail_mean_of": sorted({t["mean_of"] for t in tails}),
                 "end_to_end": {}, "unscaled_wall": {}}
        for name, vals in values.items():
            stats = spread(vals)
            stats["values"] = vals
            entry["end_to_end"][name] = stats
            bound = bounds.get(name)
            ratio = f"{stats['spread'] / bound:.2f} of bound {bound}" if bound else ""
            print(f"  {name:<16} median {stats['median']:<12.6g} q1 {stats['q1']:<12.6g} "
                  f"q3 {stats['q3']:<12.6g} spread {stats['spread']:.4f} {ratio}")
        for name, vals in unscaled.items():
            stats = spread(vals)
            entry["unscaled_wall"][name] = stats
            print(f"  unscaled {name:<16} median {stats['median']:<12.6g} "
                  f"spread {stats['spread']:.4f}")
        print(f"  fail_ratio {entry['fail_ratio']} over {attempted} ops; "
              f"run wall median {entry['run_wall_s']['median']:.1f} s", flush=True)

        traced = []
        for _ in range(args.trace_repeats):
            result, record, _ = run_once(workload, args.trace_seed, args.seconds, 1)
            traced.append((result, record))
        if traced:
            counts = [
                {k: v["value"] for k, v in r["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
                for r, _ in traced
            ]
            entry["traced"] = {
                "seed": args.trace_seed,
                "counts_repeat_exactly": all(c == counts[0] for c in counts),
                "counts_per_op": counts[0],
                "eig_budget_check": traced[0][1]["eig_budget_check"],
                "eig_calls_by_caller": traced[0][1]["eig_calls_by_caller"],
                "overhead_frac": [r["metrics"]["trace.overhead_frac"]["value"] for r, _ in traced],
                "self_ms_per_op": {k: v["value"] for k, v in traced[0][0]["metrics"].items()
                                   if k.endswith("_ms")},
            }
            print(f"  traced counts repeat exactly: {entry['traced']['counts_repeat_exactly']}; "
                  f"eig budget {entry['traced']['eig_budget_check']}", flush=True)
        summary["workloads"][workload] = entry

    if args.write:
        Path(args.write).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
