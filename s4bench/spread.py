#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each metric's spread.

    python3 s4bench/spread.py --workload core_cold --seeds 1-10 [--trace 1]

For every metric: median, first and third quartiles (statistics.quantiles,
n=4) and the spread, (Q3 - Q1) / median. Run lengths come from
BENCHMARK.json. Prints a markdown table; raw results go to
.bench_out/spread-<workload>.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    log = os.path.join(ROOT, ".bench_out", "spread-%s.jsonl" % args.workload)
    values, failed = {}, []
    with open(log, "a") as out:
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("seed %d: exit %d" % (seed, proc.returncode),
                      file=sys.stderr)
                sys.exit(1)
            result = json.loads(lines[-1])
            out.write(json.dumps({"seed": seed, **result}) + "\n")
            failed.append((result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("seed %d done" % seed, file=sys.stderr)
    print("| metric | median | Q1 | Q3 | spread |")
    print("|---|---|---|---|---|")
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print("| %s | %.4g | %.4g | %.4g | %.3f |" % (name, med, q1, q3, spread))
    print("\nfailed/attempted per run: %s" % failed)


if __name__ == "__main__":
    main()
