#!/usr/bin/env python3
"""Measure how steady the benchmark is, to set and re-check its bounds.

Runs one workload (or all) k times for run_seconds from BENCHMARK.json,
each in a fresh process with its own seed, and prints for every
end-to-end metric its median, quartiles and spread: the distance between
the quartiles as a share of the median, the way
statistics.quantiles(values, n=4) gives them. The spread is set against
the metric's bound from BENCHMARK.json; a steady metric stays below a
third of it ("ok").

    python3 perfbench/steady.py --workload small-io --runs 10
    python3 perfbench/steady.py --workload all --runs 10 --save a.json
    python3 perfbench/steady.py --workload all --runs 10 --against a.json

--against compares this set's medians with a saved set's and flags any
metric worse by more than its bound, and any change in the share of
failed operations.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    stamp = next((l for l in lines if l.startswith("# perfbench")), "")
    return json.loads(lines[-1]), stamp


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save", help="write this set's values to a JSON file")
    ap.add_argument("--against", help="compare medians with a set saved by --save")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    specs = {m["name"]: m for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]] if args.workload == "all" else [args.workload]
    prior = {}
    if args.against:
        with open(args.against) as f:
            prior = json.load(f)

    saved, bad = {}, 0
    for name in names:
        values, shares, stamp = {}, [], ""
        for i in range(args.runs):
            res, stamp = run_once(name, args.first_seed + i, seconds)
            if not res["correct"]:
                print(f"{name} seed {args.first_seed + i}: correct=false")
                bad += 1
            shares.append(res["failed"] / res["attempted"])
            for m, v in res["metrics"].items():
                values.setdefault(m, []).append(v["value"])
        print(f"\n== {name}: {args.runs} runs of {seconds} s, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        print(stamp)
        print(f"failed share per run: {sorted(set(shares))}")
        print(f"{'metric':38} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        for m, vs in values.items():
            med, q1, q3, spread = summarize(vs)
            spec = specs[m]
            bound = spec["bound"]
            if spread < bound / 3:
                verdict = "ok"
            elif spread <= bound:
                verdict = "within bound, above a third"
            else:
                verdict = "WIDER THAN BOUND"
                bad += 1
            old = prior.get(name, {}).get("values", {}).get(m)
            if old:
                omed = statistics.median(old)
                worse = (omed - med) / omed if spec["better"] == "higher" else (med - omed) / omed
                verdict += f"; vs saved median {omed:.6g}: {100 * worse:+.1f}% worse"
                if worse > bound:
                    verdict += " REGRESSED"
                    bad += 1
            print(f"{m:38} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound:6.2f}  {verdict}")
        old_shares = prior.get(name, {}).get("shares")
        if old_shares is not None and sorted(set(old_shares)) != sorted(set(shares)):
            print(f"failed share changed: saved {sorted(set(old_shares))}, now {sorted(set(shares))}")
            bad += 1
        saved[name] = {"values": values, "shares": shares, "stamp": stamp}
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
