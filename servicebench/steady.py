#!/usr/bin/env python3
"""Steadiness tool for the decision-service benchmark.

    python3 servicebench/steady.py --runs 10 [--sets 2] [--seed-base 1]

Runs every workload of BENCHMARK.json --runs times, untraced and for its
run_seconds, with seeds seed-base, seed-base+1, ..., interleaving the
workloads and reversing their order every other round, so slow drift of
the host spreads over all of them.
For each workload and metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), the spread (q3 - q1) /
median and the metric's bound from BENCHMARK.json; a spread above a
third of its bound is flagged. It also checks that the share of failed
operations is the same in every run of a workload.

With --sets 2 it repeats the whole set with the same seeds and reports,
per metric, how far the second median moved from the first against the
bound, and that remote_failover's sim_p99_ms repeated exactly per seed.
Run from the root of a checkout; raw results go to
.bench_build/steady/.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.time()
    done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit("run failed (%s seed %d, exit %d):\n%s" %
                 (workload, seed, done.returncode, done.stderr[-2000:]))
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = time.time() - started
    result["workload"] = workload
    result["seed"] = seed
    sim = [m.group(1) for m in (re.match(r"# sim_p99_ms: (\S+)", l) for l in lines) if m]
    result["sim_p99_ms"] = sim[0] if sim else None
    return result


def run_set(command, workloads, seeds, seconds, label):
    results = []
    for i, seed in enumerate(seeds):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            r = run_once(command, w, seed, seconds)
            results.append(r)
            print("%s %-16s seed %-4d %5.1f s  attempted %d failed %d" %
                  (label, w, seed, r["wall_s"], r["attempted"], r["failed"]), flush=True)
    return results


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def report(results, workloads, bounds):
    ok = True
    for w in workloads:
        runs = [r for r in results if r["workload"] == w]
        shares = {r["failed"] / r["attempted"] for r in runs}
        print("\n%s: %d runs, failed share %s" % (w, len(runs), sorted(shares)))
        if len(shares) != 1:
            print("  FAILED SHARE DIFFERS BETWEEN RUNS")
            ok = False
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med, q1, q3, s = spread(values)
            bound = bounds[name]
            flag = ""
            if name != "setup_s" and s > bound / 3:
                flag = "  <-- above a third of the bound"
                ok = False
            print("  %-34s median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.3f  bound %.3f%s" %
                  (name + " (" + unit + ")", med, q1, q3, s, bound, flag))
    return ok


def compare(first, second, workloads, bounds, better):
    ok = True
    print("\nsecond set against the first:")
    for w in workloads:
        a = [r for r in first if r["workload"] == w]
        b = [r for r in second if r["workload"] == w]
        share_a = sum(r["failed"] for r in a) / sum(r["attempted"] for r in a)
        share_b = sum(r["failed"] for r in b) / sum(r["attempted"] for r in b)
        if {r["failed"] / r["attempted"] for r in a} != {r["failed"] / r["attempted"] for r in b}:
            print("  %s: failed share differs (%g vs %g)" % (w, share_a, share_b))
            ok = False
        for name in a[0]["metrics"]:
            ma = statistics.median(r["metrics"][name]["value"] for r in a)
            mb = statistics.median(r["metrics"][name]["value"] for r in b)
            worse = (mb - ma) / ma if better[name] == "lower" else (ma - mb) / ma
            flag = "" if worse <= bounds[name] else "  <-- worse than the bound"
            ok = ok and not flag
            print("  %-16s %-24s %-12.6g -> %-12.6g worse by %+.3f (bound %.3f)%s" %
                  (w, name, ma, mb, worse, bounds[name], flag))
        sims_a = {r["seed"]: r["sim_p99_ms"] for r in a if r["sim_p99_ms"] is not None}
        sims_b = {r["seed"]: r["sim_p99_ms"] for r in b if r["sim_p99_ms"] is not None}
        if sims_a:
            same = all(sims_a[s] == sims_b.get(s) for s in sims_a)
            print("  %-16s sim_p99_ms repeated per seed: %s" % (w, "yes" if same else "NO"))
            ok = ok and same
    return ok


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seed-base", type=int, default=1)
    args = parser.parse_args()

    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seeds = list(range(args.seed_base, args.seed_base + args.runs))
    seconds = bench["run_seconds"]
    sets = [run_set(bench["command"], workloads, seeds, seconds, "set 1")]
    if args.sets == 2:
        sets.append(run_set(bench["command"], workloads, seeds, seconds, "set 2"))

    out_dir = os.path.join(ROOT, ".bench_build", "steady")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, time.strftime("%Y%m%d-%H%M%S") + ".json")
    with open(out, "w") as f:
        json.dump(sets, f, indent=1)
    print("raw results: %s" % out)

    ok = all([report(s, workloads, bounds) for s in sets])
    if args.sets == 2:
        ok = compare(sets[0], sets[1], workloads, bounds, better) and ok
    print("\n%s" % ("steady" if ok else "NOT steady"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
