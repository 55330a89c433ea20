"""Result sets: record repeated benchmark runs, show their spread, compare two.

    python3 bench/compare.py record DIR [--workload W ...] [--runs 10] [--first-seed 1] [--trace 1]
    python3 bench/compare.py spread DIR
    python3 bench/compare.py compare BASE NEW

record runs bench/run.py once per seed (seeds first-seed, first-seed + 1, ...)
for each workload and keeps each result line as DIR/<workload>/seed-<n>.json.
Its spread is the distance between the first and third quartile of a
metric's values as a share of their median, the figure BENCHMARK.json's
bound is set against.  With --trace 1 it also checks that every traced
function, except those tracing.UNREACHED names, ran on some workload.

compare prints, per workload and metric, each set's median and quartiles
and one verdict:
  worse       the median is worse by more than the metric's bound, or (for
              metrics without a bound) by more than the base set's
              quartile spread, with at least 9 of 10 paired runs worse;
  better      better by more than the base set's quartile spread, with at
              least 9 of 10 paired runs better;
  unresolved  anything else.
Runs are paired by seed; ties count for neither side.  record runs one set
after the other, so machine drift between the sets lands in every pair:
record the two sides alternately (a few seeds at a time) when it matters.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import tracing
from run import BENCH, ROOT, WORKLOADS


def benchmark_spec():
    """metric name -> (better, bound or None) from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    out.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    return out, spec["run_seconds"]


def load(directory):
    """{workload: {seed: result}} of a recorded set."""
    sets = {}
    for path in sorted(Path(directory).glob("*/seed-*.json")):
        seed = int(path.stem.split("-", 1)[1])
        sets.setdefault(path.parent.name, {})[seed] = json.loads(path.read_text())
    return sets


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def series(results, name):
    return {seed: r["metrics"][name]["value"] for seed, r in results.items()
            if name in r["metrics"]}


def print_spread(sets):
    spec, _ = benchmark_spec()
    for workload, results in sets.items():
        bad = [s for s, r in results.items() if not r["correct"]]
        print(f"{workload}: {len(results)} runs" + (f", incorrect on seeds {bad}" if bad else ""))
        names = next(iter(results.values()))["metrics"]
        for name in names:
            values = list(series(results, name).values())
            q1, med, q3 = quartiles(values)
            bound = spec.get(name, (None, None))[1]
            s = spread(values)
            flag = ""
            if bound is not None:
                flag = "over bound" if s > bound else "over bound/3" if s > bound / 3 else "ok"
            print(f"  {name:<48} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {s:7.4f}  bound {bound if bound is not None else '-'}  {flag}")


def check_coverage(sets):
    """Every traced function, bar the known unreached ones, ran on some workload."""
    ran = set()
    for results in sets.values():
        for r in results.values():
            ran |= {n[:-len(".calls")] for n, m in r["metrics"].items()
                    if n.endswith(".calls") and m["value"]}
    missing = [n for n in tracing.traced_names()
               if n not in ran and n not in tracing.UNREACHED and n not in tracing.SELF_ONLY]
    for name, why in tracing.UNREACHED.items():
        print(f"unreached by design: {name} ({why})")
    if missing:
        print("traced but never run on any workload: " + ", ".join(missing))
    return not missing


def record(args):
    _, seconds = benchmark_spec()
    out = Path(args.dir)
    sets = {}
    failed_runs = 0
    for workload in args.workloads or WORKLOADS:
        (out / workload).mkdir(parents=True, exist_ok=True)
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: no result (exit {proc.returncode})", flush=True)
                failed_runs += 1
                continue
            line = proc.stdout.strip().splitlines()[-1]
            (out / workload / f"seed-{seed}.json").write_text(line + "\n")
            result = json.loads(line)
            sets.setdefault(workload, {})[seed] = result
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    print_spread(sets)
    ok = not failed_runs and all(r["correct"] for rs in sets.values() for r in rs.values())
    if args.trace:
        ok = check_coverage(sets) and ok
    return 0 if ok else 1


def verdict(base, new, better, bound):
    """worse / better / unresolved for two {seed: value} series."""
    bq1, bmed, bq3 = quartiles(list(base.values()))
    nmed = statistics.median(new.values())
    sign = 1 if better == "higher" else -1
    gain = sign * (nmed - bmed)  # positive when the new set is better
    pairs = [sign * (new[s] - base[s]) for s in base if s in new]
    wins = sum(1 for d in pairs if d > 0)
    losses = sum(1 for d in pairs if d < 0)
    noise = bq3 - bq1
    if bound is not None and -gain > bound * abs(bmed):
        return "worse"
    if bound is None and -gain > noise and pairs and losses >= 0.9 * len(pairs):
        return "worse"
    if gain > noise and pairs and wins >= 0.9 * len(pairs):
        return "better"
    return "unresolved"


def compare(args):
    spec, _ = benchmark_spec()
    base, new = load(args.base), load(args.new)
    worse = 0
    for workload in base:
        if workload not in new:
            print(f"{workload}: missing from {args.new}")
            continue
        print(f"{workload}: {len(base[workload])} base runs, {len(new[workload])} new runs")
        names = next(iter(base[workload].values()))["metrics"]
        for name in names:
            b, n = series(base[workload], name), series(new[workload], name)
            if not n:
                continue
            better, bound = spec.get(name, ("lower", None))
            v = verdict(b, n, better, bound)
            worse += v == "worse"
            bq = quartiles(list(b.values()))
            nq = quartiles(list(n.values()))
            print(f"  {name:<48} base {bq[1]:<11.6g} [{bq[0]:.6g}, {bq[2]:.6g}]  "
                  f"new {nq[1]:<11.6g} [{nq[0]:.6g}, {nq[2]:.6g}]  {v}")
    return 1 if worse else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    rec = sub.add_parser("record", help="run the benchmark once per seed and keep the results")
    rec.add_argument("dir")
    rec.add_argument("--workload", dest="workloads", action="append", choices=WORKLOADS,
                     help="repeat to record several; default all")
    rec.add_argument("--runs", type=int, default=10)
    rec.add_argument("--first-seed", type=int, default=1)
    rec.add_argument("--trace", type=int, choices=(0, 1), default=0)
    spr = sub.add_parser("spread", help="quartile spread of a recorded set")
    spr.add_argument("dir")
    cmp_ = sub.add_parser("compare", help="medians, quartiles and verdicts of two sets")
    cmp_.add_argument("base")
    cmp_.add_argument("new")
    args = ap.parse_args(argv)
    if args.mode == "record":
        return record(args)
    if args.mode == "spread":
        print_spread(load(args.dir))
        return 0
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
