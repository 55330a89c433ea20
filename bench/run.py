"""gradmult benchmark: one workload, timed passes in fresh interpreters.

    python3 bench/run.py --workload {suite,heavy,random-qq} --seed N --seconds S --trace {0,1}

A closed loop over one single-threaded process: passes run one after
another, each in a new interpreter (bench/passes.py with src/ on
PYTHONPATH), because a `gradmult run` user pays every cache cold.  Before
them, SETUP_ONLY further interpreters stop after set-up, so setup_s is a
median of many set-ups.  Passes then start while the median pass so far
still fits in --seconds (at least MIN_PASSES), so a run lasts about
--seconds whatever the length of a pass.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer profile (bench/tracing.py) and the
tracing overhead.  Every item of every pass is checked; the last line of
standard output is one JSON object: correct, attempted, failed, metrics.
A human-readable table precedes it.  See bench/NOTES.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("suite", "heavy", "random-qq")
MIN_PASSES = 3
MIN_TRACED = 2
SETUP_ONLY = 10
# A run must end within 180 s; no pass starts after this point, and a pass
# still running at RUN_LIMIT_S is killed and its items counted as failed.
LAST_START_S = 120.0
RUN_LIMIT_S = 165.0


class Pass:
    """One finished pass process, timed from the parent."""

    def __init__(self, started, ended, out):
        self.setup_s = out["setup_end"] - started
        self.wall_s = ended - started
        self.items = out["items"]
        self.digest = out["digest"]
        self.rss_mb = out["maxrss_kb"] / 1024.0
        self.trace = out["trace"]


def run_pass(workload, seed, deadline, trace=False, setup_only=False):
    """Start one pass process and wait for it; None if it failed or overran."""
    cmd = [sys.executable, str(BENCH / "passes.py"), "--workload", workload,
           "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"pass killed after {time.monotonic() - started:.1f} s", file=sys.stderr)
        return None
    ended = time.monotonic()
    if proc.returncode != 0:
        print(f"pass exited with code {proc.returncode}", file=sys.stderr)
        return None
    return Pass(started, ended, json.loads(stdout.strip().splitlines()[-1]))


def percentile(values, p):
    """Interpolated percentile, p in (0, 100)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Run:
    """The passes of one benchmark run, with their checks."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.t0 = time.monotonic()
        self.deadline = self.t0 + RUN_LIMIT_S
        self.items_per_pass = None
        self.setups = []
        self.passes = []
        self.traced = []
        self.lost = 0  # passes that died or overran
        self.problems = []

    def elapsed(self):
        return time.monotonic() - self.t0

    def room_for_pass(self, seconds, done, minimum):
        """Whether another pass should start: always until `minimum` passes
        are done (up to LAST_START_S), then only while the median pass so
        far still ends within `seconds`."""
        if self.elapsed() >= LAST_START_S:
            return False
        if done < minimum:
            return True
        passes = self.all_passes()
        typical = statistics.median(p.wall_s for p in passes) if passes else 0.0
        return self.elapsed() + typical <= seconds

    def add(self, trace=False, setup_only=False):
        p = run_pass(self.workload, self.seed, self.deadline, trace, setup_only)
        if p is None:
            self.lost += 1
            self.problems.append(("pass", "pass process failed or overran"))
            return
        self.setups.append(p.setup_s)
        if setup_only:
            return
        if self.items_per_pass is None:
            self.items_per_pass = len(p.items)
        elif len(p.items) != self.items_per_pass:
            self.problems.append(("pass", f"{len(p.items)} items, expected {self.items_per_pass}"))
        (self.traced if trace else self.passes).append(p)
        for ms, problem in p.items:
            if problem:
                self.problems.append(("traced" if trace else "untraced", problem))

    def all_passes(self):
        return self.passes + self.traced

    def attempted(self):
        n = sum(len(p.items) for p in self.all_passes())
        return n + self.lost * (self.items_per_pass or 1)

    def failed(self):
        bad = sum(1 for p in self.all_passes() for _, problem in p.items if problem)
        return bad + self.lost * (self.items_per_pass or 1)

    def check_outputs(self):
        """Every pass, traced or not, must print the same outputs."""
        digests = {p.digest for p in self.all_passes()}
        if len(digests) > 1:
            self.problems.append(("outputs", f"{len(digests)} different outputs across passes"))


def measure(run, seconds):
    for _ in range(SETUP_ONLY):
        run.add(setup_only=True)
    while run.room_for_pass(seconds, len(run.passes), MIN_PASSES):
        run.add()
    run.check_outputs()
    if not run.passes:
        return None
    ms = [ms for p in run.passes for ms, _ in p.items]
    attempted, failed = run.attempted(), run.failed()
    return {
        "setup_s": (statistics.median(run.setups), "s"),
        "wall_s": (statistics.median(p.wall_s for p in run.passes), "s"),
        "item_ms_p50": (statistics.median(ms), "ms"),
        "item_ms_p90": (percentile(ms, 90), "ms"),
        "peak_rss_mb": (statistics.median(p.rss_mb for p in run.passes), "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def measure_traced(run, seconds):
    import tracing

    run.add()
    while run.room_for_pass(seconds, len(run.traced), MIN_TRACED):
        run.add(trace=True)
        if len(run.traced) >= MIN_TRACED and run.room_for_pass(seconds, 0, 0):
            run.add()
    run.check_outputs()
    if not run.traced or not run.passes:
        return None
    reports = [p.trace for p in run.traced]
    if any(r["counts"] != reports[0]["counts"] for r in reports):
        run.problems.append(("trace", "exact counts differ between traced passes"))
    counts = reports[0]["counts"]
    for name in tracing.ENTRY_POINTS[run.workload]:
        if not counts[name + ".calls"]:
            run.problems.append(("trace", f"{name} never ran"))
    values = dict(counts)
    for key in ("times", "ratios"):
        for name in reports[0][key]:
            values[name] = statistics.median(r[key][name] for r in reports)
    overhead = statistics.median(p.wall_s for p in run.traced) / \
        statistics.median(p.wall_s for p in run.passes)
    values[tracing.OVERHEAD] = overhead
    return {name: (values[name], unit) for name, unit in tracing.per_layer_metrics()}


def print_table(run, metrics, trace):
    n_items = sum(len(p.items) for p in run.passes)
    print(f"workload {run.workload}  seed {run.seed}  "
          f"{len(run.passes)} untraced + {len(run.traced)} traced passes  "
          f"{run.items_per_pass} items per pass  {run.elapsed():.1f} s")
    notes = {
        "setup_s": f"median of {len(run.setups)} set-ups",
        "wall_s": f"median of {len(run.passes)} passes",
        "item_ms_p50": f"{n_items} items pooled",
        "item_ms_p90": f"{n_items} items pooled, {n_items // 10} beyond",
        "peak_rss_mb": "median ru_maxrss of the passes",
    }
    for name, (value, unit) in metrics.items():
        if trace and value == 0:
            continue
        print(f"  {name:<48} {value:>14.6g} {unit:<6} {notes.get(name, '')}")
    if not trace:
        attempted, failed = run.attempted(), run.failed()
        print(f"  {'fail_ratio':<48} {failed / attempted:>14.6g} {'ratio':<6} "
              f"{failed} of {attempted} items failed")
    for where, problem in run.problems:
        print(f"  FAIL ({where}) {problem}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "gradmult" / "__init__.py").is_file():
        print(f"bench: no gradmult sources under {SRC}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed)
    if args.trace:
        metrics = measure_traced(run, args.seconds)
    else:
        metrics = measure(run, args.seconds)
    if metrics is None:
        for where, problem in run.problems:
            print(f"bench: ({where}) {problem}", file=sys.stderr)
        print("bench: no pass finished; no result", file=sys.stderr)
        return 1
    print_table(run, metrics, args.trace)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted(),
        "failed": run.failed(),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
