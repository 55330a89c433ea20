"""One pass of a workload in a fresh interpreter, as a `gradmult run` user
pays it: import, set-up (script parsing or case generation), then every item.

    PYTHONPATH=src python3 bench/passes.py --workload NAME --seed N [--trace] [--setup-only]

run.py starts this process and reads the single JSON line it prints:
setup_end (time.monotonic() when set-up finished, comparable with the
parent's clock), one [ms, problem] pair per item (problem is null when the
item passed), a digest of every output, ru_maxrss, and with --trace the
per-layer profile.
"""

import argparse
import hashlib
import json
import random
import resource
import signal
import sys
import time
from pathlib import Path

import gradmult
import gradmult.reports
import tracing
import workloads
from gradmult import KernelError

ITEM_LIMIT_S = 30.0


class ItemTimeout(BaseException):
    """Raised by SIGALRM inside an item; BaseException so no kernel handler eats it."""


def _on_alarm(signum, frame):
    raise ItemTimeout()


class ItemClock:
    """Times items and ends any item that runs past ITEM_LIMIT_S."""

    def __init__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, _on_alarm)

    def run(self, fn, *args):
        """(result, problem); the result is None when the item timed out or
        raised.  A KernelError is a typed refusal, not a failure: it goes to
        the caller."""
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, ITEM_LIMIT_S)
        try:
            return fn(*args), None
        except ItemTimeout:
            return None, f"no result within {ITEM_LIMIT_S:g} s"
        except KernelError:
            raise
        except Exception as exc:
            return None, f"raised {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.samples.append((time.perf_counter() - t0) * 1000.0)


def _timed_run_command(clock, run_command, problems):
    """run_command with the item clock around it; a command that timed out or
    raised becomes an error report, so run_script still reaches the commands
    after it."""

    def wrapper(session, command):
        report, problem = clock.run(run_command, session, command)
        problems.append(problem)
        if report is None:
            report = {"command": command.text, "status": "error", "tags": [],
                      "error": {"code": "BENCH-ITEM-FAILED", "message": problem}}
        return report

    return wrapper


def _script_pass(workload, seed, setup_only, tracer):
    jobs = workloads.script_jobs(workload)
    random.Random(seed).shuffle(jobs)
    if tracer is not None:
        tracer.install()
    parsed = [workloads.parse_job(job) for job in jobs]
    setup_end = time.monotonic()
    if setup_only:
        return setup_end, [], []
    clock = ItemClock()
    clock_problems = []
    gradmult.reports.run_command = _timed_run_command(
        clock, gradmult.reports.run_command, clock_problems)
    items, outputs = [], []
    for job, script in zip(jobs, parsed):
        first = len(clock_problems)
        blob = workloads.run_job(job, script)
        problems, stable = workloads.check_job(job, blob)
        ran = clock_problems[first:]
        if len(problems) != len(ran):
            raise RuntimeError(f"{job.name}: {len(ran)} commands ran, "
                               f"{len(problems)} reports came back")
        for ms, clock_problem, problem in zip(clock.samples[first:], ran, problems):
            what = "; ".join(p for p in (clock_problem, problem) if p)
            items.append([ms, f"{job.name}: {what}" if what else None])
        outputs.append(stable)
    return setup_end, items, outputs


def _random_qq_pass(seed, setup_only, tracer):
    if tracer is not None:
        tracer.install()
    cases = workloads.random_qq_cases(seed)
    setup_end = time.monotonic()
    if setup_only:
        return setup_end, [], []
    expected = workloads.random_qq_expected(seed)
    clock = ItemClock()
    items, outputs = [], []
    for k, (ideal, regenerated) in enumerate(cases):
        try:
            values, problem = clock.run(workloads.run_case, ideal, regenerated)
        except KernelError as exc:
            values, problem = {"refused": exc.code}, None
        if problem is None:
            problem = workloads.check_case(values, expected[k] if expected else None)
        items.append([clock.samples[-1], f"case {k}: {problem}" if problem else None])
        outputs.append(json.dumps(values, sort_keys=True))
    return setup_end, items, outputs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(gradmult.__file__).resolve().parents:
        raise SystemExit(f"gradmult imported from {gradmult.__file__}, not from {src}")
    tracer = tracing.Tracer() if args.trace else None
    if args.workload == "random-qq":
        setup_end, items, outputs = _random_qq_pass(args.seed, args.setup_only, tracer)
    else:
        setup_end, items, outputs = _script_pass(
            args.workload, args.seed, args.setup_only, tracer)
    digest = hashlib.sha256("\n".join(outputs).encode()).hexdigest()
    result = {
        "setup_end": setup_end,
        "items": items,
        "digest": digest,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.report() if tracer is not None else None,
    }
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
