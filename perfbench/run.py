"""quadpartitions benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload dense-grid --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --seed 1            # all four workloads, one child each

One run is one interpreter and one client: the workload's seeded job list
runs serially, each job one quadpartitions argv passed to
quadpartitions.cli.main in-process with stdout captured (a closed loop, no
parallelism; `dm` keeps --jobs 1).  After the timed loop every output is
checked: its digest against table.json, the independent checks in checks.py,
and for a seeded sample a `python -m quadpartitions` subprocess that must
print the same bytes.  The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.

Job and set-up times are wall times scaled to a reference host speed
measured around each job (clock.py): the shared host drifts by a third in
speed within and between runs, which no run length here can average out.
run_s is the sum of the scaled job times, job_s_p50 their median and
job_s_tail their quantile at the highest percentile with at least ten jobs
beyond it, both Harrell-Davis estimates.

--trace 0 reports the end-to-end metrics.  --trace 1 runs the same job list
with per-layer spans and counters (tracing.py) and reports the layer metrics;
its tracing overhead is its own run_s over that of an untraced child run with
the same seed.  End-to-end numbers never come from a traced run.

Exit codes: 0 after a completed run (check `correct`), 2 when the program's
sources are missing from the checkout or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from math import exp, lgamma, log, log1p
from pathlib import Path

import checks
from clock import REF_SECONDS, SENSITIVITY, SpeedLog
from harness import ROOT, SRC, ProgramMissing, argv_key, digest, import_cli, load_table, run_job
from tracing import COMPUTED, LAYER_METRICS, Tracer
from workloads import REFERENCE_SECONDS, WORKLOADS, job_list

END_TO_END = (
    ("run_s", "s"),
    ("job_s_p50", "s"),
    ("job_s_tail", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

SETUP_SAMPLES = 15
FIDELITY_SAMPLES = 2
FIDELITY_MAX_COST_S = 0.5  # sample only jobs this cheap, so the check stays cheap
HERE = Path(__file__).resolve().parent
TRACE_DIR = HERE / "out"


# Runs in a fresh interpreter: times the import and the parser, then, with the
# program loaded, the reference kernel in the same process (clock.py).
_SETUP_CHILD = """\
import time
t0 = time.perf_counter()
import quadpartitions.cli as c
c.build_parser()
t1 = time.perf_counter()
import clock
refs = sorted(clock.reference_time() for _ in range(7))
print(repr(t1 - t0), repr(refs[3]))
"""


def measure_setup() -> float:
    """Median time for a fresh interpreter to import the CLI and build its parser.

    The child times itself from just before the import to just after the
    parser is built, so process start-up, which the program cannot change
    and which is the noisiest part, stays out.  Each sample is scaled by the
    reference kernel timed in the same child right after it.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    cmd = [sys.executable, "-c", _SETUP_CHILD]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60, capture_output=True)  # bytecode
    times = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60,
                              capture_output=True, text=True)
        setup, ref = map(float, proc.stdout.split())
        times.append(setup * (REF_SECONDS / ref) ** SENSITIVITY)
    return statistics.median(times)


def harrell_davis(values: list[float], p: float, steps: int = 32) -> float:
    """Harrell-Davis estimate of the p-quantile of values.

    A mean of all order statistics, the i-th weighted by the Beta((n+1)p,
    (n+1)(1-p)) probability of ((i-1)/n, i/n], integrated by the midpoint
    rule.  It leans on the few jobs nearest the quantile rather than on one,
    so one job's timing noise, or a gap in job costs at the quantile, moves it
    much less than the plain order statistic.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_beta = lgamma(a) + lgamma(b) - lgamma(a + b)
    weights = []
    for i in range(n):
        xs = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(exp((a - 1) * log(x) + (b - 1) * log1p(-x) - log_beta) for x in xs))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten of n jobs beyond it."""
    return 100.0 * max(1, n - 10) / n


def untraced_run_s(args: argparse.Namespace) -> float:
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"untraced child run failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]["run_s"]["value"]


def run_workload(args: argparse.Namespace) -> int:
    cli = import_cli()
    table = load_table()
    jobs = job_list(args.workload, args.seed, args.seconds)
    tracer = None
    if args.trace:
        baseline = untraced_run_s(args)
        tracer = Tracer()
    else:
        setup_s = measure_setup()

    results = []
    intervals = []
    # Keep the benchmark's own heap out of the program's garbage collections,
    # and start every job with empty young generations, as a fresh CLI process does.
    gc.collect()
    gc.freeze()
    if tracer is not None:
        tracer.install()
    try:
        with SpeedLog() as speed:
            for i, argv in enumerate(jobs):
                if tracer is not None:
                    tracer.start_job(i)
                gc.collect()
                t0 = time.perf_counter()
                rc, out, err = run_job(cli, argv)
                t1 = time.perf_counter()
                results.append((argv, rc, out, err))
                intervals.append((t0, t1))
                if tracer is not None:
                    tracer.end_job(len(out))
    finally:
        if tracer is not None:
            tracer.uninstall()
    gc.collect()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    times = speed.scale(intervals)

    checker = checks.Checker()
    problems: dict[int, list[str]] = {}
    for i, (argv, rc, out, err) in enumerate(results):
        found = []
        expected = table.get(argv_key(argv))
        if rc != 0:
            found.append(f"exit {rc}: {err.strip()[-500:]}")
        elif expected is None:
            found.append("argv is not in the digest table")
        elif digest(out) != expected:
            found.append("stdout digest differs from table.json")
        else:
            found += checker.check(argv, out)
        if found:
            problems[i] = found
    rng = random.Random(f"fidelity/{args.workload}/{args.seed}")
    cheap = [i for i, t in enumerate(times) if t <= FIDELITY_MAX_COST_S]
    for i in rng.sample(cheap, min(FIDELITY_SAMPLES, len(cheap))):
        argv, rc, out, _ = results[i]
        mismatch = checks.fidelity(argv, rc, out)
        if mismatch:
            problems.setdefault(i, []).append(mismatch)

    for i, found in sorted(problems.items()):
        for line in found[:5]:
            print(f"FAIL job {i} [{argv_key(results[i][0])}]: {line}")
    attempted, failed = len(results), len(problems)
    wall = sum(t1 - t0 for t0, t1 in intervals)
    print(f"workload {args.workload}, seed {args.seed}: {attempted} jobs, {failed} failed "
          f"(fail_frac {failed / attempted:.4f}); {wall:.3f} s of wall time in jobs, "
          f"{sum(times):.3f} s at the reference speed")

    if tracer is None:
        pct = tail_percentile(len(times))
        values = {
            "run_s": sum(times),
            "job_s_p50": harrell_davis(times, 0.5),
            "job_s_tail": harrell_davis(times, pct / 100),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
        for name, value in values.items():
            note = f"  (p{pct:.1f} of {attempted} jobs)" if name == "job_s_tail" else ""
            print(f"  {name:<12} {value:12.6f} {units[name]}{note}")
        print(f"  {'fail_frac':<12} {failed / attempted:12.6f} ratio")
    else:
        values = tracer.metrics(sum(times), baseline)
        units = {name: unit for name, unit, _ in LAYER_METRICS}
        for name, unit, _ in LAYER_METRICS:
            note = "  (computed)" if name in COMPUTED else ""
            print(f"  {name:<24} {values[name]:16.6f} {unit}{note}")
        path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path, jobs)
        print(f"  spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own child interpreter; one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, help="default: all four, one child each")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=REFERENCE_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        return run_workload(args) if args.workload else run_all(args)
    except ProgramMissing as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
