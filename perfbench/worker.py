"""Run one workload in this (fresh) process and write its result as JSON.

Started by ``run.py`` with a pinned environment; not meant to be run by
hand.  ``--setup-only`` prints only the set-up time: importing
``quantakit.cli`` and building the first gate library.

The workload is a closed loop with one client: one job at a time, each
job repeated MIN_REPEATS to MAX_REPEATS times so that the run lasts about
``--seconds``.  With ``--trace 1`` it makes TRACE_PASSES untraced, then
TRACE_PASSES traced plain passes instead.  Only the program call is timed.
Outputs are kept (once per distinct content) and checked by the oracles
after the timed loop.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
MIN_REPEATS = 5
MAX_REPEATS = 30
TRACE_PASSES = 2
# Latencies are reported as multiples of the speed probe's time, in ms of
# a machine where the probe takes PROBE_REF_MS (about its fastest time on
# the 2-vCPU VM, Python 3.11, NumPy 2.4 that the bounds were set on).
PROBE_REF_MS = 1.5


def setup_seconds() -> float:
    start = perf_counter()
    import quantakit.cli

    quantakit.cli.gates.default_library()
    return perf_counter() - start


def speed_probe() -> float:
    """Milliseconds for a fixed pure-Python task (label strings, dicts,
    complex sums) like the program's own, with the collector off."""
    gc.disable()
    try:
        t0 = perf_counter()
        acc: dict[str, complex] = {}
        for i in range(3000):
            key = f"({i % 37},[{i % 11}])"
            acc[key] = acc.get(key, 0j) + complex(i, 1) * 0.5
        return (perf_counter() - t0) * 1e3
    finally:
        gc.enable()


def tail_percentile(n: int) -> int:
    """Highest whole percentile of ``n`` samples with at least ten beyond it."""
    return math.floor(100 * (1 - 10 / n))


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def _call(job, cli, circuitgen, vecmonad):
    """The timed part of a job: one CLI call, or parse + simulate_state.
    Returns (error or None, extra outputs)."""
    if job.argv is None:
        text = job.qasm.read_text()
        state = circuitgen.simulate_state(circuitgen.parse_qasm(text), vecmonad.AmpVec(job.amps))
        return None, {"state": dict(state.items()), "qasm": text.encode()}
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(job.argv)
    return (None if rc == 0 else f"exit {rc}: {err.getvalue().strip()}"), {}


def repeats(first_ms: list[float], seconds: float) -> list[int]:
    """Repeats per job, MIN_REPEATS to MAX_REPEATS: every job may spend up
    to a common time level, at least an equal share of ``seconds``, raised
    until the run fills ``seconds`` where cheap jobs leave time unused."""
    ms = [max(t, 1e-3) for t in first_ms]

    def counts(level: float) -> list[int]:
        return [min(MAX_REPEATS, max(MIN_REPEATS, int(level // t))) for t in ms]

    level = seconds * 1e3 / len(ms)
    while level < seconds * 1e3 and sum(n * t for n, t in zip(counts(level * 1.05), ms)) <= seconds * 1e3:
        level *= 1.05
    return counts(level)


def run_passes(jobs, seconds: float = 0.0, passes: int | None = None, tracer=None) -> dict:
    """Closed loop, one job at a time.  Round 0 runs the job list in order;
    later rounds spread each job's remaining repeats evenly over the run,
    so that a job's repeats meet different states of a shared machine.
    With ``passes``, every job runs exactly that often (plain passes), so
    that trace counts are per pass.  Outputs are kept once per distinct
    content."""
    from quantakit import circuitgen, cli, vecmonad

    latencies: list[float] = []
    probes: list[float] = []
    runs: list[tuple[int, int | str]] = []   # (job index, variant index or error)
    variants: list[list[dict]] = [[] for _ in jobs]

    def execute(i: int, round_no: int) -> None:
        job = jobs[i]
        probes.append(speed_probe())
        if tracer is not None:
            tracer.job = f"{round_no}:{job.id}"
        t0 = perf_counter()
        try:
            err, outs = _call(job, cli, circuitgen, vecmonad)
        except (Exception, SystemExit) as exc:
            err = f"{type(exc).__name__}: {exc}"
        latencies.append((perf_counter() - t0) * 1e3)
        if err is not None:
            runs.append((i, err))
            return
        try:
            outs.update((role, path.read_bytes()) for role, path in job.outputs.items())
        except OSError as exc:
            runs.append((i, f"missing output: {exc}"))
            return
        seen = variants[i]
        v = next((k for k, o in enumerate(seen) if o == outs), len(seen))
        if v == len(seen):
            seen.append(outs)
        runs.append((i, v))

    for i in range(len(jobs)):
        execute(i, 0)
    if passes is None:
        counts = repeats(latencies[: len(jobs)], seconds)
    else:
        counts = [passes] * len(jobs)
    rounds = max(counts)
    for r in range(1, rounds):
        for i, n in enumerate(counts):
            if r * n // rounds > (r - 1) * n // rounds:
                execute(i, r)
    probes.append(speed_probe())
    # Each job's time over the mean of the probes just before and after it.
    ratios = [ms * 2 / (probes[k] + probes[k + 1]) for k, ms in enumerate(latencies)]
    return {"rounds": rounds, "latencies": latencies, "ratios": ratios,
            "runs": runs, "variants": variants}


def verify(jobs, loop: dict) -> dict:
    """Check every distinct output; sum circuit counts over the job list."""
    from oracles import OracleError

    verdicts: list[list[str | None]] = []
    circuit = {"gates": 0, "depth": 0, "ancillas": 0, "cx_cost": 0}
    for job, seen in zip(jobs, loop["variants"]):
        row = []
        for v, outs in enumerate(seen):
            try:
                counts = job.check(outs)
                row.append(None)
            except OracleError as exc:
                counts = None
                row.append(f"oracle: {exc}")
            if v == 0 and counts:
                for key in circuit:
                    circuit[key] += counts[key]
        verdicts.append(row)
    failures = []
    for i, outcome in loop["runs"]:
        msg = outcome if isinstance(outcome, str) else verdicts[i][outcome]
        if msg is not None:
            failures.append(f"{jobs[i].id}: {msg}")
    return {"failures": failures, "circuit": circuit}


def summarize(jobs, loop: dict, checked: dict) -> dict:
    """End-to-end metrics.  A job's latency is the median over its repeats
    of its time divided by the speed probes run just before and after it,
    times PROBE_REF_MS.  On a shared machine the CPU speed switches between
    modes up to 2x apart for seconds at a time; a job and the probes beside
    it run in the same mode, so the ratio cancels it."""
    per_job: list[list[float]] = [[] for _ in jobs]
    for (i, _), ratio in zip(loop["runs"], loop["ratios"]):
        per_job[i].append(ratio * PROBE_REF_MS)
    job_ms = [statistics.median(r) for r in per_job]
    lat = sorted(job_ms)
    pct = tail_percentile(len(lat))
    attempted = len(loop["latencies"])
    failed = len(checked["failures"])
    return {
        "rounds": loop["rounds"],
        "attempted": attempted,
        "failed": failed,
        "failures": checked["failures"][:10],
        "fail_ratio": failed / attempted,
        "jobs_per_s": len(lat) / (sum(lat) / 1e3),
        "job_p50_ms": statistics.median(lat),
        "job_tail_ms": nearest_rank(lat, pct),
        "tail_percentile": pct,
        "samples": len(lat),
        "job_ms": {job.id: ms for job, ms in zip(jobs, job_ms)},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **{f"circuit_{k}": v for k, v in checked["circuit"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", type=Path, help="directory for inputs and outputs")
    p.add_argument("--result", type=Path, help="where to write the result JSON")
    p.add_argument("--spans", type=Path, help="where to write the traced spans")
    args = p.parse_args(argv)

    setup = setup_seconds()
    if args.setup_only:
        print(repr(setup))
        return 0

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    from tracing import Tracer

    jobs = workloads.build(args.workload, args.seed, ROOT, args.work)
    if args.trace:
        # Untraced then traced plain passes in one process, for the overhead.
        plain = run_passes(jobs, passes=TRACE_PASSES)
        tracer = Tracer()
        tracer.install()
        try:
            loop = run_passes(jobs, passes=TRACE_PASSES, tracer=tracer)
        finally:
            tracer.uninstall()
    else:
        loop = run_passes(jobs, args.seconds)
    import numpy

    result = {
        "env": {"python": platform.python_version(), "numpy": numpy.__version__},
        "setup_s": setup,
        **summarize(jobs, loop, verify(jobs, loop)),
    }
    if args.trace:
        untraced = summarize(jobs, plain, verify(jobs, plain))
        result["untraced_jobs_per_s"] = untraced["jobs_per_s"]
        result["attempted"] += untraced["attempted"]
        result["failed"] += untraced["failed"]
        result["failures"] += untraced["failures"]
        result["fail_ratio"] = result["failed"] / result["attempted"]
        result["layers"] = tracer.per_pass(TRACE_PASSES)
        result["spans"] = tracer.write_spans(args.spans)
    args.result.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
