"""Benchmark of the `quantakit` CLI, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload quantum --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

One workload per call prints its metrics, then one JSON line: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, or its per-layer
metrics with ``--trace 1``.  ``--workload all`` runs every workload both
ways and prints both tables.  Each workload runs in a fresh interpreter
with a pinned environment; the full record, and the spans of a traced
run, go to ``perfbench/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 15


class BenchError(RuntimeError):
    pass


def pinned_env() -> dict[str, str]:
    """Fixed hash seed, no QUANTAKIT_THREADS, one OpenMP/BLAS thread."""
    env = {k: v for k, v in os.environ.items() if k != "QUANTAKIT_THREADS"}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _python(args: list[str], timeout: float) -> str:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=pinned_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out after {timeout} s: {' '.join(args)}") from None
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def commit() -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_worker(workload: str, seed: int, seconds: int, trace: int, work: Path,
               spans: Path) -> dict:
    result = work / "result.json"
    _python(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace), "--work", str(work / "io"),
             "--result", str(result), "--spans", str(spans)], WORKER_TIMEOUT_S)
    return json.loads(result.read_text())


def setup_probe() -> float:
    return float(_python(["--setup-only"], PROBE_TIMEOUT_S).strip().splitlines()[-1])


def run_workload(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run one workload; returns the record written to perfbench/results/."""
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    spans = RESULTS / f"{stem}-spans.jsonl.gz"
    work = HERE / "work" / f"{stem}-{os.getpid()}"
    try:
        base = run_worker(workload, seed, seconds, trace, work, spans)
        probes = [] if trace else [setup_probe() for _ in range(SETUP_PROBES)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        values = dict(base["layers"])
        values["trace.jobs_per_s"] = base["jobs_per_s"]
        values["trace.overhead_ratio"] = base["untraced_jobs_per_s"] / base["jobs_per_s"]
        wanted = spec["per_layer"]
    else:
        values = {k: base[k] for k in base if not isinstance(base[k], (list, dict))}
        values["setup_s"] = statistics.median(probes)
        wanted = spec["end_to_end"]
    record = {
        "workload": workload,
        "trace": trace,
        "env": {**base["env"], "nproc": os.cpu_count(), "seed": seed, "commit": commit()},
        "correct": base["failed"] == 0,
        "attempted": base["attempted"],
        "failed": base["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
        "run": base,
    }
    if not trace:
        record["setup_probes_s"] = probes
    else:
        record["spans_file"] = str(spans.relative_to(ROOT))
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def report(record: dict) -> None:
    base = record["run"]
    print(f"# {record['workload']} trace={record['trace']} " + json.dumps(record["env"]))
    for name, m in record["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio: {base['fail_ratio']:.6g} ratio ({base['failed']}/{base['attempted']})")
    print(f"job latency is the median of {base['attempted'] / base['samples']:.1f} probe-scaled "
          f"repeats on average; job_tail_ms is p{base['tail_percentile']} of {base['samples']} jobs")
    for msg in base["failures"]:
        print(f"FAILED {msg}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, help="a workload name, or 'all'")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]]
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        if args.workload == "all":
            summary = {}
            for name in names:
                summary[name] = {}
                for trace in (0, 1):
                    record = run_workload(spec, name, args.seed, seconds, trace)
                    report(record)
                    summary[name][f"trace{trace}"] = {
                        k: v["value"] for k, v in record["metrics"].items()}
            print(json.dumps(summary))
            return 0
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r} (have: {', '.join(names)})")
        record = run_workload(spec, args.workload, args.seed, seconds, args.trace)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    report(record)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
