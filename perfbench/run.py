#!/usr/bin/env python3
"""rectaspec end-to-end benchmark.

    python3 perfbench/run.py --workload search-classes --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn
    python3 perfbench/run.py --self-test                  # plant wrong answers

Run from the repository root.  Each workload runs in its own child process
(``worker.py``) on the sources under ``src``; the parent measures set-up time
in fresh interpreters, prints every metric by name with its unit and sample
count, and ends with one JSON line.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

import calibrate
from tracing import unit_of

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ["search-classes", "search-refute", "decide", "screen"]
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 160


def child_env() -> dict:
    """The program on ``src``, with one BLAS thread: the load is a single
    thread, and NumPy's threaded BLAS on a busy two-CPU machine otherwise
    makes the same 112-vertex search take 30 ms or 95 ms from run to run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def setup_seconds() -> list[tuple[float, float]]:
    """(raw, speed-corrected) seconds ``import rectaspec.cli`` takes in fresh
    interpreters (one untimed first import writes the bytecode caches).

    The timed runs have no timeout: ``Popen.wait`` with a timeout polls in
    steps of up to 50 ms, which would quantise the measurement."""
    cmd = [sys.executable, "-c", "import rectaspec.cli"]
    subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True, timeout=60)
    samples = []
    for _ in range(SETUP_REPEATS):
        before = calibrate.burst()
        start = perf_counter()
        subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True)
        raw = perf_counter() - start
        samples.append((raw, raw * (before + calibrate.burst()) / 2))
    return samples


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "rectaspec")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".pyx")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    os.makedirs(OUT, exist_ok=True)
    out = os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}.json")
    setup = [] if trace else setup_seconds()
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace), "--out", out],
                   env=child_env(), cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)
    with open(out) as fh:
        result = json.load(fh)
    result["meta"].update(seed=seed, commit=git_commit(), source_sha256=source_digest(),
                          nproc=os.cpu_count(),
                          cpus_usable=len(os.sched_getaffinity(0)))
    if setup:
        raw, scaled = zip(*setup)
        result["e2e"] = {"setup_s": statistics.median(scaled), **result["e2e"]}
        result["setup_samples"] = scaled
        result["raw_setup_s"] = raw
    with open(out, "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def report(result: dict) -> None:
    meta = result["meta"]
    print("# meta " + " ".join(f"{k}={meta[k]}" for k in sorted(meta)))
    print(f"# {result['workload']}: attempted {result['attempted']} failed "
          f"{result['failed']} failed_frac {result['failed'] / result['attempted']:.4f}"
          f" batches {result['batches']} x {result['queries_per_batch']} queries")
    for line in result["failures"]:
        print(f"#   FAILED {line}")
    samples = {"setup_s": f"median of {len(result.get('setup_samples', []))} imports",
               "wall_s": f"median of {result['batches']} batches",
               "latency_p50_ms": f"{result.get('latency_samples')} queries",
               "latency_p90_ms": f"{result.get('latency_samples')} queries",
               "peak_rss_mb": "1 process"}
    for name, value in result.get("e2e", result.get("per_layer", {})).items():
        print(f"  {name:32s} {value:14.6g} {unit(name):6s} {samples.get(name, '')}")


def unit(name: str) -> str:
    if name in ("setup_s", "wall_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    return unit_of(name)


def final_line(result: dict) -> dict:
    metrics = result.get("e2e") or result["per_layer"]
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check that every oracle rejects planted wrong answers")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "rectaspec", "__init__.py")):
        print(f"error: no rectaspec sources under {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        return subprocess.run([sys.executable, os.path.join(HERE, "selftest.py")],
                              env=child_env(), cwd=ROOT, timeout=170).returncode
    if args.workload is None:
        ap.error("--workload or --self-test is required")
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        except (subprocess.SubprocessError, OSError) as err:
            print(f"error: workload {name} did not complete: {err}", file=sys.stderr)
            return 1
        report(results[name])
    if args.workload == "all":
        print(json.dumps({name: final_line(r) for name, r in results.items()}))
    else:
        print(json.dumps(final_line(results[args.workload])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
