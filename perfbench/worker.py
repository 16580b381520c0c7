"""One workload in one process: build inputs, run timed batches, check answers.

Started by ``run.py`` with ``src`` on PYTHONPATH; writes its result as JSON to
the ``--out`` file.  Queries run one at a time (closed loop, no threads)
through rectaspec's public entry points: ``rectaspec.cli.main`` for searches
and checks, ``switching_isomorphic`` and ``weighing.equivalent`` for decide.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import resource
import statistics
import sys
import tempfile
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from time import perf_counter

import networkx
import numpy as np

import calibrate
import inputs
import oracles
import rectaspec
import rectaspec.cli as cli
import rectaspec.switching as switching
import rectaspec.weighing as weighing
from rectaspec._kernel import active_backend
from rectaspec.core import SignedGraph
from tracing import Tracer


def run_query(q: inputs.Query) -> tuple[float, float, dict]:
    """Start and end clock readings, and what the program answered."""
    if q.kind in ("decide-graph", "decide-weighing"):
        fn = (switching.switching_isomorphic if q.kind == "decide-graph"
              else weighing.equivalent)
        a, b = q.data["program_args"]
        start = perf_counter()
        try:
            answer, witness = fn(a, b)
        except Exception:
            return start, perf_counter(), {"error": traceback.format_exc(limit=3)}
        end = perf_counter()
        if witness is None:
            return start, end, {"answer": bool(answer), "witness": None}
        if q.kind == "decide-graph":
            wit = (list(witness.perm), sorted(witness.switch_set))
        else:
            wit = (witness.p_perm, witness.p_signs, witness.q_perm, witness.q_signs)
        return start, end, {"answer": bool(answer), "witness": wit}
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(q.argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        return start, perf_counter(), {"error": traceback.format_exc(limit=3)}
    return start, perf_counter(), {"code": code, "stdout": out.getvalue(),
                                   "stderr": err.getvalue()}


def problems_of(q: inputs.Query, ans: dict) -> list[str]:
    if "error" in ans:
        return ["exception: " + ans["error"].strip().splitlines()[-1]]
    d = q.data
    if q.kind == "search":
        return oracles.check_signature_search(d["adj"], ans["code"], ans["stdout"],
                                              ans["stderr"], d["expected"])
    if q.kind == "search-weighing":
        return oracles.check_weighing_search(d["order"], d["weight"], ans["code"],
                                             ans["stdout"], d["expected"])
    if q.kind == "check":
        return oracles.check_screen(d["adj"], ans["code"], ans["stdout"])
    wit = ans["witness"]
    if q.kind == "decide-graph":
        perm, switch_set = wit if wit else (None, ())
        return oracles.check_switching_answer(d["g"], d["h"], d["truth"],
                                              ans["answer"], perm, switch_set)
    return oracles.check_weighing_answer(d["m"], d["n"], d["truth"], ans["answer"], wit)


def prepare(queries) -> None:
    """Program-side objects for decide, built before any timing."""
    for q in queries:
        if q.kind == "decide-graph":
            q.data["program_args"] = (SignedGraph(q.data["g"].astype(np.int8)),
                                      SignedGraph(q.data["h"].astype(np.int8)))
        elif q.kind == "decide-weighing":
            q.data["program_args"] = (
                weighing.WeighingMatrix(q.data["m"].astype(np.int8)),
                weighing.WeighingMatrix(q.data["n"].astype(np.int8)))


def warmup_queries(workload: str, queries):
    """Cheap queries run once, untimed, so lazy imports happen before timing."""
    if workload.startswith("search"):
        searches = [q for q in queries if q.kind == "search"]
        return [min(searches, key=lambda q: q.data["adj"].shape[0])]
    return queries[:10]


@dataclass
class Batch:
    raw: list[float]  # seconds per query, ticks removed
    scaled: list[float]  # the same, corrected for machine speed
    speed: list[float]  # the speed samples taken during the batch
    elapsed: float  # wall seconds inside the queries, ticks included


def run_batch(queries, answers, tracer=None) -> Batch:
    windows = []
    with calibrate.Speedometer() as meter:
        for i, q in enumerate(queries):
            if tracer is not None:
                tracer.query = i
            start, end, ans = run_query(q)
            windows.append((start, end))
            answers.append((i, ans))
    raw, scaled = zip(*(meter.scaled(start, end) for start, end in windows))
    return Batch(list(raw), list(scaled), meter.speed,
                 sum(end - start for start, end in windows))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    # networkx warns on every WL hash; the warnings say nothing about the run
    warnings.simplefilter("ignore", UserWarning)

    out_dir = os.path.dirname(os.path.abspath(args.out))
    rng = random.Random(args.seed)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="inputs-") as tmp:
        def write_file(name, text):
            path = os.path.join(tmp, name)
            with open(path, "w") as fh:
                fh.write(text)
            return path

        queries = inputs.WORKLOADS[args.workload](rng, write_file)
        prepare(queries)
        run_batch(warmup_queries(args.workload, queries), [])

        answers: list[tuple[int, dict]] = []
        batches: list[Batch] = []
        per_layer = None
        if args.trace:
            untraced = run_batch(queries, answers)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_batch(queries, answers, tracer)
            finally:
                tracer.uninstall()
            per_layer = tracer.summary(traced.elapsed,
                                       sum(traced.scaled) - sum(untraced.scaled))
            tracer.write(args.out[:-len(".json")] + "-spans.json")
        else:
            began = perf_counter()
            while True:
                start = perf_counter()
                batches.append(run_batch(queries, answers))
                now = perf_counter()
                if now - began + (now - start) > args.seconds:  # next would overrun
                    break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = []
    verdicts: dict[tuple, list[str]] = {}
    for i, ans in answers:
        key = (i, json.dumps(ans, sort_keys=True, default=str))
        if key not in verdicts:
            verdicts[key] = problems_of(queries[i], ans)
        if verdicts[key]:
            failures.append(f"{queries[i].name}: {'; '.join(verdicts[key])}")

    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "meta": {
            "backend": active_backend(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "networkx": networkx.__version__,
            "rectaspec_path": os.path.dirname(rectaspec.__file__),
        },
        "attempted": len(answers),
        "failed": len(failures),
        "failures": failures[:20],
        "batches": len(batches) or 1,
        "queries_per_batch": len(queries),
        "expected_sources": sorted({f"{q.name}={q.data['expected']} ({q.data['source']})"
                                    for q in queries if "expected" in q.data}),
    }
    if per_layer is None:
        scaled = [t for b in batches for t in b.scaled]
        pct = statistics.quantiles(scaled, n=100, method="inclusive")
        result["e2e"] = {
            "wall_s": statistics.median(sum(b.scaled) for b in batches),
            "latency_p50_ms": pct[49] * 1000,
            "latency_p90_ms": pct[89] * 1000,
            "peak_rss_mb": peak_rss_mb,
        }
        result["latency_samples"] = len(scaled)
        result["raw_wall_s"] = [sum(b.raw) for b in batches]
        result["machine_speed"] = statistics.quantiles(
            [v for b in batches for v in b.speed], n=4, method="inclusive")
        for key, pick in (("median_latency_ms_by_query", "scaled"),
                          ("median_raw_latency_ms_by_query", "raw")):
            by_name: dict[str, list[float]] = {}
            for b in batches:
                for query, t in zip(queries, getattr(b, pick)):
                    by_name.setdefault(query.name, []).append(t * 1000)
            result[key] = {name: statistics.median(ts)
                           for name, ts in sorted(by_name.items())}
    else:
        result["per_layer"] = per_layer
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
