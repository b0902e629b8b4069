"""Benchmark worker: one single-threaded process that sets up ``ttm`` and runs
a plan's jobs through ``ttm.cli.main`` in a closed loop.

Run by ``bench/run.py``; reads a plan (JSON) and writes a result (JSON).
It prints ``ready`` once ``import ttm`` and parsing the inputs are done, so
the parent can time set-up from process start.  With ``--setup-only`` it
exits right there.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import ttm.cli  # noqa: E402  (set-up starts here)
import ttm.intervals  # noqa: E402
import ttm.textio  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


class JobTimeout(BaseException):
    """Raised by the wall-time guard; a BaseException so that no handler
    inside the program swallows it."""


def _alarm(signum, frame):
    raise JobTimeout()


def run_job(job, precision, guard_s):
    """One CLI call with fresh precision and a wall-time guard.

    Returns (latency_s, exit code or None, stdout, escalations, guard reason).
    """
    os.environ["TTM_PRECISION_BITS"] = str(precision)
    ttm.intervals.set_precision(ttm.intervals.precision_from_env())
    gc.collect()   # start each job from the same heap, whatever ran before it
    out, err = io.StringIO(), io.StringIO()
    rc, guard = None, None
    signal.setitimer(signal.ITIMER_REAL, guard_s)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = ttm.cli.main(job["argv"])
    except JobTimeout:
        guard = f"wall-time guard ({guard_s:.0f} s)"
    except MemoryError:
        guard = "address-space guard"
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a traceback is a failed job, not a dead worker
        guard = f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    latency = time.perf_counter() - start
    escalations = round(math.log2(ttm.intervals.precision_bits() / precision))
    return latency, rc, out.getvalue(), escalations, guard


def cpu_seconds():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def run_pass(plan, jobs, reference, seen, records, spans=None, deadline=None):
    """Run every job once; judge each outside its timed region."""
    wall0, cpu0 = time.perf_counter(), cpu_seconds()
    escalations = 0
    for job in jobs:
        guard_s = plan["guard_s"]
        if deadline is not None:
            guard_s = max(1.0, min(guard_s, deadline - time.perf_counter()))
        if spans is not None:
            spans.current_job = job["index"]
        latency, rc, out, esc, guard = run_job(job, plan["precision"], guard_s)
        escalations += esc
        digest = workloads.digest(out)
        ref = reference.get(job["id"]) if job["ref"] else seen.get(job["id"])
        reasons = [guard] if guard else workloads.judge(job, rc, out, ref)
        seen.setdefault(job["id"], digest)
        records.append({"id": job["id"], "latency_s": latency, "rc": rc,
                        "sha256": digest, "escalations": esc, "failures": reasons,
                        "traced": spans is not None})
    return time.perf_counter() - wall0, cpu_seconds() - cpu0, escalations


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("plan")
    ap.add_argument("result", nargs="?")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    with open(args.plan, encoding="utf-8") as handle:
        plan = json.load(handle)
    for path in plan["inputs"]:
        with open(path, encoding="utf-8") as handle:
            ttm.textio.parse(handle.read())
    print("ready", flush=True)
    if args.setup_only:
        return 0

    limit = plan["address_space_mb"] << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    signal.signal(signal.SIGALRM, _alarm)
    reference = workloads.load_reference() if plan["reference"] else {}
    jobs = plan["jobs"]
    for k, job in enumerate(jobs):
        job["index"] = k
    orders = [[jobs[i] for i in order] for order in plan["orders"]]
    seen, records, passes, layers = {}, [], [], None
    deadline = time.perf_counter() + plan["deadline_s"]
    if not plan["trace"]:
        for todo in orders:
            if time.perf_counter() > deadline:
                break
            passes.append(run_pass(plan, todo, reference, seen, records, None, deadline))
    else:
        # one untraced pass, then the same order traced: their ratio is the
        # tracing overhead, and the traced outputs must hash the same
        untraced = run_pass(plan, orders[0], reference, seen, records, None, deadline)
        spans = tracer.Tracer()
        spans.install()
        try:
            first = spans.mark()
            traced = run_pass(plan, orders[0], reference, seen, records, spans, deadline)
        finally:
            spans.restore()
        passes.append(traced)
        layers = tracer.layer_metrics(spans.summarise(first, traced[0]), untraced[0],
                                      traced[2])
        layers["trace.restored"] = int(not tracer.leftover_wrappers())
        spans.write_spans(plan["spans_path"])
    result = {
        "passes": [{"wall_s": w, "cpu_s": c, "escalations": e} for w, c, e in passes],
        "jobs": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layers,
    }
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
