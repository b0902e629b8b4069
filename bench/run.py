"""Benchmark of the ``ttm`` command line.

    python3 bench/run.py --workload verify-table --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout.  One worker process runs the
workload's jobs through ``ttm.cli.main``, one after another, for a fixed
number of passes (a closed loop with one client; ``nproc`` is 2, so there are
no parallel workers).  Every output is checked (exit code, SHA-256 against a
reference, independent answers); see ``workloads.py``.

With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run.
A fuller record (run metadata, every job's latency and hash) goes to
``bench/out/``.  ``--smoke`` runs every workload's code path at tiny sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

PRECISION_BITS = 128
SETUP_SAMPLES = 5            # set-up-only workers, besides the measuring one
GUARD_S = 60.0               # per-job wall-time guard
ADDRESS_SPACE_MB = 2048      # address-space guard of the worker
DEADLINE_S = 120.0           # no pass starts after this; the run ends < 180 s
TAIL_BEYOND = 10             # job_tail_s has at least this many samples beyond it

# Wall time of one untraced pass, measured on the 2-core reference machine.
# The pass count of a run is fixed from these and --seconds, not from the
# clock, so every run of a workload has the same job-latency sample count,
# on every commit.  At least three passes, so the median pass and the job
# percentiles can discard a pass disturbed by the shared host.
NOMINAL_PASS_S = {"verify-table": 22.6, "ergodic-check": 12.4}
MIN_PASSES = 3

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("job_p50_s", "s"),
              ("job_tail_s", "s"), ("peak_rss_mb", "MB"), ("ok_ratio", "ratio"))


def pass_count(workload, seconds, smoke):
    return 2 if smoke else max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))


def write_plan(args, run_dir):
    files, jobs = workloads.build(args.workload, args.seed, args.smoke)
    paths = {"maps": workloads.MAPS}
    for name, text in files.items():
        path = run_dir / f"{name}.tt"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path.relative_to(ROOT))
    for job in jobs:
        job["argv"] = [paths[a[1:]] if a.startswith("@") else a for a in job["argv"]]
    # a traced run is one untraced pass then the same pass traced
    passes = 1 if args.trace else pass_count(args.workload, args.seconds, args.smoke)
    rng = random.Random(f"order-{args.workload}-{args.seed}")
    orders = [rng.sample(range(len(jobs)), len(jobs)) for _ in range(passes)]
    plan = {
        "jobs": jobs, "inputs": sorted(set(paths.values())), "passes": passes,
        "orders": orders, "trace": bool(args.trace), "precision": PRECISION_BITS,
        "guard_s": GUARD_S, "address_space_mb": ADDRESS_SPACE_MB,
        "deadline_s": DEADLINE_S, "reference": not args.smoke,
        "spans_path": str(run_dir / "spans.tsv") if args.trace else None,
    }
    path = run_dir / "plan.json"
    path.write_text(json.dumps(plan), encoding="utf-8")
    return path


def start_worker(plan_path, result_path=None, setup_only=False):
    """Start a worker; return (process, set-up seconds until it is ready)."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(plan_path)]
    cmd += ["--setup-only"] if setup_only else [str(result_path)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError("worker failed during set-up")
    return proc, setup


def finish(proc, timeout):
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker exceeded the run time limit")
    proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")


def tail(latencies):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, samples beyond).  A run with ten samples or fewer
    reports its maximum instead."""
    xs = sorted(latencies)
    k = len(xs) - 1 - TAIL_BEYOND if len(xs) > TAIL_BEYOND else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k


def end_to_end(result, setups):
    untraced = [r for r in result["jobs"] if not r["traced"]]
    lat = [r["latency_s"] for r in untraced]
    failed = sum(1 for r in result["jobs"] if r["failures"])
    tail_s, pct, beyond = tail(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in result["passes"]),
        "cpu_s": statistics.median(p["cpu_s"] for p in result["passes"]),
        "job_p50_s": statistics.median(lat),
        "job_tail_s": tail_s,
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_ratio": 1.0 - failed / len(result["jobs"]),
    }
    return metrics, {"job_tail_percentile": pct, "job_tail_samples_beyond": beyond,
                     "job_samples": len(lat)}, failed


def metadata(args):
    import mpmath
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src" / "ttm").glob("*.py")))
    return {
        "python": platform.python_version(), "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND, "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(), "seed": args.seed,
        "precision_bits": PRECISION_BITS, "src_lines": src_lines,
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke,
    }


def run(args):
    run_dir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}{'-smoke' if args.smoke else ''}"
    run_dir.mkdir(parents=True, exist_ok=True)
    began = time.perf_counter()
    plan_path = write_plan(args, run_dir)
    setups = []
    for _ in range(SETUP_SAMPLES):
        proc, setup = start_worker(plan_path, setup_only=True)
        finish(proc, 30)
        setups.append(setup)
    result_path = run_dir / "worker.json"
    proc, setup = start_worker(plan_path, result_path)
    setups.append(setup)
    finish(proc, max(10.0, 175.0 - (time.perf_counter() - began)))
    result = json.loads(result_path.read_text(encoding="utf-8"))
    metrics, tail_info, failed = end_to_end(result, setups)
    correct = failed == 0
    if args.trace:
        # wrappers left bound after the traced pass would skew every later call
        correct = correct and result["layers"].pop("trace.restored") == 1
    record = {"meta": metadata(args), "end_to_end": metrics, **tail_info,
              "setup_samples": setups, "passes": result["passes"],
              "layers": result["layers"], "jobs": result["jobs"],
              "failures": [r for r in result["jobs"] if r["failures"]]}
    (OUT / f"result-{run_dir.name}.json").write_text(json.dumps(record, indent=1),
                                                     encoding="utf-8")
    if args.trace:
        shown = {k: {"value": v, "unit": layer_unit(k)}
                 for k, v in sorted(result["layers"].items())}
    else:
        shown = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}
    for r in record["failures"][:10]:
        print(f"FAILED {r['id']}: {'; '.join(r['failures'])}")
    for k, v in shown.items():
        print(f"{args.workload:8s} {k:48s} {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(result["jobs"]),
                      "failed": failed, "metrics": shown}))
    return 0


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "share")):
        return "ratio"
    if name.endswith("max_width"):
        return "width"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, two passes: exercises every code path")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ttm" / "__init__.py").is_file():
        print(f"error: no ttm sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        return run(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
