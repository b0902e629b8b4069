"""Tests of the benchmark itself (not collected by the repository's suite):

    python3 -m pytest bench/check_bench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import worker  # noqa: E402  (puts src/ on the path and imports ttm)
import workloads  # noqa: E402

import ttm.cli  # noqa: E402
import ttm.measures  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PLAN = {"precision": 128, "guard_s": 60.0}


def _job(jid, argv, **kw):
    job = workloads._job(jid, [workloads.MAPS if a == "@maps" else a for a in argv], **kw)
    job["index"] = 0
    return job


def _run(job, reference=None, seen=None, tracer_=None):
    records = []
    worker.run_pass(PLAN, [job], reference or {}, {} if seen is None else seen,
                    records, tracer_)
    return records[0]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_declared_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end" if not trace else "per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_gate_catches_corrupted_reference():
    job = _job("check-f", ["check", "@maps", "--map", "f", "--rep-levels", "1",
                           "--rep-cap", "2"], checks=[("train_track", True)])
    good = _run(job)
    assert good["failures"] == []
    assert _run(job, reference={"check-f": good["sha256"]})["failures"] == []
    bad = _run(job, reference={"check-f": "0" * 64})
    assert bad["failures"] == ["stdout hash differs from the reference"]


def test_gate_catches_wrong_exit_code():
    # the non-train-track map has no tower, so measure exits with 3
    job = _job("measure-ntt", ["measure", "@maps", "--map", "ntt", "--paths", "a"])
    record = _run(job)
    assert record["rc"] == 3
    assert record["failures"] == ["exit code 3, expected 0"]


def test_gate_catches_wrong_independent_answer():
    job = _job("spectrum-f", ["spectrum", "@maps", "--map", "f"],
               checks=[("radius_spectrum", workloads.PHI + 1e-6)])
    assert _run(job)["failures"] == ["independent check radius_spectrum failed"]


def test_seeded_jobs_are_pinned_by_their_first_pass():
    job = _job("check-f", ["check", "@maps", "--map", "f", "--rep-levels", "0"], ref=False)
    seen = {"check-f": "0" * 64}
    assert _run(job, seen=seen)["failures"] == ["stdout hash differs from the reference"]


def test_wall_time_guard_fails_the_job_and_the_worker_goes_on():
    import signal
    old = signal.signal(signal.SIGALRM, worker._alarm)
    try:
        slow = _job("verify-t", ["verify", "@maps", "--map", "t"])
        latency, rc, _, _, guard = worker.run_job(slow, 128, 0.2)
        assert rc is None and guard.startswith("wall-time guard") and latency < 2
        fast = _job("check-f", ["check", "@maps", "--map", "f", "--rep-levels", "0"])
        assert _run(fast)["failures"] == []
    finally:
        signal.signal(signal.SIGALRM, old)


def test_precision_is_reset_before_each_job():
    ttm.intervals.set_precision(512)
    job = _job("check-f", ["check", "@maps", "--map", "f", "--rep-levels", "0"])
    assert _run(job)["escalations"] == 0
    assert ttm.intervals.precision_bits() == 128


def test_tracer_removes_every_wrapper_and_keeps_outputs():
    originals = (ttm.cli.main, ttm.cli.verify_kolmogorov,
                 ttm.measures.KolmogorovFunction.__dict__["eval"])
    assert ttm.cli.verify_kolmogorov is ttm.measures.verify_kolmogorov
    job = _job("verify-f", ["verify", "@maps", "--map", "f", "--max-len", "3"])
    plain = _run(job)
    t = tracer.Tracer()
    t.install()
    try:
        assert ttm.cli.verify_kolmogorov is not originals[1]
        assert ttm.cli.verify_kolmogorov is ttm.measures.verify_kolmogorov
        first = t.mark()
        traced = _run(job, tracer_=t)
    finally:
        t.restore()
    assert tracer.leftover_wrappers() == []
    assert (ttm.cli.main, ttm.cli.verify_kolmogorov,
            ttm.measures.KolmogorovFunction.__dict__["eval"]) == originals
    assert traced["sha256"] == plain["sha256"]
    summary = t.summarise(first, 1.0)
    assert summary["calls"]["measures.verify_kolmogorov"] == 1
    assert summary["calls"]["measures.KolmogorovFunction.eval"] > 0
    assert summary["layer_self_s"]["measures"] > 0


def test_generators_are_seeded():
    a, ra = workloads.generate_substitutions(1)
    b, rb = workloads.generate_substitutions(1)
    c, rc = workloads.generate_substitutions(2)
    assert a == b and a != c and ra == rb == rc
    assert workloads.random_maps_text(1, 4) == workloads.random_maps_text(1, 4)
    assert workloads.random_maps_text(1, 4) != workloads.random_maps_text(2, 4)


def test_float_spectral_radius():
    assert workloads.spectral_radius([[1, 1], [1, 0]]) == pytest.approx(workloads.PHI)
    assert workloads.spectral_radius([[0, 1], [1, 0]]) == pytest.approx(1.0)
    assert workloads.spectral_radius([[1, 1, 1], [1, 0, 0], [0, 1, 0]]) == \
        pytest.approx(workloads.TRIBONACCI)


def test_printed_contains():
    assert workloads.printed_contains("1.61803398875", workloads.PHI)
    assert not workloads.printed_contains("1.61803398875", workloads.PHI + 1e-9)
    assert workloads.printed_contains("0.5±0.1", 0.55)
    assert not workloads.printed_contains("garbage", 1.0)


def test_refuses_to_run_without_the_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH), encoding="utf-8")
    (tmp_path / "bench").mkdir()
    for path in HERE.rglob("*"):
        if path.is_file() and "out" not in path.relative_to(HERE).parts \
                and "__pycache__" not in path.parts:
            target = tmp_path / "bench" / path.relative_to(HERE)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(path.read_bytes())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify-table", "--seed",
                           "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
