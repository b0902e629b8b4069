"""The committed benchmark inputs print the pinned bytes.

``bench/reference.json`` pins the stdout SHA-256 of every benchmark job on
the committed maps.  Each of those jobs runs here through ``ttm.cli.main``,
in-process and at the benchmark's 128 bits, and must give its expected exit
code and the pinned hash: a change that moves one output byte fails here
and not only in a full benchmark run.
"""

from pathlib import Path

import pytest

import ttm.intervals as ia
from ttm.cli import main

from conftest import bench_workloads

ROOT = Path(__file__).resolve().parents[1]


def pinned_jobs():
    """``(job, digest)`` for each job that ``reference.json`` pins: the job
    lists on the committed inputs, without the seeded ones."""
    bench = bench_workloads()
    reference = bench.load_reference()
    jobs = [job for job in (bench.verify_jobs() + bench.table_jobs() + bench.check_jobs(0)
                            + bench.ergodic_jobs({}))
            if job["ref"]]
    assert sorted(job["id"] for job in jobs) == sorted(reference)
    return [(job, reference[job["id"]]) for job in jobs]


PINNED = pinned_jobs()


def test_every_reference_hash_is_checked():
    assert len(PINNED) == len(bench_workloads().load_reference()) == 21


@pytest.mark.parametrize("job,digest", PINNED, ids=[job["id"] for job, _ in PINNED])
def test_pinned_job_prints_the_reference_bytes(job, digest, monkeypatch, capsys):
    bench = bench_workloads()
    monkeypatch.setenv("TTM_PRECISION_BITS", "128")
    argv = [str(ROOT / bench.MAPS) if arg == "@maps" else arg for arg in job["argv"]]
    assert not any(arg.startswith("@") for arg in argv)
    with ia.working_precision(128):
        assert main(argv) == job["rc"]
    assert bench.digest(capsys.readouterr().out) == digest
