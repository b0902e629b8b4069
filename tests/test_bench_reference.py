"""The committed benchmark inputs print the pinned bytes.

``bench/reference.json`` pins the stdout SHA-256 of every benchmark job on
the committed maps.  Each of those jobs runs here through ``ttm.cli.main``,
in-process and at the benchmark's 128 bits, and must give its expected exit
code and the pinned hash: a change that moves one output byte fails here
and not only in a full benchmark run.

The benchmark pins its seeded jobs only against their own first pass, so
the ``ergodic`` and ``spectrum`` jobs on the generated substitutions at
seeds 1 and 7 are pinned here, by the hashes in ``SEEDED``, and the
``check`` reports on the generated maps of each seed by the hashes in
``CHECK_RAND``.
"""

import functools

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


# stdout SHA-256 of the seeded spectra jobs, by (seed, job id)
SEEDED = {
    (1, "ergodic-i12"): "dad1deda9b4dcde687e064737b45a15a3295f50c51940084e1f1373f1cb10805",
    (1, "spectrum-i12"): "65687a3d7a636dbf80b12b8e5556c9240a405aeff28ff57ae87f4a5cee2a597b",
    (1, "ergodic-i16"): "8f249e8a273491cd1f75561414a02b88cff8fe278acd08d2ef870e2c5a67d270",
    (1, "spectrum-i16"): "4abf24a12abdcf6ffe28deb0ddff21cb85ae08d11e92a27039dd8f1cb4c059bb",
    (1, "ergodic-b16"): "af01ab60b4e68cc640243488dbf331cc828a582a0527b504d24eea50120d4112",
    (1, "spectrum-b16"): "34d388e37a0e2a993b24738078c64f27224e9e1200670e8cf5aa4a40e386db19",
    (1, "ergodic-b20"): "da13719d0531710da5b6a049253d11cbaeea89d9b353134000de99064e3f90f5",
    (1, "spectrum-b20"): "9ea696479b31d5f338963a1587ac94f6ba78f5c87e69f8941225c462491d339b",
    (7, "ergodic-i12"): "07c91f9f8b4c5886e3ce69ea3bbaa1188ceb72ae793abc440675ee60d75d8273",
    (7, "spectrum-i12"): "6a178879338084a864dbd1548be719adb4ea623ac82a48ab1d469ed01ba7eea6",
    (7, "ergodic-i16"): "d05946651826511532349e6ceb87605dc36843fd71b4ad0dd592a021745a2ee9",
    (7, "spectrum-i16"): "91baf770dd1a844fff711d7651c1647ebb86331d5e0e7e32edba632389773b63",
    (7, "ergodic-b16"): "543928c865b20bc5704499dcaa11f0576184c4b167094e4496b3836128305e9e",
    (7, "spectrum-b16"): "6e28989de44e273d99867a53909d58a0ed784809d258773d52f5ef6dbb0c77ba",
    (7, "ergodic-b20"): "6e48855f94eb4e7d144a7a0e47d64b44e5a6e2f63870589cb8f2aa64b9f50001",
    (7, "spectrum-b20"): "9f722655c68ffde4de0ab42c54c64c3081ba41dd883ac13df647612707161a75",
}


@functools.cache
def seeded_jobs(seed):
    """The substitution text of the seed and its jobs on that text, by id."""
    bench = bench_workloads()
    text, radii = bench.generate_substitutions(seed)
    return text, {job["id"]: job for job in bench.ergodic_jobs(radii) if "@subs" in job["argv"]}


def test_every_seeded_spectra_job_is_pinned():
    assert {(seed, jid) for seed in (1, 7) for jid in seeded_jobs(seed)[1]} == set(SEEDED)


@pytest.mark.parametrize("seed,jid", sorted(SEEDED), ids=lambda x: str(x))
def test_seeded_job_prints_the_pinned_bytes(seed, jid, tmp_path, monkeypatch, capsys):
    text, jobs = seeded_jobs(seed)
    subs = tmp_path / "subs.tt"
    subs.write_text(text, encoding="utf-8")
    argv = [str(subs) if arg == "@subs" else arg for arg in jobs[jid]["argv"]]
    monkeypatch.setenv("TTM_PRECISION_BITS", "128")
    with ia.working_precision(128):
        assert main(argv) == jobs[jid]["rc"]
    assert bench_workloads().digest(capsys.readouterr().out) == SEEDED[seed, jid]


# stdout SHA-256 of the ``check-rand*`` jobs of each seed, their reports
# joined in job order
CHECK_RAND = {
    1: "a001fcd30dcd71fe908a34a9fd6507f1e7fd84ac4c1052eef16fe71d184cd3a8",
    7: "d51e320a03229224b94b17438f89a32d95b2225b31228625beddd858114cd4cc",
}


@pytest.mark.parametrize("seed", sorted(CHECK_RAND))
def test_seeded_check_reports_print_the_pinned_bytes(seed, tmp_path, monkeypatch, capsys):
    bench = bench_workloads()
    jobs = [job for job in bench.check_jobs(bench.RANDOM_MAPS)
            if job["id"].startswith("check-rand")]
    assert len(jobs) == bench.RANDOM_MAPS == 30
    rmaps = tmp_path / "rmaps.tt"
    rmaps.write_text(bench.random_maps_text(seed, bench.RANDOM_MAPS), encoding="utf-8")
    monkeypatch.setenv("TTM_PRECISION_BITS", "128")
    reports = []
    for job in jobs:
        argv = [str(rmaps) if arg == "@rmaps" else arg for arg in job["argv"]]
        with ia.working_precision(128):
            assert main(argv) == job["rc"]
        reports.append(capsys.readouterr().out)
    assert bench.digest("".join(reports)) == CHECK_RAND[seed]
