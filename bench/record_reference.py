"""Record the stdout SHA-256 of every committed-input job into
``reference.json``.  Run from the root of a source checkout, on the commit
whose outputs are the reference:

    python3 bench/record_reference.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ttm.cli  # noqa: E402


def main():
    reference = {}
    for name in workloads.WORKLOADS:
        _, jobs = workloads.build(name, seed=0)
        for job in jobs:
            if not job["ref"]:
                continue
            argv = [workloads.MAPS if a == "@maps" else a for a in job["argv"]]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = ttm.cli.main(argv)
            reasons = workloads.judge(job, rc, out.getvalue(), None)
            if reasons:
                raise SystemExit(f"{job['id']}: {'; '.join(reasons)}")
            reference[job["id"]] = workloads.digest(out.getvalue())
            print(job["id"], reference[job["id"]], flush=True)
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                                   encoding="utf-8")


if __name__ == "__main__":
    main()
