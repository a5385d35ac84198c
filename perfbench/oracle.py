"""Expected outputs of every operation the workloads can draw, produced
under the ``interp`` replay oracle (``SMARQ_REPLAY_BACKEND=interp``).

Regenerate ``reference.json`` from the repository root with::

    PYTHONPATH=src python perfbench/oracle.py

The program's report fields are deterministic and identical across
replay backends, so the benchmark checks each output of the default
(tiered) program against these digests. The script runs the work in a
child interpreter with the oracle backend forced and a private cache
directory under ``.perfbench_out``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import loads  # noqa: E402

REFERENCE = HERE / "reference.json"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_digest(report) -> str:
    """Digest of every field of a ``DbtReport``."""
    return digest(json.dumps(report.to_dict(), sort_keys=True))


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as src:
        return json.load(src)


def total_cycles(run_stdout: str) -> int:
    """``total cycles`` field of ``repro run`` output."""
    for line in run_stdout.splitlines():
        key, sep, value = line.partition(":")
        if sep and key.strip() == "total cycles":
            return int(value)
    raise ValueError("no 'total cycles' line in repro run output")


def _capture(argv) -> str:
    import repro.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = repro.cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"repro {' '.join(argv)} exited {code}")
    return out.getvalue()


def _worker() -> dict:
    """Compute every reference entry in this (oracle-configured) process."""
    from repro.engine.jobs import JobSpec, execute_job
    from repro.sim import dbt
    from repro.sim.schemes import SCHEME_NAMES
    from repro.workloads import CERT_BENCHMARKS, SPECFP_BENCHMARKS

    if tuple(SPECFP_BENCHMARKS) + tuple(CERT_BENCHMARKS) != loads.BENCHMARKS:
        raise SystemExit("loads.BENCHMARKS is out of date with repro.workloads")
    if tuple(SCHEME_NAMES) != loads.SCHEMES:
        raise SystemExit("loads.SCHEMES is out of date with repro.sim.schemes")

    cells = []
    original_run = dbt.DbtSystem.run

    def counting_run(self, *args, **kwargs):
        report = original_run(self, *args, **kwargs)
        cells.append(report.total_cycles)
        return report

    dbt.DbtSystem.run = counting_run
    try:
        figures_out = _capture(loads.FIGURES_ARGS)
    finally:
        dbt.DbtSystem.run = original_run
    reference = {
        "backend": os.environ.get("SMARQ_REPLAY_BACKEND"),
        "figures": {
            "args": list(loads.FIGURES_ARGS),
            "stdout_sha256": digest(figures_out),
            "cells": len(cells),
            "total_cycles": sum(cells),
        },
        "run": {"scale": loads.RUN_SCALE, "pairs": {}},
        "serve": {"specs": {}},
    }
    for bench in loads.BENCHMARKS:
        for scheme in loads.SCHEMES:
            out = _capture(
                ["run", bench, "--scheme", scheme, "--scale", loads.RUN_SCALE]
            )
            reference["run"]["pairs"][loads.pair_key((bench, scheme))] = {
                "stdout_sha256": digest(out),
                "total_cycles": total_cycles(out),
            }
    for spec in loads.serve_universe():
        bench, scheme, scale = spec
        report = execute_job(
            JobSpec(benchmark=bench, scheme_key=scheme, scale=scale)
        ).report
        reference["serve"]["specs"][loads.spec_key(spec)] = {
            "report_sha256": report_digest(report),
            "total_cycles": report.total_cycles,
        }
    return reference


def main() -> int:
    if "--worker" in sys.argv:
        json.dump(_worker(), sys.stdout, sort_keys=True)
        return 0
    root = HERE.parent
    scratch = root / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    cache = tempfile.mkdtemp(prefix="oracle-cache-", dir=scratch)
    env = {k: v for k, v in os.environ.items() if not k.startswith("SMARQ_")}
    env.update(
        PYTHONPATH=str(root / "src"),
        REPRO_CACHE_DIR=cache,
        SMARQ_REPLAY_BACKEND="interp",
    )
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "oracle.py"), "--worker"],
            env=env, cwd=str(root), capture_output=True, text=True, check=True,
        )
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    reference = json.loads(done.stdout)
    with open(REFERENCE, "w", encoding="utf-8") as out:
        json.dump(reference, out, indent=1, sort_keys=True)
        out.write("\n")
    print(f"wrote {REFERENCE}: {len(reference['run']['pairs'])} run pairs, "
          f"{len(reference['serve']['specs'])} serve specs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
