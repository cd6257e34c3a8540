"""Print the output digest of every benchmark job, for comparing two trees.

Usage::

    PYTHONPATH=src python tests/output_digests.py [SEED ...]

For each seed (default 0) and each job of the workloads in
``benchmarks/workloads.py``, one line lists workload, seed, ident, exit
code, sha256(stdout) and sha256(stderr).  Each job runs through
``qcohom.cli.main`` in this process.  ``benchmarks/workloads.py`` is loaded
by path and only read.  Run it on two trees and ``diff`` the outputs: a
change that keeps every output byte-identical prints the same lines.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import sys
import tempfile
from pathlib import Path

from qcohom.cli import main

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "qcohom_benchmark_workloads", BENCHMARKS / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def run_job(job, directory: Path) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of one job run through ``main``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*job.args, "--input", str(job.write(directory))])
    return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


def digest_lines(seeds) -> list[str]:
    workloads = load_workloads()
    lines = []
    with tempfile.TemporaryDirectory() as directory:
        for seed in seeds:
            for workload in workloads.WORKLOADS:
                for job in workloads.generate(workload, seed):
                    code, out, err = run_job(job, Path(directory))
                    lines.append(
                        f"{workload} {seed} {job.ident} {code} "
                        f"{hashlib.sha256(out).hexdigest()} {hashlib.sha256(err).hexdigest()}"
                    )
    return lines


if __name__ == "__main__":
    for line in digest_lines([int(s) for s in sys.argv[1:]] or [0]):
        print(line)
