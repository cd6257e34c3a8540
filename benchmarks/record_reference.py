"""Record reference stdout digests for the default seed of every workload.

    python3 benchmarks/record_reference.py

Runs each default-seed job once through the CLI, checks it with the oracles,
and writes the sha256 of its stdout to ``reference.json``.  The benchmark
then requires byte-identical stdout for the default seed.  Re-record only
when a change is meant to alter the CLI output.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
from oracle import REFERENCE_FILE, Checker, digest
from workloads import DEFAULT_SEED, WORKLOADS, generate


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="reference-", dir=run.WORK))
    references: dict = {}
    try:
        runner = run.Runner(run_dir, run_dir / "pycache")
        checker = Checker()
        for workload in WORKLOADS:
            references[workload] = {}
            for job in generate(workload, DEFAULT_SEED):
                result = runner.cli(job.write(run_dir), job)
                reason = checker.check(job, result["code"], result["stdout"])
                if reason is not None:
                    print(f"not recorded: {reason}", file=sys.stderr)
                    return 1
                references[workload][job.ident] = digest(result["stdout"])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    REFERENCE_FILE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {sum(len(v) for v in references.values())} digests in {REFERENCE_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
