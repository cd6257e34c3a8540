"""The CLI output contract: every default-seed benchmark job prints exactly
the stdout recorded in ``benchmarks/reference.json``.

The jobs come from ``benchmarks/workloads.py``, loaded by path and only read
by the loader of ``tests/output_digests.py``; ``benchmarks/run.py`` is not
imported.  Each job runs through
``qcohom.cli.main`` in this process, and the sha256 of its stdout is compared
with the recorded digest.  A change that alters the output on purpose
re-records the digests with ``benchmarks/record_reference.py``.  The
benchmark's output checker, ``benchmarks/oracle.py``, is imported here too,
without writing under ``benchmarks/``: it imports from
``tests/oracle_tools.py``.

Every in-process line of ``tests/output_digests.py`` for the seeds 0 and 7,
the exit code and the sha256 of stdout and stderr of each benchmark job and
of each extra job it adds, must equal the line recorded in
``tests/output_digests.txt``; a change that alters an output on purpose
regenerates that file, as the script's docstring shows.
"""

import hashlib
import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from output_digests import BENCHMARKS, digest_lines, load_workloads
from qcohom.cli import main

REFERENCES = json.loads((BENCHMARKS / "reference.json").read_text(encoding="utf-8"))
DIGESTS = Path(__file__).resolve().parent / "output_digests.txt"
workloads = load_workloads()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_default_seed_stdout_matches_reference(workload, tmp_path, capsys):
    expected = REFERENCES[workload]
    jobs = workloads.generate(workload, workloads.DEFAULT_SEED)
    assert sorted(job.ident for job in jobs) == sorted(expected)
    mismatched = []
    for job in jobs:
        main([*job.args, "--input", str(job.write(tmp_path))])
        stdout = capsys.readouterr().out.encode("utf-8")
        if hashlib.sha256(stdout).hexdigest() != expected[job.ident]:
            mismatched.append(job.ident)
    assert mismatched == []


def test_benchmark_checker_imports_its_oracles(monkeypatch):
    # benchmarks/oracle.py takes reduce_projective_power from
    # tests/oracle_tools.py: an edit there that breaks the import fails here
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec = importlib.util.spec_from_file_location("qcohom_benchmark_oracle", BENCHMARKS / "oracle.py")
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    # on P^1, H^3 = q*H, so tr(H^3) = q at trace value 1
    assert oracle.projective_correlator((1,), Fraction(1), [((1,), 3)]) == {(1,): 1}


def test_in_process_digests_match_the_recorded_ones():
    assert digest_lines([0, 7], children=False) == DIGESTS.read_text(encoding="utf-8").splitlines()
