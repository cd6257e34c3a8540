"""Run one qcohom CLI job with spans and a profile, from outside the package.

Usage: python traced_cli.py OUT.json JOB_ID -- <qcohom cli arguments>

The CLI's exit code and stdout are unchanged.  Spans are recorded around the
public functions listed in SPANS, by replacing every binding of each
function in the loaded ``qcohom`` modules; ``cProfile`` (with builtins folded
into their callers) gives exact call counts and per-module self time for the
hot functions where a span per call would swamp the run.  Everything is
written to OUT.json when the job ends.
"""

from __future__ import annotations

import cProfile
import fractions
import functools
import importlib
import json
import os
import sys
import time

# span name -> (module, attribute); the CLI entry ``cli.main`` is the root.
SPANS = {
    "cli.main": ("qcohom.cli", "main"),
    "cli.render_output": ("qcohom.cli", "render_output"),
    "jobs.load_job": ("qcohom.jobs", "load_job"),
    "expr.parse_poly": ("qcohom.expr", "parse_poly"),
    "expr.render": ("qcohom.expr", "render"),
    "rings.quotient_algebra": ("qcohom.rings", "quotient_algebra"),
    "rings.presentations_isomorphic_by_renaming": ("qcohom.rings", "presentations_isomorphic_by_renaming"),
    "groebner.buchberger": ("qcohom.groebner", "buchberger"),
    "toric.check_bundle_regularity": ("qcohom.toric", "check_bundle_regularity"),
    "toric.check_omalous": ("qcohom.toric", "check_omalous"),
    "frobenius.frobenius_check": ("qcohom.frobenius", "frobenius_check"),
    "frobenius.closure_check": ("qcohom.frobenius", "closure_check"),
    "frobenius.gram_matrix": ("qcohom.frobenius", "gram_matrix"),
    "frobenius.three_point": ("qcohom.frobenius", "three_point"),
}

MODULES = ("poly", "expr", "groebner", "rings", "frobenius", "toric", "jobs", "cli")


class Tracer:
    def __init__(self, job_id: str):
        self.job_id = job_id
        self.spans: list = []
        self._stack: list[int] = []
        self.output_bytes = 0

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[index] = [name, start, end, parent]

        return traced

    def install(self) -> list[str]:
        """Wrap every binding of each SPANS function; return the missing ones."""
        modules = [importlib.import_module(f"qcohom.{m}") for m in MODULES]
        modules.append(importlib.import_module("qcohom"))
        missing = []
        for name, (module_name, attr) in SPANS.items():
            original = getattr(sys.modules[module_name], attr, None)
            if original is None:
                missing.append(name)
                continue
            traced = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
        return missing


class TimedStdout:
    """stdout whose writes (with their flush) are recorded as ``cli.write``."""

    def __init__(self, stream, tracer: Tracer):
        self._stream = stream
        self._tracer = tracer
        self.write = tracer.wrap("cli.write", self._write)

    def _write(self, text):
        self._tracer.output_bytes += len(text.encode("utf-8"))
        count = self._stream.write(text)
        self._stream.flush()
        return count

    def __getattr__(self, name):
        return getattr(self._stream, name)


def profile_summary(profile: cProfile.Profile) -> dict:
    """Call counts by module and function, and self time by module."""
    profile.create_stats()
    files = {}
    for m in MODULES:
        files[os.path.realpath(sys.modules[f"qcohom.{m}"].__file__)] = m
    files[os.path.realpath(fractions.__file__)] = "fractions"
    calls: dict = {}
    self_s: dict = {}
    for (filename, _line, func), (_cc, nc, tt, _ct, _callers) in profile.stats.items():
        module = files.get(os.path.realpath(filename)) if filename else None
        if module is None:
            continue
        key = f"{module}.{func}"
        calls[key] = calls.get(key, 0) + nc
        self_s[module] = self_s.get(module, 0.0) + tt
    return {"calls": calls, "self_s": self_s}


def main(argv: list[str]) -> int:
    out_path, job_id, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: traced_cli.py OUT.json JOB_ID -- <cli arguments>")
    import qcohom.cli

    tracer = Tracer(job_id)
    missing = tracer.install()
    sys.stdout = TimedStdout(sys.stdout, tracer)
    profile = cProfile.Profile(builtins=False)
    profile.enable()
    try:
        code = qcohom.cli.main(cli_args)
    finally:
        profile.disable()
        sys.stdout = sys.__stdout__
        record = {
            "job": job_id,
            "spans": tracer.spans,
            "output_bytes": tracer.output_bytes,
            "missing_spans": missing,
            **profile_summary(profile),
        }
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
