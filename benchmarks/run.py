"""qcohom benchmark: drive the real CLI over a seeded workload and check it.

    python3 benchmarks/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout; the program is imported from the
checkout's ``src``.  The loop is closed with one client: one child process
``python -m qcohom.cli ...`` per job, one job after another, so at most two
processes run at once.  Each child gets a fresh working directory, ``HOME``,
``XDG_CACHE_HOME`` and ``TMPDIR`` and a fixed ``PYTHONHASHSEED``, so no
cache can carry over from one job to the next.  Scratch files go to
``.bench_work/`` in the checkout.

The benchmark pins itself, and so every child, to one CPU.  While a timed
child runs, a thread samples a fixed speed probe on that CPU; each timed run
is rescaled by the probe to seconds at a fixed reference speed, so that a
shared host's changing speed cancels out (see README.md).

``--trace 0`` sets up, then runs the workload's jobs for ``--seconds``
(every job at least once, short jobs more often), and prints the end-to-end
metrics, each job taken at the mean of its rescaled runs.  ``--trace 1``
sets up, runs one plain pass and one traced pass (``traced_cli.py``), and
prints the per-layer metrics; its spans are written to
``.bench_work/results/``.  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction
from pathlib import Path

sys.dont_write_bytecode = True

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
PROGRAM = ROOT / "src" / "qcohom" / "cli.py"
TEST_ORACLES = ROOT / "tests" / "oracle_tools.py"

SETUP_REPEATS = 9
STARTUP_REPEATS = 5
JOB_TIMEOUT_S = 150
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
TAIL_MIN_BEYOND = 10
# The speed probe and its time at the reference speed: the median of the fast
# state on the host the benchmark was tuned on (2-vCPU Xeon VM, Python 3.11).
PROBE_PERIOD_S = 0.05
PROBE_SIDE_SAMPLES = 3
PROBE_REF_S = 0.0005


if not PROGRAM.is_file() or not TEST_ORACLES.is_file():
    print(f"benchmark: no qcohom source checkout around {BENCH} (need src/qcohom and tests/oracle_tools.py)", file=sys.stderr)
    sys.exit(2)
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "src")]

import oracle  # noqa: E402
import workloads  # noqa: E402


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_at_start": [round(v, 2) for v in os.getloadavg()],
    }


def pin_to_one_cpu() -> int | None:
    """Pin this process, and so every child it starts, to its lowest CPU."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def probe() -> float:
    """Time one fixed unit of Fraction and dict work, the program's own mix."""
    start = time.perf_counter()
    acc = Fraction(0)
    table: dict = {}
    for i in range(1, 200):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        key = (i % 13, i % 17, i % 5)
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


class SpeedProbe:
    """Samples the probe before, during and after a child's run.

    The thread runs on the CPU the child is pinned to, every
    ``PROBE_PERIOD_S``, so it sees the speed the child gets; each sample
    takes 1 to 2% of that period from the child.  ``scale`` turns the
    child's times into seconds at the reference speed: the mean probe rate
    over the run, divided by the reference rate.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self.sample, daemon=True)

    def sample(self) -> None:
        while not self.stop.is_set():
            self.samples.append(probe())
            self.stop.wait(PROBE_PERIOD_S)

    def __enter__(self) -> "SpeedProbe":
        self.samples += [probe() for _ in range(PROBE_SIDE_SAMPLES)]
        self.thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop.set()
        self.thread.join()
        self.samples += [probe() for _ in range(PROBE_SIDE_SAMPLES)]

    @property
    def scale(self) -> float:
        return PROBE_REF_S * statistics.fmean(1 / t for t in self.samples)


class Runner:
    """Runs CLI children in isolated scratch directories under ``run_dir``."""

    def __init__(self, run_dir: Path, pycache: Path):
        self.run_dir = run_dir
        self.pycache = pycache

    def env(self, tmp: Path) -> dict:
        return {
            "PATH": os.environ.get("PATH", os.defpath),
            "HOME": str(tmp),
            "XDG_CACHE_HOME": str(tmp / "cache"),
            "TMPDIR": str(tmp),
            "LC_ALL": "C.UTF-8",
            "PYTHONHASHSEED": "0",
            "PYTHONNOUSERSITE": "1",
            "PYTHONPATH": str(ROOT / "src"),
            "PYTHONPYCACHEPREFIX": str(self.pycache),
        }

    def spawn(self, argv: list[str], sample_speed: bool = False) -> dict:
        """Run one child to completion; wall time, rusage, exit code, stdout.

        With ``sample_speed`` the speed probe runs beside the child and
        ``scale`` rescales its times to the reference speed; else it is 1.
        """
        tmp = Path(tempfile.mkdtemp(prefix="job-", dir=self.run_dir))
        speed = SpeedProbe() if sample_speed else contextlib.nullcontext()
        try:
            with open(tmp / "stdout", "wb") as out, open(tmp / "stderr", "wb") as err, speed:
                start = time.perf_counter()
                proc = subprocess.Popen(
                    argv, cwd=tmp, env=self.env(tmp), stdin=subprocess.DEVNULL, stdout=out, stderr=err
                )
                killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
                killer.start()
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                finally:
                    killer.cancel()
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            return {
                "scale": speed.scale if sample_speed else 1.0,
                "wall": wall,
                "cpu": usage.ru_utime + usage.ru_stime,
                "rss_kb": usage.ru_maxrss,
                "code": proc.returncode,
                "stdout": (tmp / "stdout").read_bytes(),
                "stderr": (tmp / "stderr").read_bytes()[-400:],
            }
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def cli(self, job_path: Path, job: workloads.Job, sample_speed: bool = False) -> dict:
        argv = [sys.executable, "-m", "qcohom.cli", *job.args, "--input", str(job_path)]
        return self.spawn(argv, sample_speed)

    def traced(self, job_path: Path, job: workloads.Job, record: Path) -> dict:
        argv = [sys.executable, str(BENCH / "traced_cli.py"), str(record), job.ident, "--"]
        return self.spawn(argv + [*job.args, "--input", str(job_path)])


class Tally:
    """Attempted and failed CLI runs, with the first few failure reasons."""

    def __init__(self, checker: oracle.Checker):
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, job: workloads.Job, run: dict) -> None:
        self.attempted += 1
        reason = self.checker.check(job, run["code"], run["stdout"])
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{reason} [stderr: {run['stderr'].decode(errors='replace').strip()}]")


def set_up(workload: str, seed: int, run_dir: Path, index: int, tally: Tally):
    """One set-up: generate and write the job files, then one cold CLI call.

    The call compiles the package into an empty bytecode cache of its own.
    Returns the time taken, the jobs, their files and a runner whose children
    use that cache, now warm.
    """
    first = workloads.probe_job()
    runner = Runner(run_dir, run_dir / f"pycache{index}")
    start = time.perf_counter()
    jobs = workloads.generate(workload, seed)
    job_dir = run_dir / f"jobs{index}"
    job_dir.mkdir()
    paths = {job.ident: job.write(job_dir) for job in jobs}
    run = runner.cli(first.write(job_dir), first)
    elapsed = time.perf_counter() - start
    tally.record(first, run)
    return elapsed, jobs, paths, runner


def run_pass(runner: Runner, jobs, paths, tally: Tally, traced_dir: Path | None = None) -> float:
    """One pass over the jobs, plain or traced; returns its wall time."""
    runs = []
    start = time.perf_counter()
    for job in jobs:
        if traced_dir is None:
            runs.append(runner.cli(paths[job.ident], job))
        else:
            runs.append(runner.traced(paths[job.ident], job, traced_dir / f"{job.ident}.json"))
    wall = time.perf_counter() - start
    for job, run in zip(jobs, runs):
        tally.record(job, run)
    return wall


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for p in PERCENTILES:
        rank = max(1, math.ceil(p / 100 * n))
        if n - rank >= TAIL_MIN_BEYOND:
            best = (ordered[rank - 1], f"p{p:g} of {n} jobs")
    if best is None:
        return ordered[-1], f"slowest of {n} jobs (too few for a percentile with {TAIL_MIN_BEYOND} beyond)"
    return best


def timed_runs(runner: Runner, jobs, paths, tally: Tally, seconds: float, set_up_again):
    """Run the jobs for ``seconds``; returns every run per job and the set-up times.

    Every job runs once, in the seeded order.  After that the next job is
    the one with the least wall time spent on it so far (the first in the
    seeded order on a tie) among those whose fastest run still fits before
    the deadline, so each job gets about the same time and short jobs are
    repeated most.  It ends when no job fits.

    ``set_up_again(index)`` makes set-ups 1 to ``SETUP_REPEATS - 1``, spread
    evenly over the timed seconds so that their median sees the host at
    several moments; the deadline moves by the time they take.
    """
    start = time.perf_counter()
    deadline = start + seconds
    runs: dict[str, list[dict]] = {job.ident: [] for job in jobs}
    setup_times: list[float] = []

    def run(job: workloads.Job) -> None:
        nonlocal deadline
        result = runner.cli(paths[job.ident], job, sample_speed=True)
        tally.record(job, result)
        runs[job.ident].append({key: result[key] for key in ("wall", "cpu", "scale", "rss_kb")})
        while len(setup_times) < SETUP_REPEATS - 1:
            timed = time.perf_counter() - start - sum(setup_times)
            if timed < seconds * (len(setup_times) + 1) / SETUP_REPEATS:
                break
            setup_times.append(set_up_again(len(setup_times) + 1))
            deadline += setup_times[-1]

    for job in jobs:
        run(job)
    while True:
        now = time.perf_counter()
        fits = [job for job in jobs if now + min(r["wall"] for r in runs[job.ident]) <= deadline]
        if not fits:
            break
        run(min(fits, key=lambda job: sum(r["wall"] for r in runs[job.ident])))
    while len(setup_times) < SETUP_REPEATS - 1:
        setup_times.append(set_up_again(len(setup_times) + 1))
    return runs, setup_times


def end_to_end(workload, seed, seconds, run_dir, tally) -> tuple[dict, list[str]]:
    first_setup, jobs, paths, runner = set_up(workload, seed, run_dir, 0, tally)
    runs, setup_times = timed_runs(
        runner, jobs, paths, tally, seconds, lambda index: set_up(workload, seed, run_dir, index, tally)[0]
    )
    setup_s = statistics.median([first_setup, *setup_times])
    # Each job counts at the mean of its runs, each rescaled to the reference
    # speed: on a shared host the same job runs up to 1.7x slower while a
    # neighbour loads its core, and the probe beside it slows about alike.
    # Process start-up slows less than the probe, so a short job's rescaled
    # runs fall into two groups, one per host speed; their median jumps
    # between the groups as the mix of speeds in a run changes, their mean
    # moves with it smoothly.
    walls = [statistics.fmean(r["wall"] * r["scale"] for r in done) for done in runs.values()]
    cpus = [statistics.fmean(r["cpu"] * r["scale"] for r in done) for done in runs.values()]
    raw_wall = sum(statistics.fmean(r["wall"] for r in done) for done in runs.values())
    job_tail, tail_note = tail(walls)
    repeats = sorted(len(done) for done in runs.values())
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(walls), "ref_s"),
        "cpu_s": (sum(cpus), "ref_s"),
        "job_p50_s": (statistics.median(walls), "ref_s"),
        "job_tail_s": (job_tail, "ref_s"),
        "peak_rss_mb": (max(r["rss_kb"] for done in runs.values() for r in done) / 1024, "MB"),
    }
    scales = sorted(r["scale"] for done in runs.values() for r in done)
    notes = [
        f"{sum(repeats)} runs of {len(jobs)} jobs, {repeats[0]} to {repeats[-1]} per job; "
        f"setup_s is the median of {SETUP_REPEATS} set-ups, one before the timed runs and the rest spread among them",
        "each job counts at the mean of its runs; wall_s and cpu_s sum over the jobs, "
        f"job_p50_s is the median of {len(walls)} jobs",
        f"ref_s: seconds at the reference speed; per-run scale {scales[0]:.3f} to {scales[-1]:.3f}, "
        f"unscaled wall_s {raw_wall:.3f} s",
        f"job_tail_s: the {tail_note}",
        f"failed_frac: {tally.failed / tally.attempted:g} ({tally.failed} of {tally.attempted} CLI runs, set-up included)",
    ]
    return metrics, notes


# per-layer metric -> outermost spans of this name, summed
SPAN_METRICS = {
    "cli.output_s": ("cli.render_output", "cli.write"),
    "jobs.load_s": ("jobs.load_job",),
    "expr.parse_s": ("expr.parse_poly",),
    "expr.render_s": ("expr.render",),
    "rings.quotient_s": ("rings.quotient_algebra",),
    "rings.isomorphism_s": ("rings.presentations_isomorphic_by_renaming",),
    "groebner.buchberger_s": ("groebner.buchberger",),
    "toric.regularity_s": ("toric.check_bundle_regularity",),
    "toric.omalous_s": ("toric.check_omalous",),
    "frobenius.check_s": ("frobenius.frobenius_check",),
    "frobenius.closure_s": ("frobenius.closure_check",),
    "frobenius.gram_s": ("frobenius.gram_matrix",),
    "frobenius.correlator_s": ("frobenius.three_point",),
}
# per-layer metric -> profiled function (module.function), exact call count
CALL_METRICS = {
    "expr.render_calls": "expr.render",
    "rings.quotient_calls": "rings.quotient_algebra",
    "groebner.buchberger_calls": "groebner.buchberger",
    "groebner.spoly_calls": "groebner.s_polynomial",
    "groebner.normal_form_calls": "groebner._normal_form",
    "groebner.radical_member_calls": "groebner.radical_member",
    "frobenius.trace_calls": "frobenius.trace",
    "frobenius.product_calls": "frobenius.quantum_product",
    "poly.mul_calls": "poly.__mul__",
    "poly.order_key_calls": "poly.key",
    "poly.leading_calls": "poly.leading",
    "poly.lcm_calls": "poly.monomial_lcm",
}
SELF_METRICS = ("groebner", "frobenius", "poly", "fractions")


def outermost_seconds(spans: list, names) -> float:
    """Total duration of spans with these names that have no such ancestor."""
    total = 0
    for name, start, end, parent in spans:
        if name not in names:
            continue
        while parent is not None and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent is None:
            total += end - start
    return total / 1e9


def per_layer(workload, seed, run_dir, tally) -> tuple[dict, list[str]]:
    _, jobs, paths, runner = set_up(workload, seed, run_dir, 0, tally)
    startup = []
    for _ in range(STARTUP_REPEATS):
        run = runner.spawn([sys.executable, "-c", "import qcohom.cli"])
        tally.attempted += 1
        if run["code"] != 0:
            tally.failed += 1
        startup.append(run["wall"])
    plain = run_pass(runner, jobs, paths, tally)
    traced_dir = run_dir / "traced"
    traced_dir.mkdir()
    traced = run_pass(runner, jobs, paths, tally, traced_dir)

    records = []
    for job in jobs:
        path = traced_dir / f"{job.ident}.json"
        if path.is_file():
            records.append(json.loads(path.read_text(encoding="utf-8")))
        else:
            tally.failed += 1
            tally.reasons.append(f"{job.ident}: traced run wrote no record")
    metrics: dict = {"cli.startup_s": (statistics.median(startup), "s")}
    for metric, names in SPAN_METRICS.items():
        metrics[metric] = (sum(outermost_seconds(r["spans"], names) for r in records), "s")
    metrics["cli.output_bytes"] = (sum(r["output_bytes"] for r in records), "bytes")
    for metric, func in CALL_METRICS.items():
        metrics[metric] = (sum(r["calls"].get(func, 0) for r in records), "count")
    for module in SELF_METRICS:
        metrics[f"{module}.self_s"] = (sum(r["self_s"].get(module, 0.0) for r in records), "s")
    metrics["trace.overhead_frac"] = (traced / plain - 1, "frac")

    spans_file = WORK / "results" / f"spans-{workload}-seed{seed}.json"
    spans_file.parent.mkdir(parents=True, exist_ok=True)
    spans = [
        {"job": r["job"], "id": i, "name": s[0], "start_ns": s[1], "end_ns": s[2], "parent": s[3]}
        for r in records
        for i, s in enumerate(r["spans"])
    ]
    spans_file.write_text(json.dumps(spans), encoding="utf-8")
    missing = sorted({m for r in records for m in r["missing_spans"]})
    notes = [
        f"one plain pass ({plain:.2f} s) and one traced pass ({traced:.2f} s) of {len(jobs)} jobs",
        f"cli.startup_s: median of {STARTUP_REPEATS} children that only import qcohom.cli",
        f"spans: {len(spans)} written to {spans_file.relative_to(ROOT)}",
    ]
    if missing:
        notes.append(f"functions not found for spans: {', '.join(missing)}")
    return metrics, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cpu = pin_to_one_cpu()
    info = {**machine(), "pinned_cpu": cpu}
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    references = oracle.load_references(args.workload) if args.seed == workloads.DEFAULT_SEED else {}
    tally = Tally(oracle.Checker(references))
    try:
        if args.trace:
            metrics, notes = per_layer(args.workload, args.seed, run_dir, tally)
        else:
            metrics, notes = end_to_end(args.workload, args.seed, args.seconds, run_dir, tally)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(
        f"qcohom benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}; "
        f"nproc {info['nproc']}, pinned to CPU {cpu}, python {info['python']}, load average at start "
        + " ".join(str(v) for v in info["loadavg_at_start"])
    )
    for note in notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>16.6f} {unit}" if isinstance(value, float) else f"  {name:32s} {value:>16d} {unit}")
    for reason in tally.reasons:
        print(f"  FAILED {reason}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps({"machine": info, "args": vars(args), "notes": notes, **result}, indent=1), encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
