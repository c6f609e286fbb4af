"""The bihom benchmark: cold ``bihom`` CLI processes on seeded documents.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is used from ``src/`` (it is not
installed).  Workloads are defined in ``workloads.py``:

* ``cohomology`` - ``bihom cohomology`` in two regimes: ``dense`` jobs
  with identity and unipotent twists (large cochain spaces, time in
  coboundary images) and ``twisted`` jobs on dim-5/6 semidirect products
  with generic diagonal twists (time in the equivariance solve);
* ``checks``     - checkers and constructions on dim-6..12
  documents, valid and corrupted (no elimination, no cohomology).

``--trace 0`` is the timed run.  One client runs a closed loop: it starts a
job only when the previous one has exited, cycling through the workload's
job list until ``--seconds`` have elapsed and every job has run at least
once.  Each job is a cold ``python -m bihom.cli ... --json`` process, and
its time is the shortest wall time over its runs, scaled to a reference
machine speed (below).  On the shared 2-vCPU machine this was tuned on, the
CPU switches between a fast and a ~1.75x slower state every few seconds,
and for minutes at a time it stays mostly slow.  A job's median follows
whichever state dominated the run; its minimum comes from a run that fell
in a fast stretch, which is why jobs are kept to a few tenths of a second
and run many times a run.  The minutes-long slow spells still move the
minima, so before every job the client also times a short pure-Python
``Fraction`` loop in its own process, and the times are multiplied by
``REFERENCE_CALIBRATION_S`` over the 10th percentile of those loop times.
The loop runs in the benchmark, not in ``bihom``, so a change to the
program moves the scaled times by the same proportion as the measured
ones.  The
unscaled times are printed too.  Metrics:

* ``wall_s``      - time to finish the job list: the sum of the job times;
* ``job_s.p50``   - the median of the job times;
* ``setup_s``     - shortest wall time of a cold process that imports
  ``bihom`` and parses every document of the workload, computing nothing,
  scaled in the same way; each pass over the job list starts with two;
* ``peak_rss_mb`` - the largest ``ru_maxrss`` of any job process.

``--trace 1`` is the traced run.  It runs each job in this process through
``bihom.cli.run``, alternately untraced and with every layer function
wrapped (see ``tracing.py``), checks that all runs print identical output,
and reports per-layer counts and self times, and the regime-specific ones
also per cohomology regime (``<metric>.dense``, ``<metric>.twisted``);
``trace.overhead_s`` is, summed over the jobs, each job's fastest traced
time minus its fastest untraced time.

Every job's output is checked: exit code, verdict, the corrupted axiom,
``H = Z - B >= 0``, the pinned dimensions of ``expected.json`` (the seed
only changes coordinates, so they hold for every seed) and, on the default
seed, the pinned violated-axiom names.  Documents written by constructive
verbs are re-verified afterwards by untimed cold ``bihom`` processes.  A
job that fails any check, exits unexpectedly, prints a traceback or runs
past its time limit counts as failed.

A fixed pure-Python ``Fraction`` loop is timed at the start and end of each
run and printed beside the metrics, so machine drift can be told apart from
a regression.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

SETUP_PER_PASS = 2
DRIFT_PROBE_ITERATIONS = 60000
CALIBRATION_ITERATIONS = 8000
# The calibration loop's 10th-percentile time at the reference speed (a
# 2.0 GHz Xeon vCPU in its fast state); timed metrics are scaled to it.
REFERENCE_CALIBRATION_S = 0.020
TRACE_ROUNDS = 3
JOB_TIMEOUT_S = 120.0


@dataclass
class Outcome:
    seconds: float
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int
    killed: bool


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def child_env() -> dict[str, str]:
    """The environment of every job: the package from ``src/``, no styling,
    and bytecode caching on, as for an installed package, whatever the
    caller's environment says."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    env["BIHOM_COLOR"] = "0"
    return env


def run_cold(argv: list[str], cwd: Path, env: dict[str, str]) -> Outcome:
    """Run ``python argv`` to completion, timing it from spawn to reap and
    reading its peak RSS with ``os.wait4``.  A process still running after
    ``JOB_TIMEOUT_S`` is killed."""
    killed = threading.Event()
    with open(cwd / ".stderr", "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=env,
                                stdout=subprocess.PIPE, stderr=err)

        def kill() -> None:
            killed.set()
            proc.kill()

        timer = threading.Timer(JOB_TIMEOUT_S, kill)
        timer.start()
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    return Outcome(seconds, proc.returncode, out.decode(), stderr,
                   usage.ru_maxrss, killed.is_set())


def run_bihom(argv: list[str], cwd: Path, env: dict[str, str]) -> Outcome:
    """A cold ``python -m bihom.cli`` process."""
    return run_cold(["-m", "bihom.cli", *argv], cwd, env)


def status_of(stdout: str) -> object:
    """The ``status`` of a ``--json`` report, or None if there is none."""
    try:
        return json.loads(stdout).get("status")
    except (json.JSONDecodeError, AttributeError):
        return None


def fraction_loop(iterations: int) -> float:
    """Seconds for a fixed pure-Python ``Fraction`` loop."""
    start = time.perf_counter()
    total = Fraction(0)
    for k in range(1, iterations + 1):
        total += Fraction(k % 97 + 1, k % 89 + 1)
    return time.perf_counter() - start


def setup_argv(jobs, workdir: Path) -> list[str]:
    """Write the workload's document manifest and return the argv of the
    set-up probe that parses it."""
    docs = sorted({d for job in jobs for d in job.docs})
    (workdir / "manifest.json").write_text(json.dumps(docs) + "\n")
    return [str(BENCH / "parse_docs.py"), "manifest.json"]


def run_setup(argv: list[str], workdir: Path, env) -> float:
    out = run_cold(argv, workdir, env)
    if out.code != 0:
        raise SystemExit(f"set-up probe failed ({out.code}):\n{out.stderr}")
    return out.seconds


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def check_output(job, code: int, stdout: str, stderr: str,
                 pins: dict) -> list[str]:
    """Problems with one job's output; empty when it is correct."""
    problems = []
    if "Traceback (most recent call last)" in stderr:
        problems.append("traceback on stderr")
    if code != job.exit_code:
        problems.append(f"exit code {code}, expected {job.exit_code}")
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return problems + ["output is not JSON"]
    if payload.get("status") != job.status:
        problems.append(f"status {payload.get('status')!r}, expected {job.status!r}")
    names = sorted({v["axiom"] for v in payload.get("report", {}).get("violations", [])})
    if job.status == "pass" and names:
        problems.append(f"unexpected violations {names}")
    if job.must_violate and job.must_violate not in names:
        problems.append(f"{job.must_violate} not reported (got {names})")
    if "violations" in pins and names != pins["violations"]:
        problems.append(f"violations {names}, pinned {pins['violations']}")
    if job.degrees:
        dims = payload.get("dimensions", [])
        if [d["degree"] for d in dims] != job.degrees:
            problems.append(f"degrees {[d['degree'] for d in dims]}")
        for d in dims:
            if d["H"] != d["Z"] - d["B"] or min(d["H"], d["Z"], d["B"]) < 0:
                problems.append(f"inconsistent dimensions {d}")
            if d["degree"] == 1 and d["B"] != 0:
                problems.append("nonzero B^1")
        got = [[d["degree"], d["Z"], d["B"], d["H"]] for d in dims]
        if got != pins.get("dimensions"):
            problems.append(f"dimensions {got}, pinned {pins.get('dimensions')}")
    return problems


def reverify_argv(job) -> list[str]:
    """An untimed ``bihom`` call that accepts the job's written document
    only if it satisfies its axioms."""
    out = job.argv[job.argv.index("--output") + 1]
    if job.emits == "algebra":
        return ["verify", out, "--json"]
    if job.emits == "rep":  # a semidirect product exists iff the rep is valid
        return ["semidirect", out, "--json"]
    return ["deform-check", job.argv[1], out, "--json"]


def reverify(jobs, workdir: Path, env) -> list[str]:
    problems = []
    for job in jobs:
        if job.emits:
            argv = reverify_argv(job)
            out = run_bihom(argv, workdir, env)
            if out.code != 0 or status_of(out.stdout) != "pass":
                problems.append(f"{job.id}: written document fails "
                                f"`bihom {' '.join(argv)}` ({out.code})")
    return problems


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def job_pins(expected: dict, workload: str, seed: int, job) -> dict:
    """The pinned answers that apply to ``job`` under ``seed``."""
    from workloads import DEFAULT_SEED

    pins = {}
    if job.degrees:
        pins["dimensions"] = expected["dimensions"][workload][job.id]
    if seed == DEFAULT_SEED and workload in expected["violations"]:
        pins["violations"] = expected["violations"][workload][job.id]
    return pins


@dataclass
class TimedRun:
    samples: dict[str, list[float]]  # job id -> wall time of each run of it
    setup: list[float]
    calibration: list[float]  # calibration loop times, one before each job
    peak_kb: int
    attempted: int
    failed: int


def timed_run(jobs, workdir, env, seconds, pins_of, log) -> TimedRun:
    """Cycle through the job list, one job at a time, until ``seconds``
    have elapsed and every job has run at least once.  Each pass over the
    list starts with ``SETUP_PER_PASS`` set-up probes, so set-up is sampled
    across the whole run."""
    probe = setup_argv(jobs, workdir)
    run_setup(probe, workdir, env)  # warms the bytecode cache
    run = TimedRun({job.id: [] for job in jobs}, [], [], 0, 0, 0)
    first_out: dict[str, str] = {}
    deadline = time.perf_counter() + seconds
    for step in itertools.count():
        if step >= len(jobs) and time.perf_counter() >= deadline:
            return run
        if step % len(jobs) == 0:
            run.setup += [run_setup(probe, workdir, env)
                          for _ in range(SETUP_PER_PASS)]
        job = jobs[step % len(jobs)]
        run.calibration.append(fraction_loop(CALIBRATION_ITERATIONS))
        out = run_bihom(job.argv, workdir, env)
        run.attempted += 1
        problems = check_output(job, out.code, out.stdout, out.stderr,
                                pins_of(job))
        if out.killed:
            problems.append(f"killed after {JOB_TIMEOUT_S} s")
        if first_out.setdefault(job.id, out.stdout) != out.stdout:
            problems.append("output differs from its first run")
        if problems:
            run.failed += 1
            log(f"FAIL {job.id}: {'; '.join(problems)}")
        run.samples[job.id].append(out.seconds)
        run.peak_kb = max(run.peak_kb, out.maxrss_kb)


@dataclass
class Pass:
    times: list[float]  # seconds per job
    results: list[tuple[object, str, str]]  # (exit code, stdout, stderr)
    hits: int
    misses: int

    @property
    def wall(self) -> float:
        return sum(self.times)


def in_process_pass(jobs, workdir: Path, tracer=None, first: int = 0) -> Pass:
    """Run every job through ``bihom.cli.run`` in this process, from
    ``workdir`` and with an empty ``subadjacent`` cache as in a cold
    process, traced when ``tracer`` is given; the jobs' spans are numbered
    from ``first``."""
    import bihom.algebra
    import bihom.cli
    from tracing import ROOT_SPAN

    cache = bihom.algebra.subadjacent
    times, results, hits, misses = [], [], 0, 0
    here = os.getcwd()
    os.chdir(workdir)
    if tracer:
        tracer.install()
    try:
        for number, job in enumerate(jobs):
            start = time.perf_counter()
            cache.cache_clear()
            stdout, stderr = io.StringIO(), io.StringIO()
            span = tracer.span(ROOT_SPAN) if tracer else nullcontext()
            if tracer:
                tracer.job = first + number
            with span, redirect_stdout(stdout), redirect_stderr(stderr):
                try:
                    code = bihom.cli.run(job.argv)
                except Exception as exc:  # a traceback in a cold process
                    code = f"raised {exc!r}"
            info = cache.cache_info()
            hits, misses = hits + info.hits, misses + info.misses
            results.append((code, stdout.getvalue(), stderr.getvalue()))
            times.append(time.perf_counter() - start)
    finally:
        if tracer:
            tracer.uninstall()
        os.chdir(here)
    return Pass(times, results, hits, misses)


def _joined(passes: list[Pass]) -> Pass:
    return Pass([t for p in passes for t in p.times],
                [r for p in passes for r in p.results],
                sum(p.hits for p in passes), sum(p.misses for p in passes))


def traced_run(jobs, workdir, pins_of, log):
    """``TRACE_ROUNDS`` rounds of an untraced and a traced pass in this
    process, each job run untraced and then traced, so that both runs of a
    job see the same machine speed; every traced output must be identical
    to the untraced one.  The metrics come from the fastest traced pass, and
    the overhead compares each job's fastest traced and untraced runs."""
    from tracing import Tracer
    from workloads import REGIMES

    plain, traced = [], []
    for _ in range(TRACE_ROUNDS):
        tracer = Tracer()
        pairs = [(in_process_pass([job], workdir),
                  in_process_pass([job], workdir, tracer, n))
                 for n, job in enumerate(jobs)]
        plain.append(_joined([p for p, _ in pairs]))
        traced.append((_joined([t for _, t in pairs]), tracer))
    failed = 0
    for n, job in enumerate(jobs):
        code, stdout, stderr = plain[0].results[n]
        problems = check_output(job, code, stdout, stderr, pins_of(job))
        if any(p.results[n][:2] != (code, stdout) for p in plain):
            problems.append("untraced output differs between passes")
        if any(t.results[n][:2] != (code, stdout) for t, _ in traced):
            problems.append("traced output differs from the untraced output")
        if problems:
            failed += 1
            log(f"FAIL {job.id} (traced): {'; '.join(problems)}")

    def fastest(passes) -> float:
        return sum(min(times) for times in zip(*(p.times for p in passes)))

    best, tracer = min(traced, key=lambda pair: pair[0].wall)
    overhead = fastest(t for t, _ in traced) - fastest(plain)
    tracer.dump(workdir / "spans.json")
    regimes = {regime: {n for n, job in enumerate(jobs) if job.regime == regime}
               for regime in REGIMES}
    metrics = layer_metrics(tracer, best.hits, best.misses, regimes)
    metrics["trace.overhead_s"] = (overhead, "s")
    log(f"trace: {len(tracer.name_col)} spans, fastest traced pass "
        f"{best.wall:.3f} s, fastest untraced pass "
        f"{min(p.wall for p in plain):.3f} s")
    return metrics, len(jobs), failed


# Single functions whose calls or self time are reported on their own.
_FUNCTION_METRICS = (
    ("linalg.kernel_basis", "self_s"),
    ("linalg.try_solve", "calls"),
    ("linalg.try_solve", "self_s"),
    ("cohomology.cochain_space", "self_s"),
    ("cohomology.coboundary", "calls"),
    ("cohomology.coboundary", "self_s"),
    ("cohomology.coboundary_matrix", "self_s"),
    ("algebra.check_prelie", "self_s"),
    ("algebra.check_bihom_lie", "self_s"),
    ("representation.check_prelie_rep", "self_s"),
    ("representation.check_lie_rep", "self_s"),
    ("representation.semidirect_prelie", "self_s"),
    ("representation.tensor_rep", "self_s"),
    ("operators.check_o_operator", "self_s"),
    ("operators.check_rota_baxter", "self_s"),
    ("deformation.check_linear_deformation", "self_s"),
    ("deformation.check_nijenhuis_prelie", "self_s"),
    ("algebra.subadjacent", "calls"),
)

# Functions whose self time separates the cohomology regimes; reported
# per regime as well as in total.
_REGIME_FUNCTIONS = (
    "linalg.kernel_basis",
    "cohomology.cochain_space",
    "cohomology.coboundary",
    "cohomology.coboundary_matrix",
)

# Sizes accumulated by the tracer's statistics spans, with their units.
_SIZE_METRICS = {
    "linalg.entries": "count",
    "linalg.nnz": "count",
    "linalg.max_bits": "bits",
    "cohomology.cochain_space.coords": "count",
    "cohomology.cochain_space.dim": "count",
    "documents.bytes_in": "bytes",
    "documents.bytes_out": "bytes",
}


def _survival_ratio(counts) -> float:
    coords = counts["cohomology.cochain_space.coords"]
    return counts["cohomology.cochain_space.dim"] / coords if coords else 0.0


def layer_metrics(tracer, hits: int, misses: int,
                  regimes: dict[str, set[int]]) -> dict:
    """Per-layer metrics from a traced pass; ``hits`` and ``misses`` are
    the ``subadjacent`` cache counters summed over its jobs, ``regimes``
    maps each cohomology regime to the numbers of its jobs."""
    from tracing import LAYERS

    summary = tracer.summary()
    counts = tracer.counts()
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        rows = [v for k, v in summary.items() if k.split(".")[0] == layer]
        metrics[f"{layer}.calls"] = (sum(r["calls"] for r in rows), "count")
        metrics[f"{layer}.self_s"] = (sum(r["self_s"] for r in rows), "s")
    for name, field in _FUNCTION_METRICS:
        value = summary.get(name, {"calls": 0, "self_s": 0.0})[field]
        metrics[f"{name}.{field}"] = (value, "s" if field == "self_s" else "count")
    for name, unit in _SIZE_METRICS.items():
        metrics[name] = (counts[name], unit)
    metrics["cohomology.survival_ratio"] = (_survival_ratio(counts), "ratio")
    metrics["algebra.subadjacent.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    for regime, jobs in regimes.items():
        part = tracer.summary(jobs)
        for name in _REGIME_FUNCTIONS:
            metrics[f"{name}.self_s.{regime}"] = (
                part.get(name, {"self_s": 0.0})["self_s"], "s")
        metrics[f"cohomology.survival_ratio.{regime}"] = (
            _survival_ratio(tracer.counts(jobs)), "ratio")
    return metrics


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (default 1, whose answers are "
                             "pinned in expected.json)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    from workloads import REGIMES, WORKLOADS, generate

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    def log(line: str) -> None:
        print(line, flush=True)

    probe_start = fraction_loop(DRIFT_PROBE_ITERATIONS)
    workdir = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    jobs = generate(args.workload, args.seed, workdir)
    expected = json.loads((BENCH / "expected.json").read_text())

    def pins_of(job) -> dict:
        return job_pins(expected, args.workload, args.seed, job)

    env = child_env()
    notes: dict[str, str] = {}
    if args.trace:
        metrics, attempted, failed = traced_run(jobs, workdir, pins_of, log)
    else:
        run = timed_run(jobs, workdir, env, args.seconds, pins_of, log)
        attempted, failed, samples = run.attempted, run.failed, run.samples
        calibration = statistics.quantiles(run.calibration, n=10)[0]
        speed = REFERENCE_CALIBRATION_S / calibration
        job_times = {job_id: min(ts) * speed for job_id, ts in samples.items()}
        runs = sum(len(ts) for ts in samples.values())
        metrics = {
            "wall_s": (sum(job_times.values()), "s"),
            "job_s.p50": (statistics.median(job_times.values()), "s"),
            "setup_s": (min(run.setup) * speed, "s"),
            "peak_rss_mb": (run.peak_kb / 1024, "MB"),
        }
        notes = {
            "wall_s": f"sum of {len(jobs)} per-job minima over {runs} runs",
            "job_s.p50": f"median of {len(jobs)} per-job minima",
            "setup_s": f"n={len(run.setup)}",
            "peak_rss_mb": f"max over {runs} processes",
        }
        log(f"calibration loop: 10th percentile {calibration:.5f} s over "
            f"{len(run.calibration)} runs, so times are scaled by {speed:.4f}; "
            f"unscaled wall_s {sum(job_times.values()) / speed:.4f} s, "
            f"setup_s {min(run.setup):.4f} s; per job, as measured:")
        for job_id, ts in samples.items():
            log(f"  {job_id}: min {min(ts):.4f} s, "
                f"median {statistics.median(ts):.4f} s, max {max(ts):.4f} s "
                f"(n={len(ts)})")
        for regime in REGIMES:
            part = [job_times[job.id] for job in jobs if job.regime == regime]
            if part:
                log(f"wall_s of the {regime} jobs = {sum(part):.4f} s")
        all_times = [t for ts in samples.values() for t in ts]
        if len(all_times) >= 100:  # at least ten samples above the p90
            p90 = statistics.quantiles(all_times, n=10)[-1]
            log(f"job_s.p90 = {p90:.4f} s over all job runs "
                f"(n={len(all_times)})")
    problems = reverify(jobs, workdir, env)
    for problem in problems:
        log(f"FAIL {problem}")
    attempted += sum(1 for job in jobs if job.emits)
    failed += len(problems)
    probe_end = fraction_loop(DRIFT_PROBE_ITERATIONS)

    for name, (value, unit) in metrics.items():
        note = f" ({notes[name]})" if name in notes else ""
        log(f"{name} = {value:.6g} {unit}{note}")
    log(f"fail_ratio = {failed}/{attempted}")
    log(f"drift_probe_s start={probe_start:.4f} end={probe_end:.4f}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
