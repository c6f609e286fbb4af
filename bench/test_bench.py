"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest bench -q

They live outside the package's test paths, so the package's own suite does
not collect them.
"""

import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _files(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.fixture
def scratch(request) -> Path:
    """An empty directory under the benchmark's own work area."""
    path = BENCH / ".work" / "tests" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_determines_documents(scratch, workload):
    workloads.generate(workload, 5, scratch / "a")
    workloads.generate(workload, 5, scratch / "b")
    workloads.generate(workload, 6, scratch / "c")
    a, b, c = (_files(scratch / name) for name in "abc")
    assert a == b
    assert a.keys() == c.keys()
    assert a != c


def test_tracer_restores_every_binding():
    targets = tracing.layer_functions()
    before = tracing.bindings(targets)
    assert len(before) > len(targets)  # re-exports and imports are bound too
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracing.bindings(targets) == []
    finally:
        tracer.uninstall()
    assert tracing.bindings(targets) == before


@pytest.fixture(scope="module")
def small_jobs():
    """All ``checks`` jobs plus the cheapest cohomology jobs of each
    regime."""
    root = BENCH / ".work" / "tests" / "jobs"
    shutil.rmtree(root, ignore_errors=True)
    jobs = workloads.generate("checks", workloads.DEFAULT_SEED, root)
    cheap = ("heisenberg-trivial", "plane4-trivial", "dim5-trivial")
    jobs += [job for job in workloads.generate("cohomology",
                                               workloads.DEFAULT_SEED, root)
             if job.id in cheap]
    return root, jobs


def _traced(small_jobs):
    root, jobs = small_jobs
    tracer = tracing.Tracer()
    return tracer, run.in_process_pass(jobs, root, tracer)


def test_traced_outputs_match_untraced(small_jobs):
    root, jobs = small_jobs
    plain = run.in_process_pass(jobs, root)
    _, traced = _traced(small_jobs)
    assert [r[:2] for r in traced.results] == [r[:2] for r in plain.results]
    assert all(isinstance(r[0], int) for r in plain.results)


def test_self_times_add_up_to_the_root_span(small_jobs):
    tracer, _ = _traced(small_jobs)
    selfs = tracer.self_times()
    root_id = tracer.name_id(tracing.ROOT_SPAN)
    per_job: dict[int, float] = {}
    roots: dict[int, float] = {}
    for idx, job in enumerate(tracer.job_col):
        per_job[job] = per_job.get(job, 0.0) + selfs[idx]
        if tracer.name_col[idx] == root_id:
            roots[job] = tracer.end_col[idx] - tracer.start_col[idx]
    assert roots.keys() == per_job.keys() == set(range(len(small_jobs[1])))
    for job, duration in roots.items():
        assert per_job[job] == pytest.approx(duration, rel=1e-9, abs=1e-12)


def test_count_metrics_repeat_exactly(small_jobs):
    def counts():
        tracer, traced = _traced(small_jobs)
        regimes = {regime: {n for n, job in enumerate(small_jobs[1])
                            if job.regime == regime}
                   for regime in workloads.REGIMES}
        metrics = run.layer_metrics(tracer, traced.hits, traced.misses,
                                    regimes)
        return {k: v for k, (v, unit) in metrics.items() if unit != "s"}

    first = counts()
    assert first["cohomology.cochain_space.coords"] > 0
    assert first["linalg.entries"] > 0
    assert (first["cohomology.survival_ratio.dense"]
            > first["cohomology.survival_ratio.twisted"] > 0)
    assert first == counts()
