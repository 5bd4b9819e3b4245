"""Self-test of the benchmark; run from the repository root with

    python3 -m pytest -q perfbench/tests

It is not part of the package's test suite (``tests/``).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd, workload, trace, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "0",
         "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_minimal_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "scf3d", 0, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


class _CorruptScf(workloads.Scf3d):
    def run(self, index):
        elapsed, results = super().run(index)
        path = results[0][1] / "scf_summary.json"
        summary = json.loads(path.read_text())
        summary["converged"] = False
        path.write_text(json.dumps(summary))
        return elapsed, results


def test_corrupted_scf_summary_counts_as_a_failure(tmp_path):
    workload = _CorruptScf(ROOT, 0, tmp_path)
    workload.setup(0)
    times, attempted, failures = run.run_ops(workload, range(1), None)
    assert (times, attempted, len(failures)) == ([], 1, 1)
    assert "not converged" in failures[0]


def test_wrong_jacobian_solution_counts_as_a_failure(tmp_path):
    workload = workloads.Audit3d(ROOT, 0, tmp_path)
    workload.setup(0)
    _, results = workload.run(0)
    assert workload.check(results) == []
    solution = results[0][-1]
    solution.scalar += 1e-6
    problems = workload.check(results)
    assert len(problems) == 1 and "Jacobian residual" in problems[0]


def test_child_spans_nest_in_parents_with_nonnegative_self_time(tmp_path):
    workload = workloads.Sweep1d(ROOT, 0, tmp_path)
    workload.setup(0)
    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer)
    try:
        times, attempted, failures = run.run_ops(workload, range(1), None, tracer)
    finally:
        restore()
    assert failures == [] and len(times) == 1
    spans = tracer.spans
    assert spans
    child_ns = [0] * len(spans)
    for name, start, end, parent, self_ns, op in spans:
        assert start <= end and self_ns >= 0 and op == 0
        if parent >= 0:
            _, p_start, p_end, _, _, _ = spans[parent]
            assert p_start <= start and end <= p_end
            child_ns[parent] += end - start
    for (name, start, end, parent, self_ns, op), children in zip(spans, child_ns):
        # leaf aggregates also count as children, so self time is at most this
        assert self_ns <= end - start - children
    assert tracer.covered_ns <= tracer.op_ns
    # the rebinding is undone
    import mks.harness
    import mks.scf

    assert mks.harness.run_scf is mks.scf.run_scf
    assert not hasattr(mks.scf.run_scf, "__wrapped__")
