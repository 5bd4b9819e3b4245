#!/usr/bin/env python3
"""Benchmark of the mks solver, run from the root of a source checkout:

    python3 perfbench/run.py --workload scf3d --seed 0 --seconds 25 --trace 0

It imports ``src/mks`` from the checkout, writes the workload's seeded
inputs, then runs operations back to back (one client, closed loop) for
``--seconds`` seconds and checks the output of each.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it, ``info: {...}``, records the
machine, versions, seed, config hashes, problem sizes and failures.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
runs the same operations twice, first untraced and then traced, and reports
per-operation layer metrics from the traced pass (see tracing.py), the
tracing overhead and span coverage.  Results and spans are also written to
``.perfbench_work/`` in the checkout.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

# per-layer span metrics: (span name, report calls, report self time)
SPAN_METRICS = (
    ("scf.lowest_eigenpairs", True, True),
    ("scf.hamiltonian_dense", False, True),
    ("scf.run_scf", True, True),
    ("scf.fixed_point_map", True, True),
    ("scf.fixed_point_residual", False, True),
    ("scf.hamiltonian_apply", True, True),
    ("scf.lobpcg", True, False),
    ("cell.to_grid", True, True),
    ("density_matrix.density", True, True),
    ("density_matrix.orbitals_on_grid", False, True),
    ("smearing.solve_mu", True, True),
    ("smearing.fermi_dirac", True, False),
    ("potentials.assemble_effective", True, True),
    ("density_matrix.free_energy", False, True),
    ("density_matrix.s11_distance_dense", True, True),
    ("density_matrix.project_dm", False, True),
    ("harness.run_single", True, False),
    ("harness.run_sweep", False, True),
    ("harness.quasi_optimality", False, True),
    ("response.context_init", False, True),
    ("response.dense_bare_matrix", True, True),
    ("response.kernel_potential", True, False),
    ("response.audit_a4", False, True),
    ("response.solve_jacobian", False, True),
    ("response.apply_chi", True, False),
    ("io.save_state", False, True),
    ("cli.main", False, True),
    ("config.from_file", False, True),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def tail(times):
    """Highest percentile with at least ten samples beyond it."""
    n = len(times)
    if n < 20:
        return None
    ordered = sorted(times)
    return {"percentile": 100.0 * (n - 10) / n, "value_s": ordered[n - 11], "samples": n}


def git_commit(root):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = root / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(root):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "MKS_THREADS": os.environ.get("MKS_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas.get("version"),
        "scipy_openblas": scipy_blas.get("version"),
        "git_commit": git_commit(root),
    }


def import_seconds(src):
    """Wall time of a fresh interpreter that starts, imports mks and exits."""
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import mks"], check=True,
                   env={**os.environ, "PYTHONPATH": path})
    return time.perf_counter() - start


def run_ops(workload, indices, deadline, tracer=None):
    """Run operations until the deadline (or over ``indices``); returns
    (op seconds of successful operations, attempted, failures)."""
    times, failures, attempted = [], [], 0
    for index in indices:
        if deadline is not None and attempted and time.perf_counter() >= deadline:
            break
        attempted += 1
        if tracer is not None:
            tracer.begin_op(index)
        try:
            elapsed, results = workload.run(index)
        except Exception as exc:  # an operation that raises counts as failed
            failures.append(f"op {index}: {type(exc).__name__}: {exc}")
            continue
        finally:
            if tracer is not None:
                tracer.end_op()
        if tracer is not None:
            tracer.op_ns += int(elapsed * 1e9)
        problems = workload.check(results)
        if problems:
            failures.append(f"op {index}: " + "; ".join(problems))
        else:
            times.append(elapsed)
    return times, attempted, failures


def layer_metrics(tracer, prediction):
    per_op = max(tracer.n_ops, 1)
    totals = tracer.totals()
    metrics = {}
    for name, calls, self_time in SPAN_METRICS:
        count, ns = totals.get(name, (0, 0))
        if calls:
            metrics[f"{name}.calls"] = (count / per_op, "count")
        if self_time:
            metrics[f"{name}.self_s"] = (ns / 1e9 / per_op, "s")
    counters = tracer.counters
    eigensolves = totals.get("scf.lowest_eigenpairs", (0, 0))[0]
    maps = totals.get("scf.fixed_point_map", (0, 0))[0]
    singles = totals.get("harness.run_single", (0, 0))[0]
    # a ratio whose base is zero reads 1: no work was attempted, none wasted
    metrics["scf.eig_useful_ratio"] = (maps / eigensolves if eigensolves else 1.0, "ratio")
    metrics["scf.iterations"] = (counters["scf.iterations"] / per_op, "count")
    metrics["harness.solve_reuse_ratio"] = (
        counters["harness.distinct_solves"] / singles if singles else 1.0, "ratio")
    metrics["response.dense_bytes"] = (counters["response.dense_bytes"] / per_op, "bytes")

    layers = tracer.layer_self_ns()
    covered = sum(layers.values())
    for layer, ns in layers.items():
        metrics[f"layer.{layer}.self_share"] = (ns / covered if covered else 0.0, "share")
    dominant = max(layers, key=layers.get)
    top_share = layers[dominant] / covered if covered else 0.0
    if prediction is None:
        met = top_share <= 0.5
    else:
        met = dominant == prediction
    metrics["trace.prediction_met"] = (1.0 if met else 0.0, "flag")
    metrics["trace.span_coverage"] = (
        tracer.covered_ns / tracer.op_ns if tracer.op_ns else 0.0, "share")
    summary = {
        "dominant_layer": dominant,
        "dominant_share": top_share,
        "predicted": prediction or "no layer above half",
        "prediction_met": met,
    }
    return metrics, summary


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "mks" / "__init__.py").is_file():
        print(f"perfbench: no mks sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import tracing
    from workloads import PREDICTED_DOMINANT, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / f"{tag}-{os.getpid()}"
    workload = WORKLOADS[args.workload](ROOT, args.seed, workdir)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **environment(ROOT)}
    try:
        import_times, input_times = [], []
        for rep in range(workload.setup_reps):
            import_times.append(import_seconds(src))
            start = time.perf_counter()
            workload.setup(rep)
            input_times.append(time.perf_counter() - start)
        setup_s = statistics.median(import_times) + statistics.median(input_times)
        info["setup"] = {"import_s": import_times, "inputs_s": input_times}

        metrics = {}
        if args.trace == 0:
            deadline = time.perf_counter() + args.seconds
            times, attempted, failures = run_ops(
                workload, range(10**9), deadline)
            elapsed = sum(times)
            metrics["ops_per_s"] = (len(times) / elapsed if elapsed else 0.0, "1/s")
            metrics["op_p50_s"] = (statistics.median(times) if times else 0.0, "s")
            metrics["setup_s"] = (setup_s, "s")
            metrics["peak_rss_mib"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
            info["op_tail"] = tail(times)
        else:
            deadline = time.perf_counter() + args.seconds / 2.0
            plain, attempted, failures = run_ops(workload, range(10**9), deadline)
            tracer = tracing.Tracer()
            tracing.instrument(tracer)
            traced, attempted_t, failures_t = run_ops(
                workload, range(attempted), None, tracer)
            attempted += attempted_t
            failures += failures_t
            times = plain + traced
            metrics, info["trace_summary"] = layer_metrics(
                tracer, PREDICTED_DOMINANT[args.workload])
            untraced_rate = len(plain) / sum(plain) if plain else 0.0
            traced_rate = len(traced) / sum(traced) if traced else 0.0
            metrics["trace.overhead_ops_per_s"] = (traced_rate - untraced_rate, "1/s")
            WORK.mkdir(exist_ok=True)
            tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.json.gz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info.update({
        "op_times_s": times,
        "error_rate": len(failures) / attempted,
        "failures": failures[:20],
        "config_hashes": workload.config_hashes,
        "sizes": workload.sizes,
    })
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    WORK.mkdir(exist_ok=True)
    with open(WORK / f"result-{tag}.json", "w") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    print("info: " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
