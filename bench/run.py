"""Backwater benchmark: one workload per process, timed or traced.

Run from the repository root::

    python3 bench/run.py --workload corpus --seed 0 --seconds 10 --trace 0

Workloads (see ``workloads.py`` and ``LAYERS.md``): ``corpus``, ``train``,
``evaluate`` and ``study``.  The seed makes the workload's inputs; the program
under test is imported from ``src/`` next to this directory and receives only
those inputs.  A run sets up three times (``setup_s`` is the median), then
repeats the workload's pass until ``--seconds`` have elapsed, checks the last
pass's outputs, and prints as its last stdout line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` the run sets up once, repeats the untraced passes, then
runs as many passes again with timing wrappers installed on the program's
public functions, and reports the per-layer metrics, including the tracing
overhead.  Spans go to ``.bench_out/``.  Scratch files live in a temporary
directory under ``.bench_work/`` that is removed at exit.
"""

from __future__ import annotations

import os

# One BLAS thread: the machine is small and shared, and the benchmark must not
# start threads of its own.  Set before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3


def import_program():
    """Import ``backwater`` from this checkout's ``src/``, or exit non-zero."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import backwater
    except ImportError as exc:
        sys.exit(f"bench: cannot import backwater from {src}: {exc}")
    if not Path(backwater.__file__).resolve().is_relative_to(src):
        sys.exit(f"bench: backwater resolved outside {src}: {backwater.__file__}")


def machine_facts() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        },
        "loadavg_start": os.getloadavg(),
    }


def timed_passes(workload, seconds: float, count: int | None = None):
    """Run ``count`` passes, or passes for about ``seconds``: another pass
    starts only if it is expected to end less than half a pass past the
    deadline.  Returns (pass times, passes)."""
    times, passes = [], []
    while True:
        t0 = time.perf_counter()
        result = workload.run_pass()
        times.append(time.perf_counter() - t0)
        if passes:
            passes[-1].output = None  # only the last pass's outputs are checked
        passes.append(result)
        if count is not None:
            if len(passes) >= count:
                break
        elif sum(times) + 0.5 * statistics.fmean(times) >= seconds:
            break
    return times, passes


def run(args, spec: dict) -> tuple[dict, dict]:
    import layers
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    details: dict = {"workload": args.workload, "seed": args.seed}
    try:
        setup_times = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup(args.seed, workdir)
            setup_times.append(time.perf_counter() - t0)
        details["setup_s"] = setup_times

        times, passes = timed_passes(workload, args.seconds)
        if args.trace:
            trace = layers.LayerTrace()
            trace.install()
            try:
                traced_times, traced = timed_passes(workload, args.seconds, count=len(passes))
            finally:
                trace.uninstall()
            overhead = (sum(traced_times) - sum(times)) / len(times)
            passes += traced
        try:
            checks = workload.check(passes[-1].output)
        except Exception:
            traceback.print_exc()
            checks = {"check_completed": False}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_checks = sorted(name for name, ok in checks.items() if not ok)
    attempted = sum(p.attempted for p in passes) + len(checks)
    failed = sum(p.failed for p in passes) + len(failed_checks)
    details.update({
        "pass_s": times,
        f"{workload.unit}_per_pass": passes[0].work,
        "checks": len(checks),
        "failed_checks": failed_checks[:20],
    })

    if args.trace:
        values, tails = trace.metrics(len(traced), overhead)
        details["tails"] = tails
        details["spans_dropped"] = trace.tracer.spans_dropped
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace.tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.csv")
        declared = spec["per_layer"]
    else:
        throughput = statistics.median(p.work / t for p, t in zip(passes, times))
        details[f"{workload.unit}_per_s"] = throughput
        values = {
            "setup_s": statistics.median(setup_times),
            "throughput": throughput,
            "success_rate": 1.0 - failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = spec["end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("corpus", "train", "evaluate", "study"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_program()
    facts = machine_facts()
    result, details = run(args, spec)
    facts["loadavg_end"] = os.getloadavg()
    print(json.dumps({"machine": facts}))
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
