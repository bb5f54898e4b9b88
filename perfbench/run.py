"""Benchmark of the RRL stack: three workloads, an untraced and a traced run.

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 20 \
        --trace 0

Run from the root of a checkout. The benchmark sets up the workload
several times and reports the median set-up time, then runs timed passes
until ``--seconds`` have gone by (at least one). Every pass is checked
against a reference. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, measured untraced.
With ``--trace 1`` the run alternates untraced and traced passes and
reports the per-layer metrics of the traced ones (see ``layers.py``).
Everything runs in this one process on the serial backend, with BLAS
and OpenMP pinned to one thread.
"""

from __future__ import annotations

import argparse
import os
import sys

# Pin native thread pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("paper_grid", "rrl_solution", "scenario_sweep")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _git_sha() -> str | None:
    """HEAD of the checkout's git repository, read from ``.git``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_sha": _git_sha(), "blas_threads": 1, "backend": "serial"}


@dataclass
class Pass:
    seconds: float
    output: object
    error: str | None
    layer_metrics: dict = field(default_factory=dict)
    absent_metrics: list = field(default_factory=list)
    absent_hooks: list = field(default_factory=list)


def run_pass(workload, traced: bool) -> Pass:
    """One timed pass; a traced pass also collects the layer metrics."""
    import layers
    from workloads import clear_caches

    if workload.cold:
        clear_caches()
    gc.collect()
    tracer = None
    if traced:
        caches_before, absent_caches = layers.read_caches()
        tracer = layers.LayerTracer()
        tracer.install()
    start = time.perf_counter()
    try:
        output, error = workload.run(), None
    except Exception as exc:  # a failed pass is counted, not fatal
        output, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.remove()
    result = Pass(seconds, output, error)
    if tracer is not None:
        caches_after, _ = layers.read_caches()
        result.layer_metrics, absent = tracer.metrics()
        result.layer_metrics.update(
            layers.cache_deltas(caches_before, caches_after))
        result.absent_metrics = absent + absent_caches
        result.absent_hooks = tracer.absent
    return result


def _layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_frac") or name.endswith("share_of_rrl"):
        return "ratio"
    return "count"


def measure(workload_name: str, seed: int, seconds: float,
            trace: bool) -> dict:
    import layers
    from workloads import WORKLOADS, CheckResult

    workload = WORKLOADS[workload_name]()
    setup_times = []
    for _ in range(workload.setup_repeats):
        gc.collect()
        start = time.perf_counter()
        workload.setup(seed)
        setup_times.append(time.perf_counter() - start)

    untraced: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < seconds:
        untraced.append(run_pass(workload, traced=False))
        if trace:
            traced.append(run_pass(workload, traced=True))

    check = CheckResult()
    for p in untraced + traced:
        if p.error is not None:
            check.lost(workload_name, workload.cells_per_pass(), p.error)
        else:
            workload.check(p.output, check)
    for miss in check.misses:
        print(f"MISS {miss}")
    done = [p.output for p in untraced + traced if p.error is None]
    readout = workload.readout(done[-1]) if done else []
    readout.append(f"failed_frac {check.failed / check.attempted:.4f} "
                   f"({check.failed} of {check.attempted} cells)")
    walls = [p.seconds for p in untraced]

    if trace:
        metrics = layers.median_metrics([p.layer_metrics for p in traced])
        metrics["trace.overhead_frac"] = (
            statistics.median(p.seconds for p in traced)
            / statistics.median(walls) - 1.0)
        if "laplace.share_of_rrl" in metrics:
            readout.append(
                "inversion share of RRL time "
                f"{100 * metrics['laplace.share_of_rrl']:.1f} % "
                "(paper 1-2 %)")
        for hook in sorted({h for p in traced for h in p.absent_hooks}):
            print(f"absent hook {hook}")
        for name in sorted({m for p in traced for m in p.absent_metrics}):
            print(f"absent metric {name}")
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    for line in readout:
        print(f"readout {workload_name}: {line}")
    print(f"passes: wall_s {[round(w, 3) for w in walls]}"
          + (f", traced {[round(p.seconds, 3) for p in traced]}"
             if trace else ""))
    return {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value,
                           "unit": END_TO_END_UNITS.get(name)
                           or _layer_unit(name)}
                    for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    print("env " + json.dumps(environment(), sort_keys=True))
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
