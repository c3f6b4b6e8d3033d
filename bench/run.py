"""measurefit benchmark: one workload per process, one JSON result line.

    python3 bench/run.py --workload tail-curve --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds per-layer metrics from a fixed set of units run once
untraced and twice traced (the two traced passes must count identically).
Earlier stdout lines carry the run's details: environment, pinned
tolerances, failures by type and message, and any failed output check.
Run from the repository root; the package is imported from ``src/``.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
CALIBRATE_EVERY_S = 0.25
CALIBRATION_WINDOW_S = 2.5
clock = time.perf_counter


def _import_package():
    """Import measurefit from this checkout's ``src/``; None when it is absent."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import measurefit
        import measurefit.cli  # noqa: F401 - not imported by the package itself
    except ImportError as exc:
        print(f"bench: cannot import measurefit from {src}: {exc}", file=sys.stderr)
        return None
    if not Path(measurefit.__file__).resolve().is_relative_to(src.resolve()):
        print(f"bench: measurefit resolved outside {src}", file=sys.stderr)
        return None
    return measurefit


def _environment(mf) -> dict:
    import numpy
    import scipy

    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            sha = ref
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "measurefit": mf.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "blas_threads": os.environ["OMP_NUM_THREADS"],
    }


def tail_value(times: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(times)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _failure_reasons(ops) -> dict[str, int]:
    reasons = Counter()
    for _, error in ops:
        if error is not None:
            text = error if isinstance(error, str) else f"{type(error).__name__}: {error}"
            reasons[text] += 1
    return dict(reasons)


@dataclass
class Measured:
    """What a run of units produced; ``starts[i]`` is when op i's unit began."""

    ops: list = field(default_factory=list)  # (seconds, error or None)
    starts: list = field(default_factory=list)
    busy: float = 0.0
    units: int = 0
    calibrations: list = field(default_factory=list)  # (clock, loop seconds)


def run_units(workload, mf, inputs, indices, check: bool, budget: float = math.inf,
              calibrate=None) -> Measured:
    """Closed loop, one caller: run units until ``budget`` seconds of unit time.

    Checks and the calibration loop run between units, outside the timed
    region; the loop runs first and then after every CALIBRATE_EVERY_S of
    unit time.
    """
    out = Measured()
    next_calibration = 0.0
    for index in indices:
        if out.busy >= budget:
            break
        if calibrate is not None and out.busy >= next_calibration:
            out.calibrations.append((clock(), calibrate()))
            next_calibration = out.busy + CALIBRATE_EVERY_S
        start = clock()
        unit_ops = workload.unit(mf, inputs, index)
        out.busy += clock() - start
        out.ops.extend(unit_ops)
        out.starts.extend([start] * len(unit_ops))
        out.units += 1
        if check:
            workload.check_unit(mf, inputs, index)
    return out


def local_scales(measured: Measured, nominal: float) -> list[float]:
    """Per-op time scale: ``nominal`` over the median calibration loop time
    within CALIBRATION_WINDOW_S of the op's unit start.

    Host speed changes within a run; pairing each op with the loop runs
    around it follows those changes where a run-wide median would not.
    """
    stamps = [t for t, _ in measured.calibrations]
    scales = []
    for t in measured.starts:
        lo = bisect.bisect_left(stamps, t - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(stamps, t + CALIBRATION_WINDOW_S)
        near = measured.calibrations[lo:hi] or measured.calibrations
        scales.append(nominal / statistics.median(s for _, s in near))
    return scales


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    mf = _import_package()
    if mf is None:
        return 2
    import_s = clock() - _PROCESS_START

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS, pins
    from calibration import NOMINAL_S, calibrate
    from tracer import LAYERS, Tracer

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](clock)
    seed = args.seed % 2**32  # numpy seeds must be nonnegative
    pinned, problems = pins(mf)
    detail = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": _environment(mf), "pins": pinned}

    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    workload.install(mf)
    try:
        if args.trace:
            units = range(workload.trace_units)

            def timed_pass(check: bool):
                """Set-up plus the fixed units; seconds exclude the checks."""
                start = clock()
                pass_inputs = workload.prepare(mf, seed, workdir)
                prepare_s = clock() - start
                measured = run_units(workload, mf, pass_inputs, units, check)
                return measured.ops, prepare_s + measured.busy

            ops, untraced_s = timed_pass(check=True)
            passes = []
            for _ in range(2):
                tracer = Tracer()
                tracer.install(mf)
                try:
                    ops, wall = timed_pass(check=False)
                    layer_metrics = tracer.metrics()
                    shares = {layer: tracer.self_time[layer] / wall for layer in LAYERS}
                finally:
                    tracer.restore()
                passes.append((wall, layer_metrics, shares))
            wall, metrics, detail["self_share"] = passes[0]
            counts = {k: v for k, v in metrics.items() if not k.endswith(("_s", ".s"))}
            repeat = {k: v for k, v in passes[1][1].items() if not k.endswith(("_s", ".s"))}
            if counts != repeat:
                differ = sorted(k for k in counts if counts[k] != repeat[k])
                problems.append(f"counters differ between two traced passes: {differ}")
            metrics.update({
                "trace.untraced_wall_s": untraced_s,
                "trace.wall_s": wall,
                "trace.overhead_s": wall - untraced_s,
                "trace.units": float(len(units)),
            })
            metric_units = {k: ("s" if k.endswith(("_s", ".s")) else
                                "ratio" if k.endswith(("_share", "_ratio")) else "count")
                            for k in metrics}
        else:
            prep_s = []
            for _ in range(SETUP_REPEATS):
                start = clock()
                inputs = workload.prepare(mf, seed, workdir)
                prep_s.append(clock() - start)
            gc.collect()
            setup_s = import_s + statistics.median(prep_s)
            measured = run_units(workload, mf, inputs, itertools.count(), check=True,
                                 budget=args.seconds,
                                 calibrate=lambda: calibrate(workload.calibration))
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            ops = measured.ops
            completed = sum(1 for _, error in ops if error is None)
            times = [seconds for seconds, _ in ops]
            # times read as on a host where the calibration loop takes NOMINAL_S
            scales = local_scales(measured, NOMINAL_S)
            scaled = [t * k for t, k in zip(times, scales)]
            tail, beyond = tail_value(scaled, workload.tail_pct)
            raw = {
                "ops_per_s": completed / sum(times),
                "op_p50_ms": 1e3 * statistics.median(times),
                "op_tail_ms": 1e3 * tail_value(times, workload.tail_pct)[0],
                "setup_s": setup_s,
            }
            detail.update(import_s=import_s, prepare_s=prep_s, timed_s=measured.busy,
                          units=measured.units, raw=raw,
                          op_tail_percentile=workload.tail_pct, ops_beyond_tail=beyond,
                          calibrations=len(measured.calibrations),
                          time_scale_median=statistics.median(scales))
            metrics = {
                "ops_per_s": completed / sum(scaled),
                "op_p50_ms": 1e3 * statistics.median(scaled),
                "op_tail_ms": 1e3 * tail,
                "ok_frac": completed / len(ops),
                "setup_s": setup_s * statistics.median(scales),
                "peak_rss_mb": peak_rss_mb,
            }
            metric_units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                            "ok_frac": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
        problems.extend(workload.check_end())
    finally:
        workload.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    detail["failures"] = _failure_reasons(ops)
    detail["check_problems"] = problems
    print(json.dumps({"detail": detail}, default=str))
    failed = sum(1 for _, error in ops if error is not None)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": metric_units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
