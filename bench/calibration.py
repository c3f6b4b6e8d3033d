"""Host-speed calibration loop, independent of the measurefit code.

On a shared host the speed of this process drifts by 20-40%, over seconds
to minutes. The benchmark runs this fixed loop between units and scales
each op's time by ``NOMINAL_S`` over the loop's median time around that op,
so a host slowdown that stretches both cancels, and a change to the package,
which leaves the loop alone, does not.

There are two loops because host contention slows the two kinds of work
the workloads do by different amounts: ``objects`` builds small frozen
dataclasses and scans them into arrays, like the sample draws; ``panels``
does numpy arithmetic on panel-sized arrays, like the quadrature. Each
workload names the loop that matches where its time goes. Neither touches
measurefit code, so no change to the package can move them.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass

import numpy as np

# Calibrated times read as on a host where the loop takes this long, close
# to each loop's median on the host that defined the benchmark (2-vCPU Xeon
# VM at 2.1 GHz, Python 3.11, numpy 2.4).
NOMINAL_S = 0.010

_X, _W = np.polynomial.legendre.leggauss(21)


@dataclass(frozen=True)
class _Kernel:
    shape: float
    rate: float

    def __post_init__(self) -> None:
        if not (self.shape > 0 and self.rate > 0):
            raise ValueError("bad kernel")


@dataclass(frozen=True)
class _Component:
    weight: float
    kernel: _Kernel
    lower: float | None = None

    def __post_init__(self) -> None:
        if not (self.weight >= 0 and math.isfinite(self.weight)):
            raise ValueError("bad weight")


@dataclass(frozen=True)
class _Measure:
    components: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))


def _objects() -> float:
    xs = np.random.default_rng(12345).exponential(2.0, 2600)
    measures = [_Measure((_Component(1.0, _Kernel(x / 0.5, 2.0)),)) for x in xs]
    shapes = np.empty(len(measures))
    for i, m in enumerate(measures):
        comp = m.components[0]
        if isinstance(comp, _Component) and comp.lower is None:
            shapes[i] = comp.kernel.shape
    return float(np.log1p(shapes).sum())


def _panels() -> float:
    total = 0.0
    lo = np.linspace(0.5, 5.0, 30)
    for _ in range(175):
        knots = np.unique(np.concatenate([lo, lo + 0.15, [0.4, 5.5]]))
        mid, half = 0.5 * (knots[1:] + knots[:-1]), 0.5 * np.diff(knots)
        x = mid[:, None] + half[:, None] * _X
        f = np.where(x > 0.6, 1.5 * x**-2.5, 0.0) * np.exp(2.0 * np.log(x) - 2.0 * x)
        total += float((half * (f * _W).sum(axis=1)).sum())
        lo = lo * (1.0 + 1e-12)
    return total


LOOPS = {"objects": _objects, "panels": _panels}


def calibrate(kind: str, clock=time.perf_counter) -> float:
    """Seconds one pass of the ``kind`` loop takes now (cyclic GC off, so the
    package's live heap cannot lengthen it)."""
    loop = LOOPS[kind]
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        loop()
        return clock() - start
    finally:
        if enabled:
            gc.enable()
