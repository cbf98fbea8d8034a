"""A fixed machine-speed probe, run between the timed operations.

On a shared host the speed of the machine drifts by tens of percent within
a minute, and a plain wall-clock throughput spreads as much from run to run.
The probe is a fixed piece of work with the same character as the library's
hot paths (interpreted Python driving small NumPy linear algebra) and none
of the library's code.  ``run.py`` times it right after each operation, so
both see the same machine, and reports times scaled to the speed the probe
had on the reference machine:

    scaled time = measured time * probe rate now / REFERENCE_RATE

A change to the library moves the operation times and not the probe, so the
scaled figures keep every change of the program and lose most of the drift
of the machine.  The measured times and the probe rate are printed too.
"""

from __future__ import annotations

import math
import time

import numpy as np

# probe iterations per second on the machine the baseline was measured on
# (2 vCPU Intel Xeon VM, Python 3.11, NumPy 2.4); a fixed constant, so that
# scaled figures are comparable across runs and commits
REFERENCE_RATE = 15000.0

_rng = np.random.default_rng(20120820)
_A = _rng.standard_normal((6, 6))
_G = _A @ _A.T + 6.0 * np.eye(6)
_B = _rng.standard_normal((6, 3))
_V = _rng.standard_normal(6)


def _work(n: int) -> float:
    acc = 0.0
    x = _V
    for i in range(n):
        g = _G + (0.01 * (i % 17)) * np.eye(6)
        L = np.linalg.cholesky(g)
        x = np.linalg.solve(g, x + _V)
        P = _B @ np.linalg.solve(_B.T @ g @ _B, _B.T @ g)
        s = np.linalg.svd(P[:3], compute_uv=False)
        acc += math.sin(float(x[0])) + float(L[5, 5]) + float(s[0]) + sum(float(t) for t in x[:3])
    return acc


def run(n: int) -> float:
    """Run ``n`` probe iterations; returns the seconds they took."""
    t0 = time.perf_counter()
    _work(n)
    return time.perf_counter() - t0


def iterations_for(seconds: float) -> int:
    """Iterations that take about ``seconds`` on this machine now."""
    per = run(20) / 20
    return max(20, round(seconds / per))
