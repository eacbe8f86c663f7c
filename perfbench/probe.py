"""Host-speed probe: a fixed pure-Python loop and a fixed SLSQP loop.

Imports nothing from ``repro``, so its timings move only with the host.
The benchmark runs it before and after a workload and prints both
readings beside the metrics: a slow spell of the host then shows up as a
slow probe instead of being read as a regression of the program.
"""

from __future__ import annotations

import time

import numpy as np

# Bound at import, so the traced run's wrapper around
# ``scipy.optimize.minimize`` never counts the probe's solves.
from scipy.optimize import minimize


def _python_loop() -> int:
    acc = 0
    for i in range(150_000):
        acc = (acc * 31 + i) % 1_000_003
    return acc


def _rosen(x: np.ndarray) -> float:
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def _slsqp_loop() -> int:
    iterations = 0
    for k in range(6):
        result = minimize(
            _rosen,
            np.full(6, 0.5 + 0.01 * k),
            method="SLSQP",
            constraints=[{"type": "ineq", "fun": lambda x: 10.0 - float(x @ x)}],
            options={"maxiter": 200},
        )
        iterations += int(result.nit)
    return iterations


def probe() -> dict:
    """Seconds taken by each fixed loop (best of three, to skip one-off stalls)."""
    readings = {}
    for name, loop in (("python_s", _python_loop), ("slsqp_s", _slsqp_loop)):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            loop()
            best = min(best, time.perf_counter() - start)
        readings[name] = round(best, 5)
    return readings


if __name__ == "__main__":
    print(probe())
