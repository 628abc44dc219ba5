"""Host-speed references, timed beside every measurement.

This host's speed drifts by up to 1.7x over minutes (other tenants share
its caches and cores), so a raw wall time says as much about the host as
about cslrad.  Two fixed references, which no change to cslrad can touch,
are timed next to each measurement:

* ``kernel`` -- pure Python of the same kind as cslrad's hot paths: a pair
  loop with a Gaussian-sinc term per pair, adaptive Simpson over a
  polynomial with a Python callback, a power series, and a validated
  tuple of 1.2e4 pairs.  Its inputs are fixed.  A tight arithmetic loop
  does not track the drift (it moved 1.3x while the passes moved 1.6x).
* ``cold_start`` -- a fresh ``python3 -c "import numpy"``, the reference
  for process start-up (set-up, and each cold CLI call).

Each raw time is rescaled by ``NOMINAL / reference``, the reference being
the mean of the ones timed right after it (or on either side of it, for
set-up), and the median of the rescaled times is reported: the wall time
at the host speed at which the reference takes its nominal time, its
median on this host.  Over twelve 15 s windows of emission-sparse, this
cut the quartile spread of the median pass from 20% to 7%; the ratio of
medians did less (8%), because one pass averages over bursts of
contention that single short references either catch or miss.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

# Reference times on this host when it was quiet (2-vCPU Xeon VM, Python 3.11).
KERNEL_NOMINAL_S = 0.070
COLD_START_NOMINAL_S = 0.170

_N = 240
_POINTS = tuple(((i * 0.6180339887) % 1.0, (i * 0.7548776662) % 1.0,
                 (i * 0.5698402910) % 1.0, 1.0 if i % 2 else -1.0) for i in range(_N))
_POLY = (4.82e-1, -4.42e-4, 2.10e-7, -4.87e-11, 4.32e-15)


def _pair_term(d, scale):
    dx, dy, dz = (float(x) for x in d)
    d2 = dx * dx + dy * dy + dz * dz
    envelope = math.exp(-d2 / (4.0 * scale)) / (2.0 * scale)
    return envelope * (3.0 - d2 / (2.0 * scale)), envelope


def _sinc(b):
    return 1.0 - b * b / 6.0 if b < 1e-4 else math.sin(b) / b


def _pairs():
    total = 0.0
    for i, p in enumerate(_POINTS):
        for q in _POINTS[i + 1:]:
            d = (p[0] - q[0], p[1] - q[1], p[2] - q[2])
            f, _ = _pair_term(d, 0.05)
            total += p[3] * q[3] * f * _sinc(7.0 * math.sqrt(d[0] ** 2 + d[1] ** 2 + d[2] ** 2))
    return total


def _poly_over_e(e):
    acc = 0.0
    for c in reversed(_POLY):
        acc = acc * e + c
    return max(acc, 0.0) / e


def _simpson(f, a, b, fa, fm, fb, whole, eps, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth > 40 or abs(left + right - whole) <= 15.0 * eps:
        return left + right + (left + right - whole) / 15.0
    return (_simpson(f, a, m, fa, flm, fm, left, 0.5 * eps, depth + 1)
            + _simpson(f, m, b, fm, frm, fb, right, 0.5 * eps, depth + 1))


def _integral():
    total = 0.0
    for a, b in ((1000.0, 3800.0), (1000.0, 2000.0), (2000.0, 3800.0), (1500.0, 3000.0)):
        fa, fm, fb = _poly_over_e(a), _poly_over_e(0.5 * (a + b)), _poly_over_e(b)
        whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
        total += _simpson(_poly_over_e, a, b, fa, fm, fb, whole, 1e-13 * abs(whole), 0)
    return total


def _series():
    total = 0.0
    for s in (5.0, 577.0, 5e4, 1e6 + 1.0):
        term = 1.0 / s
        acc, k = term, s
        while abs(term) >= abs(acc) * 1e-17:
            k += 1.0
            term *= 0.9 * s / k
            acc += term
        total += math.log(acc)
    return total


def _points():
    pts = tuple((float(r), 0.25 * float(r) ** 2) for r in (1.0 + 1e-4 * i for i in range(12000)))
    for (r0, l0), (r1, l1) in zip(pts, pts[1:]):
        if not (0.0 < r0 < r1 and 0.0 < l0 < l1):
            raise ArithmeticError("reference grid is not increasing")
    return len(pts)


def kernel() -> float:
    """Seconds for one run of the fixed pure-Python reference."""
    t0 = time.perf_counter()
    _pairs()
    _integral()
    _series()
    _points()
    return time.perf_counter() - t0


def cold_start(cwd) -> float:
    """Seconds for a fresh ``python3 -c "import numpy"``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=cwd, check=True,
                   capture_output=True)
    return time.perf_counter() - t0
