"""Machine-speed calibration: a fixed kernel timed next to the measured work.

The benchmark runs on shared virtual machines whose speed drifts by a quarter
and more over minutes (other tenants, frequency changes), which moves every
wall time of the program by the same factor.  `calibrate()` times a fixed
kernel that does not touch curvebound: an interpreted Python loop, NumPy
element-wise transcendentals on a few thousand points and small symmetric
eigenproblems, the same three kinds of work as a curvebound job.  The
benchmark runs it right before and after each timed job or set-up probe and
reports times scaled to a machine on which the kernel takes `REF_S`:

    scaled = REF_S * (sum of measured times) / (sum of calibration times)

so a slower spell of the machine lengthens both sums and cancels, while a
faster curvebound shortens only the first.  The raw wall times are printed
beside the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 0.1  # kernel time on the reference machine; about its time on a 2-vCPU Xeon guest

_X = np.linspace(0.1, 2.0, 4096)
_M = np.add.outer(np.arange(8.0), np.arange(8.0)) * 0.01 + 2.0 + 0.1 * np.eye(8)


def calibrate():
    """Wall time of one run of the fixed kernel, in seconds."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += (i * i) % 7
    for _ in range(600):
        float((np.exp(-_X * _X / 0.3) * np.cos(3.0 * _X)).sum())
    for _ in range(1500):
        np.linalg.eigvalsh(_M)
    return time.perf_counter() - t0


def scale(times, calibrations):
    """Scale wall times to the reference machine by their calibrations."""
    return REF_S * sum(times) / sum(calibrations)
