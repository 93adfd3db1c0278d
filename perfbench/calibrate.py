"""Host-speed calibration: a fixed kernel timed between ops.

The shared host this benchmark runs on changes speed by 20-70% over seconds
to minutes, far more than the changes the benchmark is meant to catch.  So
the runner times this kernel every EVERY_S between ops and scales each op's
wall time by ``REFERENCE_S / mean kernel time`` over the samples within
WINDOW_S of the op.  The reported times are then "time on a host where the
kernel takes REFERENCE_S", which on the reference VM (see README.md) is
of the order of its wall time there.  Single samples scatter by about
20% from one to the next, because the host's speed also flickers on a scale
of milliseconds; averaging over the window keeps that scatter out of the
ops' times while still following changes that last seconds.

The kernel is the benchmark's own code, not the program's: complex Givens
rotations on fixed 4x4, 6x6 and 8x8 Hermitian matrices, so it exercises the
same mix of interpreter work and small numpy operations the program's Jacobi
solver does.  A program change therefore cannot speed it up or slow it down.
"""

from __future__ import annotations

import bisect
import itertools
import math
import time

import numpy as np

REFERENCE_S = 0.0012  # about the middle of the kernel's time per burst on the reference VM
BURSTS = 3  # bursts per sample
EVERY_S = 0.2  # sample before an op once this long has passed since the last
WINDOW_S = 2.0  # an op is scaled by the samples within this of its midpoint

_rng = np.random.default_rng(20240917)
_MATRICES = []
for _n in (4, 6, 8):
    _g = _rng.normal(size=(_n, _n)) + 1j * _rng.normal(size=(_n, _n))
    _MATRICES.append((_g + _g.conj().T) / 2.0)


def _burst() -> None:
    """One cyclic Givens sweep over each fixed matrix."""
    for m in _MATRICES:
        a = m.copy()
        n = a.shape[0]
        v = np.eye(n, dtype=complex)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                mag = abs(apq)
                phase = apq / mag
                tau = (a[q, q].real - a[p, p].real) / (2.0 * mag)
                t = 1.0 / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                phase_c = phase.conjugate()
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - s * phase_c * col_q
                a[:, q] = s * col_p + c * phase_c * col_q
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - s * phase * row_q
                a[q, :] = s * row_p + c * phase * row_q
                vcol_p, vcol_q = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vcol_p - s * phase_c * vcol_q
                v[:, q] = s * vcol_p + c * phase_c * vcol_q


def sample() -> tuple:
    """(when, seconds per burst): BURSTS bursts timed together."""
    start = time.perf_counter()
    for _ in range(BURSTS):
        _burst()
    end = time.perf_counter()
    return (start + end) / 2.0, (end - start) / BURSTS


def scale(ops, samples) -> list:
    """Scale each op's latency to the reference host speed.

    ``ops`` holds (start, latency) pairs and ``samples`` (when, seconds)
    pairs from :func:`sample`, both in time order.  An op with no sample
    within WINDOW_S of its midpoint uses the samples either side of it.
    """
    times = [when for when, _ in samples]
    total = [0.0, *itertools.accumulate(secs for _, secs in samples)]
    scaled = []
    for start, latency in ops:
        mid = start + latency / 2.0
        lo = bisect.bisect_left(times, mid - WINDOW_S)
        hi = bisect.bisect_right(times, mid + WINDOW_S)
        if lo == hi:
            hi = bisect.bisect_right(times, mid)
            lo, hi = max(0, hi - 1), min(len(times), hi + 1)
        scaled.append(latency * REFERENCE_S * (hi - lo) / (total[hi] - total[lo]))
    return scaled


_burst()  # first-call costs (numpy dispatch, allocations) stay out of every sample
