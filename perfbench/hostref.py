"""Host-speed reference probe.

This host's speed drifts by up to 2x over spells longer than a run (see
NOTES.md, "Estimators and noise"), so the end-to-end timings are scaled by
the speed of a fixed reference workload timed in the same run. The probe
mixes the two kinds of work the program does: a pure-Python loop of dict
lookups and bitmask operations, like the coverage sieve, and small NumPy
kernel-row and solve calls, like the log-det oracle. It shares no code with
the program, so a change to the program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

# The probe time that maps to a scale factor of 1.
REFERENCE_S = 0.0044

_rng = np.random.default_rng(12345)
_MASKS = {i: int(m) for i, m in enumerate(_rng.integers(0, 2**62, size=256))}
_X = _rng.random((6, 5))
_L = np.linalg.cholesky(np.eye(6) + _X @ _X.T)


def probe() -> float:
    """Seconds one fixed reference workload takes now."""
    t0 = time.perf_counter()
    for _ in range(10):
        acc, picked = 0, 0
        for i in range(256):
            gain = (_MASKS[i] & ~acc).bit_count()
            if gain > 31 and picked < 5:
                acc |= _MASKS[i]
                picked += 1
    for i in range(150):
        c = np.exp(-np.sum((_X - _X[i % 6]) ** 2, axis=1) / 0.5625)
        w = np.linalg.solve(_L, c)
        float(w @ w)
    return time.perf_counter() - t0
