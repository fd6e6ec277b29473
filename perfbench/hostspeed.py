"""Host-speed reference kernel.

The shared host's speed drifts in phases of seconds to tens of seconds,
so every timing the benchmark reports is scaled by how fast this fixed
kernel ran next to it (:func:`adjust`).  The kernel mixes Python
containers with small numpy boolean operations, which is what the
program spends its time on; a pure arithmetic loop tracked the
program's speed worse.  It calls no code of the program.
"""

from __future__ import annotations

import gc
import time

import numpy as np

#: typical kernel time on the reference host (2-core VM, Python 3.11,
#: numpy 2.4, default mode); fixed once, never measured at run time
NOMINAL_S = 0.0016

#: kernel repetitions per sample
REPEATS = 3

_RNG = np.random.default_rng(20230602)
_MAT = _RNG.random((60, 60)) < 0.1
_KEYS = [f"N{k}" for k in _RNG.permutation(1200)]


def _kernel() -> int:
    index = {label: i for i, label in enumerate(_KEYS)}
    pairs = set()
    for label in _KEYS:
        pairs.add((index[label] % 37, label))
    ordered = sorted(pairs, key=str)
    d = _MAT & ~_MAT.T
    u = _MAT & _MAT.T
    hits = 0
    for i in range(_MAT.shape[0]):
        row = np.nonzero(u[i])[0]
        if np.any(d[:, i] & ~u[:, i]):
            hits += len(row)
    return hits + len(ordered)


def sample() -> float:
    """Mean time of one kernel call, over ``REPEATS`` back-to-back calls.

    The cyclic garbage collector is paused meanwhile, so the kernel's
    time does not depend on how many objects the process holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(REPEATS):
            _kernel()
        return (time.perf_counter() - start) / REPEATS
    finally:
        if enabled:
            gc.enable()


def adjust(raw_s: float, kernel_s: float) -> float:
    """``raw_s`` as it would read on a host where the kernel takes
    :data:`NOMINAL_S`."""
    return raw_s * NOMINAL_S / kernel_s
