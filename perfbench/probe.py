"""Host-speed probe: a fixed amount of CPU work timed around every op.

On a shared virtual machine the same interpreter loop runs at visibly
different speeds from one process to the next and from one minute to the
next.  Every CPU-bound timing the benchmark reports is therefore scaled
to a reference host speed::

    adjusted = raw * REFERENCE_PROBE_MS / probe_ms

where ``probe_ms`` is what this probe read next to the timed op and
``REFERENCE_PROBE_MS`` is its median on the machine the benchmark was
calibrated on (``reference.json``).  The probe is pure Python plus one
NumPy reduction and calls no ``repro`` code, so a change to the program
can never move it.
"""

from __future__ import annotations

import json
import os
import statistics
import time

import numpy as np

_HERE = os.path.dirname(os.path.abspath(__file__))

#: Preallocated input of the reduction.  The reduction is a NumPy ufunc,
#: not ``np.dot``: BLAS would wake helper threads that spin on the other
#: cores after the call returns.
_VECTOR = np.arange(1 << 15, dtype=np.float64)

#: Interpreter iterations per probe: about 15 ms on the reference host.
_LOOP = 120_000


def _load_reference() -> float:
    with open(os.path.join(_HERE, "reference.json")) as f:
        return float(json.load(f)["probe_ms"])


REFERENCE_PROBE_MS = _load_reference()


def probe_ms() -> float:
    """Time one fixed unit of interpreter plus NumPy work, in ms."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(_LOOP):
        acc += (i * i) % 7
    acc += int(np.add.reduce(_VECTOR)) & 1
    elapsed = (time.perf_counter() - t0) * 1e3
    if acc < 0:  # keeps the loop's result alive; never true
        raise AssertionError(acc)
    return elapsed


def probe_gap(reps: int) -> float:
    """Median of ``reps`` probes taken back to back (one gap between ops)."""
    return statistics.median(probe_ms() for _ in range(reps))


def adjust(raw: float, probe: float) -> float:
    """``raw`` rescaled from the host speed ``probe`` read to the reference."""
    return raw * REFERENCE_PROBE_MS / probe
