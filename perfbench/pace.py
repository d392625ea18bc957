"""The pace of the core: a fixed reference kernel timed around the work.

On a shared machine the speed of the core changes from one second to the
next: other tenants' work on the same core or on its sibling slows the
interpreter and small NumPy calls, which is most of what this program
runs, by up to 1.8 times, for seconds to minutes.  A best-of or median
over one run cannot remove a slow spell that covers the whole run.

The kernel below is code of the same kind (a Python loop over small
matrix products and element-wise operations, as in one spiking layer) and
does not touch the package, so a change to the package leaves its time
alone.  The runner times the kernel between units of work; a unit's pace
is the kernel's time around it, and its time is rescaled to
``REFERENCE_S``: it reads as the time the unit takes on a core that runs
the kernel in ``REFERENCE_S`` seconds.  The raw times are kept in the run
record.

Work on large arrays slows less than the kernel in a slow spell: on 2
shared vCPUs the eval phase of the ``eval`` workload (batch 1024) took
about pace**0.3, the interpreter-bound phases pace**0.55 to pace**0.8 (log-log
fits over 36 rounds, biased low by the noise of the readings).  Its
rescaled time therefore still depends on how much of a run falls in slow
spells: a change in that mix between two sets of runs moves
``eval_samples_per_s`` and ``sweep_s`` of ``eval`` more than their spread
within a set suggests.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.5e-3  # the kernel's time at the reference pace
KERNEL_CALLS = 5  # a pace reading is the median of this many calls
KERNEL_LOOPS = 40

_rng = np.random.default_rng(2024)
_X = _rng.standard_normal((32, 48))
_W = _rng.standard_normal((48, 16))
_V = _rng.standard_normal((16, 16))


def kernel_s() -> float:
    """Wall time of one call of the reference kernel."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(KERNEL_LOOPS):
        h = _X @ _W
        h = np.tanh(h) * 0.5 + (h > 0)
        acc += float((h @ _V).sum())
    elapsed = time.perf_counter() - t0
    if not np.isfinite(acc):
        raise FloatingPointError("reference kernel overflowed")
    return elapsed


def reading() -> float:
    """The kernel's median time over ``KERNEL_CALLS`` calls, in seconds."""
    return float(np.median([kernel_s() for _ in range(KERNEL_CALLS)]))


def at_reference(seconds: float, reading_s: float) -> float:
    """``seconds`` of work rescaled to the reference pace.

    ``reading_s`` is the kernel's time around the work: the mean of the
    readings taken just before and just after it.
    """
    return seconds * REFERENCE_S / reading_s
