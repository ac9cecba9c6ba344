"""Machine-speed reference for the timed runs.

On a shared machine the speed of this process drifts: the benchmark saw the
same code run up to twice as long for stretches of several seconds, as other
tenants came and went.  A run of 20 s holds too few of those stretches for
its medians to repeat.  So before each operation the run times a fixed
kernel of the benchmark's own numpy code, which never calls matmom, and
scales the operation's time by ``reference / kernel time``, the kernel time
being the median of the last few samples.  Reported times are thus times at
the speed where the kernel takes its reference time, which is about this
machine's speed when it is quiet.  Work done in matmom is not in the kernel,
so a change to matmom moves the scaled time as it moves the raw time.

Contention slows interpreted code and dense factorizations by different
amounts, so the kernel has two parts and each workload uses the parts that
look like its own work (``KERNELS`` in run.py):

- ``interpreted``: the output checks of ``checks.py`` on a fixed small
  measure, many small numpy calls;
- ``dense``: one ``eigh`` of a fixed 48 x 48 Hermitian matrix.

Over 20 s windows of 4- and 5-minute recordings, scaling by the matching
part cut the spread of the median operation time from 9% to 2%
(``population`` with ``interpreted``) and from 20% to 1.3% (``large`` with
``dense``); the other part alone left 4% and 14%.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

import numpy as np

import checks

# Time of each part at the reference speed: about its time on a 2-vCPU
# Intel Xeon virtual machine (numpy 2.4, Python 3.11) in its quiet stretches.
REFERENCE_S = {"interpreted": 0.35e-3, "dense": 0.4e-3}
# Samples in the running median.  Speed changes over seconds; an operation
# here takes 1-150 ms, so five samples follow the changes and damp the
# jitter of single samples.
WINDOW = 5


class SpeedProbe:
    """Running estimate of how fast the machine runs right now."""

    def __init__(self, parts):
        self._parts = tuple(parts)
        self._reference = sum(REFERENCE_S[part] for part in self._parts)
        rng = np.random.default_rng(0)
        n, atoms, l = 3, 6, 8
        self._x = np.sort(rng.uniform(-1.0, 2.0, atoms))
        g = rng.standard_normal((atoms, n, n)) + 1j * rng.standard_normal((atoms, n, n))
        self._w = np.einsum("iba,ibc->iac", g.conj(), g)
        self._s = np.einsum("in,iab->nab", self._x[:, None] ** np.arange(l + 1), self._w)
        h = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
        self._h = h + h.conj().T
        self._samples = deque(maxlen=WINDOW)

    def scale(self) -> float:
        """Time the kernel once; the factor that maps times measured now to
        times at the reference speed."""
        t0 = time.perf_counter()
        if "interpreted" in self._parts:
            errors = checks.solution_errors(self._x, self._w, -1.0, 2.0, self._s)
            if errors:
                raise RuntimeError(f"speed kernel failed its own checks: {errors}")
        if "dense" in self._parts:
            np.linalg.eigh(self._h)
        self._samples.append(time.perf_counter() - t0)
        return self._reference / statistics.median(self._samples)
