"""Host speed, sampled while a run is timed, and times adjusted to it.

The measuring host's speed drifts by a factor of up to 1.7 over seconds to
minutes (other tenants' load on shared cores and caches).  So while a run
is timed, a fixed calibration kernel runs every SAMPLE_SECONDS from a
SIGALRM handler, which Python calls between bytecodes of the timed code.
The kernel uses scipy, numpy and the stdlib only, never porobiot, so no
change to porobiot moves it.  Its compute part, small sparse LU
factorizations and solves and a Python loop over small numpy calls,
tracks the workloads' interpreter and small-matrix work.  A workload that
spends most of its time in triangular solves with a factor larger than
the caches (`mandel`) also slows when other tenants load the memory
system, which the compute part does not see; its kernel adds such solves.

A timed interval is then reported in reference seconds: each stretch of
it between two samples counts its length times the kernel's reference
time over its measured time, averaged over the samples on either side.
The samples' own time lies outside every stretch, so it is never counted.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

SAMPLE_SECONDS = 0.2

# Kernel times on the reference host when it is quiet (see README.md): an
# adjusted time is the time the work would have taken at that speed.
COMPUTE_REFERENCE_S = 0.0050
SOLVE_REFERENCE_S = 0.0015


def _laplacian(n):
    """Nine-point Laplacian on an n x n grid, CSC."""
    t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    eye = sp.identity(n)
    return (sp.kron(eye, t) + sp.kron(t, eye) + 0.1 * sp.kron(t, t)).tocsc()


class Calibration:
    """The kernel's fixed inputs, built once.

    `large_solves` triangular solves with the LU factor of a 10,000-unknown
    Laplacian (1e6 non-zeros, about 12 MB) follow the compute part.  A
    factor as large as mandel's own (30 MB) slowed mandel's solves by a
    third, evicting its factor at every sample; this one does not.
    """

    def __init__(self, large_solves=0):
        self.matrix = _laplacian(24)
        self.rhs = np.ones(self.matrix.shape[0])
        self.vec = np.linspace(0.0, 1.0, 64)
        self.large_solves = large_solves
        if large_solves:
            self.large = spla.splu(_laplacian(100))
            self.large_rhs = np.ones(self.large.shape[0])
        self.reference_s = COMPUTE_REFERENCE_S + large_solves * SOLVE_REFERENCE_S

    def run(self):
        for _ in range(2):
            spla.splu(self.matrix).solve(self.rhs)
        acc = 0.0
        for k in range(1200):
            acc += float(np.dot(self.vec, self.vec)) * k
        for _ in range(self.large_solves):
            self.large.solve(self.large_rhs)
        return acc


class HostSpeed:
    """Samples the calibration kernel for the duration of a `with` block.

    Time only inside the block; `adjusted(a, b)` converts the perf_counter
    interval [a, b] to reference seconds.
    """

    def __init__(self, large_solves=0):
        self.kernel = Calibration(large_solves)
        self.kernel.run()
        self.samples = []     # (start, end) of every kernel run
        self._busy = False

    def sample(self):
        if self._busy:
            return
        self._busy = True
        try:
            t0 = perf_counter()
            self.kernel.run()
            self.samples.append((t0, perf_counter()))
        finally:
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM,
                                       lambda signum, frame: self.sample())
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_SECONDS, SAMPLE_SECONDS)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    def speeds(self):
        """Reference speed over measured speed, one per sample."""
        return [self.kernel.reference_s / (e - s) for s, e in self.samples]

    def adjusted(self, a, b):
        """Reference seconds of [a, b], the samples' own time left out."""
        speeds = self.speeds()
        total = 0.0
        for k in range(len(self.samples) - 1):
            lo = max(a, self.samples[k][1])
            hi = min(b, self.samples[k + 1][0])
            if hi > lo:
                total += (hi - lo) * 0.5 * (speeds[k] + speeds[k + 1])
        return total
