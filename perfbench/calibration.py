"""Host-speed probes timed next to every measured command.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 2x, over seconds and over minutes, with other tenants' load.  A median
over a 30 s run cannot average out a slow stretch that lasts minutes, so
a fixed numpy kernel is timed just before every command, each command's time
is divided by the mean of the kernel times taken near it, and multiplied by
the kernel's time on an unloaded stretch of the reference host.  The
end-to-end timings are therefore reference seconds: the time the command
would take on that host unloaded.

"Near" is from ``d`` before the command starts to ``d`` after it ends, for a
command of ``d`` seconds: a short command gets the probes just before and
just after it, and a long one, which averages over changes in host speed that
no single probe sees, gets as many probes around it as it lasts.

Load slows kinds of work unequally, so each workload has a kernel shaped like
its own work; in recordings of several minutes each tracked its workload
better than the others did (README.md).  The kernels bind the
``numpy.linalg`` functions at import, before any tracer wraps them, so they
run untraced and add no linear-algebra counts.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_left, bisect_right

import numpy as np
from numpy.linalg import det as _det
from numpy.linalg import eigh as _eigh
from numpy.linalg import inv as _inv
from numpy.linalg import qr as _qr
from numpy.linalg import solve as _solve
from numpy.linalg import svd as _svd

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((300, 10, 10))
_A = _A @ _A.transpose(0, 2, 1) + 10.0 * np.eye(10)
_B = np.ascontiguousarray(_A[:, :, :3])
_S = [np.eye(3) + 0.1 * x for x in _rng.standard_normal((40, 3, 3))]
_S = [s @ s.T for s in _S]
_P = _rng.standard_normal((25, 3, 2))
_X = [_rng.standard_normal((3, 2)) for _ in range(30)]


def _batched_solve() -> None:
    """Broadcast solves over 300 10x10 matrices (bulk's kernel sum)."""
    _solve(_A, _B)
    _solve(_A, _B)


def _eigh_loop() -> None:
    """A Python loop of 3x3 eigendecompositions (per-call manifold work)."""
    for s in _S:
        w, v = _eigh(s)
        float(np.log(w).sum())
        (v * w) @ v.T


def _tiny_fixed_point() -> None:
    """Six iterations of a Tyler-type fixed point on 25 planes in R^3 (small-mc's solves)."""
    sigma = np.eye(3)
    for _ in range(6):
        w, _v = _eigh(sigma)
        if w[0] <= 0.0:
            break
        y = _solve(sigma[None], _P)
        g = np.einsum("nir,nis->nrs", _P, y)
        k = np.einsum("nir,nrs,njs->ij", _P, _inv(g), _P) / len(_P)
        sigma = 0.5 * (k + k.T)
        sigma /= _det(sigma) ** (1.0 / 3.0)


def _svd_loop() -> None:
    """A Python loop of small QR and SVD calls (scan's dim_intersection work)."""
    for x in _X:
        q, _r = _qr(x)
        s = _svd(q.T @ x, compute_uv=False)
        int((s > 1e-9).sum())


# (kernels, their summed time on an unloaded stretch of the reference host:
# the fastest twentieth of several thousand probes on a 2-vCPU KVM guest,
# Python 3.11.7, numpy 2.4.6, one OpenBLAS thread)
PROBES = {
    "bulk": ((_batched_solve, _eigh_loop), 1.6e-3),
    "small-mc": ((_tiny_fixed_point,), 0.42e-3),
    "scan": ((_svd_loop,), 0.77e-3),
}


class Probe:
    """The host-speed probe of one workload."""

    def __init__(self, workload: str):
        self.kernels, self.reference_s = PROBES[workload]

    def __call__(self) -> float:
        """Seconds the workload's kernels take now."""
        t0 = time.perf_counter()
        for kernel in self.kernels:
            kernel()
        return time.perf_counter() - t0

    def to_reference(self, seconds: float, probe_s: float) -> float:
        """Seconds measured next to a probe of ``probe_s``, in reference seconds."""
        return seconds * self.reference_s / probe_s

    def reference_times(self, starts, seconds, probe_at, probe_s) -> list[float]:
        """Commands' times in reference seconds, each divided by the mean of the
        probes that ended within its window.  ``probe_at`` holds those end
        times, ascending, on the clock of ``starts``; each command's own probe
        ends at or before its start."""
        out = []
        for start, dt in zip(starts, seconds):
            lo = bisect_left(probe_at, start - dt)
            hi = bisect_right(probe_at, start + 2.0 * dt)
            out.append(self.to_reference(dt, statistics.fmean(probe_s[lo:hi])))
        return out

    def slowdown(self, probe_s: float) -> float:
        """How many times slower than unloaded the host ran at a probe."""
        return probe_s / self.reference_s
