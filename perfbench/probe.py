"""Host-speed probe: a fixed Crank-Nicolson SEIR stepping loop, written here.

On a shared host the speed one thread gets drifts by up to 2x, in phases
that last from a second to minutes, and a run of a minute may see no fast
phase at all.  Taken alone, a timing then measures the host's load more than
the program.  The probe is a yardstick that feels that drift the way the
program does: the same kind of work (a sparse LU solve of a five-point
operator, a sparse product and SEIR reaction arithmetic, step by step from
Python) on the workload's own grid, with numpy and scipy only.  It does not
call epidiffuse, so no change to the program changes it.

The benchmark runs one probe right after each timed sample and divides the
sample by it.  The run's median of those ratios, times the probe's reference
time ``ref_s``, is the operation's time in seconds at the reference host
speed: the speed at which the probe takes ``ref_s``.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

KAPPA = 0.1
BETAS = (0.2, 0.1)
THETA, GAMMA = 0.5, 0.2


def _neumann_1d(n: int, h: float):
    """Second-difference operator with reflecting ends, divided by h^2."""
    off = np.ones(n - 1)
    lap = sp.diags([off, -2.0 * np.ones(n), off], [-1, 0, 1]).tolil()
    lap[0, 1] = lap[n - 1, n - 2] = 2.0
    return lap.tocsr() / h ** 2


class HostProbe:
    """``steps`` CN steps of a 3-compartment state plus a population on an ny x nx grid."""

    def __init__(self, nx: int, ny: int, hx: float, hy: float, tau: float, steps: int,
                 ref_s: float):
        lap = (sp.kron(sp.identity(ny), _neumann_1d(nx, hx))
               + sp.kron(_neumann_1d(ny, hy), sp.identity(nx))).tocsr()
        c = 0.5 * tau * KAPPA
        eye = sp.identity(nx * ny, format="csr")
        self._lu = splu((eye - c * lap).tocsc())
        self._B = (eye + c * lap).tocsr()
        # smooth fields bounded away from zero: no subnormal arithmetic
        wave = np.outer(np.cos(np.linspace(0.0, 3.0, ny)), np.sin(np.linspace(0.5, 2.5, nx)))
        e = 0.01 + 0.005 * wave.ravel()
        i = 0.02 + 0.01 * wave.ravel()
        self._u0 = np.stack([1.0 - e - i, e, i])
        self._pop0 = 1.0 + 0.5 * wave.ravel()
        self.tau, self.steps, self.ref_s = tau, steps, ref_s

    def work(self) -> np.ndarray:
        """The probe's fixed work; returns the final state."""
        u, pop, tau = self._u0, self._pop0, self.tau
        for n in range(self.steps):
            beta = BETAS[n % 2]
            f = np.empty_like(u)
            force = beta * u[0] * u[2]
            f[0] = -force
            f[1] = force - THETA * u[1]
            f[2] = THETA * u[1] - GAMMA * u[2]
            u = self._lu.solve(self._B @ u.T + tau * f.T).T
            pop = self._lu.solve(self._B @ pop)
        return u

    def __call__(self) -> float:
        """Run the probe once; returns its time in seconds."""
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0
