"""A fixed reference kernel that measures how fast the machine is right now.

On a shared machine the same deconvbox operation takes 0.5 s or 0.9 s
depending on what the neighbours do, and such phases last from seconds to
minutes. The benchmark therefore times this kernel before and after every
operation and rescales the operation's wall time to the machine speed at
which the kernel takes its nominal time (`NOMINAL_STEP_S`): a phase that
slows both by the same factor leaves the rescaled time unchanged.

The kernel is a plain-numpy pseudo-spectral step of the same shape as the
model's (two dealiased 12-channel inverse / 3-channel forward transform
pairs, masking, a Leray-type projection, an integrating factor and two norm
reductions) on a fixed random field at the workload's resolution, so it
uses cache, memory bandwidth and the interpreter in about the proportions
an operation does. It imports nothing from deconvbox: a change to the
package moves the operation's time and never the kernel's.
"""

from __future__ import annotations

import os
import time

import numpy as np

# About the time of one reference step on one thread of a 2-vCPU Xeon KVM
# guest in a quiet phase. A constant: it only sets the scale of the
# rescaled times.
NOMINAL_STEP_S = {32: 0.025, 64: 0.150}


class ReferenceKernel:
    """`steps` reference steps at resolution K on each of `cpus` CPUs.

    A multi-threaded workload runs on several CPUs whose neighbours differ,
    so the pass runs its steps pinned to each of them in turn. Running them
    on concurrent threads instead measured GIL hand-offs more than CPU
    speed: its readings spread twice as widely against the probe's.
    """

    def __init__(self, K: int, steps: int, cpus: int = 1, seed: int = 0):
        self.K, self.steps, self.cpus = K, steps, cpus
        half = K // 2 + 1
        k_line = np.fft.fftfreq(K) * K
        kx = k_line.reshape(K, 1, 1)
        ky = k_line.reshape(1, K, 1)
        kz = np.arange(half, dtype=np.float64).reshape(1, 1, half)
        self.kvec = [np.broadcast_to(k, (K, K, half)) for k in (kx, ky, kz)]
        self.ksq = kx**2 + ky**2 + kz**2
        self.inv_ksq = np.where(self.ksq > 0.0, 1.0 / np.maximum(self.ksq, 1.0), 0.0)
        self.mask = (np.abs(kx) <= K // 3) & (np.abs(ky) <= K // 3) & (kz <= K // 3)
        rng = np.random.default_rng(seed)
        shape = (3, K, K, half)
        w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        self.w = w * self.mask * np.exp(-self.ksq / K)
        self.nominal_s = NOMINAL_STEP_S[K] * steps * cpus

    def _project(self, c: np.ndarray) -> np.ndarray:
        div = sum(k * c[i] for i, k in enumerate(self.kvec)) * self.inv_ksq
        return np.stack([c[i] - k * div for i, k in enumerate(self.kvec)])

    def _nonlinear(self, u: np.ndarray) -> np.ndarray:
        K = self.K
        uc = u * self.mask
        stack = np.empty((12,) + uc.shape[1:], dtype=np.complex128)
        stack[0:3] = uc
        for i in range(3):
            stack[3 + 3 * i : 6 + 3 * i] = (1j * self.kvec[i]) * uc
        phys = np.fft.irfftn(stack, s=(K, K, K), axes=(1, 2, 3))
        conv = np.einsum("ixyz,ijxyz->jxyz", phys[0:3], phys[3:12].reshape(3, 3, K, K, K))
        return self._project(np.fft.rfftn(conv, axes=(1, 2, 3)) * self.mask)

    def _steps(self) -> None:
        dt = 0.01
        u = self.w
        for _ in range(self.steps):
            decay = np.exp(-self.ksq * (0.5 * dt))
            mid = decay * (u + (0.5 * dt) * self._nonlinear(u))
            u = decay * (decay * u) + dt * (decay * self._nonlinear(mid))
            float(np.sum(np.abs(u) ** 2))
            float(np.sum(self.ksq * np.abs(u) ** 2))

    def run(self) -> float:
        """Wall time of one pass: all steps on each of `cpus` CPUs in turn."""
        start = time.perf_counter()
        if self.cpus == 1:
            self._steps()
        else:
            cpus = os.sched_getaffinity(0)
            try:
                for cpu in sorted(cpus)[: self.cpus]:
                    os.sched_setaffinity(0, {cpu})
                    self._steps()
            finally:
                os.sched_setaffinity(0, cpus)
        return time.perf_counter() - start
