"""Fourier-side representation of periodic, zero-mean vector fields.

Everything lives on the 2*pi-periodic box, discretized with K collocation
points per axis. Fields are stored as half-spectrum (rfft layout) complex
arrays of shape (3, K, K, K//2 + 1), so conjugate symmetry (real-valued
fields) is structural. Sums over the wavenumber lattice always mean the
full integer lattice: stored entries with 0 < k3 < K/2 stand for a
conjugate pair and carry weight 2 in every quadratic sum.

Conventions used throughout the package:

* coefficients are "mathematical": w(x) = sum_k what(k) exp(i k.x), i.e.
  forward transforms divide by K**3;
* integrals over the box carry the normalized measure dx / (2*pi)**3, so
  that the discrete Parseval identity reads mean_x |w(x)|^2 =
  sum_k |what(k)|^2 and Sobolev norms are plain coefficient sums
  ||w||_s^2 = sum_k |k|^(2s) |what(k)|^2;
* the k = 0 (mean) mode is pinned to zero;
* Nyquist planes |k_i| = K/2 are excluded from the logical lattice so it
  is closed under k -> -k.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# The convective term walks each round's physical stack in blocks of x-planes
# whose 4 real channels fill about this many bytes, so each block's last
# inverse pass, scaling and contraction run on data still in cache.
_BLOCK_BYTES = 2**20

SobolevIndex = float


@dataclass(frozen=True, eq=False)
class WaveGrid:
    """Truncated integer wavenumber lattice for the 2*pi-periodic box.

    make_grid builds one per K; its arrays are read-only and shared by all
    threads. The complex tables give the bytes of numpy's cast
    in a complex multiply or divide without its per-call buffers.

    Attributes
    ----------
    K : int
        Collocation points per axis (even, >= 4).
    cut : int
        Largest retained |k_i| per axis under the 2/3 rule: (K-1)//3.
    kx, ky, kz : ndarray
        Signed integer wavenumbers, shaped for broadcasting against the
        spectral layout (K,1,1), (1,K,1), (1,1,K//2+1).
    ksq : ndarray
        |k|^2 per stored mode, shape (K, K, K//2+1).
    mask : ndarray of bool
        True where the mode is retained by the 2/3 rule.
    mult : ndarray
        Lattice multiplicity of each stored mode (2 for interior k3
        columns that stand for a conjugate pair, else 1).
    ret_flat : ndarray
        Flat index of the M retained modes in the pruned inverse's column order
        (ky, kz, kx): ky, kx over 0..cut, K-cut..K-1; kz over 0..cut. Mean first.
    ret_k, ret_ik, ret_ksq_safe : complex128 tables over the retained modes
        k_i, the derivative factors 1j*k_i, and |k|^2 with the mean's 0 replaced by 1.
    ret_ksq, ret_mult : ndarray
        ksq and mult over the retained modes.
    """

    K: int
    cut: int
    kx: np.ndarray
    ky: np.ndarray
    kz: np.ndarray
    ksq: np.ndarray
    mask: np.ndarray
    mult: np.ndarray
    ret_flat: np.ndarray
    ret_k: tuple[np.ndarray, np.ndarray, np.ndarray]
    ret_ik: tuple[np.ndarray, np.ndarray, np.ndarray]
    ret_ksq_safe: np.ndarray
    ret_ksq: np.ndarray
    ret_mult: np.ndarray

    @property
    def shape(self) -> tuple[int, int, int]:
        """Real-space quadrature shape (K, K, K)."""
        return (self.K, self.K, self.K)

    @property
    def spectral_shape(self) -> tuple[int, int, int]:
        return (self.K, self.K, self.K // 2 + 1)

    @property
    def n_points(self) -> int:
        """Logical mode count / real-space quadrature size, K**3."""
        return self.K**3

    @property
    def kvec(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.kx, self.ky, self.kz)


def _wavenumbers(K: int) -> np.ndarray:
    """Signed integer wavenumbers in FFT order: 0, 1, ..., K/2-1, -K/2, ..., -1.

    Built from integers: np.fft.fftfreq(K) * K lands just below some
    integers (5/14 * 14 = 4.999...), which a cast truncates.
    """
    return np.concatenate((np.arange(K // 2), np.arange(-(K // 2), 0))).astype(np.int64)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def make_grid(K: int) -> WaveGrid:
    """Build the wavenumber lattice and dealias mask for resolution K.

    The lattice covers |k_i| <= K/2 - 1 (Nyquist planes are dropped so the
    lattice is closed under negation). The 2/3 rule's mask keeps
    |k_i| <= (K-1)//3 in every axis: the largest cut c with 3c < K, so a
    product of two retained modes (|k_i| <= 2c) aliases to k_i -+ K, which
    lies beyond c. So quadratic products are Galerkin-equivalent and b(u, w, w)
    = 0, the energy balance's cancellation, holds to round-off. (K//3 equals c
    unless 3 divides K, where it would let products alias onto the retained modes.)
    """
    if not isinstance(K, (int, np.integer)):
        raise ValueError(f"K must be an integer, got {K!r}")
    if K < 4:
        raise ValueError(f"K must be at least 4, got {K}")
    if K % 2 != 0:
        raise ValueError(f"K must be even, got {K}")
    return _grid(int(K))


@lru_cache(maxsize=8)
def _grid(K: int) -> WaveGrid:
    half = K // 2 + 1
    k_line = _wavenumbers(K)
    kx = k_line.reshape(K, 1, 1)
    ky = k_line.reshape(1, K, 1)
    kz = np.arange(half, dtype=np.int64).reshape(1, 1, half)
    ksq = (kx**2 + ky**2 + kz**2).astype(np.float64)  # exact: small integers
    cut = (K - 1) // 3
    mask = (np.abs(kx) <= cut) & (np.abs(ky) <= cut) & (np.abs(kz) <= cut)

    mult = np.ones((K, K, half), dtype=np.float64)
    mult[:, :, 1 : K // 2] = 2.0

    keep = np.r_[0 : cut + 1, K - cut : K]
    iy, iz, ix = np.meshgrid(keep, np.arange(cut + 1), keep, indexing="ij")
    ret_flat = ((ix * K + iy) * half + iz).ravel()
    k_ret = tuple(k.ravel() for k in (k_line[ix], k_line[iy], iz))
    ksq_r = ksq.reshape(-1)[ret_flat]

    grid = WaveGrid(
        K=K,
        cut=cut,
        kx=kx,
        ky=ky,
        kz=kz,
        ksq=ksq,
        mask=mask,
        mult=mult,
        ret_flat=ret_flat,
        ret_k=tuple(k.astype(np.complex128) for k in k_ret),
        ret_ik=tuple(1j * k for k in k_ret),
        ret_ksq_safe=np.where(ksq_r > 0.0, ksq_r, 1.0).astype(np.complex128),
        ret_ksq=ksq_r,
        ret_mult=mult.reshape(-1)[ret_flat],
    )
    _read_only(kx, ky, kz, ksq, mask, mult, ret_flat, *grid.ret_k, *grid.ret_ik)
    _read_only(grid.ret_ksq_safe, ksq_r, grid.ret_mult)
    return grid


@dataclass(eq=False)
class SpectralVectorField:
    """Half-spectrum coefficients of a real, zero-mean 3D vector field.

    coeff has shape (3, K, K, K//2+1), complex128. Conjugate symmetry is
    carried by the storage layout; constructors keep the k3 = 0 plane
    Hermitian so that round trips through physical space are exact.
    """

    grid: WaveGrid
    coeff: np.ndarray

    def __post_init__(self) -> None:
        expected = (3,) + self.grid.spectral_shape
        if self.coeff.shape != expected:
            raise ValueError(
                f"coefficient array has shape {self.coeff.shape}, expected {expected}"
            )
        if self.coeff.dtype != np.complex128:
            self.coeff = self.coeff.astype(np.complex128)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, grid: WaveGrid) -> "SpectralVectorField":
        return cls(grid, np.zeros((3,) + grid.spectral_shape, dtype=np.complex128))

    @classmethod
    def from_modes(cls, grid: WaveGrid, modes: dict) -> "SpectralVectorField":
        """Build a real field from a few prescribed lattice modes.

        `modes` maps integer wavevectors (k1, k2, k3) to 3-component
        amplitudes; the conjugate mode at -k is filled automatically so the
        field is real. Pass one representative per conjugate pair.
        """
        out = cls.zeros(grid)
        K = grid.K
        lim = K // 2 - 1
        for k, amp in modes.items():
            k1, k2, k3 = (int(v) for v in k)
            a = np.asarray(amp, dtype=np.complex128)
            if a.shape != (3,):
                raise ValueError(f"amplitude for mode {k} must have 3 components")
            if k1 == 0 and k2 == 0 and k3 == 0:
                raise ValueError("the k = 0 mode is pinned to zero (zero mean)")
            if max(abs(k1), abs(k2), abs(k3)) > lim:
                raise ValueError(f"mode {k} is outside the lattice |k_i| <= {lim}")
            if k3 < 0:
                k1, k2, k3 = -k1, -k2, -k3
                a = np.conj(a)
            i1, i2 = k1 % K, k2 % K
            if not grid.mask[i1, i2, k3]:
                raise ValueError(f"mode {k} is removed by the dealias mask")
            out.coeff[:, i1, i2, k3] = a
            if k3 == 0:
                out.coeff[:, (-k1) % K, (-k2) % K, 0] = np.conj(a)
        return out

    @classmethod
    def from_physical(cls, grid: WaveGrid, values: np.ndarray) -> "SpectralVectorField":
        """Transform real-space samples (3, K, K, K) to a retained-lattice field.

        Content outside the dealias mask is discarded and the mean is
        removed, so the result always satisfies the field invariants.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (3,) + grid.shape:
            raise ValueError(
                f"physical array has shape {values.shape}, expected {(3,) + grid.shape}"
            )
        coeff = np.where(grid.mask, np.fft.rfftn(values, axes=(1, 2, 3)) / grid.n_points, 0.0)
        coeff[:, 0, 0, 0] = 0.0
        return cls(grid, coeff)

    # -- basic arithmetic ---------------------------------------------------

    def copy(self) -> "SpectralVectorField":
        return SpectralVectorField(self.grid, self.coeff.copy())

    def __sub__(self, other: "SpectralVectorField") -> "SpectralVectorField":
        _require_same_grid(self.grid, other.grid)
        return SpectralVectorField(self.grid, self.coeff - other.coeff)

    def __mul__(self, scalar: float) -> "SpectralVectorField":
        return SpectralVectorField(self.grid, self.coeff * scalar)

    # -- transforms ----------------------------------------------------------

    def to_physical(self) -> np.ndarray:
        """Evaluate the field on the K^3 collocation grid (real array)."""
        return np.fft.irfftn(self.coeff, s=self.grid.shape, axes=(1, 2, 3)) * (
            self.grid.n_points
        )


def _require_same_grid(a: WaveGrid, b: WaveGrid, what: str = "fields") -> None:
    """Reject grids of differing K, naming both; O(1) on one grid."""
    if a is not b and a.K != b.K:
        raise ValueError(f"{what} live on different grids: K = {a.K} and K = {b.K}")


# -- norms and inner products --------------------------------------------------


def sobolev_norm(w: SpectralVectorField, s: SobolevIndex) -> float:
    """H_s norm (sum_k |k|^(2s) |what(k)|^2)^(1/2) over the nonzero lattice."""
    return _norm_from_energy(_mode_energy(w.coeff, w.grid.mult), w.grid, s)


def _mode_energy(coeff: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """sum_i |c_i(k)|^2 per mode of (3, ...) coefficients, mean first, times `mult`."""
    amp2 = np.real(coeff * np.conj(coeff)).sum(axis=0)
    amp2 *= mult
    amp2.flat[0] = 0.0  # the norms sum over the nonzero lattice
    return amp2


def _retained_norms(c: np.ndarray, grid: WaveGrid, *orders: SobolevIndex) -> tuple:
    """The H_s norms, s in `orders`, of retained (3, M) coefficients, summed in the full layout:
    sobolev_norm's bytes for the field with +0.0 on the masked modes."""
    amp2 = _scatter(_mode_energy(c, grid.ret_mult), grid)
    return tuple(_norm_from_energy(amp2, grid, s) for s in orders)


def _norm_from_energy(amp2: np.ndarray, grid: WaveGrid, s: SobolevIndex) -> float:
    """The H_s norm from _mode_energy's array."""
    if s == 0:
        return float(np.sqrt(amp2.sum()))
    # |k|^(2s); for s < 0 the mean mode's |k|^2 counts as 1.
    ksq = grid.ksq
    weight = ksq**s if s > 0 else np.where(ksq > 0.0, ksq, 1.0) ** s
    return float(np.sqrt((amp2 * weight).sum()))


def inner_product(u: SpectralVectorField, v: SpectralVectorField) -> float:
    """Volume-normalized L2 inner product, sum_k Re(uhat(k) . conj(vhat(k)))."""
    _require_same_grid(u.grid, v.grid)
    dots = np.real(u.coeff * np.conj(v.coeff)).sum(axis=0)
    return float((dots * u.grid.mult).sum())


def divergence_error(w: SpectralVectorField) -> float:
    """max_k |k . what(k)| relative to the H_1 scale of the field."""
    return _divergence_error(w.coeff, w.grid.kvec, sobolev_norm(w, 1.0))


def _divergence_error(c: np.ndarray, k: tuple, scale: float) -> float:
    """divergence_error of (3, ...) coefficients, given their layout's k_i tables and
    their H_1 norm `scale`."""
    worst = float(np.abs(k[0] * c[0] + k[1] * c[1] + k[2] * c[2]).max())
    return worst if scale == 0.0 else worst / scale


# -- operators ------------------------------------------------------------------


def leray_project(w_raw: SpectralVectorField) -> SpectralVectorField:
    """Helmholtz-Leray projection onto divergence-free fields.

    Per mode: what -> what - k (k . what) / |k|^2; the k = 0 mode is left
    untouched (it is zero for valid fields). Idempotent and self-adjoint.
    """
    grid = w_raw.grid
    ksq_safe = np.where(grid.ksq > 0.0, grid.ksq, 1.0)
    return SpectralVectorField(grid, _leray(w_raw.coeff.copy(), grid.kvec, ksq_safe))


def _leray(c: np.ndarray, k: tuple, ksq_safe: np.ndarray) -> np.ndarray:
    """leray_project of (3, ...) coefficients c in place, given their layout's k_i and ksq_safe
    tables; returns c."""
    # dot = (kx c0 + ky c1 + kz c2) / |k|^2, the operand order of the
    # closed form, so the bytes equal it.
    dot = np.multiply(k[0], c[0])
    tmp = np.multiply(k[1], c[1])
    dot += tmp
    np.multiply(k[2], c[2], out=tmp)
    dot += tmp
    dot /= ksq_safe
    for i in range(3):
        np.multiply(k[i], dot, out=tmp)
        np.subtract(c[i], tmp, out=c[i])
    return c


def _gather(coeff: np.ndarray, grid: WaveGrid) -> np.ndarray:
    """The retained modes (3, M) of full-layout coefficients, in ret_flat order."""
    return np.take(coeff.reshape(3, -1), grid.ret_flat, axis=1)


def _scatter(ret: np.ndarray, grid: WaveGrid) -> np.ndarray:
    """Retained (..., M) values in a new full-layout array, +0.0 on the masked modes. They
    are written one (kx, ky) quadrant at a time: several times faster than through ret_flat."""
    K, c = grid.K, grid.cut
    out = np.zeros(ret.shape[:-1] + grid.spectral_shape, dtype=ret.dtype)
    box = np.moveaxis(ret.reshape(ret.shape[:-1] + (2 * c + 1, c + 1, 2 * c + 1)), -1, -3)
    halves = ((slice(0, c + 1), slice(0, c + 1)), (slice(K - c, K), slice(c + 1, None)))
    for (full_x, ret_x), (full_y, ret_y) in itertools.product(halves, halves):
        out[..., full_x, full_y, : c + 1] = box[..., ret_x, ret_y, :]
    return out


def stokes_apply(w: SpectralVectorField) -> SpectralVectorField:
    """Stokes operator on the periodic box: what(k) -> |k|^2 what(k)."""
    return SpectralVectorField(w.grid, w.coeff * w.grid.ksq)


def smallest_eigenvalue(grid: WaveGrid) -> float:
    """Smallest |k|^2 over retained nonzero modes (1 on any standard grid)."""
    vals = grid.ksq[grid.mask & (grid.ksq > 0.0)]
    if vals.size == 0:
        raise ValueError("degenerate grid: no retained nonzero modes")
    return float(vals.min())


def _planes(K: int) -> int:
    """x-planes per block of the convective term's physical stack."""
    return min(K, max(1, _BLOCK_BYTES // (4 * K * K * 8)))


class _Workspace:
    """A run's buffers for the convective term at one K; a `line` and a `phys` per worker.

    `line` holds one channel's retained (ky, kz) columns at a time, with a zero middle kx
    range, and is transformed in place. by_ky holds one round's 4 channels, phys `planes`
    x-planes of them; conv is full size. Buffers that take turns share words: chat and by_ky
    (chat is written after the last round reads by_ky), and each worker's line and phys.
    """

    def __init__(self, grid: WaveGrid, workers: int = 1) -> None:
        K, cut = grid.K, grid.cut
        self.planes = _planes(K)
        line, phys = (2 * cut + 1, cut + 1, K), (4, self.planes, K, K // 2)  # phys as complex
        own = [np.empty(max(np.prod(line), np.prod(phys)), np.complex128) for _ in range(workers)]
        self.line = [b[: np.prod(line)].reshape(line) for b in own]
        self.phys = [b[: np.prod(phys)].reshape(phys).view(np.float64) for b in own]
        shapes = (4, K, cut + 1, K), (3,) + grid.spectral_shape
        shared = np.empty(max(map(np.prod, shapes)), dtype=np.complex128)
        self.by_ky, self.chat = (shared[: np.prod(s)].reshape(s) for s in shapes)
        self.conv = np.empty((3, K, K, K))


# The active run of each thread: its pool, worker count and workspace, set by `_workers`.
# Probe members run on pool threads, so each member finds its own run.
_local = threading.local()


@contextlib.contextmanager
def _bound_pool(units: int):
    """Up to `units` CPUs of this thread's mask as single-thread executors, each bound to its own
    CPU, or None for fewer than two CPUs or no affinity calls; this thread's mask is unchanged."""
    cpus = sorted(os.sched_getaffinity(0))[:units] if hasattr(os, "sched_getaffinity") else []
    with contextlib.ExitStack() as stack:
        yield None if len(cpus) < 2 else [stack.enter_context(ThreadPoolExecutor(
            1, initializer=os.sched_setaffinity, initargs=(0, {cpu}))) for cpu in cpus]


def _map(pool, fn, n: int) -> list:
    """[fn(i) for i < n]: in turn on this thread without a pool, else item i on thread
    i mod len(pool) while this thread waits; when all have finished, raise the first error."""
    if pool is None:
        return [fn(i) for i in range(n)]
    futures = [pool[i % len(pool)].submit(fn, i) for i in range(n)]
    for future in futures:
        future.exception()  # waits; cheaper per hand-off than concurrent.futures.wait
    return [future.result() for future in futures]


@contextlib.contextmanager
def _workers(grid: WaveGrid):
    """A run on grid: while the block runs, this thread's convective kernel uses one workspace
    and runs on one worker per CPU of its mask, up to one per x-block of grid, each on its own
    `_bound_pool` thread. Both are dropped when the block ends, also on error."""
    with _bound_pool(-(-grid.K // _planes(grid.K))) as pool:
        workers = 1 if pool is None else len(pool)
        _local.pool, _local.workers, _local.workspace = pool, workers, _Workspace(grid, workers)
        try:
            yield
        finally:
            del _local.pool, _local.workers, _local.workspace


def _deal(phase, workers: int) -> None:
    """Run phase(w) for each worker w < workers on this thread's `_workers` pool."""
    _map(getattr(_local, "pool", None), phase, workers)


def _convective(u: np.ndarray, v: np.ndarray, grid: WaveGrid) -> np.ndarray:
    """Retained, mean-free coefficients (3, M) of the dealiased (u . grad) v, in a
    new array, for retained coefficients u and v (3, M) in ret_flat order.

    u and grad v are formed on the collocation grid in three rounds i = 0,
    1, 2 of 4 channels, u_i and d v_j / d x_i (j = 0, 1, 2), block by block
    of x-planes. The inverse runs numpy's irfftn passes (kx, ky, then real
    kz, each normalised by 1/n) in their order, so every block is
    byte-identical to its planes of irfftn of the masked channels.
    Each pass transforms only the lines the mask leaves nonzero, along the
    contiguous last axis: the kx pass (one channel at a time) the retained
    (ky, kz) columns, the ky pass (per block, in place) the kz <= cut planes,
    and the kz pass those cut+1 columns, which numpy pads with zeros. Adding
    u_i d v_j / d x_i to +0.0 in round order is einsum("ixyz,ijxyz->jxyz")
    byte for byte. The forward transform is numpy's 3-channel rfftn, as its
    passes: kz, ky per x-range, then kx per ky-range; only its retained outputs
    are kept. Each phase is dealt to the thread's `_workers`, which write
    disjoint words, so the bytes do not depend on the worker count. A call
    in a run uses the run's workspace; one outside a run builds its own.
    """
    K, c = grid.K, grid.cut
    workers = getattr(_local, "workers", 1)
    ws = getattr(_local, "workspace", None) or _Workspace(grid, workers)
    # The retained kx of each column sit at 0..c and K-c..K-1 of the kx line.
    shape = (3, 2 * c + 1, c + 1, 2 * c + 1)
    u4, v4 = u.reshape(shape), v.reshape(shape)
    view = ws.by_ky.transpose(0, 3, 2, 1)  # (channel, ky, kz, x)
    own = [slice(w * K // workers, (w + 1) * K // workers) for w in range(workers)]

    # Each phase runs within one iteration of the loop below that reads its round i.
    def kx_pass(w: int) -> None:
        ik, line = grid.ret_ik[i].reshape(shape[1:]), ws.line[w]
        halves = ((line[..., : c + 1], slice(0, c + 1)), (line[..., K - c :], slice(c + 1, None)))
        for ch in range(w, 4, workers):
            # The last ky pass and the forward spectrum wrote the ky rows the kx pass leaves.
            ws.by_ky[ch, ..., c + 1 : K - c] = 0.0
            line[..., c + 1 : K - c] = 0.0
            for lines, kx in halves:
                if ch == 0:
                    lines[...] = u4[i, ..., kx]
                else:
                    np.multiply(ik[..., kx], v4[ch - 1, ..., kx], out=lines)
            # kx pass in place, then into (x, kz, ky) order.
            np.fft.ifft(line, axis=-1, out=line)
            view[ch, : c + 1], view[ch, K - c :] = line[: c + 1], line[c + 1 :]

    def x_blocks(w: int) -> None:
        for x0 in range(own[w].start, own[w].stop, ws.planes):
            n = min(ws.planes, own[w].stop - x0)
            xs = slice(x0, x0 + n)
            # ky pass in place, then read in (x, y, kz) order.
            cols = ws.by_ky[:, xs]
            np.fft.ifft(cols, axis=-1, out=cols)
            # Real kz pass: numpy runs irfftn over one axis as exactly this
            # irfft. Calling it as irfftn keeps the inverse visible to
            # bench/spans.py, which wraps numpy's n-d transforms.
            block = np.fft.irfftn(cols.swapaxes(2, 3), s=(K,), axes=(-1,), out=ws.phys[w][:, :n])
            block *= grid.n_points
            block[1:] *= block[0]
            np.add(ws.conv[:, xs] if i else 0.0, block[1:], out=ws.conv[:, xs])

    for i in range(3):
        _deal(kx_pass, workers)
        _deal(x_blocks, workers)
    _deal(lambda w: np.fft.rfftn(ws.conv[:, own[w]], axes=(2, 3), out=ws.chat[:, own[w]]), workers)
    _deal(lambda w: np.fft.fft(ws.chat[:, :, own[w]], axis=1, out=ws.chat[:, :, own[w]]), workers)
    out = _gather(ws.chat, grid)
    out /= grid.n_points
    out[:, 0] = 0.0
    return out


def trilinear_b(
    u: SpectralVectorField, v: SpectralVectorField, w: SpectralVectorField
) -> float:
    """Trilinear convection form b(u, v, w) = sum_ij int u_i d_i v_j w_j dx.

    The coefficient pairing of the dealiased convective term with w, which
    by Parseval equals the quadrature of the mask-truncated product
    against w for zero-mean w. So it is Galerkin-equivalent, and b(u, w, w)
    vanishes to round-off for divergence-free u. The integral carries the
    normalized box measure, matching the coefficient-sum norm convention.
    """
    _require_same_grid(u.grid, v.grid)
    grid = u.grid
    conv = _convective(_gather(u.coeff, grid), _gather(v.coeff, grid), grid)
    return inner_product(SpectralVectorField(grid, _scatter(conv, grid)), w)


def nonlinear_term(u: SpectralVectorField, w: SpectralVectorField) -> SpectralVectorField:
    """Leray-projected, dealiased convective term P_L[(u . grad) w].

    The advecting field u should be divergence-free; the result is
    divergence-free and zero-mean by construction, and +0.0 on the modes
    the dealias mask drops.
    """
    _require_same_grid(u.grid, w.grid)
    grid = u.grid
    conv = _convective(_gather(u.coeff, grid), _gather(w.coeff, grid), grid)
    out = _leray(conv, grid.ret_k, grid.ret_ksq_safe)
    return SpectralVectorField(grid, _scatter(out, grid))


__all__ = [
    "SobolevIndex",
    "WaveGrid",
    "SpectralVectorField",
    "make_grid",
    "sobolev_norm",
    "inner_product",
    "divergence_error",
    "leray_project",
    "stokes_apply",
    "smallest_eigenvalue",
    "trilinear_b",
    "nonlinear_term",
]
