"""Helmholtz differential filter and Van Cittert deconvolution operators.

All three operators are diagonal in Fourier space:

* filter G:            Ghat(k)  = 1 / (1 + delta^2 |k|^2)
* deconvolution D_N:   truncated Neumann series sum_{n=0..N} (I - G)^n
* truncation H_N:      D_N o G, with closed-form symbol
                       Hhat_N(k) = 1 - (delta^2 |k|^2 / (1 + delta^2 |k|^2))^(N+1)

The closed-form symbol is the hot path; the explicit series is kept as an
independent cross-check. Symbols are evaluated through log1p/expm1 so that
values stay accurate near Hhat ~ 1 for large orders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import SpectralVectorField, WaveGrid

MAX_DECONV_ORDER = 64


def _check_delta(delta: float) -> float:
    delta = float(delta)
    if not (delta > 0.0 and np.isfinite(delta)):
        raise ValueError(f"filter width delta must be positive and finite, got {delta}")
    return delta


def _check_order(order: int) -> int:
    if not isinstance(order, (int, np.integer)) or order < 0:
        raise ValueError(f"deconvolution order must be a nonnegative integer, got {order!r}")
    return int(order)


@dataclass(frozen=True)
class FilterParams:
    """Filter width delta and deconvolution order N defining G, D_N, H_N."""

    delta: float
    order: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", _check_delta(self.delta))
        object.__setattr__(self, "order", _check_order(self.order))
        if self.order > MAX_DECONV_ORDER:
            raise ValueError(
                f"deconvolution order {self.order} exceeds the cap {MAX_DECONV_ORDER}"
            )

    def apply(self, w: SpectralVectorField) -> SpectralVectorField:
        """H_N w: truncation_hn(w, delta, order)."""
        return truncation_hn(w, self.delta, self.order)


def _scaled_k2(k2a: np.ndarray, delta: float) -> np.ndarray:
    """delta^2 k2, kept at 0 for the mean mode when delta^2 overflows."""
    with np.errstate(invalid="ignore"):
        return np.where(k2a == 0.0, 0.0, delta * delta * k2a)


def g_symbol(k2, delta: float):
    """Filter transfer function 1 / (1 + delta^2 k2); scalar or array."""
    delta = _check_delta(delta)
    k2a = np.asarray(k2, dtype=np.float64)
    if np.any(k2a < 0.0):
        raise ValueError("k2 must be nonnegative")
    out = 1.0 / (1.0 + _scaled_k2(k2a, delta))
    return float(out) if np.isscalar(k2) else out


def hn_symbol(k2, delta: float, order: int):
    """Truncation symbol 1 - (delta^2 k2 / (1 + delta^2 k2))^(N+1).

    Equals the filter symbol at N = 0 and tends to 1 for large N. Stable
    for any order: the power is taken as -expm1((N+1) * log(r)) with
    log(r) = -log1p(1 / (delta^2 k2)).
    """
    delta = _check_delta(delta)
    order = _check_order(order)
    k2a = np.asarray(k2, dtype=np.float64)
    if np.any(k2a < 0.0):
        raise ValueError("k2 must be nonnegative")
    a = _scaled_k2(k2a, delta)
    with np.errstate(divide="ignore"):
        log_r = -np.log1p(1.0 / a)  # a = 0 -> log_r = -inf -> symbol 1
    out = -np.expm1((order + 1) * log_r)
    return float(out) if np.isscalar(k2) else out


def helmholtz_filter(w: SpectralVectorField, delta: float) -> SpectralVectorField:
    """Apply the differential filter: solve -delta^2 Lap(wbar) + wbar = w.

    Diagonal per mode, so divergence-freeness and the zero mean are
    preserved and the pressure-like term of the filtering problem vanishes
    identically on the periodic box.
    """
    return SpectralVectorField(w.grid, w.coeff * g_symbol(w.grid.ksq, delta))


def truncation_hn(w: SpectralVectorField, delta: float, order: int) -> SpectralVectorField:
    """Apply H_N = D_N o G through its closed-form symbol."""
    return SpectralVectorField(w.grid, w.coeff * hn_symbol(w.grid.ksq, delta, order))


def van_cittert_apply(w: SpectralVectorField, delta: float, order: int) -> SpectralVectorField:
    """Apply H_N by filtering and summing the Neumann series explicitly.

    Accumulates the N+1 terms (I - G)^n wbar by repeated application of
    (I - G); agrees with `truncation_hn` to round-off and exists as the
    independent route for cross-validation.
    """
    delta = _check_delta(delta)
    order = _check_order(order)
    g = g_symbol(w.grid.ksq, delta)
    term = w.coeff * g  # G w
    acc = term.copy()
    for _ in range(order):
        term = term - g * term  # (I - G) applied to the previous term
        acc += term
    return SpectralVectorField(w.grid, acc)


def smoothing_bound(delta: float, order: int) -> float:
    """Admissible two-derivative smoothing constant (N + 1) / delta^2."""
    return (_check_order(order) + 1) / _check_delta(delta) ** 2


def smoothing_constant(delta: float, order: int, grid: WaveGrid) -> float:
    """Best grid constant sup_k |k|^2 Hhat_N(k) over retained nonzero modes.

    This is the sharp constant in ||H_N w||_{s+2} <= C ||w||_s on the given
    lattice; it never exceeds (N + 1) / delta^2 (checked here as a sanity
    guard, by the Bernoulli bound Hhat_N <= (N+1) Ghat).
    """
    sel = grid.mask & (grid.ksq > 0.0)
    vals = grid.ksq[sel] * hn_symbol(grid.ksq[sel], delta, order)
    if vals.size == 0:
        raise ValueError("degenerate grid: no retained nonzero modes")
    measured = float(vals.max())
    bound = smoothing_bound(delta, order)
    if measured > bound * (1.0 + 1e-12):
        raise RuntimeError(
            f"measured smoothing constant {measured} exceeds admissible bound {bound}"
        )
    return measured


@dataclass(frozen=True, eq=False)
class SymbolTable:
    """Filter and truncation symbols over the grid's distinct |k|^2 values."""

    delta: float
    order: int
    k2: np.ndarray
    g: np.ndarray
    hn: np.ndarray

    @classmethod
    def build(cls, grid: WaveGrid, delta: float, order: int) -> "SymbolTable":
        k2 = np.unique(grid.ksq[grid.mask])
        with np.errstate(over="ignore", invalid="ignore"):  # overflow fails the check
            g = g_symbol(k2, delta)
            hn = hn_symbol(k2, delta, order)
        if not np.all((g > 0.0) & (g <= 1.0) & (hn > 0.0) & (hn <= 1.0)):
            raise RuntimeError(f"symbol values escaped (0, 1] at delta={delta!r}, N={order!r}")
        return cls(delta=float(delta), order=int(order), k2=k2, g=g, hn=hn)

    def rows(self):
        for k2, g, hn in zip(self.k2, self.g, self.hn):
            yield float(k2), float(g), float(hn)


__all__ = [
    "MAX_DECONV_ORDER",
    "FilterParams",
    "SymbolTable",
    "g_symbol",
    "hn_symbol",
    "helmholtz_filter",
    "truncation_hn",
    "van_cittert_apply",
    "smoothing_bound",
    "smoothing_constant",
]
