"""Self-contained property checks for the spectral and filter operators.

Backs the `verify-operators` CLI subcommand: every check builds its own
random data from a fixed seed, measures a defect, and compares it against
the documented tolerance. All checks are pure and side-effect free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import _random_raw
from .deconv import (
    FilterParams,
    g_symbol,
    helmholtz_filter,
    hn_symbol,
    smoothing_bound,
    smoothing_constant,
    truncation_hn,
    van_cittert_apply,
)
from .solver import ModelParams, SolverState, make_state, step
from .spectral import (
    SpectralVectorField,
    _dealiased_physical_factors,
    inner_product,
    leray_project,
    make_grid,
    sobolev_norm,
    stokes_apply,
    trilinear_b,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _irfftn_factors(u: SpectralVectorField, v: SpectralVectorField) -> np.ndarray:
    """Reference for spectral._dealiased_physical_factors.

    The masked 12-channel stack of u and grad v through one numpy irfftn,
    times K**3: shape (12, K, K, K), u first, then d v_j / d x_i at 3 + 3i + j.
    """
    grid = u.grid
    stack = np.empty((12,) + grid.spectral_shape, dtype=np.complex128)
    stack[0:3] = u.coeff * grid.mask
    vc = v.coeff * grid.mask
    for i, ki in enumerate(grid.kvec):
        stack[3 + 3 * i : 6 + 3 * i] = (1j * ki) * vc
    return np.fft.irfftn(stack, s=grid.shape, axes=(1, 2, 3)) * grid.n_points


# References for the table-driven operators: the closed forms on the grid's
# integer, float and bool arrays, which numpy casts to complex on every
# call. The operators must reproduce them byte for byte.


def _leray_reference(w: SpectralVectorField) -> np.ndarray:
    """Reference for spectral.leray_project."""
    grid = w.grid
    ksq_safe = np.where(grid.ksq > 0.0, grid.ksq, 1.0)
    dot = (
        grid.kx * w.coeff[0] + grid.ky * w.coeff[1] + grid.kz * w.coeff[2]
    ) / ksq_safe
    out = np.empty_like(w.coeff)
    out[0] = w.coeff[0] - grid.kx * dot
    out[1] = w.coeff[1] - grid.ky * dot
    out[2] = w.coeff[2] - grid.kz * dot
    return out


def _truncation_reference(w: SpectralVectorField, filters: FilterParams) -> np.ndarray:
    """Reference for FilterParams.apply."""
    return w.coeff * hn_symbol(w.grid.ksq, filters.delta, filters.order)


def _sobolev_reference(w: SpectralVectorField, s: float) -> float:
    """Reference for sobolev_norm and the stepper's one-pass norms."""
    grid = w.grid
    amp2 = np.real(w.coeff * np.conj(w.coeff)).sum(axis=0)
    amp2 = amp2 * grid.mult
    if s == 0:
        amp2[0, 0, 0] = 0.0
        total = amp2.sum()
    elif s > 0:
        total = (amp2 * grid.ksq**s).sum()
    else:
        kern = np.where(grid.ksq > 0.0, grid.ksq, 1.0) ** s
        amp2[0, 0, 0] = 0.0
        total = (amp2 * kern).sum()
    return float(np.sqrt(total))


def _nonlinear_reference(u: SpectralVectorField, w: SpectralVectorField) -> np.ndarray:
    """Reference for spectral.nonlinear_term, from _irfftn_factors."""
    grid = u.grid
    K = grid.K
    phys = _irfftn_factors(u, w)
    conv = np.einsum("ixyz,ijxyz->jxyz", phys[0:3], phys[3:12].reshape(3, 3, K, K, K))
    chat = np.fft.rfftn(conv, axes=(1, 2, 3)) / grid.n_points
    chat *= grid.mask
    chat[:, 0, 0, 0] = 0.0
    return _leray_reference(SpectralVectorField(grid, chat))


def _step_reference(
    state: SolverState, params: ModelParams, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Reference for solver.step: the new w and H_N w."""
    grid = state.w.grid

    def truncate(coeff):
        return _truncation_reference(SpectralVectorField(grid, coeff), params.filters)

    def explicit(coeff):
        w = SpectralVectorField(grid, coeff)
        out = -_nonlinear_reference(SpectralVectorField(grid, truncate(coeff)), w)
        if params.forcing is not None:
            out = out + _truncation_reference(params.forcing, params.filters)
        return out

    decay_half = np.exp(-params.nu * grid.ksq * (0.5 * dt))
    w = state.w.coeff
    mid = decay_half * (w + (0.5 * dt) * explicit(w))
    new = decay_half * (decay_half * w) + dt * (decay_half * explicit(mid))
    return new, truncate(new)


def _differing_words(got: np.ndarray, want: np.ndarray) -> int:
    """How many float64 words differ in their bits (so -0.0 differs from 0.0)."""
    a = np.ascontiguousarray(got).view(np.uint64)
    b = np.ascontiguousarray(want).view(np.uint64)
    return int(np.count_nonzero(a != b))


def operator_checks(K: int = 16, seed: int = 0) -> list[CheckResult]:
    grid = make_grid(K)
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []

    def record(name: str, defect: float, tol: float) -> None:
        results.append(
            CheckResult(name, defect <= tol, f"defect {defect:.3e} vs tol {tol:.1e}")
        )

    a = _random_raw(grid, rng)
    b = _random_raw(grid, rng)
    u = leray_project(_random_raw(grid, rng))
    w = leray_project(_random_raw(grid, rng))
    v = _random_raw(grid, rng)

    pa = leray_project(a)
    ppa = leray_project(pa)
    record(
        "leray projection idempotent",
        sobolev_norm(ppa - pa, 0.0) / max(sobolev_norm(a, 0.0), 1e-300),
        1e-12,
    )
    lhs = inner_product(pa, b)
    rhs_ = inner_product(a, leray_project(b))
    record(
        "leray projection self-adjoint",
        abs(lhs - rhs_) / max(abs(lhs), abs(rhs_), 1e-300),
        1e-12,
    )
    div = np.abs(
        grid.kx * pa.coeff[0] + grid.ky * pa.coeff[1] + grid.kz * pa.coeff[2]
    ).max()
    scale = np.abs(np.sqrt(grid.ksq) * np.abs(pa.coeff).max(axis=0)).max()
    record("projected field divergence-free per mode", div / max(scale, 1e-300), 1e-13)

    plain = float(((np.abs(a.coeff) ** 2).sum(axis=0) * grid.mult).sum())
    record(
        "H0 norm equals plain coefficient sum",
        abs(sobolev_norm(a, 0.0) ** 2 - plain) / max(plain, 1e-300),
        1e-13,
    )
    grad_sq = 0.0
    for ki in grid.kvec:
        grad = SpectralVectorField(grid, (1j * ki) * a.coeff)
        grad_sq += sobolev_norm(grad, 0.0) ** 2
    record(
        "H1 norm equals gradient norm",
        abs(sobolev_norm(a, 1.0) ** 2 - grad_sq) / max(grad_sq, 1e-300),
        1e-12,
    )
    record(
        "H2 norm equals Stokes image norm",
        abs(sobolev_norm(a, 2.0) - sobolev_norm(stokes_apply(a), 0.0))
        / max(sobolev_norm(a, 2.0), 1e-300),
        1e-12,
    )

    cancel = abs(trilinear_b(u, w, w))
    record(
        "trilinear form b(u, w, w) cancels",
        cancel / max(sobolev_norm(u, 0.0) * sobolev_norm(w, 1.0) * sobolev_norm(w, 0.0), 1e-300),
        1e-12,
    )
    anti = abs(trilinear_b(u, v, w) + trilinear_b(u, w, v))
    scale3 = sobolev_norm(u, 0.0) * (
        sobolev_norm(v, 1.0) * sobolev_norm(w, 0.0)
        + sobolev_norm(w, 1.0) * sobolev_norm(v, 0.0)
    )
    record("trilinear form antisymmetric in last slots", anti / max(scale3, 1e-300), 1e-12)

    # The pruned inverse reproduces numpy's irfftn pass by pass; unmasked
    # input also exercises the mask it applies.
    shape = (3,) + grid.spectral_shape
    p = SpectralVectorField(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    q = SpectralVectorField(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    want = _irfftn_factors(p, q)
    p_phys, dq_phys = _dealiased_physical_factors(p, q)
    got = np.concatenate([p_phys, dq_phys.reshape((9,) + grid.shape)])
    record("dealiased inverse transform equals numpy irfftn", float(np.abs(got - want).max()), 0.0)

    delta, order = 0.7, 3
    filtered = helmholtz_filter(w, delta)
    resid = (
        delta**2 * stokes_apply(filtered).coeff + filtered.coeff - w.coeff
    )
    record(
        "helmholtz filter residual per mode",
        float(np.abs(resid).max()) / max(float(np.abs(w.coeff).max()), 1e-300),
        1e-14,
    )

    ksel = grid.ksq[grid.mask]
    g = g_symbol(ksel, delta)
    ok_range = bool(np.all(g > 0.0) and np.all(g <= 1.0))
    worst = 0.0
    prev = g
    for n in range(0, 8):
        hn = hn_symbol(ksel, delta, n)
        ok_range &= bool(np.all(hn > 0.0) and np.all(hn <= 1.0))
        if n > 0:
            worst = max(worst, float((prev - hn).max()))
        prev = hn
    results.append(
        CheckResult(
            "symbols in (0, 1] and nondecreasing in N",
            ok_range and worst <= 1e-15,
            f"range ok: {ok_range}, worst monotonicity defect {worst:.3e}",
        )
    )

    ident = np.abs(
        (1.0 - hn_symbol(ksel, delta, order))
        - (delta**2 * ksel / (1.0 + delta**2 * ksel)) ** (order + 1)
    ).max()
    record("closed-form truncation identity", float(ident), 1e-15)

    rel = 0.0
    for n in (0, 1, 5, 20):
        series = van_cittert_apply(w, delta, n)
        closed = truncation_hn(w, delta, n)
        rel = max(
            rel,
            sobolev_norm(series - closed, 0.0) / max(sobolev_norm(closed, 0.0), 1e-300),
        )
    record("series deconvolution matches closed form", rel, 1e-12)

    hw = truncation_hn(w, delta, order)
    comm = 0.0
    for op in (
        lambda f: helmholtz_filter(f, delta),
        stokes_apply,
        leray_project,
    ):
        d = truncation_hn(op(w), delta, order) - op(hw)
        comm = max(comm, sobolev_norm(d, 0.0) / max(sobolev_norm(hw, 0.0), 1e-300))
    record("truncation commutes with filter, Laplacian, projection", comm, 1e-14)

    contr = 0.0
    for s in (0.0, 1.0, 2.0):
        ns, nw = sobolev_norm(hw, s), sobolev_norm(w, s)
        contr = max(contr, (ns - nw) / max(nw, 1e-300))
    record("truncation contracts every Sobolev norm", max(contr, 0.0), 1e-12)

    measured = smoothing_constant(delta, order, grid)
    bound = smoothing_bound(delta, order)
    results.append(
        CheckResult(
            "smoothing constant below admissible bound",
            measured <= bound,
            f"measured {measured:.6f} vs (N+1)/delta^2 = {bound:.6f}",
        )
    )
    smooth = 0.0
    for s in (0.0, 1.0):
        lhs_n = sobolev_norm(hw, s + 2.0)
        smooth = max(smooth, lhs_n - bound * sobolev_norm(w, s))
    record("two-derivative smoothing inequality", max(smooth, 0.0), 1e-12)

    # Exact: the table-driven operators against their closed forms, in
    # differing float64 words. Drawn last, so the data above is unchanged.
    raw = SpectralVectorField(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    record(
        "leray projection equals its closed form",
        _differing_words(leray_project(raw).coeff, _leray_reference(raw)),
        0,
    )
    filters = FilterParams(delta, order)
    record(
        "FilterParams.apply equals the closed-form truncation",
        _differing_words(filters.apply(raw).coeff, _truncation_reference(raw, filters)),
        0,
    )
    model = ModelParams(
        nu=0.3, filters=filters, forcing=leray_project(_random_raw(grid, rng))
    )
    start = make_state(0.0, leray_project(_random_raw(grid, rng)), model)
    got = step(start, model, 0.01)
    want_w, want_hn_w = _step_reference(start, model, 0.01)
    record(
        "one step equals the closed-form stepper",
        _differing_words(got.w.coeff, want_w) + _differing_words(got.hn_w.coeff, want_hn_w),
        0,
    )
    return results


def run_operator_checks(K: int = 16, seed: int = 0) -> bool:
    """Print one pass/fail line per invariant; True when all pass."""
    results = operator_checks(K=K, seed=seed)
    all_ok = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status}  {res.name}  ({res.detail})")
        all_ok &= res.passed
    print(f"{sum(r.passed for r in results)}/{len(results)} operator checks passed")
    return all_ok


__all__ = ["CheckResult", "operator_checks", "run_operator_checks"]
