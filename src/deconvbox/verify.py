"""Self-contained property checks for the spectral and filter operators.

Backs the `verify-operators` CLI subcommand: every check builds its own
random data from a fixed seed, measures a defect, and compares it against
the documented tolerance. All checks are pure; the snapshot check's file is temporary.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass

import numpy as np

from .config import FieldSpec, SolverConfig, _random_raw, generate_ic
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
from .solver import (
    ModelParams, SolverState, _TrajectoryBuilder, make_state, simulate_with_state, step
)
from .spectral import (
    SpectralVectorField,
    inner_product,
    leray_project,
    make_grid,
    nonlinear_term,
    smallest_eigenvalue,
    sobolev_norm,
    stokes_apply,
    trilinear_b,
)
from .storage import _HEADER_STRUCT, read_snapshot, write_snapshot


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


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


def _random_spectrum_reference(spec: FieldSpec, grid) -> SpectralVectorField:
    """Reference for config's random_spectrum kind: the full-layout closed form."""
    coeff = _random_raw(grid, np.random.default_rng(spec.seed)).coeff
    kappa0 = spec.cutoff if spec.cutoff is not None else grid.K / 6.0
    ksq = grid.ksq
    amp2 = np.where(ksq > 0.0, np.sqrt(ksq) ** spec.exponent * np.exp(-2.0 * ksq / kappa0**2), 0.0)
    coeff *= np.sqrt(amp2)
    out = SpectralVectorField(grid, _leray_reference(SpectralVectorField(grid, coeff)))
    return out * (spec.target_norm / _sobolev_reference(out, 0.0))


def _nonlinear_reference(u: SpectralVectorField, w: SpectralVectorField) -> np.ndarray:
    """Reference for spectral.nonlinear_term, through one numpy irfftn.

    The collocation values of u and grad w come from the masked 12-channel
    stack times K**3: u first, then d w_j / d x_i at 3 + 3i + j.
    """
    grid = u.grid
    K = grid.K
    stack = np.empty((12,) + grid.spectral_shape, dtype=np.complex128)
    stack[0:3] = u.coeff * grid.mask
    wc = w.coeff * grid.mask
    for i, ki in enumerate(grid.kvec):
        stack[3 + 3 * i : 6 + 3 * i] = (1j * ki) * wc
    phys = np.fft.irfftn(stack, s=grid.shape, axes=(1, 2, 3)) * grid.n_points
    conv = np.einsum("ixyz,ijxyz->jxyz", phys[0:3], phys[3:12].reshape(3, 3, K, K, K))
    # Mean-free and masked by selection: `*= mask` would turn -0.0 into +0.0.
    keep = grid.mask & (grid.ksq > 0.0)
    chat = np.where(keep, np.fft.rfftn(conv, axes=(1, 2, 3)) / grid.n_points, 0.0)
    return np.where(grid.mask, _leray_reference(SpectralVectorField(grid, chat)), 0.0)


def _step_reference(
    state: SolverState, forcing: SpectralVectorField | None, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Reference for solver.step: the new w and H_N w; masked modes hold +0.0.

    `forcing` is the raw f the state's model was built from, so that the
    reference truncates it itself instead of reading the model's H_N f.
    """
    grid, params = state.w.grid, state.model

    def truncate(coeff):
        field = SpectralVectorField(grid, coeff)
        return truncation_hn(field, params.filters.delta, params.filters.order).coeff

    def explicit(coeff):
        w = SpectralVectorField(grid, coeff)
        out = -_nonlinear_reference(SpectralVectorField(grid, truncate(coeff)), w)
        if forcing is not None:
            out = out + truncate(forcing.coeff)
        return out

    decay_half = np.exp(-params.nu * grid.ksq * (0.5 * dt))
    w = state.w.coeff
    mid = decay_half * (w + (0.5 * dt) * explicit(w))
    stepped = decay_half * (decay_half * w) + dt * (decay_half * explicit(mid))
    new = np.where(grid.mask, stepped, 0.0)
    return new, truncate(new)


def _simulate_reference(config, start: SolverState, forcing: SpectralVectorField | None):
    """Reference for solver.simulate_with_state from `start`: _step_reference in the full
    layout, sobolev_norm, inner_product, and _TrajectoryBuilder's trapezoid sums."""
    grid, model, dt = start.w.grid, start.model, config.dt
    f = model.filters
    hn_f = None if forcing is None else truncation_hn(forcing, f.delta, f.order)
    lam1 = smallest_eigenvalue(grid)
    builder = _TrajectoryBuilder((model.f_norm / (model.nu * lam1)) ** 2, model.nu * lam1)
    state, n_steps, prev = start, max(0, int(np.ceil(config.T / dt - 1e-12))), None
    for i in range(n_steps + 1):
        if i:
            new = SpectralVectorField(grid, _step_reference(state, forcing, dt)[0])
            state = SolverState(state.t + dt, new, model)
        norms = [sobolev_norm(state.w, s) ** 2 for s in (1.0, 0.0, 2.0)]
        rate = (norms[0], 0.0 if hn_f is None else inner_product(hn_f, state.w))
        if prev:
            builder.accumulate(dt, *prev, *rate, model.nu)
        prev = rate
        if i % config.sample_every == 0 or i == n_steps:
            builder.record(state, norms)
    return builder.build(), state


def _differing_words(got: np.ndarray, want: np.ndarray) -> int:
    """How many float64 words differ in their bits (so -0.0 differs from 0.0)."""
    a = np.ascontiguousarray(got).view(np.uint64)
    b = np.ascontiguousarray(want).view(np.uint64)
    return int(np.count_nonzero(a != b))


def _rel(defect: float, scale: float) -> float:
    return defect / max(scale, 1e-300)


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
    idem = _rel(sobolev_norm(leray_project(pa) - pa, 0.0), sobolev_norm(a, 0.0))
    record("leray projection idempotent", idem, 1e-12)
    lhs, rhs = inner_product(pa, b), inner_product(a, leray_project(b))
    record("leray projection self-adjoint", _rel(abs(lhs - rhs), max(abs(lhs), abs(rhs))), 1e-12)
    div = np.abs(grid.kx * pa.coeff[0] + grid.ky * pa.coeff[1] + grid.kz * pa.coeff[2]).max()
    scale = np.abs(np.sqrt(grid.ksq) * np.abs(pa.coeff).max(axis=0)).max()
    record("projected field divergence-free per mode", _rel(div, scale), 1e-13)

    plain = float(((np.abs(a.coeff) ** 2).sum(axis=0) * grid.mult).sum())
    h0_rel = _rel(abs(sobolev_norm(a, 0.0) ** 2 - plain), plain)
    record("H0 norm equals plain coefficient sum", h0_rel, 1e-13)
    grad_sq = 0.0
    for ki in grid.kvec:
        grad = SpectralVectorField(grid, (1j * ki) * a.coeff)
        grad_sq += sobolev_norm(grad, 0.0) ** 2
    h1_rel = _rel(abs(sobolev_norm(a, 1.0) ** 2 - grad_sq), grad_sq)
    record("H1 norm equals gradient norm", h1_rel, 1e-12)
    h2, stokes = sobolev_norm(a, 2.0), sobolev_norm(stokes_apply(a), 0.0)
    record("H2 norm equals Stokes image norm", _rel(abs(h2 - stokes), h2), 1e-12)

    scale_b = sobolev_norm(u, 0.0) * sobolev_norm(w, 1.0) * sobolev_norm(w, 0.0)
    record("trilinear form b(u, w, w) cancels", _rel(abs(trilinear_b(u, w, w)), scale_b), 1e-12)
    anti = abs(trilinear_b(u, v, w) + trilinear_b(u, w, v))
    scale3 = sobolev_norm(u, 0.0) * (
        sobolev_norm(v, 1.0) * sobolev_norm(w, 0.0)
        + sobolev_norm(w, 1.0) * sobolev_norm(v, 0.0)
    )
    record("trilinear form antisymmetric in last slots", _rel(anti, scale3), 1e-12)

    delta, order = 0.7, 3
    filtered = helmholtz_filter(w, delta)
    resid = delta**2 * stokes_apply(filtered).coeff + filtered.coeff - w.coeff
    resid_rel = _rel(float(np.abs(resid).max()), float(np.abs(w.coeff).max()))
    record("helmholtz filter residual per mode", resid_rel, 1e-14)

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
        rel = max(rel, _rel(sobolev_norm(series - closed, 0.0), sobolev_norm(closed, 0.0)))
    record("series deconvolution matches closed form", rel, 1e-12)

    hw = truncation_hn(w, delta, order)
    comm = 0.0
    for op in (
        lambda f: helmholtz_filter(f, delta),
        stokes_apply,
        leray_project,
    ):
        d = truncation_hn(op(w), delta, order) - op(hw)
        comm = max(comm, _rel(sobolev_norm(d, 0.0), sobolev_norm(hw, 0.0)))
    record("truncation commutes with filter, Laplacian, projection", comm, 1e-14)

    contr = 0.0
    for s in (0.0, 1.0, 2.0):
        ns, nw = sobolev_norm(hw, s), sobolev_norm(w, s)
        contr = max(contr, _rel(ns - nw, nw))
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
    shape = (3,) + grid.spectral_shape
    raw = SpectralVectorField(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    record("leray projection equals its closed form",
           _differing_words(leray_project(raw).coeff, _leray_reference(raw)), 0)
    filters = FilterParams(delta, order)
    record("FilterParams.apply equals the closed-form truncation",
           _differing_words(filters.apply(raw).coeff, truncation_hn(raw, delta, order).coeff), 0)
    # The generator, the convective term, pruned inverse included, and one
    # step against their closed forms (through numpy's irfftn). Unmasked
    # input exercises the mask, and steady shears the sign of zero sums.
    spec = FieldSpec(kind="random_spectrum", seed=seed, exponent=3.0, cutoff=K / 4.0)
    want = np.where(grid.mask, _random_spectrum_reference(spec, grid).coeff, 0.0)
    generated = _differing_words(generate_ic(spec, grid).coeff, want)
    p, q = (
        SpectralVectorField(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        for _ in range(2)
    )
    shears = ({(1, 0, 0): (0, 1, 1)}, {(0, 1, 0): (1, 0, -1)}, {(0, 0, 1): (0.5, -2, 0)})
    words = 0
    for a, b in [(p, q)] + [(SpectralVectorField.from_modes(grid, m),) * 2 for m in shears]:
        words += _differing_words(nonlinear_term(a, b).coeff, _nonlinear_reference(a, b))
    record("convective term equals its closed form", words, 0)
    forcing = leray_project(_random_raw(grid, rng))
    model = ModelParams(nu=0.3, filters=filters, forcing=forcing)
    start = make_state(0.0, leray_project(_random_raw(grid, rng)), model)
    got = step(start, 0.01)
    want_w, want_hn_w = _step_reference(start, forcing, 0.01)
    words = _differing_words(got.w.coeff, want_w) + _differing_words(got.hn_w.coeff, want_hn_w)
    record("one step equals the closed-form stepper", words, 0)
    # The step's snapshot read back, against its payload unshifted into the full layout.
    with tempfile.NamedTemporaryFile(suffix=".snap") as snap:
        write_snapshot(got, model, snap.name)
        payload = np.fromfile(snap.name, "<c16", offset=_HEADER_STRUCT.size)
        want = np.fft.ifftshift(payload.reshape(grid.spectral_shape + (3,)), axes=(0, 1))
        back = read_snapshot(snap.name, grid=grid, params=model).w.coeff
        read = _differing_words(back, np.moveaxis(want, -1, 0))
    # A short run from a generated field (CFL number below 1), sampled at steps 0, 2, 3.
    start = make_state(0.0, generate_ic(spec, grid), model)
    config = SolverConfig(K, 0.3, delta, order, T=0.03, sample_every=2, forcing=spec)
    runs = (simulate_with_state(config, start), _simulate_reference(config, start, forcing))
    got, want = ([*traj.columns().values(), final.w.coeff] for traj, final in runs)
    simulated = sum(map(_differing_words, got, want))
    record("short simulate equals its full-layout reference", simulated, 0)
    record("random_spectrum field equals its full-layout closed form", generated, 0)
    record("snapshot read through the retained box equals the full-layout read", read, 0)
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
