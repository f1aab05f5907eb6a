"""Acceptance suite: every exit criterion at its stated tolerance.

One test per criterion. Each prints a PASS/FAIL line as it runs and the
lines are replayed in the terminal summary after the session.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from conftest import record_acceptance
from deconvbox import (
    AbsorbingParams,
    FieldSpec,
    FilterParams,
    ModelParams,
    SolverConfig,
    SpectralVectorField,
    absorbing_time,
    energy_refinement_study,
    ensemble_absorb_probe,
    generate_ic,
    h1_absorbing_report,
    h1_time_average,
    hn_symbol,
    initial_state,
    make_grid,
    read_snapshot,
    simulate,
    smallest_eigenvalue,
    smoothing_bound,
    smoothing_constant,
    sobolev_norm,
    step,
    trilinear_b,
    truncation_hn,
    uniform_gronwall,
    van_cittert_apply,
    write_snapshot,
)
from oracles import random_div_free

DELTAS = (0.1, 0.5, 1.0)
ORDERS = (0, 1, 5, 20)
SOBOLEV_S = (0.0, 1.0, 2.0)


def criterion(num: int, name: str, ok: bool, detail: str = "") -> bool:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    record_acceptance(line)
    return ok


@pytest.fixture(scope="module")
def field_bank(grid16):
    """200 random divergence-free fields with varied amplitudes."""
    return [
        random_div_free(grid16, seed=1000 + i, target=0.5 + (i % 7) * 0.4)
        for i in range(200)
    ]


@pytest.fixture(scope="module")
def absorb_ensemble():
    """8-member forced ensemble at 32^3, shared by criteria 7 and 8."""
    template = SolverConfig(
        K=32, nu=1.0, delta=0.5, order=1, dt=0.01, T=1.0, sample_every=2,
        forcing=FieldSpec(kind="random_spectrum", seed=101, target_norm=0.5),
    )
    t0 = time.perf_counter()
    report = ensemble_absorb_probe(
        R=2.0,
        rho0_prime=math.sqrt(0.5),
        ensemble_size=8,
        template=template,
        base_seed=500,
    )
    elapsed = time.perf_counter() - t0
    params = AbsorbingParams(
        nu=1.0, lambda1=1.0, f_norm=report.rho0, rho0_prime=math.sqrt(0.5), R=2.0
    )
    return report, params, elapsed


def test_01_operator_contraction(grid16, field_bank):
    norms = {s: [sobolev_norm(w, s) for w in field_bank] for s in SOBOLEV_S}
    t0 = time.perf_counter()
    worst = -math.inf
    for delta in DELTAS:
        for order in ORDERS:
            for i, w in enumerate(field_bank):
                hw = truncation_hn(w, delta, order)
                for s in SOBOLEV_S:
                    worst = max(worst, (sobolev_norm(hw, s) - norms[s][i]) / norms[s][i])
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    assert criterion(
        1, "operator contraction in H0/H1/H2",
        ok, f"worst relative excess {worst:.2e}, {elapsed:.1f}s",
    )


def test_02_series_matches_closed_form(field_bank):
    worst = 0.0
    for delta in DELTAS:
        for order in ORDERS:
            for w in field_bank:
                series = van_cittert_apply(w, delta, order)
                closed = truncation_hn(w, delta, order)
                worst = max(
                    worst,
                    sobolev_norm(series - closed, 0.0) / sobolev_norm(closed, 0.0),
                )
    ok = worst <= 1e-12
    assert criterion(
        2, "iterative deconvolution equals closed form", ok, f"worst rel {worst:.2e}"
    )


def test_03_smoothing_bound(grid16):
    worst_margin = math.inf
    strict = True
    for delta in DELTAS:
        for order in ORDERS:
            measured = smoothing_constant(delta, order, grid16)
            bound = smoothing_bound(delta, order)
            strict &= measured < bound
            worst_margin = min(worst_margin, (bound - measured) / bound)
    assert criterion(
        3, "two-derivative smoothing constant below (N+1)/delta^2",
        strict, f"smallest relative margin {worst_margin:.3e}",
    )


def test_04_trilinear_cancellation(grid16):
    worst = 0.0
    for i in range(50):
        u = random_div_free(grid16, seed=2000 + 2 * i)
        w = random_div_free(grid16, seed=2001 + 2 * i)
        scale = sobolev_norm(u, 0.0) * sobolev_norm(w, 1.0) * sobolev_norm(w, 0.0)
        worst = max(worst, abs(trilinear_b(u, w, w)) / scale)
    ok = worst <= 1e-12
    assert criterion(4, "trilinear energy cancellation", ok, f"worst {worst:.2e}")


def test_05_exact_single_mode_solution():
    t0 = time.perf_counter()
    grid = make_grid(32)
    params = ModelParams(nu=1.0, filters=FilterParams(1.0, 0), grid=grid)
    u0 = SpectralVectorField.from_modes(grid, {(1, 0, 0): (0.0, 1.0, 0.0)})
    state = initial_state(u0, params)
    w0 = state.w.coeff.copy()
    dt, worst = 0.01, 0.0
    for i in range(1, 201):
        state = step(state, dt)
        if i % 10 == 0:
            exact = w0 * math.exp(-params.nu * state.t)
            worst = max(worst, np.abs(state.w.coeff - exact).max() / np.abs(exact).max())
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 30.0
    assert criterion(
        5, "single-mode run matches exp(-nu t) decay",
        ok, f"worst rel {worst:.2e}, {elapsed:.1f}s",
    )


def test_06_energy_equality_order():
    t0 = time.perf_counter()
    cfg = SolverConfig(
        K=32, nu=0.1, delta=0.5, order=1, dt=0.01, T=0.32, sample_every=8,
        ic=FieldSpec(kind="random_spectrum", seed=21, target_norm=1.0),
        forcing=FieldSpec(kind="random_spectrum", seed=22, target_norm=0.3),
    )
    study = energy_refinement_study(cfg, levels=3)
    elapsed = time.perf_counter() - t0
    ok = (
        all(1.7 <= order <= 2.3 for order in study.orders)
        and all(a > b for a, b in zip(study.residuals, study.residuals[1:]))
        and elapsed < 300.0
    )
    assert criterion(
        6, "energy-balance residual refines at order 2",
        ok, f"orders {tuple(round(o, 3) for o in study.orders)}, {elapsed:.1f}s",
    )


def test_07_absorbing_ball(absorb_ensemble):
    report, params, elapsed = absorb_ensemble
    t0 = report.T0
    entries_ok = all(
        m.entry_time is not None and m.entry_time <= 1.05 * t0 for m in report.members
    )
    stayed_ok = all(m.stayed_inside for m in report.members)
    envelope_ok = all(m.bound_ok for m in report.members)
    max_ratio = max(m.max_bound_ratio for m in report.members)
    ok = report.passed and entries_ok and stayed_ok and envelope_ok and elapsed < 900.0
    assert criterion(
        7, "ensemble absorbed into the slack ball",
        ok,
        f"T0 {t0:.3f}, worst envelope ratio {max_ratio:.4f}, {elapsed:.0f}s",
    )


def test_08_windowed_enstrophy_bound(absorb_ensemble):
    report, params, _ = absorb_ensemble
    r = 1.0
    worst = 0.0
    ok = True
    for m in report.members:
        traj = m.trajectory
        starts = traj.t[(traj.t >= report.T0) & (traj.t + r <= traj.t[-1] + 1e-12)]
        assert starts.size > 0
        for t in starts:
            out = h1_time_average(traj, float(t), r, params, tol=0.01)
            ok &= out.satisfied
            worst = max(worst, out.integral / out.bound)
    assert criterion(
        8, "windowed enstrophy integral under its bound",
        ok, f"worst integral/bound {worst:.4f}",
    )


def test_09_initial_data_independence():
    grid = make_grid(32)
    filters = FilterParams(0.5, 1)
    forcing_spec = FieldSpec(kind="random_spectrum", seed=101, target_norm=0.5)
    forcing = generate_ic(forcing_spec, grid, filters)
    model = ModelParams(nu=1.0, filters=filters, forcing=forcing)
    params = AbsorbingParams(
        nu=1.0, lambda1=smallest_eigenvalue(grid),
        f_norm=sobolev_norm(forcing, 0.0), rho0_prime=math.sqrt(0.5), R=2.0,
    )
    base = SolverConfig(
        K=32, nu=1.0, delta=0.5, order=1, dt=0.015,
        T=absorbing_time(params) + 10.0, sample_every=2, forcing=forcing_spec,
    )
    levels = []
    for target, seed in ((2.0, 700), (0.2, 701)):
        u0 = generate_ic(
            FieldSpec(kind="random_spectrum", seed=seed, target_norm=target),
            grid, filters,
        )
        traj = simulate(base, initial=initial_state(u0, model))
        rep = h1_absorbing_report(traj, params, r=1.0)
        levels.append(rep.window_max[-1])
    gap = abs(levels[0] - levels[1]) / max(levels)
    ok = gap <= 0.10
    assert criterion(
        9, "eventual H1 level independent of initial data",
        ok, f"norms differ 10x, levels agree to {gap:.2e}",
    )


def test_10_poincare(grid16, field_bank):
    lam1 = smallest_eigenvalue(grid16)
    poincare = all(
        sobolev_norm(w, 0.0) <= lam1 ** (-0.5) * sobolev_norm(w, 1.0)
        for w in field_bank
    )
    ok = lam1 == 1.0 and poincare
    assert criterion(
        10, "lambda1 = 1 and Poincare inequality exact", ok, f"lambda1 {lam1}"
    )


def test_11_formula_spot_checks():
    g_val = uniform_gronwall(1.0, 0.0, 1.0, 1.0)
    t_val = absorbing_time(
        AbsorbingParams(nu=1.0, lambda1=1.0, f_norm=1.0,
                        rho0_prime=math.sqrt(2.0), R=2.0)
    )
    h_val = hn_symbol(1.0, 1.0, 1)
    ok = (
        abs(g_val - 2.0) <= 1e-14
        and abs(t_val - math.log(4.0)) <= 1e-14
        and abs(h_val - 0.75) <= 1e-14
    )
    assert criterion(
        11, "formula spot checks to 1e-14",
        ok, f"gronwall {g_val!r}, T0 {t_val!r}, symbol {h_val!r}",
    )


def test_12_determinism_and_resume(tmp_path):
    cfg = SolverConfig(
        K=16, nu=0.5, delta=0.5, order=2, dt=0.01, T=0.2, sample_every=2,
        ic=FieldSpec(kind="random_spectrum", seed=31, target_norm=1.0),
        forcing=FieldSpec(kind="random_spectrum", seed=32, target_norm=0.3),
    )
    a = simulate(cfg)
    b = simulate(cfg)
    rerun_ok = all(
        np.array_equal(col_a, col_b)
        for col_a, col_b in zip(a.columns().values(), b.columns().values())
    )

    grid = make_grid(16)
    filters = FilterParams(0.5, 2)
    forcing = generate_ic(cfg.forcing, grid, filters)
    params = ModelParams(nu=0.5, filters=filters, forcing=forcing)
    state = initial_state(generate_ic(cfg.ic, grid, filters), params)
    for _ in range(10):
        state = step(state, cfg.dt)
    path = tmp_path / "mid.snap"
    write_snapshot(state, params, path)
    resumed = read_snapshot(path, grid=grid, params=params)
    direct = state
    for _ in range(10):
        direct = step(direct, cfg.dt)
        resumed = step(resumed, cfg.dt)
    resume_ok = np.array_equal(direct.w.coeff, resumed.w.coeff) and direct.t == resumed.t

    ok = rerun_ok and resume_ok
    assert criterion(
        12, "bit-identical reruns and snapshot resume",
        ok, f"rerun {rerun_ok}, resume {resume_ok}",
    )
