"""Time integration of the deconvolution-regularized flow model.

The evolved system, written per Fourier mode for the divergence-free,
zero-mean unknown w, is

    d/dt what = -P_L[(H_N w . grad) w]hat - nu |k|^2 what + (H_N f)hat,
    w(0) = H_N(u0),

where H_N is the truncation operator from `deconv`. The stepper is an
integrating-factor midpoint rule: the viscous factor exp(-nu |k|^2 dt) is
applied exactly and the projected nonlinear + forcing terms are advanced
with an explicit two-stage midpoint (global order 2). A pure viscous decay
is therefore reproduced exactly, and the discrete energy balance converges
at second order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .config import SolverConfig, generate_ic
from .deconv import FilterParams
from .spectral import (
    SpectralVectorField,
    WaveGrid,
    divergence_error,
    inner_product,
    leray_project,
    make_grid,
    nonlinear_term,
    smallest_eigenvalue,
    sobolev_norm,
    stokes_apply,
)

DIVERGENCE_TOL = 1e-10


class BlowUpError(RuntimeError):
    """Raised when a step produces non-finite coefficients.

    Carries the last valid time and, when raised from `simulate`, the
    partial trajectory accumulated so far.
    """

    def __init__(self, t_last: float, trajectory: "Trajectory | None" = None):
        super().__init__(f"solution blew up after t = {t_last}")
        self.t_last = t_last
        self.trajectory = trajectory


@dataclass
class ModelParams:
    """Viscosity, filter parameters and steady forcing for the model.

    `forcing` is a steady divergence-free, zero-mean field (None means
    zero); its truncation H_N f is cached in `hn_forcing`.
    """

    nu: float
    filters: FilterParams
    forcing: SpectralVectorField | None = None
    hn_forcing: SpectralVectorField | None = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        self.nu = float(self.nu)
        if not self.nu > 0.0:
            raise ValueError(f"viscosity must be positive, got {self.nu}")
        if self.forcing is not None:
            err = divergence_error(self.forcing)
            if err > DIVERGENCE_TOL:
                raise ValueError(
                    f"forcing is not divergence-free (relative defect {err:.3e})"
                )
            if self.forcing.coeff[:, 0, 0, 0].any():
                raise ValueError("forcing must have zero mean")
            self.hn_forcing = self.filters.apply(self.forcing)


def build_model(config: SolverConfig) -> tuple[WaveGrid, ModelParams]:
    """The grid and the model (viscosity, filters, steady forcing) of a config."""
    grid = make_grid(config.K, config.dealias)
    filters = FilterParams(config.delta, config.order)
    forcing = None
    if config.forcing.kind != "zero":
        forcing = generate_ic(config.forcing, grid, filters)
    return grid, ModelParams(nu=config.nu, filters=filters, forcing=forcing)


@dataclass
class SolverState:
    """Time, the evolved field w, and the cached truncation H_N(w)."""

    t: float
    w: SpectralVectorField
    hn_w: SpectralVectorField


def make_state(t: float, w: SpectralVectorField, params: ModelParams) -> SolverState:
    return SolverState(t=float(t), w=w, hn_w=params.filters.apply(w))


def initial_state(
    u0: SpectralVectorField, params: ModelParams, auto_project: bool = False
) -> SolverState:
    """Apply the initial truncation w(0) = H_N(u0) and start the clock.

    Inputs failing divergence-freeness by more than 1e-10 (relative) are
    rejected unless `auto_project` is set, in which case they are
    Leray-projected first.
    """
    err = divergence_error(u0)
    if err > DIVERGENCE_TOL:
        if not auto_project:
            raise ValueError(
                f"initial condition is not divergence-free (relative defect "
                f"{err:.3e}); pass auto_project=True to project it"
            )
        u0 = leray_project(u0)
    if u0.coeff[:, 0, 0, 0].any():
        raise ValueError("initial condition must have zero mean")
    return make_state(0.0, params.filters.apply(u0), params)


def _explicit_part(state: SolverState, params: ModelParams) -> np.ndarray:
    """Projected nonlinear term plus truncated forcing (everything but viscosity)."""
    out = -nonlinear_term(state.hn_w, state.w).coeff
    if params.hn_forcing is not None:
        out = out + params.hn_forcing.coeff
    return out


def rhs(state: SolverState, params: ModelParams) -> SpectralVectorField:
    """Full model right-hand side -P_L[(H_N w . grad) w] - nu A w + H_N f."""
    expl = _explicit_part(state, params)
    visc = params.nu * stokes_apply(state.w).coeff
    return SpectralVectorField(state.w.grid, expl - visc)


def step(state: SolverState, params: ModelParams, dt: float) -> SolverState:
    """Advance one step with the integrating-factor midpoint scheme.

    The viscous factor is exact; the explicit part is advanced with a
    half-step predictor and a midpoint corrector. Raises `BlowUpError` if
    any coefficient becomes non-finite.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    grid = state.w.grid
    decay_half = np.exp(-params.nu * grid.ksq * (0.5 * dt))
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = _explicit_part(state, params)
        mid_coeff = decay_half * (state.w.coeff + (0.5 * dt) * k1)
        mid = make_state(
            state.t + 0.5 * dt, SpectralVectorField(grid, mid_coeff), params
        )
        k2 = _explicit_part(mid, params)
        new_coeff = decay_half * (decay_half * state.w.coeff) + dt * (decay_half * k2)
    if not np.isfinite(new_coeff).all():
        raise BlowUpError(state.t)
    return make_state(state.t + dt, SpectralVectorField(grid, new_coeff), params)


@dataclass(eq=False)
class Trajectory:
    """Sampled time series of norms and cumulative energy-balance integrals.

    Columns (all numpy arrays of equal length):
      t                     sample times, strictly increasing
      h0_sq, h1_sq, aw_sq   ||w||^2, ||w||_1^2, ||A w||^2
      dissipation_integral  2 nu int_0^t ||w||_1^2 dt' (trapezoid, per step)
      work_integral         int_0^t (H_N f, w) dt'     (trapezoid, per step)
      energy_residual       defect of the energy balance at the sample,
                            1/2 ||w||^2 + nu int ||w||_1^2 - 1/2 ||w(t_0)||^2
                            - int (H_N f, w)
      absorb_bound          Gronwall decay envelope for ||w||^2
    """

    t: np.ndarray
    h0_sq: np.ndarray
    h1_sq: np.ndarray
    aw_sq: np.ndarray
    dissipation_integral: np.ndarray
    work_integral: np.ndarray
    energy_residual: np.ndarray
    absorb_bound: np.ndarray

    def __post_init__(self) -> None:
        cols = self.columns()
        n = len(self.t)
        for name, arr in cols.items():
            arr = np.asarray(arr, dtype=np.float64)
            if arr.shape != (n,):
                raise ValueError(f"column {name} has length {len(arr)}, expected {n}")
            setattr(self, name, arr)
        if n > 1 and not np.all(np.diff(self.t) > 0.0):
            raise ValueError("sample times must be strictly increasing")
        for name in ("h0_sq", "h1_sq", "aw_sq"):
            if np.any(getattr(self, name) < 0.0):
                raise ValueError(f"column {name} must be nonnegative")

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "t": self.t,
            "h0_sq": self.h0_sq,
            "h1_sq": self.h1_sq,
            "aw_sq": self.aw_sq,
            "dissipation_integral": self.dissipation_integral,
            "work_integral": self.work_integral,
            "energy_residual": self.energy_residual,
            "absorb_bound": self.absorb_bound,
        }

    def __len__(self) -> int:
        return len(self.t)


class _TrajectoryBuilder:
    def __init__(self, rho0_sq: float, nu_lam1: float):
        self.rows: list[tuple] = []
        self.rho0_sq = rho0_sq
        self.nu_lam1 = nu_lam1
        self.t0: float | None = None
        self.h0_sq0: float | None = None
        self.diss = 0.0
        self.work = 0.0

    def record(self, state: SolverState, h1_sq: float) -> None:
        h0_sq = sobolev_norm(state.w, 0.0) ** 2
        aw_sq = sobolev_norm(state.w, 2.0) ** 2
        if self.t0 is None:
            self.t0 = state.t
            self.h0_sq0 = h0_sq
        residual = 0.5 * h0_sq + 0.5 * self.diss - 0.5 * self.h0_sq0 - self.work
        decay = math.exp(-self.nu_lam1 * (state.t - self.t0))
        bound = self.h0_sq0 * decay + self.rho0_sq * (1.0 - decay)
        self.rows.append(
            (state.t, h0_sq, h1_sq, aw_sq, self.diss, self.work, residual, bound)
        )

    def accumulate(self, dt, h1_prev, work_prev, h1_new, work_new, nu) -> None:
        self.diss += 0.5 * dt * (2.0 * nu) * (h1_prev + h1_new)
        self.work += 0.5 * dt * (work_prev + work_new)

    def build(self) -> Trajectory:
        cols = np.array(self.rows, dtype=np.float64).reshape(-1, 8)
        return Trajectory(*(cols[:, j] for j in range(8)))


def _norm_rates(state: SolverState, params: ModelParams) -> tuple[float, float]:
    """The integrands ||w||_1^2 and (H_N f, w) of the energy balance."""
    h1_sq = sobolev_norm(state.w, 1.0) ** 2
    hn_f = params.hn_forcing
    work = inner_product(hn_f, state.w) if hn_f is not None else 0.0
    return h1_sq, work


def simulate(config, initial: SolverState | None = None) -> Trajectory:
    """Run the model to the configured horizon and sample a Trajectory.

    `config` is a `deconvbox.config.SolverConfig`. The dissipation and
    work integrals are accumulated with the trapezoid rule at every step
    regardless of the output cadence. A snapshot initial condition resumes
    at the stored time without re-applying the initial truncation; an
    explicit `initial` state overrides the configured one.
    """
    traj, _ = simulate_with_state(config, initial)
    return traj


def simulate_with_state(
    config, initial: SolverState | None = None
) -> tuple[Trajectory, SolverState]:
    """Like `simulate` but also returns the final solver state."""
    grid, params = build_model(config)

    if initial is not None:
        state = initial
    elif config.ic.kind == "snapshot":
        from .storage import read_snapshot

        state = read_snapshot(config.ic.path, grid=grid, params=params)
    else:
        u0 = generate_ic(config.ic, grid, params.filters)
        state = initial_state(u0, params, auto_project=config.auto_project_ic)

    lam1 = smallest_eigenvalue(grid)
    f_norm = sobolev_norm(params.forcing, 0.0) if params.forcing is not None else 0.0
    rho0_sq = (f_norm / (params.nu * lam1)) ** 2

    dt = config.dt
    n_steps = max(0, math.ceil(config.T / dt - 1e-12))

    umax = float(np.abs(state.hn_w.to_physical()).max())
    cfl = dt * umax * grid.K
    if cfl > 1.0:
        warnings.warn(
            f"advisory CFL number {cfl:.2f} exceeds 1; the run may be inaccurate",
            RuntimeWarning,
            stacklevel=2,
        )

    builder = _TrajectoryBuilder(rho0_sq, params.nu * lam1)
    h1_prev, work_prev = _norm_rates(state, params)
    builder.record(state, h1_prev)
    try:
        for i in range(1, n_steps + 1):
            state = step(state, params, dt)
            with np.errstate(over="ignore", invalid="ignore"):
                h1_new, work_new = _norm_rates(state, params)
            if not (math.isfinite(h1_new) and math.isfinite(work_new)):
                raise BlowUpError(state.t - dt)
            builder.accumulate(dt, h1_prev, work_prev, h1_new, work_new, params.nu)
            h1_prev, work_prev = h1_new, work_new
            if i % config.sample_every == 0 or i == n_steps:
                builder.record(state, h1_new)
    except BlowUpError as err:
        err.trajectory = builder.build()
        raise
    return builder.build(), state


@dataclass(frozen=True)
class RefinementStudy:
    """Energy-residual magnitudes under dt refinement and observed orders."""

    dts: tuple
    residuals: tuple
    orders: tuple

    @property
    def mean_order(self) -> float:
        return float(np.mean(self.orders))


def energy_refinement_study(config, levels: int = 3, factor: int = 2) -> RefinementStudy:
    """Halve dt `levels` times and report |energy_residual(T)| at each level."""
    from dataclasses import replace

    if levels < 2:
        raise ValueError("need at least two refinement levels")
    dts, residuals = [], []
    for j in range(levels):
        dt_j = config.dt / factor**j
        traj = simulate(replace(config, dt=dt_j))
        if len(traj) < 2:
            raise ValueError(f"horizon T = {config.T} takes no step of dt = {dt_j}")
        residual = abs(float(traj.energy_residual[-1]))
        if residual == 0.0:
            raise ValueError(
                f"energy residual at T is exactly 0 at dt = {dt_j}, "
                "so the observed order is undefined"
            )
        dts.append(dt_j)
        residuals.append(residual)
    orders = tuple(
        float(np.log(residuals[j] / residuals[j + 1]) / np.log(factor))
        for j in range(levels - 1)
    )
    return RefinementStudy(dts=tuple(dts), residuals=tuple(residuals), orders=orders)


__all__ = [
    "DIVERGENCE_TOL",
    "BlowUpError",
    "ModelParams",
    "SolverState",
    "Trajectory",
    "RefinementStudy",
    "build_model",
    "make_state",
    "initial_state",
    "rhs",
    "step",
    "simulate",
    "simulate_with_state",
    "energy_refinement_study",
]
