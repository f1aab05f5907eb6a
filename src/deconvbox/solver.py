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

import dataclasses
import math
import warnings
from dataclasses import InitVar, dataclass, field
from functools import lru_cache

import numpy as np

from .config import SolverConfig, generate_ic
from .deconv import FilterParams, _hn_table
from .spectral import (
    SpectralVectorField,
    WaveGrid,
    _convective,
    _gather,
    _leray,
    _mode_energy,
    _norm_from_energy,
    _read_only,
    _require_same_grid,
    _scatter,
    divergence_error,
    inner_product,
    leray_project,
    make_grid,
    smallest_eigenvalue,
    sobolev_norm,
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


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Viscosity, filter parameters and steady forcing for the model.

    `forcing` is a steady divergence-free, zero-mean field with no content on
    masked modes (None means zero). It is read once: the model keeps its
    truncation H_N f in the full layout (`hn_forcing`) and as a read-only
    retained (3, M) gather (`hn_forcing_r`), and its norm ||f|| (`f_norm`).
    """

    nu: float
    filters: FilterParams
    forcing: InitVar[SpectralVectorField | None] = None
    hn_forcing: SpectralVectorField | None = field(init=False, default=None, repr=False)
    hn_forcing_r: np.ndarray | None = field(init=False, default=None, repr=False)
    f_norm: float = field(init=False, default=0.0)

    def __post_init__(self, forcing: SpectralVectorField | None) -> None:
        nu = float(self.nu)
        if not nu > 0.0:
            raise ValueError(f"viscosity must be positive, got {nu}")
        object.__setattr__(self, "nu", nu)
        if forcing is None:
            return
        err = divergence_error(forcing)
        if err > DIVERGENCE_TOL:
            raise ValueError(f"forcing is not divergence-free (relative defect {err:.3e})")
        if forcing.coeff[:, 0, 0, 0].any():
            raise ValueError("forcing must have zero mean")
        grid = forcing.grid
        for i1, i2, k3 in np.argwhere(forcing.coeff.any(axis=0) & ~grid.mask)[:1]:
            raise ValueError(
                f"forcing has content on mode ({grid.kx[i1, 0, 0]}, {grid.ky[0, i2, 0]}, "
                f"{k3}), which the dealias cut |k_i| <= {grid.cut} drops"
            )
        hn_forcing = self.filters.apply(forcing)
        object.__setattr__(self, "hn_forcing", hn_forcing)
        object.__setattr__(self, "hn_forcing_r", _read_only(_gather(hn_forcing.coeff, grid))[0])
        object.__setattr__(self, "f_norm", sobolev_norm(forcing, 0.0))


# The InitVar's default would stay behind as a class attribute that reads
# None on every model, and dataclasses.replace would pass that None on as
# the forcing; remove it so that a model has no `forcing` at all.
del ModelParams.forcing


def _model_fields(model: ModelParams) -> dict:
    f = model.filters
    return dict(nu=model.nu, delta=f.delta, N=f.order, forced=model.hn_forcing is not None)


def _require_same_model(what: str, have: dict, want: dict, have_at: str, want_at: str) -> None:
    """Raise `what: ...` naming each field of `have` whose value in `want` differs."""
    differing = [
        f"{k} = {v!r} {have_at}, {want[k]!r} {want_at}" for k, v in have.items() if v != want[k]
    ]
    if differing:
        raise ValueError(f"{what}: " + "; ".join(differing))


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
    """Time, the evolved field w, and the model w evolves under."""

    t: float
    w: SpectralVectorField
    model: ModelParams

    @property
    def hn_w(self) -> SpectralVectorField:
        """The truncation H_N(w), computed from w on each access."""
        return self.model.filters.apply(self.w)


def make_state(t: float, w: SpectralVectorField, params: ModelParams) -> SolverState:
    """The state (t, w) under `params`; w must lie on the grid of a forced model."""
    if params.hn_forcing is not None:
        _require_same_grid(w.grid, params.hn_forcing.grid, "the field and the forcing")
    return SolverState(t=float(t), w=w, model=params)


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


def _explicit(hn_w: np.ndarray, w: np.ndarray, hn_f, grid: WaveGrid) -> np.ndarray:
    """-P_L[(H_N w . grad) w] + H_N f on retained (3, M) arrays, in a new array."""
    out = _leray(_convective(hn_w, w, grid), grid.ret_k, grid.ret_ksq_safe)
    np.negative(out, out=out)
    if hn_f is not None:
        np.add(out, hn_f, out=out)
    return out


def step(state: SolverState, dt: float) -> SolverState:
    """Advance one step under the state's model with the integrating-factor
    midpoint scheme.

    The viscous factor is exact; the explicit part is advanced with a
    half-step predictor and a midpoint corrector. Both stages run on the
    retained modes; a mode the dealias mask drops only decays. Raises
    `BlowUpError` if any coefficient becomes non-finite.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    grid, params = state.w.grid, state.model
    w = state.w.coeff
    decay_half, decay_r = _half_decay(grid, params.nu, dt)
    hn_r = _hn_table(grid, params.filters.delta, params.filters.order)[1]
    hn_f = params.hn_forcing_r
    w_r = _gather(w, grid)
    # In place, in the operand order of
    #   mid = decay_half * (w + (dt/2) k1)
    #   new = decay_half * (decay_half * w) + dt * (decay_half * k2),
    # so the bytes equal those expressions: two complex factors do not
    # commute to the last bit in numpy's fused complex multiply, and
    # decay_half * decay_half applied as one factor rounds differently.
    with np.errstate(over="ignore", invalid="ignore"):
        mid = _explicit(np.multiply(w_r, hn_r), w_r, hn_f, grid)
        np.multiply(0.5 * dt, mid, out=mid)
        np.add(w_r, mid, out=mid)
        np.multiply(decay_r, mid, out=mid)
        k2 = _explicit(np.multiply(mid, hn_r), mid, hn_f, grid)
        new_coeff = np.multiply(decay_half, w)
        np.multiply(decay_half, new_coeff, out=new_coeff)
        new_r = _gather(new_coeff, grid)
        np.multiply(decay_r, k2, out=k2)
        np.multiply(dt, k2, out=k2)
        np.add(new_r, k2, out=new_r)
        _scatter(new_r, new_coeff, grid)
    if not np.isfinite(new_coeff).all():
        raise BlowUpError(state.t)
    return make_state(state.t + dt, SpectralVectorField(grid, new_coeff), params)


@lru_cache(maxsize=16)
def _half_decay(grid: WaveGrid, nu: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """exp(-nu |k|^2 dt / 2) as read-only complex tables, full and retained."""
    table = np.exp(-nu * grid.ksq * (0.5 * dt)).astype(np.complex128)
    return _read_only(table, table.reshape(-1)[grid.ret_flat])


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
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

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

    def record(self, state: SolverState, norms: tuple[float, float, float]) -> None:
        h1_sq, h0_sq, aw_sq = norms
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


def _squared_norms(w: SpectralVectorField, sampled: bool) -> tuple:
    """(||w||_1^2, ||w||^2, ||A w||^2) from one mode-energy pass.

    The last two are None unless `sampled`. Each equals
    sobolev_norm(w, s) ** 2 to the bit.
    """
    amp2 = _mode_energy(w)
    h1_sq = _norm_from_energy(amp2, w.grid, 1.0) ** 2
    if not sampled:
        return h1_sq, None, None
    aw_sq = _norm_from_energy(amp2, w.grid, 2.0) ** 2
    return h1_sq, _norm_from_energy(amp2, w.grid, 0.0) ** 2, aw_sq


def _work_rate(state: SolverState) -> float:
    """The forcing integrand (H_N f, w) of the energy balance."""
    hn_f = state.model.hn_forcing
    return inner_product(hn_f, state.w) if hn_f is not None else 0.0


def simulate(config, initial: SolverState | None = None) -> Trajectory:
    """Run the model to the configured horizon and sample a Trajectory.

    `config` is a `deconvbox.config.SolverConfig`. The dissipation and
    work integrals are accumulated with the trapezoid rule at every step
    regardless of the output cadence. A snapshot initial condition resumes
    at the stored time without re-applying the initial truncation; an
    explicit `initial` state overrides the configured one, and the run uses
    its grid and model, which must be the ones `config` describes.
    """
    traj, _ = simulate_with_state(config, initial)
    return traj


def _start_state(config: SolverConfig) -> SolverState:
    """The configured initial state, under build_model(config)."""
    grid, params = build_model(config)
    if config.ic.kind == "snapshot":
        from .storage import read_snapshot

        return read_snapshot(config.ic.path, grid=grid, params=params)
    u0 = generate_ic(config.ic, grid, params.filters)
    return initial_state(u0, params, auto_project=config.auto_project_ic)


def _require_model(config: SolverConfig, state: SolverState) -> SolverState:
    """`state`, if its grid and model are the ones `config` describes."""
    grid = state.w.grid
    _require_same_model(
        "initial state was made under a different model",
        dict(K=grid.K, dealias=grid.dealias_rule, **_model_fields(state.model)),
        dict(K=config.K, dealias=config.dealias, nu=config.nu, delta=config.delta,
             N=config.order, forced=config.forcing.kind != "zero"),
        "in the state",
        "configured",
    )
    return state


def simulate_with_state(
    config, initial: SolverState | None = None
) -> tuple[Trajectory, SolverState]:
    """Like `simulate` but also returns the final solver state."""
    state = _start_state(config) if initial is None else _require_model(config, initial)
    grid, params = state.w.grid, state.model

    lam1 = smallest_eigenvalue(grid)
    rho0_sq = (params.f_norm / (params.nu * lam1)) ** 2

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
    norms = _squared_norms(state.w, sampled=True)
    h1_prev, work_prev = norms[0], _work_rate(state)
    builder.record(state, norms)
    try:
        for i in range(1, n_steps + 1):
            state = step(state, dt)
            sampled = i % config.sample_every == 0 or i == n_steps
            with np.errstate(over="ignore", invalid="ignore"):
                norms = _squared_norms(state.w, sampled)
                h1_new, work_new = norms[0], _work_rate(state)
            if not (math.isfinite(h1_new) and math.isfinite(work_new)):
                raise BlowUpError(state.t - dt)
            builder.accumulate(dt, h1_prev, work_prev, h1_new, work_new, params.nu)
            h1_prev, work_prev = h1_new, work_new
            if sampled:
                builder.record(state, norms)
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


def energy_refinement_study(config, levels: int = 3) -> RefinementStudy:
    """Run at dt / 2**j for j < levels; report |energy_residual(T)| at each."""
    if levels < 2:
        raise ValueError("need at least two refinement levels")
    start = _start_state(config)
    dts, residuals = [], []
    for j in range(levels):
        dt_j = config.dt / 2**j
        traj = simulate(dataclasses.replace(config, dt=dt_j), initial=start)
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
        float(np.log(residuals[j] / residuals[j + 1]) / np.log(2))
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
    "step",
    "simulate",
    "simulate_with_state",
    "energy_refinement_study",
]
