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

import numpy as np

from .config import SolverConfig, generate_ic
from .deconv import FilterParams, hn_symbol
from .spectral import (
    SpectralVectorField,
    WaveGrid,
    _convective,
    _divergence_error,
    _gather,
    _leray,
    _read_only,
    _require_same_grid,
    _retained_norms,
    _scatter,
    _workers,
    make_grid,
    smallest_eigenvalue,
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
    """Viscosity, filter parameters and steady forcing on one grid.

    `forcing` is a steady divergence-free, zero-mean field with no content on
    masked modes (None means zero). The model's grid is the forcing's, or
    `grid` when unforced; given both, they must agree. The model keeps the
    H_N symbol over the retained modes as a read-only complex (M,) array
    (`hn_r`); the forcing is read once, into H_N f as a read-only retained
    (3, M) array (`hn_forcing_r`) and its norm ||f|| (`f_norm`).
    """

    nu: float
    filters: FilterParams
    forcing: InitVar[SpectralVectorField | None] = None
    grid: WaveGrid | None = field(default=None, repr=False)
    hn_r: np.ndarray = field(init=False, default=None, repr=False)
    hn_forcing_r: np.ndarray | None = field(init=False, default=None, repr=False)
    f_norm: float = field(init=False, default=0.0)

    def __post_init__(self, forcing: SpectralVectorField | None) -> None:
        nu = float(self.nu)
        if not 0.0 < nu < math.inf:
            raise ValueError(f"viscosity must be positive and finite, got {nu}")
        object.__setattr__(self, "nu", nu)
        grid = self.grid if forcing is None else forcing.grid
        if grid is None:
            raise ValueError("an unforced model needs a grid: pass grid=make_grid(K)")
        if self.grid is not None:
            _require_same_grid(grid, self.grid, "the forcing and the grid argument")
        hn_r = hn_symbol(grid.ret_ksq, self.filters.delta, self.filters.order)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "hn_r", _read_only(hn_r.astype(np.complex128))[0])
        if forcing is None:
            return
        f_r = _solenoidal(forcing, "forcing")
        object.__setattr__(self, "f_norm", _retained_norms(f_r, grid, 0.0)[0])
        f_r *= self.hn_r
        object.__setattr__(self, "hn_forcing_r", _read_only(f_r)[0])


# The InitVar's default would stay behind as a class attribute that reads
# None on every model, and dataclasses.replace would pass that None on as
# the forcing; remove it so that a model has no `forcing` at all.
del ModelParams.forcing


def _solenoidal(u: SpectralVectorField, what: str, model=None) -> np.ndarray:
    """The retained (3, M) coefficients of a field that fits (`_require_fits`), is zero-mean and
    is divergence-free: a defect relative to H_1 above DIVERGENCE_TOL is rejected."""
    _require_fits(u, what, model)
    grid = u.grid
    c = _gather(u.coeff, grid)
    err = _divergence_error(c, grid.ret_k, _retained_norms(c, grid, 1.0)[0])
    if err > DIVERGENCE_TOL:
        raise ValueError(f"{what} is not divergence-free (relative defect {err:.3e}); "
                         "project it with leray_project")
    if c[:, 0].any():
        raise ValueError(f"{what} must have zero mean")
    return c


def _first_mode(flags: np.ndarray, grid: WaveGrid) -> list:
    """The signed wavevector (k1, k2, k3) of the first True entry of flags, if any."""
    first = np.argwhere(flags)[:1] if flags.any() else ()  # argwhere is the slower pass
    return [(int(grid.kx[i1, 0, 0]), int(grid.ky[0, i2, 0]), int(k3)) for i1, i2, k3 in first]


def _require_fits(w: SpectralVectorField, what: str, model: ModelParams | None = None):
    """Reject a field with a non-finite coefficient or with content (-0.0 is none) on a mode
    the dealias mask drops, naming the first such mode, or off the model's grid."""
    for mode in _first_mode(~np.isfinite(w.coeff).all(axis=0), w.grid):
        raise ValueError(f"{what} has a non-finite coefficient at mode {mode}")
    if model is not None:
        source = "model" if model.hn_forcing_r is None else "forcing"
        _require_same_grid(w.grid, model.grid, f"the field and the {source}")
    for mode in _first_mode(w.coeff.any(axis=0) & ~w.grid.mask, w.grid):
        raise ValueError(f"{what} has content on mode {mode}, which the dealias cut "
                         f"|k_i| <= {w.grid.cut} drops")


def _model_fields(model: ModelParams) -> dict:
    f = model.filters
    return dict(nu=model.nu, delta=f.delta, N=f.order, forced=model.hn_forcing_r is not None)


def _require_same_model(what: str, have: dict, want: dict, have_at: str, want_at: str) -> None:
    """Raise `what: ...` naming each field of `have` whose value in `want` differs."""
    differing = [
        f"{k} = {v!r} {have_at}, {want[k]!r} {want_at}" for k, v in have.items() if v != want[k]
    ]
    if differing:
        raise ValueError(f"{what}: " + "; ".join(differing))


def build_model(config: SolverConfig) -> ModelParams:
    """The model (grid, viscosity, filters, steady forcing) of a config."""
    grid = make_grid(config.K)
    forcing = None if config.forcing.kind == "zero" else generate_ic(config.forcing, grid)
    return ModelParams(config.nu, FilterParams(config.delta, config.order), forcing, grid)


@dataclass
class SolverState:
    """Time, the evolved field w, and the model w evolves under.

    A state that `step`, `initial_state` or `read_snapshot` made holds only w's retained
    coefficients (3, M), and keeps them: each read of w builds a new field, +0.0 on the masked
    modes, whose changes leave the state as it was. A given w is the next step's start.
    """

    t: float
    w: SpectralVectorField
    model: ModelParams

    def __getattr__(self, name: str):
        if name != "w" or "_ret" not in vars(self):
            raise AttributeError(f"'SolverState' object has no attribute {name!r}")
        return SpectralVectorField(self.model.grid, _scatter(self._ret, self.model.grid))

    @property
    def hn_w(self) -> SpectralVectorField:
        """The truncation H_N(w), computed from w on each access."""
        return self.model.filters.apply(self.w)


def _retained_state(t: float, w_r: np.ndarray, model: ModelParams) -> SolverState:
    """The state at t under model whose w has retained coefficients w_r, unbuilt."""
    state = object.__new__(SolverState)
    state.t, state.model, state._ret = t, model, w_r
    return state


def _retained(state: SolverState) -> np.ndarray:
    """w's retained (3, M) coefficients: stored, or gathered from a given w that fits the model."""
    if "w" not in vars(state):
        return state._ret
    _require_fits(state.w, "the state's field", state.model)
    return _gather(state.w.coeff, state.w.grid)


def make_state(t: float, w: SpectralVectorField, params: ModelParams) -> SolverState:
    """The state (t, w) under `params`. w must be finite, hold no content on a mode the
    dealias mask drops and lie on the model's grid."""
    _require_fits(w, "the state's field", params)
    return SolverState(t=float(t), w=w, model=params)


def initial_state(u0: SpectralVectorField, params: ModelParams) -> SolverState:
    """Apply the initial truncation w(0) = H_N(u0) and start the clock. u0 must be
    divergence-free to DIVERGENCE_TOL relative; leray_project makes it so."""
    u_r = _solenoidal(u0, "initial condition", params)
    return _retained_state(0.0, u_r * params.hn_r, params)


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
    half-step predictor and a midpoint corrector. The step runs on the
    retained modes only and returns a state that holds them. Raises
    `BlowUpError` if any coefficient becomes non-finite.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    params = state.model
    grid, hn_r, hn_f, w_r = params.grid, params.hn_r, params.hn_forcing_r, _retained(state)
    decay_r = np.exp(-params.nu * grid.ret_ksq * (0.5 * dt)).astype(np.complex128)
    # In place, in the operand order of
    #   mid = decay_half * (w + (dt/2) k1)
    #   new = decay_half * (decay_half * w) + dt * (decay_half * k2),
    # so the bytes equal those expressions: decay_half * decay_half applied
    # as one factor rounds differently. Each factor is real-valued, and such
    # a complex product commutes to the last bit. H_N w's buffer takes H_N mid, then new.
    with np.errstate(over="ignore", invalid="ignore"):
        mid = _explicit(hn := np.multiply(w_r, hn_r), w_r, hn_f, grid)
        np.multiply(0.5 * dt, mid, out=mid)
        np.add(w_r, mid, out=mid)
        np.multiply(decay_r, mid, out=mid)
        k2 = _explicit(np.multiply(mid, hn_r, out=hn), mid, hn_f, grid)
        new_r = np.multiply(decay_r, w_r, out=hn)
        np.multiply(decay_r, new_r, out=new_r)
        np.multiply(decay_r, k2, out=k2)
        np.multiply(dt, k2, out=k2)
        np.add(new_r, k2, out=new_r)
    if not np.isfinite(new_r).all():
        raise BlowUpError(state.t)
    return _retained_state(state.t + dt, new_r, params)


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
        self.rho0_sq, self.nu_lam1 = rho0_sq, nu_lam1
        self.t0 = self.h0_sq0 = None  # the first record's t and ||w||^2
        self.diss = self.work = 0.0

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


def _squared_norms(w_r: np.ndarray, grid: WaveGrid, sampled: bool) -> tuple:
    """(||w||_1^2, ||w||^2, ||A w||^2) from w's retained coefficients w_r, each
    sobolev_norm(w, s) ** 2 to the bit; the last two are None unless `sampled`."""
    if not sampled:
        return _retained_norms(w_r, grid, 1.0)[0] ** 2, None, None
    return tuple(n**2 for n in _retained_norms(w_r, grid, 1.0, 0.0, 2.0))


def _work_rate(state: SolverState) -> float:
    """The forcing integrand (H_N f, w) of the energy balance. H_N f and w are zero
    off the retained modes, so only those are paired, into the zero array
    inner_product would sum: the bytes equal inner_product(H_N f, w)."""
    hn_f = state.model.hn_forcing_r
    if hn_f is None:
        return 0.0
    grid, w_r = state.model.grid, _retained(state)
    pair = np.real(hn_f * np.conj(w_r)).sum(axis=0)
    pair *= grid.ret_mult
    return float(_scatter(pair, grid).sum())


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
    params = build_model(config)
    if config.ic.kind == "snapshot":
        from .storage import read_snapshot

        return read_snapshot(config.ic.path, params=params)
    u0 = generate_ic(config.ic, params.grid)
    return initial_state(u0, params)


def _require_model(config: SolverConfig, model: ModelParams) -> None:
    """Reject a model that is not the one `config` describes."""
    _require_same_model(
        "initial state was made under a different model",
        dict(K=model.grid.K, **_model_fields(model)),
        dict(K=config.K, nu=config.nu, delta=config.delta, N=config.order,
             forced=config.forcing.kind != "zero"),
        "in the state",
        "configured",
    )


def _velocity_bound(u: np.ndarray, mult: np.ndarray) -> float:
    """B = max_i sum_k mult |u_i(k)| >= max_x |u_i(x)| for stored modes' coefficients u (3, n),
    a run's retained ones, with their multiplicities `mult`: irfftn adds each stored mode once
    or as a conjugate pair and ignores the imaginary parts of the k3 = 0 and Nyquist bins."""
    return float(np.max(np.abs(u) @ mult))


def simulate_with_state(
    config, initial: SolverState | None = None
) -> tuple[Trajectory, SolverState]:
    """Like `simulate` but also returns the final solver state."""
    state = _start_state(config) if initial is None else initial
    params = state.model
    grid, w_r = params.grid, _retained(state)
    _require_model(config, params)

    lam1 = smallest_eigenvalue(grid)
    rho0_sq = (params.f_norm / (params.nu * lam1)) ** 2

    dt = config.dt
    n_steps = max(0, math.ceil(config.T / dt - 1e-12))

    if dt * _velocity_bound(w_r * params.hn_r, grid.ret_mult) * grid.K > 1.0 - 1e-9:
        cfl = dt * float(np.abs(state.hn_w.to_physical()).max()) * grid.K
        if cfl > 1.0:
            msg = f"advisory CFL number {cfl:.2f} exceeds 1; the run may be inaccurate"
            warnings.warn(msg, RuntimeWarning, stacklevel=2)

    # The run keeps only retained coefficients: no step builds a full-layout w.
    state = _retained_state(state.t, w_r, params)
    builder = _TrajectoryBuilder(rho0_sq, params.nu * lam1)
    norms = _squared_norms(w_r, grid, sampled=True)
    h1_prev, work_prev = norms[0], _work_rate(state)
    builder.record(state, norms)
    try:
        with _workers(grid):
            for i in range(1, n_steps + 1):
                state = step(state, dt)
                sampled = i % config.sample_every == 0 or i == n_steps
                with np.errstate(over="ignore", invalid="ignore"):
                    norms = _squared_norms(_retained(state), grid, sampled)
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
