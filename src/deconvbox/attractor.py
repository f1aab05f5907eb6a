"""Absorbing-ball and dissipativity diagnostics for the model trajectories.

The solver's energy balance implies, via Poincare and Young inequalities,
a family of a priori estimates for the evolved field:

* a decay envelope for the energy,
    ||w(t)||^2 <= ||w0||^2 exp(-nu lam1 t) + rho0^2 (1 - exp(-nu lam1 t)),
  with rho0 = ||f|| / (nu lam1);
* an entry time into the slack ball B(0, rho0') for data in B(0, R),
    T0 = (1 / (nu lam1)) ln(R^2 / (rho0'^2 - rho0^2));
* a windowed bound on the enstrophy integral after absorption,
    int_t^{t+r} ||w||_1^2 ds <= (r / (nu^2 lam1)) ||f||^2 + rho0'^2 / nu;
* a uniform Gronwall bound (k1 / r + k3) exp(k2) for the eventual
  H1 level, whose k2 constant is not available in closed form and is
  therefore back-solved empirically from the data.

Everything here either evaluates those formulas or probes them against
computed trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import FieldSpec, SolverConfig, _INT, _field_words
from .solver import BlowUpError, Trajectory, _initial, build_model, simulate
from .spectral import _bound_pool, _map, _retained_norms, smallest_eigenvalue

# Relative slack of a member's energy over its decay envelope before the
# envelope counts as broken.
BOUND_TOLERANCE = 0.01
# Relative growth allowed between successive H1 window maxima past absorption.
WINDOW_TOLERANCE = 0.01


def rho0(nu: float, lambda1: float, f_norm: float) -> float:
    """Asymptotic energy radius ||f|| / (nu * lambda1)."""
    if not nu > 0.0:
        raise ValueError(f"nu must be positive, got {nu}")
    if not lambda1 > 0.0:
        raise ValueError(f"lambda1 must be positive, got {lambda1}")
    if f_norm < 0.0:
        raise ValueError(f"f_norm must be nonnegative, got {f_norm}")
    return f_norm / (nu * lambda1)


@dataclass(frozen=True)
class AbsorbingParams:
    """Constants entering the absorbing-ball estimates.

    rho0_prime (slack radius > rho0) and R (initial ball radius) are only
    needed by the entry-time and window bounds and may be left unset for
    pure envelope evaluations.
    """

    nu: float
    lambda1: float
    f_norm: float
    rho0_prime: float | None = None
    R: float | None = None

    def __post_init__(self) -> None:
        rho = rho0(self.nu, self.lambda1, self.f_norm)  # validates nu, lambda1
        if self.rho0_prime is not None and not rho < self.rho0_prime < math.inf:
            raise ValueError(
                f"rho0_prime must be finite and exceed rho0 = {rho}, got {self.rho0_prime!r}"
            )
        if self.R is not None and not 0.0 < self.R < math.inf:
            raise ValueError(f"R must be finite and positive, got {self.R!r}")

    @property
    def rho0(self) -> float:
        return rho0(self.nu, self.lambda1, self.f_norm)


def absorbing_bound(t: float, w0_norm2: float, params: AbsorbingParams) -> float:
    """Energy decay envelope at time t for data with ||w0||^2 = w0_norm2."""
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    decay = math.exp(-params.nu * params.lambda1 * t)
    return w0_norm2 * decay + params.rho0**2 * (1.0 - decay)


def absorbing_time(params: AbsorbingParams) -> float:
    """Entry time T0 of B(0, R) data into the slack ball B(0, rho0').

    Returns 0 when R^2 <= rho0'^2 - rho0^2 (the data already sit inside).
    """
    if params.rho0_prime is None or params.R is None:
        raise ValueError("absorbing_time needs rho0_prime and R")
    gap = params.rho0_prime**2 - params.rho0**2
    if params.R**2 <= gap:
        return 0.0
    return math.log(params.R**2 / gap) / (params.nu * params.lambda1)


def uniform_gronwall(k1: float, k2: float, k3: float, r: float) -> float:
    """Uniform Gronwall bound (k1 / r + k3) * exp(k2)."""
    if not r > 0.0:
        raise ValueError(f"window length r must be positive, got {r}")
    for name, v in (("k1", k1), ("k2", k2), ("k3", k3)):
        if not math.isfinite(v) or v < 0.0:
            raise ValueError(f"{name} must be a finite nonnegative number, got {v}")
    return (k1 / r + k3) * math.exp(k2)


@dataclass(frozen=True)
class WindowAverage:
    integral: float
    bound: float
    satisfied: bool


def _window_integral(traj: Trajectory, values: np.ndarray, t: float, r: float) -> float:
    """Trapezoid integral of a sampled column over [t, t + r]."""
    if not r > 0.0:
        raise ValueError(f"window length r must be positive, got {r}")
    t_end = t + r
    if t < traj.t[0] - 1e-12 or t_end > traj.t[-1] + 1e-12:
        raise ValueError(
            f"window [{t}, {t_end}] not covered by trajectory "
            f"[{traj.t[0]}, {traj.t[-1]}]"
        )
    inside = (traj.t > t) & (traj.t < t_end)
    ts = np.concatenate(([t], traj.t[inside], [t_end]))
    vals = np.concatenate(
        (
            [np.interp(t, traj.t, values)],
            values[inside],
            [np.interp(t_end, traj.t, values)],
        )
    )
    return float(np.trapezoid(vals, ts))


def h1_time_average(
    traj: Trajectory, t: float, r: float, params: AbsorbingParams, tol: float = 0.0
) -> WindowAverage:
    """Windowed enstrophy integral against its a priori bound.

    Integrates ||w(s)||_1^2 over [t, t + r] by the trapezoid rule on the
    sampled trajectory and compares with
    (r / (nu^2 lam1)) ||f||^2 + rho0'^2 / nu. The bound is meaningful for
    t past the absorbing time; the caller is responsible for that.
    """
    if params.rho0_prime is None:
        raise ValueError("h1_time_average needs rho0_prime")
    integral = _window_integral(traj, traj.h1_sq, t, r)
    bound = (r / (params.nu**2 * params.lambda1)) * params.f_norm**2 + (
        params.rho0_prime**2 / params.nu
    )
    return WindowAverage(
        integral=integral, bound=bound, satisfied=integral <= bound * (1.0 + tol)
    )


@dataclass(frozen=True)
class H1Report:
    """Boundedness diagnostics for the eventual H1 level of a trajectory."""

    t_threshold: float  # T0 + r measured from the trajectory start
    window_length: float
    k1: float
    k3: float
    sup_h1_sq: float
    window_max: np.ndarray
    nonincreasing: bool
    bounded: bool
    k2_empirical: float


def h1_absorbing_report(traj: Trajectory, params: AbsorbingParams, r: float) -> H1Report:
    """Assess the eventual H1 level of a trajectory past absorption.

    Computes the Gronwall inputs k1 = r ||f||^2 / (nu^2 lam1) + rho0'^2/nu
    and k3 = (2 r / nu) ||f||^2 from the model constants, verifies that
    sup_{t >= T0 + r} ||w(t)||_1^2 is finite and that the successive
    window maxima have stabilized (nonincreasing over the trailing half of
    the windows, within `WINDOW_TOLERANCE` relative), and back-solves the empirical
    k2 that would make the Gronwall bound (k1/r + k3) exp(k2) tight.
    Equilibration toward a forced steady level counts as transient, which
    is why only the trailing windows enter the monotonicity check.
    """
    if not r > 0.0:
        raise ValueError(f"window length r must be positive, got {r}")
    t0 = absorbing_time(params)
    t_start = traj.t[0] + t0 + r
    if traj.t[-1] < t_start + r:
        raise ValueError(
            f"trajectory ends at t = {traj.t[-1]}, too short for a window past "
            f"t = {t_start}"
        )
    k1 = (r / (params.nu**2 * params.lambda1)) * params.f_norm**2 + (
        params.rho0_prime**2 / params.nu
    )
    k3 = (2.0 * r / params.nu) * params.f_norm**2

    tail = traj.t >= t_start - 1e-12
    sup_h1 = float(traj.h1_sq[tail].max())

    maxima = []
    a = t_start
    while a + r <= traj.t[-1] + 1e-12:
        sel = (traj.t >= a - 1e-12) & (traj.t <= a + r + 1e-12)
        maxima.append(float(traj.h1_sq[sel].max()))
        a += r
    window_max = np.asarray(maxima)
    tail = window_max[len(window_max) // 2 :]
    nonincreasing = bool(np.all(tail[1:] <= tail[:-1] * (1.0 + WINDOW_TOLERANCE)))

    base = k1 / r + k3
    with np.errstate(divide="ignore"):
        k2_emp = float(np.log(sup_h1 / base)) if base > 0.0 else math.inf

    return H1Report(
        t_threshold=t_start,
        window_length=r,
        k1=k1,
        k3=k3,
        sup_h1_sq=sup_h1,
        window_max=window_max,
        nonincreasing=nonincreasing,
        bounded=math.isfinite(sup_h1),
        k2_empirical=k2_emp,
    )


@dataclass(frozen=True)
class ProbeMember:
    index: int
    seed: int
    w0_norm: float
    entry_time: float | None
    stayed_inside: bool
    bound_ok: bool
    max_bound_ratio: float
    blow_up_time: float | None
    trajectory: Trajectory | None


@dataclass(frozen=True)
class ProbeReport:
    R: float
    rho0: float
    rho0_prime: float
    T0: float
    horizon: float
    epsilon: float
    members: tuple
    passed: bool


def ensemble_absorb_probe(
    R: float | None,
    rho0_prime: float | None,
    ensemble_size: int,
    template: SolverConfig,
    base_seed: int = 2024,
    keep_trajectories: bool = True,
) -> ProbeReport:
    """Run an ensemble from B(0, R) and check absorption into B(0, rho0').

    `R = None` means 4 rho0 and `rho0_prime = None` means sqrt(2) rho0, with
    rho0 = ||f|| / (nu lam1) from the template's model; under zero forcing
    rho0 = 0, so both must then be given. Members start from the template's
    initial-condition family (random spectra get per-member seeds; a
    single-mode template is reused as a fixed shape) rescaled so that
    ||H_N u0|| = R (i + 1) / ensemble_size for member i, run to 2 T0, and
    are judged on (a) entering the slack ball no later than
    T0 (1 + template.epsilon), (b) never leaving it afterwards, and
    (c) staying below the per-member decay envelope within
    `BOUND_TOLERANCE`. Members run independently, on one bound thread per
    CPU of the caller's mask up to one per member (in turn on the caller
    when that is one CPU or one member); the threads never change results.
    A blown-up member is recorded with its failure time and fails the probe.
    """
    for name, value, low in (("ensemble_size", ensemble_size, 1), ("base_seed", base_seed, 0)):
        if not _INT.holds(value) or value < low:
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    model = build_model(template)
    grid = model.grid
    params = AbsorbingParams(nu=model.nu, lambda1=smallest_eigenvalue(grid), f_norm=model.f_norm)
    if model.f_norm == 0.0 and (R is None or rho0_prime is None):
        raise ValueError(
            "R and rho0_prime default to multiples of rho0 = 0 "
            "(zero forcing requires explicit values)"
        )
    R = 4.0 * params.rho0 if R is None else R
    rho0_prime = math.sqrt(2.0) * params.rho0 if rho0_prime is None else rho0_prime
    params = replace(params, rho0_prime=rho0_prime, R=R)
    t0 = absorbing_time(params)
    horizon = max(2.0 * t0, 10.0 * template.dt)
    member_config = replace(template, T=horizon)

    def run_member(i: int) -> ProbeMember:
        seed = base_seed + i
        if template.ic.kind == "single_mode":
            spec = template.ic  # same shape for all members, rescaled below
        elif template.ic.kind == "random_spectrum":
            spec = replace(template.ic, seed=seed, target_norm=1.0)
        else:
            spec = FieldSpec(kind="random_spectrum", seed=seed, target_norm=1.0)
        u_r = _field_words(spec, grid)
        (hn_norm,) = _retained_norms(u_r * model.hn_r, grid, 0.0)
        state0 = _initial(u_r * (R * (i + 1) / ensemble_size / hn_norm), model)
        (w0_norm,) = _retained_norms(state0._ret, grid, 0.0)
        entry_time, stayed, max_ratio, blow_up = None, False, math.inf, None
        try:
            traj = simulate(member_config, initial=state0)
        except BlowUpError as err:
            traj, blow_up = err.trajectory, err.t_last
        else:
            inside = traj.h0_sq < rho0_prime**2
            if inside.any():
                entry_idx = int(np.argmax(inside))
                entry_time = float(traj.t[entry_idx])
                stayed = bool(inside[entry_idx:].all())
            max_ratio = float((traj.h0_sq / traj.absorb_bound).max())
        return ProbeMember(
            index=i,
            seed=seed,
            w0_norm=w0_norm,
            entry_time=entry_time,
            stayed_inside=stayed,
            bound_ok=max_ratio <= 1.0 + BOUND_TOLERANCE,
            max_bound_ratio=max_ratio,
            blow_up_time=blow_up,
            trajectory=traj if keep_trajectories else None,
        )

    # A member on a pool thread sees one CPU, so its kernel does not split.
    with _bound_pool(ensemble_size) as pool:
        members = tuple(_map(pool, run_member, ensemble_size))

    passed = all(
        m.blow_up_time is None
        and m.entry_time is not None
        and m.entry_time <= t0 * (1.0 + template.epsilon)
        and m.stayed_inside
        for m in members
    )
    return ProbeReport(
        R=R,
        rho0=params.rho0,
        rho0_prime=rho0_prime,
        T0=t0,
        horizon=horizon,
        epsilon=template.epsilon,
        members=members,
        passed=passed,
    )


__all__ = [
    "BOUND_TOLERANCE",
    "AbsorbingParams",
    "WindowAverage",
    "H1Report",
    "ProbeMember",
    "ProbeReport",
    "rho0",
    "absorbing_bound",
    "absorbing_time",
    "uniform_gronwall",
    "h1_time_average",
    "h1_absorbing_report",
    "ensemble_absorb_probe",
]
