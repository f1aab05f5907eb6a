"""The seeded deconvbox benchmark workloads and their correctness gate.

Each workload turns a seed into fixed inputs and offers three actions:
`setup` (a SolverConfig to a ready initial state), `op` (one workload
operation, the timed part) and `gate` (the untimed correctness check of an
operation's result). Only public deconvbox functions are called, through
their module attributes, so a traced run sees every call.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from deconvbox import attractor, config, deconv, solver, spectral, storage

DIVERGENCE_MAX = 1e-10
# |energy_residual(T)| must stay below this share of the balance's scale,
# 1/2 ||w0||^2 + nu int ||w||_1^2 + |int (H_N f, w)|. With dt = 0.01 the
# trapezoid-accumulated dissipation of the stiff high modes leaves defects
# of up to 2 % at K=32 and 17 % at K=64 (seeds 101-120); a blow-up or a
# broken stepper drives the share to order one.
RESIDUAL_SHARE_MAX = 0.25

README_PHYSICS = dict(nu=1.0, delta=0.5, order=1, dt=0.01)


@dataclass
class Outcome:
    """Result of one operation: work done, digests and gate failures."""

    steps: int
    digests: dict
    problems: list = field(default_factory=list)
    snapshot_bytes: int = 0


def derived_seeds(seed: int, n: int) -> list[int]:
    """n independent 31-bit seeds from the workload seed (any integer)."""
    return [int(v) >> 1 for v in np.random.SeedSequence(seed % 2**64).generate_state(n)]


def sha256_arrays(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode() + str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def trajectory_digest(traj) -> str:
    return sha256_arrays(traj.columns().values())


def state_digest(state) -> str:
    return sha256_arrays([np.array([state.t]), state.w.coeff])


def steps_between(t0: float, t1: float, dt: float) -> int:
    return int(round((t1 - t0) / dt))


# -- the correctness gate -------------------------------------------------------


def check_energy(traj, label: str) -> list[str]:
    res = float(traj.energy_residual[-1])
    scale = (
        0.5 * traj.h0_sq[0]
        + 0.5 * traj.dissipation_integral[-1]
        + abs(traj.work_integral[-1])
    )
    if not abs(res) <= RESIDUAL_SHARE_MAX * scale:
        return [
            f"{label}: |energy_residual(T)| {abs(res):.3e} exceeds "
            f"{RESIDUAL_SHARE_MAX} x balance scale {scale:.3e}"
        ]
    return []


def check_state(traj, state, label: str) -> list[str]:
    """Divergence-free final state and a bounded energy-balance defect."""
    if not np.isfinite(state.w.coeff).all():
        return [f"{label}: final state is not finite"]
    problems = []
    div = spectral.divergence_error(state.w)
    if not div <= DIVERGENCE_MAX:
        problems.append(f"{label}: divergence_error {div:.3e} > {DIVERGENCE_MAX}")
    return problems + check_energy(traj, label)


def check_probe(report, label: str) -> list[str]:
    problems = []
    if not report.passed:
        problems.append(f"{label}: probe did not pass")
    for m in report.members:
        if not m.bound_ok:
            problems.append(f"{label}: member {m.index} breaks the decay envelope")
        if m.blow_up_time is not None:
            problems.append(f"{label}: member {m.index} blew up at {m.blow_up_time}")
        elif m.trajectory is not None:
            problems += check_energy(m.trajectory, f"{label} member {m.index}")
    return problems


def check_repeat(outcome: Outcome, reference: Outcome | None) -> list[str]:
    """A repetition must reproduce the reference's work and every digest bit."""
    if reference is None:
        return []
    problems = []
    if outcome.steps != reference.steps:
        problems.append(f"steps {outcome.steps} != {reference.steps} of the first operation")
    for key, value in reference.digests.items():
        if outcome.digests.get(key) != value:
            problems.append(f"digest {key} differs from the first operation")
    return problems


# -- workloads ------------------------------------------------------------------


def forced_config(K: int, T: float, sample_every: int, seed: int) -> config.SolverConfig:
    """README quick-start physics with random-spectrum IC and forcing."""
    ic_seed, forcing_seed = derived_seeds(seed, 2)
    return config.SolverConfig(
        K=K,
        T=T,
        sample_every=sample_every,
        ic=config.FieldSpec(kind="random_spectrum", seed=ic_seed, target_norm=2.0),
        forcing=config.FieldSpec(kind="random_spectrum", seed=forcing_seed, target_norm=0.5),
        **README_PHYSICS,
    )


class SimulateWorkload:
    """One forced `simulate_with_state` run."""

    threads = 1

    def __init__(self, K: int, T: float, sample_every: int, seed: int, reference_steps: int):
        self.cfg = forced_config(K, T, sample_every, seed)
        self.reference_kernel = dict(K=K, steps=reference_steps, cpus=self.threads)

    def prepare(self, workdir: Path) -> None:
        pass

    def setup(self) -> None:
        solver.simulate_with_state(replace(self.cfg, T=0.0))

    def op(self):
        return solver.simulate_with_state(self.cfg)

    def gate(self, raw) -> Outcome:
        traj, state = raw
        return Outcome(
            steps=steps_between(traj.t[0], state.t, self.cfg.dt),
            digests={"timeseries": trajectory_digest(traj), "final": state_digest(state)},
            problems=check_state(traj, state, "trajectory"),
        )


class ProbeWorkload:
    """`ensemble_absorb_probe` on the acceptance-07 template."""

    threads = 2

    def __init__(self, K: int, members: int, R: float, seed: int, reference_steps: int):
        self.reference_kernel = dict(K=K, steps=reference_steps, cpus=self.threads)
        forcing_seed, self.base_seed = derived_seeds(seed, 2)
        self.template = config.SolverConfig(
            K=K,
            T=1.0,
            sample_every=2,
            forcing=config.FieldSpec(
                kind="random_spectrum", seed=forcing_seed, target_norm=0.5
            ),
            **README_PHYSICS,
        )
        self.members = members
        self.R = R

    def prepare(self, workdir: Path) -> None:
        pass

    def setup(self) -> None:
        """Per-member set-up: each member's config to its ready initial state."""
        for i in range(self.members):
            ic = config.FieldSpec(
                kind="random_spectrum",
                seed=self.base_seed + i,
                target_norm=self.R * (i + 1) / self.members,
            )
            solver.simulate_with_state(replace(self.template, T=0.0, ic=ic))

    def op(self):
        return attractor.ensemble_absorb_probe(
            R=self.R,
            rho0_prime=math.sqrt(0.5),
            ensemble_size=self.members,
            template=self.template,
            base_seed=self.base_seed,
        )

    def gate(self, report) -> Outcome:
        steps = sum(
            steps_between(m.trajectory.t[0], m.trajectory.t[-1], self.template.dt)
            for m in report.members
        )
        entries = np.array(
            [math.nan if m.entry_time is None else m.entry_time for m in report.members]
        )
        arrays = [entries]
        for m in report.members:
            arrays.extend(m.trajectory.columns().values())
        return Outcome(
            steps=steps,
            digests={"timeseries": sha256_arrays(arrays)},
            problems=check_probe(report, "probe"),
        )


class CheckpointWorkload:
    """A run cut into segments, each resumed from the previous snapshot."""

    threads = 1

    def __init__(
        self, K: int, segments: int, steps_per_segment: int, seed: int, reference_steps: int
    ):
        self.reference_kernel = dict(K=K, steps=reference_steps, cpus=self.threads)
        self.segments = segments
        self.cfg = forced_config(K, steps_per_segment * README_PHYSICS["dt"], 1, seed)
        self.workdir: Path | None = None
        self.reference: str | None = None

    def _snapshot_config(self, path: Path) -> config.SolverConfig:
        return replace(self.cfg, ic=config.FieldSpec(kind="snapshot", path=str(path)))

    def _model(self, grid) -> solver.ModelParams:
        filters = deconv.FilterParams(self.cfg.delta, self.cfg.order)
        forcing = config.generate_ic(self.cfg.forcing, grid, filters)
        return solver.ModelParams(nu=self.cfg.nu, filters=filters, forcing=forcing)

    def prepare(self, workdir: Path) -> None:
        """Keep a start snapshot for `setup` and the uninterrupted final state."""
        self.workdir = workdir
        _, state = solver.simulate_with_state(replace(self.cfg, T=0.0))
        storage.write_snapshot(state, self._model(state.w.grid), workdir / "start.snap")
        total_T = self.segments * self.cfg.T
        _, final = solver.simulate_with_state(replace(self.cfg, T=total_T))
        self.reference = state_digest(final)

    def setup(self) -> None:
        """Resume set-up: a snapshot config to its ready initial state."""
        start = self._snapshot_config(self.workdir / "start.snap")
        solver.simulate_with_state(replace(start, T=0.0))

    def op(self):
        """Run the segments; each writes its CSV and snapshot and reads the CSV back."""
        segments = []
        snap = None
        for j in range(self.segments):
            cfg = self.cfg if snap is None else self._snapshot_config(snap)
            traj, state = solver.simulate_with_state(cfg)
            csv = self.workdir / f"segment{j}.csv"
            snap = self.workdir / f"segment{j}.snap"
            storage.write_timeseries(traj, csv)
            storage.write_snapshot(state, self._model(state.w.grid), snap)
            segments.append((traj, state, storage.read_timeseries(csv)))
        return segments, os.path.getsize(snap)

    def gate(self, raw) -> Outcome:
        segments, snapshot_bytes = raw
        problems: list[str] = []
        columns = []
        steps = 0
        for j, (traj, state, back) in enumerate(segments):
            steps += steps_between(traj.t[0], state.t, self.cfg.dt)
            if trajectory_digest(back) != trajectory_digest(traj):
                problems.append(f"segment {j}: time series CSV does not round-trip")
            columns.extend(traj.columns().values())
            problems += check_state(traj, state, f"segment {j}")
        final = state_digest(segments[-1][1])
        if final != self.reference:
            problems.append("checkpoint chain differs from the uninterrupted run")
        return Outcome(
            steps=steps,
            digests={"timeseries": sha256_arrays(columns), "final": final},
            problems=problems,
            snapshot_bytes=snapshot_bytes,
        )


# reference_steps: steps of the reference kernel (reference.py) on each CPU
# the workload uses, timed before and after each operation; a pass takes
# about a fifth of an operation's time.
WORKLOADS = {
    "traj_k32": lambda seed: SimulateWorkload(
        K=32, T=0.25, sample_every=1, seed=seed, reference_steps=6
    ),
    "traj_k64": lambda seed: SimulateWorkload(
        K=64, T=0.08, sample_every=4, seed=seed, reference_steps=2
    ),
    "probe_k32": lambda seed: ProbeWorkload(
        K=32, members=4, R=0.55, seed=seed, reference_steps=10
    ),
    "checkpoint_k32": lambda seed: CheckpointWorkload(
        K=32, segments=5, steps_per_segment=4, seed=seed, reference_steps=5
    ),
}


def make_workdir(root: Path) -> Path:
    workdir = root / ".bench_out" / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workdir
