"""Write tests/golden.py: the exact output of short reference runs.

    PYTHONPATH=src python tests/make_golden.py

Every run goes through SolverConfig and the public simulate_with_state,
ensemble_absorb_probe, write_snapshot and read_snapshot (as a snapshot
initial condition), so the script does not depend on how a model is built.
Time-series columns are stored as float.hex, final states as the sha256 of
their retained coefficient words, snapshots as the sha256 of the file.
The numpy version and the CPU's SIMD features are stored next to the data:
test_golden.py compares bytes only under that environment.

Regenerate the file only in a change that means to move trajectory bits,
and say so where the change is described.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

from deconvbox import (
    FieldSpec,
    SolverConfig,
    ensemble_absorb_probe,
    simulate_with_state,
    write_snapshot,
)

STEPS = 20
DT = 0.01


def environment() -> dict:
    """The numpy version and the CPU SIMD features numpy detected."""
    from numpy._core._multiarray_umath import __cpu_features__

    return {
        "numpy": np.__version__,
        "cpu_features": tuple(sorted(k for k, on in __cpu_features__.items() if on)),
    }


def run_config(K: int, forced: bool, sample_every: int) -> SolverConfig:
    forcing = FieldSpec(kind="random_spectrum", seed=7, target_norm=0.5) if forced else FieldSpec()
    return SolverConfig(
        K=K, nu=0.05, delta=0.4, order=2, dt=DT, T=STEPS * DT,
        sample_every=sample_every,
        ic=FieldSpec(kind="random_spectrum", seed=K, target_norm=2.0),
        forcing=forcing,
    )


def run_keys():
    """(K, dealias rule, forced, sample_every) per run; the 2/3 rule is the only rule."""
    for K in (8, 12, 16):
        for forced in (True, False):
            for every in (1, 3):
                yield K, "two_thirds", forced, every


def _final_digest(state) -> str:
    w = state.w
    return hashlib.sha256(np.ascontiguousarray(w.coeff[:, w.grid.mask]).tobytes()).hexdigest()


def _record(traj, state=None) -> dict:
    columns = traj.columns().items()
    out = {"columns": {name: " ".join(float(x).hex() for x in col) for name, col in columns}}
    if state is not None:
        out["final"] = _final_digest(state)
    return out


def _probe() -> dict:
    """A 2-member forced probe at K=12 whose entry time is a few steps."""
    template = SolverConfig(
        K=12, nu=0.5, delta=0.4, order=2, dt=0.02,
        ic=FieldSpec(kind="random_spectrum", seed=3),
        forcing=FieldSpec(kind="random_spectrum", seed=11, target_norm=0.1),
    )
    report = ensemble_absorb_probe(1.05, 1.0, 2, template, base_seed=40)
    return {
        "T0": report.T0.hex(),
        "members": {
            m.index: dict(w0_norm=m.w0_norm.hex(), entry_time=m.entry_time, **_record(m.trajectory))
            for m in report.members
        },
    }


def _resume(workdir: str) -> dict:
    """A forced K=12 run stopped after 10 steps, written, and resumed for 10 more."""
    first = replace(run_config(12, True, 1), T=10 * DT)
    _, state = simulate_with_state(first)
    path = os.path.join(workdir, "resume.snap")
    write_snapshot(state, state.model, path)
    with open(path, "rb") as fh:
        snapshot = hashlib.sha256(fh.read()).hexdigest()
    resumed = replace(first, T=state.t + 10 * DT, ic=FieldSpec(kind="snapshot", path=path))
    traj, final = simulate_with_state(resumed)
    return dict(snapshot=snapshot, **_record(traj, final))


def collect() -> dict:
    """Every golden record, computed by the code under test."""
    runs = {}
    for key in run_keys():
        K, _, forced, every = key
        traj, state = simulate_with_state(run_config(K, forced, every))
        runs[key] = _record(traj, state)
    with tempfile.TemporaryDirectory() as workdir:
        resume = _resume(workdir)
    return {"runs": runs, "probe": _probe(), "resume": resume}


def _source(value, indent: str = "") -> str:
    """value as Python source, one dict entry per line."""
    if not isinstance(value, dict):
        return repr(value)
    inner = indent + "    "
    items = "".join(f"{inner}{k!r}: {_source(v, inner)},\n" for k, v in value.items())
    return "{\n" + items + indent + "}"


def main(path: str) -> None:
    data = {"environment": environment(), **collect()}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('"""Golden run data, written by tests/make_golden.py. Do not edit."""\n')
        for name, value in data.items():
            fh.write(f"\n{name.upper()} = {_source(value)}\n")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else os.path.join(os.path.dirname(__file__), "golden.py"))
