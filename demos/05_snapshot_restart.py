"""Snapshot persistence and bit-exact restart.

States are written as little-endian binary with the half-spectrum in a
canonical lexicographic mode order, so a resumed run reproduces an
uninterrupted one coefficient for coefficient.
"""

import tempfile
from pathlib import Path

import numpy as np

from deconvbox import (
    FieldSpec,
    FilterParams,
    ModelParams,
    generate_ic,
    initial_state,
    make_grid,
    read_snapshot,
    read_snapshot_meta,
    step,
    write_snapshot,
)

grid = make_grid(16)
params = ModelParams(
    nu=0.5,
    filters=FilterParams(0.5, 2),
    forcing=generate_ic(FieldSpec(kind="random_spectrum", seed=2, target_norm=0.3), grid),
)
state = initial_state(
    generate_ic(FieldSpec(kind="random_spectrum", seed=1, target_norm=1.0), grid),
    params,
)

dt = 0.01
for _ in range(50):
    state = step(state, dt)

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "halfway.snap"
    write_snapshot(state, params, path)
    meta = read_snapshot_meta(path)
    print(f"wrote {path.stat().st_size} bytes: K={meta.K}, t={meta.t:.2f}, "
          f"nu={meta.nu}, delta={meta.delta}, N={meta.order}")

    resumed = read_snapshot(path, grid=grid, params=params)
    direct = state
    for _ in range(50):
        direct = step(direct, dt)
        resumed = step(resumed, dt)

    same = np.array_equal(direct.w.coeff, resumed.w.coeff)
    print(f"after 50 more steps on each path: bit-identical = {same}")
