"""Persistence: CSV time series and binary state snapshots.

Time series use the fixed column layout below with shortest round-trip
decimal floats, so read(write(traj)) reproduces the trajectory exactly.
Snapshots are little-endian binary: a fixed header followed by the full
stored half-spectrum in a canonical mode ordering, lexicographic over the
signed wavevector (k1, k2, k3): the rfft layout with the k1 and k2 axes
fftshifted. It is independent of the in-memory layout; round trips are bit-exact.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields

import numpy as np

from .deconv import FilterParams
from .solver import ModelParams, SolverState, Trajectory, make_state
from .spectral import SpectralVectorField, WaveGrid, make_grid

TIMESERIES_COLUMNS = tuple(f.name for f in fields(Trajectory))
TIMESERIES_HEADER = ",".join(TIMESERIES_COLUMNS)

SNAPSHOT_MAGIC = b"DCNVSNAP"
SNAPSHOT_VERSION = 1
_HEADER_STRUCT = struct.Struct("<8sIIIddd")  # magic, version, K, N, t, nu, delta


def write_timeseries(traj: Trajectory, path) -> None:
    """Write a trajectory as CSV with exact (shortest-repr) float encoding."""
    cols = traj.columns()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(TIMESERIES_HEADER + "\n")
        for i in range(len(traj)):
            fh.write(",".join(repr(float(cols[name][i])) for name in TIMESERIES_COLUMNS))
            fh.write("\n")


def read_timeseries(path) -> Trajectory:
    """Read a trajectory CSV; malformed rows report their line number."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError("empty time series file")
    if lines[0] != TIMESERIES_HEADER:
        raise ValueError(
            f"line 1: expected header {TIMESERIES_HEADER!r}, got {lines[0]!r}"
        )
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(TIMESERIES_COLUMNS):
            raise ValueError(
                f"line {lineno}: expected {len(TIMESERIES_COLUMNS)} columns, "
                f"got {len(parts)}"
            )
        try:
            rows.append([float(p) for p in parts])
        except ValueError as err:
            raise ValueError(f"line {lineno}: {err}") from None
    data = np.array(rows, dtype=np.float64).reshape(-1, len(TIMESERIES_COLUMNS))
    return Trajectory(*(data[:, j] for j in range(len(TIMESERIES_COLUMNS))))


@dataclass(frozen=True)
class SnapshotMeta:
    version: int
    K: int
    order: int
    t: float
    nu: float
    delta: float


def write_snapshot(state: SolverState, params: ModelParams, path) -> None:
    """Write the full state (half-spectrum) in the canonical mode ordering."""
    grid = state.w.grid
    header = _HEADER_STRUCT.pack(
        SNAPSHOT_MAGIC,
        SNAPSHOT_VERSION,
        grid.K,
        params.filters.order,
        state.t,
        params.nu,
        params.filters.delta,
    )
    # (k1, k2, k3, component), canonical order
    payload = np.fft.fftshift(np.moveaxis(state.w.coeff, 0, -1), axes=(0, 1))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.astype("<c16", copy=False).tobytes())


def read_snapshot_meta(path) -> SnapshotMeta:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER_STRUCT.size)
    if len(header) < _HEADER_STRUCT.size:
        raise ValueError("snapshot file is truncated (incomplete header)")
    magic, version, K, order, t, nu, delta = _HEADER_STRUCT.unpack(header)
    if magic != SNAPSHOT_MAGIC:
        raise ValueError(f"not a snapshot file (magic {magic!r})")
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported snapshot version {version}")
    return SnapshotMeta(version=version, K=K, order=order, t=t, nu=nu, delta=delta)


def read_snapshot(
    path, grid: WaveGrid | None = None, params: ModelParams | None = None
) -> SolverState:
    """Read a snapshot back into a SolverState.

    A provided grid must match the stored resolution (rejected with both K
    values otherwise); without one, a default two-thirds grid at the stored
    K is built. Given `params`, the stored nu, delta and N must equal its
    values exactly (each differing field is rejected with both values);
    without them the stored filter parameters build the truncation cache.
    The payload must have exactly the size the resolution implies.
    """
    meta = read_snapshot_meta(path)
    if grid is None:
        grid = make_grid(meta.K, "two_thirds")
    elif grid.K != meta.K:
        raise ValueError(
            f"snapshot resolution K = {meta.K} does not match the requested "
            f"grid K = {grid.K}"
        )
    if params is None:
        params = ModelParams(nu=meta.nu, filters=FilterParams(meta.delta, meta.order))
    else:
        pairs = (
            ("nu", meta.nu, params.nu),
            ("delta", meta.delta, params.filters.delta),
            ("N", meta.order, params.filters.order),
        )
        differing = [
            f"{name} = {stored!r} stored, {given!r} requested"
            for name, stored, given in pairs
            if stored != given
        ]
        if differing:
            raise ValueError(
                "snapshot was written under a different model: " + "; ".join(differing)
            )
    n_modes = grid.K * grid.K * (grid.K // 2 + 1)
    expected = n_modes * 3 * 16
    with open(path, "rb") as fh:
        fh.seek(_HEADER_STRUCT.size)
        blob = fh.read()
    if len(blob) != expected:
        problem = "truncated" if len(blob) < expected else "over-long"
        raise ValueError(
            f"snapshot payload is {problem} ({len(blob)} bytes, expected {expected})"
        )
    payload = np.frombuffer(blob, dtype="<c16").reshape(grid.spectral_shape + (3,))
    coeff = np.ascontiguousarray(
        np.moveaxis(np.fft.ifftshift(payload, axes=(0, 1)), -1, 0), dtype=np.complex128
    )
    return make_state(meta.t, SpectralVectorField(grid, coeff), params)


__all__ = [
    "TIMESERIES_COLUMNS",
    "TIMESERIES_HEADER",
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "SnapshotMeta",
    "write_timeseries",
    "read_timeseries",
    "write_snapshot",
    "read_snapshot",
    "read_snapshot_meta",
]
