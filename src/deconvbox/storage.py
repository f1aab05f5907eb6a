"""Persistence: CSV time series and binary state snapshots.

Time series use the fixed column layout below with shortest round-trip
decimal floats, so read(write(traj)) reproduces the trajectory exactly.
Snapshots are little-endian binary: a fixed header followed by the full
stored half-spectrum in a canonical mode ordering, lexicographic over the
signed wavevector (k1, k2, k3): the rfft layout with the k1 and k2 axes
fftshifted. It is independent of the in-memory layout; round trips are bit-exact.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields

import numpy as np

from .deconv import FilterParams
from .solver import (
    ModelParams,
    SolverState,
    Trajectory,
    _model_fields,
    _require_finite,
    _require_same_model,
    make_state,
)
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
    """Write the full state (half-spectrum) in the canonical mode ordering.

    `params` goes into the header, so it must be `state.model`: each field
    that differs (nu, delta, N, forced) is rejected with both values.
    """
    _require_same_model(
        "params are not the state's model",
        _model_fields(state.model), _model_fields(params), "in the state", "given",
    )
    grid = state.w.grid
    header = _HEADER_STRUCT.pack(
        SNAPSHOT_MAGIC, SNAPSHOT_VERSION, grid.K, params.filters.order,
        state.t, params.nu, params.filters.delta,
    )
    # (k1, k2, k3, component), canonical order: the k1 and k2 axes
    # fftshifted, copied quadrant by quadrant.
    view, h = np.moveaxis(state.w.coeff, 0, -1), grid.K // 2
    payload = np.empty(view.shape, dtype="<c16")
    for dst, src in ((slice(h), slice(h, None)), (slice(h, None), slice(h))):
        payload[dst, :h], payload[dst, h:] = view[src, h:], view[src, :h]
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


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
    if not math.isfinite(t):
        raise ValueError(f"snapshot header field t is not finite ({t!r})")
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
    The payload must have exactly the size the resolution implies, and
    finite coefficients.
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
        _require_same_model(
            "snapshot was written under a different model",
            {"nu": meta.nu, "delta": meta.delta, "N": meta.order},
            _model_fields(params),
            "stored",
            "requested",
        )
    expected = 3 * 16 * math.prod(grid.spectral_shape)  # components x complex128 bytes
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
    w = SpectralVectorField(grid, coeff)
    _require_finite(w, "snapshot payload")
    return make_state(meta.t, w, params)


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
