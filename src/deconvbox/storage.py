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
    _require_fits,
    _require_same_model,
    _retained_state,
)
from .spectral import SpectralVectorField, WaveGrid, _require_same_grid, make_grid

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
        for name, x in zip(TIMESERIES_COLUMNS, rows[-1]):
            if not math.isfinite(x):
                raise ValueError(f"line {lineno}: column {name} is not finite ({x!r})")
    if not rows:
        raise ValueError("time series file has no data rows")
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
    w = state.w
    header = _HEADER_STRUCT.pack(
        SNAPSHOT_MAGIC, SNAPSHOT_VERSION, w.grid.K, params.filters.order,
        state.t, params.nu, params.filters.delta,
    )
    # (k1, k2, k3, component), canonical order: the k1 and k2 axes
    # fftshifted, copied quadrant by quadrant.
    view, h = np.moveaxis(w.coeff, 0, -1), w.grid.K // 2
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
    if K < 4 or K % 2:
        raise ValueError(f"snapshot header field K = {K} is not an even resolution >= 4")
    return SnapshotMeta(version=version, K=K, order=order, t=t, nu=nu, delta=delta)


def read_snapshot(
    path, grid: WaveGrid | None = None, params: ModelParams | None = None
) -> SolverState:
    """Read a snapshot back into a SolverState.

    The grid is `grid`, else the grid of `params`, else a two-thirds grid at
    the stored K; it must match the stored resolution (rejected with both K
    values otherwise). Given `params`, the stored nu, delta and N must equal
    its values exactly (each differing field is rejected with both values)
    and its grid the given one; without them the stored values build an
    unforced model on the grid. The payload must have exactly the size the
    header's K implies, finite coefficients and no content on a mode the dealias
    mask drops. If its retained box (|k1|, |k2|, k3 <= cut) is finite and all else
    +0.0, the state holds just the box.
    """
    meta = read_snapshot_meta(path)
    K = meta.K
    grid = params.grid if grid is None and params is not None else grid
    if grid is not None and grid.K != K:
        raise ValueError(
            f"snapshot resolution K = {K} does not match the requested grid K = {grid.K}"
        )
    if params is not None:
        _require_same_model(
            "snapshot was written under a different model",
            {"nu": meta.nu, "delta": meta.delta, "N": meta.order}, _model_fields(params),
            "stored", "requested",
        )
        _require_same_grid(grid, params.grid, "the requested grid and the model")
    expected = 3 * 16 * K * K * (K // 2 + 1)  # components x complex128 bytes
    blob = np.fromfile(path, dtype=np.uint8, offset=_HEADER_STRUCT.size)
    if len(blob) != expected:
        problem = "truncated" if len(blob) < expected else "over-long"
        raise ValueError(f"snapshot payload is {problem} ({len(blob)} bytes, expected "
                         f"{expected}) for header field K = {K}")
    hint = "" if grid is not None else (
        f"; no grid given, so the two-thirds rule was assumed: pass grid=make_grid({K}, \"none\")")
    grid = grid if grid is not None else make_grid(K, "two_thirds")
    if params is None:
        params = ModelParams(meta.nu, FilterParams(meta.delta, meta.order), grid=grid)
    payload = blob.view("<c16").reshape(grid.spectral_shape + (3,))
    words = blob.view("<u8").reshape(grid.spectral_shape + (6,))
    h, c = K // 2, grid.cut
    box = (slice(h - c, h + c + 1), slice(h - c, h + c + 1), slice(c + 1))
    if np.isfinite(payload[box]).all() and np.count_nonzero(words) == np.count_nonzero(words[box]):
        # k1 and k2 run -c..c in the box and 0..c, -c..-1 in ret_flat's (ky, kz, kx) order.
        w_r = np.roll(payload[box], (-c, -c), axis=(0, 1)).transpose(3, 1, 2, 0).reshape(3, -1)
        return _retained_state(meta.t, w_r.astype(np.complex128, copy=False), params)
    coeff = np.moveaxis(np.fft.ifftshift(payload, axes=(0, 1)), -1, 0)
    w = SpectralVectorField(grid, np.ascontiguousarray(coeff, dtype=np.complex128))
    _require_fits(w, "snapshot payload", params, hint)
    return SolverState(t=meta.t, w=w, model=params)


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
