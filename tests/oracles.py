"""Independent reference computations used to pin expected test values.

Nothing here goes through the package's FFT pipeline: fields are summed
mode by mode on an explicit collocation grid, derivatives are taken on
the trigonometric monomials directly, and integrals are plain grid means.
Intentionally slow; keep the inputs small.
"""

import numpy as np

from deconvbox import (
    FieldSpec,
    FilterParams,
    ModelParams,
    SpectralVectorField,
    generate_ic,
    initial_state,
    make_grid,
)
from deconvbox.storage import write_snapshot


def random_div_free(grid, seed, target=1.0):
    """Convenience wrapper for a seeded divergence-free test field."""
    return generate_ic(
        FieldSpec(kind="random_spectrum", seed=seed, target_norm=target), grid
    )


def start_specs(grid, seed, path):
    """One field spec of each kind on grid; the snapshot is written to path."""
    u0 = generate_ic(FieldSpec(kind="random_spectrum", seed=seed + 1), grid)
    state = initial_state(u0, ModelParams(1.0, FilterParams(0.5, 1), grid=grid))
    write_snapshot(state, state.model, path)
    return {
        "zero": FieldSpec(),
        "single_mode": FieldSpec(kind="single_mode", mode=(1, 2, 1), amplitude=(2.0, -1.0, 0.0)),
        "random_spectrum": FieldSpec(kind="random_spectrum", seed=seed, target_norm=1.5),
        "snapshot": FieldSpec(kind="snapshot", path=str(path)),
    }


def masked_shear(value, K=16):
    """A divergence-free shear on the K grid holding `value` on component 1 of mode
    (K/2 - 1, 0, 0), which the dealias mask drops, and the pattern naming that mode and
    the cut."""
    grid = make_grid(K)
    field = SpectralVectorField.from_modes(grid, {(1, 0, 0): (0.0, 1.0, 0.0)})
    field.coeff[1, K // 2 - 1, 0, 0] = value
    return field, rf"\({K // 2 - 1}, 0, 0\), which the dealias cut \|k_i\| <= {grid.cut} drops$"


def full_layout_read(blob, grid):
    """A snapshot payload's bytes unshifted into the full layout (3, K, K, K//2+1), and the
    message a read must reject them with, or None: the first mode in the in-memory (kx, ky,
    kz) order that is non-finite, else the first with content (-0.0 is none) off the mask."""
    payload = np.frombuffer(blob, dtype="<c16").reshape(grid.spectral_shape + (3,))
    coeff = np.moveaxis(np.fft.ifftshift(payload, axes=(0, 1)), -1, 0)
    k = np.r_[0 : grid.K // 2, -(grid.K // 2) : 0]
    for flags, problem in (
        (~np.isfinite(coeff).all(axis=0), "has a non-finite coefficient at mode {}"),
        (coeff.any(axis=0) & ~grid.mask, "has content on mode {}, which the dealias cut"
         f" |k_i| <= {grid.cut} drops"),
    ):
        if flags.any():
            i1, i2, k3 = np.argwhere(flags)[0]
            mode = (int(k[i1]), int(k[i2]), int(k3))
            return coeff, "snapshot payload " + problem.format(mode)
    return coeff, None


def eval_modes_on_grid(grid, coeff, points):
    """Brute-force trigonometric sum of a half-spectrum field on a fresh grid.

    Loops over the stored modes, adds the implicit conjugates explicitly,
    and returns real samples on a points^3 lattice of the box.
    """
    K = grid.K
    x = 2.0 * np.pi * np.arange(points) / points
    k_line = np.r_[0 : K // 2, -(K // 2) : 0]
    total = np.zeros((coeff.shape[0], points, points, points), dtype=np.complex128)
    nz = np.argwhere(np.abs(coeff).sum(axis=0) > 0.0)
    for i1, i2, i3 in nz:
        k1, k2, k3 = k_line[i1], k_line[i2], int(i3)
        c = coeff[:, i1, i2, i3]
        phase = (
            np.exp(1j * k1 * x)[:, None, None]
            * np.exp(1j * k2 * x)[None, :, None]
            * np.exp(1j * k3 * x)[None, None, :]
        )
        total += c[:, None, None, None] * phase
        if k3 > 0:
            total += np.conj(c)[:, None, None, None] * np.conj(phase)
    assert np.abs(total.imag).max() <= 1e-10 * max(np.abs(total.real).max(), 1.0)
    return total.real


def trilinear_collocation(u, v, w, points=None):
    """Direct quadrature of sum_ij u_i d_i v_j w_j over the box.

    Fields are evaluated by explicit mode summation on a grid fine enough
    that the trapezoid rule (a plain mean on the periodic box) is exact
    for the triple product; the mean uses the same normalized measure as
    the package's norms.
    """
    grid = u.grid
    if points is None:
        points = 4 * grid.K
    up = eval_modes_on_grid(grid, u.coeff, points)
    wp = eval_modes_on_grid(grid, w.coeff, points)
    acc = np.zeros((points, points, points))
    for i, ki in enumerate(grid.kvec):
        dvi = eval_modes_on_grid(grid, (1j * ki) * v.coeff, points)
        acc += up[i] * (dvi * wp).sum(axis=0)
    return float(acc.mean())


def hn_series_symbol(k2, delta, order):
    """Geometric-series evaluation of the truncation symbol.

    Sums g * (1 - g)^n term by term, the textbook definition of the
    Van Cittert composition, independent of the closed form.
    """
    g = 1.0 / (1.0 + delta * delta * k2)
    total = 0.0
    term = g
    for _ in range(order + 1):
        total += term
        term *= 1.0 - g
    return total


def hermitian_defect(field: SpectralVectorField) -> float:
    """Worst conjugate-symmetry violation on the self-conjugate k3=0 plane."""
    K = field.grid.K
    plane = field.coeff[:, :, :, 0]
    flip = (-np.arange(K)) % K
    return float(np.abs(plane - np.conj(plane[:, flip][:, :, flip])).max())
