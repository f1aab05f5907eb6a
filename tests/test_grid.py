import dataclasses

import numpy as np
import pytest

from deconvbox import make_grid, smallest_eigenvalue
from deconvbox.spectral import _wavenumbers


def exact_lattice(K):
    return list(range(K // 2)) + list(range(-(K // 2), 0))


def test_two_thirds_mask_small_grid():
    # K=4: the 2/3 rule keeps exactly |k_i| <= 1
    grid = make_grid(4, "two_thirds")
    kept = np.argwhere(grid.mask)
    k_line = (np.fft.fftfreq(4) * 4).astype(int)
    for i1, i2, i3 in kept:
        assert max(abs(k_line[i1]), abs(k_line[i2]), i3) <= 1
    # and drops everything else
    assert grid.mask.sum() == 3 * 3 * 2  # k1,k2 in {-1,0,1}, k3 in {0,1}


def test_none_rule_keeps_everything_below_nyquist():
    grid = make_grid(8, "none")
    k_line = (np.fft.fftfreq(8) * 8).astype(int)
    for i1 in range(8):
        for i2 in range(8):
            for i3 in range(5):
                inside = max(abs(k_line[i1]), abs(k_line[i2]), i3) <= 3
                assert grid.mask[i1, i2, i3] == inside


def test_lattice_closed_under_negation():
    grid = make_grid(8)
    k_line = (np.fft.fftfreq(8) * 8).astype(int)
    kept = {
        (k_line[i1], k_line[i2], i3)
        for i1, i2, i3 in np.argwhere(grid.mask)
    }
    # stored half-spectrum plus implicit conjugates covers -k for every k
    full = kept | {(-a, -b, -c) for a, b, c in kept}
    assert all((-a, -b, -c) in full for a, b, c in full)


def test_lattice_is_exact_integers():
    # np.fft.fftfreq(K) * K lands just below some integers, and a cast
    # truncates them: 76 of these K (14, 18, 24, ...) got a wrong lattice.
    for K in range(4, 259, 2):
        assert _wavenumbers(K).tolist() == exact_lattice(K)
    for K in range(4, 67, 2):
        grid = make_grid(K)
        assert grid.kx.ravel().tolist() == exact_lattice(K)
        assert grid.ky.ravel().tolist() == exact_lattice(K)
        assert grid.kz.ravel().tolist() == list(range(K // 2 + 1))


@pytest.mark.parametrize("K, cut", [(4, 1), (6, 1), (12, 3), (14, 4), (18, 5), (32, 10), (64, 21)])
def test_two_thirds_cut_is_alias_free(K, cut):
    # The largest cut with 3 * cut < K: a product of retained modes reaches
    # 2 * cut and aliases to 2 * cut - K, which must fall outside the mask.
    assert 3 * cut < K <= 3 * (cut + 1)
    assert make_grid(K).cut == cut


def test_mode_count_and_quadrature_size():
    grid = make_grid(8)
    assert grid.n_points == 512
    assert grid.shape == (8, 8, 8)
    assert grid.spectral_shape == (8, 8, 5)


@pytest.mark.parametrize("bad", [3, 2, 0, -4, 7])
def test_rejects_odd_or_too_small(bad):
    with pytest.raises(ValueError):
        make_grid(bad)


def test_rejects_unknown_rule():
    with pytest.raises(ValueError, match="dealias_rule"):
        make_grid(8, "three_halves")


def test_multiplicity_weights():
    grid = make_grid(8)
    assert np.all(grid.mult[:, :, 0] == 1.0)
    assert np.all(grid.mult[:, :, 4] == 1.0)  # Nyquist column
    assert np.all(grid.mult[:, :, 1:4] == 2.0)


def test_smallest_eigenvalue_is_one(grid16):
    assert smallest_eigenvalue(grid16) == 1.0
    assert smallest_eigenvalue(make_grid(8, "none")) == 1.0


def test_smallest_eigenvalue_degenerate_grid(grid8):
    starved = dataclasses.replace(grid8, mask=(grid8.ksq == 0.0))
    with pytest.raises(ValueError, match="degenerate"):
        smallest_eigenvalue(starved)


@pytest.mark.parametrize("rule", ["two_thirds", "none"])
@pytest.mark.parametrize("K", [4, 6, 8, 12, 18, 32])
def test_retained_index_follows_the_pruned_inverse_columns(K, rule):
    # ret_flat lists each retained mode once, the mean first, laid out as
    # the pruned inverse's columns: (ky, kz, kx) with ky and kx over
    # 0..cut, K-cut..K-1 and kz over 0..cut.
    grid = make_grid(K, rule)
    c = grid.cut
    assert grid.ret_flat.size == grid.mask.sum()
    assert np.unique(grid.ret_flat).size == grid.ret_flat.size
    assert grid.ret_flat[0] == 0
    assert grid.mask.reshape(-1)[grid.ret_flat].all()
    ix, iy, iz = np.unravel_index(grid.ret_flat, grid.spectral_shape)
    keep = list(range(c + 1)) + list(range(K - c, K))
    shape = (2 * c + 1, c + 1, 2 * c + 1)
    assert (iy.reshape(shape) == np.array(keep).reshape(-1, 1, 1)).all()
    assert (iz.reshape(shape) == np.arange(c + 1).reshape(1, -1, 1)).all()
    assert (ix.reshape(shape) == np.array(keep).reshape(1, 1, -1)).all()
    k_line = np.array(exact_lattice(K))
    for table, k in zip(grid.ret_k, (k_line[ix], k_line[iy], iz)):
        assert np.array_equal(table, k)
    for table, k in zip(grid.ret_ik, (k_line[ix], k_line[iy], iz)):
        assert np.array_equal(table, 1j * k)
    ksq_r = grid.ksq.reshape(-1)[grid.ret_flat]
    assert grid.ret_ksq.tobytes() == ksq_r.tobytes()
    assert np.array_equal(grid.ret_ksq_safe, np.where(ksq_r > 0.0, ksq_r, 1.0))
