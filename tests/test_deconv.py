import numpy as np
import pytest

from deconvbox import (
    FilterParams,
    SpectralVectorField,
    SymbolTable,
    g_symbol,
    helmholtz_filter,
    hn_symbol,
    leray_project,
    smoothing_bound,
    smoothing_constant,
    sobolev_norm,
    stokes_apply,
    truncation_hn,
    van_cittert_apply,
)
from oracles import hn_series_symbol, random_div_free


class TestGSymbol:
    def test_mean_mode_preserved(self):
        assert g_symbol(0.0, 1.0) == 1.0

    def test_unit_shell(self):
        assert g_symbol(1.0, 1.0) == 0.5

    def test_scaled_width(self):
        # delta^2 k2 = 1 again, just at a different corner of the domain
        assert g_symbol(100.0, 0.1) == pytest.approx(0.5, rel=1e-15)

    @pytest.mark.filterwarnings("error")
    def test_mean_mode_when_delta_squared_overflows(self):
        assert g_symbol(0.0, 1e200) == 1.0
        assert g_symbol(np.array([0.0, 1.0]), 1e200).tolist() == [1.0, 0.0]

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            g_symbol(1.0, 0.0)
        with pytest.raises(ValueError):
            g_symbol(1.0, -2.0)


class TestHnSymbol:
    def test_order_zero_is_filter(self):
        for k2 in (0.0, 1.0, 7.0, 300.0):
            assert hn_symbol(k2, 0.7, 0) == pytest.approx(g_symbol(k2, 0.7), rel=1e-15)

    def test_order_one_unit_shell(self):
        assert hn_symbol(1.0, 1.0, 1) == pytest.approx(0.75, abs=1e-15)

    def test_mean_mode_for_any_order(self):
        for order in (0, 3, 20, 64):
            assert hn_symbol(0.0, 0.5, order) == 1.0

    @pytest.mark.filterwarnings("error")
    def test_mean_mode_when_delta_squared_overflows(self):
        assert hn_symbol(0.0, 1e200, 1) == 1.0
        assert hn_symbol(np.array([0.0, 1.0]), 1e200, 1).tolist() == [1.0, 0.0]

    def test_matches_series_oracle(self):
        for k2 in (0.5, 1.0, 4.0, 33.0):
            for delta in (0.1, 0.5, 1.0):
                for order in (0, 1, 2, 5, 11):
                    want = hn_series_symbol(k2, delta, order)
                    assert hn_symbol(k2, delta, order) == pytest.approx(want, rel=1e-13)

    def test_closed_form_complement_identity(self):
        for k2 in (0.5, 2.0, 10.0, 144.0):
            for delta in (0.1, 1.0, 3.0):
                for order in (0, 1, 4, 9):
                    r = delta**2 * k2 / (1.0 + delta**2 * k2)
                    # absolute floor at the ulp of Hhat ~ 1: the subtraction
                    # 1 - Hhat cannot resolve the complement below ~1e-16
                    assert 1.0 - hn_symbol(k2, delta, order) == pytest.approx(
                        r ** (order + 1), rel=1e-12, abs=1e-15
                    )

    def test_monotone_in_order(self, grid16):
        k2 = grid16.ksq[grid16.mask]
        prev = hn_symbol(k2, 0.5, 0)
        for order in range(1, 12):
            cur = hn_symbol(k2, 0.5, order)
            assert np.all(cur >= prev - 1e-16)
            prev = cur

    def test_range(self, grid16):
        for delta in (0.1, 0.5, 1.0):
            for order in (0, 1, 5, 20, 64):
                vals = hn_symbol(grid16.ksq, delta, order)
                assert np.all(vals > 0.0) and np.all(vals <= 1.0)


class TestHelmholtzFilter:
    def test_unit_shell_halved(self, grid16):
        w = SpectralVectorField.from_modes(grid16, {(1, 0, 0): (0.0, 1.0, 0.0)})
        np.testing.assert_allclose(
            helmholtz_filter(w, 1.0).coeff, 0.5 * w.coeff, atol=1e-16
        )

    def test_filter_equation_residual_per_mode(self, grid16):
        # -delta^2 Lap(wbar) + wbar - w = 0 mode by mode
        w = random_div_free(grid16, seed=30)
        delta = 0.8
        wbar = helmholtz_filter(w, delta)
        resid = delta**2 * stokes_apply(wbar).coeff + wbar.coeff - w.coeff
        assert np.abs(resid).max() <= 1e-14 * np.abs(w.coeff).max()

    def test_contracts_norms(self, grid16):
        w = random_div_free(grid16, seed=31)
        for s in (0.0, 1.0):
            assert sobolev_norm(helmholtz_filter(w, 0.4), s) <= sobolev_norm(w, s)


class TestTruncationOperator:
    def test_norm_contraction_random(self, grid16):
        w = random_div_free(grid16, seed=32)
        for s in (0.0, 1.0, 2.0):
            for order in (0, 1, 5, 20):
                assert sobolev_norm(truncation_hn(w, 0.5, order), s) <= sobolev_norm(w, s)

    def test_single_mode_order_one(self, grid16):
        w = SpectralVectorField.from_modes(grid16, {(1, 0, 0): (0.0, 0.0, 1.0)})
        np.testing.assert_allclose(
            truncation_hn(w, 1.0, 1).coeff, 0.75 * w.coeff, atol=1e-16
        )

    def test_geometric_approach_to_identity(self, grid16):
        # on a single mode the defect shrinks by r = d^2k2/(1+d^2k2) per order
        w = SpectralVectorField.from_modes(grid16, {(1, 1, 0): (1.0, -1.0, 0.0)})
        delta = 1.0
        r = delta**2 * 2.0 / (1.0 + delta**2 * 2.0)
        defects = [
            sobolev_norm(truncation_hn(w, delta, n) - w, 0.0) for n in range(6)
        ]
        for a, b in zip(defects, defects[1:]):
            assert b / a == pytest.approx(r, rel=1e-10)
        assert defects[-1] < defects[0]

    def test_preserves_divergence_and_mean(self, grid16):
        w = random_div_free(grid16, seed=33)
        out = truncation_hn(w, 0.3, 4)
        dot = grid16.kx * out.coeff[0] + grid16.ky * out.coeff[1] + grid16.kz * out.coeff[2]
        assert np.abs(dot).max() <= 1e-13
        assert np.all(out.coeff[:, 0, 0, 0] == 0.0)


class TestVanCittert:
    def test_order_zero_equals_filter(self, grid16):
        w = random_div_free(grid16, seed=34)
        np.testing.assert_array_equal(
            van_cittert_apply(w, 0.6, 0).coeff, helmholtz_filter(w, 0.6).coeff
        )

    def test_matches_closed_form(self, grid16):
        w = random_div_free(grid16, seed=35)
        for order in (1, 3, 8, 20):
            series = van_cittert_apply(w, 0.5, order)
            closed = truncation_hn(w, 0.5, order)
            rel = sobolev_norm(series - closed, 0.0) / sobolev_norm(closed, 0.0)
            assert rel <= 1e-12

    def test_zero_field(self, grid16):
        z = SpectralVectorField.zeros(grid16)
        assert sobolev_norm(van_cittert_apply(z, 1.0, 3), 0.0) == 0.0


class TestSmoothing:
    def test_measured_constant_n0(self, grid16):
        # N=0, delta=1: sup over the lattice of k2 / (1 + k2), increasing in k2
        k2 = grid16.ksq[grid16.mask & (grid16.ksq > 0)]
        want = (k2 / (1.0 + k2)).max()
        got = smoothing_constant(1.0, 0, grid16)
        assert got == pytest.approx(want, rel=1e-14)
        assert got <= smoothing_bound(1.0, 0) == 1.0

    def test_large_delta_scaling(self, grid16):
        # constant ~ 1/delta^2 once delta^2 k2 >> 1 across the lattice
        c10 = smoothing_constant(10.0, 0, grid16)
        c20 = smoothing_constant(20.0, 0, grid16)
        assert c10 == pytest.approx(1.0 / 100.0, rel=0.02)
        assert c10 / c20 == pytest.approx(4.0, rel=0.02)

    def test_always_below_admissible_bound(self, grid16):
        for delta in (0.1, 0.5, 1.0, 2.0):
            for order in (0, 1, 5, 20):
                assert smoothing_constant(delta, order, grid16) <= smoothing_bound(
                    delta, order
                )

    def test_two_derivative_inequality_on_fields(self, grid16):
        w = random_div_free(grid16, seed=36)
        for s in (0.0, 1.0):
            for delta, order in ((0.5, 0), (0.5, 3), (1.0, 7)):
                lhs = sobolev_norm(truncation_hn(w, delta, order), s + 2.0)
                assert lhs <= smoothing_bound(delta, order) * sobolev_norm(w, s) * (
                    1.0 + 1e-12
                )


class TestOperatorAlgebra:
    def test_commutes_with_diagonal_operators(self, grid16):
        w = random_div_free(grid16, seed=37)
        delta, order = 0.7, 3
        hw = truncation_hn(w, delta, order)
        for op in (lambda f: helmholtz_filter(f, delta), stokes_apply, leray_project):
            d = truncation_hn(op(w), delta, order) - op(hw)
            assert sobolev_norm(d, 0.0) <= 1e-14 * max(sobolev_norm(hw, 0.0), 1e-300)


class TestFilterParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            FilterParams(0.0, 1)
        with pytest.raises(ValueError):
            FilterParams(1.0, -1)
        with pytest.raises(ValueError):
            FilterParams(1.0, 65)

    @pytest.mark.parametrize("delta", [np.inf, np.nan, -np.inf])
    def test_non_finite_delta_rejected(self, delta):
        for build in (
            lambda: FilterParams(delta, 1),
            lambda: g_symbol(1.0, delta),
            lambda: hn_symbol(1.0, delta, 1),
        ):
            with pytest.raises(ValueError, match="delta must be positive and finite"):
                build()

    def test_apply_matches_truncation(self, grid16):
        w = random_div_free(grid16, seed=38)
        fp = FilterParams(0.5, 2)
        np.testing.assert_array_equal(fp.apply(w).coeff, truncation_hn(w, 0.5, 2).coeff)


class TestSymbolTable:
    def test_invariants_and_unit_row(self, grid16):
        table = SymbolTable.build(grid16, 1.0, 1)
        assert np.all(np.diff(table.k2) > 0)
        assert np.all((table.g > 0) & (table.g <= 1.0))
        assert np.all((table.hn > 0) & (table.hn <= 1.0))
        assert np.all(table.hn >= table.g - 1e-16)
        rows = dict((k2, (g, hn)) for k2, g, hn in table.rows())
        assert rows[1.0][0] == pytest.approx(0.5, abs=1e-15)
        assert rows[1.0][1] == pytest.approx(0.75, abs=1e-15)

    def test_monotone_in_order(self, grid16):
        t1 = SymbolTable.build(grid16, 0.5, 1)
        t2 = SymbolTable.build(grid16, 0.5, 2)
        assert np.all(t2.hn >= t1.hn - 1e-16)
