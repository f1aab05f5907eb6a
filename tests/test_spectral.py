import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deconvbox import (
    SpectralVectorField,
    divergence_error,
    inner_product,
    leray_project,
    make_grid,
    nonlinear_term,
    sobolev_norm,
    stokes_apply,
    trilinear_b,
)
from deconvbox.spectral import (
    DEALIAS_RULES,
    _mode_energy,
    _norm_from_energy,
)
from deconvbox.verify import _nonlinear_reference
from oracles import hermitian_defect, random_div_free, trilinear_collocation


def shear_mode(grid, amp=(0.0, 1.0, 0.0)):
    return SpectralVectorField.from_modes(grid, {(1, 0, 0): amp})


class TestSobolevNorm:
    def test_zero_field(self, grid16):
        assert sobolev_norm(SpectralVectorField.zeros(grid16), 0.0) == 0.0

    def test_shear_mode_pair(self, grid16):
        w = shear_mode(grid16)
        assert sobolev_norm(w, 0.0) ** 2 == pytest.approx(2.0, rel=1e-14)
        assert sobolev_norm(w, 1.0) ** 2 == pytest.approx(2.0, rel=1e-14)

    def test_diagonal_mode_h1(self, grid16):
        # hand sum: two conjugate modes at |k|^2 = 2 -> 2 * 2 * |a|^2
        w = SpectralVectorField.from_modes(grid16, {(1, 1, 0): (0.0, 0.0, 1.0)})
        assert sobolev_norm(w, 1.0) ** 2 == pytest.approx(4.0, rel=1e-14)

    def test_plain_coefficient_sum(self, grid16):
        w = random_div_free(grid16, seed=0)
        direct = ((np.abs(w.coeff) ** 2).sum(axis=0) * grid16.mult).sum()
        assert sobolev_norm(w, 0.0) ** 2 == pytest.approx(direct, rel=1e-13)

    def test_integer_s_matches_gradients(self, grid16):
        w = random_div_free(grid16, seed=1)
        grad_sq = 0.0
        for ki in grid16.kvec:
            grad_sq += sobolev_norm(SpectralVectorField(grid16, 1j * ki * w.coeff), 0.0) ** 2
        assert sobolev_norm(w, 1.0) ** 2 == pytest.approx(grad_sq, rel=1e-12)
        assert sobolev_norm(w, 2.0) == pytest.approx(
            sobolev_norm(stokes_apply(w), 0.0), rel=1e-12
        )

    def test_negative_exponent(self, grid16):
        w = shear_mode(grid16)
        # all energy at |k| = 1, so every H_s norm coincides
        assert sobolev_norm(w, -1.0) == pytest.approx(sobolev_norm(w, 0.0), rel=1e-14)

    def test_norm_from_energy_writes_nothing(self, grid8):
        # Unmasked, with a nonzero mean: the norms leave out the mean mode
        # without writing into the mode-energy array they share.
        rng = np.random.default_rng(7)
        shape = (3,) + grid8.spectral_shape
        w = SpectralVectorField(grid8, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        amp2 = _mode_energy(w)
        before = amp2.tobytes()
        amp2.setflags(write=False)
        for s in (-1.0, 0.0, 1.0, 2.0):
            assert _norm_from_energy(amp2, grid8, s) == sobolev_norm(w, s)
        assert amp2.tobytes() == before


class TestLerayProjection:
    def test_fixes_divergence_free_input(self, grid16):
        w = random_div_free(grid16, seed=2)
        p = leray_project(w)
        assert sobolev_norm(p - w, 0.0) <= 1e-13 * sobolev_norm(w, 0.0)

    def test_annihilates_gradient_modes(self, grid16):
        grad = SpectralVectorField.from_modes(grid16, {(1, 2, 0): (1.0, 2.0, 0.0)})
        assert sobolev_norm(leray_project(grad), 0.0) <= 1e-14

    def test_example_mode(self, grid16):
        raw = SpectralVectorField.from_modes(grid16, {(1, 0, 0): (1.0, 1.0, 0.0)})
        p = leray_project(raw)
        np.testing.assert_allclose(p.coeff[:, 1, 0, 0], [0.0, 1.0, 0.0], atol=1e-15)

    def test_idempotent_and_self_adjoint(self, grid16):
        rng = np.random.default_rng(3)
        a = SpectralVectorField.from_physical(
            grid16, rng.standard_normal((3, 16, 16, 16))
        )
        b = SpectralVectorField.from_physical(
            grid16, rng.standard_normal((3, 16, 16, 16))
        )
        pa = leray_project(a)
        assert sobolev_norm(leray_project(pa) - pa, 0.0) <= 1e-12 * sobolev_norm(a, 0.0)
        lhs = inner_product(pa, b)
        rhs = inner_product(a, leray_project(b))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_per_mode_divergence(self, grid16):
        rng = np.random.default_rng(4)
        a = SpectralVectorField.from_physical(
            grid16, rng.standard_normal((3, 16, 16, 16))
        )
        p = leray_project(a)
        dot = grid16.kx * p.coeff[0] + grid16.ky * p.coeff[1] + grid16.kz * p.coeff[2]
        scale = np.sqrt(grid16.ksq) * np.abs(p.coeff).max()
        assert np.abs(dot).max() <= 1e-13 * max(scale.max(), 1e-300)


class TestStokes:
    def test_unit_shell_is_fixed(self, grid16):
        w = shear_mode(grid16)
        np.testing.assert_array_equal(stokes_apply(w).coeff, w.coeff)

    def test_diagonal_mode_scales_by_three(self, grid16):
        w = SpectralVectorField.from_modes(grid16, {(1, 1, 1): (1.0, -1.0, 0.0)})
        np.testing.assert_allclose(stokes_apply(w).coeff, 3.0 * w.coeff, atol=1e-15)

    def test_norm_identity_random(self, grid16):
        w = random_div_free(grid16, seed=5)
        assert sobolev_norm(stokes_apply(w), 0.0) == pytest.approx(
            sobolev_norm(w, 2.0), rel=1e-12
        )


class TestTrilinearForm:
    def test_cancellation_with_div_free_advection(self, grid16):
        u = random_div_free(grid16, seed=6)
        w = random_div_free(grid16, seed=7)
        scale = sobolev_norm(u, 0.0) * sobolev_norm(w, 1.0) * sobolev_norm(w, 0.0)
        assert abs(trilinear_b(u, w, w)) <= 1e-12 * scale

    def test_constant_middle_slot(self, grid16):
        u = random_div_free(grid16, seed=8)
        w = random_div_free(grid16, seed=9)
        zero = SpectralVectorField.zeros(grid16)
        assert trilinear_b(u, zero, w) == 0.0

    def test_antisymmetry_in_last_slots(self, grid16):
        u = random_div_free(grid16, seed=10)
        v = random_div_free(grid16, seed=11)
        w = random_div_free(grid16, seed=12)
        assert trilinear_b(u, v, w) == pytest.approx(-trilinear_b(u, w, v), rel=1e-11)

    def test_matches_collocation_oracle_small_grid(self, grid4):
        u = random_div_free(grid4, seed=13)
        v = random_div_free(grid4, seed=14)
        w = random_div_free(grid4, seed=15)
        got = trilinear_b(u, v, w)
        want = trilinear_collocation(u, v, w, points=8)
        assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize(
        "K, rule, points", [(6, "two_thirds", 24), (6, "none", 6), (8, "none", 8)]
    )
    def test_matches_collocation_oracle(self, K, rule, points):
        # 3 divides K = 6, where the 2/3 cut is (K-1)//3. Without dealiasing
        # the form is the aliased K-point quadrature, so the oracle sums on
        # those points; under the 2/3 rule any finer quadrature is exact.
        grid = make_grid(K, rule)
        u, v, w = (random_div_free(grid, seed=s) for s in (13, 14, 15))
        want = trilinear_collocation(u, v, w, points=points)
        assert trilinear_b(u, v, w) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("rule", DEALIAS_RULES)
    @pytest.mark.parametrize("K", [16, 32])
    def test_pairs_the_steppers_convective_term(self, K, rule):
        # Leray is self-adjoint and w divergence-free, so b(u, v, w) is the
        # pairing of nonlinear_term(u, v) with w.
        grid = make_grid(K, rule)
        u, v, w = (random_div_free(grid, seed=s) for s in (40, 41, 42))
        want = inner_product(nonlinear_term(u, v), w)
        assert trilinear_b(u, v, w) == pytest.approx(want, rel=1e-12)

    def test_two_mode_fields_against_oracle(self, grid4):
        u = SpectralVectorField.from_modes(grid4, {(1, 0, 0): (0.0, 1.0, 0.0)})
        v = SpectralVectorField.from_modes(
            grid4, {(0, 1, 0): (1.0, 0.0, 0.0), (0, 0, 1): (0.0, 1.0, 0.0)}
        )
        w = SpectralVectorField.from_modes(grid4, {(1, 1, 0): (0.0, 0.0, 1.0)})
        assert trilinear_b(u, v, w) == pytest.approx(
            trilinear_collocation(u, v, w, points=8), abs=1e-12
        )


class TestNonlinearTerm:
    def test_single_shear_self_advection_vanishes(self, grid16):
        u = shear_mode(grid16)
        out = nonlinear_term(u, u)
        assert sobolev_norm(out, 0.0) == 0.0

    def test_zero_advecting_field(self, grid16):
        w = random_div_free(grid16, seed=16)
        out = nonlinear_term(SpectralVectorField.zeros(grid16), w)
        assert sobolev_norm(out, 0.0) == 0.0

    def test_energy_neutral_against_trilinear(self, grid16):
        u = random_div_free(grid16, seed=17)
        w = random_div_free(grid16, seed=18)
        out = nonlinear_term(u, w)
        scale = sobolev_norm(u, 0.0) * sobolev_norm(w, 1.0) * sobolev_norm(w, 0.0)
        assert abs(inner_product(out, w)) <= 1e-12 * scale

    def test_output_invariants(self, grid16):
        u = random_div_free(grid16, seed=19)
        w = random_div_free(grid16, seed=20)
        out = nonlinear_term(u, w)
        assert divergence_error(out) <= 1e-13
        assert np.all(out.coeff[:, 0, 0, 0] == 0.0)
        assert hermitian_defect(out) <= 1e-15 * max(np.abs(out.coeff).max(), 1e-300)

    def test_output_invariants_without_dealiasing(self):
        grid = make_grid(16, "none")
        u = random_div_free(grid, seed=23)
        w = random_div_free(grid, seed=24)
        out = nonlinear_term(u, w)
        assert sobolev_norm(out, 0.0) > 0.0
        assert divergence_error(out) <= 1e-13
        assert np.all(out.coeff[:, 0, 0, 0] == 0.0)
        assert hermitian_defect(out) <= 1e-15 * max(np.abs(out.coeff).max(), 1e-300)


def random_pair(grid, seed):
    rng = np.random.default_rng(seed)
    shape = (3,) + grid.spectral_shape
    return [
        SpectralVectorField(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        for _ in range(2)
    ]


class TestDealiasedInverse:
    @pytest.mark.parametrize("rule", DEALIAS_RULES)
    @pytest.mark.parametrize("K", [4, 6, 8, 12, 14, 16, 18, 32])
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_bytes_equal_numpy_irfftn(self, K, rule, seed):
        grid = make_grid(K, rule)
        u, v = random_pair(grid, seed)
        assert nonlinear_term(u, v).coeff.tobytes() == _nonlinear_reference(u, v).tobytes()


class TestWorkspace:
    def test_concurrent_threads_match_serial_calls(self):
        # K=32 runs in several x-blocks; each thread must use its own buffers.
        grid = make_grid(32)
        inputs = [random_pair(grid, seed) for seed in (31, 32)]
        serial = [nonlinear_term(u, w).coeff.tobytes() for u, w in inputs]
        results = [[], []]
        start = threading.Barrier(2)

        def work(i):
            start.wait(timeout=30)
            u, w = inputs[i]
            for _ in range(6):
                results[i].append(nonlinear_term(u, w).coeff.tobytes())

        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        for i in range(2):
            assert results[i] == [serial[i]] * 6

    def test_grid_switches_rebuild_the_workspace(self):
        for K, rule in [(16, "two_thirds"), (16, "none"), (32, "two_thirds"), (16, "two_thirds")]:
            grid = make_grid(K, rule)
            u, v = random_pair(grid, K)
            assert nonlinear_term(u, v).coeff.tobytes() == _nonlinear_reference(u, v).tobytes()


class TestFieldConstruction:
    def test_from_modes_rejects_zero_mode(self, grid16):
        with pytest.raises(ValueError, match="zero mean"):
            SpectralVectorField.from_modes(grid16, {(0, 0, 0): (1.0, 0.0, 0.0)})

    def test_from_modes_rejects_masked_mode(self, grid16):
        with pytest.raises(ValueError, match="dealias"):
            SpectralVectorField.from_modes(grid16, {(6, 0, 0): (0.0, 1.0, 0.0)})

    def test_negative_k3_maps_to_conjugate(self, grid16):
        a = SpectralVectorField.from_modes(grid16, {(0, 0, 1): (1.0 + 1j, 0.0, 0.0)})
        b = SpectralVectorField.from_modes(grid16, {(0, 0, -1): (1.0 - 1j, 0.0, 0.0)})
        np.testing.assert_array_equal(a.coeff, b.coeff)

    def test_physical_roundtrip(self, grid16):
        w = random_div_free(grid16, seed=21)
        back = SpectralVectorField.from_physical(grid16, w.to_physical())
        assert sobolev_norm(back - w, 0.0) <= 1e-14 * sobolev_norm(w, 0.0)

    def test_parseval(self, grid16):
        w = random_div_free(grid16, seed=22)
        phys = w.to_physical()
        assert (phys**2).sum(axis=0).mean() == pytest.approx(
            sobolev_norm(w, 0.0) ** 2, rel=1e-12
        )
