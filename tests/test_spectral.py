import contextlib
import os
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from deconvbox import (
    FilterParams,
    ModelParams,
    SpectralVectorField,
    divergence_error,
    inner_product,
    leray_project,
    make_grid,
    make_state,
    nonlinear_term,
    sobolev_norm,
    step,
    stokes_apply,
    trilinear_b,
)
from deconvbox.spectral import (
    _convective,
    _gather,
    _mode_energy,
    _norm_from_energy,
    _Run,
    _bound_pool,
    _running,
)
from deconvbox.verify import _nonlinear_reference
from oracles import hermitian_defect, random_div_free, trilinear_collocation


# Hypothesis without its shrink phase: shrinking a failing example reruns the
# convective transforms for minutes; the failing example is reported as drawn.
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)

# A run on a grid of several x-blocks splits its convective kernel over the CPUs of its
# thread's affinity mask; these tests split it in two.
two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="a two-worker kernel needs two CPUs in the mask",
)


@contextlib.contextmanager
def on_cpus(n):
    """Run the block with this thread's mask narrowed to its first n CPUs, where it has one."""
    if not hasattr(os, "sched_getaffinity"):
        yield
        return
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, sorted(mask)[:n])
    try:
        yield
    finally:
        os.sched_setaffinity(0, mask)


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
        amp2 = _mode_energy(w.coeff, grid8.mult)
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

    @pytest.mark.parametrize("K", [12, 16])
    def test_from_physical_writes_positive_zeros_on_masked_modes(self, K):
        # The mask used to be applied as a multiply, which leaves -0.0 on
        # masked modes whose transform is negative.
        grid = make_grid(K)
        values = np.random.default_rng(6).standard_normal((3,) + grid.shape)
        coeff = SpectralVectorField.from_physical(grid, values).coeff
        masked = coeff[:, ~grid.mask]
        assert masked.size and not np.signbit(np.concatenate([masked.real, masked.imag])).any()
        kept = (np.fft.rfftn(values, axes=(1, 2, 3)) / grid.n_points)[:, grid.mask]
        kept[:, 0] = 0.0
        assert coeff[:, grid.mask].tobytes() == kept.tobytes()

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

    @pytest.mark.parametrize("K, points", [(6, 24), (8, 12), (12, 16)])
    def test_matches_collocation_oracle(self, K, points):
        # 3 divides K = 6, where the 2/3 cut is (K-1)//3. A triple product
        # of modes with |k_i| <= cut has |k_i| <= 3 cut, so any quadrature
        # on more than 3 cut points is exact under the 2/3 rule.
        grid = make_grid(K)
        u, v, w = (random_div_free(grid, seed=s) for s in (13, 14, 15))
        want = trilinear_collocation(u, v, w, points=points)
        assert trilinear_b(u, v, w) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("K", [8, 12, 16, 32])
    def test_pairs_the_steppers_convective_term(self, K):
        # Leray is self-adjoint and w divergence-free, so b(u, v, w) is the
        # pairing of nonlinear_term(u, v) with w.
        grid = make_grid(K)
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



def random_pair(grid, seed):
    rng = np.random.default_rng(seed)
    shape = (3,) + grid.spectral_shape
    return [
        SpectralVectorField(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        for _ in range(2)
    ]


class TestDealiasedInverse:
    # Every residue of K mod 6, and K = 36 and 40, where the x-blocks of the
    # convective term split the grid unevenly and evenly.
    @pytest.mark.parametrize(
        "K", [4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32, 36, 40, 48]
    )
    @settings(max_examples=4, deadline=None, phases=NO_SHRINK)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_bytes_equal_numpy_irfftn(self, K, seed):
        grid = make_grid(K)
        u, v = random_pair(grid, seed)
        assert nonlinear_term(u, v).coeff.tobytes() == _nonlinear_reference(u, v).tobytes()

    # One example: the reference irfftn of the full 12-channel stack
    # is the slow part at K=64.
    @settings(max_examples=1, deadline=None, phases=NO_SHRINK)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_bytes_equal_numpy_irfftn_at_k64(self, seed):
        grid = make_grid(64)
        u, v = random_pair(grid, seed)
        assert nonlinear_term(u, v).coeff.tobytes() == _nonlinear_reference(u, v).tobytes()

    @pytest.mark.parametrize("K", [8, 12, 16, 18, 32])
    def test_steady_shears_equal_the_reference_in_every_word(self, K):
        # Their products are -0.0 at some points; the reference masks by
        # selection, so the sign of every zero word must agree too.
        grid = make_grid(K)
        shears = {(1, 0, 0): (0, 1, 1), (2, 0, 0): (0, 1, 0), (0, 1, 0): (1, 0, -1)}
        shears |= {(0, 0, 1): (0.5, -2, 0), (0, 2, 0): (-1, 0, 3)}
        for k, amp in shears.items():
            w = SpectralVectorField.from_modes(grid, {k: amp})
            assert nonlinear_term(w, w).coeff.tobytes() == _nonlinear_reference(w, w).tobytes()

    def test_rounds_add_the_products_as_einsum_does(self):
        # Round i adds u_i d_i v_j into conv. Started from +0.0 that is
        # einsum("ixyz,ijxyz->jxyz") byte for byte; with grad v = +0, where
        # every u_i < 0 all three products are -0.0 and the sum must be +0.0,
        # not the -0.0 a sum started from u_0 d_0 v_j leaves.
        # conv is read from the buffers of the run the calls are made in.
        grid = make_grid(48)
        u, v = random_pair(grid, 5)
        for w in (v, SpectralVectorField.zeros(grid)):
            with _running(grid) as run:
                _convective(_gather(u.coeff, grid), _gather(w.coeff, grid), grid, run)
                conv = run.conv
            parts = [u.coeff * grid.mask] + [(1j * k) * (w.coeff * grid.mask) for k in grid.kvec]
            phys = np.fft.irfftn(np.concatenate(parts), s=grid.shape, axes=(1, 2, 3))
            phys *= grid.n_points
            want = np.einsum("ixyz,ijxyz->jxyz", phys[0:3], phys[3:12].reshape(3, 3, *grid.shape))
            assert conv.tobytes() == want.tobytes()
        assert (phys[0:3] < 0.0).all(axis=0).any() and not np.signbit(phys[3:12]).any()


def shifted(w, n):
    """w(x - 2 pi n / K): a shift by whole grid points is an exact lattice phase."""
    grid = w.grid
    k_dot_n = grid.kx * n[0] + grid.ky * n[1] + grid.kz * n[2]
    return SpectralVectorField(grid, w.coeff * np.exp(-2j * np.pi * k_dot_n / grid.K))


def swapped(w):
    """w with x and y exchanged: its first two components and the kx, ky axes."""
    return SpectralVectorField(w.grid, w.coeff[[1, 0, 2]].transpose(0, 2, 1, 3).copy())


def assert_close(got, want, rel=1e-13):
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


class TestGridSymmetries:
    # The box is invariant under shifts by whole grid points and under x <-> y,
    # so both must commute with the discrete convective term and with a step
    # under the transformed forcing; a layout slip in the pruned transforms
    # (a swapped half, a wrong-signed derivative factor) breaks one of them.
    @pytest.mark.parametrize("K", [10, 12, 14, 16, 18, 20])
    @settings(max_examples=3, deadline=None, phases=NO_SHRINK)
    @given(seed=st.integers(0, 2**16), n=st.tuples(*[st.integers(0, 17)] * 3))
    def test_nonlinear_term_commutes(self, K, seed, n):
        grid = make_grid(K)
        u, w = random_div_free(grid, seed), random_div_free(grid, seed + 1)
        for transform in (lambda f: shifted(f, n), swapped):
            got = nonlinear_term(transform(u), transform(w)).coeff
            assert_close(got, transform(nonlinear_term(u, w)).coeff)

    @pytest.mark.parametrize("K", [10, 12, 14, 16, 18, 20])
    @settings(max_examples=3, deadline=None, phases=NO_SHRINK)
    @given(seed=st.integers(0, 2**16), n=st.tuples(*[st.integers(0, 17)] * 3))
    def test_step_commutes_under_the_transformed_forcing(self, K, seed, n):
        grid = make_grid(K)
        forcing, w = random_div_free(grid, seed, 0.5), random_div_free(grid, seed + 1)

        def stepped(f, w0):
            model = ModelParams(nu=0.3, filters=FilterParams(0.5, 2), forcing=f)
            return step(make_state(0.0, w0, model), 0.05).w

        for transform in (lambda f: shifted(f, n), swapped):
            got = stepped(transform(forcing), transform(w)).coeff
            assert_close(got, transform(stepped(forcing, w)).coeff)


def _negated_axis(c, axis):
    """c with index i of `axis` moved to (-i) % K: k -> -k along that lattice axis."""
    return np.roll(np.flip(c, axis=axis), 1, axis=axis)


def reflected(w, axis):
    """w mirrored in x_axis -> -x_axis: component `axis` changes sign and so does k_axis.
    kz is the half axis, so for z each stored (k1, k2, k3) comes from the conjugate of the
    stored (-k1, -k2, k3), which stands for (k1, k2, -k3)."""
    c = w.coeff.copy()
    c[axis] *= -1.0
    if axis < 2:
        c = _negated_axis(c, axis + 1)
    else:
        c = np.conj(_negated_axis(_negated_axis(c, 1), 2))
    return SpectralVectorField(w.grid, np.ascontiguousarray(c))


class TestReflections:
    # The box is invariant under x -> -x, y -> -y and z -> -z: the Leray
    # projection, H_N, the convective term and a step (under the mirrored
    # forcing) commute with each mirror, and the norms are unchanged by it.
    # A lattice slip that is not odd in k (a wrong entry of ret_k or ret_ik)
    # breaks this, though it keeps shifts and the x <-> y swap.
    @pytest.mark.parametrize("K", [10, 12, 14, 16, 18, 20])
    def test_operators_commute_with_each_mirror_and_norms_keep(self, K):
        grid = make_grid(K)
        rng = np.random.default_rng(K)
        raw = SpectralVectorField.from_physical(grid, rng.standard_normal((3,) + grid.shape))
        u, w = random_div_free(grid, K), random_div_free(grid, K + 1)
        filters = FilterParams(0.5, 2)
        for axis in range(3):
            mirror = lambda f: reflected(f, axis)  # noqa: E731
            assert_close(leray_project(mirror(raw)).coeff, mirror(leray_project(raw)).coeff)
            assert_close(filters.apply(mirror(raw)).coeff, mirror(filters.apply(raw)).coeff)
            for s in (0.0, 1.0, 2.0):
                assert sobolev_norm(mirror(raw), s) == pytest.approx(
                    sobolev_norm(raw, s), rel=1e-13, abs=0.0
                )
            got = nonlinear_term(mirror(u), mirror(w)).coeff
            assert_close(got, mirror(nonlinear_term(u, w)).coeff)

    @pytest.mark.parametrize("K", [10, 12, 14, 16, 18, 20])
    def test_step_commutes_under_the_mirrored_forcing(self, K):
        grid = make_grid(K)
        forcing, w = random_div_free(grid, K, 0.5), random_div_free(grid, K + 1)

        def stepped(f, w0):
            model = ModelParams(nu=0.3, filters=FilterParams(0.5, 2), forcing=f)
            return step(make_state(0.0, w0, model), 0.05).w

        for axis in range(3):
            got = stepped(reflected(forcing, axis), reflected(w, axis)).coeff
            assert_close(got, reflected(stepped(forcing, w), axis).coeff)


class TestWorkspace:
    def test_concurrent_threads_match_serial_calls(self):
        # K=48 runs in x-blocks of 14, 14, 14 and 6 planes; each thread must
        # use its own buffers, and each call must clear what the last left.
        grid = make_grid(48)
        assert _Run(grid).planes == 14
        inputs = [[random_pair(grid, seed), random_pair(grid, seed + 10)] for seed in (31, 32)]
        serial = [[nonlinear_term(u, w).coeff.tobytes() for u, w in pairs] for pairs in inputs]
        results = [[], []]
        start = threading.Barrier(2)

        def work(i):
            start.wait(timeout=30)
            for j in range(6):
                results[i].append(nonlinear_term(*inputs[i][j % 2]).coeff.tobytes())

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
            assert results[i] == serial[i] * 3

    @pytest.mark.parametrize("K", [32, 48, 64])
    def test_alternating_fields_leave_no_stale_lines(self, K):
        # by_ky's middle ky rows hold the last ky pass's and the forward
        # spectrum's output when a call or round starts; each round must
        # zero them again, or the next call reads them as retained data.
        grid = make_grid(K)
        pairs = [random_pair(grid, seed) for seed in (35, 36)]
        want = [_nonlinear_reference(u, w).tobytes() for u, w in pairs]
        for j in range(5):
            assert nonlinear_term(*pairs[j % 2]).coeff.tobytes() == want[j % 2], j

    @pytest.mark.parametrize(
        "K, split",
        [(32, False), (48, False), (64, False),
         pytest.param(48, True, marks=two_cpus), pytest.param(64, True, marks=two_cpus)],
    )
    def test_warm_call_allocates_little_beyond_its_result(self, K, split):
        # A warm call in a run allocates its (3, M) result, one gather and small
        # temporaries, 1.17x the result at these K; a full-size buffer made
        # per call would far exceed the 1.25x budget. tracemalloc sees the
        # pool threads' allocations too, and the split's hand-offs are small.
        # An unsplit run is entered on one CPU.
        grid = make_grid(K)
        u, v = (_gather(f.coeff, grid) for f in random_pair(grid, 37))
        with on_cpus(2 if split else 1), _running(grid) as run:
            assert run.workers == (2 if split else 1)
            _convective(u, v, grid, run)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                out = _convective(u, v, grid, run)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak - base <= 1.25 * out.nbytes

    def test_each_call_returns_its_own_array(self):
        # The result is not a workspace buffer: a second call on the same
        # thread returns another array and leaves the first result as it was.
        grid = make_grid(16)
        calls = [[_gather(f.coeff, grid) for f in random_pair(grid, seed)] for seed in (33, 34)]
        first = _convective(*calls[0], grid)
        kept = first.tobytes()
        second = _convective(*calls[1], grid)
        assert not np.shares_memory(first, second)
        assert first.tobytes() == kept != second.tobytes()

    @pytest.mark.parametrize(
        "K, workers, total",
        [(32, 1, 2_670_592), (64, 1, 13_828_096), (32, 2, 3_719_168), (64, 2, 14_876_672)],
    )
    def test_buffers_hold_no_column_stack(self, K, workers, total):
        # The kx pass fills one channel at a time: no (12, 2c+1, c+1, K)
        # stack of every channel's columns sits beside the other buffers,
        # which with one totalled 45,255,456 B at K=64. The inverse runs in
        # rounds of 4 channels, so by_ky holds 4 (a 12-channel one took the
        # total to 34,599,712 B). by_ky and chat share one buffer, and the kz
        # pass reads by_ky, so no by_kz copy is kept (with both, 21,645,312 B).
        # Each worker's kx line buffer shares its physical block, which is the
        # larger: a further worker adds 1,048,576 B (with its own line,
        # 118,272 B more at K=32 and 968,704 B more at K=64).
        grid = make_grid(K)
        c = grid.cut
        ws = _Run(grid, [None] * workers)  # buffers only: no phase is dealt
        assert len(ws.line) == len(ws.phys) == workers
        arrays = [a for v in vars(ws).values() for a in (v if isinstance(v, list) else [v])]
        arrays = [a for a in arrays if isinstance(a, np.ndarray)]
        assert all(a.shape != (12, 2 * c + 1, c + 1, K) for a in arrays)
        assert ws.by_ky.shape == (4, K, c + 1, K) and not hasattr(ws, "by_kz")
        assert np.shares_memory(ws.by_ky, ws.chat)
        assert all(np.shares_memory(line, phys) for line, phys in zip(ws.line, ws.phys))
        assert not any(np.shares_memory(ws.line[0], phys) for phys in ws.phys[1:])
        bases = {id(b): b for b in (a if a.base is None else a.base for a in arrays)}
        assert sum(b.nbytes for b in bases.values()) == total

    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=two_cpus)])
    @pytest.mark.parametrize("K", [16, 36, 48, 64])
    def test_a_workspace_of_nans_gives_the_clean_bytes(self, K, workers):
        # Every run and every bare call starts from a fresh np.empty workspace, so the
        # kernel must write each word of it before reading it.
        grid = make_grid(K)
        u, v = (_gather(f.coeff, grid) for f in random_pair(grid, 39))
        got = [_convective(u, v, grid)]
        for fill in (0.0, np.nan):
            with _bound_pool(workers) as pool:
                run = _Run(grid, pool)
                assert run.workers == workers
                for value in vars(run).values():
                    for a in value if isinstance(value, list) else [value]:
                        if isinstance(a, np.ndarray):
                            a.view(np.float64).fill(fill)
                got.append(_convective(u, v, grid, run))
        assert got[1].tobytes() == got[2].tobytes() == got[0].tobytes()
        assert not np.isnan(got[0]).any()

    def test_grid_switches_rebuild_the_workspace(self):
        for K in [16, 32, 16]:
            grid = make_grid(K)
            u, v = random_pair(grid, K)
            assert nonlinear_term(u, v).coeff.tobytes() == _nonlinear_reference(u, v).tobytes()


class TestWorkers:
    # K=36 and 40 have two x-blocks of 25 and 20 planes, so two workers take one
    # 18- or 20-plane range each; at K=48 each takes 24 planes as blocks of 14 and 10,
    # and at K=64 32 planes as 4 blocks of 8.
    @two_cpus
    @pytest.mark.parametrize("K", [36, 40, 48, 64])
    def test_two_workers_equal_one_and_the_reference(self, K):
        grid = make_grid(K)
        u, v = random_pair(grid, K)
        ur, vr = _gather(u.coeff, grid), _gather(v.coeff, grid)
        one, projected = _convective(ur, vr, grid), nonlinear_term(u, v)
        with _running(grid) as run:
            assert run.workers == 2
            two = _convective(ur, vr, grid, run)
            assert nonlinear_term(u, v).coeff.tobytes() == projected.coeff.tobytes()
        assert two.tobytes() == one.tobytes()
        assert projected.coeff.tobytes() == _nonlinear_reference(u, v).tobytes()

    def test_a_one_block_grid_starts_no_worker(self):
        # K=32 is one block of 32 planes: splitting it made the kx phase slower.
        with _running(make_grid(32)) as run:
            assert run.workers == 1 and run.pool is None

    def test_more_workers_than_cpus_on_a_short_switch_interval_equal_one(self):
        # Four workers (a channel and 16 planes each), on unbound threads of one shared
        # executor switching as often as the interpreter allows: a worker that wrote
        # outside its own channels, planes or buffers would change the bytes.
        grid = make_grid(64)
        u, v = (_gather(f.coeff, grid) for f in random_pair(grid, 38))
        one = _convective(u, v, grid)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                run = _Run(grid, [pool] * 4)
                split = [_convective(u, v, grid, run).tobytes() for _ in range(3)]
        finally:
            sys.setswitchinterval(old)
        assert split == [one.tobytes()] * 3

    @two_cpus
    def test_an_error_is_raised_after_every_worker_finished(self):
        # No worker may still write into the buffers when the caller moves on.
        finished = []

        def phase(w):
            if w == failing:
                raise ValueError(f"worker {w} failed")
            threading.Event().wait(0.05)
            finished.append(w)

        with _running(make_grid(64)) as run:
            assert run.workers == 2
            for failing in (0, 1):
                finished.clear()
                with pytest.raises(ValueError, match=f"worker {failing} failed"):
                    run.deal(phase)
                assert finished == [1 - failing]


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
