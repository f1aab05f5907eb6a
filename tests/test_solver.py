import dataclasses
import gc
import math
import os
import re
import resource
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from deconvbox import (
    BlowUpError,
    ConfigError,
    FieldSpec,
    FilterParams,
    ModelParams,
    SolverConfig,
    SolverState,
    SpectralVectorField,
    Trajectory,
    divergence_error,
    energy_refinement_study,
    g_symbol,
    generate_ic,
    hn_symbol,
    initial_state,
    leray_project,
    make_grid,
    make_state,
    nonlinear_term,
    parse_config,
    simulate,
    simulate_with_state,
    sobolev_norm,
    step,
)
from deconvbox import solver, spectral
from deconvbox.spectral import _gather
from oracles import hermitian_defect, masked_shear, random_div_free


def shear(grid, amp=(0.0, 1.0, 0.0)):
    return SpectralVectorField.from_modes(grid, {(1, 0, 0): amp})


@pytest.fixture()
def params16(grid16):
    return ModelParams(nu=1.0, filters=FilterParams(1.0, 0), grid=grid16)


class TestModelParams:
    @pytest.mark.parametrize(
        "index, amp, named",
        [
            # beyond the 2/3 cut 5 along each axis; on k3 = 0 with its conjugate
            ([(7, 0, 0), (9, 0, 0)], (0.0, 1.0, 0.0), r"\(7, 0, 0\).*<= 5"),
            ([(0, 10, 1)], (1.0, 0.0, 0.0), r"\(0, -6, 1\).*<= 5"),
            ([(1, 0, 6)], (0.0, 1.0, 0.0), r"\(1, 0, 6\).*<= 5"),
        ],
    )
    def test_rejects_forcing_on_masked_modes(self, grid16, index, amp, named):
        forcing = shear(grid16)
        for i in index:
            forcing.coeff[(slice(None),) + i] = amp
        assert divergence_error(forcing) == 0.0
        with pytest.raises(ValueError, match=named):
            ModelParams(nu=1.0, filters=FilterParams(0.5, 1), forcing=forcing)

    @pytest.mark.parametrize("nu", [0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_rejects_a_viscosity_not_positive_and_finite(self, nu):
        with pytest.raises(ValueError) as exc:
            ModelParams(nu=nu, filters=FilterParams(0.5, 1))
        assert str(exc.value) == f"viscosity must be positive and finite, got {nu}"

    def test_grid_comes_from_the_forcing_or_the_grid_argument(self, grid16):
        filters = FilterParams(0.5, 1)
        with pytest.raises(ValueError) as exc:
            ModelParams(nu=1.0, filters=filters)
        assert str(exc.value) == "an unforced model needs a grid: pass grid=make_grid(K)"
        forcing = random_div_free(grid16, seed=67, target=0.3)
        assert ModelParams(1.0, filters, forcing, make_grid(16)).grid is grid16
        with pytest.raises(ValueError) as exc:
            ModelParams(nu=1.0, filters=filters, forcing=forcing, grid=make_grid(8))
        assert str(exc.value) == (
            "the forcing and the grid argument live on different grids: K = 16 and K = 8"
        )
        unforced = ModelParams(nu=1.0, filters=filters, grid=make_grid(8))
        named = "the field and the model live on different grids: K = 16 and K = 8"
        with pytest.raises(ValueError, match="^" + re.escape(named) + "$"):
            initial_state(random_div_free(grid16, seed=68), unforced)

    @pytest.mark.parametrize("K", [8, 12])
    def test_accepts_forcing_on_retained_modes(self, K):
        grid = make_grid(K)
        forcing = shear(grid)
        forcing.coeff *= grid.mask  # signed zeros on the masked modes are no content
        ModelParams(nu=1.0, filters=FilterParams(0.5, 1), forcing=forcing)

    @pytest.mark.parametrize("name", ["nu", "filters", "grid", "hn_r", "hn_forcing_r", "f_norm"])
    def test_fields_cannot_be_assigned(self, grid16, name):
        # A frozen dataclass rejects any name, so check that each one is a field.
        assert name in {f.name for f in dataclasses.fields(ModelParams)}
        model = ModelParams(
            nu=1.0, filters=FilterParams(0.5, 1), forcing=random_div_free(grid16, seed=60)
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(model, name, None)

    def test_keeps_what_runs_read_and_not_the_forcing(self, grid16):
        forcing = random_div_free(grid16, seed=61, target=0.3)
        model = ModelParams(nu=1.0, filters=FilterParams(0.5, 1), forcing=forcing)
        assert not hasattr(model, "forcing")
        assert model.f_norm == sobolev_norm(forcing, 0.0)
        hn_f = model.filters.apply(forcing).coeff
        assert model.grid is grid16
        assert model.hn_forcing_r.tobytes() == hn_f.reshape(3, -1)[:, grid16.ret_flat].tobytes()
        assert not model.hn_forcing_r.flags.writeable
        with pytest.raises(AttributeError):  # not a silently unforced copy
            dataclasses.replace(model, nu=2.0)
        again = dataclasses.replace(model, nu=2.0, forcing=forcing)
        assert again.hn_forcing_r.tobytes() == model.hn_forcing_r.tobytes()
        hn = hn_symbol(grid16.ksq, 0.5, 1).astype(np.complex128).reshape(-1)[grid16.ret_flat]
        assert model.hn_r.tobytes() == hn.tobytes() and not model.hn_r.flags.writeable
        unforced = ModelParams(nu=1.0, filters=FilterParams(0.5, 1), grid=grid16)
        assert (unforced.grid, unforced.hn_forcing_r, unforced.f_norm) == (grid16, None, 0.0)
        assert unforced.hn_r.tobytes() == hn.tobytes()


    @pytest.mark.parametrize("K, nbytes", [(32, 232_848 + 77_616), (64, 1_952_544 + 650_848)])
    def test_holds_no_array_but_the_retained_truncated_forcing(self, K, nbytes):
        # A kept model carries no full-layout copy: of all the arrays it holds
        # (its shared grid's tables aside), only the H_N symbol and H_N f on the
        # M retained modes.
        def held(obj, grid):
            found = []
            for value in vars(obj).values():
                if isinstance(value, np.ndarray):
                    found.append(value)
                elif hasattr(value, "__dict__") and value is not grid:
                    found += held(value, grid)
            return found

        grid = make_grid(K)
        forcing = random_div_free(grid, seed=65, target=0.3)
        model = ModelParams(nu=1.0, filters=FilterParams(0.5, 1), forcing=forcing)
        assert [id(a) for a in held(model, grid)] == [id(model.hn_r), id(model.hn_forcing_r)]
        assert model.hn_r.nbytes + model.hn_forcing_r.nbytes == nbytes
        assert model.hn_r.base is None and model.hn_forcing_r.base is None
        assert model.grid is grid


class TestInitialState:
    def test_zero_data(self, grid16, params16):
        state = initial_state(SpectralVectorField.zeros(grid16), params16)
        assert state.t == 0.0
        assert sobolev_norm(state.w, 0.0) == 0.0

    def test_unit_shell_halved(self, grid16, params16):
        # delta=1, N=0 at |k|=1: truncation symbol is 1/2
        state = initial_state(shear(grid16), params16)
        np.testing.assert_allclose(state.w.coeff, 0.5 * shear(grid16).coeff, atol=1e-16)

    def test_never_expands(self, grid16):
        params = ModelParams(nu=0.5, filters=FilterParams(0.3, 4), grid=grid16)
        for seed in range(5):
            u0 = random_div_free(grid16, seed=seed)
            state = initial_state(u0, params)
            assert sobolev_norm(state.w, 0.0) <= sobolev_norm(u0, 0.0)

    @pytest.mark.parametrize("K", [16, 12])
    def test_rejects_a_field_off_the_forced_grid(self, K):
        forcing = random_div_free(make_grid(8), seed=62, target=0.3)
        model = ModelParams(nu=1.0, filters=FilterParams(0.5, 1), forcing=forcing)
        u0 = random_div_free(make_grid(K), seed=63)
        named = f"the field and the forcing live on different grids: K = {K} and K = 8"
        with pytest.raises(ValueError, match="^" + re.escape(named) + "$"):
            initial_state(u0, model)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(math.nan, 0.0)])
    def test_rejects_non_finite_data_naming_the_mode(self, grid16, params16, bad):
        # A NaN passes the divergence check (nan > tol is False); the first
        # non-finite mode in the stored (kx, ky, kz) order is named.
        u0 = random_div_free(grid16, seed=64)
        u0.coeff[2, -3, 2, 1] = bad
        u0.coeff[0, 4, -1, 0] = bad
        with pytest.raises(ValueError) as exc:
            initial_state(u0, params16)
        assert str(exc.value) == (
            "initial condition has a non-finite coefficient at mode (4, -1, 0)"
        )

    def test_rejects_divergent_data(self, grid16, params16):
        bad = SpectralVectorField.from_modes(grid16, {(1, 0, 0): (1.0, 1.0, 0.0)})
        with pytest.raises(ValueError, match="divergence-free.*; project it with leray_project$"):
            initial_state(bad, params16)

    def test_leray_projected_data_accepted(self, grid16, params16):
        bad = SpectralVectorField.from_modes(grid16, {(1, 0, 0): (1.0, 1.0, 0.0)})
        state = initial_state(leray_project(bad), params16)
        # projection keeps only the transverse part, then H_N halves it
        np.testing.assert_allclose(state.w.coeff[:, 1, 0, 0], [0.0, 0.5, 0.0], atol=1e-15)
        assert divergence_error(state.w) <= 1e-13


class TestStep:
    def test_rest_state_stays(self, grid16, params16):
        state = initial_state(SpectralVectorField.zeros(grid16), params16)
        new = step(state, 0.1)
        assert sobolev_norm(new.w, 0.0) == 0.0
        assert new.t == pytest.approx(0.1)

    def test_exact_single_mode_decay(self, grid16, params16):
        state = initial_state(shear(grid16), params16)
        w0 = state.w.coeff.copy()
        dt = 0.05
        for _ in range(40):
            state = step(state, dt)
        exact = w0 * math.exp(-params16.nu * state.t)
        rel = np.abs(state.w.coeff - exact).max() / np.abs(exact).max()
        assert rel <= 1e-12

    def test_second_order_self_convergence(self, grid8):
        # 2-mode data with genuine nonlinear transfer (two aligned shears
        # form a steady pair whose interaction the projection removes, so
        # the amplitudes here sit in different components); reference run
        # at dt/64
        params = ModelParams(nu=0.05, filters=FilterParams(0.5, 1), grid=grid8)
        u0 = SpectralVectorField.from_modes(
            grid8, {(1, 0, 0): (0.0, 1.0, 0.0), (0, 1, 0): (0.0, 0.0, 1.0)}
        )
        T, dt0 = 0.25, 0.025

        def run(dt):
            state = initial_state(u0, params)
            for _ in range(round(T / dt)):
                state = step(state, dt)
            return state.w

        ref = run(dt0 / 64)
        e1 = sobolev_norm(run(dt0) - ref, 0.0)
        e2 = sobolev_norm(run(dt0 / 2) - ref, 0.0)
        slope = math.log2(e1 / e2)
        assert 1.7 <= slope <= 2.3

    def test_rejects_bad_dt(self, grid16, params16):
        state = initial_state(shear(grid16), params16)
        with pytest.raises(ValueError):
            step(state, 0.0)

    def test_invariants_preserved_over_steps(self, grid16):
        f = random_div_free(grid16, seed=42, target=0.3)
        params = ModelParams(nu=0.2, filters=FilterParams(0.5, 2), forcing=f)
        state = initial_state(random_div_free(grid16, seed=43), params)
        for _ in range(20):
            state = step(state, 0.02)
        assert divergence_error(state.w) <= 1e-13
        assert np.all(state.w.coeff[:, 0, 0, 0] == 0.0)
        scale = np.abs(state.w.coeff).max()
        assert hermitian_defect(state.w) <= 1e-15 * scale

    def test_unforced_energy_monotone(self, grid16):
        params = ModelParams(nu=0.1, filters=FilterParams(0.5, 1), grid=grid16)
        state = initial_state(random_div_free(grid16, seed=44, target=2.0), params)
        prev = sobolev_norm(state.w, 0.0) ** 2
        for _ in range(30):
            state = step(state, 0.01)
            cur = sobolev_norm(state.w, 0.0) ** 2
            assert cur <= prev + 1e-8 * prev
            prev = cur


class TestSimulate:
    def test_zero_everything(self):
        cfg = SolverConfig(K=8, nu=1.0, delta=1.0, order=1, dt=0.01, T=0.1)
        traj = simulate(cfg)
        assert np.all(traj.h0_sq == 0.0)
        assert np.all(traj.energy_residual == 0.0)
        assert np.all(traj.absorb_bound == 0.0)

    def test_unforced_h0_nonincreasing(self):
        cfg = SolverConfig(
            K=16, nu=0.5, delta=0.5, order=2, dt=0.01, T=0.3,
            ic=FieldSpec(kind="random_spectrum", seed=45, target_norm=1.5),
        )
        traj = simulate(cfg)
        assert np.all(np.diff(traj.h0_sq) <= 1e-10)

    @pytest.mark.parametrize(
        "keys, message",
        [
            ({"dt": 0.0}, "dt: must be positive, got 0.0"),
            ({"dt": -0.5}, "dt: must be positive, got -0.5"),
            ({"dt": math.nan}, "dt: expected a finite number, got nan"),
            ({"T": math.inf}, "T: expected a finite number, got inf"),
            ({"T": -1.0}, "T: must be nonnegative, got -1.0"),
            ({"sample_every": 0}, "sample_every: must be at least 1, got 0"),
            ({"sample_every": 2.5}, "sample_every: expected an integer, got 2.5"),
            ({"sample_every": True}, "sample_every: expected an integer, got True"),
        ],
    )
    def test_bad_stepping_keys_rejected_up_front(self, monkeypatch, keys, message):
        # A directly built config is checked as parse_config checks its text, when it is
        # built: no model is built and no state is read.
        good = SolverConfig(K=8, nu=1.0, delta=1.0, order=1)
        monkeypatch.setattr(solver, "build_model", lambda config: pytest.fail("model built"))
        monkeypatch.setattr(solver, "_retained", lambda state: pytest.fail("state read"))
        for build in (lambda: SolverConfig(K=8, nu=1.0, delta=1.0, order=1, **keys),
                      lambda: dataclasses.replace(good, **keys)):
            with pytest.raises(ConfigError) as exc:
                build()
            assert str(exc.value) == message
        (key, value), = keys.items()
        text = f"K = 8\nnu = 1\ndelta = 1\nN = 1\n{key} = {value}\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        # Text that does not parse is quoted.
        quoted = message.replace(f"got {value}", f"got {str(value)!r}")
        assert str(exc.value) == (quoted if ": expected " in message else message)

    def test_sampling_cadence_and_final_time(self):
        cfg = SolverConfig(
            K=8, nu=1.0, delta=1.0, order=0, dt=0.01, T=0.1, sample_every=4,
            ic=FieldSpec(kind="single_mode", mode=(1, 0, 0), amplitude=(0.0, 1.0, 0.0)),
        )
        traj = simulate(cfg)
        # samples at steps 0, 4, 8 and the forced final step 10
        assert traj.t == pytest.approx([0.0, 0.04, 0.08, 0.10], abs=1e-12)

    def test_blow_up_carries_partial_trajectory(self):
        cfg = SolverConfig(
            K=16, nu=1e-4, delta=0.5, order=1, dt=5.0, T=50.0,
            ic=FieldSpec(kind="random_spectrum", seed=46, target_norm=10.0),
        )
        with pytest.warns(RuntimeWarning):  # advisory CFL fires first
            with pytest.raises(BlowUpError) as exc:
                simulate(cfg)
        assert exc.value.trajectory is not None
        assert len(exc.value.trajectory) >= 1
        assert exc.value.t_last >= 0.0

    @pytest.mark.filterwarnings("error")
    def test_overflowing_delta_squared_runs(self):
        # delta^2 is inf: H_N is 1 on the mean mode and 0 elsewhere, so the
        # run stays at zero instead of meeting a NaN mean-mode symbol.
        cfg = SolverConfig(
            K=8, nu=1.0, delta=1e200, order=1, dt=0.01, T=0.05,
            ic=FieldSpec(kind="random_spectrum", seed=47, target_norm=1.0),
        )
        traj = simulate(cfg)
        assert len(traj) == 6
        assert np.all(traj.h0_sq == 0.0)

    def test_leray_alpha_reduction_at_order_zero(self, grid16):
        # N=0 turns the truncation into the plain filter, symbol-for-symbol
        hn = hn_symbol(grid16.ksq, 0.7, 0)
        g = g_symbol(grid16.ksq, 0.7)
        assert np.abs(hn - g).max() <= 1e-15


def cfl_warnings(cfg, state):
    """The messages of the warnings a run from `state` raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        simulate(cfg, initial=state)
    return [str(w.message) for w in caught]


def full_layout_bound(u):
    """The velocity bound over every stored mode of a field, masked or not."""
    return solver._velocity_bound(u.coeff.reshape(3, -1), u.grid.mult.reshape(-1))


def run_bound(state):
    """The bound a run certifies its CFL number with: H_N w on the retained modes."""
    grid = state.model.grid
    return solver._velocity_bound(solver._retained(state) * state.model.hn_r, grid.ret_mult)


class TestCflCertificate:
    SINGLE = FieldSpec(kind="single_mode", mode=(1, -2, 1), amplitude=(2.0, 1.0, 0.0))

    @pytest.mark.parametrize("K", [12, 18])
    def test_bound_covers_the_grid_maximum(self, K):
        grid = make_grid(K)
        rng = np.random.default_rng(70)
        shape = (3,) + grid.spectral_shape
        # Unmasked and not Hermitian on the k3 = 0 and Nyquist planes too.
        raw = SpectralVectorField(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        fields = [raw] + [random_div_free(grid, seed=s, target=3.0) for s in (71, 72)]
        for u in fields:
            assert np.abs(u.to_physical()).max(axis=(1, 2, 3)).max() <= full_layout_bound(u)

    @pytest.mark.parametrize("mode", [(1, 0, 0), (2, -3, 0), (1, -2, 1), (3, 3, 3)])
    def test_bound_is_tight_on_a_single_mode(self, grid16, mode):
        k = np.asarray(mode, dtype=float)
        amp = np.cross(k, (0.3, 1.0, -0.7))  # real: the cosine peaks on the grid
        u = SpectralVectorField.from_modes(grid16, {mode: amp})
        umax = float(np.abs(u.to_physical()).max())
        assert umax == pytest.approx(2.0 * np.abs(amp).max(), rel=1e-14)
        u_r = _gather(u.coeff, grid16)
        assert solver._velocity_bound(u_r, grid16.ret_mult) == pytest.approx(umax, rel=1e-14)

    @pytest.mark.parametrize(
        "ic", [SINGLE, FieldSpec(kind="random_spectrum", seed=73, target_norm=4.0)]
    )
    def test_warns_exactly_when_the_exact_check_does(self, ic):
        cfg = SolverConfig(K=8, nu=1.0, delta=0.5, order=1, T=0.0, ic=ic)
        state = solver._start_state(cfg)
        umax = float(np.abs(state.hn_w.to_physical()).max())
        crossing = 1.0 / (umax * cfg.K)
        bound = run_bound(state)
        factors = (0.5, 0.9, 0.999, 1.0 - 1e-12, 1.0, 1.0 + 1e-9, 1.001, 1.5, 4.0)
        assert bound > umax * (1.0 + 1e-3) or ic is self.SINGLE
        for dt in [f * crossing for f in factors] + [f / (bound * cfg.K) for f in factors]:
            cfl = dt * umax * cfg.K
            want = [f"advisory CFL number {cfl:.2f} exceeds 1; the run may be inaccurate"]
            assert cfl_warnings(dataclasses.replace(cfg, dt=dt), state) == want * (cfl > 1.0)

    def test_certified_run_makes_no_transform(self, monkeypatch):
        calls = []
        to_physical = SpectralVectorField.to_physical

        def counted(self):
            calls.append(self)
            return to_physical(self)

        monkeypatch.setattr(SpectralVectorField, "to_physical", counted)
        cfg = SolverConfig(K=8, nu=1.0, delta=0.5, order=1, T=0.0, ic=self.SINGLE)
        state = solver._start_state(cfg)
        certified = 0.99 / (run_bound(state) * cfg.K)
        assert cfl_warnings(dataclasses.replace(cfg, dt=certified), state) == []
        assert calls == []
        cfl_warnings(dataclasses.replace(cfg, dt=certified * 1.02), state)
        assert len(calls) == 1


class TestMaskedContent:
    # Each entry point that takes a caller's field rejects content on a mode
    # the dealias mask drops, naming the first such mode and the cut, since
    # a step keeps only the retained modes. -0.0 is no content.
    @pytest.mark.parametrize("K", [8, 16])
    def test_rejected_naming_the_mode_and_the_cut(self, K):
        u, named = masked_shear(1.0, K)
        model = ModelParams(nu=1.0, filters=FilterParams(0.5, 1), grid=u.grid)
        with pytest.raises(ValueError, match="^initial condition has content on mode " + named):
            initial_state(u, model)
        field_named = "^the state's field has content on mode " + named
        with pytest.raises(ValueError, match=field_named):
            make_state(0.0, u, model)
        state = initial_state(masked_shear(0.0, K)[0], model)
        for given in (SolverState(0.0, u, model), dataclasses.replace(state, w=u)):
            with pytest.raises(ValueError, match=field_named):
                step(given, 0.01)

    @pytest.mark.parametrize("K", [8, 16])
    def test_negative_zero_is_no_content(self, K):
        u, _ = masked_shear(-0.0, K)
        model = ModelParams(nu=1.0, filters=FilterParams(0.5, 1), grid=u.grid)
        for state in (initial_state(u, model), make_state(0.0, u, model)):
            w = step(state, 0.01).w.coeff
            assert not np.ascontiguousarray(w[:, ~u.grid.mask]).view(np.uint64).any()

    def test_a_read_w_is_a_copy_of_a_stepped_state(self, grid16):
        # Each read of a stepped state's w builds a new field: changing it,
        # even to content on a masked mode, leaves the state as it was.
        model = ModelParams(nu=0.5, filters=FilterParams(0.3, 4), grid=grid16)
        state = step(initial_state(random_div_free(grid16, seed=66), model), 0.01)
        want = step(state, 0.01).w.coeff.tobytes()
        w = state.w
        w.coeff[1, 1, 0, 0] += 0.1  # transverse to k = (1, 0, 0)
        w.coeff[1, 8, 0, 0] = 1.0  # beyond the cut
        assert state.w is not w and "w" not in vars(state)
        assert step(state, 0.01).w.coeff.tobytes() == want


class TestStateCarriesItsModel:
    def test_step_keeps_the_state_model(self, grid16):
        f = random_div_free(grid16, seed=64, target=0.3)
        model = ModelParams(nu=0.2, filters=FilterParams(0.5, 2), forcing=f)
        state = initial_state(random_div_free(grid16, seed=65), model)
        new = step(state, 0.01)
        assert new.model is state.model
        assert step(new, 0.01).model is model

    def test_hn_w_follows_a_replaced_w(self, grid16):
        model = ModelParams(nu=0.5, filters=FilterParams(0.3, 4), grid=grid16)
        state = initial_state(random_div_free(grid16, seed=70), model)
        other = random_div_free(grid16, seed=71)
        got = dataclasses.replace(state, w=other).hn_w
        assert got.coeff.tobytes() == model.filters.apply(other).coeff.tobytes()

    def test_filter_applications_do_not_grow_with_steps(self, monkeypatch):
        calls = []
        original = FilterParams.apply

        def counting(self, w):
            calls.append(w)
            return original(self, w)

        monkeypatch.setattr(FilterParams, "apply", counting)
        counts = []
        for n_steps in (2, 6):
            calls.clear()
            cfg = SolverConfig(
                K=8, nu=1.0, delta=0.5, order=1, dt=0.01, T=n_steps * 0.01,
                ic=FieldSpec(kind="random_spectrum", seed=72, target_norm=1.0),
                forcing=FieldSpec(kind="random_spectrum", seed=73, target_norm=0.5),
            )
            assert len(simulate(cfg)) == n_steps + 1
            counts.append(len(calls))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize(
        "changed, named",
        [
            (dict(K=16), "K = 8 in the state, 16 configured"),
            (dict(nu=5.0), "nu = 1.0 in the state, 5.0 configured"),
            (dict(delta=0.25), "delta = 0.5 in the state, 0.25 configured"),
            (dict(order=2), "N = 1 in the state, 2 configured"),
            (
                dict(forcing=FieldSpec(kind="random_spectrum", seed=75, target_norm=0.5)),
                "forced = False in the state, True configured",
            ),
        ],
        ids=["K", "nu", "delta", "N", "forcing"],
    )
    def test_initial_state_of_another_model_rejected(self, changed, named):
        cfg = SolverConfig(
            K=8, nu=1.0, delta=0.5, order=1, dt=0.01, T=0.02,
            ic=FieldSpec(kind="random_spectrum", seed=74, target_norm=1.0),
        )
        _, state = simulate_with_state(dataclasses.replace(cfg, T=0.0))
        with pytest.raises(ValueError, match="different model: " + re.escape(named) + "$"):
            simulate(dataclasses.replace(cfg, **changed), initial=state)
        assert len(simulate(cfg, initial=state)) == 3


class TestEnergyResidual:
    def test_zero_run(self):
        cfg = SolverConfig(K=8, nu=1.0, delta=1.0, order=0, dt=0.01, T=0.05)
        traj = simulate(cfg)
        assert traj.energy_residual[-1] == 0.0

    def test_refinement_needs_a_step(self):
        cfg = SolverConfig(K=8, nu=1.0, delta=1.0, order=0, dt=0.01, T=0.0)
        with pytest.raises(ValueError, match="no step"):
            energy_refinement_study(cfg, levels=2)

    def test_zero_residual_has_no_order(self):
        cfg = SolverConfig(K=8, nu=1.0, delta=1.0, order=0, dt=0.01, T=0.05)
        msg = r"exactly 0 at dt = 0\.01, so the observed order is undefined"
        with pytest.raises(ValueError, match=msg):
            energy_refinement_study(cfg, levels=2)

    def test_single_mode_residual_refines_at_order_two(self):
        cfg = SolverConfig(
            K=8, nu=1.0, delta=1.0, order=0, dt=0.02, T=0.4,
            ic=FieldSpec(kind="single_mode", mode=(1, 0, 0), amplitude=(0.0, 1.0, 0.0)),
        )
        study = energy_refinement_study(cfg, levels=3)
        assert 1.7 <= study.mean_order <= 2.3

    def test_generic_run_residual_quarters_when_dt_halves(self):
        cfg = SolverConfig(
            K=16, nu=0.1, delta=0.5, order=1, dt=0.02, T=0.3,
            ic=FieldSpec(kind="random_spectrum", seed=51, target_norm=1.0),
            forcing=FieldSpec(kind="random_spectrum", seed=52, target_norm=0.3),
        )
        study = energy_refinement_study(cfg, levels=2)
        ratio = study.residuals[0] / study.residuals[1]
        assert ratio == pytest.approx(4.0, rel=0.25)


class TestTrajectoryContainer:
    def test_strictly_increasing_times_enforced(self):
        bad = [0.0, 0.0]
        with pytest.raises(ValueError, match="strictly increasing"):
            Trajectory(*(np.array(bad),) * 8)

    def test_nonnegative_norms_enforced(self):
        cols = [np.array([0.0, 1.0])] + [np.array([0.0, -1.0])] + [np.zeros(2)] * 6
        with pytest.raises(ValueError, match="nonnegative"):
            Trajectory(*cols)


def forced_run(K, T, **keys):
    """The README quick-start physics from a random start under a random forcing."""
    cfg = SolverConfig(
        K=K, nu=1.0, delta=0.5, order=1, dt=0.01, T=T,
        ic=FieldSpec(kind="random_spectrum", seed=71, target_norm=2.0),
        forcing=FieldSpec(kind="random_spectrum", seed=72, target_norm=0.5),
    )
    return dataclasses.replace(cfg, **keys)


def blow_up_run(K):
    return forced_run(K, 50.0, nu=1e-4, dt=5.0,
                      ic=FieldSpec(kind="random_spectrum", seed=46, target_norm=10.0))


two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="a split run needs two CPUs in the mask",
)


class TestRunWorkers:
    """A run on a grid of several x-blocks steps on the CPUs of its thread's mask."""

    @staticmethod
    def watch(monkeypatch):
        """Per step: live threads, the kernel's workers, each worker's CPU mask and the
        calling thread's mask."""
        seen = []

        def watched(state, dt, _step=solver.step):
            workers = getattr(spectral._local, "workers", 1)
            masks = [None] * workers
            spectral._deal(lambda w: masks.__setitem__(w, os.sched_getaffinity(0)), workers)
            seen.append((threading.active_count(), workers, masks, os.sched_getaffinity(0)))
            return _step(state, dt)

        monkeypatch.setattr(solver, "step", watched)
        return seen

    @two_cpus
    def test_a_run_binds_each_worker_to_its_own_cpu_and_restores(self, monkeypatch):
        threads, mask = threading.active_count(), os.sched_getaffinity(0)
        seen = self.watch(monkeypatch)
        simulate_with_state(forced_run(48, 0.03))
        assert [workers for _, workers, _, _ in seen] == [2, 2, 2]
        # One pool thread per worker lives for the run, while the caller waits.
        assert [count for count, _, _, _ in seen] == [threads + 2] * 3
        for _, _, (first, second), caller in seen:
            assert len(first) == len(second) == 1 and first != second
            assert first | second <= mask
            # The caller's own mask is never changed.
            assert caller == mask
        assert threading.active_count() == threads and os.sched_getaffinity(0) == mask

    @two_cpus
    def test_a_blown_up_run_joins_its_helper_and_restores(self, monkeypatch):
        threads, mask = threading.active_count(), os.sched_getaffinity(0)
        seen = self.watch(monkeypatch)
        with pytest.warns(RuntimeWarning), pytest.raises(BlowUpError):
            simulate(blow_up_run(48))
        assert seen and all(workers == 2 for _, workers, _, _ in seen)
        assert threading.active_count() == threads and os.sched_getaffinity(0) == mask

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="narrows the CPU mask")
    def test_a_one_cpu_mask_starts_no_helper_and_changes_no_bit(self, monkeypatch):
        mask = os.sched_getaffinity(0)
        cfg = forced_run(48, 0.03)
        split = simulate_with_state(cfg)
        seen = self.watch(monkeypatch)
        threads = threading.active_count()
        os.sched_setaffinity(0, {min(mask)})
        try:
            alone = simulate_with_state(cfg)
        finally:
            os.sched_setaffinity(0, mask)
        assert seen == [(threads, 1, [{min(mask)}], {min(mask)})] * 3
        for got, want in zip(alone[0].columns().values(), split[0].columns().values()):
            assert got.tobytes() == want.tobytes()
        assert alone[1].w.coeff.tobytes() == split[1].w.coeff.tobytes()

    def test_a_run_without_steps_starts_no_thread(self, monkeypatch):
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
        simulate_with_state(forced_run(64, 0.0))
        assert started == []

    @pytest.mark.parametrize("K, workers", [(32, 1), pytest.param(64, 2, marks=two_cpus)])
    def test_steady_steps_take_few_page_faults(self, K, workers, monkeypatch):
        # The steps of a run reuse their buffers: a fresh full-size array per step
        # would be faulted in again each time (546 faults per step at K=64 once).
        # The difference of a 13- and a 3-step run leaves out the run's set-up; the
        # second run of a process still faults some of it in (about 320 at K=64).
        seen = set()

        def watched(state, dt, _step=solver.step):
            seen.add(getattr(spectral._local, "workers", 1))
            return _step(state, dt)

        monkeypatch.setattr(solver, "step", watched)
        for _ in range(2):
            simulate_with_state(forced_run(K, 0.03))
        faults = []
        for steps in (3, 13):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            simulate_with_state(forced_run(K, steps * 0.01))
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        assert (faults[1] - faults[0]) / 10 < 20, faults
        assert seen == {workers}


class TestRunWorkspace:
    """A run owns its convective workspace and drops it when it ends, also on error."""

    @staticmethod
    def workspaces():
        return [obj for obj in gc.get_objects() if isinstance(obj, spectral._Workspace)]

    def test_a_run_leaves_less_than_one_workspace_behind(self):
        # One workspace is 2,788,864 B at K=32 and 14,796,800 B at K=64 with one worker
        # (tests/test_spectral.py); a run that kept its own would stay that far above.
        for K in (32, 64):
            make_grid(K)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for K, size in ((32, 2_788_864), (64, 14_796_800)):
                simulate_with_state(forced_run(K, 0.03))
                assert tracemalloc.get_traced_memory()[0] - base < size, K
            with pytest.warns(RuntimeWarning), pytest.raises(BlowUpError):
                simulate(blow_up_run(32))
            assert tracemalloc.get_traced_memory()[0] - base < 2_788_864
        finally:
            tracemalloc.stop()

    def test_no_thread_holds_a_workspace_after_a_run_or_a_bare_call(self):
        grid = make_grid(48)
        simulate_with_state(forced_run(48, 0.03))
        assert not hasattr(spectral._local, "workspace") and not self.workspaces()
        with pytest.warns(RuntimeWarning), pytest.raises(BlowUpError):
            simulate(blow_up_run(48))
        assert not hasattr(spectral._local, "workspace") and not self.workspaces()
        u = random_div_free(grid, 81)
        nonlinear_term(u, u)
        assert not hasattr(spectral._local, "workspace") and not self.workspaces()

    @pytest.mark.parametrize("K", [32, 64])
    def test_a_warm_step_in_a_run_allocates_about_four_arrays(self, K):
        # H_N w's buffer, which takes H_N mid and then the new state, the two stages'
        # convective outputs, each projected in place, the decay factor and Leray's two
        # (M,) temporaries: 4 (3, M) arrays. A stage projected into a new array makes 5.
        state = solver._start_state(forced_run(K, 0.0))
        with spectral._workers(state.model.grid):
            state = step(state, 0.01)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                step(state, 0.01)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (peak - base) / solver._retained(state).nbytes < 4.5
