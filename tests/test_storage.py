import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deconvbox import (
    FieldSpec,
    FilterParams,
    ModelParams,
    SolverConfig,
    SolverState,
    SpectralVectorField,
    Trajectory,
    initial_state,
    make_grid,
    make_state,
    read_snapshot,
    read_snapshot_meta,
    read_timeseries,
    simulate,
    simulate_with_state,
    step,
    write_snapshot,
    write_timeseries,
)
from deconvbox import solver, storage
from deconvbox.storage import _HEADER_STRUCT, SNAPSHOT_MAGIC, TIMESERIES_HEADER
from oracles import full_layout_read, masked_shear, random_div_free


def forced_run(K=8, T=0.1, seed=70):
    cfg = SolverConfig(
        K=K, nu=0.8, delta=0.5, order=1, dt=0.01, T=T,
        ic=FieldSpec(kind="random_spectrum", seed=seed, target_norm=1.0),
        forcing=FieldSpec(kind="single_mode", mode=(1, 0, 0), amplitude=(0.0, 0.2, 0.0)),
    )
    return simulate(cfg)


class TestTimeseries:
    def test_empty_trajectory_header_only(self, tmp_path):
        # No run samples nothing, so a file with no data rows is not a trajectory.
        empty = Trajectory(*(np.zeros(0),) * 8)
        path = tmp_path / "empty.csv"
        write_timeseries(empty, path)
        assert path.read_text() == TIMESERIES_HEADER + "\n"
        for text in (TIMESERIES_HEADER, TIMESERIES_HEADER + "\n\n  \n"):
            path.write_text(text)
            with pytest.raises(ValueError, match="^time series file has no data rows$"):
                read_timeseries(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "1e400"])
    @pytest.mark.parametrize("column", [0, 3, 7])
    def test_non_finite_value_reports_line_and_column(self, tmp_path, bad, column):
        path = tmp_path / "bad.csv"
        row = ["0.5"] * 8
        row[column] = bad
        path.write_text("\n".join([TIMESERIES_HEADER, "0.0" + ",0" * 7, ",".join(row)]) + "\n")
        name, value = TIMESERIES_HEADER.split(",")[column], float(bad)
        with pytest.raises(ValueError) as exc:
            read_timeseries(path)
        assert str(exc.value) == f"line 3: column {name} is not finite ({value!r})"

    def test_round_trip_exact(self, tmp_path):
        traj = forced_run(T=1.0)
        assert len(traj) == 101
        path = tmp_path / "run.csv"
        write_timeseries(traj, path)
        back = read_timeseries(path)
        for name, col in traj.columns().items():
            assert np.array_equal(col, back.columns()[name]), name

    def test_column_count_mismatch_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = [TIMESERIES_HEADER, "0.0,0,0,0,0,0,0,0", "1.0,0,0,0,0,0,0"]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="line 3"):
            read_timeseries(path)

    def test_bad_float_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = [TIMESERIES_HEADER, "0.0,0,0,xyz,0,0,0,0"]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="line 2"):
            read_timeseries(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,stuff\n")
        with pytest.raises(ValueError, match="header"):
            read_timeseries(path)


class TestSnapshot:
    def make_state(self, grid):
        params = ModelParams(nu=0.7, filters=FilterParams(0.5, 2), grid=grid)
        return initial_state(random_div_free(grid, seed=71, target=2.0), params), params

    def test_round_trip_bit_exact(self, tmp_path, grid8):
        state, params = self.make_state(grid8)
        path = tmp_path / "s.snap"
        write_snapshot(state, params, path)
        back = read_snapshot(path)
        assert np.array_equal(back.w.coeff, state.w.coeff)
        assert back.t == state.t

    @pytest.mark.parametrize("rule", ["two_thirds", "none"])
    @pytest.mark.parametrize("K", [8, 12, 16])
    def test_payload_is_the_fftshifted_component_last_spectrum(self, tmp_path, K, rule):
        # Distinct content on every stored mode, masked ones included, so a
        # misplaced quadrant or component shows.
        grid = make_grid(K, rule)
        n = 3 * K * K * (K // 2 + 1)
        coeff = (np.arange(n) + 1j * np.arange(n, 2 * n)).reshape((3,) + grid.spectral_shape)
        w = SpectralVectorField(grid, coeff)
        model = ModelParams(nu=0.7, filters=FilterParams(0.5, 2), grid=grid)
        state = SolverState(t=0.25, w=w, model=model)
        path = tmp_path / "s.snap"
        write_snapshot(state, model, path)
        want = np.fft.fftshift(np.moveaxis(coeff, 0, -1), axes=(0, 1)).astype("<c16").tobytes()
        blob = path.read_bytes()
        assert len(blob) == _HEADER_STRUCT.size + len(want)
        assert blob[_HEADER_STRUCT.size :] == want

    def test_meta_fields(self, tmp_path, grid8):
        state, params = self.make_state(grid8)
        path = tmp_path / "s.snap"
        write_snapshot(state, params, path)
        meta = read_snapshot_meta(path)
        assert (meta.K, meta.order, meta.nu, meta.delta) == (8, 2, 0.7, 0.5)

    def test_wrong_magic_rejected(self, tmp_path, grid8):
        state, params = self.make_state(grid8)
        path = tmp_path / "s.snap"
        write_snapshot(state, params, path)
        blob = bytearray(path.read_bytes())
        blob[:8] = b"NOTASNAP"
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="magic"):
            read_snapshot(path)

    def test_truncated_payload_rejected(self, tmp_path, grid8):
        state, params = self.make_state(grid8)
        path = tmp_path / "s.snap"
        write_snapshot(state, params, path)
        blob = path.read_bytes()
        expected = 8 * 8 * 5 * 3 * 16  # modes x components x complex128 bytes
        for damaged, size, problem in (
            (blob[:-16], expected - 16, "truncated"),
            (blob + bytes(48), expected + 48, "over-long"),
        ):
            path.write_bytes(damaged)
            with pytest.raises(ValueError, match=problem) as exc:
                read_snapshot(path)
            assert f"({size} bytes, expected {expected})" in str(exc.value)

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_time_rejected(self, tmp_path, grid8, t):
        state, params = self.make_state(grid8)
        path = tmp_path / "s.snap"
        write_snapshot(state, params, path)
        blob = path.read_bytes()
        header = list(_HEADER_STRUCT.unpack(blob[: _HEADER_STRUCT.size]))
        header[4] = t
        path.write_bytes(_HEADER_STRUCT.pack(*header) + blob[_HEADER_STRUCT.size :])
        for read in (read_snapshot_meta, read_snapshot):
            with pytest.raises(ValueError) as exc:
                read(path)
            assert str(exc.value) == f"snapshot header field t is not finite ({t!r})"

    @pytest.mark.parametrize("nu", [float("inf"), float("nan")])
    def test_non_finite_viscosity_rejected(self, tmp_path, grid8, nu):
        state, params = self.make_state(grid8)
        path = tmp_path / "s.snap"
        write_snapshot(state, params, path)
        blob = path.read_bytes()
        header = list(_HEADER_STRUCT.unpack(blob[: _HEADER_STRUCT.size]))
        header[5] = nu
        path.write_bytes(_HEADER_STRUCT.pack(*header) + blob[_HEADER_STRUCT.size :])
        with pytest.raises(ValueError) as exc:
            read_snapshot(path)
        assert str(exc.value) == f"viscosity must be positive and finite, got {nu}"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, -float("inf"))])
    def test_non_finite_payload_rejected(self, tmp_path, grid8, bad):
        state, params = self.make_state(grid8)
        # Component 1 of modes (3, 0, 1) and (-2, 1, 0): the first in the
        # in-memory (kx, ky, kz) index order is named (kx = -2 sits at 6).
        # A read w is a new field, so the bad one is given to a new state.
        w = state.w
        for i1, i2, k3 in ((3, 0, 1), (-2 % 8, 1, 0)):
            w.coeff[1, i1, i2, k3] = bad
        state = dataclasses.replace(state, w=w)
        path = tmp_path / "s.snap"
        write_snapshot(state, params, path)
        with pytest.raises(ValueError) as exc:
            read_snapshot(path, grid=grid8, params=params)
        assert str(exc.value) == "snapshot payload has a non-finite coefficient at mode (3, 0, 1)"

    def test_grid_mismatch_reports_both_resolutions(self, tmp_path, grid8):
        state, params = self.make_state(grid8)
        path = tmp_path / "s.snap"
        write_snapshot(state, params, path)
        with pytest.raises(ValueError) as exc:
            read_snapshot(path, grid=make_grid(16))
        assert "8" in str(exc.value) and "16" in str(exc.value)

    def test_grid_comes_from_the_argument_else_the_model(self, tmp_path):
        grid = make_grid(8, "none")
        u = SpectralVectorField.from_modes(grid, {(0, 0, 3): (1.0, 0.0, 0.0)})
        params = ModelParams(nu=0.7, filters=FilterParams(0.5, 2), grid=grid)
        path = tmp_path / "s.snap"
        write_snapshot(SolverState(0.25, u, params), params, path)
        back = read_snapshot(path, params=params)
        assert back.model is params and back.w.grid is grid
        other = ModelParams(nu=0.7, filters=FilterParams(0.5, 2), grid=make_grid(8))
        with pytest.raises(ValueError) as exc:
            read_snapshot(path, grid=grid, params=other)
        assert str(exc.value) == (
            "the requested grid and the model live on different grids: "
            "K = 8 (none) and K = 8 (two_thirds)"
        )
        assert read_snapshot(path, grid=grid).model.grid is grid

    def test_magic_constant_on_disk(self, tmp_path, grid8):
        state, params = self.make_state(grid8)
        path = tmp_path / "s.snap"
        write_snapshot(state, params, path)
        assert path.read_bytes()[:8] == SNAPSHOT_MAGIC

    @pytest.mark.parametrize("K", [14, 18, 24])
    def test_canonical_order_sorts_exact_wavevectors(self, tmp_path, K):
        # K where np.fft.fftfreq(K) * K truncates to a wrong lattice. Each
        # mode's three components hold its own signed wavevector, so the
        # payload lists the wavevectors in the order they are stored on disk.
        grid = make_grid(K)
        k1, k2, k3 = (np.broadcast_to(k, grid.spectral_shape) for k in grid.kvec)
        coeff = np.stack((k1, k2, k3)).astype(np.complex128)
        coeff.imag = -0.0
        params = ModelParams(nu=0.5, filters=FilterParams(0.3, 1), grid=grid)
        path = tmp_path / "s.snap"
        write_snapshot(SolverState(0.0, SpectralVectorField(grid, coeff), params), params, path)
        payload = np.frombuffer(path.read_bytes()[_HEADER_STRUCT.size :], dtype="<c16")
        keys = [tuple(row) for row in payload.real.reshape(-1, 3).astype(np.int64).tolist()]
        assert len(keys) == coeff[0].size
        assert all(a < b for a, b in zip(keys, keys[1:]))
        # Masked modes may hold no content, so only the retained ones read back.
        coeff *= grid.mask
        write_snapshot(make_state(0.0, SpectralVectorField(grid, coeff), params), params, path)
        back = read_snapshot(path, grid=grid, params=params)
        assert back.w.coeff.tobytes() == coeff.tobytes()

    @pytest.mark.parametrize("rule", ["two_thirds", "none"])
    def test_masked_content_rejected(self, tmp_path, rule):
        u, named = masked_shear(rule, 1.0)
        params = ModelParams(nu=0.7, filters=FilterParams(0.5, 2), grid=u.grid)
        path = tmp_path / "s.snap"
        write_snapshot(SolverState(0.25, u, params), params, path)
        with pytest.raises(ValueError, match="^snapshot payload has content on mode " + named):
            read_snapshot(path, grid=u.grid, params=params)
        zero = masked_shear(rule, -0.0)[0]  # -0.0 is no content
        write_snapshot(SolverState(0.25, zero, params), params, path)
        back = read_snapshot(path, grid=zero.grid, params=params)
        assert back.w.coeff.tobytes() == zero.coeff.tobytes()


class TestRetainedBoxRead:
    """A payload whose retained box is finite and whose other words are all +0.0 reads into
    a state that holds only the box; any other payload is read and checked in the full
    layout, naming the first bad mode in the in-memory order."""

    KS = (8, 12, 14, 18)

    def write(self, path, grid, rng, edits=()):
        # Distinct content on every retained mode, then `edits` (index, value) on top.
        shape = (3,) + grid.spectral_shape
        coeff = np.where(grid.mask, rng.standard_normal(shape) + 1j * rng.standard_normal(shape), 0)
        for index, value in edits:
            coeff[index] = value
        params = ModelParams(nu=0.7, filters=FilterParams(0.5, 2), grid=grid)
        write_snapshot(SolverState(0.25, SpectralVectorField(grid, coeff), params), params, path)
        return params, path.read_bytes()[_HEADER_STRUCT.size :]

    @pytest.mark.parametrize("rule", ["two_thirds", "none"])
    @pytest.mark.parametrize("K", KS)
    def test_box_read_equals_the_full_layout_read(self, tmp_path, K, rule):
        grid = make_grid(K, rule)
        params, blob = self.write(tmp_path / "s.snap", grid, np.random.default_rng(K))
        back = read_snapshot(tmp_path / "s.snap", grid=grid, params=params)
        assert "w" not in vars(back)  # built on each read
        assert back.w.coeff.tobytes() == full_layout_read(blob, grid)[0].tobytes()

    @pytest.mark.parametrize("rule", ["two_thirds", "none"])
    def test_snapshot_of_a_from_physical_field_reads_through_the_box(
        self, tmp_path, monkeypatch, rule
    ):
        grid = make_grid(12, rule)
        values = np.random.default_rng(7).standard_normal((3,) + grid.shape)
        w = SpectralVectorField.from_physical(grid, values)
        params = ModelParams(nu=0.7, filters=FilterParams(0.5, 2), grid=grid)
        path = tmp_path / "s.snap"
        write_snapshot(SolverState(0.25, w, params), params, path)
        checks = []
        monkeypatch.setattr(storage, "_require_fits", lambda *args: checks.append(args))
        back = read_snapshot(path, params=params)
        assert checks == [] and "w" not in vars(back)
        assert back.w.coeff.tobytes() == w.coeff.tobytes()

    @pytest.mark.parametrize(
        "case", ["-0.0 outside", "nan inside", "nan outside", "content outside", "both"]
    )
    @pytest.mark.parametrize("rule", ["two_thirds", "none"])
    @pytest.mark.parametrize("K", KS)
    def test_fallback_keeps_messages_and_bytes(self, tmp_path, K, rule, case):
        # Outside the box under both rules: k3 = K/2, and kx = -K/2 (index K/2).
        grid, h = make_grid(K, rule), K // 2
        inside, outside, nyquist_x = (1, 1, K - 1, 1), (2, 1, 2, h), (0, h, 1, 0)
        edits = {
            "-0.0 outside": [(outside, complex(-0.0, -0.0)), (nyquist_x, complex(0.0, -0.0))],
            "nan inside": [(inside, np.nan)],
            "nan outside": [(outside, complex(0.0, np.nan))],
            "content outside": [(nyquist_x, 1e-300)],
            "both": [(inside, np.inf), (nyquist_x, 2.0)],
        }[case]
        path = tmp_path / "s.snap"
        params, blob = self.write(path, grid, np.random.default_rng(K), edits)
        want, message = full_layout_read(blob, grid)
        if message is None:
            back = read_snapshot(path, grid=grid, params=params)
            assert back.w.coeff.tobytes() == want.tobytes()
            assert np.signbit(back.w.coeff[outside].imag)
        else:
            with pytest.raises(ValueError) as exc:
                read_snapshot(path, grid=grid, params=params)
            assert str(exc.value) == message

    @pytest.mark.parametrize("K", [7, 2, 2**31])
    def test_header_resolution_is_checked_before_any_grid(self, tmp_path, grid8, monkeypatch, K):
        built = []

        def no_grid(*args):
            built.append(args)
            raise AssertionError(f"make_grid{args} was called")

        params = ModelParams(nu=0.7, filters=FilterParams(0.5, 2), grid=grid8)
        state = initial_state(random_div_free(grid8, seed=72), params)
        path = tmp_path / "s.snap"
        write_snapshot(state, params, path)
        blob = path.read_bytes()
        header = list(_HEADER_STRUCT.unpack(blob[: _HEADER_STRUCT.size]))
        header[2] = K
        path.write_bytes(_HEADER_STRUCT.pack(*header) + blob[_HEADER_STRUCT.size :])
        monkeypatch.setattr(storage, "make_grid", no_grid)
        with pytest.raises(ValueError) as exc:
            read_snapshot(path)
        if K % 2 or K < 4:
            assert str(exc.value) == f"snapshot header field K = {K} is not an even resolution >= 4"
            with pytest.raises(ValueError):
                read_snapshot_meta(path)
        else:
            expected = 48 * K * K * (K // 2 + 1)
            assert str(exc.value) == (
                f"snapshot payload is truncated ({len(blob) - _HEADER_STRUCT.size} bytes, "
                f"expected {expected}) for header field K = {K}"
            )
        assert built == []

    def test_none_snapshot_read_without_a_grid_names_the_assumed_rule(self, tmp_path):
        grid = make_grid(8, "none")
        u = SpectralVectorField.from_modes(grid, {(0, 0, 3): (1.0, 0.0, 0.0)})
        params = ModelParams(nu=0.7, filters=FilterParams(0.5, 2), grid=grid)
        path = tmp_path / "s.snap"
        write_snapshot(SolverState(0.25, u, params), params, path)
        with pytest.raises(ValueError) as exc:
            read_snapshot(path)
        assert str(exc.value) == (
            "snapshot payload has content on mode (0, 0, 3), which the dealias cut "
            "|k_i| <= 2 drops; no grid given, so the two-thirds rule was assumed: "
            'pass grid=make_grid(8, "none")'
        )
        assert read_snapshot(path, grid=grid).w.coeff.tobytes() == u.coeff.tobytes()


class TestResume:
    @settings(max_examples=8, deadline=None)
    @given(split=st.integers(0, 12), seed=st.integers(0, 2**16))
    def test_resume_equals_uninterrupted_bit_exact(
        self, tmp_path_factory, grid8, split, seed
    ):
        params = ModelParams(nu=0.4, filters=FilterParams(0.5, 1), grid=grid8)
        state = initial_state(random_div_free(grid8, seed=seed), params)
        dt = 0.01
        for _ in range(split):
            state = step(state, dt)
        path = tmp_path_factory.mktemp("resume") / "mid.snap"
        write_snapshot(state, params, path)
        resumed = read_snapshot(path, grid=grid8, params=params)
        direct = state
        for _ in range(12 - split):
            direct = step(direct, dt)
            resumed = step(resumed, dt)
        assert np.array_equal(direct.w.coeff, resumed.w.coeff)
        assert direct.t == resumed.t

    @pytest.mark.parametrize(
        "nu, delta, order, forced, named",
        [
            (2.0, 0.5, 1, False, "nu = 0.4 in the state, 2.0 given"),
            (0.4, 0.9, 1, False, "delta = 0.5 in the state, 0.9 given"),
            (0.4, 0.5, 3, False, "N = 1 in the state, 3 given"),
            (0.4, 0.5, 1, True, "forced = False in the state, True given"),
        ],
        ids=["nu", "delta", "N", "forced"],
    )
    def test_write_under_other_params_rejected(
        self, tmp_path, grid8, nu, delta, order, forced, named
    ):
        params = ModelParams(nu=0.4, filters=FilterParams(0.5, 1), grid=grid8)
        state = initial_state(random_div_free(grid8, seed=75), params)
        forcing = random_div_free(grid8, seed=76, target=0.3) if forced else None
        other = ModelParams(nu=nu, filters=FilterParams(delta, order), forcing=forcing, grid=grid8)
        path = tmp_path / "s.snap"
        with pytest.raises(ValueError) as exc:
            write_snapshot(state, other, path)
        assert str(exc.value) == "params are not the state's model: " + named
        assert not path.exists()
        same = ModelParams(nu=0.4, filters=FilterParams(0.5, 1), grid=grid8)
        write_snapshot(state, same, path)
        assert read_snapshot(path, grid=grid8, params=same).w.coeff.tobytes() == (
            state.w.coeff.tobytes()
        )

    def test_resume_under_different_model_rejected(self, tmp_path, grid8):
        params = ModelParams(nu=0.4, filters=FilterParams(0.5, 1), grid=grid8)
        state = initial_state(random_div_free(grid8, seed=74), params)
        path = tmp_path / "s.snap"
        write_snapshot(state, params, path)
        other = ModelParams(nu=2.0, filters=FilterParams(0.9, 3), grid=grid8)
        with pytest.raises(ValueError, match="different model") as exc:
            read_snapshot(path, grid=grid8, params=other)
        for text in (
            "nu = 0.4 stored, 2.0 requested",
            "delta = 0.5 stored, 0.9 requested",
            "N = 1 stored, 3 requested",
        ):
            assert text in str(exc.value)
        only_order = ModelParams(nu=0.4, filters=FilterParams(0.5, 2), grid=grid8)
        with pytest.raises(ValueError) as exc:
            read_snapshot(path, grid=grid8, params=only_order)
        assert str(exc.value).endswith("model: N = 1 stored, 2 requested")

    def test_snapshot_resume_neither_gathers_nor_checks_after_the_read(
        self, tmp_path, monkeypatch
    ):
        cfg = SolverConfig(
            K=16, nu=0.4, delta=0.5, order=1, dt=0.01, T=0.03,
            ic=FieldSpec(kind="random_spectrum", seed=77, target_norm=1.0),
            forcing=FieldSpec(kind="single_mode", mode=(1, 0, 0), amplitude=(0.0, 0.2, 0.0)),
        )
        _, mid = simulate_with_state(cfg)
        path = tmp_path / "mid.snap"
        write_snapshot(mid, mid.model, path)
        calls = []

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                calls.append(name)
                return out
            return wrapped

        for module, name in (
            (solver, "_gather"), (solver, "_require_fits"), (storage, "read_snapshot")
        ):
            monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
        resume = dataclasses.replace(cfg, ic=FieldSpec(kind="snapshot", path=str(path)))
        _, resumed = simulate_with_state(resume)
        assert calls[calls.index("read_snapshot") :] == ["read_snapshot"]
        monkeypatch.undo()
        _, direct = simulate_with_state(dataclasses.replace(cfg, T=0.06))
        assert resumed.w.coeff.tobytes() == direct.w.coeff.tobytes()

    def test_simulate_resume_from_snapshot_ic(self, tmp_path):
        # a config whose IC is a snapshot continues from the stored time
        # without re-applying the initial truncation
        base = SolverConfig(
            K=8, nu=0.4, delta=0.5, order=1, dt=0.01, T=0.1,
            ic=FieldSpec(kind="random_spectrum", seed=73, target_norm=1.0),
        )
        from deconvbox import simulate_with_state

        traj_a, state_a = simulate_with_state(base)
        params = ModelParams(
            nu=base.nu, filters=FilterParams(base.delta, base.order), grid=state_a.w.grid
        )
        path = tmp_path / "resume.snap"
        write_snapshot(state_a, params, path)

        import dataclasses

        resumed_cfg = dataclasses.replace(
            base, ic=FieldSpec(kind="snapshot", path=str(path)), T=0.1
        )
        traj_b, state_b = simulate_with_state(resumed_cfg)
        assert traj_b.t[0] == pytest.approx(traj_a.t[-1])

        cont_cfg = dataclasses.replace(base, T=0.2)
        _, state_c = simulate_with_state(cont_cfg)
        assert np.array_equal(state_b.w.coeff, state_c.w.coeff)
