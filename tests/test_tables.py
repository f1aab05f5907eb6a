"""The table-driven operators against their closed forms, byte for byte.

The references in `deconvbox.verify` and `deconv.truncation_hn` evaluate
the closed forms on the grid's integer, float and bool arrays; the
operators use the grid's retained complex tables, the model's H_N symbol,
and in-place updates. Bytes are compared, so a -0.0 where the reference has
0.0 fails too.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deconvbox import (
    FilterParams,
    ModelParams,
    SolverConfig,
    SolverState,
    build_model,
    initial_state,
    inner_product,
    leray_project,
    make_grid,
    make_state,
    simulate_with_state,
    step,
)
from deconvbox import solver
from deconvbox.config import FieldSpec, _random_raw
from deconvbox.deconv import truncation_hn
from deconvbox.solver import _squared_norms, _work_rate
from deconvbox.spectral import (
    DEALIAS_RULES,
    SpectralVectorField,
    _gather,
    _grid,
    sobolev_norm,
)
from deconvbox.verify import (
    _leray_reference,
    _simulate_reference,
    _sobolev_reference,
    _step_reference,
)

KS = (4, 6, 8, 12, 14, 16, 32)
SEEDS = st.integers(0, 2**32 - 1)


def unmasked_field(grid, rng):
    shape = (3,) + grid.spectral_shape
    return SpectralVectorField(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def forced_start(grid, rng, nu=0.3, dt=0.01, delta=0.7, order=3):
    forcing = leray_project(_random_raw(grid, rng))
    model = ModelParams(nu=nu, filters=FilterParams(delta, order), forcing=forcing)
    return forcing, make_state(0.0, leray_project(_random_raw(grid, rng)), model), dt


def assert_step_matches(state, forcing, dt):
    got = step(state, dt)
    want_w, want_hn_w = _step_reference(state, forcing, dt)
    assert got.w.coeff.tobytes() == want_w.tobytes()
    assert got.hn_w.coeff.tobytes() == want_hn_w.tobytes()


def assert_norms_match(w):
    # A run's norms come from the retained modes, so they are checked on w
    # cut to those; sobolev_norm on every stored mode of w.
    grid = w.grid
    h1_sq, h0_sq, aw_sq = _squared_norms(_gather(w.coeff, grid), grid, sampled=True)
    cut = SpectralVectorField(grid, np.where(grid.mask, w.coeff, 0.0))
    want = [_sobolev_reference(cut, s) ** 2 for s in (1.0, 0.0, 2.0)]
    assert np.array([h1_sq, h0_sq, aw_sq]).tobytes() == np.array(want).tobytes()
    assert _squared_norms(_gather(w.coeff, grid), grid, sampled=False) == (h1_sq, None, None)
    for s in (-1.0, 0.0, 0.5, 1.0, 2.0):
        assert np.float64(sobolev_norm(w, s)).tobytes() == np.float64(
            _sobolev_reference(w, s)
        ).tobytes()


@pytest.mark.parametrize("rule", DEALIAS_RULES)
@pytest.mark.parametrize("K", KS)
class TestBytesEqualClosedForms:
    @settings(max_examples=3, deadline=None)
    @given(seed=SEEDS)
    def test_leray_project(self, K, rule, seed):
        raw = unmasked_field(make_grid(K, rule), np.random.default_rng(seed))
        assert leray_project(raw).coeff.tobytes() == _leray_reference(raw).tobytes()

    @settings(max_examples=3, deadline=None)
    @given(seed=SEEDS)
    def test_filter_apply(self, K, rule, seed):
        raw = unmasked_field(make_grid(K, rule), np.random.default_rng(seed))
        filters = FilterParams(0.7, 3)
        assert filters.apply(raw).coeff.tobytes() == truncation_hn(raw, 0.7, 3).coeff.tobytes()

    @settings(max_examples=3, deadline=None)
    @given(seed=SEEDS)
    def test_norms(self, K, rule, seed):
        assert_norms_match(unmasked_field(make_grid(K, rule), np.random.default_rng(seed)))

    @settings(max_examples=3, deadline=None)
    @given(seed=SEEDS)
    def test_step(self, K, rule, seed):
        forcing, state, dt = forced_start(make_grid(K, rule), np.random.default_rng(seed))
        assert_step_matches(state, forcing, dt)


@pytest.mark.parametrize("masked_content", [False, True])
@pytest.mark.parametrize("rule", DEALIAS_RULES)
@pytest.mark.parametrize("K", (8, 12, 18))
def test_five_steps_equal_the_iterated_reference(K, rule, masked_content):
    # The stepper runs on the retained modes only; every word of w and
    # H_N w stays the closed-form stepper's, which holds +0.0 on masked
    # modes. A state with content there is rejected, not stepped.
    grid = make_grid(K, rule)
    rng = np.random.default_rng(K)
    forcing, state, dt = forced_start(grid, rng)
    model = state.model
    if masked_content:
        coeff = state.w.coeff + rng.standard_normal(state.w.coeff.shape) * ~grid.mask
        masked = SpectralVectorField(grid, coeff)
        with pytest.raises(ValueError, match=r"the state's field has content on mode"):
            make_state(0.0, masked, model)
        with pytest.raises(ValueError, match=r"the state's field has content on mode"):
            step(SolverState(0.0, masked, model), dt)
        return
    ref = state
    for _ in range(5):
        state = step(state, dt)
        want_w, want_hn_w = _step_reference(ref, forcing, dt)
        assert state.w.coeff.tobytes() == want_w.tobytes()
        assert state.hn_w.coeff.tobytes() == want_hn_w.tobytes()
        ref = SolverState(ref.t + dt, SpectralVectorField(grid, want_w), model)


@pytest.mark.parametrize("sample_every", [1, 3])
@pytest.mark.parametrize("rule", DEALIAS_RULES)
@pytest.mark.parametrize("K", (8, 12, 18))
def test_simulate_equals_the_full_layout_reference(K, rule, sample_every, monkeypatch):
    # A run steps retained coefficients only: every time-series column is the
    # full-layout reference loop's bytes, and the final w holds its retained
    # words and +0.0 on the masked modes, where the start may hold -0.0.
    # A run gathers once (the start's w) and builds no field per step.
    grid = make_grid(K, rule)
    forcing, start, dt = forced_start(grid, np.random.default_rng(K))
    start = make_state(0.0, start.w * 0.02, start.model)  # CFL number below 1
    config = SolverConfig(
        K=K, nu=0.3, delta=0.7, order=3, dealias=rule, dt=dt, sample_every=sample_every,
        forcing=FieldSpec(kind="random_spectrum"),
    )
    gathers, fields = [], []
    gather, post_init = solver._gather, SpectralVectorField.__post_init__
    monkeypatch.setattr(solver, "_gather", lambda *a: gathers.append(a[0]) or gather(*a))
    monkeypatch.setattr(
        SpectralVectorField, "__post_init__", lambda self: fields.append(1) or post_init(self)
    )
    built = {}
    for n_steps in (0, 7):
        gathers.clear()
        fields.clear()
        traj, final = simulate_with_state(dataclasses.replace(config, T=n_steps * dt), start)
        assert len(gathers) == 1 and gathers[0] is start.w.coeff
        built[n_steps] = len(fields)
    assert built[7] == built[0]
    want, want_final = _simulate_reference(dataclasses.replace(config, T=7 * dt), start, forcing)
    for name, column in traj.columns().items():
        assert column.tobytes() == getattr(want, name).tobytes(), name
    w, want_w = final.w.coeff, want_final.w.coeff
    assert w[:, grid.mask].tobytes() == want_w[:, grid.mask].tobytes()
    assert not np.ascontiguousarray(w[:, ~grid.mask]).view(np.uint64).any()
    assert final.t == want_final.t


@pytest.mark.parametrize("rule", DEALIAS_RULES)
@pytest.mark.parametrize("K", (8, 12, 18, 64))
def test_work_rate_equals_the_full_layout_pairing(K, rule):
    # The work rate pairs only the retained modes of H_N f and w; its bytes
    # are inner_product's, for w with -0.0 on the masked modes and for w = 0.
    grid = make_grid(K, rule)
    rng = np.random.default_rng(K)
    forcing, start, _ = forced_start(grid, rng)
    model = start.model
    masked = SpectralVectorField(grid, unmasked_field(grid, rng).coeff * grid.mask)
    for w in (masked, SpectralVectorField.zeros(grid)):
        want = inner_product(model.filters.apply(forcing), w)
        got = _work_rate(make_state(0.0, w, model))
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("rule", DEALIAS_RULES)
@pytest.mark.parametrize("K", (8, 14, 32))
def test_model_forcing_equals_the_gathered_full_layout_truncation(K, rule):
    grid = make_grid(K, rule)
    forcing, start, _ = forced_start(grid, np.random.default_rng(K))
    want = _gather(start.model.filters.apply(forcing).coeff, grid)
    assert start.model.hn_forcing_r.tobytes() == want.tobytes()


def test_step_output_has_no_negative_zeros():
    # Why bytes are compared: the start holds -0.0 as well as 0.0 on masked
    # modes, a stepped state builds w with +0.0 there, and the snapshot and
    # benchmark digests hash the signs.
    _, state, dt = forced_start(make_grid(16), np.random.default_rng(5))
    w = state.w.coeff
    assert np.signbit(np.concatenate([w.real[w.real == 0.0], w.imag[w.imag == 0.0]])).any()
    w = step(state, dt).w.coeff
    zeros = np.concatenate([w.real[w.real == 0.0], w.imag[w.imag == 0.0]])
    assert zeros.size and not np.signbit(zeros).any()


def test_interleaved_models_use_their_own_tables():
    # Models that differ in one table key at one K, stepped in turn: a
    # table cached under too few keys would serve one model another's.
    K = 8
    rng = np.random.default_rng(11)
    base = dict(nu=0.3, dt=0.01, delta=0.7, order=3)
    variants = [
        ("two_thirds", base),
        ("two_thirds", {**base, "nu": 0.5}),
        ("two_thirds", {**base, "dt": 0.02}),
        ("two_thirds", {**base, "delta": 0.4}),
        ("two_thirds", {**base, "order": 1}),
        ("none", base),
    ]
    cases = [forced_start(make_grid(K, rule), rng, **keys) for rule, keys in variants]
    for _ in range(2):
        for forcing, state, dt in cases:
            assert_step_matches(state, forcing, dt)
            model, raw = state.model, unmasked_field(state.w.grid, rng)
            want = truncation_hn(raw, model.filters.delta, model.filters.order).coeff
            assert model.filters.apply(raw).coeff.tobytes() == want.tobytes()
            assert leray_project(raw).coeff.tobytes() == _leray_reference(raw).tobytes()
            assert_norms_match(state.w)


@pytest.mark.parametrize(
    "tables",
    [
        lambda g: (g.kx, g.ky, g.kz, g.ksq, g.mask, g.mult),
        lambda g: (g.ret_flat, *g.ret_k, *g.ret_ik, g.ret_ksq_safe, g.ret_ksq, g.ret_mult),
        lambda g: (ModelParams(nu=0.3, filters=FilterParams(0.7, 3), grid=g).hn_r,),
    ],
    ids=["lattice", "mask", "hn"],
)
def test_cached_tables_are_read_only(tables):
    # The grid's tables are shared by every run and thread at their key, and
    # a model's H_N symbol by every thread that steps under the model.
    for rule in DEALIAS_RULES:
        for table in tables(make_grid(8, rule)):
            with pytest.raises(ValueError):
                table[...] = 0


def test_make_grid_returns_one_object_per_key():
    K = 16
    grid = make_grid(K)
    assert make_grid(K, "two_thirds") is grid
    assert make_grid(np.int64(K), "two_thirds") is grid
    assert make_grid(K, dealias_rule="two_thirds") is grid
    other = make_grid(K, "none")
    assert other is not grid and make_grid(K, "none") is other


@pytest.mark.parametrize("rule", DEALIAS_RULES)
def test_a_run_builds_one_grid(rule):
    # Every table of a run reads the run's own grid: a table cache that
    # built its lattice through make_grid under another key would add one.
    config = SolverConfig(
        K=10,
        nu=0.3,
        delta=0.7,
        order=3,
        dealias=rule,
        forcing=FieldSpec(kind="random_spectrum", seed=3, target_norm=0.5),
    )
    _grid.cache_clear()
    model = build_model(config)
    grid = model.grid
    state = initial_state(leray_project(_random_raw(grid, np.random.default_rng(4))), model)
    step(state, 0.01)
    assert _grid.cache_info().currsize == 1
