import contextlib
import hashlib
import math
import os
import threading
from dataclasses import replace

import numpy as np
import pytest

from deconvbox import (
    AbsorbingParams,
    ConfigError,
    FieldSpec,
    SolverConfig,
    absorbing_bound,
    absorbing_time,
    build_model,
    ensemble_absorb_probe,
    generate_ic,
    h1_absorbing_report,
    h1_time_average,
    initial_state,
    make_grid,
    rho0,
    simulate,
    sobolev_norm,
    uniform_gronwall,
)
from deconvbox import attractor, solver
from deconvbox.solver import Trajectory
from oracles import start_specs

TWO_CPUS = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs two CPUs in the mask",
)


@contextlib.contextmanager
def on_cpus(n):
    """Run the block with the calling thread's mask narrowed to its first n CPUs."""
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, sorted(mask)[:n])
    try:
        yield
    finally:
        os.sched_setaffinity(0, mask)


class TestRho0:
    def test_unit_values(self):
        assert rho0(1.0, 1.0, 1.0) == 1.0

    def test_zero_forcing(self):
        assert rho0(2.0, 1.0, 0.0) == 0.0

    def test_substitution(self):
        assert rho0(0.5, 1.0, 2.0) == 4.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            rho0(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            rho0(1.0, -1.0, 1.0)


class TestAbsorbingBound:
    def params(self):
        return AbsorbingParams(nu=1.0, lambda1=1.0, f_norm=1.0)

    def test_at_zero(self):
        assert absorbing_bound(0.0, 4.0, self.params()) == 4.0

    def test_long_time_limit(self):
        assert absorbing_bound(80.0, 4.0, self.params()) == pytest.approx(1.0, rel=1e-12)

    def test_half_life_substitution(self):
        # w0^2 = 4, rho0^2 = 1, t = ln 2: 4/2 + 1/2
        assert absorbing_bound(math.log(2.0), 4.0, self.params()) == pytest.approx(
            2.5, abs=1e-12
        )

    def test_monotone_from_above_and_below(self):
        p = self.params()
        ts = np.linspace(0.0, 3.0, 50)
        above = [absorbing_bound(t, 9.0, p) for t in ts]
        below = [absorbing_bound(t, 0.25, p) for t in ts]
        assert np.all(np.diff(above) < 0)
        assert np.all(np.diff(below) > 0)


class TestAbsorbingTime:
    def test_substitution(self):
        p = AbsorbingParams(nu=1.0, lambda1=1.0, f_norm=1.0,
                            rho0_prime=math.sqrt(2.0), R=2.0)
        assert absorbing_time(p) == pytest.approx(math.log(4.0), abs=1e-14)

    def test_already_inside(self):
        p = AbsorbingParams(nu=1.0, lambda1=1.0, f_norm=1.0,
                            rho0_prime=math.sqrt(2.0), R=0.9)
        assert absorbing_time(p) == 0.0

    def test_slack_radius_must_exceed_rho0(self):
        with pytest.raises(ValueError, match="rho0_prime"):
            AbsorbingParams(nu=1.0, lambda1=1.0, f_norm=1.0, rho0_prime=1.0, R=2.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("name", ["rho0_prime", "R"])
    def test_radii_must_be_finite(self, name, value):
        radii = {"rho0_prime": 2.0, "R": 3.0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite and .*, got {value!r}$"):
            AbsorbingParams(nu=1.0, lambda1=1.0, f_norm=1.0, **radii)


class TestUniformGronwall:
    def test_unit_values(self):
        assert uniform_gronwall(1.0, 0.0, 1.0, 1.0) == 2.0

    def test_degenerate(self):
        assert uniform_gronwall(0.0, 5.0, 0.0, 2.0) == 0.0

    def test_substitution(self):
        assert uniform_gronwall(2.0, 1.0, 0.5, 2.0) == pytest.approx(
            1.5 * math.e, abs=1e-12
        )

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            uniform_gronwall(1.0, 0.0, 1.0, 0.0)

    def test_monotonicity(self):
        base = uniform_gronwall(1.0, 1.0, 1.0, 1.0)
        assert uniform_gronwall(2.0, 1.0, 1.0, 1.0) > base
        assert uniform_gronwall(1.0, 2.0, 1.0, 1.0) > base
        assert uniform_gronwall(1.0, 1.0, 2.0, 1.0) > base
        assert uniform_gronwall(1.0, 1.0, 1.0, 2.0) < base

    def test_rejects_negative_window(self):
        with pytest.raises(ValueError, match="window length r must be positive"):
            uniform_gronwall(1.0, 0.0, 1.0, -1.0)


def decaying_shear_config(nu=1.0, T=2.0, dt=0.01, sample_every=1):
    return SolverConfig(
        K=8, nu=nu, delta=1.0, order=0, dt=dt, T=T, sample_every=sample_every,
        ic=FieldSpec(kind="single_mode", mode=(1, 0, 0), amplitude=(0.0, 2.0, 0.0)),
    )


class TestH1TimeAverage:
    def params(self, rho0_prime=1.0, f_norm=0.0):
        return AbsorbingParams(
            nu=1.0, lambda1=1.0, f_norm=f_norm, rho0_prime=rho0_prime, R=2.0
        )

    def test_zero_trajectory(self):
        cfg = SolverConfig(K=8, nu=1.0, delta=1.0, order=0, dt=0.01, T=0.5)
        traj = simulate(cfg)
        out = h1_time_average(traj, 0.0, 0.4, self.params())
        assert out.integral == 0.0
        assert out.satisfied

    def test_decaying_mode_closed_form(self):
        # w(0) = H_0 u0 has ||w||_1^2 = 2 exactly; decay rate 2 nu
        traj = simulate(decaying_shear_config())
        nu, t, r = 1.0, 0.3, 0.8
        out = h1_time_average(traj, t, r, self.params())
        exact = (2.0 / (2.0 * nu)) * (
            math.exp(-2.0 * nu * t) - math.exp(-2.0 * nu * (t + r))
        )
        assert out.integral == pytest.approx(exact, rel=5e-5)

    def test_cadence_doubling_leaves_integral(self):
        fine = simulate(decaying_shear_config(sample_every=1))
        coarse = simulate(decaying_shear_config(sample_every=2))
        p = self.params()
        a = h1_time_average(fine, 0.2, 1.0, p).integral
        b = h1_time_average(coarse, 0.2, 1.0, p).integral
        assert b == pytest.approx(a, rel=1e-3)

    def test_window_outside_trajectory(self):
        traj = simulate(decaying_shear_config(T=0.5))
        with pytest.raises(ValueError, match="window"):
            h1_time_average(traj, 0.4, 0.5, self.params())


class TestH1AbsorbingReport:
    def test_unforced_decay_is_bounded_and_stabilizes(self):
        traj = simulate(decaying_shear_config(T=4.0))
        p = AbsorbingParams(nu=1.0, lambda1=1.0, f_norm=0.0, rho0_prime=0.5, R=2.0)
        rep = h1_absorbing_report(traj, p, r=0.5)
        assert rep.bounded
        assert rep.nonincreasing
        assert rep.sup_h1_sq <= 2.0

    def test_k1_spot_check(self):
        traj = simulate(decaying_shear_config(T=4.0))
        p = AbsorbingParams(
            nu=1.0, lambda1=1.0, f_norm=1.0, rho0_prime=math.sqrt(2.0), R=1.0
        )
        rep = h1_absorbing_report(traj, p, r=1.0)
        # r ||f||^2 / (nu^2 lam1) + rho0'^2 / nu with everything at 1, rho0'^2 = 2
        assert rep.k1 == pytest.approx(3.0, rel=1e-12)
        assert rep.k3 == pytest.approx(2.0, rel=1e-12)

    def test_too_short_trajectory(self):
        traj = simulate(decaying_shear_config(T=0.5))
        p = AbsorbingParams(nu=1.0, lambda1=1.0, f_norm=0.0, rho0_prime=0.5, R=2.0)
        with pytest.raises(ValueError, match="too short"):
            h1_absorbing_report(traj, p, r=1.0)


class TestEnsembleProbe:
    def test_pure_decay_entry_times_match_prediction(self):
        # single-mode members decay exactly at rate 2 nu; the probe's entry
        # times must land within one sampling interval of the closed form
        nu, rho_prime, R = 1.0, 0.5, 2.0
        template = SolverConfig(
            K=8, nu=nu, delta=1.0, order=0, dt=0.02, T=1.0, sample_every=1,
            ic=FieldSpec(kind="single_mode", mode=(1, 0, 0), amplitude=(0.0, 1.0, 0.0)),
        )
        report = ensemble_absorb_probe(
            R=R, rho0_prime=rho_prime, ensemble_size=4, template=template
        )
        assert report.passed
        sample_dt = template.dt * template.sample_every
        for m in report.members:
            predicted = max(0.0, math.log(m.w0_norm**2 / rho_prime**2) / (2.0 * nu))
            assert m.entry_time == pytest.approx(predicted, abs=sample_dt + 1e-9)
            # conservative envelope prediction from the decay bound
            assert m.entry_time <= math.log(R**2 / rho_prime**2) / nu + sample_dt

    def test_targets_start_inside_enter_immediately(self):
        template = SolverConfig(
            K=8, nu=1.0, delta=0.5, order=1, dt=0.02, T=1.0,
            forcing=FieldSpec(kind="random_spectrum", seed=60, target_norm=0.2),
        )
        report = ensemble_absorb_probe(
            R=0.1, rho0_prime=0.5, ensemble_size=3, template=template
        )
        assert report.T0 == 0.0
        assert report.passed
        assert all(m.entry_time == 0.0 for m in report.members)

    def test_entry_slack_comes_from_the_template(self):
        template = SolverConfig(
            K=8, nu=1.0, delta=0.5, order=1, dt=0.02, T=1.0, epsilon=0.5,
            forcing=FieldSpec(kind="random_spectrum", seed=60, target_norm=0.2),
        )
        report = ensemble_absorb_probe(
            R=0.1, rho0_prime=0.5, ensemble_size=1, template=template
        )
        assert report.epsilon == 0.5

    @pytest.mark.parametrize("epsilon", [float("nan"), -0.1, float("inf")])
    def test_invalid_entry_slack_rejected(self, epsilon):
        # The template itself is rejected, in the parser's words, before any probe.
        with pytest.raises(ConfigError) as exc:
            SolverConfig(K=8, nu=1.0, delta=0.5, order=1, epsilon=epsilon)
        words = "must be nonnegative" if epsilon < 0 else "expected a finite number"
        assert str(exc.value) == f"epsilon: {words}, got {epsilon!r}"

    @pytest.mark.parametrize("ic", ["single_mode", "random_spectrum"])
    @pytest.mark.parametrize("seed", [True, 2.5, -1, "3"])
    def test_base_seed_not_a_nonnegative_integer_rejected(self, ic, seed):
        # Not a member seeded 1 or 2.5, nor an error naming a `seed` the caller did not pass.
        spec = dict(mode=(1, 0, 0), amplitude=(0.0, 1.0, 0.0)) if ic == "single_mode" else {}
        template = SolverConfig(K=8, nu=1.0, delta=0.5, order=1, ic=FieldSpec(kind=ic, **spec))
        with pytest.raises(ValueError) as exc:
            ensemble_absorb_probe(
                R=0.1, rho0_prime=0.5, ensemble_size=2, template=template, base_seed=seed
            )
        assert str(exc.value) == f"base_seed must be an integer >= 0, got {seed!r}"

    @pytest.mark.parametrize("size", [2.5, 2.0, True, "2", 0, -1])
    def test_ensemble_size_not_a_positive_integer_rejected(self, size):
        template = SolverConfig(K=8, nu=1.0, delta=0.5, order=1)
        with pytest.raises(ValueError) as exc:
            ensemble_absorb_probe(R=0.1, rho0_prime=0.5, ensemble_size=size, template=template)
        assert str(exc.value) == f"ensemble_size must be an integer >= 1, got {size!r}"

    @pytest.mark.parametrize("name", ["rho0_prime", "R"])
    def test_infinite_radius_rejected_by_name(self, name):
        template = SolverConfig(K=8, nu=1.0, delta=0.5, order=1)
        radii = {"R": 0.1, "rho0_prime": 0.5, name: math.inf}
        with pytest.raises(ValueError, match=f"^{name} must be finite and .*, got inf$"):
            ensemble_absorb_probe(ensemble_size=1, template=template, **radii)

    def test_default_radii_are_multiples_of_rho0(self):
        template = SolverConfig(
            K=8, nu=1.0, delta=0.5, order=1, dt=0.02, T=1.0, sample_every=4,
            forcing=FieldSpec(kind="random_spectrum", seed=62, target_norm=0.5),
        )
        report = ensemble_absorb_probe(
            R=None, rho0_prime=None, ensemble_size=1, template=template
        )
        assert report.rho0 > 0.0
        assert report.R == 4.0 * report.rho0
        assert report.rho0_prime == math.sqrt(2.0) * report.rho0

    @pytest.mark.parametrize("R, rho0_prime", [(None, None), (1.0, None), (None, 0.5)])
    def test_default_radii_need_forcing(self, R, rho0_prime):
        template = SolverConfig(K=8, nu=1.0, delta=0.5, order=1)
        with pytest.raises(ValueError, match="zero forcing requires explicit values"):
            ensemble_absorb_probe(
                R=R, rho0_prime=rho0_prime, ensemble_size=1, template=template
            )

    def test_forced_probe_passes_and_respects_envelope(self):
        template = SolverConfig(
            K=8, nu=1.0, delta=0.5, order=1, dt=0.02, T=1.0, sample_every=1,
            forcing=FieldSpec(kind="random_spectrum", seed=61, target_norm=0.5),
        )
        report = ensemble_absorb_probe(
            R=2.0, rho0_prime=math.sqrt(0.5), ensemble_size=4, template=template
        )
        assert report.passed
        for m in report.members:
            assert m.bound_ok
            assert m.max_bound_ratio <= 1.01
            assert m.stayed_inside

    @TWO_CPUS
    def test_two_members_digests_equal_on_one_and_two_threads(self):
        # Each pool thread steps in its own convective workspace.
        template = SolverConfig(
            K=12, nu=1.0, delta=0.5, order=1, dt=0.05, T=1.0,
            forcing=FieldSpec(kind="random_spectrum", seed=63, target_norm=0.3),
        )

        def digests():
            report = ensemble_absorb_probe(
                R=1.0, rho0_prime=0.5, ensemble_size=2, template=template
            )
            return [
                hashlib.sha256(
                    b"".join(col.tobytes() for col in m.trajectory.columns().values())
                ).hexdigest()
                for m in report.members
            ]

        with on_cpus(1):
            serial = digests()
        with on_cpus(2):
            assert digests() == serial

    @pytest.fixture
    def k48_probe(self, monkeypatch):
        # K=48 has four x-blocks, so a run of its own would split its kernel. Returns
        # the probe, as member digests, and the (thread, mask, kernel workers) of each
        # step of its last call.
        template = SolverConfig(
            K=48, nu=1.0, delta=0.5, order=1, dt=0.02, T=1.0,
            forcing=FieldSpec(kind="random_spectrum", seed=63, target_norm=0.3),
        )
        seen = []

        def watched(state, dt, _step=solver.step):
            seen.append((threading.current_thread().name, os.sched_getaffinity(0),
                         vars(state)["_run"].workers))
            return _step(state, dt)

        monkeypatch.setattr(solver, "step", watched)

        def digests(members=2):
            seen.clear()
            # The data start inside the slack ball, so each member takes 10 steps.
            report = ensemble_absorb_probe(
                R=0.9, rho0_prime=1.0, ensemble_size=members, template=template
            )
            return [
                hashlib.sha256(
                    b"".join(col.tobytes() for col in m.trajectory.columns().values())
                ).hexdigest()
                for m in report.members
            ]

        return digests, seen

    @TWO_CPUS
    def test_member_threads_hold_one_cpu_each_and_start_no_helper(self, k48_probe):
        # A probe gives its CPUs to the members instead of their kernels. On a one-CPU
        # mask the members run one after another on the caller, which has no CPU to
        # split over. Neither changes a bit.
        digests, seen = k48_probe
        mask = os.sched_getaffinity(0)
        with on_cpus(1):
            serial = digests()
        by_thread = {name: (cpus, workers) for name, cpus, workers in seen}
        assert len(by_thread) == 1 and "MainThread" in by_thread
        assert list(by_thread.values()) == [({min(mask)}, 1)]
        with on_cpus(2):
            assert digests() == serial
            by_thread = {name: (cpus, workers) for name, cpus, workers in seen}
            assert len(by_thread) == 2 and "MainThread" not in by_thread
            assert all(len(cpus) == 1 and cpus <= mask and workers == 1
                       for cpus, workers in by_thread.values())
            assert len({frozenset(cpus) for cpus, _ in by_thread.values()}) == 2

    @TWO_CPUS
    def test_one_member_thread_splits_its_kernel_as_a_single_run_does(self, k48_probe):
        # A lone member runs on the caller with its mask, so its run splits its kernel
        # over both CPUs.
        digests, seen = k48_probe
        with on_cpus(2):
            digests(members=1)
        by_thread = {name: workers for name, _, workers in seen}
        assert len(by_thread) == 1 and "MainThread" in by_thread
        assert list(by_thread.values()) == [2]

    # The same physics as tests/test_cli.py's BLOW_UP_PROBE_CONFIG: each member's run
    # loses finiteness in its third step of dt = 1.
    BLOW_UP_TEMPLATE = SolverConfig(
        K=16, nu=0.01, delta=0.5, order=1, dt=1.0, T=4.0,
        ic=FieldSpec(kind="random_spectrum", target_norm=50.0),
        forcing=FieldSpec(kind="random_spectrum", seed=3, target_norm=50.0),
    )

    def test_members_that_blow_up_keep_their_partial_trajectories_and_fail(self):
        threads = set(threading.enumerate())
        reports = []
        for cpus in (1, 2):
            with on_cpus(cpus), pytest.warns(RuntimeWarning, match="advisory CFL"):
                reports.append(ensemble_absorb_probe(None, None, 2, self.BLOW_UP_TEMPLATE))
        for report in reports:
            assert report.passed is False
            for m in report.members:
                assert m.blow_up_time == 2.0 and list(m.trajectory.t) == [0.0, 1.0, 2.0]
                assert m.bound_ok is False and m.max_bound_ratio == math.inf
                assert m.entry_time is None and m.stayed_inside is False
        digests = [
            [hashlib.sha256(b"".join(c.tobytes() for c in m.trajectory.columns().values()))
             .hexdigest() for m in report.members]
            for report in reports
        ]
        assert digests[0] == digests[1] and len(set(digests[0])) == 2
        assert set(threading.enumerate()) == threads

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="removes the affinity calls")
    def test_a_platform_without_affinity_calls_runs_on_one_cpu(self, monkeypatch):
        # Where CPython has no affinity calls (macOS, Windows), a K=48 run, four x-blocks,
        # and a 2-member probe run on the caller alone and give their one-CPU bytes.
        template = SolverConfig(
            K=48, nu=1.0, delta=0.5, order=1, dt=0.02, T=0.06,
            forcing=FieldSpec(kind="random_spectrum", seed=63, target_norm=0.3),
        )
        seen = set()

        def watched(state, dt, _step=solver.step):
            seen.add((threading.current_thread().name, vars(state)["_run"].workers))
            return _step(state, dt)

        def digests():
            report = ensemble_absorb_probe(
                R=0.9, rho0_prime=1.0, ensemble_size=2, template=template
            )
            runs = [simulate(template)] + [m.trajectory for m in report.members]
            return [
                hashlib.sha256(b"".join(col.tobytes() for col in traj.columns().values()))
                .hexdigest()
                for traj in runs
            ]

        with on_cpus(1):
            one_cpu = digests()
        monkeypatch.setattr(solver, "step", watched)
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.delattr(os, "sched_setaffinity")
        threads = threading.active_count()
        assert digests() == one_cpu
        assert seen == {("MainThread", 1)} and threading.active_count() == threads

    def test_members_check_their_retained_start_once(self, monkeypatch):
        # The forcing and each member's initial condition are made on the retained
        # modes and checked there once: no full-layout check (_require_fits) or gather.
        # A member's retained start goes to simulate as it is, and its w0_norm keeps
        # the bytes of sobolev_norm of that start.
        template = SolverConfig(
            K=12, nu=1.0, delta=0.5, order=1, dt=0.05, T=1.0,
            forcing=FieldSpec(kind="random_spectrum", seed=63, target_norm=0.3),
        )
        calls = []
        for name in ("_require_fits", "_gather", "_require_solenoidal"):
            def counted(*args, _name=name, _fn=getattr(solver, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(solver, name, counted)
        report = ensemble_absorb_probe(R=1.0, rho0_prime=0.5, ensemble_size=2, template=template)
        assert calls == ["_require_solenoidal"] * 3
        monkeypatch.undo()
        model = build_model(template)
        for m in report.members:
            spec = FieldSpec(kind="random_spectrum", seed=m.seed, target_norm=1.0)
            u0 = generate_ic(spec, model.grid)
            u0 = u0 * ((m.index + 1) / 2 / sobolev_norm(model.filters.apply(u0), 0.0))
            want = sobolev_norm(initial_state(u0, model).w, 0.0)
            assert np.float64(m.w0_norm).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("seed", [3, 40])
    @pytest.mark.parametrize("K", [8, 16, 32, 34, 48, 64])
    def test_member_starts_equal_the_full_layout_path(self, K, seed, tmp_path, monkeypatch):
        # Each template kind: a member's start words and w0_norm equal those of
        # generate_ic, filters.apply, sobolev_norm and initial_state. The members
        # are not run.
        seen = []

        def started(config, initial):
            seen.append(solver._retained(initial).tobytes())
            return Trajectory(*[np.ones(1)] * 8)

        monkeypatch.setattr(attractor, "simulate", started)
        grid = make_grid(K)
        for kind, ic in start_specs(grid, seed, tmp_path / "w.snap").items():
            template = SolverConfig(K=K, nu=1.0, delta=0.5, order=1, dt=0.01, T=0.0, ic=ic)
            seen.clear()
            report = ensemble_absorb_probe(R=1.0, rho0_prime=0.5, ensemble_size=2,
                                           template=template, base_seed=seed)
            model, want = build_model(template), []
            for m in report.members:
                if kind == "single_mode":
                    spec = ic
                else:
                    spec = replace(ic if kind == "random_spectrum" else FieldSpec(
                        kind="random_spectrum"), seed=m.seed, target_norm=1.0)
                u0 = generate_ic(spec, grid)
                u0 = u0 * ((m.index + 1) / 2 / sobolev_norm(model.filters.apply(u0), 0.0))
                state = initial_state(u0, model)
                want.append(solver._retained(state).tobytes())
                have_norm, want_norm = (np.float64(v).tobytes()
                                        for v in (m.w0_norm, sobolev_norm(state.w, 0.0)))
                assert have_norm == want_norm, kind
            assert sorted(seen) == sorted(want), kind

    @TWO_CPUS
    def test_threads_do_not_change_results(self):
        template = SolverConfig(
            K=8, nu=1.0, delta=0.5, order=1, dt=0.05, T=1.0,
            forcing=FieldSpec(kind="random_spectrum", seed=62, target_norm=0.3),
        )

        def run():
            return ensemble_absorb_probe(
                R=1.0, rho0_prime=0.5, ensemble_size=3, template=template
            )

        with on_cpus(1):
            serial = run()
        with on_cpus(2):
            threaded = run()
        for a, b in zip(serial.members, threaded.members):
            assert a.entry_time == b.entry_time
            assert np.array_equal(a.trajectory.h0_sq, b.trajectory.h0_sq)
