import argparse
import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from deconvbox import attractor, cli, solver
from deconvbox import (
    cli_main,
    ensemble_absorb_probe,
    parse_config,
    read_snapshot,
    read_snapshot_meta,
    read_timeseries,
    simulate_with_state,
)

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

GOOD_CONFIG = """
K = 8
nu = 1.0
delta = 1.0
N = 1
dt = 0.01
T = 0.05
ic = zero
forcing = zero
"""

FORCED_CONFIG = """
K = 8
nu = 0.5
delta = 0.5
N = 1
dt = 0.02
T = 0.2
ic = random_spectrum
ic_seed = 80
ic_target_norm = 1.0
forcing = random_spectrum
forcing_seed = 81
forcing_target_norm = 0.3
"""

BLOWUP_CONFIG = """
K = 8
nu = 0.0001
delta = 0.5
N = 1
dt = 5.0
T = 60.0
ic = random_spectrum
ic_seed = 82
ic_target_norm = 10.0
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestSimulateCommand:
    def test_zero_run_exits_clean(self, tmp_path, capsys):
        cfg = write(tmp_path, "run.cfg", GOOD_CONFIG)
        out = tmp_path / "ts.csv"
        assert cli_main(["simulate", "--config", cfg, "--output", str(out)]) == 0
        traj = read_timeseries(out)
        assert np.all(traj.h0_sq == 0.0)

    def test_blow_up_exits_2(self, tmp_path, capsys, recwarn):
        cfg = write(tmp_path, "run.cfg", BLOWUP_CONFIG)
        out = tmp_path / "ts.csv"
        code = cli_main(["simulate", "--config", cfg, "--output", str(out)])
        assert code == 2
        assert "blow-up" in capsys.readouterr().err

    def test_infinite_horizon_exits_1(self, tmp_path, capsys):
        cfg = write(tmp_path, "run.cfg", GOOD_CONFIG.replace("T = 0.05", "T = inf"))
        assert cli_main(["simulate", "--config", cfg]) == 1
        assert "T: expected a finite number, got 'inf'" in capsys.readouterr().err

    def test_invalid_config_exits_1(self, tmp_path, capsys):
        cfg = write(tmp_path, "run.cfg", "K = 15\nnu = -1\ndelta = 0\nN = 1\n")
        assert cli_main(["simulate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "K:" in err and "delta:" in err

    def test_missing_config_exits_3(self, tmp_path, capsys):
        assert cli_main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 3

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        cfg = write(tmp_path, "run.cfg", GOOD_CONFIG)
        bad = tmp_path / "no_such_dir" / "ts.csv"
        assert cli_main(["simulate", "--config", cfg, "--output", str(bad)]) == 3

    def test_snapshot_out_roundtrip(self, tmp_path):
        # two CLI segments chained through `ic = snapshot` reproduce one
        # uninterrupted run of twice the horizon bit for bit
        first = write(tmp_path, "first.cfg", FORCED_CONFIG)
        snap = tmp_path / "first.snap"
        code = cli_main(
            ["simulate", "--config", first, "--output", str(tmp_path / "ts.csv"),
             "--snapshot-out", str(snap)]
        )
        assert code == 0
        assert read_snapshot_meta(snap).K == 8

        resumed = FORCED_CONFIG.replace(
            "ic = random_spectrum\nic_seed = 80\nic_target_norm = 1.0",
            f"ic = snapshot\nic_path = {snap}",
        )
        assert "ic_seed" not in resumed
        second = write(tmp_path, "second.cfg", resumed)
        final = tmp_path / "second.snap"
        code = cli_main(
            ["simulate", "--config", second, "--output", str(tmp_path / "ts2.csv"),
             "--snapshot-out", str(final)]
        )
        assert code == 0

        whole = parse_config(FORCED_CONFIG.replace("T = 0.2", "T = 0.4"))
        _, direct = simulate_with_state(whole)
        back = read_snapshot(final)
        assert back.t == direct.t
        assert np.array_equal(back.w.coeff, direct.w.coeff)

    def test_resume_under_different_model_exits_1(self, tmp_path, capsys):
        first = write(tmp_path, "first.cfg", FORCED_CONFIG)
        snap = tmp_path / "first.snap"
        args = ["simulate", "--config", first, "--output", str(tmp_path / "ts.csv")]
        assert cli_main(args + ["--snapshot-out", str(snap)]) == 0
        other = GOOD_CONFIG.replace("ic = zero", f"ic = snapshot\nic_path = {snap}")
        second = write(tmp_path, "second.cfg", other)
        assert cli_main(["simulate", "--config", second]) == 1
        err = capsys.readouterr().err
        assert "nu = 0.5 stored, 1.0 requested" in err
        assert "delta = 0.5 stored, 1.0 requested" in err


class TestOtherCommands:
    def test_deconv_table_contains_reference_row(self, capsys):
        assert cli_main(["deconv-table", "--delta", "1", "--N", "1", "--k2max", "4"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "k2,g,hn"
        rows = {float(r.split(",")[0]): tuple(map(float, r.split(",")[1:])) for r in out[1:]}
        assert rows[1.0][0] == pytest.approx(0.5, abs=1e-15)
        assert rows[1.0][1] == pytest.approx(0.75, abs=1e-15)
        assert max(rows) <= 4.0

    @pytest.mark.parametrize("k2max", ["4", "10", "27.5"])
    def test_deconv_table_lists_every_sum_of_three_squares(self, k2max, capsys):
        # K follows --k2max, so the lattice holds every k^2 up to it.
        assert cli_main(["deconv-table", "--delta", "1", "--N", "1", "--k2max", k2max]) == 0
        k2s = [float(row.split(",")[0]) for row in capsys.readouterr().out.splitlines()[1:]]
        sums = {a * a + b * b + c * c for a in range(6) for b in range(6) for c in range(6)}
        assert k2s == sorted(n for n in sums if n <= float(k2max))

    @pytest.mark.parametrize(
        "flags",
        [["--delta", "1", "--k2max", "inf"], ["--delta", "1", "--k2max", "nan"]],
    )
    def test_deconv_table_non_finite_k2max_exits_1(self, flags, capsys):
        assert cli_main(["deconv-table", "--N", "1", *flags]) == 1
        assert "k2max: must be finite and positive" in capsys.readouterr().err

    def test_deconv_table_infinite_delta_exits_1(self, capsys):
        assert cli_main(["deconv-table", "--delta", "inf", "--N", "1"]) == 1
        assert "delta must be positive and finite" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_deconv_table_symbol_failure_exits_2(self, capsys):
        # delta^2 |k|^2 overflows, so H_N rounds to 0 outside (0, 1].
        assert cli_main(["deconv-table", "--delta", "1e308", "--N", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "symbol values escaped" in captured.err

    def test_verify_operators_passes(self, capsys):
        assert cli_main(["verify-operators", "--K", "8"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    @pytest.mark.parametrize("K", ["12", "14", "18"])
    def test_verify_operators_passes_where_3_divides_K_or_fftfreq_rounds(self, K, capsys):
        assert cli_main(["verify-operators", "--K", K]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    @pytest.mark.parametrize("K", ["36", "48", "64"])
    def test_verify_operators_passes_on_grids_that_split_the_kernel(self, K, capsys):
        # 2, 4 and 8 x-blocks: the checks' short run deals its kernel to the CPU pool,
        # and the commutation check holds at K=64 on its own scale.
        assert cli_main(["verify-operators", "--K", K]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and out.splitlines()[-1] == "23/23 operator checks passed"

    def test_module_route_runs_the_command_line(self, tmp_path):
        def run(*argv):
            env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
            return subprocess.run([sys.executable, "-m", "deconvbox.cli", *argv], cwd=tmp_path,
                                  env=env, capture_output=True, text=True, timeout=120)

        done = run("verify-operators", "--K", "8")
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "23/23 operator checks passed"
        assert run("simulate", "--config", "missing.cfg").returncode == 3

    def test_package_route_runs_the_command_line_with_no_warning(self, tmp_path):
        def run(*argv):
            env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
            return subprocess.run([sys.executable, "-W", "error", "-m", "deconvbox", *argv],
                                  cwd=tmp_path, env=env, capture_output=True, text=True,
                                  timeout=120)

        done = run("verify-operators", "--K", "8")
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "23/23 operator checks passed"
        assert run("simulate", "--config", "missing.cfg").returncode == 3

    def test_a_negative_spectrum_exponent_runs_with_warnings_as_errors(self, tmp_path):
        # A -5/3 slope once printed numpy's divide-by-zero warning, and exited 1 under -W error.
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        done = []
        for i, flags in enumerate(([], ["-W", "error"])):
            (tmp_path / str(i)).mkdir()
            write(tmp_path / str(i), "run.cfg", GOOD_CONFIG.replace("K = 8", "K = 16").replace(
                "ic = zero", "ic = random_spectrum\nic_exponent = -1.6667"))
            done.append(subprocess.run(
                [sys.executable, *flags, "-m", "deconvbox", "simulate", "--config", "run.cfg"],
                cwd=tmp_path / str(i), env=env, capture_output=True, text=True, timeout=120))
        assert [d.returncode for d in done] == [0, 0], done[1].stderr
        assert done[0].stdout == done[1].stdout != "" and done[0].stderr == done[1].stderr == ""
        assert (tmp_path / "0" / "timeseries.csv").read_bytes() == (
            (tmp_path / "1" / "timeseries.csv").read_bytes())

    def test_energy_check_reports_order(self, tmp_path, capsys):
        cfg = write(tmp_path, "run.cfg", FORCED_CONFIG)
        assert cli_main(["energy-check", "--config", cfg, "--levels", "3"]) == 0
        out = capsys.readouterr().out
        assert "observed order" in out

    def test_energy_check_below_the_order_floor_exits_2(self, tmp_path, capsys, monkeypatch):
        # A study reading order 0.14, as one did when the run was not dealiased.
        study = solver.RefinementStudy(dts=(0.1, 0.05), residuals=(1e-3, 9.08e-4),
                                       orders=(0.14,))
        monkeypatch.setattr(cli, "energy_refinement_study", lambda config, levels: study)
        cfg = write(tmp_path, "run.cfg", FORCED_CONFIG)
        assert cli_main(["energy-check", "--config", cfg]) == cli.EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert "observed order: 0.140" in captured.out
        assert captured.err == f"observed order 0.140 is below the floor {cli.ENERGY_ORDER_FLOOR}\n"
        assert cli.ENERGY_ORDER_FLOOR == 1.5

    def test_energy_check_zero_residual_exits_1(self, tmp_path, capsys):
        cfg = write(tmp_path, "run.cfg", GOOD_CONFIG)
        assert cli_main(["energy-check", "--config", cfg, "--levels", "2"]) == 1
        assert "observed order is undefined" in capsys.readouterr().err

    def test_absorb_probe_writes_report(self, tmp_path, capsys):
        cfg = write(tmp_path, "run.cfg", FORCED_CONFIG)
        report = tmp_path / "probe.csv"
        code = cli_main(
            ["absorb-probe", "--config", cfg, "--members", "2", "--output", str(report)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "probe" in out
        lines = report.read_text().splitlines()
        assert lines[0].startswith("member,")
        assert len(lines) == 3

    @pytest.fixture(scope="module")
    def unset_probe(self, tmp_path_factory):
        """A 2-member CLI probe's arguments, and its stdout and CSV with DECONV_THREADS unset."""
        tmp_path = tmp_path_factory.mktemp("probe")
        report = tmp_path / "probe.csv"
        cfg = write(tmp_path, "run.cfg", FORCED_CONFIG)
        args = ["absorb-probe", "--config", cfg, "--members", "2", "--output", str(report)]
        out = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
            mp.delenv("DECONV_THREADS", raising=False)
            assert cli_main(args) == 0
        return args, (out.getvalue(), report.read_bytes())

    @pytest.mark.parametrize("threads", ["abc", "0", "-3", " 2x", "", "2"])
    def test_absorb_probe_ignores_deconv_threads(self, unset_probe, capsys, monkeypatch, threads):
        # The probe takes its threads from the CPU mask; the old variable, valid or
        # not, changes nothing.
        args, unset = unset_probe
        monkeypatch.setenv("DECONV_THREADS", threads)
        assert cli_main(args) == 0
        assert (capsys.readouterr().out, Path(args[-1]).read_bytes()) == unset

    @pytest.mark.parametrize("flag", ["--radius", "--rho0-prime"])
    def test_absorb_probe_non_finite_flag_exits_1(self, tmp_path, capsys, flag):
        # AbsorbingParams rejects the value, naming its field.
        cfg = write(tmp_path, "run.cfg", FORCED_CONFIG)
        assert cli_main(["absorb-probe", "--config", cfg, "--members", "2", flag, "nan"]) == 1
        name = {"--radius": "R", "--rho0-prime": "rho0_prime"}[flag]
        assert f"error: {name} must be finite" in capsys.readouterr().err

    def test_absorb_probe_negative_radius_exits_1(self, tmp_path, capsys):
        cfg = write(tmp_path, "run.cfg", FORCED_CONFIG)
        assert cli_main(["absorb-probe", "--config", cfg, "--radius", "-1"]) == 1
        assert "error: R must be finite and positive, got -1.0" in capsys.readouterr().err

    def test_absorb_probe_slack_from_config(self, tmp_path, monkeypatch):
        reports = []

        def recording(**kwargs):
            reports.append(ensemble_absorb_probe(**kwargs))
            return reports[-1]

        monkeypatch.setattr(cli, "ensemble_absorb_probe", recording)
        cfg = write(tmp_path, "run.cfg", FORCED_CONFIG + "epsilon = 0.5\n")
        assert cli_main(["absorb-probe", "--config", cfg, "--members", "1"]) == 0
        assert [r.epsilon for r in reports] == [0.5]

    @pytest.mark.parametrize(
        "argv",
        [
            ["absorb-probe", "--config", "run.cfg", "--epsilon", "0.2"],
            ["deconv-table", "--delta", "1", "--N", "1", "--K", "8"],
        ],
    )
    def test_deleted_flags_are_usage_errors(self, argv, capsys):
        # The probe's slack is the config's `epsilon`; the table's K follows --k2max.
        assert cli_main(argv) == 1
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    def test_model_built_once_per_command(self, tmp_path, capsys, monkeypatch):
        built = []
        original = solver.build_model

        def counting(config):
            built.append(config)
            return original(config)

        for module in (solver, attractor, cli):
            if hasattr(module, "build_model"):
                monkeypatch.setattr(module, "build_model", counting)
        cfg = write(tmp_path, "run.cfg", FORCED_CONFIG)
        out = ["--output", str(tmp_path / "ts.csv"), "--snapshot-out", str(tmp_path / "s.snap")]
        assert cli_main(["simulate", "--config", cfg] + out) == 0
        assert len(built) == 1
        built.clear()
        assert cli_main(["absorb-probe", "--config", cfg, "--members", "3"]) == 0
        assert len(built) == 1
        built.clear()
        assert cli_main(["energy-check", "--config", cfg, "--levels", "3"]) == 0
        assert len(built) == 1
        built.clear()
        ensemble_absorb_probe(
            R=1.0, rho0_prime=1.0, ensemble_size=3, template=parse_config(FORCED_CONFIG)
        )
        assert len(built) == 1

    def test_absorb_probe_zero_forcing_needs_explicit_radii(self, tmp_path, capsys):
        cfg = write(tmp_path, "run.cfg", GOOD_CONFIG)
        assert cli_main(["absorb-probe", "--config", cfg]) == 1

    def test_usage_error_exits_1(self, capsys):
        assert cli_main(["no-such-command"]) == 1
        assert cli_main([]) == 1

    def test_help_exits_0(self, capsys):
        assert cli_main(["--help"]) == 0


class TestReadme:
    def test_command_line_block_lists_exactly_the_flags_and_defaults(self):
        block = README.read_text(encoding="utf-8").split("## Command line", 1)[1].split("```")[1]
        usage = {}
        for line in block.strip().splitlines():
            if line.startswith("deconvbox "):
                command = line.split()[1]
            usage[command] = usage.get(command, "") + line
        parser = cli._build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(usage) == list(sub.choices)
        for command, parser in sub.choices.items():
            actions = {flag: a for a in parser._actions for flag in a.option_strings}
            del actions["-h"], actions["--help"]
            assert set(re.findall(r"--[\w-]+", usage[command])) == set(actions), command
            for flag, value in re.findall(r"\[(--[\w-]+) ([^\]]+)\]", usage[command]):
                if re.fullmatch(r"[\d.]+", value):
                    assert float(value) == actions[flag].default, (command, flag)
