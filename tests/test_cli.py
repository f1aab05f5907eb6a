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
            "ic = random_spectrum", f"ic = snapshot\nic_path = {snap}"
        )
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

    @pytest.mark.parametrize(
        "flags",
        [["--delta", "1", "--k2max", "inf"], ["--delta", "1", "--k2max", "nan", "--K", "8"]],
    )
    def test_deconv_table_non_finite_k2max_exits_1(self, flags, capsys):
        assert cli_main(["deconv-table", "--N", "1", *flags]) == 1
        assert "k2max: must be finite and positive" in capsys.readouterr().err

    def test_deconv_table_infinite_delta_exits_1(self, capsys):
        assert cli_main(["deconv-table", "--delta", "inf", "--N", "1", "--K", "8"]) == 1
        assert "delta must be positive and finite" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_deconv_table_symbol_failure_exits_2(self, capsys):
        # delta^2 |k|^2 overflows, so H_N rounds to 0 outside (0, 1].
        assert cli_main(["deconv-table", "--delta", "1e308", "--N", "1", "--K", "8"]) == 2
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

    def test_energy_check_reports_order(self, tmp_path, capsys):
        cfg = write(tmp_path, "run.cfg", FORCED_CONFIG)
        assert cli_main(["energy-check", "--config", cfg, "--levels", "3"]) == 0
        out = capsys.readouterr().out
        assert "observed order" in out

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

    @pytest.mark.parametrize("threads", ["abc", "0", "-3", " 2x", ""])
    def test_absorb_probe_invalid_threads_exits_1(self, tmp_path, capsys, monkeypatch, threads):
        monkeypatch.setenv("DECONV_THREADS", threads)
        cfg = write(tmp_path, "run.cfg", FORCED_CONFIG)
        assert cli_main(["absorb-probe", "--config", cfg, "--members", "2"]) == 1
        assert f"DECONV_THREADS must be a base-10 integer >= 1, got {threads!r}" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("flag", ["--epsilon", "--radius", "--rho0-prime"])
    def test_absorb_probe_non_finite_flag_exits_1(self, tmp_path, capsys, flag):
        cfg = write(tmp_path, "run.cfg", FORCED_CONFIG)
        assert cli_main(["absorb-probe", "--config", cfg, "--members", "2", flag, "nan"]) == 1
        assert f"{flag} must be finite, got nan" in capsys.readouterr().err

    def test_absorb_probe_negative_epsilon_exits_1(self, tmp_path, capsys):
        cfg = write(tmp_path, "run.cfg", FORCED_CONFIG)
        assert cli_main(["absorb-probe", "--config", cfg, "--epsilon", "-0.1"]) == 1
        assert "--epsilon must be nonnegative" in capsys.readouterr().err

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
