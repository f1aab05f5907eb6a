import numpy as np
import pytest

from deconvbox import (
    ConfigError,
    FieldSpec,
    FilterParams,
    divergence_error,
    generate_ic,
    format_config,
    parse_config,
    sobolev_norm,
)

MINIMAL = """
K = 16
nu = 1.0
delta = 0.5
N = 2
"""


class TestParseConfig:
    def test_minimal_config_parses_with_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.K == 16
        assert cfg.nu == 1.0
        assert cfg.delta == 0.5
        assert cfg.order == 2
        assert cfg.dt == 0.01
        assert cfg.T == 1.0
        assert cfg.sample_every == 1
        assert cfg.ic.kind == "zero"
        assert cfg.forcing.kind == "zero"
        assert cfg.dealias == "two_thirds"
        assert not cfg.auto_project_ic

    def test_comments_and_sections_ignored(self):
        text = "[domain]\nK = 16  # points per axis\n[model]\nnu = 1\ndelta = 0.5\nN = 0\n"
        assert parse_config(text).K == 16

    def test_zero_delta_names_the_field(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL.replace("delta = 0.5", "delta = 0"))
        assert any(e.startswith("delta:") for e in exc.value.errors)

    def test_odd_k_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL.replace("K = 16", "K = 15"))
        assert any("even" in e for e in exc.value.errors)

    def test_unknown_dealias_rule_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + "dealias = three_halves\n")
        assert exc.value.errors == ["dealias: must be two_thirds or none, got 'three_halves'"]

    def test_all_errors_collected(self):
        text = "K = 15\nnu = -1\ndelta = 0\nN = 99\nwhatever = 3\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        msgs = exc.value.errors
        for key in ("K:", "nu:", "delta:", "N:", "whatever:"):
            assert any(m.startswith(key) for m in msgs)
        assert len(msgs) >= 5

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(MINIMAL + "viscosity = 2\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(MINIMAL + "K = 8\n")

    def test_missing_required(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("K = 16\n")
        assert sum("required" in e for e in exc.value.errors) == 3

    def test_malformed_line_reports_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("K = 16\nnot a key value\nnu = 1\ndelta = 1\nN = 0\n")

    def test_single_mode_requires_k_and_amplitude(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + "ic = single_mode\n")
        assert any("ic_k" in e for e in exc.value.errors)
        assert any("ic_amplitude" in e for e in exc.value.errors)

    def test_full_round_trip_through_format(self):
        text = MINIMAL + (
            "dt = 0.005\nT = 0.75\nsample_every = 3\nepsilon = 0.1\n"
            "ic = random_spectrum\nic_seed = 9\nic_target_norm = 2.5\n"
            "forcing = single_mode\nforcing_k = 1,0,0\nforcing_amplitude = 0,0.25,0\n"
        )
        cfg = parse_config(text)
        again = parse_config(format_config(cfg))
        assert again == cfg

    def test_bad_vector_and_bool(self):
        text = MINIMAL + (
            "auto_project_ic = maybe\nic = single_mode\nic_k = 1,0\nic_amplitude = a,b,c\n"
        )
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert any("auto_project_ic" in e for e in exc.value.errors)
        assert any("ic_k" in e for e in exc.value.errors)
        assert any("ic_amplitude" in e for e in exc.value.errors)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "key",
        [
            "nu", "delta", "dt", "T", "epsilon",
            "ic_target_norm", "ic_cutoff", "ic_exponent",
            "forcing_target_norm", "forcing_cutoff", "forcing_exponent",
        ],
    )
    def test_non_finite_number_rejected(self, key, value):
        keys = {
            "K": "16", "nu": "1.0", "delta": "0.5", "N": "2",
            "ic": "random_spectrum", "forcing": "random_spectrum",
        }
        keys[key] = value
        text = "".join(f"{k} = {v}\n" for k, v in keys.items())
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert exc.value.errors == [f"{key}: expected a finite number, got {value!r}"]

    def test_non_finite_amplitude_rejected(self):
        text = MINIMAL + "ic = single_mode\nic_k = 1,0,0\nic_amplitude = 0,nan,0\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert exc.value.errors == [
            "ic_amplitude: expected three comma-separated finite numbers, got '0,nan,0'"
        ]


class TestGenerateIC:
    def test_zero_spec(self, grid16):
        w = generate_ic(FieldSpec(kind="zero"), grid16)
        assert sobolev_norm(w, 0.0) == 0.0

    def test_canonical_shear_mode(self, grid16):
        w = generate_ic(
            FieldSpec(kind="single_mode", mode=(1, 0, 0), amplitude=(0.0, 1.0, 0.0)),
            grid16,
        )
        assert sobolev_norm(w, 0.0) ** 2 == pytest.approx(2.0, rel=1e-14)

    def test_non_orthogonal_amplitude_rejected(self, grid16):
        with pytest.raises(ValueError, match="orthogonal"):
            generate_ic(
                FieldSpec(kind="single_mode", mode=(1, 0, 0), amplitude=(1.0, 1.0, 0.0)),
                grid16,
            )

    def test_random_target_norm_exact(self, grid16):
        w = generate_ic(
            FieldSpec(kind="random_spectrum", seed=3, target_norm=3.0), grid16
        )
        assert abs(sobolev_norm(w, 0.0) - 3.0) <= 1e-12

    def test_random_is_divergence_free_and_zero_mean(self, grid16):
        w = generate_ic(FieldSpec(kind="random_spectrum", seed=4), grid16)
        assert divergence_error(w) <= 1e-13
        assert np.all(w.coeff[:, 0, 0, 0] == 0.0)

    def test_random_deterministic_per_seed(self, grid16):
        spec = FieldSpec(kind="random_spectrum", seed=5, target_norm=1.5)
        a = generate_ic(spec, grid16)
        b = generate_ic(spec, grid16)
        assert np.array_equal(a.coeff, b.coeff)
        c = generate_ic(FieldSpec(kind="random_spectrum", seed=6), grid16)
        assert not np.array_equal(a.coeff, c.coeff)

    def test_filters_argument_accepted(self, grid16):
        w = generate_ic(
            FieldSpec(kind="random_spectrum", seed=7), grid16, FilterParams(0.5, 1)
        )
        assert sobolev_norm(w, 0.0) > 0.0

    def test_spectrum_profile_is_banded(self, grid16):
        # the default profile peaks well below the mask cutoff, so the
        # highest retained shell should carry almost nothing
        w = generate_ic(
            FieldSpec(kind="random_spectrum", seed=8, target_norm=1.0), grid16
        )
        amp2 = (np.abs(w.coeff) ** 2).sum(axis=0) * grid16.mult
        high = amp2[grid16.ksq >= 20.0].sum()
        assert high <= 0.2 * amp2.sum()
