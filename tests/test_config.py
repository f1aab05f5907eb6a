import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

from deconvbox import (
    ConfigError,
    FieldSpec,
    FilterParams,
    SolverConfig,
    divergence_error,
    generate_ic,
    format_config,
    make_grid,
    parse_config,
    simulate,
    sobolev_norm,
)
from deconvbox.config import FIELD_KINDS, _FIELD_PREFIXES, _KIND_KEYS, _TOP_KEYS
from deconvbox.verify import _random_spectrum_reference

README = Path(__file__).resolve().parents[1] / "README.md"

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

    @pytest.mark.parametrize("rule", ["two_thirds", "none"])
    def test_dealias_is_an_unknown_key(self, rule):
        # The 2/3 rule is the only one; naming any rule is an error.
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + f"dealias = {rule}\n")
        assert exc.value.errors == ["dealias: unknown key"]

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
        # Every field kind for ic and forcing and both auto_project_ic values.
        extras = [
            "dt = 0.005\nT = 0.75\nsample_every = 3\nepsilon = 0.1\n"
            "ic = random_spectrum\nic_seed = 9\nic_target_norm = 2.5\n"
            "forcing = single_mode\nforcing_k = 1,0,0\nforcing_amplitude = 0,0.25,0\n",
            "auto_project_ic = true\n"
            "ic = single_mode\nic_k = 0,-2,1\nic_amplitude = 1.5,0,0\n"
            "forcing = random_spectrum\nforcing_seed = 4\nforcing_exponent = 2.5\n"
            "forcing_cutoff = 3.25\nforcing_target_norm = 0.125\n",
            "ic = snapshot\nic_path = runs/state one.snap\nforcing = zero\n",
            "ic = zero\nforcing = snapshot\nforcing_path = f.snap\n",
            "ic = random_spectrum\nic_exponent = 1e-3\nic_cutoff = 2\n",
        ]
        for extra in extras:
            cfg = parse_config(MINIMAL + extra)
            again = parse_config(format_config(cfg))
            assert again == cfg
            assert format_config(again) == format_config(cfg)

    def test_unparsable_k_reports_only_the_parse_error(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL.replace("K = 16", "K = 1e3"))
        assert exc.value.errors == ["K: expected an integer, got '1e3'"]

    @pytest.mark.parametrize("prefix", ["ic", "forcing"])
    def test_negative_seed_rejected(self, prefix):
        text = MINIMAL + f"{prefix} = random_spectrum\n{prefix}_seed = -1\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert exc.value.errors == [f"{prefix}_seed: must be nonnegative, got -1"]

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


    @pytest.mark.parametrize(
        "extra, error",
        [
            ("ic = snapshot\nic_path = a\nic_seed = 2\n", "ic_seed: not a key of ic = snapshot"),
            ("forcing_k = 1,0,0\n", "forcing_k: not a key of forcing = zero"),
            ("ic = random_spectrum\nic_path = a\n", "ic_path: not a key of ic = random_spectrum"),
        ],
    )
    def test_key_of_another_kind_rejected(self, extra, error):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + extra)
        assert exc.value.errors == [error]

    @pytest.mark.parametrize("path", ["runs/a#1.snap", "a\nb.snap", " a.snap", "a.snap ", "a\rb"])
    @pytest.mark.parametrize("prefix", ["ic", "forcing"])
    def test_format_rejects_a_path_the_parser_cannot_read_back(self, prefix, path):
        spec = FieldSpec(kind="snapshot", path=path)
        config = SolverConfig(K=16, nu=1.0, delta=0.5, order=2, **{prefix: spec})
        with pytest.raises(ValueError, match=f"^{prefix}_path: "):
            format_config(config)


class TestReadme:
    def test_config_section_names_exactly_the_schema_keys(self):
        text = README.read_text(encoding="utf-8")
        section = text.split("### Config file format", 1)[1].split("\n### ", 1)[0]
        rows = [line.split("|")[1:4] for line in section.splitlines() if line.startswith("| `")]
        keys = {name for cell, _, _ in rows for name in re.findall(r"`(\w+)`", cell)}
        assert keys == {key.name for key in _TOP_KEYS}.union(_FIELD_PREFIXES)
        # The default column: `required`, or the defaults as format_config writes them.
        defaults = {f.name: f.default for f in dataclasses.fields(SolverConfig)}
        written = {
            key.name: "required" if key.required else f"`{key.type.render(defaults[key.field])}`"
            for key in _TOP_KEYS
        }
        written |= dict.fromkeys(_FIELD_PREFIXES, f"`{FieldSpec.kind}`")
        for cell, _, default in rows:
            want = dict.fromkeys(written[name] for name in re.findall(r"`(\w+)`", cell))
            assert default.strip() == ", ".join(want), cell
        kinds = [re.findall(r"`(\w+)`", meaning) for cell, meaning, _ in rows if "`ic`" in cell]
        assert kinds == [list(FIELD_KINDS)]
        per_kind = section.split("Per-kind keys", 1)[1].split("\n\n", 1)[0]
        suffixes = set(re.findall(r"`\*(_\w+)", per_kind))
        assert suffixes == {key.name for keys in _KIND_KEYS.values() for key in keys}


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

    def test_default_seed_is_reproducible_and_matches_the_parser(self):
        grid = make_grid(8)
        a = generate_ic(FieldSpec(kind="random_spectrum"), grid)
        b = generate_ic(FieldSpec(kind="random_spectrum"), grid)
        parsed = parse_config("K = 8\nnu = 1\ndelta = 1\nN = 0\nic = random_spectrum\n").ic
        c = generate_ic(parsed, grid)
        assert a.coeff.tobytes() == b.coeff.tobytes() == c.coeff.tobytes()

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(target_norm=-1.0), "target_norm: must be positive"),
            (dict(target_norm=math.nan), "target_norm: expected a finite number, got nan"),
            (dict(cutoff=math.nan), "cutoff: expected a finite number, got nan"),
            (dict(exponent=math.nan), "exponent: expected a finite number, got nan"),
            (dict(cutoff=-math.inf), "cutoff: expected a finite number, got -inf"),
            (dict(cutoff=0.0), "cutoff: must be positive"),
            (dict(seed=-2), "seed: must be nonnegative, got -2"),
        ],
    )
    def test_hand_built_spec_rejected_as_its_text_would_be(self, grid16, fields, message):
        # A sign-flipped or all-NaN field is never returned, and no run starts from one.
        spec = FieldSpec(kind="random_spectrum", **fields)
        with pytest.raises(ConfigError) as exc:
            generate_ic(spec, grid16)
        assert str(exc.value) == message
        for key in ("ic", "forcing"):
            cfg = SolverConfig(K=16, nu=1.0, delta=0.5, order=2, T=0.0, **{key: spec})
            with pytest.raises(ConfigError) as exc:
                simulate(cfg)
            assert str(exc.value) == message
        ((name, value),) = fields.items()
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + f"ic = random_spectrum\nic_{name} = {value}\n")
        # Text that does not parse is quoted.
        quoted = message.replace(f"got {value}", f"got {str(value)!r}")
        assert exc.value.errors == ["ic_" + (quoted if ": expected " in message else message)]

    def test_filters_argument_accepted(self, grid16):
        w = generate_ic(
            FieldSpec(kind="random_spectrum", seed=7), grid16, FilterParams(0.5, 1)
        )
        assert sobolev_norm(w, 0.0) > 0.0

    @pytest.mark.parametrize("K", [6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 32])
    @pytest.mark.parametrize(
        "seed, exponent, cutoff, target",
        [(0, 4.0, None, 1.0), (9, 2.0, 3.0, 2.5), (10, 0.5, 1.5, 0.3), (11, 6.0, 40.0, 1.0)],
    )
    def test_random_equals_the_full_layout_reference(self, K, seed, exponent, cutoff, target):
        # The generator works on the retained modes only; every retained
        # word and the norm's bytes equal the full-layout closed form's, and
        # the masked modes hold +0.0 where the reference has signed zeros.
        grid = make_grid(K)
        spec = FieldSpec(
            kind="random_spectrum", seed=seed, exponent=exponent, cutoff=cutoff,
            target_norm=target,
        )
        got, want = generate_ic(spec, grid), _random_spectrum_reference(spec, grid)

        def words(field):
            return np.take(field.coeff.reshape(3, -1), grid.ret_flat, axis=1).view(np.uint64)

        assert np.array_equal(words(got), words(want))
        assert np.float64(sobolev_norm(got, 0.0)).tobytes() == (
            np.float64(sobolev_norm(want, 0.0)).tobytes()
        )
        masked = np.ascontiguousarray(got.coeff[:, ~grid.mask])
        assert masked.size and not masked.view(np.uint64).any()
        assert np.array_equal(got.coeff, want.coeff)

    def test_spectrum_profile_is_banded(self, grid16):
        # the default profile peaks well below the mask cutoff, so the
        # highest retained shell should carry almost nothing
        w = generate_ic(
            FieldSpec(kind="random_spectrum", seed=8, target_norm=1.0), grid16
        )
        amp2 = (np.abs(w.coeff) ** 2).sum(axis=0) * grid16.mult
        high = amp2[grid16.ksq >= 20.0].sum()
        assert high <= 0.2 * amp2.sum()
