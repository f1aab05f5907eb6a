import dataclasses
import hashlib
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert cfg.epsilon == 0.05

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
        # Every field kind for ic and forcing.
        extras = [
            "dt = 0.005\nT = 0.75\nsample_every = 3\nepsilon = 0.1\n"
            "ic = random_spectrum\nic_seed = 9\nic_target_norm = 2.5\n"
            "forcing = single_mode\nforcing_k = 1,0,0\nforcing_amplitude = 0,0.25,0\n",
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
            "forcing = random_spectrum\nforcing_seed = true\n"
            "ic = single_mode\nic_k = 1,0\nic_amplitude = a,b,c\n"
        )
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert "forcing_seed: expected an integer, got 'true'" in exc.value.errors
        assert any("ic_k" in e for e in exc.value.errors)
        assert any("ic_amplitude" in e for e in exc.value.errors)

    def test_auto_project_ic_is_an_unknown_key(self):
        # Initial data must be divergence-free; leray_project makes them so.
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + "auto_project_ic = true\n")
        assert exc.value.errors == ["auto_project_ic: unknown key"]
        assert "auto_project_ic" not in {f.name for f in dataclasses.fields(SolverConfig)}

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


# Values no text parses to, by the type a key parses to, with whether some text could name
# them at all (every text is a string, so a bad path has no text counterpart). A list or a
# path object is one: it would read back as a tuple or a str, unequal to it.
UNPARSABLE = {
    "an integer": (True, 2.5, "one"),
    "a finite number": (True, "one", math.nan, math.inf, -math.inf),
    "three comma-separated integers": ((1.5, 0, 0), (True, 0, 0), (1, 0), "one", [1, 0, 0]),
    "three comma-separated finite numbers": (
        (0.0, math.nan, 0.0), (True, 0.0, 0.0), "one", [0.0, 1.0, 0.0]
    ),
    "a string": (True, 3, Path("a.snap")),
}
# Per key, values of the right type out of its range; a new key must be listed here.
OUT_OF_RANGE = {
    "K": (2, 3, 15), "nu": (0.0, -1.0), "delta": (0.0, -0.5), "N": (-1, 65),
    "dt": (0.0, -0.5), "T": (-1.0,), "sample_every": (0, -1), "epsilon": (-0.1,),
    "_k": (), "_amplitude": (), "_seed": (-1,), "_exponent": (), "_cutoff": (0.0, -2.0),
    "_target_norm": (0.0, -1.0), "_path": (),
}
# The required keys of each kind, as fields and as text.
REQUIRED = {
    "zero": ({}, {}),
    "single_mode": (
        dict(mode=(1, 0, 0), amplitude=(0.0, 1.0, 0.0)), {"_k": "1,0,0", "_amplitude": "0,1,0"}
    ),
    "random_spectrum": ({}, {}),
    "snapshot": (dict(path="a.snap"), {"_path": "a.snap"}),
}
MINIMAL_KEYS = {"K": 16, "nu": 1.0, "delta": 0.5, "order": 2}


def _text(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _bad_values():
    for kind, keys in [(None, _TOP_KEYS), *_KIND_KEYS.items()]:
        for key in keys:
            for value in UNPARSABLE[key.type.expected]:
                yield pytest.param(kind, key, value, True, id=f"{key.name}={value!r}")
            for value in OUT_OF_RANGE[key.name]:
                yield pytest.param(kind, key, value, False, id=f"{key.name}={value!r}")


class TestBuiltConfig:
    def test_every_key_has_its_bad_values(self):
        keys = _TOP_KEYS + tuple(key for keys in _KIND_KEYS.values() for key in keys)
        assert set(OUT_OF_RANGE) == {key.name for key in keys}
        assert {key.name for key in keys if key.rules} == {k for k, v in OUT_OF_RANGE.items() if v}
        assert set(REQUIRED) == set(FIELD_KINDS)

    @pytest.mark.parametrize("kind, key, value, unparsable", _bad_values())
    def test_bad_value_rejected_when_built_in_the_parsers_words(
        self, kind, key, value, unparsable
    ):
        name = key.name.lstrip("_")
        with pytest.raises(ConfigError) as exc:
            if kind is None:
                SolverConfig(**(MINIMAL_KEYS | {key.field: value}))
            else:
                FieldSpec(kind=kind, **(REQUIRED[kind][0] | {key.field: value}))
        (message,) = exc.value.errors
        assert message.startswith(f"{name}: ") and message.endswith(f", got {value!r}")
        text = f"{key.name} = {_text(value)}\n"
        if kind is not None:
            lines = REQUIRED[kind][1] | {key.name: _text(value)}
            text = f"ic = {kind}\n" + "".join(f"ic{k} = {v}\n" for k, v in lines.items())
        if key.type.expected == "a string":
            return  # every text is a string
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL.replace(f"{key.name} = ", "# ") + text)
        # Text that does not parse is quoted.
        if unparsable:
            message = message.replace(f"got {value!r}", f"got {_text(value)!r}")
        assert exc.value.errors == [("" if kind is None else "ic_") + message]

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: SolverConfig(K=8, nu=1.0, delta=1.0, order=1, T=0.02, dt="0.01"),
             "dt: expected a finite number, got '0.01'"),
            (lambda: SolverConfig(K=8, nu=True, delta=1.0, order=1),
             "nu: expected a finite number, got True"),
            (lambda: SolverConfig(K=8, nu=1.0, delta=1.0, order=True),
             "N: expected an integer, got True"),
            (lambda: SolverConfig(K=8, nu=1.0, delta="0.5", order=1),
             "delta: expected a finite number, got '0.5'"),
            (lambda: FieldSpec(kind="snapshot"), "path: required for kind = snapshot"),
            (lambda: SolverConfig(K=8, nu=1.0, delta=1.0, order=1, ic=None),
             "ic: expected a FieldSpec, got None"),
            (lambda: SolverConfig(K=8, nu=1.0, delta=1.0, order=1, epsilon=math.nan),
             "epsilon: expected a finite number, got nan"),
            (lambda: FieldSpec(kind="single_mode", mode=(1, 0, 0)),
             "amplitude: required for kind = single_mode"),
            (lambda: FieldSpec(kind="vortex"),
             "kind: must be one of zero, single_mode, random_spectrum, snapshot, got 'vortex'"),
            # format_config writes only the kind's keys, so these were lost on the way back.
            (lambda: FieldSpec(kind="zero", seed=5), "seed: not a key of kind = zero"),
            (lambda: FieldSpec(kind="random_spectrum", path="x"),
             "path: not a key of kind = random_spectrum"),
            (lambda: FieldSpec(kind="snapshot", path="a", mode=(1, 0, 0)),
             "k: not a key of kind = snapshot"),
            # A numpy scalar is shown as the number the parser would read.
            (lambda: SolverConfig(K=8, nu=np.float64(-1.0), delta=1.0, order=1),
             "nu: must be positive, got -1.0"),
            (lambda: SolverConfig(K=np.int64(7), nu=1.0, delta=1.0, order=1),
             "K: must be even, got 7"),
        ],
    )
    def test_value_that_used_to_run_wrong_rejected_when_built(self, build, message):
        # Each of these used to run as another value or fail only when used, some with a bare
        # TypeError or AttributeError.
        with pytest.raises(ConfigError) as exc:
            build()
        assert str(exc.value) == message


def mostly(valid, *invalid):
    """A strategy drawing from `valid`, or one in 20 times one of the values in `invalid`."""
    return st.integers(0, 19).flatmap(lambda i: valid if i else st.sampled_from(invalid))


# Per FieldSpec field, values equal to its default in several types, and other values,
# rarely ones its key cannot take. Paths are ones format_config can write (see
# test_format_rejects_a_path_the_parser_cannot_read_back).
AT_DEFAULT = dict(mode=(None,), amplitude=(None,), seed=(0, np.int64(0)),
                  exponent=(4.0, 4, np.float64(4.0)), cutoff=(None,), target_norm=(1.0, 1),
                  path=(None,))
OTHER = dict(
    mode=mostly(st.tuples(*[st.integers(-3, 3)] * 3), [1, 0, 0], (1, 0)),
    amplitude=mostly(st.tuples(*[st.floats(-2, 2) | st.integers(-2, 2)] * 3), (0.0, math.nan, 0.0)),
    seed=mostly(st.integers(0, 2**40) | st.just(np.int64(7)), -1, 2.0),
    exponent=mostly(st.floats(-8, 8) | st.just(np.float64(2.5)), math.inf),
    cutoff=mostly(st.floats(0.01, 1e3) | st.integers(1, 9), 0.0),
    target_norm=mostly(st.floats(1e-3, 1e3) | st.just(np.float64(0.5)), -1.0),
    path=mostly(st.text("ab/._ ", max_size=6).map(str.strip), Path("a.snap")),
)


@st.composite
def field_specs(draw):
    """FieldSpec arguments: other values for the kind's keys, and for the rest their defaults,
    or one in 20 times other values."""
    kind = draw(st.sampled_from(FIELD_KINDS))
    own = {key.field for key in _KIND_KEYS[kind]}
    values = {}
    for name, other in OTHER.items():
        at_default = name not in own and draw(st.integers(0, 19)) > 0
        values[name] = draw(st.sampled_from(AT_DEFAULT[name]) if at_default else other)
    return dict(kind=kind, **values)


class TestFormatRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(
        top=st.fixed_dictionaries(dict(
            K=mostly(st.sampled_from([4, 16, np.int64(8)]), 7),
            nu=mostly(st.floats(1e-3, 10) | st.just(np.float64(0.5)), -1.0),
            delta=mostly(st.floats(1e-3, 2) | st.integers(1, 3), 0),
            order=mostly(st.integers(0, 64), 65),
            dt=mostly(st.floats(1e-6, 1), 0.0),
            T=mostly(st.floats(0, 10) | st.just(np.float64(1.5)), -1.0),
            sample_every=mostly(st.integers(1, 4), 0),
            epsilon=mostly(st.floats(0, 1), math.nan),
        )),
        ic=field_specs(),
        forcing=field_specs(),
    )
    def test_every_config_that_builds_reads_back_from_its_text(self, top, ic, forcing):
        try:
            config = SolverConfig(**top, ic=FieldSpec(**ic), forcing=FieldSpec(**forcing))
        except ConfigError:
            return
        assert parse_config(format_config(config)) == config

    def test_fields_of_another_kind_at_their_defaults_build(self):
        spec = FieldSpec(kind="zero", seed=np.int64(0), exponent=4, target_norm=1)
        config = SolverConfig(K=8, nu=1.0, delta=1.0, order=1, forcing=spec)
        assert parse_config(format_config(config)) == config


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
        # The meaning column states each key's range rule in parentheses, one per key.
        stated = {}
        for cell, meaning, _ in rows:
            bounds = re.findall(r"\(([^)]*)\)", meaning)
            names = re.findall(r"`(\w+)`", cell)
            assert len(bounds) in (0, len(names)), cell
            stated |= dict(zip(names, bounds))
        by_name = {key.name: key for key in _TOP_KEYS}
        assert set(stated) == {key.name for key in _TOP_KEYS if key.rules}
        for name, bound in stated.items():
            for clause in bound.split(", "):
                self._probe_edge(by_name[name], clause)

    @staticmethod
    def _probe_edge(key, clause):
        """The key's rules accept a stated bound and reject the value just past it."""
        def holds(x):
            return all(rule.holds(x) for rule in key.rules)

        integer = isinstance(key.type.parse("1"), int)

        def past(x, direction):
            return x + direction if integer else math.nextafter(x, direction * math.inf)

        if clause == "even":
            assert holds(64) and not holds(63) and not holds(65), (key.name, clause)
        elif clause.startswith(("≥ ", "> ")):
            edge = key.type.parse(clause[2:])
            if clause[0] == "≥":
                assert holds(edge) and not holds(past(edge, -1)), (key.name, clause)
            else:
                assert not holds(edge) and holds(past(edge, 1)), (key.name, clause)
        else:
            low, high = (key.type.parse(x) for x in clause.split(" … "))
            assert holds(low) and holds(high), (key.name, clause)
            assert not holds(past(low, -1)) and not holds(past(high, 1)), (key.name, clause)


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
            (dict(target_norm=-1.0), "target_norm: must be positive, got -1.0"),
            (dict(target_norm=math.nan), "target_norm: expected a finite number, got nan"),
            (dict(cutoff=math.nan), "cutoff: expected a finite number, got nan"),
            (dict(exponent=math.nan), "exponent: expected a finite number, got nan"),
            (dict(cutoff=-math.inf), "cutoff: expected a finite number, got -inf"),
            (dict(cutoff=0.0), "cutoff: must be positive, got 0.0"),
            (dict(seed=-2), "seed: must be nonnegative, got -2"),
            (dict(seed=2.5), "seed: expected an integer, got 2.5"),
            (dict(seed=True), "seed: expected an integer, got True"),
        ],
    )
    def test_hand_built_spec_rejected_as_its_text_would_be(self, fields, message):
        # A sign-flipped or all-NaN field, numpy's bare TypeError or a bool seed read as 1 is
        # never the result: the spec is not built, so no field or run starts from one.
        with pytest.raises(ConfigError) as exc:
            FieldSpec(kind="random_spectrum", **fields)
        assert str(exc.value) == message
        ((name, value),) = fields.items()
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + f"ic = random_spectrum\nic_{name} = {value}\n")
        # Text that does not parse is quoted.
        quoted = message.replace(f"got {value}", f"got {str(value)!r}")
        assert exc.value.errors == ["ic_" + (quoted if ": expected " in message else message)]

    @pytest.mark.parametrize(
        "fields, message, text",
        [
            (dict(kind="single_mode", mode=(1, 0, 0), amplitude=(0.0, math.nan, 0.0)),
             "amplitude: expected three comma-separated finite numbers, got (0.0, nan, 0.0)",
             "ic = single_mode\nic_k = 1,0,0\nic_amplitude = 0,nan,0\n"),
            (dict(kind="single_mode", mode=(1.5, 0, 0), amplitude=(0.0, 1.0, 0.0)),
             "k: expected three comma-separated integers, got (1.5, 0, 0)",
             "ic = single_mode\nic_k = 1.5,0,0\nic_amplitude = 0,1,0\n"),
        ],
    )
    def test_hand_built_vector_rejected_as_its_text_would_be(self, fields, message, text):
        # Neither a NaN field nor one on the truncated mode (1, 0, 0).
        with pytest.raises(ConfigError) as exc:
            FieldSpec(**fields)
        assert str(exc.value) == message
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + text)
        (error,) = exc.value.errors
        assert error.startswith("ic_" + message.split(", got ")[0] + ", got '")

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

    # sha256 prefixes of generate_ic(...).coeff for seeds 0 and 7 at exponents -5/3 and 4,
    # taken from the full-layout generator before it moved to the retained modes.
    DIGESTS = {
        8: ("9540371974ec0a8f", "9bd774d712501885", "399e7dc761e4d9e2", "0605fedb4a6417da"),
        16: ("51039444d885df8e", "7151e62679b5c7df", "6ffaef37529bce0c", "52f5a09e953c2dc4"),
        32: ("5e0066ee6502951c", "4ed955e664d91d3c", "1a4f39d5709f975e", "0b7ae756a89c34a4"),
        34: ("9b35e60c55bd465f", "d65a7c04ff205e27", "ef47b613c20d19bd", "cfd6ce23f5c4733a"),
        48: ("1e1586402d854fb7", "c1696b6259221305", "04441c20bf6f1319", "7c13434c3c8409e6"),
        64: ("d6cb27d80abb2f01", "689362beb114e8d2", "123b391479eb0b61", "184566135dc5173c"),
    }

    @pytest.mark.parametrize("K", sorted(DIGESTS))
    def test_negative_and_default_exponents_keep_their_bytes_and_warn_nothing(self, K):
        # A -5/3 slope once raised numpy's divide-by-zero warning on the mean mode.
        grid = make_grid(K)
        got = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in (0, 7):
                for exponent in (-5 / 3, 4.0):
                    spec = FieldSpec(kind="random_spectrum", seed=seed, exponent=exponent)
                    got.append(hashlib.sha256(generate_ic(spec, grid).coeff.tobytes()).hexdigest())
        assert tuple(d[:16] for d in got) == self.DIGESTS[K]

    @pytest.mark.parametrize("K, exponent", [(16, 1000.0), (64, 200.0), (64, 198.0)])
    def test_an_overflowing_exponent_is_rejected_by_name_without_a_warning(self, K, exponent):
        # |k| ** exponent overflows. The Leray step then warned, and the run failed as a
        # non-finite coefficient on the mean mode.
        grid = make_grid(K)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as caught:
                generate_ic(FieldSpec(kind="random_spectrum", exponent=exponent), grid)
            finite = generate_ic(FieldSpec(kind="random_spectrum", exponent=190.0), grid)
        assert str(caught.value) == f"exponent {exponent} overflows the spectrum at K = {K}"
        assert np.isfinite(finite.coeff).all()

    @pytest.mark.parametrize("cutoff", [1e-160, 1e-200])
    def test_a_vanishing_profile_is_rejected_without_a_warning(self, grid16, cutoff):
        # kappa0**2 is subnormal (the Gaussian's argument overflows) or 0.0.
        spec = FieldSpec(kind="random_spectrum", cutoff=cutoff)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="random field vanished"):
                generate_ic(spec, grid16)
