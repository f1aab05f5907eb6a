"""Run configuration: key=value parsing and initial-condition generation.

The config format is plain UTF-8 ``key = value`` lines; ``#`` starts a
comment and ``[section]`` headers are allowed as visual grouping (they are
ignored, keys are global). Validation collects every problem instead of
stopping at the first one. The schema is the key tables below
(`_TOP_KEYS`, `_KIND_KEYS`); the README documents it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .deconv import MAX_DECONV_ORDER, FilterParams
from .spectral import (
    SpectralVectorField,
    WaveGrid,
    _gather,
    _leray,
    _retained_norms,
    _scatter,
)


class ConfigError(ValueError):
    """Validation failure carrying the full list of problems found."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class FieldSpec:
    """Recipe for one divergence-free field (initial condition or forcing)."""

    kind: str = "zero"
    mode: tuple[int, int, int] | None = None
    amplitude: tuple[float, float, float] | None = None
    seed: int = 0
    exponent: float = 4.0
    cutoff: float | None = None  # spectral peak; defaults to K/6 at build time
    target_norm: float = 1.0
    path: str | None = None


@dataclass(frozen=True)
class SolverConfig:
    """Everything needed to reproduce one run."""

    K: int
    nu: float
    delta: float
    order: int
    dt: float = 0.01
    T: float = 1.0
    sample_every: int = 1
    ic: FieldSpec = field(default_factory=FieldSpec)
    forcing: FieldSpec = field(default_factory=FieldSpec)
    epsilon: float = 0.05


def _finite(s: str) -> float:
    x = float(s)
    if not math.isfinite(x):
        raise ValueError(s)
    return x


class _Type(NamedTuple):
    parse: Callable[[str], object]  # raises ValueError on bad text
    expected: str  # completes "<key>: expected ..., got '<text>'"
    render: Callable[[object], str]  # inverse of parse, for format_config
    holds: Callable[[object], bool]  # whether a built value is one the key can take


def _triple(item: _Type, expected: str) -> _Type:
    def parse(s: str) -> tuple:
        parts = tuple(item.parse(p.strip()) for p in s.split(","))
        if len(parts) != 3:
            raise ValueError(s)
        return parts

    def holds(v) -> bool:
        return isinstance(v, (tuple, list)) and len(v) == 3 and all(map(item.holds, v))

    return _Type(parse, expected, lambda v: ",".join(item.render(x) for x in v), holds)


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)  # a bool is not one


_INT = _Type(lambda s: int(s, 10), "an integer", str, _is_int)
_FLOAT = _Type(_finite, "a finite number", lambda x: repr(float(x)),
               lambda x: (_is_int(x) or isinstance(x, (float, np.floating))) and math.isfinite(x))
_STR = _Type(str, "a string", str, lambda x: isinstance(x, (str, os.PathLike)))
_INTS = _triple(_INT, "three comma-separated integers")
_FLOATS = _triple(_FLOAT, "three comma-separated finite numbers")


class _Key(NamedTuple):
    name: str  # the key, or its suffix after an "ic"/"forcing" prefix
    field: str  # the SolverConfig or FieldSpec field it sets
    type: _Type
    required: bool = False


# The config schema. Defaults come from SolverConfig and FieldSpec; the
# order is format_config's.
_TOP_KEYS = (
    _Key("K", "K", _INT, required=True),
    _Key("nu", "nu", _FLOAT, required=True),
    _Key("delta", "delta", _FLOAT, required=True),
    _Key("N", "order", _INT, required=True),
    _Key("dt", "dt", _FLOAT),
    _Key("T", "T", _FLOAT),
    _Key("sample_every", "sample_every", _INT),
    _Key("epsilon", "epsilon", _FLOAT),
)
# The FieldSpec-valued SolverConfig fields; each is also the key naming its kind.
_FIELD_PREFIXES = ("ic", "forcing")
_KIND_KEYS = {
    "zero": (),
    "single_mode": (
        _Key("_k", "mode", _INTS, required=True),
        _Key("_amplitude", "amplitude", _FLOATS, required=True),
    ),
    "random_spectrum": (
        _Key("_seed", "seed", _INT),
        _Key("_exponent", "exponent", _FLOAT),
        _Key("_cutoff", "cutoff", _FLOAT),
        _Key("_target_norm", "target_norm", _FLOAT),
    ),
    "snapshot": (_Key("_path", "path", _STR, required=True),),
}

FIELD_KINDS = tuple(_KIND_KEYS)

_KNOWN_KEYS = {key.name for key in _TOP_KEYS} | {
    prefix + suffix
    for prefix in _FIELD_PREFIXES
    for suffix in ("", *(key.name for keys in _KIND_KEYS.values() for key in keys))
}


def _parse_lines(text: str, errors: list[str]) -> dict[str, str]:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            continue  # section headers are decorative
        if "=" not in stripped:
            errors.append(f"line {lineno}: expected key = value, got {stripped!r}")
            continue
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in raw:
            errors.append(f"{key}: duplicate key (line {lineno})")
            continue
        raw[key] = value
    return raw


def _read(
    raw: dict[str, str], prefix: str, keys: tuple[_Key, ...], errors: list[str]
) -> dict[str, object]:
    """Parse the keys present in `raw` into {field: value}.

    A value that does not parse is reported and left out, so its field
    keeps the dataclass default.
    """
    values = {}
    for key in keys:
        name = prefix + key.name
        if name in raw:
            try:
                values[key.field] = key.type.parse(raw[name])
            except ValueError:
                errors.append(f"{name}: expected {key.type.expected}, got {raw[name]!r}")
    return values


def _read_field_spec(raw: dict[str, str], prefix: str, errors: list[str]) -> FieldSpec:
    kind = raw.get(prefix, FieldSpec.kind)
    if kind not in _KIND_KEYS:
        errors.append(f"{prefix}: must be one of {', '.join(FIELD_KINDS)}, got {kind!r}")
        return FieldSpec()
    for other, keys in _KIND_KEYS.items():
        stale = [prefix + key.name for key in keys if other != kind and prefix + key.name in raw]
        errors.extend(f"{name}: not a key of {prefix} = {kind}" for name in stale)
    values = _read(raw, prefix, _KIND_KEYS[kind], errors)
    for key in _KIND_KEYS[kind]:
        if key.required and prefix + key.name not in raw:
            errors.append(f"{prefix}{key.name}: required for {prefix} = {kind}")
    errors += _field_spec_errors(values, prefix + "_")
    return FieldSpec(kind=kind, **values)


def _field_spec_errors(v: dict, prefix: str) -> list[str]:
    """parse_config's problems with the FieldSpec fields v, named with `prefix`; a value that no
    text parses to (only a built FieldSpec holds one) is worded as its text would be."""
    present = [key for keys in _KIND_KEYS.values() for key in keys if v.get(key.field) is not None]
    good = {key.field: v[key.field] for key in present if key.type.holds(v[key.field])}
    errors = [f"{prefix}{key.name[1:]}: expected {key.type.expected}, got {v[key.field]!r}"
              for key in present if key.field not in good]
    errors += [f"{prefix}{k}: must be positive" for k in ("target_norm", "cutoff")
               if good.get(k, 1.0) <= 0.0]
    if good.get("seed", 0) < 0:
        errors.append(f"{prefix}seed: must be nonnegative, got {good['seed']}")
    return errors


def _stepping_errors(v: dict) -> list[str]:
    """parse_config's problems with dt, T and sample_every among the fields of v. A non-finite dt
    or T or a bool or non-integer sample_every (only a built SolverConfig holds one) is worded
    as its text would be."""
    errors = [f"{k}: expected {_FLOAT.expected}, got {v[k]!r}"
              for k in ("dt", "T") if k in v and not math.isfinite(v[k])]
    if "dt" in v and v["dt"] <= 0.0:
        errors.append(f"dt: must be positive, got {v['dt']}")
    if "T" in v and v["T"] < 0.0:
        errors.append(f"T: must be nonnegative, got {v['T']}")
    every = v.get("sample_every", 1)
    if not _INT.holds(every):
        errors.append(f"sample_every: expected {_INT.expected}, got {every!r}")
    elif every < 1:
        errors.append(f"sample_every: must be at least 1, got {every}")
    return errors


def parse_config(text: str) -> SolverConfig:
    """Parse and validate a config; raises ConfigError listing every problem."""
    errors: list[str] = []
    raw = _parse_lines(text, errors)

    for key in raw:
        if key not in _KNOWN_KEYS:
            errors.append(f"{key}: unknown key")
    for key in _TOP_KEYS:
        if key.required and key.name not in raw:
            errors.append(f"{key.name}: required key is missing")

    v = _read(raw, "", _TOP_KEYS, errors)
    if "K" in v:
        if v["K"] < 4:
            errors.append(f"K: must be at least 4, got {v['K']}")
        elif v["K"] % 2 != 0:
            errors.append(f"K: must be even, got {v['K']}")
    if "nu" in v and v["nu"] <= 0.0:
        errors.append(f"nu: must be positive, got {v['nu']}")
    if "delta" in v and v["delta"] <= 0.0:
        errors.append(f"delta: must be positive, got {v['delta']}")
    if "order" in v and not 0 <= v["order"] <= MAX_DECONV_ORDER:
        errors.append(f"N: must be in [0, {MAX_DECONV_ORDER}], got {v['order']}")
    errors += _stepping_errors(v)
    if "epsilon" in v and v["epsilon"] < 0.0:
        errors.append(f"epsilon: must be nonnegative, got {v['epsilon']}")

    for prefix in _FIELD_PREFIXES:
        v[prefix] = _read_field_spec(raw, prefix, errors)

    if errors:
        raise ConfigError(errors)
    return SolverConfig(**v)


def _random_raw(grid: WaveGrid, rng: np.random.Generator) -> SpectralVectorField:
    """Random zero-mean field on the retained lattice, not divergence-free."""
    shape = (3,) + grid.spectral_shape
    coeff = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    # Hermitian symmetry on the self-conjugate k3 = 0 plane.
    flip = (-np.arange(grid.K)) % grid.K
    plane = coeff[:, :, :, 0]
    coeff[:, :, :, 0] = 0.5 * (plane + np.conj(plane[:, flip][:, :, flip]))

    coeff *= grid.mask
    coeff[:, 0, 0, 0] = 0.0
    return SpectralVectorField(grid, coeff)


def _random_spectrum_field(spec: FieldSpec, grid: WaveGrid) -> SpectralVectorField:
    """Seeded, divergence-free random field with a banded energy profile.

    Per-mode energy follows kappa^p * exp(-2 kappa^2 / kappa0^2), kappa0 = K/6
    unless overridden, rescaled so that the H0 norm hits the target exactly. Only
    the draw's M retained modes are worked on, in the full-layout form's operand
    order, so their words equal that form's; the masked modes hold +0.0.
    """
    draw, shape = np.random.default_rng(spec.seed).standard_normal, (3,) + grid.spectral_shape
    coeff = _gather(draw(shape), grid) + 1j * _gather(draw(shape), grid)
    # Hermitian symmetry on the k3 = 0 plane, here (3, ky, kx) and closed under -k.
    n, ret = 2 * grid.cut + 1, grid.ret_flat
    flip = -np.arange(n) % n
    plane = coeff.reshape(3, n, -1, n)[:, :, 0]
    plane[...] = 0.5 * (plane + np.conj(plane[:, flip][:, :, flip]))
    coeff *= grid.mask.reshape(-1)[ret]
    coeff[:, 0] = 0.0
    kappa0 = spec.cutoff if spec.cutoff is not None else grid.K / 6.0
    ksq = grid.ksq.reshape(-1)[ret]
    amp2 = np.where(ksq > 0.0, np.sqrt(ksq) ** spec.exponent * np.exp(-2.0 * ksq / kappa0**2), 0.0)
    coeff *= np.sqrt(amp2)
    out = _leray(coeff, grid.ret_k, grid.ret_ksq_safe)
    (norm,) = _retained_norms(out, grid, 0.0)
    if norm == 0.0:
        raise ValueError("random field vanished; grid too small for the profile")
    return SpectralVectorField(grid, _scatter(out * (spec.target_norm / norm), grid))


def generate_ic(
    spec: FieldSpec, grid: WaveGrid, filters: FilterParams | None = None
) -> SpectralVectorField:
    """Build the divergence-free, zero-mean field described by `spec`.

    Serves both initial conditions and steady forcings. Deterministic for a
    fixed seed. `filters` is ignored; it is kept for callers that still
    pass one (bench/workloads.py). A spec parse_config could not read raises ConfigError.
    """
    if problems := _field_spec_errors(vars(spec), ""):
        raise ConfigError(problems)
    if spec.kind == "zero":
        return SpectralVectorField.zeros(grid)
    if spec.kind == "single_mode":
        if spec.mode is None or spec.amplitude is None:
            raise ValueError("single_mode spec needs both mode and amplitude")
        k = np.asarray(spec.mode, dtype=np.float64)
        a = np.asarray(spec.amplitude, dtype=np.float64)
        dot = abs(float(k @ a))
        scale = float(np.linalg.norm(k) * np.linalg.norm(a))
        if dot > 1e-12 * max(scale, 1.0):
            raise ValueError(
                f"amplitude {spec.amplitude} is not orthogonal to k = {spec.mode} "
                f"(k . a = {float(k @ a)})"
            )
        return SpectralVectorField.from_modes(grid, {tuple(spec.mode): spec.amplitude})
    if spec.kind == "random_spectrum":
        return _random_spectrum_field(spec, grid)
    if spec.kind == "snapshot":
        from .storage import read_snapshot

        if spec.path is None:
            raise ValueError("snapshot spec needs a path")
        return read_snapshot(spec.path, grid=grid).w
    raise ValueError(f"unknown field kind {spec.kind!r}")


def format_config(config: SolverConfig) -> str:
    """Render a SolverConfig back to the key=value format.

    Raises ValueError, naming the key, for a string that parse_config would
    not read back: one that holds '#' or a line break, or has leading or
    trailing blanks.
    """
    pairs = [(key.name, key.type.render(getattr(config, key.field))) for key in _TOP_KEYS]
    for prefix in _FIELD_PREFIXES:
        spec = getattr(config, prefix)
        pairs.append((prefix, spec.kind))
        for key in _KIND_KEYS.get(spec.kind, ()):
            value = getattr(spec, key.field)
            if value is not None:
                pairs.append((prefix + key.name, key.type.render(value)))
    for name, text in pairs:
        if "#" in text or text != text.strip() or len(text.splitlines()) > 1:
            raise ValueError(f"{name}: {text!r} has '#', a line break or outer blanks")
    return "".join(f"{name} = {text}\n" for name, text in pairs)


__all__ = [
    "FIELD_KINDS",
    "ConfigError",
    "FieldSpec",
    "SolverConfig",
    "parse_config",
    "generate_ic",
    "format_config",
]
