"""Run configuration: key=value parsing and initial-condition generation.

The config format is plain UTF-8 ``key = value`` lines; ``#`` starts a
comment and ``[section]`` headers are allowed as visual grouping (they are
ignored, keys are global). Validation collects every problem instead of
stopping at the first one. The schema is the key tables below
(`_TOP_KEYS`, `_KIND_KEYS`); the README documents it.
"""

from __future__ import annotations

import math
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
    """Recipe for one divergence-free field (initial condition or forcing); a
    value its key cannot take raises ConfigError, in parse_config's words."""

    kind: str = "zero"
    mode: tuple[int, int, int] | None = None
    amplitude: tuple[float, float, float] | None = None
    seed: int = 0
    exponent: float = 4.0
    cutoff: float | None = None  # spectral peak; defaults to K/6 at build time
    target_norm: float = 1.0
    path: str | None = None

    def __post_init__(self):
        if problems := _spec_problems(vars(self)):
            raise ConfigError(problems)


@dataclass(frozen=True)
class SolverConfig:
    """Everything needed to reproduce one run; a value its key cannot take
    raises ConfigError, in parse_config's words."""

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

    def __post_init__(self):
        problems = _problems(vars(self), _TOP_KEYS)
        problems += [f"{name}: expected a FieldSpec, got {getattr(self, name)!r}"
                     for name in _FIELD_PREFIXES if not isinstance(getattr(self, name), FieldSpec)]
        if problems:
            raise ConfigError(problems)


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
        return isinstance(v, tuple) and len(v) == 3 and all(map(item.holds, v))

    return _Type(parse, expected, lambda v: ",".join(item.render(x) for x in v), holds)


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)  # a bool is not one


_INT = _Type(lambda s: int(s, 10), "an integer", str, _is_int)
_FLOAT = _Type(_finite, "a finite number", lambda x: repr(float(x)),
               lambda x: (_is_int(x) or isinstance(x, (float, np.floating))) and math.isfinite(x))
_STR = _Type(str, "a string", str, lambda x: isinstance(x, str))
_INTS = _triple(_INT, "three comma-separated integers")
_FLOATS = _triple(_FLOAT, "three comma-separated finite numbers")


class _Rule(NamedTuple):
    holds: Callable[[object], bool]
    words: str  # completes "<key>: must be ..., got <value>"


def _at_least(low) -> _Rule:
    return _Rule(lambda x: x >= low, f"at least {low}")


_POSITIVE = _Rule(lambda x: x > 0, "positive")
_NONNEGATIVE = _Rule(lambda x: x >= 0, "nonnegative")


class _Key(NamedTuple):
    name: str  # the key, or its suffix after an "ic"/"forcing" prefix
    field: str  # the SolverConfig or FieldSpec field it sets
    type: _Type
    required: bool = False
    rules: tuple[_Rule, ...] = ()  # range rules, the first broken one reported


# The config schema. Defaults come from SolverConfig and FieldSpec; the
# order is format_config's.
_TOP_KEYS = (
    _Key("K", "K", _INT, True, (_at_least(4), _Rule(lambda x: x % 2 == 0, "even"))),
    _Key("nu", "nu", _FLOAT, True, (_POSITIVE,)),
    _Key("delta", "delta", _FLOAT, True, (_POSITIVE,)),
    _Key("N", "order", _INT, True,
         (_Rule(lambda x: 0 <= x <= MAX_DECONV_ORDER, f"in [0, {MAX_DECONV_ORDER}]"),)),
    _Key("dt", "dt", _FLOAT, rules=(_POSITIVE,)),
    _Key("T", "T", _FLOAT, rules=(_NONNEGATIVE,)),
    _Key("sample_every", "sample_every", _INT, rules=(_at_least(1),)),
    _Key("epsilon", "epsilon", _FLOAT, rules=(_NONNEGATIVE,)),
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
        _Key("_seed", "seed", _INT, rules=(_NONNEGATIVE,)),
        _Key("_exponent", "exponent", _FLOAT),
        _Key("_cutoff", "cutoff", _FLOAT, rules=(_POSITIVE,)),
        _Key("_target_norm", "target_norm", _FLOAT, rules=(_POSITIVE,)),
    ),
    "snapshot": (_Key("_path", "path", _STR, required=True),),
}

FIELD_KINDS = tuple(_KIND_KEYS)
_SPEC_KEYS = tuple(key for keys in _KIND_KEYS.values() for key in keys)

_KNOWN_KEYS = {key.name for key in _TOP_KEYS} | {
    prefix + suffix for prefix in _FIELD_PREFIXES for suffix in ("", *(k.name for k in _SPEC_KEYS))
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


def _read(raw: dict[str, str], prefix: str, keys: tuple[_Key, ...]) -> dict[str, object]:
    """The keys present in `raw` as {field: value}; a value that does not parse is kept as its
    text, which no key's type holds."""
    values = {}
    for key in keys:
        if (text := raw.get(prefix + key.name)) is not None:
            try:
                values[key.field] = key.type.parse(text)
            except ValueError:
                values[key.field] = text
    return values


def _problems(values: dict, keys: tuple[_Key, ...], prefix: str = "") -> list[str]:
    """The type and range problems of the fields in `values` that `keys` set, each named by its
    key after `prefix` and shown with repr, so that text that did not parse is quoted."""
    errors = []
    for key in keys:
        name, value = (prefix + key.name).lstrip("_"), values.get(key.field)
        if value is None:
            continue
        value = value.item() if isinstance(value, np.generic) else value  # as the parser reads it
        if not key.type.holds(value):
            errors.append(f"{name}: expected {key.type.expected}, got {value!r}")
        elif broken := [rule.words for rule in key.rules if not rule.holds(value)]:
            errors.append(f"{name}: must be {broken[0]}, got {value!r}")
    return errors


def _spec_problems(values: dict, prefix: str = "") -> list[str]:
    """The problems of the FieldSpec fields in `values`, its kind under the key `prefix`."""
    kind, owner = values.get("kind"), prefix or "kind"
    if kind not in FIELD_KINDS:
        return [f"{owner}: must be one of {', '.join(FIELD_KINDS)}, got {kind!r}"]
    keys = _KIND_KEYS[kind]
    errors = [f"{(prefix + key.name).lstrip('_')}: required for {owner} = {kind}"
              for key in keys if key.required and values.get(key.field) is None]
    errors += [f"{(prefix + key.name).lstrip('_')}: not a key of {owner} = {kind}"
               for key in _SPEC_KEYS if key not in keys and not _is_default(key, values)]
    return errors + _problems(values, keys, prefix)


def _is_default(key: _Key, values: dict) -> bool:
    """Whether `values` leaves `key`'s field at its FieldSpec default (or omits it)."""
    default = getattr(FieldSpec, key.field)
    value = values.get(key.field, default)
    return value is default or (key.type.holds(value) and value == default)


def _read_field_spec(raw: dict[str, str], prefix: str, errors: list[str]) -> FieldSpec | None:
    kind = raw.get(prefix, FieldSpec.kind)
    # A key of another kind keeps its text, which is never that field's default.
    values = {key.field: raw[prefix + key.name] for key in _SPEC_KEYS if prefix + key.name in raw}
    values["kind"] = kind
    if kind in _KIND_KEYS:
        values |= _read(raw, prefix, _KIND_KEYS[kind])
    if problems := _spec_problems(values, prefix):
        errors += problems
        return None
    return FieldSpec(**values)


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

    v = _read(raw, "", _TOP_KEYS)
    errors += _problems(v, _TOP_KEYS)
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


def _field_words(spec: FieldSpec, grid: WaveGrid) -> np.ndarray:
    """The retained (3, M) coefficients, in ret_flat order, of the field `spec` describes,
    unchecked; only a single mode is built in the full layout first.

    A random spectrum is seeded and divergence-free, with per-mode energy kappa^p *
    exp(-2 kappa^2 / kappa0^2), kappa0 = K/6 unless overridden, rescaled so that the H0 norm
    hits the target exactly. Its normals are drawn one full-layout component at a time, as
    one (3, K, K, K//2+1) draw gives them; only the M retained ones are kept and worked on,
    in the full-layout form's operand order, so their words equal that form's.
    """
    if spec.kind == "zero":
        return np.zeros((3, grid.ret_flat.size), np.complex128)
    if spec.kind == "single_mode":
        k = np.asarray(spec.mode, dtype=np.float64)
        a = np.asarray(spec.amplitude, dtype=np.float64)
        dot = abs(float(k @ a))
        scale = float(np.linalg.norm(k) * np.linalg.norm(a))
        if dot > 1e-12 * max(scale, 1.0):
            raise ValueError(
                f"amplitude {spec.amplitude} is not orthogonal to k = {spec.mode} "
                f"(k . a = {float(k @ a)})"
            )
        field = SpectralVectorField.from_modes(grid, {tuple(spec.mode): spec.amplitude})
        return _gather(field.coeff, grid)
    if spec.kind == "snapshot":
        from .solver import _retained
        from .storage import read_snapshot

        return _retained(read_snapshot(spec.path, grid=grid))
    rng, ret = np.random.default_rng(spec.seed), grid.ret_flat
    coeff, draw = np.empty((3, ret.size), np.complex128), np.empty(grid.spectral_shape)
    for part in (*coeff.real, *coeff.imag):
        part[...] = np.take(rng.standard_normal(out=draw), ret)
    # Hermitian symmetry on the k3 = 0 plane, here (3, ky, kx) and closed under -k.
    n = 2 * grid.cut + 1
    flip = -np.arange(n) % n
    plane = coeff.reshape(3, n, -1, n)[:, :, 0]
    plane[...] = 0.5 * (plane + np.conj(plane[:, flip][:, :, flip]))
    coeff[:, 0] = 0.0
    kappa0 = spec.cutoff if spec.cutoff is not None else grid.K / 6.0
    ksq = grid.ret_ksq[1:]  # the mean's energy is 0: its term is not formed
    with np.errstate(divide="ignore", over="ignore"):  # kappa0**2 may underflow: exp(-inf) = 0
        coeff[:, 1:] *= np.sqrt(np.sqrt(ksq) ** spec.exponent * np.exp(-2.0 * ksq / kappa0**2))
    out = _leray(coeff, grid.ret_k, grid.ret_ksq_safe)
    (norm,) = _retained_norms(out, grid, 0.0)
    if norm == 0.0:
        raise ValueError("random field vanished; grid too small for the profile")
    return np.multiply(out, spec.target_norm / norm, out=out)


def generate_ic(
    spec: FieldSpec, grid: WaveGrid, filters: FilterParams | None = None
) -> SpectralVectorField:
    """Build the divergence-free, zero-mean field described by `spec`.

    Serves both initial conditions and steady forcings. Deterministic for a
    fixed seed. `filters` is ignored; it is kept for callers that still
    pass one (bench/workloads.py).
    """
    if spec.kind == "snapshot":
        from .storage import read_snapshot

        return read_snapshot(spec.path, grid=grid).w
    return SpectralVectorField(grid, _scatter(_field_words(spec, grid), grid))


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
