"""Run configuration: key=value parsing and initial-condition generation.

The config format is plain UTF-8 ``key = value`` lines; ``#`` starts a
comment and ``[section]`` headers are allowed as visual grouping (they are
ignored, keys are global). Validation collects every problem instead of
stopping at the first one. The schema is documented in the README.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .deconv import MAX_DECONV_ORDER, FilterParams
from .spectral import (
    SpectralVectorField,
    WaveGrid,
    leray_project,
    sobolev_norm,
)


class ConfigError(ValueError):
    """Validation failure carrying the full list of problems found."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


FIELD_KINDS = ("zero", "single_mode", "random_spectrum", "snapshot")


@dataclass(frozen=True)
class FieldSpec:
    """Recipe for one divergence-free field (initial condition or forcing)."""

    kind: str = "zero"
    mode: tuple[int, int, int] | None = None
    amplitude: tuple[float, float, float] | None = None
    seed: int | None = None
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
    dealias: str = "two_thirds"
    dt: float = 0.01
    T: float = 1.0
    sample_every: int = 1
    ic: FieldSpec = field(default_factory=FieldSpec)
    forcing: FieldSpec = field(default_factory=FieldSpec)
    auto_project_ic: bool = False
    epsilon: float = 0.05


_BOOL_WORDS = {
    "true": True,
    "yes": True,
    "on": True,
    "1": True,
    "false": False,
    "no": False,
    "off": False,
    "0": False,
}

_KNOWN_KEYS = {
    "K",
    "dealias",
    "nu",
    "delta",
    "N",
    "dt",
    "T",
    "sample_every",
    "auto_project_ic",
    "epsilon",
    "ic",
    "ic_k",
    "ic_amplitude",
    "ic_seed",
    "ic_exponent",
    "ic_cutoff",
    "ic_target_norm",
    "ic_path",
    "forcing",
    "forcing_k",
    "forcing_amplitude",
    "forcing_seed",
    "forcing_exponent",
    "forcing_cutoff",
    "forcing_target_norm",
    "forcing_path",
}

_REQUIRED_KEYS = ("K", "nu", "delta", "N")


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


def _finite(s: str) -> float:
    x = float(s)
    if not math.isfinite(x):
        raise ValueError(s)
    return x


class _Reader:
    def __init__(self, raw: dict[str, str], errors: list[str]):
        self.raw = raw
        self.errors = errors

    def has(self, key: str) -> bool:
        return key in self.raw

    def _get(self, key, conv, default, describe):
        if key not in self.raw:
            return default
        try:
            return conv(self.raw[key])
        except (ValueError, TypeError):
            self.errors.append(f"{key}: expected {describe}, got {self.raw[key]!r}")
            return default

    def int_(self, key, default=None):
        return self._get(key, lambda s: int(s, 10), default, "an integer")

    def float_(self, key, default=None):
        return self._get(key, _finite, default, "a finite number")

    def str_(self, key, default=None):
        return self._get(key, str, default, "a string")

    def bool_(self, key, default=None):
        def conv(s):
            try:
                return _BOOL_WORDS[s.lower()]
            except KeyError:
                raise ValueError(s)

        return self._get(key, conv, default, "a boolean (true/false)")

    def int_triple(self, key, default=None):
        def conv(s):
            parts = tuple(int(p.strip(), 10) for p in s.split(","))
            if len(parts) != 3:
                raise ValueError(s)
            return parts

        return self._get(key, conv, default, "three comma-separated integers")

    def float_triple(self, key, default=None):
        def conv(s):
            parts = tuple(_finite(p.strip()) for p in s.split(","))
            if len(parts) != 3:
                raise ValueError(s)
            return parts

        return self._get(key, conv, default, "three comma-separated finite numbers")


def _read_field_spec(reader: _Reader, prefix: str, errors: list[str]) -> FieldSpec:
    kind = reader.str_(prefix, "zero")
    if kind not in FIELD_KINDS:
        errors.append(f"{prefix}: must be one of {', '.join(FIELD_KINDS)}, got {kind!r}")
        return FieldSpec()
    if kind == "zero":
        return FieldSpec()
    if kind == "single_mode":
        mode = reader.int_triple(f"{prefix}_k")
        amp = reader.float_triple(f"{prefix}_amplitude")
        if mode is None and f"{prefix}_k" not in reader.raw:
            errors.append(f"{prefix}_k: required for {prefix} = single_mode")
        if amp is None and f"{prefix}_amplitude" not in reader.raw:
            errors.append(f"{prefix}_amplitude: required for {prefix} = single_mode")
        return FieldSpec(kind=kind, mode=mode, amplitude=amp)
    if kind == "random_spectrum":
        spec = FieldSpec(
            kind=kind,
            seed=reader.int_(f"{prefix}_seed", 0),
            exponent=reader.float_(f"{prefix}_exponent", 4.0),
            cutoff=reader.float_(f"{prefix}_cutoff", None),
            target_norm=reader.float_(f"{prefix}_target_norm", 1.0),
        )
        if spec.target_norm is not None and spec.target_norm <= 0.0:
            errors.append(f"{prefix}_target_norm: must be positive")
        if spec.cutoff is not None and spec.cutoff <= 0.0:
            errors.append(f"{prefix}_cutoff: must be positive")
        return spec
    path = reader.str_(f"{prefix}_path")
    if path is None:
        errors.append(f"{prefix}_path: required for {prefix} = snapshot")
    return FieldSpec(kind=kind, path=path)


def parse_config(text: str) -> SolverConfig:
    """Parse and validate a config; raises ConfigError listing every problem."""
    errors: list[str] = []
    raw = _parse_lines(text, errors)

    for key in raw:
        if key not in _KNOWN_KEYS:
            errors.append(f"{key}: unknown key")
    for key in _REQUIRED_KEYS:
        if key not in raw:
            errors.append(f"{key}: required key is missing")

    reader = _Reader(raw, errors)
    K = reader.int_("K", 0)
    nu = reader.float_("nu", 1.0)
    delta = reader.float_("delta", 1.0)
    order = reader.int_("N", 0)
    dealias = reader.str_("dealias", "two_thirds")
    dt = reader.float_("dt", 0.01)
    T = reader.float_("T", 1.0)
    sample_every = reader.int_("sample_every", 1)
    auto_project = reader.bool_("auto_project_ic", False)
    epsilon = reader.float_("epsilon", 0.05)

    if "K" in raw and K is not None:
        if K < 4:
            errors.append(f"K: must be at least 4, got {K}")
        elif K % 2 != 0:
            errors.append(f"K: must be even, got {K}")
    if dealias not in ("two_thirds", "none"):
        errors.append(f"dealias: must be two_thirds or none, got {dealias!r}")
        dealias = "two_thirds"
    if nu is not None and nu <= 0.0:
        errors.append(f"nu: must be positive, got {nu}")
    if delta is not None and delta <= 0.0:
        errors.append(f"delta: must be positive, got {delta}")
    if order is not None and not 0 <= order <= MAX_DECONV_ORDER:
        errors.append(f"N: must be in [0, {MAX_DECONV_ORDER}], got {order}")
    if dt is not None and dt <= 0.0:
        errors.append(f"dt: must be positive, got {dt}")
    if T is not None and T < 0.0:
        errors.append(f"T: must be nonnegative, got {T}")
    if sample_every is not None and sample_every < 1:
        errors.append(f"sample_every: must be at least 1, got {sample_every}")
    if epsilon is not None and epsilon < 0.0:
        errors.append(f"epsilon: must be nonnegative, got {epsilon}")

    ic = _read_field_spec(reader, "ic", errors)
    forcing = _read_field_spec(reader, "forcing", errors)

    if errors:
        raise ConfigError(errors)
    return SolverConfig(
        K=K,
        nu=nu,
        delta=delta,
        order=order,
        dealias=dealias,
        dt=dt,
        T=T,
        sample_every=sample_every,
        ic=ic,
        forcing=forcing,
        auto_project_ic=auto_project,
        epsilon=epsilon,
    )


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


def _random_spectrum_field(
    spec: FieldSpec, grid: WaveGrid
) -> SpectralVectorField:
    """Seeded, divergence-free random field with a banded energy profile.

    Per-mode energy follows kappa^p * exp(-2 kappa^2 / kappa0^2) with
    kappa0 = K/6 unless overridden; the whole field is rescaled afterwards
    so its H0 norm hits the target exactly.
    """
    coeff = _random_raw(grid, np.random.default_rng(spec.seed)).coeff
    kappa0 = spec.cutoff if spec.cutoff is not None else grid.K / 6.0
    kappa = np.sqrt(grid.ksq)
    profile = np.where(
        grid.ksq > 0.0,
        kappa**spec.exponent * np.exp(-2.0 * grid.ksq / kappa0**2),
        0.0,
    )
    coeff *= np.sqrt(profile)

    out = leray_project(SpectralVectorField(grid, coeff))
    norm = sobolev_norm(out, 0.0)
    if norm == 0.0:
        raise ValueError("random field vanished; grid too small for the profile")
    return out * (spec.target_norm / norm)


def generate_ic(
    spec: FieldSpec, grid: WaveGrid, filters: FilterParams | None = None
) -> SpectralVectorField:
    """Build the divergence-free, zero-mean field described by `spec`.

    Serves both initial conditions and steady forcings. Deterministic for a
    fixed seed. `filters` is accepted for config plumbing (snapshot headers
    carry filter parameters) and does not alter generated fields.
    """
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
        state = read_snapshot(spec.path, grid=grid)
        return state.w
    raise ValueError(f"unknown field kind {spec.kind!r}")


def format_config(config: SolverConfig) -> str:
    """Render a SolverConfig back to the key=value format."""

    def fmt(v) -> str:
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return repr(v)
        return str(v)

    lines = [
        f"K = {config.K}",
        f"dealias = {config.dealias}",
        f"nu = {fmt(config.nu)}",
        f"delta = {fmt(config.delta)}",
        f"N = {config.order}",
        f"dt = {fmt(config.dt)}",
        f"T = {fmt(config.T)}",
        f"sample_every = {config.sample_every}",
        f"auto_project_ic = {fmt(config.auto_project_ic)}",
        f"epsilon = {fmt(config.epsilon)}",
    ]
    for prefix, spec in (("ic", config.ic), ("forcing", config.forcing)):
        lines.append(f"{prefix} = {spec.kind}")
        if spec.kind == "single_mode":
            lines.append(f"{prefix}_k = {','.join(str(v) for v in spec.mode)}")
            lines.append(
                f"{prefix}_amplitude = {','.join(repr(float(v)) for v in spec.amplitude)}"
            )
        elif spec.kind == "random_spectrum":
            lines.append(f"{prefix}_seed = {spec.seed}")
            lines.append(f"{prefix}_exponent = {fmt(spec.exponent)}")
            if spec.cutoff is not None:
                lines.append(f"{prefix}_cutoff = {fmt(spec.cutoff)}")
            lines.append(f"{prefix}_target_norm = {fmt(spec.target_norm)}")
        elif spec.kind == "snapshot":
            lines.append(f"{prefix}_path = {spec.path}")
    return "\n".join(lines) + "\n"


__all__ = [
    "FIELD_KINDS",
    "ConfigError",
    "FieldSpec",
    "SolverConfig",
    "parse_config",
    "generate_ic",
    "format_config",
]
