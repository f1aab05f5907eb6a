"""deconvbox: pseudo-spectral deconvolution-model toolbox for the 2*pi box.

A numpy library for a regularized incompressible-flow model in which the
advecting velocity is a Van Cittert deconvolution of the Helmholtz-filtered
field. Provides the spectral operator layer, the filter/deconvolution
family, an integrating-factor midpoint solver with an exact discrete
energy balance, absorbing-ball diagnostics, and reproducible IO.
"""

from .attractor import (
    AbsorbingParams,
    H1Report,
    ProbeMember,
    ProbeReport,
    WindowAverage,
    absorbing_bound,
    absorbing_time,
    ensemble_absorb_probe,
    h1_absorbing_report,
    h1_time_average,
    rho0,
    uniform_gronwall,
)
from .cli import cli_main
from .config import (
    ConfigError,
    FieldSpec,
    SolverConfig,
    format_config,
    generate_ic,
    parse_config,
)
from .deconv import (
    MAX_DECONV_ORDER,
    FilterParams,
    SymbolTable,
    g_symbol,
    helmholtz_filter,
    hn_symbol,
    smoothing_bound,
    smoothing_constant,
    truncation_hn,
    van_cittert_apply,
)
from .solver import (
    BlowUpError,
    ModelParams,
    RefinementStudy,
    SolverState,
    Trajectory,
    build_model,
    energy_refinement_study,
    initial_state,
    make_state,
    simulate,
    simulate_with_state,
    step,
)
from .spectral import (
    SpectralVectorField,
    WaveGrid,
    divergence_error,
    inner_product,
    leray_project,
    make_grid,
    nonlinear_term,
    smallest_eigenvalue,
    sobolev_norm,
    stokes_apply,
    trilinear_b,
)
from .storage import (
    SnapshotMeta,
    read_snapshot,
    read_snapshot_meta,
    read_timeseries,
    write_snapshot,
    write_timeseries,
)
from .verify import operator_checks, run_operator_checks

__version__ = "0.1.0"
