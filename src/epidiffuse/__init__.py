"""Spatial epidemic simulation and parameter estimation on masked 2-D grids."""

from .errors import (
    AlignmentError,
    CaseDataError,
    ConfigError,
    DegenerateRegionError,
    DimensionError,
    EpidiffuseError,
    MaskFormatError,
    NormalizationError,
    ParameterError,
    SequencingError,
    StabilityError,
)
from .grid import (
    GridSpec,
    RegionMask,
    distribute_uniform,
    region_total,
    union_mask,
)
from .models import (
    ModelKind,
    ParameterVector,
    RateSchedule,
    beta_at,
    initial_fractions,
    reaction_split,
)
from .solver_cn import (
    CNWorkspace,
    Trajectory,
    assemble,
    conservation_drift,
    run_from_state,
    temporal_refinement_study,
)
from .solver_fem import (
    FemAssembly,
    assemble_fem,
)
from .objective import (
    CaseSeries,
    DataInterpolant,
    ObjectiveWeights,
    detected_daily_cases,
    evaluate_terms,
    interpolate_data,
)
from .estimate import (
    AdjointConfig,
    AdjointGradient,
    FitResult,
    MetropolisConfig,
    Problem,
    adjoint_fit,
    adjoint_gradient,
    gradient_check,
    metropolis_fit,
)
from .cli_io import (
    RunConfig,
    demo_geometry,
    demo_population,
    demo_scenario_path,
    generate_synthetic,
    load_config,
    load_scenario,
    read_cases,
    read_mask,
    write_cases,
    write_mask,
)

__version__ = "0.1.0"
