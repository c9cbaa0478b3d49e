"""Rare-event probability estimation for constrained sums of i.i.d. vectors."""

from .errors import (
    BaselineUnavailable,
    ConfigurationError,
    DomainError,
    NumericError,
    PathAbort,
    RaresumError,
    SteepnessError,
)
from .model import (
    CumulantDomain,
    LocalCumulants,
    ModelSpec,
    builtin_model,
    local_cumulants,
    mean_map,
)
from .region import (
    Interval,
    IntervalUnion,
    ProductRegion,
    clamp_distance,
    contains,
    initial_point,
    parse_interval_union,
    two_sided_region,
    whole_space,
)
from .tilt import TiltBatch, TiltSolution, dominating_point, rate_function, solve_tilt, solve_tilts
from .pathgen import (
    PathConfig,
    PathSample,
    StepParams,
    path_logdensity,
    sample_path,
    select_k,
    step_params,
    tilted_tail_sampler,
)
from .meanchain import (
    MeanChainConfig,
    MeanChainDiagnostics,
    run_chain,
    target_logdensity,
)
from .estimate import (
    CSV_HEADER,
    EstimateReport,
    adaptive_estimate,
    compare_schemes,
    naive_estimate,
    run_point,
    tilted_iid_estimate,
)
from .config import ExperimentConfig, load_config, validate_config

__version__ = "0.1.0"
