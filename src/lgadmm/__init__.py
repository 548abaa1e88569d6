"""Multi-block linearized generalized ADMM with runtime convergence certificates."""

from .operators import (
    BlockSignMap,
    DenseMap,
    DenseSymmetric,
    LinearMap,
    LinearizedMetric,
    ScaledIdentity,
    SymmetricOperator,
    gram_spectral_norm,
)
from .problem import (
    BlockProblem,
    BlockSpec,
    DimensionMismatchError,
    PrimalDualPoint,
    SpectralThresholdError,
    evaluate_objective,
    feasible_probe,
    make_linearized_metric,
    pack_point,
    splitmix64_uniform,
    unpack_point,
    vi_operator,
    zeros_point,
)
from .solver import (
    ConfigError,
    DivergenceError,
    IterationState,
    OracleError,
    SolveResult,
    SolverConfig,
    StepReport,
    TrajectoryRecord,
    ValidationReport,
    auxiliary_point,
    first_phase_update,
    last_block_update,
    multiplier_update,
    solve,
    step,
    validate_config,
)
from .certificates import (
    CertificateReport,
    MetricMatrices,
    assemble_metrics,
    cross_term_check,
    ergodic_average,
    ergodic_gap_check,
    fejer_check,
    nonergodic_monotonicity_check,
    nonergodic_rate_check,
    replay,
    sigma_gamma,
    step_inequality_check,
    update_recurrence_check,
    weighted_norm_sq,
)
from .calibration import (
    CalibrationInstance,
    build_problem,
    calibration_block_oracle,
    default_metrics,
    dump_instance,
    generate_instance,
    load_instance,
    project_box,
    project_psd,
    stacked_maps,
    verify_stacked_maps,
)
from .serialization import (
    atomic_write_json,
    atomic_write_text,
    format_float,
    read_matrix,
    write_matrix,
)

__version__ = "0.1.0"
