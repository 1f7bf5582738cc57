"""Large-deviation analysis of loss distributions.

Estimates the cumulant function, rate function, and inverse rate function of
a model's per-sample loss distribution, and applies them to generalization
bounds, smoothness comparisons between models, data-augmentation analyses,
and quadratic approximations. A companion oracle module computes the same
quantities in closed form on finite discrete distributions and validates the
tail asymptotics by Monte Carlo.

The primary data type is the numpy array behind a small set of frozen
types; all public operations are pure functions of immutable inputs.
"""

from .analysis import (
    ApproxReport,
    BoundReport,
    CovarianceTaylor,
    DAReport,
    GradNormBound,
    OrderingClaim,
    SmoothnessVerdict,
    compare_smoothness,
    covariance_taylor,
    da_inequality_check,
    generalization_bound,
    gradient_norm_bound,
    interpolator_ordering,
    variance_rate_approx,
    variance_taylor,
)
from .cumulant import (
    CumulantCurve,
    LambdaGrid,
    cumulant_curve,
    cumulant_derivative,
    estimate_cumulant,
)
from .errors import (
    ComputeError,
    DimensionMismatch,
    EmptyDataset,
    InputError,
    InternalConsistencyError,
    InvalidA,
    InvalidLambda,
    InvalidMeta,
    InvalidS,
    MissingGradients,
    MissingGradNorms,
    MissingGroupId,
    NonRationalProbs,
    ParseError,
    RatefnError,
    SolverFailure,
    UnknownSampleId,
    ValidationError,
    ZeroVariance,
)
from .loss_data import (
    DatasetSummary,
    LossDataset,
    LossRecord,
    ModelMeta,
    UnequalGroupsWarning,
    compose_augmented,
    dump_dataset,
    from_losses,
    load_dataset,
    reduce_augmented,
    summarize,
)
from .oracle import (
    BiasProbeReport,
    CramerReport,
    DiscreteLossDistribution,
    TiltedCramerReport,
    cramer_tail,
    estimator_bias_probe,
    exact_cumulant,
    exact_rate,
    exact_tail,
    expand_to_dataset,
    load_distribution,
    sample_dataset,
)
from .rate import (
    InverseRateEvaluation,
    RateEvaluation,
    grid_inverse_rate,
    inverse_rate,
    rate,
    rate_curve,
)

__version__ = "0.1.0"
