"""Numerical laboratory for hitting-time, recurrence and mixing statistics
of exactly iterable dynamical systems on the torus."""

from .errors import (
    AllCensoredError,
    ConfigError,
    DegenerateLadderError,
    DegenerateSeriesError,
    ErgolabError,
    InvalidBetaError,
    NoDecayFitError,
    RejectionStallError,
    SchemaMismatchError,
)
from .flow import ApproachSeries, approach_series
from .hitting import (
    BCCounter,
    ExponentEstimate,
    HittingRecord,
    bc_counter_series,
    bc_targets,
    estimate_R,
    ladder_hitting_times,
)
from .mixing import (
    CorrelationSeries,
    DecayFit,
    estimate_correlation,
    fit_decay,
    intersection_bound_check,
)
from .observables import (
    DimensionEstimate,
    DistToPoint,
    DistToProjectedPoint,
    MeasureEstimate,
    PushforwardDist,
    RadiusLadder,
    Slack,
    WeightedSum,
    estimate_dimension,
    estimate_measure,
    evaluate,
    mollifier,
    parse_observable,
)
from .observed import (
    CircleWave,
    Constant,
    CoordinateProjection,
    LinearMap,
    RankReport,
    jacobian_rank,
    observed_hitting_time,
    parse_observation_map,
    pushforward_dimension,
)
from .points import FloatPoint, FractionPoint, ReservoirPoint, torus_distance
from .returns import (
    ReturnCurve,
    ReturnSample,
    exp_law_distance,
    return_curve,
    return_sample,
    sample_conditioned,
    triviality_indicator,
)
from .systems import (
    CAT_MATRIX,
    CircleRotation,
    Doubling,
    MannevillePomeau,
    ToralAutomorphism,
    system_from_id,
)

__version__ = "0.1.0"
