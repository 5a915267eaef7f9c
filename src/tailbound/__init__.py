"""tailbound: kurtosis-constrained extreme-deviation bounds.

How far, in standard deviations, can one observation sit from the mean of
an n-point sample with a given kurtosis?  The closed-form answer, the
Chebyshev-type probability bounds around it, and a validator that applies
both to stress-test shock models.
"""

from .appendix_search import (
    ComparisonRow,
    KAPPA_TOL,
    OutlierSearchResult,
    SHAPES,
    comparison_table,
    generate_base,
    search_outlier,
    search_outlier_on_points,
)
from .chebyshev_bounds import (
    BoundEvaluation,
    bhattacharyya_bound,
    even_moment_bound,
    even_moment_endpoint,
    zelen_bound,
)
from .distributions import (
    BLR_TAIL_FACTORS,
    TailFactorQuery,
    blr_h_from_kurtosis,
    blr_kurtosis,
    blr_tail_factor,
    normal_cdf,
    normal_isf,
    normal_quantile,
    student_t_cdf,
    student_t_isf,
    student_t_kurtosis,
    student_t_quantile,
)
from .errors import (
    BoundValidityError,
    BracketRangeError,
    DegenerateDataError,
    DomainError,
    InfeasibleKurtosisError,
    MomentInfeasibleError,
    SearchError,
    TableLookupError,
    TailboundError,
    ThresholdTooSmallError,
)
from .extreme_point import (
    ExtremePointSolution,
    KurtosisRange,
    Moments,
    asymptotic_a,
    construct_distribution,
    feasible_floor,
    feasible_kurtosis_range,
    oracle_moments,
    samuelson_bound,
    solve_extreme_point,
)
from .validator import (
    DEFAULT_HISTORY_CEILING,
    EmpiricalVerdict,
    ModelVerdict,
    ReturnSeries,
    empirical_validate,
    max_safe_history,
    required_tail_factor,
    validate_blr,
    validate_model,
)

__version__ = "0.1.0"
