"""Ambiguity of soft-labeled tasks: measures, posteriors, and estimators.

The package quantifies how ambiguous a categorical annotation task is from
its soft label (a distribution over answer categories plus an explicit
"can't solve" response), and infers that quantity from finitely many
annotations: plug-in estimates with exact bias formulas, conjugate
Dirichlet posteriors with closed-form moments, Monte-Carlo posterior
summaries, and an exact posterior density for binary tasks.
"""

from .exceptions import *  # noqa: F401,F403
from .measures import (  # noqa: F401
    CategorySchema,
    CountVector,
    MeasureKind,
    ProbabilityVector,
    ambiguity,
    ambiguity_modified,
    ambiguity_new,
    ambiguity_old,
    modified_from_new,
    normalized_entropy,
    plugin_estimate,
)
from .numerics import (  # noqa: F401
    DirichletParams,
    QuadratureResult,
    dirichlet_sample,
    make_generator,
)
from .posterior_analytics import (  # noqa: F401
    cov_amb_qcs,
    expected_amb,
    expected_amb_modified,
    expected_normalized_entropy,
    posterior_mean_sd,
    posterior_update,
    var_amb,
    var_amb_modified,
    var_qcs,
)
from .posterior_sampling import (  # noqa: F401
    DensityEstimate,
    MeasureSummary,
    density_with_uncertainty,
    histogram_mode,
    posterior_summaries,
    sample_transformed,
)
from .binary_density import (  # noqa: F401
    BinaryCounts,
    density_curve,
    density_integral,
    posterior_cdf_binary,
    posterior_density_binary,
)
from .frequentist import (  # noqa: F401
    BiasSeries,
    bias_curve,
    bias_plugin,
    exhaustive_expected_estimator,
    expected_plugin,
)
from .dataset_io import (  # noqa: F401
    ItemReport,
    LoadResult,
    export_reports,
    import_reports,
    load_records,
    rank_and_filter,
    score_items,
)

__version__ = "0.1.0"
