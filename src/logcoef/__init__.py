"""Logarithmic-coefficient functionals for univalent functions on the disk.

The quantity of interest is delta = |gamma_2| - |gamma_1|, where gamma_1 and
gamma_2 are the first two coefficients of (1/2) log(f(z)/z) for a normalized
analytic f.  The package carries truncated-series arithmetic (`series`), a
catalog of extremal functions (`catalog`), the functional itself
(`functional`), class membership machinery (`classes`), closed-form sharp
bounds (`bounds`), and numerical body searches that cross-check the bounds
(`search`).  A command-line front end lives in `cli`.
"""

from .bounds import (
    M_BRANCH_ALPHA,
    BoundPair,
    bound_delta,
    g_lower_bound,
    g_lower_minimizer,
    g_upper_bound,
    m_lower_large_alpha,
    m_lower_minimizer,
    m_lower_small_alpha,
    m_upper_bound,
    u_lower_large_lambda,
    u_lower_small_lambda,
    u_upper_bound,
)
from .catalog import (
    LABELS,
    AnalyticFunction,
    f1,
    f2,
    f3,
    f4,
    f5,
    g_alpha_upper,
    g_quadratic,
    k_theta_alpha,
    koebe,
    m_alpha_upper,
    make,
    rotate,
)
from .classes import (
    ClassSpec,
    MembershipReport,
    SingularSampleError,
    asserted_memberships,
    coeff_bound_A_check,
    e11_slack,
    eq10_slack,
    membership_margin,
    membership_test,
    u_aux_check,
)
from .functional import LogPair, delta, gamma_from_a, log_coefficients, log_pair
from .search import (
    BODY_NOTE,
    ScanResult,
    SearchResult,
    SweepRow,
    body_delta,
    body_search,
    bound_violation_scan,
    family_sweep,
)
from .series import (
    TruncatedSeries,
    exp_unit,
    log_unit,
    pow_real,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticFunction",
    "BODY_NOTE",
    "BoundPair",
    "ClassSpec",
    "LABELS",
    "LogPair",
    "M_BRANCH_ALPHA",
    "MembershipReport",
    "ScanResult",
    "SearchResult",
    "SingularSampleError",
    "SweepRow",
    "TruncatedSeries",
    "asserted_memberships",
    "body_delta",
    "body_search",
    "bound_delta",
    "bound_violation_scan",
    "coeff_bound_A_check",
    "delta",
    "e11_slack",
    "eq10_slack",
    "exp_unit",
    "f1",
    "f2",
    "f3",
    "f4",
    "f5",
    "family_sweep",
    "g_alpha_upper",
    "g_lower_bound",
    "g_lower_minimizer",
    "g_quadratic",
    "g_upper_bound",
    "gamma_from_a",
    "k_theta_alpha",
    "koebe",
    "log_coefficients",
    "log_pair",
    "log_unit",
    "m_alpha_upper",
    "m_lower_large_alpha",
    "m_lower_minimizer",
    "m_lower_small_alpha",
    "m_upper_bound",
    "make",
    "membership_margin",
    "membership_test",
    "pow_real",
    "rotate",
    "u_aux_check",
    "u_lower_large_lambda",
    "u_lower_small_lambda",
    "u_upper_bound",
]
