"""Cross-validated high-precision routes to log A (Glaisher-Kinkelin).

Seven independent estimators of the logarithm of the Glaisher-Kinkelin
constant -- the defining limit, four integral representations, a Fourier
series expansion, and an alternating binomial (Hasse-type) double sum --
computed with double-exponential quadrature over arbitrary-precision
arithmetic, cross-validated pairwise, with every intermediate identity
verified numerically.  No literature decimal is ever used as an oracle;
agreement between independently derived formulas is the only ground truth.
"""

__version__ = "0.1.0"

from .context import (
    ComputeContext,
    ConstantsSet,
    DecimalParseError,
    DomainError,
    PrecisionError,
    Real,
    euler_gamma_ref,
    make_context,
    real_from_decimal,
    real_to_decimal,
)
from .quadrature import (
    ErrorModelReport,
    Integrand,
    IntegrandEvaluationError,
    NoConvergenceError,
    QuadratureError,
    QuadratureResult,
    error_model_check,
    integrate_finite,
    integrate_zero_to_inf,
)
from .loggamma import (
    FourierCoefficient,
    dirichlet_gamma,
    feaux_log_gamma1p,
    fourier_a_n,
    kummer_fourier_log_gamma,
    kummer_log_gamma,
    log_gamma_ref,
)
from .routes import (
    IDENTITY_IDS,
    ROUTE_IDS,
    ConsensusError,
    IdentityResidual,
    RouteEstimate,
    consensus_log_a,
    gla2_residual,
    glaisher_identity_residual,
    hasse_first_n,
    hasse_required_digits,
    log_sin_check,
    res2_measure_check,
    route_feaux,
    route_fourier_series,
    route_hasse,
    route_kummer,
    route_limit,
    route_pain1,
    route_pain2,
)
from .report import (
    ConfigError,
    ConvergenceRecord,
    ReportDocument,
    RouteFailure,
    convergence_study,
    deserialize_report,
    run_all,
    serialize,
)

__all__ = [
    "__version__",
    "ComputeContext",
    "ConstantsSet",
    "ConfigError",
    "ConsensusError",
    "ConvergenceRecord",
    "DecimalParseError",
    "DomainError",
    "ErrorModelReport",
    "FourierCoefficient",
    "IDENTITY_IDS",
    "IdentityResidual",
    "Integrand",
    "IntegrandEvaluationError",
    "NoConvergenceError",
    "PrecisionError",
    "QuadratureError",
    "QuadratureResult",
    "ROUTE_IDS",
    "Real",
    "ReportDocument",
    "RouteEstimate",
    "RouteFailure",
    "consensus_log_a",
    "convergence_study",
    "deserialize_report",
    "dirichlet_gamma",
    "error_model_check",
    "euler_gamma_ref",
    "feaux_log_gamma1p",
    "fourier_a_n",
    "gla2_residual",
    "glaisher_identity_residual",
    "hasse_first_n",
    "hasse_required_digits",
    "integrate_finite",
    "integrate_zero_to_inf",
    "kummer_fourier_log_gamma",
    "kummer_log_gamma",
    "log_gamma_ref",
    "log_sin_check",
    "make_context",
    "real_from_decimal",
    "real_to_decimal",
    "res2_measure_check",
    "route_feaux",
    "route_fourier_series",
    "route_hasse",
    "route_kummer",
    "route_limit",
    "route_pain1",
    "route_pain2",
    "run_all",
    "serialize",
]
