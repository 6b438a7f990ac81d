"""Line fitting that balances squared vertical against squared horizontal errors.

``import dualfit`` loads the numpy-free kernel (:mod:`dualfit.core`), the
oracle and the errors.  :class:`Dataset` lives in the data layer,
:mod:`dualfit.dataset`, which imports numpy; it is imported on first use of
``dualfit.Dataset``.
"""

from .core import (
    FitConfig,
    FittedLine,
    Quartic,
    SufficientStats,
    build_quartic,
    compute_stats,
    fit,
    fit_stats,
    intercept,
    inverse_predict,
    predict,
    slope_bounds,
    sse,
    sse_gradient,
)
from .errors import (
    BracketFailure,
    DegenerateData,
    DualFitError,
    InvalidInput,
    NonPositiveCorrelation,
    OutOfRange,
    ParseError,
    SingularSlope,
    SolverFailure,
    ZeroCorrelation,
)
from .oracle import OracleReport, check_gradient, minimize_profile, profile_sse, verify_fit

__version__ = "0.1.0"

__all__ = [
    "BracketFailure",
    "Dataset",
    "DegenerateData",
    "DualFitError",
    "FitConfig",
    "FittedLine",
    "InvalidInput",
    "NonPositiveCorrelation",
    "OracleReport",
    "OutOfRange",
    "ParseError",
    "Quartic",
    "SingularSlope",
    "SolverFailure",
    "SufficientStats",
    "ZeroCorrelation",
    "build_quartic",
    "check_gradient",
    "compute_stats",
    "fit",
    "fit_stats",
    "intercept",
    "inverse_predict",
    "minimize_profile",
    "predict",
    "profile_sse",
    "slope_bounds",
    "sse",
    "sse_gradient",
    "verify_fit",
]

# names of the data layer, which imports numpy: resolved on first use
_DATA_LAYER = ("Dataset",)


def __getattr__(name: str):
    """A data-layer name, imported on first use and then kept as a global (PEP 562)."""
    if name not in _DATA_LAYER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import dataset

    value = globals()[name] = getattr(dataset, name)
    return value
