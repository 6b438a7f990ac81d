"""Line fitting that balances squared vertical against squared horizontal errors.

``import dualfit`` loads the numpy-free kernel (:mod:`dualfit.core`) and the
errors.  :class:`Dataset` lives in the data layer, :mod:`dualfit.dataset`,
which imports numpy, and the checks of a fit live in :mod:`dualfit.oracle`;
each is imported on first use of one of its names, such as
``dualfit.Dataset`` or ``dualfit.verify_fit``.
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

# name -> module of the names resolved on first use: the data layer imports
# numpy, and only verify and the oracle's own checks need the oracle
_LAZY = {
    "Dataset": "dataset",
    "OracleReport": "oracle",
    "check_gradient": "oracle",
    "minimize_profile": "oracle",
    "profile_sse": "oracle",
    "verify_fit": "oracle",
}


def __getattr__(name: str):
    """A name of :data:`_LAZY`, imported on first use and then kept as a global (PEP 562)."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{_LAZY[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value
