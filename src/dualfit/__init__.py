"""Line fitting that balances squared vertical against squared horizontal errors.

``import dualfit`` loads the numpy-free kernel (:mod:`dualfit.core`) and the
errors.  :class:`Dataset` lives in the data layer, :mod:`dualfit.dataset`,
which imports numpy, and the certificate of a fit in :mod:`dualfit.oracle`;
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
)
from .errors import (
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
    "compute_stats",
    "fit",
    "fit_stats",
    "intercept",
    "inverse_predict",
    "predict",
    "slope_bounds",
    "sse",
    "verify_fit",
]

# name -> module of the names resolved on first use: the data layer imports
# numpy, and only verify needs the oracle
_LAZY = {
    "Dataset": "dataset",
    "OracleReport": "oracle",
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
