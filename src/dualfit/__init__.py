"""Line fitting that balances squared vertical against squared horizontal errors.

``import dualfit`` loads nothing but this module: each public name is
imported on first use (PEP 562).  The records and the public functions live
in :mod:`dualfit.core`, which builds its records on the numbers of the
kernel, :mod:`dualfit._kernel`, and of the certificate, :mod:`dualfit.oracle`;
:class:`Dataset` lives in the data layer, :mod:`dualfit.dataset`, which
imports numpy; the errors in :mod:`dualfit.errors`.  The ``dualfit``
command runs on the kernel alone and never builds a record.
"""

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

# name -> the module it is imported from on first use
_LAZY = {
    "Dataset": "dataset",
    **dict.fromkeys(
        (
            "FitConfig",
            "FittedLine",
            "OracleReport",
            "Quartic",
            "SufficientStats",
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
        ),
        "core",
    ),
    **dict.fromkeys(
        (
            "DegenerateData",
            "DualFitError",
            "InvalidInput",
            "NonPositiveCorrelation",
            "OutOfRange",
            "ParseError",
            "SingularSlope",
            "SolverFailure",
            "ZeroCorrelation",
        ),
        "errors",
    ),
}


def __getattr__(name: str):
    """A name of :data:`_LAZY`, imported on first use and then kept as a global (PEP 562)."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{_LAZY[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
