"""Seeded inputs for the three workloads.

Everything the program sees is made here from ``--seed``: CSV files for the
CLI workloads and plain arrays for the in-process one.  Floats are written
with ``repr``, which round-trips, so the values the program parses are
exactly the arrays the reference checks against.

The ``scaled`` slice of ``lib-fits`` is built here too, beside the seeded
stream and from a fixed seed of its own, so it is the same in every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# sub-streams of one seed, so that each input is independent of the others
_INGEST, _CLI, _LIB = 1, 2, 3
# the scaled slice does not depend on --seed
_SCALED_SEED = 20050512


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def csv_text(x: np.ndarray, y: np.ndarray) -> str:
    """Header row plus one ``x,y`` row per point, floats as round-trip text."""
    body = "\n".join(map("{!r},{!r}".format, x.tolist(), y.tolist()))
    return "x,y\n" + body + "\n"


def noisy_line(
    rng: np.random.Generator,
    n: int,
    slope: float,
    noise: float,
    x_offset: float = 0.0,
    y_offset: float = 0.0,
    y_unit: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Points near ``y = y_offset + slope * x`` with errors on both axes.

    The true x values are uniform on a seeded span; each coordinate gets
    Gaussian error of ``noise`` times its own spread.  ``y_unit`` rescales y
    as a change of measurement unit would.
    """
    span = rng.uniform(0.5, 5.0)
    x_true = rng.uniform(-span, span, n)
    x = x_true + noise * span * rng.normal(size=n) + x_offset
    y = slope * x_true + noise * abs(slope) * span * rng.normal(size=n)
    return x, (y + y_offset) * y_unit


def _correlation(x: np.ndarray, y: np.ndarray) -> float:
    dx = x - x.mean()
    dy = y - y.mean()
    return float(dx @ dy / math.sqrt((dx @ dx) * (dy @ dy)))


def _benign_line(
    rng: np.random.Generator, n: int, sign: float, squares_max: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """A seeded dataset whose correlation has the sign ``sign``.

    Slope magnitude is log-uniform over [0.1, 10] and noise 5-60% of the
    spread; a draw is redone until the sample correlation has the wanted
    sign and is not near zero, which small samples can otherwise miss.  With
    ``squares_max`` both axes are then rescaled by one factor (a change of
    unit, which keeps the slope) so that the larger of ``sum(x^2)`` and
    ``sum(y^2)`` is log-uniform over [0.1, squares_max]: ``dualfit verify``
    fails its gradient gate on correct fits once those sums grow much past
    10^2 (see README.md).
    """
    while True:
        slope = sign * 10.0 ** rng.uniform(-1.0, 1.0)
        noise = rng.uniform(0.05, 0.6)
        x, y = noisy_line(
            rng, n, slope, noise, x_offset=rng.uniform(-5.0, 5.0), y_offset=rng.uniform(-5.0, 5.0)
        )
        if sign * _correlation(x, y) > 0.1:
            break
    if squares_max is not None:
        squares = max(float(x @ x), float(y @ y))
        unit = math.sqrt(10.0 ** rng.uniform(-1.0, math.log10(squares_max)) / squares)
        x, y = x * unit, y * unit
    return x, y


# ---------------------------------------------------------------------------
# ingest-250k
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IngestInput:
    x: np.ndarray
    y: np.ndarray
    gamma: float
    text: str


def ingest_input(seed: int, rows: int = 250_000) -> IngestInput:
    rng = _rng(seed, _INGEST)
    x, y = _benign_line(rng, rows, 1.0)
    gamma = float(rng.uniform(0.1, 0.9))
    return IngestInput(x=x, y=y, gamma=gamma, text=csv_text(x, y))


# ---------------------------------------------------------------------------
# cli-calls
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliInput:
    small_x: np.ndarray
    small_y: np.ndarray
    sweep_x: np.ndarray
    sweep_y: np.ndarray
    gamma: float
    predict_at: float
    inverse_at: float


def cli_input(seed: int) -> CliInput:
    rng = _rng(seed, _CLI)
    small_x, small_y = _benign_line(rng, 100, 1.0, VERIFIED_SQUARES_MAX)
    sweep_x, sweep_y = _benign_line(rng, 1000, 1.0)
    return CliInput(
        small_x=small_x,
        small_y=small_y,
        sweep_x=sweep_x,
        sweep_y=sweep_y,
        gamma=float(rng.uniform(0.1, 0.9)),
        predict_at=float(rng.uniform(-5.0, 5.0)),
        inverse_at=float(rng.uniform(-5.0, 5.0)),
    )


# ---------------------------------------------------------------------------
# lib-fits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LibCase:
    """One dataset of the in-process stream and how it is to be fitted."""

    name: str
    x: np.ndarray
    y: np.ndarray
    gamma: float
    reflect: bool
    verify: bool
    # for the scaled slice: the failure this case shows today
    expected_failure: str | None = None


# datasets that go through verify_fit are rescaled to keep sum(x^2) and
# sum(y^2) at most this (see _benign_line)
VERIFIED_SQUARES_MAX = 50.0

# make-up of one pass over the stream; fixed, so every pass attempts the
# same number of each kind whatever the seed
STREAM_KINDS = {
    "interior": 600,  # 0 < gamma < 1, fit and verify
    "gamma0": 50,  # fit and verify
    "gamma1": 50,  # fit and verify
    "unscaled": 200,  # 0 < gamma < 1 at the generator's own scale, fit only
    "reflect": 100,  # negatively correlated, reflect policy, fit only
}


def lib_stream(seed: int) -> list[LibCase]:
    """The benign stream, in a seeded order.

    Sizes are log-uniform over 10..10^4 within each kind, so the statistics
    pass is from a few percent to most of a fit.  Only the verified kinds
    are rescaled.  Negatively correlated datasets are fitted with the reflect policy but
    not verified: ``verify_fit`` rejects every negatively correlated fit
    (one fixed case of that is in the scaled slice).
    """
    rng = _rng(seed, _LIB)
    kinds = []
    sizes = []
    for kind, count in STREAM_KINDS.items():
        # stratified: one size from each of `count` equal slices of
        # [1, 4] in log10, so every seed has the same spread of sizes
        kinds += [kind] * count
        sizes += list(10.0 ** (1.0 + 3.0 * (np.arange(count) + rng.uniform(size=count)) / count))
    order = rng.permutation(len(kinds))
    cases = []
    for i, j in enumerate(order):
        kind, n = kinds[j], int(round(sizes[j]))
        verify = kind in ("interior", "gamma0", "gamma1")
        reflect = kind == "reflect"
        x, y = _benign_line(rng, n, -1.0 if reflect else 1.0, VERIFIED_SQUARES_MAX if verify else None)
        gamma = {"gamma0": 0.0, "gamma1": 1.0}.get(kind, float(rng.uniform(0.02, 0.98)))
        cases.append(LibCase(f"{kind}-{i}", x, y, gamma, reflect, verify))
    return cases


def scaled_slice() -> list[LibCase]:
    """Fixed datasets that fail today, each naming its fault."""
    rng = np.random.default_rng(_SCALED_SEED)
    x1, y1 = noisy_line(rng, 200, 1.5, 0.2, y_unit=1e6)
    x2, y2 = noisy_line(rng, 200, 1.5, 0.2, x_offset=1e6, y_offset=1e6)
    x3, y3 = noisy_line(rng, 200, 1e-8, 0.2)
    x4, y4 = noisy_line(rng, 200, -1.5, 0.2)
    x5, y5 = noisy_line(rng, 10000, 3.0, 0.2)
    return [
        # core.real_roots scales its residual tolerance with the largest
        # coefficient, not with the b^4 terms
        LibCase("scaled-y-units-1e6", x1, y1, 0.5, False, True, "SolverFailure"),
        # core.sse_gradient rebuilds raw power sums from centred ones
        LibCase("scaled-offset-1e6", x2, y2, 0.5, False, True, "gradient gate"),
        # the oracle's golden-section search uses an absolute tolerance
        LibCase("scaled-slope-1e-8", x3, y3, 0.5, False, True, "BracketFailure"),
        # oracle.verify_fit calls slope_bounds on the unreflected statistics
        LibCase("reflect-verify", x4, y4, 0.5, True, True, "NonPositiveCorrelation"),
        # oracle.check_gradient measures finite-difference error against an
        # absolute floor of 1, while its round-off grows with the sums of
        # squares (here about 10^5)
        LibCase("unscaled-n-10000", x5, y5, 0.5, False, True, "gradient gate"),
    ]
