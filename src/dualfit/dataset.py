"""The data layer: paired observations as numpy arrays.

:class:`Dataset` holds two read-only float64 columns and works out their
sufficient statistics once, by the corrected two-pass :func:`_moments`,
checked by the kernel's :func:`~dualfit._kernel._checked_stats`, which is
told whether each column's least and greatest values are equal: a column
that is, whatever its sums, is degenerate.  Everything after the statistics
(the fit, the oracle, the command line) runs without numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from ._kernel import _checked_stats, _Moments
from .core import SufficientStats
from .errors import InvalidInput


@dataclass(frozen=True, eq=False)
class Dataset:
    """Paired observations, stored as two equal-length read-only float arrays.

    A Dataset never changes.  Each column is a read-only view of a read-only
    float64 copy of the input, so neither can be made writeable again, and a
    copy or an unpickled Dataset is rebuilt through the constructor, checked
    and frozen afresh.  Its sufficient statistics are therefore a pure
    function of the object: :func:`~dualfit.core.compute_stats` works them
    out the first time it is asked and keeps them on the Dataset for every
    later call, so a dataset fitted at many weights and then verified is
    summarised once.  The kept record takes no part in ``repr``, equality,
    ``dataclasses.fields`` or pickling, and an error is never kept.

    Two Datasets are equal when their columns are; a Dataset is not hashable.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = _column(self.x)
        y = _column(self.y)
        if x.ndim != 1 or y.ndim != 1:
            raise InvalidInput("x and y must be one-dimensional")
        if x.shape != y.shape:
            raise InvalidInput(f"x has {x.size} values but y has {y.size}")
        if x.size < 2:
            raise InvalidInput(f"need at least 2 points, got {x.size}")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise InvalidInput("coordinates must be finite")
        object.__setattr__(self, "x", _read_only(x))
        object.__setattr__(self, "y", _read_only(y))

    @classmethod
    def from_points(cls, points: Iterable[tuple[float, float]]) -> "Dataset":
        """Build a Dataset from an iterable of (x, y) pairs."""
        arr = _column(list(points))
        if arr.size == 0:
            raise InvalidInput("need at least 2 points, got 0")
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise InvalidInput("points must be (x, y) pairs")
        return cls(arr[:, 0], arr[:, 1])

    def __len__(self) -> int:
        return int(self.x.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return np.array_equal(self.x, other.x) and np.array_equal(self.y, other.y)

    # compared by the values of its arrays, which numpy does not hash
    __hash__ = None

    def __reduce__(self):
        # copies and pickles go through __post_init__: checked, frozen, no record
        return (type(self), (self.x, self.y))

    @cached_property
    def _stats(self) -> SufficientStats:
        """The record :func:`~dualfit.core.compute_stats` returns, made on first use.

        A column is constant, and the data degenerate, when its least and
        greatest values are equal.
        """
        x, y = self.x, self.y
        stats = _checked_stats(_moments(x, y), x.min() == x.max(), y.min() == y.max())
        return SufficientStats(*stats)


def _moments(x: np.ndarray, y: np.ndarray) -> _Moments:
    """Corrected two-pass moments: means first, then centred sums of squares
    and products.

    Each centred sum is ``sum(d*d) - sum(d)**2 / n`` over the deviations
    ``d`` from the rounded mean ``c = sum(x) / n``, and the mean is
    ``c + sum(d) / n``: the rule of :func:`~dualfit._kernel._fsum_moments`
    (Chan, Golub & LeVeque, 1983), whose correction takes out what the
    rounding of ``c`` leaves in the figures.  In a centred sum that is all
    there is of a column nearly constant at a large offset; a mean it brings
    to within an ulp or so of exact.

    Nothing is checked here; :func:`~dualfit._kernel._checked_stats` checks the
    figures.
    """
    n = int(x.size)
    # numpy's overflow warnings are muted because the figures are checked
    # later; sum / n is x.mean() to the bit, at a fraction of its call overhead
    with np.errstate(all="ignore"):
        x_bar = float(x.sum()) / n
        y_bar = float(y.sum()) / n
        dx = x - x_bar
        dy = y - y_bar
        sum_dx, sum_dy = float(dx.sum()), float(dy.sum())
        return _Moments(
            n,
            x_bar + sum_dx / n,
            y_bar + sum_dy / n,
            float(dx @ dx) - sum_dx * sum_dx / n,
            float(dy @ dy) - sum_dy * sum_dy / n,
            float(dx @ dy) - sum_dx * sum_dy / n,
        )


def _column(values) -> np.ndarray:
    """``values`` as a new float64 array of at least one dimension.

    Raises
    ------
    InvalidInput
        If a value is not a real number; complex values are refused rather
        than cut to their real parts.
    """
    try:
        raw = np.asarray(values)
        if raw.dtype.kind == "c":
            raise TypeError(f"got {raw.dtype} values")
        return np.atleast_1d(raw.astype(float))
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"coordinates are not real numbers: {exc}") from exc


def _read_only(column: np.ndarray) -> np.ndarray:
    """A read-only view of ``column``, which is made read-only first.

    The view does not own its data, so numpy refuses to make it writeable
    again while its base is read-only.
    """
    column.setflags(write=False)
    view = column.view()
    view.setflags(write=False)
    return view
