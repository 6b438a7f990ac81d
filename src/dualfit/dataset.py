"""The data layer: paired observations as numpy arrays, and their statistics.

This is the part of dualfit that imports numpy.  :class:`Dataset` holds two
read-only float64 columns and works out their sufficient statistics once, by
the corrected two-pass :func:`_moments`; :class:`_RunningStats` folds rows
that arrive a block at a time, as ``dualfit`` reads input longer than one
block.  Both check their figures with the kernel's
:func:`dualfit.core._checked_stats`, and everything after the statistics
(the fit, the oracle, the command line) runs in :mod:`dualfit.core` without
numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .core import SufficientStats, _checked_stats, _merge, _Moments
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
        """The record :func:`~dualfit.core.compute_stats` returns, made on first use."""
        x, y = self.x, self.y
        return _checked_stats(_moments(x, y), lambda: (x.min(), x.max(), y.min(), y.max()))


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


def _moments(x: np.ndarray, y: np.ndarray) -> _Moments:
    """Corrected two-pass moments: means first, then centred sums of squares
    and products.

    Each centred sum is ``sum(d*d) - sum(d)**2 / n`` over the deviations
    ``d`` from the rounded mean, the rule of
    :func:`~dualfit.core._fsum_moments` (Chan, Golub & LeVeque, 1983): the
    second term takes out what the rounding of the mean leaves in the first,
    which is all there is of a column nearly constant at a large offset.

    Nothing is checked here; :func:`~dualfit.core._checked_stats` checks the
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
            x_bar,
            y_bar,
            float(dx @ dx) - sum_dx * sum_dx / n,
            float(dy @ dy) - sum_dy * sum_dy / n,
            float(dx @ dy) - sum_dx * sum_dy / n,
        )


class _RunningStats:
    """Sufficient statistics of rows that arrive a block at a time.

    Memory stays flat in the number of rows.  Every block is centred on one
    shift, the means of the first block, so that the merged means stay small
    and the update loses no accuracy to an offset in the data; its moments
    come from :func:`_moments`, and blocks merge pairwise by
    :func:`~dualfit.core._merge`, as a binary counter would carry.  One block
    alone gives the figures of :func:`~dualfit.core.compute_stats` to the
    bit; more can differ from them in the last bits.
    """

    def __init__(self) -> None:
        self._whole: _Moments | None = None  # the first block, unshifted
        self._shift = (0.0, 0.0)
        # (blocks merged, moments), the block counts decreasing down the list
        self._partial: list[tuple[int, _Moments]] = []
        self._ranges = (math.inf, -math.inf, math.inf, -math.inf)

    def add(self, x: np.ndarray, y: np.ndarray) -> None:
        """Fold in one block of finite values."""
        if self._whole is None:
            self._whole = _moments(x, y)
            self._shift = (self._whole.x_bar, self._whole.y_bar)
        shift_x, shift_y = self._shift
        with np.errstate(all="ignore"):  # an overflow is caught by the checks
            blocks, moments = 1, _moments(x - shift_x, y - shift_y)
        while self._partial and self._partial[-1][0] == blocks:
            count, earlier = self._partial.pop()
            blocks, moments = blocks + count, _merge(earlier, moments)
        self._partial.append((blocks, moments))
        x_min, x_max, y_min, y_max = self._ranges
        self._ranges = (
            min(x_min, x.min()),
            max(x_max, x.max()),
            min(y_min, y.min()),
            max(y_max, y.max()),
        )

    def stats(self) -> SufficientStats:
        """Check the merged figures and build the record, as :func:`compute_stats` does."""
        if len(self._partial) == 1 and self._partial[0][0] == 1:
            merged = self._whole
        else:
            merged = self._partial[-1][1]
            for _, earlier in reversed(self._partial[:-1]):
                merged = _merge(earlier, merged)
            merged = merged._replace(
                x_bar=self._shift[0] + merged.x_bar, y_bar=self._shift[1] + merged.y_bar
            )
        return _checked_stats(merged, lambda: self._ranges)
