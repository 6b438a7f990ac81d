"""The sufficient statistics of numpy columns, a block at a time.

:func:`_moments` is one pass of corrected two-pass sums over a block;
:class:`_RunningStats` merges blocks as ``dualfit`` reads input longer than
one block, and :class:`~dualfit.dataset.Dataset` summarises its columns by
:func:`_moments` once.  Both check their figures with the kernel's
:func:`~dualfit._kernel._checked_stats`.  This module imports numpy, and no
records: the command line loads it only for input past its first block.
"""

from __future__ import annotations

import math

import numpy as np

from ._kernel import _checked_stats, _merge, _Moments, _Stats


def _moments(x: np.ndarray, y: np.ndarray) -> _Moments:
    """Corrected two-pass moments: means first, then centred sums of squares
    and products.

    Each centred sum is ``sum(d*d) - sum(d)**2 / n`` over the deviations
    ``d`` from the rounded mean, the rule of
    :func:`~dualfit._kernel._fsum_moments` (Chan, Golub & LeVeque, 1983): the
    second term takes out what the rounding of the mean leaves in the first,
    which is all there is of a column nearly constant at a large offset.

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
    :func:`~dualfit._kernel._merge`, as a binary counter would carry.  One block
    alone gives the figures of :func:`~dualfit.compute_stats` to the
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

    def stats(self) -> _Stats:
        """The merged figures, checked as :func:`~dualfit.compute_stats` checks its own."""
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
