"""The exact certificate of a fit, which does not trust the quartic.

With the intercept on the centroid line the objective is a function of the
slope, ``P(t) = V(t) * (gamma + (1 - gamma) / t**2)`` with
``V(t) = s_yy - 2*t*s_xy + t**2*s_xx``, whose one critical point on the
slopes of the correlation's sign is its minimum (README, "Why exactly one
root").  Its derivative is the slope quartic of :func:`dualfit.build_quartic`,
``t**3 * P'(t) / 2 = Q(t)``.  :func:`certify` compares ``P`` exactly at the
fitted slope and a few ulps either side, in integers: the three slopes share
one power of two, so ``t**2 * P(t)`` has one exponent for all three.  It
weighs ``Q`` at the fitted slope against its terms' magnitudes in the same
integers.
"""

from __future__ import annotations

import math

from ._kernel import _bounds
from .errors import InvalidInput, OutOfRange

# certify compares the profile at the fitted slope with the profile this
# many ulps either side of it; measured on 6015 fits, 4 ulps left 20 of them
# uncertified and 8 none, while every slope moved by 1e-12 of itself failed
_CERTIFIED_ULPS = 8
# b = n * 2**k with 2**52 <= |n| < 2**53; within these, n -+ 8 stay in that range
_NARROWEST, _WIDEST = 2**52 + _CERTIFIED_ULPS, 2**53 - 1 - _CERTIFIED_ULPS


def certify(stats, b: float, gamma: float, policy: str) -> tuple:
    """The fields of :class:`dualfit.OracleReport` on a slope ``b`` fitted at ``gamma``.

    ``(oracle_slope, b, abs_gap, profile_evals, (below, above),
    gradient_max_rel_err)``, as :func:`dualfit.verify_fit` documents them,
    errors included; ``b`` is certified when ``oracle_slope == b``.
    """
    reflect = stats.rho < 0.0 and policy == "reflect"
    _bounds(stats.s_xx, stats.s_yy, -stats.rho if reflect else stats.rho)  # for its errors
    if not (math.isfinite(b) and b != 0.0):
        raise InvalidInput(f"a fitted slope is finite and nonzero, got {b!r}")
    if not 0.0 <= gamma <= 1.0:
        raise InvalidInput(f"gamma must lie in [0, 1], got {gamma}")
    # b = n * 2**k; for a normal b (k >= -1074) whose bracket stays in its
    # binade the bracket is (n -+ 8) * 2**k, else it is walked ulp by ulp and
    # k is the lesser binade's
    mantissa, k = math.frexp(b)  # in [0.5, 1), so times 2**53 an integer of 53 bits
    n, k = int(mantissa * 2.0**53), k - 53
    if k >= -1074 and _NARROWEST <= abs(n) <= _WIDEST:
        m_below, m_above = n - _CERTIFIED_ULPS, n + _CERTIFIED_ULPS
        below, above = math.ldexp(m_below, k), math.ldexp(m_above, k)
    else:
        below = above = b
        for _ in range(_CERTIFIED_ULPS):
            below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        if not (math.isfinite(below) and math.isfinite(above)):
            raise OutOfRange(f"the slope's {_CERTIFIED_ULPS}-ulp bracket leaves float64 at {b!r}")
        k = min(math.frexp(below)[1], math.frexp(above)[1]) - 53
        n, m_below, m_above = (int(math.ldexp(t, -k)) for t in (b, below, above))
    # likewise s_xx, s_xy, s_yy and gamma are integers a, c, y and g of 53 bits
    # (or 0) times 2**(ea - 53) and so on; with t = m * 2**k in the bracket and
    # the shifts below, V(t) = (a*m*m - c*m + y) * 2**(ev - 53) and
    # gamma*t**2 + 1 - gamma = (g*m*m + h) * 2**(eg - 53 + ew)
    fa, ea = math.frexp(stats.s_xx)
    fc, ec = math.frexp(stats.s_xy)
    fy, ey = math.frexp(stats.s_yy)
    fg, eg = math.frexp(gamma)
    g = int(fg * 2.0**53)
    h = (1 << (53 - eg)) - g  # 1 - gamma = h * 2**(eg - 53)
    ev, ew = min(ea + 2 * k, ec + k, ey), min(2 * k, 0)
    a = int(fa * 2.0**53) << (ea + 2 * k - ev)
    c = int(fc * 2.0**53) << (ec + k + 1 - ev)
    y = int(fy * 2.0**53) << (ey - ev)
    g, h = g << (2 * k - ew), h << -ew

    best, evals = -b, 0  # P(-b) - P(b) = 4*b*s_xy * (gamma + (1 - gamma)/b**2)
    nn = n * n
    gnn, ann, cn = g * nn, a * nn, c * n  # P(b)'s products, and the gradient's
    if (b > 0.0) != reflect:
        # P(t) < P(best) is q / (m*m) < p / pp, both sides times one power of two
        best, evals = b, 3
        p, pp = (ann - cn + y) * (gnn + h), nn
        for t, m in ((below, m_below), (above, m_above)):
            mm = m * m
            q = (a * mm - c * m + y) * (g * mm + h)
            if q * pp < p * mm:
                best, p, pp = t, q, mm
            elif not (m or h) and y * g * pp < p:
                # t = 0 at gamma = 1, where P = V * gamma: q / mm is y * g
                best, p, pp = t, y * g, 1

    # b**3 * P'(b) / 2 = Q(b), over the sum of its terms' magnitudes: t4, t3,
    # t1 and t0 are Q's terms gamma*s_xx*b^4, -gamma*s_xy*b^3, (1-gamma)*s_xy*b
    # and -(1-gamma)*s_yy at b, all at one exponent
    t4, t3, t1, t0 = 2 * gnn * ann, -gnn * cn, h * cn, -2 * h * y
    gradient = abs(t4 + t3 + t1 + t0) / (abs(t4) + abs(t3) + abs(t1) + abs(t0))
    return best, b, abs(best - b), evals, (below, above), gradient
