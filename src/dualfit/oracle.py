"""The exact certificate of a fit, which does not trust the quartic.

With the intercept on the centroid line the objective is a function of the
slope, ``P(t) = V(t) * (gamma + (1 - gamma) / t**2)`` with
``V(t) = s_yy - 2*t*s_xy + t**2*s_xx``, whose one critical point on the
slopes of the correlation's sign is its minimum (README, "Why exactly one
root").  Its derivative is the slope quartic of :func:`dualfit.build_quartic`,
``t**3 * P'(t) / 2 = Q(t)``.  :func:`certify` compares ``P`` exactly, in
integers, at the fitted slope ``b = n * 2**k`` and at ``m * 2**k`` a few ulps
either side: the sign of ``P(m * 2**k) - P(b)`` is that of ``d * S(d)`` for
``d = m - n`` and an integer cubic ``S`` whose constant term ``S(0)`` is ``n``
times ``Q(b)``, which it weighs against its terms' magnitudes.
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
    # likewise s_xx, s_xy, s_yy and gamma are integers of 53 bits (or 0) times
    # powers of two; shifted, V(t) = (a*m*m - c*m + y) * 2**(ev - 53) and
    # gamma*t**2 + 1 - gamma = (g*m*m + h) * 2**(eg - 53 + ew) for t = m * 2**k
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

    # a4, c3, c1 and y0 are a*g*n**4, c*g*n**3, c*h*n and h*y, so Q's terms at b
    # are 2*a4, -c3, c1 and -2*y0 at one exponent, and q is Q(b) there
    nn, cn = n * n, c * n
    gnn = g * nn
    e3 = a * gnn
    a4, c3, c1, y0 = e3 * nn, gnn * cn, h * cn, h * y
    q = 2 * (a4 - y0) - c3 + c1
    best, evals = -b, 0  # P(-b) - P(b) = 4*b*s_xy * (gamma + (1 - gamma)/b**2)
    if (b > 0.0) != reflect:
        # t**2 * P(t) is F(m) = (a*m*m - c*m + y) * (g*m*m + h) times a power of
        # two, and n*n*F(m) - m*m*F(n) = d*S(d) for d = m - n and the cubic
        # S(d) = n*q + d*(e1 + d*(e2 + d*e3)): n*n*(P(t) - P(b)) is d*S(d) / (m*m)
        # times a power of two, lo / (m*m) at the lower end and hi / (m*m) above
        best, evals = b, 3
        e1, e2, nq = 5 * a4 - 2 * c3 + c1 - y0, gnn * (4 * a * n - c), n * q
        d = m_below - n
        lo = d * (nq + d * (e1 + d * (e2 + d * e3)))
        d = m_above - n
        hi = d * (nq + d * (e1 + d * (e2 + d * e3)))
        if not h:  # t = 0 at gamma = 1, where P = V * gamma: n*n*(P(0) - P(b)) is c3 - a4
            lo, hi = lo if m_below else c3 - a4, hi if m_above else c3 - a4
        if lo < 0:  # below beats b, so above must beat below; an m of 0 divides by 1,
            # as c3 - a4 is, or leaves n*n*h*y >= 0, which loses either way
            ll, hh = m_below * m_below or 1, m_above * m_above or 1
            best = above if hi * ll < lo * hh else below
        elif hi < 0:
            best = above

    # Q(b) = b**3 * P'(b) / 2 over its terms' magnitudes: a4, y0 >= 0, c3 and c1 have c*n's sign
    gradient = abs(q) / (2 * (a4 + y0) + abs(c3 + c1))
    return best, b, abs(best - b), evals, (below, above), gradient
