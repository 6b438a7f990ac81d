# Every fit can be double-checked without trusting the algebra that made it.
#
# The fitting path finds the slope as a polynomial root. The check ignores
# that entirely: it compares the objective exactly, in integers, at the
# fitted slope and 8 ulps either side of it. If neither neighbour does better,
# the true minimum lies within those 8 ulps and the fit is certified.

import dataclasses

import numpy as np

from dualfit import FitConfig, Dataset, compute_stats, fit_stats, verify_fit

rng = np.random.default_rng(99)

for trial in range(5):
    n = int(rng.integers(10, 200))
    x = rng.uniform(-5.0, 5.0, n)
    y = rng.uniform(-2.0, 2.0) + rng.uniform(0.3, 2.5) * x + rng.normal(0.0, 0.7, n)
    stats = compute_stats(Dataset(x, y))

    gamma = float(rng.uniform(0.05, 0.95))
    config = FitConfig(gamma=gamma)
    line = fit_stats(stats, config)
    report = verify_fit(stats, line, config)

    # the same check on a slope nudged by one part in 10^12 must fail
    nudged = dataclasses.replace(line, beta1=line.beta1 * (1.0 + 1e-12))
    nudged_report = verify_fit(stats, nudged, config)

    print(f"trial {trial}: n={n:3d} gamma={gamma:.3f}")
    print(f"  root-solver slope    {report.quartic_slope!r}")
    print(f"  checked between      {report.bracket[0]!r} and {report.bracket[1]!r}")
    print(f"  exact derivative     {report.gradient_max_rel_err:.3e} of its terms")
    print(f"  certified: {'yes' if report.certified else 'NO'}")
    print(f"  nudged slope certified: {'yes' if nudged_report.certified else 'no'}")
    print()
