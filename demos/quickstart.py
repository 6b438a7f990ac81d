# Minimal tour: fit a line when both coordinates carry error.
#
# The weight gamma decides which direction of error matters. gamma=1 only
# penalizes vertical misses (classic least squares), gamma=0 only horizontal
# ones, and anything in between blends the two.

from dualfit import Dataset, FitConfig, compute_stats, fit, inverse_predict, predict, slope_bounds

# four points, deliberately tiny so every number is easy to eyeball
data = Dataset.from_points([(0, 0), (0, 0), (1, 0), (1, 1)])

for gamma in (1.0, 0.9, 0.5, 0.0):
    line = fit(data, FitConfig(gamma=gamma))
    print(
        f"gamma={gamma:4.2f}  slope={line.beta1:+.6f}  "
        f"intercept={line.beta0:+.6f}  sse={line.sse:.6f}"
    )

# the fitted line always passes through the centroid of the data,
# so predictions pivot around (x_bar, y_bar) as gamma changes
line = fit(data, FitConfig(gamma=0.9))
print()
print("at x=0.5 the line predicts y =", predict(line, 0.5))
print("y=0.25 is reached at      x =", inverse_predict(line, 0.25))

# the slope is the one root of the slope equation between the two endpoint
# slopes; the residual says how close to zero the equation is at that slope
lower, upper = slope_bounds(compute_stats(data))
print()
print(f"slope {line.beta1:.6f} lies in [{lower:.6f}, {upper:.6f}]")
print("slope equation residual:", line.selected_root_residual)
