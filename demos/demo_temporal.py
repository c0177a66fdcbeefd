"""From a noisy per-frame confidence curve to a temporal answer interval.

A 5-frame median filter smooths the curve, the threshold sits at 0.8x the
maximum, and the last run above it wins.
"""

import numpy as np

from vql.core import median_filter_1d
from vql.fusion import temporal_localize

rng = np.random.default_rng(3)

# two appearances of the target, the second one slightly weaker, plus noise
confidences = np.zeros(80)
confidences[12:30] = 0.85
confidences[55:72] = 0.8
confidences += rng.uniform(0, 0.06, size=80)
confidences[18] = 0.1   # a single dropout frame the median filter removes

filtered = median_filter_1d(confidences, 5)
threshold = 0.8 * filtered.max()
interval = temporal_localize(confidences)

print("frame | raw   | median | above threshold")
for t in range(0, 80, 4):
    marker = "*" if filtered[t] >= threshold else ""
    print(f"{t:5d} | {confidences[t]:.3f} | {filtered[t]:.3f}  | {marker}")
print(f"\nthreshold = 0.8 * max = {threshold:.3f}")
print(f"answer interval (last qualifying run): {interval[0]}..{interval[1]}")
