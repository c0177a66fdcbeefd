"""Watch both online solvers converge on a tiny synthetic problem.

The segmentation filter minimizes a weighted ridge objective with exact
line-search gradient steps; the tracking filter minimizes a hinge/least-
squares hybrid with Gauss-Newton step sizes. Both losses are printed per
iteration so the monotone descent is visible. Each solver reads only some
of a bank entry's maps; the others are passed as zeros.
"""

import numpy as np

from vql import amm, glm
from vql.core import BankEntry, gaussian_label


def segmentation_descent():
    rng = np.random.default_rng(0)
    zero = np.zeros((6, 6))
    # the appearance solver reads the feature and mask, not the region and label
    samples = [
        BankEntry(
            rng.uniform(-1, 1, size=(6, 6, 2)),
            (rng.random((6, 6)) > 0.5).astype(np.uint8),
            zero,
            zero,
        )
        for _ in range(3)
    ]
    kernel = np.zeros((3, 3, 2, 3))
    print("segmentation filter (steepest descent, exact step size):")
    for i in range(12):
        loss = amm.seg_loss(kernel, samples)
        print(f"  iter {i:2d}  loss {loss:.6f}")
        kernel = amm.steepest_descent(kernel, samples, 1)
    print(f"  final loss {amm.seg_loss(kernel, samples):.6f}")


def tracking_gauss_newton():
    rng = np.random.default_rng(1)
    samples = []
    for _ in range(3):
        feature = rng.uniform(-1, 1, size=(8, 8, 2))
        label = gaussian_label((3.5, 3.5), 1.3, (8, 8))
        region = (label > 0.3).astype(float)
        # the tracking solver reads the feature, region and label, not the mask
        samples.append(BankEntry(feature, np.zeros((8, 8), dtype=np.uint8), region, label))
    kernel = np.zeros((3, 3, 2, 1))
    print("tracking filter (Gauss-Newton step size, hinge residual):")
    for i in range(12):
        loss = glm.track_loss(kernel, samples)
        print(f"  iter {i:2d}  loss {loss:.6f}")
        kernel = glm.optimize_filter(kernel, samples, 1)
    print(f"  final loss {glm.track_loss(kernel, samples):.6f}")


if __name__ == "__main__":
    segmentation_descent()
    print()
    tracking_gauss_newton()
