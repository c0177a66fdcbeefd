"""Tracking branch: a discriminative correlation filter fit by Gauss-Newton.

The filter ``c`` maps features to a single-channel score map
``H = conv2d(F, c)`` regressed toward a Gaussian peak over the target. The
residual blends least squares inside the target region with a hinge outside
it, controlled by a per-pixel region map S in [0, 1]:

    r = sw * (S * H + (1 - S) * max(0, H) - G)

so S = 1 fits G exactly, S = 0 only penalizes positive background
responses, and intermediate S interpolates. sw = W_BG + (W_FG - W_BG) * G
is a center-emphasizing spatial weight derived from G. The loss is

    L(c) = 1/|O| * sum_i ||r_i||^2 + lambda^2 ||c||^2

The ridge weight lambda is the constant RIDGE, and a filter is its
read-only (K, K, C, 1) kernel array.

The solver works on the bank flattened to pixel rows: A holds the rows
of every sample's im2col patch matrix A_i (one row per pixel,
P = K*K*C columns), so all scores are one matvec h = A c, and sw, S, G
and r become vectors over the same rows. With the hinge subgradient
(zero at the kink)

    q        = sw * (S + (1 - S) * 1[h > 0])
    grad L   = 2/|O| * A^T (q * r) + 2 lambda^2 c.

Each iteration moves along -grad L with the step length that minimizes the
quadratic model built from the residual Jacobian q * A:

    g' (J'J) g = 2/|O| * ||q * (A g)||^2 + 2 lambda^2 ||g||^2
    beta       = ||g||^2 / (g' (J'J) g)

Because the hinge makes the true objective only piecewise quadratic, a
halving safeguard rejects any step that would increase the loss. An
iteration therefore costs one gradient product A^T (q * r), one curvature
product A g and one matvec per candidate step; the accepted candidate's
scores and residuals seed the next iteration.

Each read-only sample keeps its A_i, built once per kernel size, so a
refit builds no patch rows for a sample it has seen. A itself is never
stacked, which would hold every row twice: A c is written sample by
sample into one score vector, and A^T v is the sum of the samples'
A_i^T v_i.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .core import (
    DimensionError,
    EmptyInputError,
    ParameterError,
    bilinear_resize,
    gaussian_label,
    im2col,
    ladder_crop,
    readonly_copy,
)
from .amm import GRADIENT_EPS

__all__ = [
    "GlmSample",
    "spatial_weight",
    "track_residual",
    "track_loss",
    "track_gradient",
    "gauss_newton_step",
    "optimize_filter",
    "glm_make_dynamic_sample",
    "label_sigma",
    "glm_update_source",
]

MAX_STEP_HALVINGS = 8
# the ridge weight lambda of the tracking loss
RIDGE = 0.1
# residual weights sw at the label peak (G = 1) and far from it (G = 0)
W_FG = 1.0
W_BG = 0.25
# trailing frames whose peaks pick the snapshot source of a refit
SOURCE_WINDOW = 25


@dataclass(frozen=True)
class GlmSample:
    """A feature crop with its Gaussian label and target-region map (read-only copies).

    The patch rows cached on the sample always describe its feature.
    """

    feature: np.ndarray
    label: np.ndarray
    target_region: np.ndarray
    # read-only im2col patch rows keyed by kernel size
    _rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("feature", "label", "target_region"):
            object.__setattr__(self, name, readonly_copy(getattr(self, name), np.float64))
        if self.feature.ndim != 3 or not (
            self.feature.shape[:2] == self.label.shape == self.target_region.shape
        ):
            raise DimensionError(
                f"feature {self.feature.shape}, label {self.label.shape} and "
                f"region {self.target_region.shape} dims differ"
            )
        if self.target_region.min() < 0 or self.target_region.max() > 1:
            raise ParameterError("target_region values must lie in [0, 1]")


def _patch_rows(sample: GlmSample, ksz: int) -> np.ndarray:
    """The sample's read-only im2col patch rows, built once per kernel size and kept on it."""
    if ksz not in sample._rows:
        sample._rows[ksz] = im2col(sample.feature, ksz)
        sample._rows[ksz].flags.writeable = False
    return sample._rows[ksz]


def spatial_weight(label: np.ndarray) -> np.ndarray:
    """W_BG + (W_FG - W_BG) * G, so the weight peaks with the label."""
    return W_BG + (W_FG - W_BG) * np.asarray(label, dtype=np.float64)


def _blend(score, weight, region, label) -> tuple[np.ndarray, np.ndarray]:
    """Residual sw * (S * H + (1 - S) * max(0, H) - G) and its derivative q wrt H."""
    blended = region * score + (1.0 - region) * np.maximum(0.0, score)
    # subgradient 0 at H = 0
    q = weight * (region + (1.0 - region) * (score > 0.0))
    return weight * (blended - label), q


def track_residual(score: np.ndarray, sample: GlmSample) -> np.ndarray:
    """sw * (S * H + (1 - S) * max(0, H) - G), elementwise."""
    score = np.asarray(score, dtype=np.float64)
    if score.shape != sample.label.shape:
        raise DimensionError(f"score {score.shape} and label {sample.label.shape} dims differ")
    residual, _ = _blend(score, spatial_weight(sample.label), sample.target_region, sample.label)
    return residual


class _Problem:
    """The bank flattened to pixel rows for one kernel shape.

    Holds the samples' patch rows A_i and the per-row sw, S and G of the
    whole bank; every method works on a flat kernel c of length P.
    """

    def __init__(self, samples: Sequence[GlmSample], kernel_shape: Sequence[int]):
        if not samples:
            raise EmptyInputError("the tracking bank has no samples")
        ksz, _, c_in, c_out = kernel_shape
        if c_out != 1:
            raise DimensionError(f"tracking kernel must have one output channel, got {tuple(kernel_shape)}")
        for sample in samples:
            if sample.feature.shape[2] != c_in:
                raise DimensionError(
                    f"feature channels {sample.feature.shape[2]} do not match kernel shape {tuple(kernel_shape)}"
                )
        self.rows = [_patch_rows(s, ksz) for s in samples]
        self.bounds = np.cumsum([0] + [s.label.size for s in samples])
        self.label = np.concatenate([s.label.ravel() for s in samples])
        self.region = np.concatenate([s.target_region.ravel() for s in samples])
        self.weight = spatial_weight(self.label)
        self.scale = 1.0 / len(samples)

    def evaluate(self, c: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """Loss, residual r and derivative map q at the flat kernel c."""
        r, q = _blend(self._times(c), self.weight, self.region, self.label)
        return self.scale * float(r @ r) + RIDGE**2 * float(c @ c), r, q

    def _times(self, c: np.ndarray) -> np.ndarray:
        """A c, one sample's rows at a time."""
        out = np.empty(self.bounds[-1])
        for rows, lo, hi in zip(self.rows, self.bounds, self.bounds[1:]):
            np.matmul(rows, c, out=out[lo:hi])
        return out

    def gradient(self, c: np.ndarray, r: np.ndarray, q: np.ndarray) -> np.ndarray:
        v = q * r
        a_t_v = np.zeros(c.size)
        for rows, lo, hi in zip(self.rows, self.bounds, self.bounds[1:]):
            a_t_v += rows.T @ v[lo:hi]
        return 2.0 * self.scale * a_t_v + 2.0 * RIDGE**2 * c

    def step_length(self, g: np.ndarray, q: np.ndarray) -> float:
        """beta = ||g||^2 / (g' (J'J) g) with J'J frozen at the derivative map q."""
        g_norm2 = float(g @ g)
        if g_norm2 == 0.0:
            raise ParameterError("step is undefined for a zero gradient (already converged)")
        qag = q * self._times(g)
        curvature = 2.0 * self.scale * float(qag @ qag) + 2.0 * RIDGE**2 * g_norm2
        if curvature <= 0.0:
            raise ParameterError(f"curvature along the gradient is not positive: {curvature}")
        return g_norm2 / curvature


def track_loss(kernel: np.ndarray, mem: Sequence[GlmSample]) -> float:
    """Mean squared residual over the bank plus lambda^2 ||c||^2."""
    loss, _, _ = _Problem(mem, kernel.shape).evaluate(kernel.ravel())
    return loss


def track_gradient(kernel: np.ndarray, mem: Sequence[GlmSample]) -> np.ndarray:
    """Exact gradient of :func:`track_loss` wherever no score sits on the hinge kink."""
    problem = _Problem(mem, kernel.shape)
    c = kernel.ravel()
    _, r, q = problem.evaluate(c)
    return problem.gradient(c, r, q).reshape(kernel.shape)


def gauss_newton_step(kernel: np.ndarray, mem: Sequence[GlmSample]) -> tuple[np.ndarray, float]:
    """Gradient direction and the step length minimizing the frozen quadratic model."""
    problem = _Problem(mem, kernel.shape)
    c = kernel.ravel()
    _, r, q = problem.evaluate(c)
    g = problem.gradient(c, r, q)
    return g.reshape(kernel.shape), problem.step_length(g, q)


def optimize_filter(kernel: np.ndarray, mem: Sequence[GlmSample], n_iter: int) -> np.ndarray:
    """Iterate safeguarded Gauss-Newton steps from ``kernel``; the loss never increases.

    The closed-form step is exact while the hinge activation pattern is
    unchanged; when a step crosses the kink and would raise the true loss,
    it is halved up to MAX_STEP_HALVINGS times and dropped if that fails.
    Returns a new read-only kernel, never a view of the start kernel.
    """
    if n_iter < 0:
        raise ParameterError(f"n_iter must be >= 0, got {n_iter}")
    problem = _Problem(mem, kernel.shape)
    c = kernel.ravel()
    loss, r, q = problem.evaluate(c)
    for _ in range(n_iter):
        g = problem.gradient(c, r, q)
        if float(np.sqrt(g @ g)) < GRADIENT_EPS:
            break
        beta = problem.step_length(g, q)
        for _halving in range(MAX_STEP_HALVINGS + 1):
            candidate = c - beta * g
            candidate_loss, candidate_r, candidate_q = problem.evaluate(candidate)
            if candidate_loss <= loss:
                c, loss, r, q = candidate, candidate_loss, candidate_r, candidate_q
                break
            beta *= 0.5
        else:
            break
    return readonly_copy(c.reshape(kernel.shape), np.float64)


def label_sigma(side: float) -> float:
    """Gaussian label width for a square crop: one sixth of its side."""
    return side / 6.0


def glm_make_dynamic_sample(
    frame_feature: np.ndarray,
    bbox: Sequence[int],
    prob_mask: np.ndarray,
    resolution: int,
) -> GlmSample:
    """Build a snapshot from a detection: 1.5x-bbox crop, Gaussian label, region map.

    The label is synthesized on the crop grid, centered there with
    sigma = side / 6, then resampled to the canonical resolution together
    with the feature crop and the cropped probability map.
    """
    frame_feature = np.asarray(frame_feature, dtype=np.float64)
    prob_mask = np.asarray(prob_mask, dtype=np.float64)
    if frame_feature.shape[:2] != prob_mask.shape:
        raise DimensionError(
            f"feature {frame_feature.shape[:2]} and probability map {prob_mask.shape} dims differ"
        )
    x_min, y_min, x_max, y_max = bbox
    if x_max < x_min or y_max < y_min:
        raise EmptyInputError(f"degenerate bounding box {tuple(bbox)}")
    longest = max(x_max - x_min + 1, y_max - y_min + 1)
    center = ((y_min + y_max) / 2.0, (x_min + x_max) / 2.0)
    side, crop_f, crop_p = ladder_crop(frame_feature, prob_mask, center, longest)
    feature = bilinear_resize(crop_f, (resolution, resolution))
    region = np.clip(bilinear_resize(crop_p, (resolution, resolution)), 0.0, 1.0)
    return GlmSample(feature, _resampled_label(side, resolution), region)


@lru_cache(maxsize=None)
def _resampled_label(side: int, resolution: int) -> np.ndarray:
    """The label of a side x side crop, resampled to the resolution (read-only), built once per pair."""
    crop_center = ((side - 1) / 2.0, (side - 1) / 2.0)
    label = gaussian_label(crop_center, label_sigma(side), (side, side))
    return readonly_copy(bilinear_resize(label, (resolution, resolution)))


def glm_update_source(response_history: Sequence[float]) -> str:
    """Pick the snapshot driving the next filter refresh.

    A frame counts as a high response when its peak reaches half of the
    running maximum peak seen so far. If more than 60% of the last
    SOURCE_WINDOW frames are high the dynamic snapshots are trusted, otherwise
    the filter re-anchors on the static query snapshot.
    """
    history = np.asarray(response_history, dtype=np.float64)
    if history.size == 0:
        raise EmptyInputError("response history must be non-empty")
    running_max = np.maximum.accumulate(history)
    high = history >= 0.5 * running_max
    recent = high[-SOURCE_WINDOW:]
    return "dynamic" if recent.mean() > 0.6 else "static"
