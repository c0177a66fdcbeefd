"""Appearance branch: bank entries, their admission gate and a steepest-descent ridge solver.

A retrieval enters the bank when it has a box and its confidence ``s_conf``
(the mean probability inside its mask, from ``fusion.extract_result``)
clears the admit threshold. Its entry is the feature crop and mask of the
one window ``pipeline.crop_entries`` cuts around the box for both banks.

The segmentation model is a single convolution ``conv2d(F, sigma)`` mapping
C feature channels to D label channels. Its weights are fit online against
every bank entry by minimizing the weighted squared error

    L(sigma) = 1/2 * sum_i ||W_i (.) (conv2d(F_i, sigma) - E_i)||^2
               + delta/2 * ||sigma||^2

where E_i is the multi-channel encoding of sample i's mask and W_i a
per-pixel weight map emphasizing the foreground: BACKGROUND_WEIGHT plus a
step up to FOREGROUND_WEIGHT on the mask, blurred by a Gaussian of width
BLUR_SIGMA (see :func:`reweight`). The ridge weight delta is the constant
RIDGE, and a filter is its read-only (K, K, C, 3) kernel array.

Written with the entry's im2col patch matrix A_i (one row per pixel, one
column per kernel tap and input channel, P = K*K*C columns), the
convolution is A_i sigma with sigma viewed as a (P, D) matrix. The weights
are shared by all D label channels, so each entry enters the objective only
through three statistics

    M_i = A_i^T W_i^2 A_i   (P x P)
    b_i = A_i^T W_i^2 E_i   (P x D)
    c_i = ||W_i (.) E_i||^2

and with M, b, c their sums over the bank

    L(sigma) = 1/2 * (<sigma, M sigma> - 2 <sigma, b> + c) + delta/2 * ||sigma||^2.

The statistics are computed once per entry and kept on it (entries are
read-only, so they cannot go stale); a refit sums them and then works in
P x D space only. The objective is a strictly convex quadratic, so each
gradient step uses the closed-form optimal step length:

    g     = M sigma - b + delta * sigma
    alpha = ||g||^2 / (<g, M g> + delta * ||g||^2)
    sigma <- sigma - alpha * g

Exact line search makes the loss non-increasing at every iteration and
convergence to the unique ridge optimum a matter of iteration count only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    DimensionError,
    EmptyInputError,
    ParameterError,
    gaussian_label,
    im2col,
    readonly_copy,
    _check_kernel,
    _zero_border,
)
from .fusion import SegmentationResult

__all__ = [
    "AmmSample",
    "encode_pseudo_label",
    "reweight",
    "seg_loss",
    "seg_gradient",
    "steepest_step_size",
    "steepest_descent",
    "amm_admit",
]

GRADIENT_EPS = 1e-12
# the ridge weight delta of the segmentation loss
RIDGE = 0.01
# loss weights W_i: on the target, off it, and the width of the step between
FOREGROUND_WEIGHT = 1.0
BACKGROUND_WEIGHT = 0.25
BLUR_SIGMA = 1.0
# the confidence a retrieval needs to enter the banks
ADMIT_THRESHOLD = 0.6


@dataclass(frozen=True)
class AmmSample:
    """One bank entry: a finite feature crop and its binary (0/1) mask.

    The arrays are read-only copies, so the solver statistics cached on the
    entry always describe its contents.
    """

    feature: np.ndarray
    mask: np.ndarray
    # solver statistics (M_i, b_i, c_i) keyed by kernel size
    _stats: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "feature", readonly_copy(self.feature, np.float64))
        object.__setattr__(self, "mask", readonly_copy(self.mask))
        if self.feature.ndim != 3 or self.feature.shape[:2] != self.mask.shape:
            raise DimensionError(
                f"feature {self.feature.shape} and mask {self.mask.shape} dims differ"
            )
        if not np.isfinite(self.feature).all():
            raise ParameterError("entry features must be finite")
        if not ((self.mask == 0) | (self.mask == 1)).all():
            raise ParameterError("entry mask values must be 0 or 1")


def encode_pseudo_label(mask: np.ndarray) -> np.ndarray:
    """Encode a binary mask as a 3-channel regression target.

    channel 0: the mask itself
    channel 1: boundary pixels (foreground with a background 4-neighbor;
               pixels beyond the image edge count as background)
    channel 2: exp(-d^2 / (2 r^2)) from the mask centroid with
               r = max(1, sqrt(area) / 2), zero on background
    """
    mask = np.asarray(mask)
    h, w = mask.shape
    fg = mask != 0
    out = np.zeros((h, w, 3))
    out[:, :, 0] = fg
    if not fg.any():
        return out
    padded = _zero_border(fg, 1)
    interior = (
        padded[:-2, 1:-1] & padded[2:, 1:-1] & padded[1:-1, :-2] & padded[1:-1, 2:]
    )
    out[:, :, 1] = fg & ~interior
    rows, cols = np.nonzero(fg)
    cr, cc = rows.mean(), cols.mean()
    radius = max(1.0, np.sqrt(float(rows.size)) / 2.0)
    out[:, :, 2] = gaussian_label((cr, cc), radius, (h, w)) * fg
    return out


def _gaussian_blur(img: np.ndarray) -> np.ndarray:
    # separable zero-padded blur of width BLUR_SIGMA; normalized taps keep values in [0, 1]
    r = max(1, int(np.ceil(3.0 * BLUR_SIGMA)))
    xs = np.arange(-r, r + 1, dtype=np.float64)
    k = np.exp(-(xs**2) / (2.0 * BLUR_SIGMA**2))
    k = k / k.sum()
    h, w = img.shape
    padded = _zero_border(np.asarray(img, dtype=np.float64), r)
    # the vertical pass keeps the border columns zero for the horizontal one
    tmp = np.zeros((h, w + 2 * r))
    for i, tap in enumerate(k):
        tmp += tap * padded[i : i + h, :]
    out = np.zeros((h, w))
    for i, tap in enumerate(k):
        out += tap * tmp[:, i : i + w]
    return out


def reweight(mask: np.ndarray) -> np.ndarray:
    """Loss weight map: background level plus a blurred step up to the target."""
    mask = np.asarray(mask, dtype=np.float64)
    return BACKGROUND_WEIGHT + (FOREGROUND_WEIGHT - BACKGROUND_WEIGHT) * _gaussian_blur(mask)


def _statistics(sample: AmmSample, ksz: int) -> tuple[np.ndarray, np.ndarray, float]:
    """(M_i, b_i, c_i) of one entry, computed once per kernel size and kept on it."""
    if ksz not in sample._stats:
        weights = reweight(sample.mask).reshape(-1, 1)
        patches = weights * im2col(sample.feature, ksz)
        target = weights * encode_pseudo_label(sample.mask).reshape(weights.size, -1)
        sample._stats[ksz] = (
            readonly_copy(patches.T @ patches),
            readonly_copy(patches.T @ target),
            float(np.sum(target**2)),
        )
    return sample._stats[ksz]


def _bank_statistics(mem: Sequence[AmmSample], kernel_shape: Sequence[int]) -> tuple[np.ndarray, np.ndarray, float]:
    """(M, b, c): the entries' statistics summed for a kernel of the given shape."""
    _check_kernel(kernel_shape)
    if not mem:
        raise EmptyInputError("the appearance bank has no entries")
    ksz, _, c_in, c_out = kernel_shape
    if c_out != 3:
        raise DimensionError(f"kernel shape {tuple(kernel_shape)} does not map to the 3 label channels")
    gram = np.zeros((ksz * ksz * c_in,) * 2)
    cross = np.zeros((ksz * ksz * c_in, c_out))
    energy = 0.0
    for sample in mem:
        if sample.feature.shape[2] != c_in:
            raise DimensionError(
                f"entry with {sample.feature.shape[2]} channels does not fit kernel shape {tuple(kernel_shape)}"
            )
        m_i, b_i, c_i = _statistics(sample, ksz)
        gram += m_i
        cross += b_i
        energy += c_i
    return gram, cross, energy


def _exact_step(g: np.ndarray, gram: np.ndarray) -> float:
    g_norm2 = float(np.sum(g**2))
    if g_norm2 == 0.0:
        raise ParameterError("step size is undefined for a zero gradient (already converged)")
    return g_norm2 / (float(np.sum(g * (gram @ g))) + RIDGE * g_norm2)


def seg_loss(kernel: np.ndarray, mem: Sequence[AmmSample]) -> float:
    """Weighted half-squared-error over the bank entries plus the ridge term."""
    gram, cross, energy = _bank_statistics(mem, kernel.shape)
    sigma = kernel.reshape(cross.shape)
    fit = float(np.sum(sigma * (gram @ sigma))) - 2.0 * float(np.sum(sigma * cross)) + energy
    return 0.5 * fit + 0.5 * RIDGE * float(np.sum(sigma**2))


def seg_gradient(kernel: np.ndarray, mem: Sequence[AmmSample]) -> np.ndarray:
    """Exact gradient of :func:`seg_loss` with respect to the kernel."""
    gram, cross, _ = _bank_statistics(mem, kernel.shape)
    sigma = kernel.reshape(cross.shape)
    return (gram @ sigma - cross + RIDGE * sigma).reshape(kernel.shape)


def steepest_step_size(g: np.ndarray, mem: Sequence[AmmSample]) -> float:
    """Closed-form minimizer of the loss along the negative gradient direction."""
    g = np.asarray(g, dtype=np.float64)
    gram, _, _ = _bank_statistics(mem, g.shape)
    return _exact_step(g.reshape(gram.shape[0], g.shape[3]), gram)


def steepest_descent(kernel: np.ndarray, mem: Sequence[AmmSample], n_iter: int) -> np.ndarray:
    """Run n_iter exact-line-search gradient steps from ``kernel``; stops early once converged.

    Returns a new read-only kernel, never a view of the start kernel.
    """
    if n_iter < 0:
        raise ParameterError(f"n_iter must be >= 0, got {n_iter}")
    gram, cross, _ = _bank_statistics(mem, kernel.shape)
    sigma = kernel.reshape(cross.shape)
    for _ in range(n_iter):
        g = gram @ sigma - cross + RIDGE * sigma
        if float(np.sqrt(np.sum(g**2))) < GRADIENT_EPS:
            break
        sigma = sigma - _exact_step(g, gram) * g
    return readonly_copy(sigma.reshape(kernel.shape), np.float64)


def amm_admit(result: SegmentationResult) -> bool:
    """Admit a retrieval iff it has a box and its confidence reaches ADMIT_THRESHOLD."""
    return result.bbox is not None and result.s_conf >= ADMIT_THRESHOLD
