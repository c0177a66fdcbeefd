"""Appearance branch: the admission gate and a steepest-descent ridge solver over bank entries.

A retrieval enters the banks when its confidence ``s_conf`` (the mean
probability inside its mask, which ``fusion.SegmentationResult`` works out
from its map) clears the admit threshold; a retrieval that clears it has a
non-empty mask, and so a box. Its entry is the ``core.BankEntry`` of the
one window ``pipeline.crop_entry`` cuts around the box, which both banks
share; this solver reads its feature crop and mask.

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

The statistics are formed once per entry from the patch rows it keeps for
both solvers (``core.BankEntry.rows``) and kept on it too (entries are
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

from typing import Sequence

import numpy as np

from .core import (
    GRADIENT_EPS,
    BankEntry,
    ParameterError,
    frozen_array,
    frozen_in_place,
    gaussian_label,
    _check_bank,
    _zero_border,
)
from .fusion import SegmentationResult

__all__ = [
    "encode_pseudo_label",
    "reweight",
    "seg_loss",
    "seg_gradient",
    "steepest_step_size",
    "steepest_descent",
    "amm_admit",
]

# the ridge weight delta of the segmentation loss
RIDGE = 0.01
# loss weights W_i: on the target, off it, and the width of the step between
FOREGROUND_WEIGHT = 1.0
BACKGROUND_WEIGHT = 0.25
BLUR_SIGMA = 1.0
# the confidence a retrieval needs to enter the banks
ADMIT_THRESHOLD = 0.6


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


def _statistics(entry: BankEntry, ksz: int) -> tuple[np.ndarray, np.ndarray, float]:
    """(M_i, b_i, c_i) of one entry, formed from its patch rows once per kernel size and kept on it."""
    if ksz not in entry._stats:
        weights = reweight(entry.mask).reshape(-1, 1)
        patches = weights * entry.rows(ksz)
        target = weights * encode_pseudo_label(entry.mask).reshape(weights.size, -1)
        entry._stats[ksz] = (
            frozen_in_place(patches.T @ patches),
            frozen_in_place(patches.T @ target),
            float(np.sum(target**2)),
        )
    return entry._stats[ksz]


def _bank_statistics(mem: Sequence[BankEntry], kernel_shape: Sequence[int]) -> tuple[np.ndarray, np.ndarray, float]:
    """(M, b, c): the entries' statistics summed for a kernel of the given shape."""
    _check_bank(mem, kernel_shape, 3)
    ksz, _, c_in, c_out = kernel_shape
    gram = np.zeros((ksz * ksz * c_in,) * 2)
    cross = np.zeros((ksz * ksz * c_in, c_out))
    energy = 0.0
    for entry in mem:
        m_i, b_i, c_i = _statistics(entry, ksz)
        gram += m_i
        cross += b_i
        energy += c_i
    return gram, cross, energy


def _gradient(gram: np.ndarray, cross: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """The loss gradient at the flattened kernel ``sigma``: M sigma - b + delta sigma."""
    return gram @ sigma - cross + RIDGE * sigma


def _exact_step(g: np.ndarray, gram: np.ndarray, g_norm2: float) -> float:
    """The exact line-search step along -g, given ||g||^2."""
    if g_norm2 == 0.0:
        raise ParameterError("step size is undefined for a zero gradient (already converged)")
    return g_norm2 / (float(np.sum(g * (gram @ g))) + RIDGE * g_norm2)


def seg_loss(kernel: np.ndarray, mem: Sequence[BankEntry]) -> float:
    """Weighted half-squared-error over the bank entries plus the ridge term."""
    gram, cross, energy = _bank_statistics(mem, kernel.shape)
    sigma = kernel.reshape(cross.shape)
    fit = float(np.sum(sigma * (gram @ sigma))) - 2.0 * float(np.sum(sigma * cross)) + energy
    return 0.5 * fit + 0.5 * RIDGE * float(np.sum(sigma**2))


def seg_gradient(kernel: np.ndarray, mem: Sequence[BankEntry]) -> np.ndarray:
    """Exact gradient of :func:`seg_loss` with respect to the kernel."""
    gram, cross, _ = _bank_statistics(mem, kernel.shape)
    sigma = kernel.reshape(cross.shape)
    return _gradient(gram, cross, sigma).reshape(kernel.shape)


def steepest_step_size(g: np.ndarray, mem: Sequence[BankEntry]) -> float:
    """Closed-form minimizer of the loss along the negative gradient direction."""
    g = np.asarray(g, dtype=np.float64)
    gram, _, _ = _bank_statistics(mem, g.shape)
    g = g.reshape(gram.shape[0], g.shape[3])
    return _exact_step(g, gram, float(np.sum(g**2)))


def steepest_descent(kernel: np.ndarray, mem: Sequence[BankEntry], n_iter: int) -> np.ndarray:
    """Run n_iter exact-line-search gradient steps from ``kernel``; stops early once converged.

    Returns a kernel that nothing can change: a step's fresh product made read-only in place, or
    the start kernel as a ``core.frozen_array`` when no step is taken.
    """
    if n_iter < 0:
        raise ParameterError(f"n_iter must be >= 0, got {n_iter}")
    gram, cross, _ = _bank_statistics(mem, kernel.shape)
    start = sigma = kernel.reshape(cross.shape)
    for _ in range(n_iter):
        g = _gradient(gram, cross, sigma)
        g_norm2 = float(np.sum(g**2))
        if np.sqrt(g_norm2) < GRADIENT_EPS:
            break
        sigma = sigma - _exact_step(g, gram, g_norm2) * g
    if sigma is not start:
        frozen_in_place(sigma)
    return frozen_array(sigma.reshape(kernel.shape), np.float64)


def amm_admit(result: SegmentationResult) -> bool:
    """Admit a retrieval iff its confidence reaches ADMIT_THRESHOLD.

    A non-empty mask has a confidence of at least ``fusion.MASK_THRESHOLD`` and an empty one of
    0, so a confidence at or above ADMIT_THRESHOLD, which is above it, always comes with a box.
    """
    return result.s_conf >= ADMIT_THRESHOLD
