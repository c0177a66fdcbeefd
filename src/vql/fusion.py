"""Dual-branch integration: fusion, mask extraction, and temporal
localization over per-frame confidences.

The two branches meet in one logit per pixel: the appearance logit, the
channel mean of the segmentation output conv2d(F, sigma), plus the
rectified tracking score max(0, H), squashed by a logistic into a
probability map. The pipeline gets the appearance logit from the
channel-mean kernel, so the 3-channel output is never built. The mask is
that map thresholded at 0.5 and boxed by its largest 4-connected
component. No label map is built for it: the component sizes are sums of
the lengths of the mask's row runs (``core._component_runs``) per
component, and the box is the extent of the largest component's runs. The
per-frame confidence ``s_conf`` is the mean probability inside the mask,
computed here once: the appearance bank admits on it and the temporal
localization reads it. The answer interval is the last run
(``core.last_run``) of the confidences, median-filtered over MEDIAN_WINDOW
frames, at or above TEMPORAL_RATIO times their maximum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import DimensionError, ParameterError, _component_runs, last_run, median_filter_1d

__all__ = [
    "SegmentationResult",
    "TemporalInterval",
    "fuse",
    "extract_result",
    "temporal_localize",
]

MASK_THRESHOLD = 0.5
# temporal localization: median filter width and the fraction of the peak a frame must reach
MEDIAN_WINDOW = 5
TEMPORAL_RATIO = 0.8


@dataclass
class SegmentationResult:
    """Per-frame output: probability map, mask, bbox, and confidence."""

    prob: np.ndarray
    mask: np.ndarray
    bbox: Optional[tuple[int, int, int, int]]
    s_conf: float


@dataclass(frozen=True)
class TemporalInterval:
    start_frame: int
    end_frame: int

    def __post_init__(self) -> None:
        if self.start_frame > self.end_frame:
            raise ParameterError(f"interval must satisfy start <= end, got {self}")


def fuse(appearance: np.ndarray, score: np.ndarray) -> np.ndarray:
    """Probability map sigmoid(appearance + max(0, score)).

    ``appearance`` is the (H, W) appearance logit and ``score`` the (H, W)
    tracking response; the output lies strictly inside (0, 1) wherever the
    logit is finite.
    """
    appearance = np.asarray(appearance, dtype=np.float64)
    score = np.asarray(score, dtype=np.float64)
    if appearance.ndim != 2 or appearance.shape != score.shape:
        raise DimensionError(f"cannot fuse appearance {appearance.shape} with score {score.shape}")
    logits = appearance + np.maximum(0.0, score)
    return 1.0 / (1.0 + np.exp(-logits))


def extract_result(prob: np.ndarray) -> SegmentationResult:
    """Threshold at 0.5, box the largest 4-connected component.

    The confidence is the mean probability over the whole mask; size ties
    between components go to the one whose first pixel comes first in
    row-major order.
    An empty mask yields no box and zero confidence.
    """
    prob = np.asarray(prob, dtype=np.float64)
    if prob.ndim != 2:
        raise DimensionError(f"probability map must be (H, W), got {prob.shape}")
    fg = prob >= MASK_THRESHOLD
    mask = fg.astype(np.uint8)
    if not fg.any():
        return SegmentationResult(prob, mask, None, 0.0)
    run_start, run_length, root = _component_runs(fg)
    # roots number components by first pixel, so the first maximum wins ties
    largest = root == np.argmax(np.bincount(root, weights=run_length))
    rows, first_col = np.divmod(run_start[largest], prob.shape[1])
    last_col = first_col + run_length[largest] - 1
    # runs come in row-major order: the first and last rows are the ends
    bbox = (int(first_col.min()), int(rows[0]), int(last_col.max()), int(rows[-1]))
    return SegmentationResult(prob, mask, bbox, float(prob[fg].mean()))


def temporal_localize(s_conf_seq: Sequence[float]) -> Optional[TemporalInterval]:
    """Last run of median-filtered confidences at or above TEMPORAL_RATIO * max.

    Returns None when the filtered sequence is identically zero. The
    interval endpoints are positions within the sequence, inclusive, and
    are invariant to positive rescaling of the scores.
    """
    filtered = median_filter_1d(s_conf_seq, MEDIAN_WINDOW)
    peak = float(filtered.max())
    if peak <= 0.0:
        return None
    run = last_run(filtered >= TEMPORAL_RATIO * peak)
    return None if run is None else TemporalInterval(*run)
