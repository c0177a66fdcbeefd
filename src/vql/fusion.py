"""Dual-branch integration: fusion, mask extraction, and temporal
localization over per-frame confidences.

The two branches meet in one logit per pixel: the appearance logit, the
channel mean of the segmentation output conv2d(F, sigma), plus the
rectified tracking score max(0, H), squashed by a logistic into a
probability map. The pipeline gets the appearance logit from the
channel-mean kernel, so the 3-channel output is never built. A frame's
``SegmentationResult`` is a function of that map: its mask is the map
thresholded at 0.5 and its confidence ``s_conf`` the mean probability inside
the mask (0 when empty), read by the bank admission and the localization.

A result's box is that of its mask's largest 4-connected component, worked
out from the mask the first time something reads it (the crop of a bank
entry and the 2D metrics) and then kept: a frame nothing asks a box of is
never labelled. No label map is built for it: the component sizes are sums
of the lengths of the mask's row runs (``core._component_runs``) per
component, and the box is the extent of the largest component's runs. A
result's maps are read-only, so its box cannot go stale. The answer
interval is the last run (``core.last_run``) of the confidences,
median-filtered over MEDIAN_WINDOW frames, at or above TEMPORAL_RATIO times
their maximum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .core import ArrayValue, DimensionError, ParameterError, _component_runs, as_index, frozen_array, frozen_in_place
from .core import last_run, median_filter_1d

__all__ = [
    "SegmentationResult",
    "TemporalInterval",
    "fuse",
    "temporal_localize",
]

MASK_THRESHOLD = 0.5
# temporal localization: median filter width and the fraction of the peak a frame must reach
MEDIAN_WINDOW = 5
TEMPORAL_RATIO = 0.8


@dataclass(frozen=True, eq=False)
class SegmentationResult(ArrayValue):
    """Per-frame output, a function of its one argument, the (H, W) probability map: the 0/1 mask of
    the map at or above MASK_THRESHOLD and the confidence, the mean over the mask (0.0 when empty).
    Both maps are read-only (``core.frozen_array``); the box follows from the mask when first read."""

    prob: np.ndarray
    mask: np.ndarray = field(init=False)
    s_conf: float = field(init=False)

    def __post_init__(self) -> None:
        prob = frozen_array(self.prob, np.float64)
        if prob.ndim != 2:
            raise DimensionError(f"probability map must be (H, W), got {prob.shape}")
        fg = frozen_in_place(prob >= MASK_THRESHOLD)
        count = np.count_nonzero(fg)
        object.__setattr__(self, "prob", prob)
        # the mask views the read-only foreground as 0/1 bytes, not a copy; sum / count has the bits of .mean()
        object.__setattr__(self, "mask", fg.view(np.uint8))
        object.__setattr__(self, "s_conf", float(prob[fg].sum() / count) if count else 0.0)

    @cached_property
    def bbox(self) -> Optional[tuple[int, int, int, int]]:
        """(x_min, y_min, x_max, y_max), inclusive, of the mask's largest 4-connected component, or
        None for an empty mask; size ties go to the component whose first pixel comes first in
        row-major order."""
        fg = self.mask != 0
        if not fg.any():
            return None
        run_start, run_length, root = _component_runs(fg)
        # roots number components by first pixel, so the first maximum wins ties
        largest = root == np.argmax(np.bincount(root, weights=run_length))
        rows, first_col = np.divmod(run_start[largest], fg.shape[1])
        last_col = first_col + run_length[largest] - 1
        # runs come in row-major order: the first and last rows are the ends
        return (int(first_col.min()), int(rows[0]), int(last_col.max()), int(rows[-1]))


@dataclass(frozen=True)
class TemporalInterval:
    """An inclusive run of frames; its ends are stored as Python ints, and a bool or a float is not one."""

    start_frame: int
    end_frame: int

    def __post_init__(self) -> None:
        for name in ("start_frame", "end_frame"):
            object.__setattr__(self, name, as_index(getattr(self, name), name))
        if self.start_frame > self.end_frame:
            raise ParameterError(f"interval must satisfy start <= end, got {self}")


def fuse(appearance: np.ndarray, score: np.ndarray) -> np.ndarray:
    """Probability map sigmoid(appearance + max(0, score)).

    ``appearance`` is the (H, W) appearance logit and ``score`` the (H, W)
    tracking response. The output lies in [0, 1], and both ends are reached
    at finite logits: it rounds to exactly 1.0 above a logit of about 36.7,
    where exp(-logit) is below half an ulp of 1, and reads exactly 0.0 below
    about -709.8, where exp overflows.
    """
    appearance = np.asarray(appearance, dtype=np.float64)
    score = np.asarray(score, dtype=np.float64)
    if appearance.ndim != 2 or appearance.shape != score.shape:
        raise DimensionError(f"cannot fuse appearance {appearance.shape} with score {score.shape}")
    # one buffer, fresh from np.maximum, holds the logits and then the map: the bits of
    # 1 / (1 + exp(-(appearance + max(0, score)))) without its temporaries
    out = np.maximum(0.0, score)
    out += appearance
    np.negative(out, out=out)
    # a logit below about -709 overflows exp to inf, and the map reads exactly 0 there
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


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
