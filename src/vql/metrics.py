"""Desk-scale localization metrics.

These mirror the usual video-query metric names with self-contained
single-query definitions (one predicted interval per query, so average
precision degenerates to accuracy):

- tAP25:    1.0 when the temporal IoU of predicted and annotated intervals
            reaches 0.25, else 0.0
- stAP25:   the same gate on the spatio-temporal tube IoU, the mean
            per-frame box IoU over the union of the two intervals with
            zero credit outside their overlap
- recovery: percent of annotated-interval frames whose predicted box has
            IoU >= 0.5
- success:  100 when any annotated-interval frame reaches box IoU >= 0.05

3D reports compare per-frame displacement vectors against ground truth:
mean L2, mean angle, success (L2 below L2_GATE and angle below ANGLE_GATE)
over interval frames,
success* restricted to frames with a camera pose, and QwP, the percent of
interval frames that have a pose.

A track's t-th result is frame t, and a track without one result per
scenario frame, or on another canvas, is a DimensionError; ``TrackOutput``
keeps the predicted interval inside the track's frames, so it is inside
the scenario's too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import DimensionError, EmptyInputError
from .geo3d import align_sim3, relative_displacement
from .pipeline import TrackOutput
from .scenario import Scenario

__all__ = [
    "MetricsReport2D",
    "MetricsReport3D",
    "box_iou",
    "temporal_iou",
    "eval_2d",
    "eval_3d",
]

# a frame's 3D displacement succeeds when its error is below both gates
L2_GATE = 6.0
ANGLE_GATE = np.pi / 6.0


@dataclass(frozen=True)
class MetricsReport2D:
    t_ap25: float
    st_ap25: float
    recovery_pct: float
    success_pct: float


@dataclass(frozen=True)
class MetricsReport3D:
    success_pct: float
    success_star_pct: float
    l2: Optional[float]
    angle: Optional[float]
    qwp_pct: float


def box_iou(a: Sequence[int], b: Sequence[int]) -> float:
    """IoU of two inclusive pixel boxes (x_min, y_min, x_max, y_max)."""
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    iw = min(ax1, bx1) - max(ax0, bx0) + 1
    ih = min(ay1, by1) - max(ay0, by0) + 1
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    area_a = (ax1 - ax0 + 1) * (ay1 - ay0 + 1)
    area_b = (bx1 - bx0 + 1) * (by1 - by0 + 1)
    return inter / float(area_a + area_b - inter)


def temporal_iou(a: Sequence[int], b: Sequence[int]) -> float:
    """IoU of two inclusive frame intervals, counted in frames."""
    inter = min(a[1], b[1]) - max(a[0], b[0]) + 1
    if inter <= 0:
        return 0.0
    union = max(a[1], b[1]) - min(a[0], b[0]) + 1
    return inter / float(union)


def _check_frames(pred: TrackOutput, scenario: Scenario) -> None:
    """Raises DimensionError unless the track has one result per scenario frame, on the scenario's canvas."""
    if len(pred.results) != len(scenario.frames):
        raise DimensionError(f"track has {len(pred.results)} results for the scenario's {len(scenario.frames)} frames")
    canvas, track_canvas = scenario.query.mask.shape, pred.results[0].prob.shape
    if track_canvas != canvas:
        raise DimensionError(f"track's (H, W) {track_canvas} is not the scenario's {canvas}")


def eval_2d(pred: TrackOutput, scenario: Scenario) -> MetricsReport2D:
    """Score a predicted track against the scenario's annotations.

    A track without a temporal interval scores zero across the board, and a
    scenario without one (every ground-truth mask empty) is an EmptyInputError.
    """
    gt_interval = scenario.gt_interval
    if gt_interval is None:
        raise EmptyInputError("scenario carries no ground-truth interval")
    _check_frames(pred, scenario)
    pred_interval = pred.interval
    if pred_interval is None:
        return MetricsReport2D(0.0, 0.0, 0.0, 0.0)

    t_iou = temporal_iou(pred_interval, gt_interval)
    t_ap25 = 1.0 if t_iou >= 0.25 else 0.0

    # each frame's box IoU, 0 where either box is missing
    ious = [
        0.0 if f.gt_bbox is None or r.bbox is None else box_iou(r.bbox, f.gt_bbox)
        for r, f in zip(pred.results, scenario.frames)
    ]
    union_lo = min(pred_interval[0], gt_interval[0])
    union_hi = max(pred_interval[1], gt_interval[1])
    overlap_lo = max(pred_interval[0], gt_interval[0])
    overlap_hi = min(pred_interval[1], gt_interval[1])
    tube = [ious[t] if overlap_lo <= t <= overlap_hi else 0.0 for t in range(union_lo, union_hi + 1)]
    tube_iou = float(np.mean(tube))
    st_ap25 = 1.0 if tube_iou >= 0.25 else 0.0

    gt_ious = ious[gt_interval[0] : gt_interval[1] + 1]
    recovery_pct = 100.0 * float(np.mean([v >= 0.5 for v in gt_ious]))
    success_pct = 100.0 if any(v >= 0.05 for v in gt_ious) else 0.0
    return MetricsReport2D(t_ap25, st_ap25, recovery_pct, success_pct)


def eval_3d(pred: TrackOutput, scenario: Scenario) -> MetricsReport3D:
    """Score per-frame 3D displacements against the scenario's geometry.

    Ground-truth displacements re-express the annotated world point in each
    camera through the alignment recovered from the scenario's point pairs.
    A frame succeeds when its L2 error is below L2_GATE and its angle below
    ANGLE_GATE (radians). A scenario without a ground-truth point and
    alignment is an EmptyInputError.
    """
    # Scenario keeps the two alignment point sets together
    if scenario.gt_point is None or scenario.alignment_src is None:
        raise EmptyInputError("scenario carries no 3D ground truth")
    _check_frames(pred, scenario)
    if pred.interval is None:
        return MetricsReport3D(0.0, 0.0, None, None, 0.0)
    t_eta = align_sim3(scenario.alignment_src, scenario.alignment_dst)
    # the annotated point taken back to the reconstruction frame, once for every camera
    recon_point = t_eta.inverse().apply(scenario.gt_point)
    cameras = scenario.cameras
    interval = range(pred.interval[0], pred.interval[1] + 1)
    with_pose = [t for t in interval if cameras[t] is not None]
    qwp_pct = 100.0 * len(with_pose) / len(interval)

    l2_values = []
    angle_values = []
    hits = {}
    for t in with_pose:
        if t not in pred.displacements:
            continue
        gt_delta = relative_displacement(cameras[t], recon_point)
        delta = pred.displacements[t]
        l2 = float(np.linalg.norm(delta - gt_delta))
        angle = _vector_angle(delta, gt_delta)
        l2_values.append(l2)
        angle_values.append(angle)
        hits[t] = l2 < L2_GATE and angle < ANGLE_GATE

    success_pct = 100.0 * float(np.mean([hits.get(t, False) for t in interval]))
    success_star_pct = 100.0 * float(np.mean([hits.get(t, False) for t in with_pose])) if with_pose else 0.0
    l2_mean = float(np.mean(l2_values)) if l2_values else None
    angle_mean = float(np.mean(angle_values)) if angle_values else None
    return MetricsReport3D(success_pct, success_star_pct, l2_mean, angle_mean, qwp_pct)


def _vector_angle(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < 1e-12 or nb < 1e-12:
        return 0.0 if na < 1e-12 and nb < 1e-12 else np.pi / 2.0
    cosine = float(np.clip(a @ b / (na * nb), -1.0, 1.0))
    return float(np.arccos(cosine))
