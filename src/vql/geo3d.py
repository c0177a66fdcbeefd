"""Multi-view 3D localization: similarity alignment, pinhole back-projection,
confidence fusion, and weighted aggregation.

Predicted camera geometry lives in an arbitrary reconstruction frame; a
7-DoF similarity transform fitted to matched point pairs maps it into the
benchmark frame. Each detection is lifted to 3D through the pinhole model

    world = T_eta . T_i . (depth(u, v) * K^-1 [u, v, 1])

and the per-view points are averaged with weights that multiply a semantic
confidence (mask probability statistics) with a geometric confidence
exp(-zeta * tau) from the depth-uncertainty map. The aggregate is finally
re-expressed in each camera's coordinates as a relative displacement.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ArrayValue, DimensionError, ParameterError, checked_array
from .fusion import SegmentationResult

__all__ = [
    "DegenerateGeometryError",
    "InvalidSampleError",
    "CameraFrame",
    "Sim3Transform",
    "align_sim3",
    "backproject",
    "semantic_confidence",
    "geometric_confidence",
    "aggregate",
    "relative_displacement",
]

# the largest deviation of any entry of R^T R from the identity a rotation block may have
ROTATION_TOL = 1e-9
# the largest magnitude below the diagonal of upper-triangular intrinsics
INTRINSICS_TOL = 1e-8
_BELOW_DIAGONAL = np.tril_indices(3, -1)


class DegenerateGeometryError(ValueError):
    """Too few or degenerate correspondences / weights for a unique solution."""


class InvalidSampleError(ValueError):
    """A pixel lookup fell outside the map or hit invalid depth."""


def _check_rotation(r: np.ndarray) -> None:
    if not (abs(r.T @ r - np.eye(3)) <= ROTATION_TOL).all():
        raise ParameterError("rotation block is not orthonormal")
    det = np.linalg.det(r)
    if abs(det - 1.0) > 1e-6:
        raise ParameterError(f"rotation block has determinant {det:.6f}, not +1")


@dataclass(frozen=True, eq=False)
class CameraFrame(ArrayValue):
    """Camera-to-world pose, intrinsics, depth, and depth-uncertainty maps, kept read-only.

    The depth map is (H, W) and the uncertainty of its shape, and all four
    must be finite; a non-positive depth is an invalid sample that
    :func:`backproject` refuses.
    """

    pose: np.ndarray
    intrinsics: np.ndarray
    depth: np.ndarray
    depth_uncertainty: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "pose", checked_array(self.pose, "pose", (4, 4)))
        object.__setattr__(self, "intrinsics", checked_array(self.intrinsics, "intrinsics", (3, 3)))
        object.__setattr__(self, "depth", checked_array(self.depth, "depth", (-1, -1)))
        uncertainty = checked_array(self.depth_uncertainty, "depth_uncertainty", self.depth.shape)
        object.__setattr__(self, "depth_uncertainty", uncertainty)
        _check_rotation(self.pose[:3, :3])
        if not (abs(self.intrinsics[_BELOW_DIAGONAL]) <= INTRINSICS_TOL).all():
            raise ParameterError("intrinsics must be upper triangular")
        if self.intrinsics[0, 0] <= 0 or self.intrinsics[1, 1] <= 0:
            raise ParameterError("focal lengths must be positive")
        if (self.depth_uncertainty < 0).any():
            raise ParameterError("depth uncertainty must be non-negative")


@dataclass(frozen=True, eq=False)
class Sim3Transform(ArrayValue):
    """Similarity transform p -> scale * R p + t: a positive finite real scale, stored as a float
    (a bool is not a number), and its arrays kept read-only."""

    scale: float
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        if isinstance(self.scale, bool) or not isinstance(self.scale, numbers.Real):
            raise ParameterError(f"scale must be a real number, got {self.scale!r}")
        object.__setattr__(self, "scale", float(self.scale))
        if not 0 < self.scale < np.inf:
            raise ParameterError(f"scale must be positive and finite, got {self.scale}")
        object.__setattr__(self, "rotation", checked_array(self.rotation, "rotation", (3, 3)))
        _check_rotation(self.rotation)
        object.__setattr__(self, "translation", checked_array(self.translation, "translation", (3,)))

    def apply(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        return self.scale * points @ self.rotation.T + self.translation

    def inverse(self) -> "Sim3Transform":
        r_inv = self.rotation.T
        return Sim3Transform(1.0 / self.scale, r_inv, -r_inv @ self.translation / self.scale)


def align_sim3(src: np.ndarray, dst: np.ndarray) -> Sim3Transform:
    """Least-squares similarity transform with T.apply(src) closest to dst.

    Closed-form solution: subtract centroids, take the SVD of the
    cross-covariance, correct a reflection through the determinant sign,
    and read the scale off the variance ratio. Needs at least three
    non-collinear source points; both point sets are finite (N, 3) arrays
    (``core.checked_array``).
    """
    src = checked_array(src, "src", (-1, 3))
    dst = checked_array(dst, "dst", src.shape)
    n = src.shape[0]
    if n < 3:
        raise DegenerateGeometryError(f"need at least 3 point pairs, got {n}")
    mu_src = src.mean(axis=0)
    mu_dst = dst.mean(axis=0)
    d_src = src - mu_src
    d_dst = dst - mu_dst
    singular = np.linalg.svd(d_src, compute_uv=False)
    if singular[1] <= max(1e-12, 1e-9 * singular[0]):
        raise DegenerateGeometryError("source points are collinear")
    cov = d_dst.T @ d_src / n
    u, d, vt = np.linalg.svd(cov)
    s = np.eye(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0:
        s[2, 2] = -1.0
    rotation = u @ s @ vt
    var_src = float(np.sum(d_src**2)) / n
    scale = float(np.trace(np.diag(d) @ s)) / var_src
    translation = mu_dst - scale * rotation @ mu_src
    return Sim3Transform(scale, rotation, translation)


def backproject(frame: CameraFrame, u: float, v: float, t_eta: Sim3Transform) -> np.ndarray:
    """Lift pixel (u, v) through depth, pose, and the alignment transform.

    Depth is read at the nearest pixel; a non-finite, out-of-bounds pixel or
    a non-positive depth raises InvalidSampleError.
    """
    h, w = frame.depth.shape
    if not (np.isfinite(u) and np.isfinite(v)):
        raise InvalidSampleError(f"pixel ({u}, {v}) must be finite")
    col = int(round(float(u)))
    row = int(round(float(v)))
    if not (0 <= row < h and 0 <= col < w):
        raise InvalidSampleError(f"pixel ({u}, {v}) is outside the {h}x{w} depth map")
    depth = float(frame.depth[row, col])
    if depth <= 0:
        raise InvalidSampleError(f"invalid depth {depth} at pixel ({u}, {v})")
    ray = np.linalg.solve(frame.intrinsics, np.array([float(u), float(v), 1.0]))
    cam_point = depth * ray
    world = frame.pose[:3, :3] @ cam_point + frame.pose[:3, 3]
    return t_eta.apply(world)


# the probability above which a mask pixel counts toward the second statistic
LAMBDA_THR = 0.5


def semantic_confidence(result: SegmentationResult) -> float:
    """Equal-weight mean of three statistics of the probabilities inside ``result``'s mask.

    The statistics are the mean, which is ``result.s_conf``, the mean of the
    values above ``LAMBDA_THR`` (0 when none is) and the maximum; an empty
    mask scores 0.
    """
    values = result.prob[result.mask != 0]
    if values.size == 0:
        return 0.0
    above = values[values > LAMBDA_THR]
    p_lambda = float(above.mean()) if above.size else 0.0
    p_max = float(values.max())
    third = 1.0 / 3.0
    return third * result.s_conf + third * p_lambda + third * p_max


def geometric_confidence(tau: float, zeta: float) -> float:
    """exp(-zeta * tau): 1 at zero uncertainty, decaying monotonically; a NaN ``tau`` or ``zeta`` is refused."""
    if not tau >= 0:
        raise ParameterError(f"uncertainty must be non-negative, got {tau}")
    # an infinite zeta times a zero tau would be NaN
    if not 0 < zeta < np.inf:
        raise ParameterError(f"zeta must be positive and finite, got {zeta}")
    return float(np.exp(-zeta * tau))


def aggregate(points: np.ndarray, weights: Sequence[float]) -> np.ndarray:
    """Weighted average of the (N, 3) per-view ``points``, which must be finite.

    ``weights`` holds one fused weight s_conf * g_conf per point, each finite and
    non-negative, so the average lies in the points' convex hull.
    """
    if np.size(points) == 0 == np.size(weights):
        raise DegenerateGeometryError("no points to aggregate")
    points, weights = checked_array(points, "points", (-1, 3)), checked_array(weights, "weights", (-1,))
    if len(weights) != len(points):
        raise DimensionError(f"need one weight per point, got {len(weights)} weights for {len(points)} points")
    if (weights < 0).any():
        raise ParameterError(f"weights must be non-negative, got {weights.min()}")
    total = float(weights.sum())
    if total <= 0.0:
        raise DegenerateGeometryError("all fused weights are zero")
    return weights @ points / total


def relative_displacement(frame: CameraFrame, recon_point: np.ndarray) -> np.ndarray:
    """Express a reconstruction-frame point in camera i's coordinates.

    ``R^T (p - c)`` for the camera-to-world rotation R and centre c: the
    inverse of the pose step of :func:`backproject`. A benchmark-frame point
    is first taken back through ``t_eta.inverse()``, once for all cameras.
    """
    point = np.asarray(recon_point, dtype=np.float64).reshape(3)
    r = frame.pose[:3, :3]
    return r.T @ (point - frame.pose[:3, 3])
