"""Deterministic synthetic scenarios standing in for video features, masks,
and camera geometry.

A scenario draws a target blob with a distinct channel signature on an
ambient background that is anti-correlated with the current signature, so a
linear filter separating the target from its surroundings has a strictly
negative response off-target. Presets cover a static target, gradual
signature rotation (appearance drift), a look-alike distractor, a temporary
absence window, and a multi-view geometric setup with analytic depth.

Everything is a pure function of the seed via ``numpy.random.default_rng``,
which makes generated files byte-identical across runs.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .core import ArrayValue, DimensionError, ParameterError, as_index, checked_array, checked_mask, frozen_in_place
from .core import last_run, min_bounding_rect
from .fusion import SegmentationResult, TemporalInterval
from .geo3d import CameraFrame, Sim3Transform
from .pipeline import QuerySpec, TrackOutput

__all__ = [
    "ScenarioParams",
    "FrameData",
    "Scenario",
    "PRESETS",
    "preset_params",
    "gen_scenario",
    "ground_truth_track",
]


@dataclass(frozen=True)
class ScenarioParams:
    """A generator recipe, checked here: counts, sizes and frame or view indices are integers
    (a bool or a float is not one), stored as Python ints; the drift step is a finite real
    number and not a bool, stored as a float, and ``distractor`` a bool; the canvas is at least
    8x8 and holds the object; an absence window is 1 <= start <= end < n_frames (frame 0 is the
    query); each of the n_views <= n_frames views is one frame's camera, and the corrupted views
    are views."""

    n_frames: int
    canvas: tuple[int, int] = (48, 48)
    object_size: int = 21
    drift_step: float = 0.0
    # one look-alike square swaying in the upper-left quarter
    distractor: bool = False
    absence: Optional[tuple[int, int]] = None
    n_views: int = 0
    corrupt_views: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for name in ("n_frames", "object_size", "n_views"):
            object.__setattr__(self, name, as_index(getattr(self, name), name))
        for name, n in ("canvas", 2), ("absence", 2), ("corrupt_views", None):
            value = getattr(self, name)
            if name == "absence" and value is None:
                continue
            if not isinstance(value, tuple) or n not in (None, len(value)):
                raise ParameterError(f"{name} must be a tuple of {n or 'any number of'} integers, got {value!r}")
            object.__setattr__(self, name, tuple(as_index(v, name) for v in value))
        step, distractor = self.drift_step, self.distractor
        if isinstance(step, (bool, np.bool_)) or not isinstance(step, numbers.Real) or not np.isfinite(step):
            raise ParameterError(f"drift_step must be a finite real number, got {step!r}")
        if not isinstance(distractor, (bool, np.bool_)):
            raise ParameterError(f"distractor must be a bool, got {distractor!r}")
        object.__setattr__(self, "drift_step", float(step))
        object.__setattr__(self, "distractor", bool(distractor))
        if self.n_frames < 1:
            raise ParameterError(f"need at least one frame, got {self.n_frames}")
        h, w = self.canvas
        if h < 8 or w < 8:
            raise ParameterError(f"canvas must be at least 8x8, got {self.canvas}")
        if not 1 <= self.object_size <= min(h, w):
            raise ParameterError(f"object size {self.object_size} does not fit canvas {self.canvas}")
        if self.absence is not None and not 1 <= self.absence[0] <= self.absence[1] < self.n_frames:
            raise ParameterError(
                f"absence {self.absence} is not a window 1 <= start <= end < {self.n_frames} (frame 0 is the query)"
            )
        if not 0 <= self.n_views <= self.n_frames:
            raise ParameterError(f"n_views {self.n_views} is not in [0, {self.n_frames}]: a view is one frame's camera")
        if any(not 0 <= i < self.n_views for i in self.corrupt_views):
            raise ParameterError(f"corrupt_views {self.corrupt_views} names a view outside [0, {self.n_views})")


# at least two: the target's signature and its rotation partner are orthonormal
CHANNELS = 3
BACKGROUND_AMPLITUDE = 0.35
# frames per sway of the distractor, and its signature's angle in radians from the target's
DISTRACTOR_PERIOD = 40
DISTRACTOR_ANGLE = 0.9


def _preset_table() -> dict[str, ScenarioParams]:
    return {
        "identity": ScenarioParams(n_frames=48),
        "drift": ScenarioParams(n_frames=200, drift_step=(np.pi / 2.0) / 150.0),
        "distractor": ScenarioParams(n_frames=80, distractor=True),
        "absence": ScenarioParams(n_frames=120, absence=(46, 85)),
        "geo": ScenarioParams(n_frames=5, n_views=5, object_size=9),
    }


PRESETS = _preset_table()


def preset_params(name: str) -> ScenarioParams:
    try:
        return PRESETS[name]
    except KeyError:
        raise ParameterError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from None


@dataclass(frozen=True, eq=False)
class FrameData(ArrayValue):
    """Frame t of a ``Scenario``, which builds it: views of its stacks' frame t and its camera, if any."""

    feature: np.ndarray
    gt_mask: np.ndarray
    camera: Optional[CameraFrame] = None

    @cached_property
    def gt_bbox(self) -> Optional[tuple[int, int, int, int]]:
        """The ground-truth mask's bounding box, None when it is empty; kept once read, as the mask is read-only."""
        return min_bounding_rect(self.gt_mask) if self.gt_mask.any() else None


@dataclass(frozen=True, eq=False)
class Scenario(ArrayValue):
    """A clip, its ground truth and the visual query, held as a scenario file stores them: the
    (N, H, W, C) ``features`` stack, the (N, H, W) ``gt_masks`` stack and N ``cameras``, each a
    frame's ``CameraFrame`` or None.

    The scenario contract, checked here for the generator, the file loader and ``replace``
    alike, once per array: the features are finite and of the query's (H, W, C), and the
    ground-truth masks of only 0 and 1, as ``QuerySpec`` holds the query's (and its mask
    non-empty), a refusal naming the first frame that breaks the rule; each camera's depth map,
    and so its uncertainty map, is (H, W); ``gt_point`` is None or a finite 3-vector; an
    alignment is None or both point sets, finite (M, 3) arrays of one M. The cameras are a tuple
    and every array read-only, so the contract holds for the value's whole life. ``frames`` is
    the clip frame by frame, the ``FrameData`` views of the stacks, built with the value.

    It keeps no record of how it was made: the seed and ``ScenarioParams``
    are inputs of ``gen_scenario``, so a scenario file holds no recipe.
    """

    features: np.ndarray
    gt_masks: np.ndarray
    cameras: tuple[Optional[CameraFrame], ...]
    query: QuerySpec
    gt_point: Optional[np.ndarray] = None
    alignment_src: Optional[np.ndarray] = None
    alignment_dst: Optional[np.ndarray] = None
    # views of the stacks, which are what two scenarios compare
    frames: tuple[FrameData, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        canvas = self.query.feature.shape
        features = checked_array(self.features, "features", (-1, *canvas), "features")
        gt_masks = checked_mask(self.gt_masks, "gt_masks", (len(features), *canvas[:2]), "mask")
        cameras = tuple(self.cameras)
        if len(cameras) != len(features):
            raise DimensionError(f"{len(cameras)} cameras for {len(features)} frames; a frame without one has None")
        for t, camera in enumerate(cameras):
            if camera is not None and camera.depth.shape != canvas[:2]:
                raise DimensionError(f"frame {t} depth must be of shape {canvas[:2]}, got shape {camera.depth.shape}")
        frames = tuple(map(FrameData, features, gt_masks, cameras))
        for name, value in ("features", features), ("gt_masks", gt_masks), ("cameras", cameras), ("frames", frames):
            object.__setattr__(self, name, value)
        if self.gt_point is not None:
            object.__setattr__(self, "gt_point", checked_array(self.gt_point, "gt_point", (3,)))
        if (self.alignment_src is None) != (self.alignment_dst is None):
            missing = "alignment_dst" if self.alignment_dst is None else "alignment_src"
            raise ParameterError(f"{missing} is missing; an alignment holds both point sets")
        if self.alignment_src is not None:
            src = checked_array(self.alignment_src, "alignment_src", (-1, 3))
            object.__setattr__(self, "alignment_src", src)
            object.__setattr__(self, "alignment_dst", checked_array(self.alignment_dst, "alignment_dst", src.shape))

    @property
    def gt_interval(self) -> Optional[tuple[int, int]]:
        """The last run of frames whose ground-truth mask is non-empty."""
        return last_run(self.gt_masks.any(axis=(1, 2)))


def _signature_pair(rng: np.random.Generator, channels: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal target signature and rotation partner."""
    q = rng.normal(size=channels)
    q /= np.linalg.norm(q)
    u = rng.normal(size=channels)
    u -= (u @ q) * q
    u /= np.linalg.norm(u)
    return q, u


def _square(canvas: tuple[int, int], center: tuple[int, int], size: int) -> tuple[slice, slice]:
    """The rows and columns of the size x size square centred on ``center``, clipped to the canvas."""
    half = size // 2
    r0, c0 = center[0] - half, center[1] - half
    return slice(max(r0, 0), min(r0 + size, canvas[0])), slice(max(c0, 0), min(c0 + size, canvas[1]))


def _look_at_pose(position: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Camera-to-world pose with the optical axis through ``target``."""
    z = target - position
    z = z / np.linalg.norm(z)
    # every view sits 0.35 of its ground distance above the target, so
    # |z . up| = 0.35 / sqrt(1.1225) < 0.34: the axis is never near up
    x = np.cross(np.array([0.0, 0.0, 1.0]), z)
    x /= np.linalg.norm(x)
    y = np.cross(z, x)
    pose = np.eye(4)
    pose[:3] = np.column_stack([x, y, z, position])
    return pose


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    quat = rng.normal(size=4)
    quat /= np.linalg.norm(quat)
    w, x, y, z = quat
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def gen_scenario(seed: int, params: ScenarioParams) -> Scenario:
    """Build a scenario deterministically from the seed and parameters."""
    h, w = params.canvas
    rng = np.random.default_rng(seed)
    q0, u0 = _signature_pair(rng, CHANNELS)
    distractor_sig = np.cos(DISTRACTOR_ANGLE) * q0 + np.sin(DISTRACTOR_ANGLE) * u0

    # a geo target sits on the principal point, the canvas's central pixel
    center = ((h - 1) // 2, (w - 1) // 2) if params.n_views > 0 else (h // 2, w // 2)
    geo = _geo_setup(rng, params, center) if params.n_views > 0 else {"cameras": []}

    features = np.empty((params.n_frames, h, w, CHANNELS))
    gt_masks = np.zeros((params.n_frames, h, w), dtype=np.uint8)
    square = _square(params.canvas, center, params.object_size)
    for t in range(params.n_frames):
        theta = params.drift_step * t
        sig = np.cos(theta) * q0 + np.sin(theta) * u0
        features[t] = -BACKGROUND_AMPLITUDE * sig
        if params.distractor:
            shift = int(round(6 * np.sin(2 * np.pi * t / DISTRACTOR_PERIOD)))
            distractor = _square(params.canvas, (h // 4, w // 4 + shift), max(3, params.object_size // 2))
            features[t][distractor] = distractor_sig
        if params.absence is None or not params.absence[0] <= t <= params.absence[1]:
            features[t][square] = sig
            gt_masks[t][square] = 1
    cameras = geo.pop("cameras") + [None] * (params.n_frames - params.n_views)
    features, gt_masks = frozen_in_place(features), frozen_in_place(gt_masks)
    return Scenario(features, gt_masks, cameras, QuerySpec(features[0], gt_masks[0]), **geo)


# the views' distance from the world point along the ground, their focal
# length in pixels, and the depth uncertainty a corrupted view reports
VIEW_RADIUS = 2.5
FOCAL = 40.0
CORRUPT_UNCERTAINTY = 20.0


def _geo_setup(rng: np.random.Generator, params: ScenarioParams, center: tuple[int, int]) -> dict:
    """Cameras on an arc around a world point, in a scaled reconstruction frame that a similarity
    transform maps back to the benchmark frame, each with its principal point at the (row, col)
    ``center`` and a depth map constant at the target's depth; with the point and the alignment, as
    ``Scenario``'s ``gt_point``, ``alignment_src`` and ``alignment_dst``."""
    h, w = params.canvas
    point = rng.uniform(-1.0, 1.0, size=3) + np.array([0.0, 0.0, 1.0])
    scale = float(rng.uniform(0.6, 1.8))
    rotation = _random_rotation(rng)
    translation = rng.uniform(-2.0, 2.0, size=3)
    to_bench = Sim3Transform(scale, rotation, translation)
    from_bench = to_bench.inverse()

    cy, cx = center
    intrinsics = np.array([[FOCAL, 0.0, cx], [0.0, FOCAL, cy], [0.0, 0.0, 1.0]])
    angles = np.linspace(0.0, np.pi / 2.0, params.n_views)
    cameras: list[CameraFrame] = []
    for i, angle in enumerate(angles):
        position = point + VIEW_RADIUS * np.array([np.cos(angle), np.sin(angle), 0.35])
        pose_bench = _look_at_pose(position, point)
        depth_metric = float(np.linalg.norm(point - position))
        # re-express the rigid pose in the reconstruction frame: rotations
        # compose, translations shrink by the reconstruction scale
        pose_recon = np.eye(4)
        pose_recon[:3, :3] = from_bench.rotation @ pose_bench[:3, :3]
        pose_recon[:3, 3] = from_bench.apply(pose_bench[:3, 3])
        depth_value = depth_metric / scale
        uncertainty_value = CORRUPT_UNCERTAINTY if i in params.corrupt_views else 0.0
        if i in params.corrupt_views:
            depth_value *= 1.5
        depth = np.full((h, w), depth_value)
        uncertainty = np.full((h, w), uncertainty_value)
        cameras.append(CameraFrame(pose_recon, intrinsics, depth, uncertainty))

    n_pairs = 12
    src = rng.uniform(-2.0, 2.0, size=(n_pairs, 3))
    return {"cameras": cameras, "gt_point": point, "alignment_src": src, "alignment_dst": to_bench.apply(src)}


def ground_truth_track(scenario: Scenario) -> TrackOutput:
    """A TrackOutput that reproduces the scenario's ground truth exactly.

    Useful as an oracle input for the metric and 3D stages: probability maps
    read 0.9 on the ground-truth masks and 0.1 off them, so they threshold
    back to the masks; a frame's s_conf is 0.9 (to rounding) when its mask
    is non-empty, and the interval is the scenario's ``gt_interval``.
    """
    results = [SegmentationResult(p) for p in frozen_in_place(np.where(scenario.gt_masks != 0, 0.9, 0.1))]
    interval = scenario.gt_interval
    return TrackOutput(results, None if interval is None else TemporalInterval(*interval))
