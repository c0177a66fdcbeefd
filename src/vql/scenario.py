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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import ParameterError, last_run, min_bounding_rect
from .fusion import TemporalInterval, extract_result
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
    n_frames: int
    canvas: tuple[int, int] = (48, 48)
    object_size: int = 21
    drift_step: float = 0.0
    # one look-alike square swaying in the upper-left quarter
    distractor: bool = False
    absence: Optional[tuple[int, int]] = None
    n_views: int = 0
    corrupt_views: tuple[int, ...] = ()


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


@dataclass
class FrameData:
    feature: np.ndarray
    gt_mask: np.ndarray
    camera: Optional[CameraFrame] = None

    @property
    def gt_bbox(self) -> Optional[tuple[int, int, int, int]]:
        """The ground-truth mask's bounding box, None when the mask is empty."""
        return min_bounding_rect(self.gt_mask) if self.gt_mask.any() else None


@dataclass
class Scenario:
    """A clip, its ground truth and the visual query.

    It keeps no record of how it was made: the seed and ``ScenarioParams``
    are inputs of ``gen_scenario``, so a scenario file holds no recipe.
    """

    frames: list[FrameData]
    query: QuerySpec
    gt_point: Optional[np.ndarray] = None
    alignment_src: Optional[np.ndarray] = None
    alignment_dst: Optional[np.ndarray] = None

    @property
    def cameras(self) -> list[Optional[CameraFrame]]:
        return [f.camera for f in self.frames]

    @property
    def gt_interval(self) -> Optional[tuple[int, int]]:
        """The last run of frames whose ground-truth mask is non-empty."""
        return last_run([f.gt_mask.any() for f in self.frames])


def _signature_pair(rng: np.random.Generator, channels: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal target signature and rotation partner."""
    q = rng.normal(size=channels)
    q /= np.linalg.norm(q)
    u = rng.normal(size=channels)
    u -= (u @ q) * q
    u /= np.linalg.norm(u)
    return q, u


def _draw_square(feature: np.ndarray, center: tuple[int, int], size: int, signature: np.ndarray) -> np.ndarray:
    h, w = feature.shape[:2]
    half = size // 2
    r0, c0 = center[0] - half, center[1] - half
    r1, c1 = r0 + size - 1, c0 + size - 1
    r0c, r1c = max(r0, 0), min(r1, h - 1)
    c0c, c1c = max(c0, 0), min(c1, w - 1)
    mask = np.zeros((h, w), dtype=np.uint8)
    mask[r0c : r1c + 1, c0c : c1c + 1] = 1
    feature[r0c : r1c + 1, c0c : c1c + 1, :] = signature
    return mask


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
    pose[:3, 0] = x
    pose[:3, 1] = y
    pose[:3, 2] = z
    pose[:3, 3] = position
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
    if params.n_frames < 1:
        raise ParameterError(f"need at least one frame, got {params.n_frames}")
    h, w = params.canvas
    if h < 8 or w < 8:
        raise ParameterError(f"canvas must be at least 8x8, got {params.canvas}")
    if params.object_size < 1 or params.object_size > min(h, w):
        raise ParameterError(f"object size {params.object_size} does not fit canvas {params.canvas}")
    # the absence window, the views and the corrupted views must name frames and views of the clip, not be ignored
    if params.absence is not None and not 1 <= params.absence[0] <= params.absence[1] < params.n_frames:
        raise ParameterError(
            f"absence {params.absence} is not a window 1 <= start <= end < {params.n_frames} (frame 0 is the query)"
        )
    if not 0 <= params.n_views <= params.n_frames:
        raise ParameterError(f"n_views {params.n_views} is not in [0, {params.n_frames}]: each view is one frame's camera")
    if any(not 0 <= i < params.n_views for i in params.corrupt_views):
        raise ParameterError(f"corrupt_views {params.corrupt_views} names a view outside [0, {params.n_views})")
    rng = np.random.default_rng(seed)
    q0, u0 = _signature_pair(rng, CHANNELS)
    distractor_sig = np.cos(DISTRACTOR_ANGLE) * q0 + np.sin(DISTRACTOR_ANGLE) * u0

    if params.n_views > 0:
        center = (23, 23)
    else:
        center = (h // 2, w // 2)

    geo = _geo_setup(rng, params) if params.n_views > 0 else None

    frames: list[FrameData] = []
    for t in range(params.n_frames):
        theta = params.drift_step * t
        sig = np.cos(theta) * q0 + np.sin(theta) * u0
        feature = np.tile(-BACKGROUND_AMPLITUDE * sig, (h, w, 1))
        present = True
        if params.absence is not None:
            a0, a1 = params.absence
            present = not (a0 <= t <= a1)
        if params.distractor:
            shift = int(round(6 * np.sin(2 * np.pi * t / DISTRACTOR_PERIOD)))
            d_center = (h // 4, w // 4 + shift)
            _draw_square(feature, d_center, max(3, params.object_size // 2), distractor_sig)
        if present:
            mask = _draw_square(feature, center, params.object_size, sig)
        else:
            mask = np.zeros((h, w), dtype=np.uint8)
        camera = geo["cameras"][t] if geo is not None and t < len(geo["cameras"]) else None
        frames.append(FrameData(feature, mask, camera))

    query = QuerySpec(frames[0].feature.copy(), frames[0].gt_mask.copy())
    return Scenario(
        frames=frames,
        query=query,
        gt_point=None if geo is None else geo["point"],
        alignment_src=None if geo is None else geo["src"],
        alignment_dst=None if geo is None else geo["dst"],
    )


# the views' distance from the world point along the ground, their focal
# length in pixels, and the depth uncertainty a corrupted view reports
VIEW_RADIUS = 2.5
FOCAL = 40.0
CORRUPT_UNCERTAINTY = 20.0


def _geo_setup(rng: np.random.Generator, params: ScenarioParams) -> dict:
    """Cameras on an arc around a world point, expressed in a scaled
    reconstruction frame that a similarity transform maps back to the
    benchmark frame; depth maps are constant at the target's depth."""
    h, w = params.canvas
    point = rng.uniform(-1.0, 1.0, size=3) + np.array([0.0, 0.0, 1.0])
    scale = float(rng.uniform(0.6, 1.8))
    rotation = _random_rotation(rng)
    translation = rng.uniform(-2.0, 2.0, size=3)
    to_bench = Sim3Transform(scale, rotation, translation)
    from_bench = to_bench.inverse()

    intrinsics = np.array([[FOCAL, 0.0, 23.0], [0.0, FOCAL, 23.0], [0.0, 0.0, 1.0]])
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
    dst = to_bench.apply(src)
    return {"cameras": cameras, "point": point, "src": src, "dst": dst}


def ground_truth_track(scenario: Scenario) -> TrackOutput:
    """A TrackOutput that reproduces the scenario's ground truth exactly.

    Useful as an oracle input for the metric and 3D stages: probability maps
    read 0.9 on the ground-truth masks and 0.1 off them, so they threshold
    back to the masks; a frame's s_conf is 0.9 (to rounding) when its mask
    is non-empty, and the interval is the scenario's ``gt_interval``.
    """
    results = [extract_result(np.where(f.gt_mask != 0, 0.9, 0.1)) for f in scenario.frames]
    peaks = [1.0 if f.gt_mask.any() else 0.0 for f in scenario.frames]
    interval = scenario.gt_interval
    return TrackOutput(results, None if interval is None else TemporalInterval(*interval), peaks)
