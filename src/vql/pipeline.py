"""Per-query orchestration: seed both memory banks from the query, process
frames one by one, and produce the 2D track, temporal interval, and 3D
displacements.

Inference: both filters share one kernel size, so each frame is convolved
once, with a two-output kernel. Output 0 comes from the segmentation kernel
averaged over its three label channels: conv2d is linear in its kernel, so
that is the appearance logit ``fusion.fuse`` needs. Output 1 is the
tracking score, whose maximum is the frame's tracking peak. The filters
change only at an ingest, so the kernel is built once per memory value.

Memory: the appearance bank is a FIFO of cropped, resampled (feature, mask)
pairs at one canonical resolution. Eviction is strictly first-in-first-out
over all entries, including the query sample and its augmentations; nothing
is pinned. The tracking bank keeps one static snapshot of the query, never
evicted or replaced, plus a FIFO of dynamic snapshots from accepted
retrievals, capped at capacity - 1 so the whole bank honors the capacity.
Both banks, both filters and the tracking-peak history that picks the
snapshot source form one immutable value: a frame builds a new value and
the pipeline keeps it or drops it whole.

Update policy, following the inference procedure the solvers were designed
for. It is fixed; the config sets only whether it runs and the capacity.
Both filters are fit ITERS_INIT solver iterations at initialization, on
crops resampled to SAMPLE_RESOLUTION. Banks ingest retrievals that
``amm.amm_admit`` accepts (a box and a confidence at or above
``amm.ADMIT_THRESHOLD``), on every frame below DENSE_UPDATE_HORIZON and
every UPDATE_STRIDE frames after it; each ingest is followed by
ITERS_UPDATE solver iterations, and is dropped whole, peak included, if
either refit filter comes out non-finite. If the mean confidence over the
last HALT_WINDOW frames drops below HALT_THRESHOLD, updating stops for good
and the memory reverts to its post-initialization value.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import amm, fusion, geo3d, glm
from .core import DimensionError, EmptyInputError, ParameterError, _zero_border, conv2d, min_bounding_rect

__all__ = [
    "NoDetectionError",
    "PipelineConfig",
    "QuerySpec",
    "TrackOutput",
    "Pipeline",
    "finalize_3d",
]

# the update policy (see the module docstring)
ITERS_INIT = 10
ITERS_UPDATE = 3
DENSE_UPDATE_HORIZON = 100
UPDATE_STRIDE = 25
HALT_WINDOW = 25
HALT_THRESHOLD = 0.4
# side of every resampled bank sample
SAMPLE_RESOLUTION = 32


class NoDetectionError(RuntimeError):
    """The track has no temporal interval or no usable 3D observations."""


@dataclass(frozen=True)
class PipelineConfig:
    capacity: int = 50
    zeta: float = 1.0
    lambda_thr: float = 0.5
    # both filters' kernel size, so one convolution serves both branches
    kernel_size: int = 3
    updates_enabled: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.lambda_thr <= 1.0:
            raise ParameterError(f"lambda_thr must lie in [0, 1], got {self.lambda_thr}")
        if self.capacity < 1:
            raise ParameterError(f"capacity must be >= 1, got {self.capacity}")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ParameterError(f"kernel_size must be odd and positive, got {self.kernel_size}")
        if not self.zeta > 0:
            raise ParameterError(f"zeta must be positive, got {self.zeta}")


@dataclass
class QuerySpec:
    """The visual query: a feature map with the target's binary mask."""

    feature: np.ndarray
    mask: np.ndarray
    frame_index: int = 0

    def __post_init__(self) -> None:
        self.feature = np.asarray(self.feature, dtype=np.float64)
        self.mask = np.asarray(self.mask)
        if self.feature.ndim != 3:
            raise DimensionError(f"query feature must be (H, W, C), got {self.feature.shape}")
        if self.feature.shape[:2] != self.mask.shape:
            raise DimensionError(
                f"feature {self.feature.shape[:2]} and mask {self.mask.shape} dims differ"
            )
        if not ((self.mask == 0) | (self.mask == 1)).all():
            raise ParameterError("query mask values must be 0 or 1")
        if not (self.mask != 0).any():
            raise EmptyInputError("query mask must be non-empty")
        if not np.isfinite(self.feature).all():
            raise ParameterError("query features must be finite")


@dataclass
class TrackOutput:
    """Everything a query run produces."""

    results: list[fusion.SegmentationResult]
    interval: Optional[fusion.TemporalInterval]
    peaks: list[float]
    world_point: Optional[np.ndarray] = None
    displacements: dict[int, np.ndarray] = field(default_factory=dict)


def _augmented_query_samples(base: amm.AmmSample) -> list[amm.AmmSample]:
    """Base crop plus horizontal flip, (+2, +2) shift with zero fill, and box blur."""
    flipped = amm.AmmSample(base.feature[:, ::-1, :], base.mask[:, ::-1])
    shifted_f = np.zeros_like(base.feature)
    shifted_m = np.zeros_like(base.mask)
    shifted_f[2:, 2:] = base.feature[:-2, :-2]
    shifted_m[2:, 2:] = base.mask[:-2, :-2]
    blurred_f = _box_blur_3x3(base.feature)
    return [
        flipped,
        amm.AmmSample(shifted_f, shifted_m),
        amm.AmmSample(blurred_f, base.mask),
    ]


def _box_blur_3x3(feature: np.ndarray) -> np.ndarray:
    h, w = feature.shape[:2]
    padded = _zero_border(feature, 1)
    out = np.zeros_like(feature)
    for dy in range(3):
        for dx in range(3):
            out += padded[dy : dy + h, dx : dx + w]
    return out / 9.0


def _newest(entries: tuple, limit: int) -> tuple:
    """The last ``limit`` entries; none at limit 0, where ``entries[-0:]`` would keep all."""
    return entries[max(0, len(entries) - limit) :]


@dataclass(frozen=True)
class _Memory:
    """Both banks, both filter kernels and the peak history of one query (see the module docstring).

    Entries and kernels are read-only, so values share them freely; the
    inference kernel is built from the two kernels once per value.
    """

    amm_entries: tuple[amm.AmmSample, ...]
    glm_static: glm.GlmSample
    glm_dynamic: tuple[glm.GlmSample, ...]
    seg_kernel: np.ndarray
    track_kernel: np.ndarray
    # tracking peaks of the frames kept so far, read by glm_update_source
    responses: tuple[float, ...] = ()

    @property
    def glm_samples(self) -> tuple[glm.GlmSample, ...]:
        return (self.glm_static,) + self.glm_dynamic

    @cached_property
    def inference_kernel(self) -> np.ndarray:
        """The (K, K, C, 2) kernel of one frame's convolution: the channel-mean seg kernel, then the track kernel."""
        kernel = np.concatenate([self.seg_kernel.mean(axis=3, keepdims=True), self.track_kernel], axis=3)
        kernel.flags.writeable = False
        return kernel

    @property
    def finite(self) -> bool:
        return bool(np.isfinite(self.seg_kernel).all() and np.isfinite(self.track_kernel).all())

    def admit(self, amm_entry: amm.AmmSample, glm_entry: glm.GlmSample, capacity: int) -> "_Memory":
        """Both banks with one entry more, trimmed first-in-first-out; filters unchanged."""
        return replace(
            self,
            amm_entries=_newest(self.amm_entries + (amm_entry,), capacity),
            glm_dynamic=_newest(self.glm_dynamic + (glm_entry,), capacity - 1),
        )


class Pipeline:
    """One query's stateful run over a frame sequence.

    ``memory`` is the current bank value and ``initial_memory`` the
    post-initialization one a halt returns to.
    """

    def __init__(self, query: QuerySpec, cfg: PipelineConfig = PipelineConfig()):
        self.cfg = cfg

        base = amm.crop_sample(query.feature, query.mask, SAMPLE_RESOLUTION)
        amm_entries = _newest((base, *_augmented_query_samples(base)), cfg.capacity)
        static = glm.glm_make_dynamic_sample(
            query.feature,
            min_bounding_rect(query.mask),
            (query.mask != 0).astype(np.float64),
            SAMPLE_RESOLUTION,
        )
        shape = (cfg.kernel_size, cfg.kernel_size, query.feature.shape[2])
        seg_kernel = amm.steepest_descent(np.zeros(shape + (3,)), amm_entries, ITERS_INIT)
        track_kernel = glm.optimize_filter(np.zeros(shape + (1,)), (static,), ITERS_INIT)
        self.memory = self.initial_memory = _Memory(amm_entries, static, (), seg_kernel, track_kernel)
        self._frame_shape = query.feature.shape

        self.halted = False
        self.results: list[fusion.SegmentationResult] = []
        self.peaks: list[float] = []

    def _is_update_frame(self, frame_index: int) -> bool:
        return frame_index < DENSE_UPDATE_HORIZON or frame_index % UPDATE_STRIDE == 0

    def _halt_triggered(self) -> bool:
        """The mean confidence of the last HALT_WINDOW frames is below HALT_THRESHOLD."""
        recent = [r.s_conf for r in self.results[-HALT_WINDOW:]]
        return len(recent) == HALT_WINDOW and float(np.mean(recent)) < HALT_THRESHOLD

    def step_frame(self, frame_feature: np.ndarray, frame_index: int) -> fusion.SegmentationResult:
        """Run one frame through both branches, fuse, and maybe update the banks.

        A negative frame index, one that does not exceed the previous
        frame's, or a non-finite frame, raises ParameterError and a frame
        whose shape differs from the query's DimensionError, before any
        state changes.
        """
        if frame_index < 0:
            raise ParameterError(f"frame index must be >= 0, got {frame_index}")
        if self.results and frame_index <= self.results[-1].frame_index:
            raise ParameterError(
                f"frame index {frame_index} does not follow the previous index {self.results[-1].frame_index}"
            )
        frame_feature = np.asarray(frame_feature, dtype=np.float64)
        if frame_feature.shape != self._frame_shape:
            raise DimensionError(
                f"frame {frame_feature.shape} does not match the query's {self._frame_shape}"
            )
        if not np.isfinite(frame_feature).all():
            raise ParameterError(f"frame {frame_index} has non-finite features")
        # outputs: appearance logit and tracking score (see the module docstring)
        out = conv2d(frame_feature, self.memory.inference_kernel)
        score = out[:, :, 1]
        result = fusion.extract_result(fusion.fuse(out[:, :, 0], score), frame_index)
        peak = float(score.max())

        self.results.append(result)
        self.peaks.append(peak)

        if self.cfg.updates_enabled and not self.halted:
            if self._halt_triggered():
                self.memory, self.halted = self.initial_memory, True
                return result
            candidate = replace(self.memory, responses=self.memory.responses + (peak,))
            if self._is_update_frame(frame_index) and amm.amm_admit(result):
                candidate = self._ingest(candidate, frame_feature, result)
            # a finite frame can be so large that a refit overflows
            if candidate.finite:
                self.memory = candidate
        return result

    def _ingest(
        self, memory: _Memory, frame_feature: np.ndarray, result: fusion.SegmentationResult
    ) -> _Memory:
        """``memory`` with the frame added to both banks and both filters refit."""
        memory = memory.admit(
            amm.crop_sample(frame_feature, result.mask, SAMPLE_RESOLUTION),
            glm.glm_make_dynamic_sample(frame_feature, result.bbox, result.prob, SAMPLE_RESOLUTION),
            self.cfg.capacity,
        )
        source = glm.glm_update_source(memory.responses)
        view = memory.glm_samples if source == "dynamic" else (memory.glm_static,)
        return replace(
            memory,
            seg_kernel=amm.steepest_descent(memory.seg_kernel, memory.amm_entries, ITERS_UPDATE),
            track_kernel=glm.optimize_filter(memory.track_kernel, view, ITERS_UPDATE),
        )

    def finalize_2d(self) -> TrackOutput:
        """Temporal localization over the recorded confidences."""
        if not self.results:
            raise EmptyInputError("no frames have been stepped")
        interval = fusion.temporal_localize([r.s_conf for r in self.results])
        if interval is not None:
            indices = [r.frame_index for r in self.results]
            interval = fusion.TemporalInterval(
                indices[interval.start_frame], indices[interval.end_frame]
            )
        return TrackOutput(list(self.results), interval, list(self.peaks))

    def run(self, frames: Sequence[np.ndarray]) -> TrackOutput:
        """Step every frame in order, numbering them 0, 1, 2, ..., and finalize.

        A run over frames numbered otherwise calls :meth:`step_frame` with
        each index and then :meth:`finalize_2d`.
        """
        for index, feature in enumerate(frames):
            self.step_frame(feature, index)
        return self.finalize_2d()


def finalize_3d(
    track: TrackOutput,
    cameras: Sequence[Optional[geo3d.CameraFrame]],
    alignment_pairs: tuple[np.ndarray, np.ndarray],
    cfg: PipelineConfig = PipelineConfig(),
) -> TrackOutput:
    """Lift the 2D track into 3D and attach per-frame displacements.

    Aggregates mask-centroid back-projections over the frames inside the
    temporal interval, weighting each view by semantic x geometric
    confidence, then expresses the aggregate in every interval camera with
    valid depth at its centroid. ``cameras`` is indexed by frame_index.
    """
    if track.interval is None:
        raise NoDetectionError("track has no temporal interval")
    src, dst = alignment_pairs
    t_eta = geo3d.align_sim3(src, dst)

    contributions: list[geo3d.ViewContribution] = []
    for result in track.results:
        idx = result.frame_index
        if not (track.interval.start_frame <= idx <= track.interval.end_frame):
            continue
        if result.bbox is None or idx >= len(cameras) or cameras[idx] is None:
            continue
        camera = cameras[idx]
        rows, cols = np.nonzero(result.mask)
        u, v = float(cols.mean()), float(rows.mean())
        try:
            world = geo3d.backproject(camera, u, v, t_eta)
        except geo3d.InvalidSampleError:
            continue
        s_conf = geo3d.semantic_confidence(result.prob, result.mask, cfg.lambda_thr)
        tau = float(camera.depth_uncertainty[int(round(v)), int(round(u))])
        g_conf = geo3d.geometric_confidence(tau, cfg.zeta)
        contributions.append(geo3d.ViewContribution(world, s_conf, g_conf, idx))

    if not contributions:
        raise NoDetectionError("no interval frame had a usable mask and depth")
    world_point = geo3d.aggregate(contributions)

    displacements: dict[int, np.ndarray] = {}
    for contribution in contributions:
        camera = cameras[contribution.frame_index]
        displacements[contribution.frame_index] = geo3d.relative_displacement(
            camera, world_point, t_eta
        )
    return TrackOutput(track.results, track.interval, track.peaks, world_point, displacements)
