"""Per-query orchestration: seed both memory banks from the query, process
frames one by one, and produce the 2D track, temporal interval, and 3D
displacements.

Inference: both filters share one kernel size, so each frame is convolved
once, with a two-output kernel. Output 0 comes from the segmentation kernel
averaged over its three label channels: conv2d is linear in its kernel, so
that is the appearance logit ``fusion.fuse`` needs. Output 1 is the
tracking score, whose maximum is the frame's tracking peak. The filters
change only at an ingest, so the kernel is built once per memory value.
The fused probability map is made read-only where it is made and kept by
the frame's result without a copy, which works out the frame's mask and
confidence from it. A frame's box is worked out only when something reads
it, the crop of an admitted frame's entry: an updates-off run and its 3D
lift label no components.

Memory: the query and every admitted frame are cut once, in one square
window around the target's box, into one ``core.BankEntry`` at one
canonical resolution (``crop_entry``) that both banks share, with one
copy of the feature crop and one cache of its patch rows. The appearance
bank is a FIFO of entries. Eviction is strictly first-in-first-out over
all entries, including the query entry and its augmentations; nothing is
pinned. The tracking bank keeps the query entry as its static snapshot,
never evicted or replaced, plus a FIFO of the admitted entries as dynamic
snapshots, capped at capacity - 1 so the whole bank honors the capacity.
Both banks, both filters and the tracking-peak history that picks the
snapshot source form one immutable value: a frame builds a new value and
the pipeline keeps it or drops it whole.

Update policy, following the inference procedure the solvers were designed
for. It is fixed; the config sets only whether it runs and the capacity.
Both filters are fit ITERS_INIT solver iterations at initialization, on
crops resampled to SAMPLE_RESOLUTION. Banks ingest retrievals that
``amm.amm_admit`` accepts (a confidence at or above
``amm.ADMIT_THRESHOLD``), on every frame below DENSE_UPDATE_HORIZON and
every UPDATE_STRIDE frames after it; each ingest is followed by
ITERS_UPDATE solver iterations, and is dropped whole, peak included, if
either refit filter comes out non-finite. If the mean confidence over the
last HALT_WINDOW frames drops below HALT_THRESHOLD, updating stops for good
and the memory reverts to its post-initialization value.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from . import amm, fusion, geo3d, glm
from .core import ArrayValue, BankEntry, DimensionError, EmptyInputError, ParameterError, _zero_border, as_index
from .core import bilinear_resize, checked_array, checked_mask, conv2d, frozen_in_place, ladder_crop, min_bounding_rect
from .core import nearest_resize

__all__ = [
    "NoDetectionError",
    "PipelineConfig",
    "QuerySpec",
    "TrackOutput",
    "crop_entry",
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
# side of every resampled bank entry
SAMPLE_RESOLUTION = 32


class NoDetectionError(RuntimeError):
    """The track has no temporal interval or no usable 3D observations."""


@dataclass(frozen=True)
class PipelineConfig:
    """Run settings, checked here for library callers and config files alike: each field takes
    a value of its default's kind, stored as its default's type, and a bool is never a number."""

    capacity: int = 50
    zeta: float = 1.0
    # both filters' kernel size, so one convolution serves both branches
    kernel_size: int = 3
    updates_enabled: bool = True

    def __post_init__(self) -> None:
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            is_bool = isinstance(value, (bool, np.bool_))
            number = numbers.Integral if kind is int else numbers.Real
            if not (is_bool if kind is bool else not is_bool and isinstance(value, number)):
                raise ParameterError(f"{f.name} must be of type {kind.__name__}, got {value!r}")
            object.__setattr__(self, f.name, kind(value))
        if self.capacity < 1:
            raise ParameterError(f"capacity must be >= 1, got {self.capacity}")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ParameterError(f"kernel_size must be odd and positive, got {self.kernel_size}")
        if not 0 < self.zeta < np.inf:
            raise ParameterError(f"zeta must be positive and finite, got {self.zeta}")


@dataclass(frozen=True, eq=False)
class QuerySpec(ArrayValue):
    """The visual query: a finite (H, W, C) feature map with the target's non-empty binary mask,
    both kept read-only."""

    feature: np.ndarray
    mask: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "feature", checked_array(self.feature, "query features", (-1, -1, -1)))
        object.__setattr__(self, "mask", checked_mask(self.mask, "query mask", self.feature.shape[:2]))
        if not self.mask.any():
            raise EmptyInputError("query mask must be non-empty")


@dataclass(frozen=True, eq=False)
class TrackOutput(ArrayValue):
    """Everything a query run produces: ``results[t]`` is frame t, and the interval and the
    ``displacements`` keys count frames the same way.

    The track contract, checked here for the pipeline, the file loader and ``replace`` alike:
    at least one ``fusion.SegmentationResult``, all of one (H, W), each map of probabilities in
    [0, 1]; an interval that is None or a ``fusion.TemporalInterval`` inside the frames [0, n);
    displacements that are a mapping whose keys are frames of the track, each mapped to a finite
    3-vector; a ``world_point`` that is None or a finite 3-vector. A value of the wrong type is a
    ParameterError that names its field. The results are kept as a tuple and the displacements
    as a read-only mapping, in frame order, of read-only vectors, so the contract holds for the
    value's whole life.
    """

    results: tuple[fusion.SegmentationResult, ...]
    interval: Optional[fusion.TemporalInterval]
    world_point: Optional[np.ndarray] = None
    displacements: Mapping[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.results, Iterable):
            raise ParameterError(f"results must be an iterable, got {type(self.results).__name__}")
        results = tuple(self.results)
        n = len(results)
        if not n:
            raise EmptyInputError("a track needs at least one result")
        for t, result in enumerate(results):
            if not isinstance(result, fusion.SegmentationResult):
                raise ParameterError(f"result {t} must be a fusion.SegmentationResult, got {type(result).__name__}")
            if result.prob.shape != results[0].prob.shape:
                raise DimensionError(
                    f"result {t}'s map is {result.prob.shape}, not result 0's (H, W) {results[0].prob.shape}"
                )
            # NaN fails both comparisons, as min and max propagate it
            if not (result.prob.min() >= 0.0 and result.prob.max() <= 1.0):
                raise ParameterError(f"result {t}'s map must hold probabilities in [0, 1]")
        if self.interval is not None and not isinstance(self.interval, fusion.TemporalInterval):
            raise ParameterError(f"interval must be None or a TemporalInterval, got {type(self.interval).__name__}")
        if not isinstance(self.displacements, Mapping):
            raise ParameterError(f"displacements must be a mapping, got {type(self.displacements).__name__}")
        ends = None if self.interval is None else [self.interval.start_frame, self.interval.end_frame]
        if ends and (ends[0] < 0 or ends[1] >= n):
            raise ParameterError(f"interval {ends} leaves the track's frames [0, {n})")
        for t in self.displacements:
            if not 0 <= as_index(t, "displacement frame") < n:
                raise ParameterError(f"displacement frame {t!r} is not a frame of the track, [0, {n})")
        deltas = {int(t): checked_array(v, f"frame {t}'s displacement", (3,))
                  for t, v in sorted(self.displacements.items())}
        object.__setattr__(self, "results", results)
        object.__setattr__(self, "displacements", MappingProxyType(deltas))
        if self.world_point is not None:
            object.__setattr__(self, "world_point", checked_array(self.world_point, "world_point", (3,)))


def crop_entry(frame_feature: np.ndarray, prob: np.ndarray, bbox: Sequence[int]) -> BankEntry:
    """The bank entry of one square window around a box, shared by both banks.

    The window is centered on the box (x_min, y_min, x_max, y_max) and its
    side steps down the crop ladder from 1.5x the box's longer side (see
    ``core.ladder_crop``). The feature crop and the ``prob`` crop are
    resampled bilinearly to SAMPLE_RESOLUTION together, as one stacked
    (side, side, C + 1) map. The entry's mask is the ``prob`` crop resampled
    by nearest neighbor and thresholded at ``fusion.MASK_THRESHOLD``, as a
    result's mask is, its region the resampled ``prob`` clipped to [0, 1],
    and its label the window's Gaussian (sigma = side / 6), resampled alike.
    """
    frame_feature = np.asarray(frame_feature, dtype=np.float64)
    prob = np.asarray(prob, dtype=np.float64)
    if frame_feature.shape[:2] != prob.shape:
        raise DimensionError(f"feature {frame_feature.shape[:2]} and probability map {prob.shape} dims differ")
    if not (prob >= fusion.MASK_THRESHOLD).any():
        raise EmptyInputError("cannot cut an entry for an empty mask")
    x_min, y_min, x_max, y_max = bbox
    if x_max < x_min or y_max < y_min:
        raise EmptyInputError(f"degenerate bounding box {tuple(bbox)}")
    longest = max(x_max - x_min + 1, y_max - y_min + 1)
    center = ((y_min + y_max) / 2.0, (x_min + x_max) / 2.0)
    side, (crop_f, crop_p) = ladder_crop((frame_feature, prob), center, longest)
    out_hw = (SAMPLE_RESOLUTION, SAMPLE_RESOLUTION)
    # bilinear weights act on each channel alone, so the stacked resample is bit-equal to two
    resampled = bilinear_resize(np.concatenate([crop_f, crop_p[:, :, None]], axis=2), out_hw)
    return BankEntry(
        resampled[:, :, :-1],
        (nearest_resize(crop_p, out_hw) >= fusion.MASK_THRESHOLD).astype(np.uint8),
        np.clip(resampled[:, :, -1], 0.0, 1.0),
        glm._resampled_label(side, SAMPLE_RESOLUTION),
    )


def _augmented_query_entries(base: BankEntry) -> list[BankEntry]:
    """The base entry flipped left-right and shifted by (+2, +2) with zero fill, both in all
    four maps, and its feature alone blurred by a 3x3 box."""
    maps = (base.feature, base.mask, base.target_region, base.label)
    shifted = [np.zeros_like(m) for m in maps]
    for out, m in zip(shifted, maps):
        out[2:, 2:] = m[:-2, :-2]
    return [
        BankEntry(*(m[:, ::-1] for m in maps)),
        BankEntry(*shifted),
        replace(base, feature=_box_blur_3x3(base.feature)),
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

    amm_entries: tuple[BankEntry, ...]
    glm_static: BankEntry
    glm_dynamic: tuple[BankEntry, ...]
    seg_kernel: np.ndarray
    track_kernel: np.ndarray
    # tracking peaks of the frames kept so far, read by glm_update_source
    responses: tuple[float, ...] = ()

    @property
    def glm_samples(self) -> tuple[BankEntry, ...]:
        return (self.glm_static,) + self.glm_dynamic

    @cached_property
    def inference_kernel(self) -> np.ndarray:
        """The (K, K, C, 2) kernel of one frame's convolution: the channel-mean seg kernel, then the track kernel."""
        seg_mean = self.seg_kernel.mean(axis=3, keepdims=True)
        return frozen_in_place(np.concatenate([seg_mean, self.track_kernel], axis=3))

    @property
    def finite(self) -> bool:
        return bool(np.isfinite(self.seg_kernel).all() and np.isfinite(self.track_kernel).all())

    def admit(self, entry: BankEntry, capacity: int) -> "_Memory":
        """Both banks with the one entry appended, trimmed first-in-first-out; filters unchanged."""
        return replace(
            self,
            amm_entries=_newest(self.amm_entries + (entry,), capacity),
            glm_dynamic=_newest(self.glm_dynamic + (entry,), capacity - 1),
        )


class Pipeline:
    """One query's stateful run over a frame sequence.

    ``memory`` is the current bank value and ``initial_memory`` the
    post-initialization one a halt returns to.
    """

    def __init__(self, query: QuerySpec, cfg: PipelineConfig = PipelineConfig()):
        self.cfg = cfg

        # the query mask is certain: it is its own probability map; the base
        # entry is the first appearance entry and the static snapshot
        base = crop_entry(query.feature, query.mask, min_bounding_rect(query.mask))
        amm_entries = _newest((base, *_augmented_query_entries(base)), cfg.capacity)
        shape = (cfg.kernel_size, cfg.kernel_size, query.feature.shape[2])
        seg_kernel = amm.steepest_descent(np.zeros(shape + (3,)), amm_entries, ITERS_INIT)
        track_kernel = glm.optimize_filter(np.zeros(shape + (1,)), (base,), ITERS_INIT)
        self.memory = self.initial_memory = _Memory(amm_entries, base, (), seg_kernel, track_kernel)
        self._frame_shape = query.feature.shape

        self.halted = False
        self.results: list[fusion.SegmentationResult] = []

    def _is_update_frame(self, frame_index: int) -> bool:
        return frame_index < DENSE_UPDATE_HORIZON or frame_index % UPDATE_STRIDE == 0

    def _halt_triggered(self) -> bool:
        """The mean confidence of the last HALT_WINDOW frames is below HALT_THRESHOLD."""
        recent = [r.s_conf for r in self.results[-HALT_WINDOW:]]
        return len(recent) == HALT_WINDOW and float(np.mean(recent)) < HALT_THRESHOLD

    def step_frame(self, frame_feature: np.ndarray, frame_index: int) -> fusion.SegmentationResult:
        """Run frame ``frame_index`` through both branches, fuse, and maybe update the banks.

        Frames are stepped 0, 1, 2, ... in order: an index that is not an
        integer (``core.as_index``) or not the number of frames stepped so
        far, or a non-finite frame, raises ParameterError and a frame whose
        shape differs from the query's DimensionError, before any state changes.
        """
        if as_index(frame_index, "frame index") != len(self.results):
            raise ParameterError(f"frame index {frame_index} is not the next frame, {len(self.results)}")
        frame_feature = checked_array(frame_feature, f"frame {frame_index} features", self._frame_shape)
        # outputs: appearance logit and tracking score (see the module docstring)
        out = conv2d(frame_feature, self.memory.inference_kernel)
        score = out[:, :, 1]
        # the fresh map is frozen where it is made, so the result keeps it without a copy
        result = fusion.SegmentationResult(frozen_in_place(fusion.fuse(out[:, :, 0], score)))
        self.results.append(result)

        if self.cfg.updates_enabled and not self.halted:
            if self._halt_triggered():
                self.memory, self.halted = self.initial_memory, True
                return result
            candidate = replace(self.memory, responses=self.memory.responses + (float(score.max()),))
            if self._is_update_frame(frame_index) and amm.amm_admit(result):
                candidate = self._ingest(candidate, frame_feature, result)
            # a finite frame can be so large that a refit overflows
            if candidate.finite:
                self.memory = candidate
        return result

    def _ingest(
        self, memory: _Memory, frame_feature: np.ndarray, result: fusion.SegmentationResult
    ) -> _Memory:
        """``memory`` with the frame added to both banks and both filters refit.

        A refit on a finite but huge frame may overflow; it does so without a
        warning, as ``step_frame`` drops a non-finite memory whole.
        """
        memory = memory.admit(crop_entry(frame_feature, result.prob, result.bbox), self.cfg.capacity)
        source = glm.glm_update_source(memory.responses)
        view = memory.glm_samples if source == "dynamic" else (memory.glm_static,)
        with np.errstate(over="ignore", invalid="ignore"):
            return replace(
                memory,
                seg_kernel=amm.steepest_descent(memory.seg_kernel, memory.amm_entries, ITERS_UPDATE),
                track_kernel=glm.optimize_filter(memory.track_kernel, view, ITERS_UPDATE),
            )

    def finalize_2d(self) -> TrackOutput:
        """Temporal localization over the recorded confidences: the track of every frame stepped."""
        if not self.results:
            raise EmptyInputError("no frames have been stepped")
        interval = fusion.temporal_localize([r.s_conf for r in self.results])
        return TrackOutput(self.results, interval)

    def run(self, frames: Sequence[np.ndarray]) -> TrackOutput:
        """Step every frame in order, as frames 0, 1, 2, ..., and finalize."""
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
    valid depth at its centroid. ``cameras[t]`` is frame t's camera, None
    where the frame has none, and its depth map must be on the track's
    canvas; ``TrackOutput`` keeps the interval inside the track's frames.
    """
    canvas = track.results[0].prob.shape
    for t, camera in enumerate(cameras):
        if camera is not None and camera.depth.shape != canvas:
            raise DimensionError(f"camera {t}'s depth map is {camera.depth.shape}, not the track's (H, W) {canvas}")
    if track.interval is None:
        raise NoDetectionError("track has no temporal interval")
    t_eta = geo3d.align_sim3(*alignment_pairs)

    frames: list[int] = []
    points: list[np.ndarray] = []
    weights: list[float] = []
    for idx in range(track.interval.start_frame, track.interval.end_frame + 1):
        result = track.results[idx]
        if result.s_conf == 0.0 or idx >= len(cameras) or cameras[idx] is None:
            continue
        camera = cameras[idx]
        rows, cols = np.nonzero(result.mask)
        u, v = float(cols.mean()), float(rows.mean())
        try:
            points.append(geo3d.backproject(camera, u, v, t_eta))
        except geo3d.InvalidSampleError:
            continue
        s_conf = geo3d.semantic_confidence(result)
        tau = float(camera.depth_uncertainty[int(round(v)), int(round(u))])
        weights.append(s_conf * geo3d.geometric_confidence(tau, cfg.zeta))
        frames.append(idx)

    if not frames:
        raise NoDetectionError("no interval frame had a usable mask and depth")
    world_point = geo3d.aggregate(points, weights)
    # every displacement starts from the one point taken back to the reconstruction frame
    recon_point = t_eta.inverse().apply(world_point)
    displacements = {idx: geo3d.relative_displacement(cameras[idx], recon_point) for idx in frames}
    return replace(track, world_point=world_point, displacements=displacements)
