"""Scenario, track, and config files.

A scenario or track file is one uncompressed zip archive in the ``.npz``
layout: a ``document.json`` member holding the ``version``, the ``kind``
and every scalar and small integer list, and one ``.npy`` member for each
kind of tensor, the frames' tensors stacked along a leading axis. Float
tensors are little-endian float64 (``<f8``) and masks one byte per pixel
(``u1``). Each member's dtype and shape are checked against what the
document and the other members imply before it is used, so the loaded
arrays are the stored bits and a load/save cycle is byte-identical.
Members are written in sorted order, each stamped with the same fixed
date, so a file's bytes depend on its contents alone. The loader accepts
no document field and no member it does not read.

A config file holds no tensor and stays one JSON document with the same
``version`` and ``kind`` header; ``PipelineConfig`` checks its fields'
types and ranges, for the library and the file alike.

A file stores nothing that follows from what it stores: the loader reads
every shape from the stacked tensors (a scenario's N, H, W and C from
``features``, a track's N, H and W from ``prob``), derives a scenario frame's
``gt_bbox`` and the scenario's ``gt_interval`` from the ground-truth masks,
and a track frame's mask, ``bbox`` and ``s_conf`` from its probability map
(``fusion.extract_result``). A scenario file holds the clip and the query,
not the generator's seed and parameters that made them. Files of an
older version are not read and must be regenerated; the README's
"Format change" section lists the versions. Writes go to a
temporary file in the target directory and are renamed into place, so a
reader never sees a partial file.

The full schema is documented in the repository README.
"""

from __future__ import annotations

import json
import os
import tempfile
import zipfile
from dataclasses import asdict, fields
from typing import Any, BinaryIO, Callable, Optional

import numpy as np

from .core import ParameterError
from .fusion import TemporalInterval, extract_result
from .geo3d import CameraFrame
from .pipeline import PipelineConfig, QuerySpec, TrackOutput
from .scenario import FrameData, Scenario

__all__ = [
    "SchemaError",
    "FORMAT_VERSION",
    "save_scenario",
    "load_scenario",
    "save_track",
    "load_track",
    "save_config",
    "load_config",
]

FORMAT_VERSION = 6

# how to replace a file of another version, by kind
_UPGRADE = {
    "scenario": "regenerate it with `vql gen`",
    "track": "regenerate it with `vql run2d`/`vql run3d`",
    "config": f"write version {FORMAT_VERSION}",
}

# the archive member holding a scenario's or track's JSON document
_DOCUMENT = "document.json"
# every member's zip timestamp, the earliest a zip can hold, so bytes do not depend on the clock
_ZIP_DATE = (1980, 1, 1, 0, 0, 0)


class SchemaError(ValueError):
    """A document is malformed; the message names the offending field."""


def _atomic_write(path: str, write: Callable[[BinaryIO], None]) -> None:
    """Call ``write`` on a temporary file beside ``path``, then rename it to ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    except OSError as exc:
        # name the file the caller asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _json_bytes(document: dict) -> bytes:
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode("ascii")


def _write_archive(path: str, document: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write ``document`` and one ``<name>.npy`` member per array to exactly ``path``.

    Members are stored uncompressed, in sorted order, each stamped with
    ``_ZIP_DATE``.
    """
    members: dict[str, Any] = {_DOCUMENT: _json_bytes(document)}
    members.update((f"{name}.npy", arr) for name, arr in arrays.items())

    def write(handle: BinaryIO) -> None:
        with zipfile.ZipFile(handle, "w") as archive:
            for name in sorted(members):
                info = zipfile.ZipInfo(name, date_time=_ZIP_DATE)
                with archive.open(info, "w", force_zip64=True) as member:
                    value = members[name]
                    if isinstance(value, bytes):
                        member.write(value)
                    else:
                        np.lib.format.write_array(member, value, allow_pickle=False)

    _atomic_write(path, write)


def _read_archive(
    path: str, kind: str, keys: tuple[str, ...], members: tuple[str, ...], optional: tuple[str, ...] = ()
) -> tuple[dict, dict[str, np.ndarray]]:
    """The document and the arrays of the ``kind`` archive at ``path``.

    The document's header is checked, and a field other than the header and
    ``keys`` is an error. Each name in ``members`` must be an array member,
    each in ``optional`` may be, and any other member is an error. The
    arrays come back as stored; ``_member`` checks each one.
    """
    with open(path, "rb") as handle:
        try:
            archive = np.load(handle, allow_pickle=False)
        except (ValueError, EOFError, zipfile.BadZipFile):
            archive = None
        if not isinstance(archive, np.lib.npyio.NpzFile):
            _check_legacy(path, kind)
            raise SchemaError(f"{path}: not a version {FORMAT_VERSION} {kind} file (a zip archive)")
        with archive:
            names = set(archive.zip.namelist())
            if _DOCUMENT not in names:
                raise SchemaError(f"{path}.{_DOCUMENT}: missing member")
            try:
                document = json.loads(archive.zip.read(_DOCUMENT))
            except (ValueError, zipfile.BadZipFile):
                raise SchemaError(f"{path}.{_DOCUMENT}: not valid JSON") from None
            document = _container(document, dict, path)
            _check_header(document, kind, path)
            unknown = sorted(set(document) - {"version", "kind", *keys})
            if unknown:
                raise SchemaError(f"{path}.{unknown[0]}: unknown field")
            unknown = sorted(names - {_DOCUMENT} - {f"{name}.npy" for name in members + optional})
            if unknown:
                raise SchemaError(f"{path}.{unknown[0]}: unknown member")
            arrays = {}
            for name in members + optional:
                if f"{name}.npy" not in names:
                    if name in members:
                        raise SchemaError(f"{path}.{name}: missing member")
                    continue
                try:
                    arrays[name] = archive[f"{name}.npy"]
                except (ValueError, EOFError, zipfile.BadZipFile) as exc:
                    raise SchemaError(f"{path}.{name}: unreadable member ({exc})") from None
                if not isinstance(arrays[name], np.ndarray):
                    raise SchemaError(f"{path}.{name}: expected an .npy array")
    return document, arrays


def _check_legacy(path: str, kind: str) -> None:
    """Name the version of a file that is one JSON document, as versions 1-3 were."""
    try:
        document = _load_json(path)
    except ValueError:
        return
    _check_header(document, kind, path)


def _member(arrays: dict[str, np.ndarray], name: str, dtype: str, shape: tuple, path: str) -> np.ndarray:
    """The array ``name``: exactly ``dtype`` (``<f8`` or ``u1``) and of ``shape``
    (None takes any length on that axis), every float finite and every mask byte 0 or 1."""
    arr = arrays[name]
    where = f"{path}.{name}"
    if arr.dtype != np.dtype(dtype):
        raise SchemaError(f"{where}: expected dtype {dtype}, got {arr.dtype.str}")
    if arr.ndim != len(shape) or any(want not in (None, got) for want, got in zip(shape, arr.shape)):
        raise SchemaError(f"{where}: expected shape {shape}, got {arr.shape}")
    if dtype == "u1":
        if not (arr <= 1).all():
            raise SchemaError(f"{where}: mask values must be 0 or 1")
    elif not np.isfinite(arr).all():
        raise SchemaError(f"{where}: contains non-finite values")
    return arr


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON (line {exc.lineno}, column {exc.colno})") from exc
    return _container(document, dict, path)


def _container(value: Any, kind: type, path: str) -> Any:
    """``value`` if it is a ``kind``: dict (a JSON object), list, or object for any value."""
    if not isinstance(value, kind):
        expected = "an object" if kind is dict else "a list"
        raise SchemaError(f"{path}: expected {expected}, got {type(value).__name__}")
    return value


def _expect(document: dict, key: str, path: str, kind: type = object) -> Any:
    if key not in document:
        raise SchemaError(f"{path}.{key}: missing required field")
    return _container(document[key], kind, f"{path}.{key}")


def _check_header(document: dict, kind: str, path: str) -> None:
    version = _expect(document, "version", path)
    if version != FORMAT_VERSION:
        raise SchemaError(f"{path}.version: expected {FORMAT_VERSION}, got {version!r}; {_UPGRADE[kind]}")
    actual = _expect(document, "kind", path)
    if actual != kind:
        raise SchemaError(f"{path}.kind: expected {kind!r}, got {actual!r}")


def _mask_bytes(mask: np.ndarray, path: str) -> np.ndarray:
    """A mask as one byte per pixel, refusing any value but 0 and 1."""
    mask = np.asarray(mask)
    if not ((mask == 0) | (mask == 1)).all():
        raise SchemaError(f"{path}: mask values must be 0 or 1")
    return mask.astype("u1")


def _stack(rows: list, shape: tuple[int, ...], dtype: str = "<f8") -> np.ndarray:
    """Tensors of ``shape`` stacked along a new leading axis, which is empty when ``rows`` is."""
    return np.asarray(rows, dtype=dtype).reshape(len(rows), *shape)


def _int_vector(values: Any, n: Optional[int], path: str) -> tuple[int, ...]:
    """A list of n integers (of any length when n is None) as a tuple; a bool is not an integer."""
    if not (
        isinstance(values, list)
        and (n is None or len(values) == n)
        and all(isinstance(v, int) and not isinstance(v, bool) for v in values)
    ):
        count = "" if n is None else f"{n} "
        raise SchemaError(f"{path}: expected a list of {count}integers, got {values!r}")
    return tuple(values)


def _frame_list(values: Any, n_frames: int, path: str) -> tuple[int, ...]:
    """A list of increasing frame indices from 0, each below ``n_frames``."""
    frames = _int_vector(values, None, path)
    increasing = all(a < b for a, b in zip((-1, *frames), frames))
    if not increasing or (frames and frames[-1] >= n_frames):
        raise SchemaError(f"{path}: expected increasing frame indices from 0 below {n_frames}, got {list(frames)}")
    return frames


def _interval(values: Any, path: str) -> tuple[int, int]:
    """A list of 2 integers [start, end] with start <= end."""
    start, end = _int_vector(values, 2, path)
    if start > end:
        raise SchemaError(f"{path}: expected start <= end, got {[start, end]}")
    return start, end


def _finite(value: Any, path: str) -> float:
    """A finite JSON number as a float; a bool is not a number, and ``json`` reads NaN and Infinity."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number, got {value!r}")
    if not abs(value) <= np.finfo(np.float64).max:
        raise SchemaError(f"{path}: expected a finite number, got {value!r}")
    return float(value)


# -- scenario ---------------------------------------------------------------

_SCENARIO_MEMBERS = (
    "features",
    "gt_masks",
    "query_feature",
    "query_mask",
    "poses",
    "intrinsics",
    "depths",
    "depth_uncertainties",
)
# the optional members and their shapes; an alignment holds any number of matched points,
# so its two members come together and with the same number of rows
_SCENARIO_OPTIONAL = {"gt_point": (3,), "alignment_src": (None, 3), "alignment_dst": (None, 3)}


def _check_alignment(arrays: dict[str, np.ndarray], path: str) -> None:
    """An alignment in ``arrays`` holds both point sets, with as many rows."""
    src, dst = arrays.get("alignment_src"), arrays.get("alignment_dst")
    if (src is None) != (dst is None):
        missing = "alignment_dst" if dst is None else "alignment_src"
        raise SchemaError(f"{path}.{missing}: missing member; an alignment holds both point sets")
    if src is not None and len(src) != len(dst):
        raise SchemaError(f"{path}.alignment_dst: expected shape ({len(src)}, 3) like alignment_src, got {dst.shape}")


def save_scenario(scenario: Scenario, path: str) -> None:
    h, w, c = scenario.query.feature.shape
    camera_frames = [i for i, frame in enumerate(scenario.frames) if frame.camera is not None]
    cameras = [scenario.frames[i].camera for i in camera_frames]
    arrays = {
        "features": _stack([frame.feature for frame in scenario.frames], (h, w, c)),
        "gt_masks": _stack(
            [_mask_bytes(frame.gt_mask, f"{path}.frames[{i}].gt_mask") for i, frame in enumerate(scenario.frames)],
            (h, w),
            "u1",
        ),
        "query_feature": np.asarray(scenario.query.feature, dtype="<f8"),
        "query_mask": _mask_bytes(scenario.query.mask, f"{path}.query.mask"),
        "poses": _stack([camera.pose for camera in cameras], (4, 4)),
        "intrinsics": _stack([camera.intrinsics for camera in cameras], (3, 3)),
        "depths": _stack([camera.depth for camera in cameras], (h, w)),
        "depth_uncertainties": _stack([camera.depth_uncertainty for camera in cameras], (h, w)),
    }
    for name in _SCENARIO_OPTIONAL:
        value = getattr(scenario, name)
        if value is not None:
            arrays[name] = np.asarray(value, dtype="<f8")
    _check_alignment(arrays, path)
    document = {"version": FORMAT_VERSION, "kind": "scenario", "camera_frames": camera_frames}
    _write_archive(path, document, arrays)


def load_scenario(path: str) -> Scenario:
    """A scenario file; its frame count N, canvas (H, W) and channels C are the shape of ``features``."""
    keys = ("camera_frames",)
    document, arrays = _read_archive(path, "scenario", keys, _SCENARIO_MEMBERS, tuple(_SCENARIO_OPTIONAL))
    features = _member(arrays, "features", "<f8", (None,) * 4, path)
    n, h, w, c = features.shape
    gt_masks = _member(arrays, "gt_masks", "u1", (n, h, w), path)
    camera_frames = _frame_list(_expect(document, "camera_frames", path), n, f"{path}.camera_frames")
    k = len(camera_frames)
    cameras = dict(
        zip(
            camera_frames,
            map(
                CameraFrame,
                _member(arrays, "poses", "<f8", (k, 4, 4), path),
                _member(arrays, "intrinsics", "<f8", (k, 3, 3), path),
                _member(arrays, "depths", "<f8", (k, h, w), path),
                _member(arrays, "depth_uncertainties", "<f8", (k, h, w), path),
            ),
        )
    )
    query = QuerySpec(
        _member(arrays, "query_feature", "<f8", (h, w, c), path),
        _member(arrays, "query_mask", "u1", (h, w), path),
    )
    optional = {
        name: _member(arrays, name, "<f8", shape, path)
        for name, shape in _SCENARIO_OPTIONAL.items()
        if name in arrays
    }
    _check_alignment(optional, path)
    return Scenario(
        frames=[FrameData(features[i], gt_masks[i], cameras.get(i)) for i in range(n)],
        query=query,
        **optional,
    )


# -- track ------------------------------------------------------------------


def save_track(track: TrackOutput, path: str) -> None:
    n = len(track.results)
    if not n:
        raise SchemaError(f"{path}.prob: expected at least one frame, got none")
    h, w = track.results[0].prob.shape
    # what the loader would refuse is refused before anything is written
    displacement_frames = _frame_list([int(t) for t in sorted(track.displacements)], n, f"{path}.displacement_frames")
    arrays = {
        "prob": _probabilities(_stack([result.prob for result in track.results], (h, w)), path),
        "deltas": _stack([track.displacements[t] for t in displacement_frames], (3,)),
    }
    if track.world_point is not None:
        arrays["world_point"] = np.asarray(track.world_point, dtype="<f8")
    document = {
        "version": FORMAT_VERSION,
        "kind": "track",
        "peaks": _peaks([float(p) for p in track.peaks], n, path),
        "interval": None
        if track.interval is None
        else [track.interval.start_frame, track.interval.end_frame],
        "displacement_frames": list(displacement_frames),
    }
    _write_archive(path, document, arrays)


def _probabilities(prob: np.ndarray, path: str) -> np.ndarray:
    """``prob`` if every value lies in [0, 1]; NaN does not (min and max propagate it)."""
    if not (prob.min(initial=0.0) >= 0.0 and prob.max(initial=1.0) <= 1.0):
        raise SchemaError(f"{path}.prob: expected probabilities in [0, 1]")
    return prob


def _peaks(values: list, n_frames: int, path: str) -> list[float]:
    """One finite tracking peak per frame."""
    peaks = [_finite(p, f"{path}.peaks[{i}]") for i, p in enumerate(values)]
    if len(peaks) != n_frames:
        raise SchemaError(f"{path}.peaks: expected one peak per frame, {n_frames}, got {len(peaks)}")
    return peaks


def load_track(path: str) -> TrackOutput:
    """A track file; its frame count N and canvas (H, W) are the shape of ``prob``."""
    keys = ("peaks", "interval", "displacement_frames")
    document, arrays = _read_archive(path, "track", keys, ("prob", "deltas"), ("world_point",))
    prob = _probabilities(_member(arrays, "prob", "<f8", (None,) * 3, path), path)
    n = len(prob)
    if not n:
        # a track is per-frame results; save_track refuses to write one without frames
        raise SchemaError(f"{path}.prob: expected at least one frame, got none")
    peaks = _peaks(_expect(document, "peaks", path, list), n, path)
    displacement_frames = _frame_list(_expect(document, "displacement_frames", path), n, f"{path}.displacement_frames")
    deltas = _member(arrays, "deltas", "<f8", (len(displacement_frames), 3), path)
    interval = _expect(document, "interval", path)
    return TrackOutput(
        [extract_result(p) for p in prob],
        None if interval is None else TemporalInterval(*_interval(interval, f"{path}.interval")),
        peaks,
        _member(arrays, "world_point", "<f8", (3,), path) if "world_point" in arrays else None,
        dict(zip(displacement_frames, deltas)),
    )


# -- config -----------------------------------------------------------------


def save_config(cfg: PipelineConfig, path: str) -> None:
    document = {"version": FORMAT_VERSION, "kind": "config"}
    document.update(asdict(cfg))
    _atomic_write(path, lambda handle: handle.write(_json_bytes(document) + b"\n"))


def load_config(path: str) -> PipelineConfig:
    """A config file; a field it leaves out keeps its default, and ``PipelineConfig`` checks the rest."""
    document = _load_json(path)
    _check_header(document, "config", path)
    values = {k: v for k, v in document.items() if k not in ("version", "kind")}
    unknown = sorted(set(values) - {f.name for f in fields(PipelineConfig)})
    if unknown:
        raise SchemaError(f"{path}.{unknown[0]}: unknown field")
    try:
        return PipelineConfig(**values)
    except ParameterError as exc:
        raise SchemaError(f"{path}: invalid config: {exc}") from exc
