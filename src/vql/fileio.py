"""Scenario, track, and config files.

All three are JSON documents (UTF-8, nested key/value objects) carrying a
mandatory ``version`` and ``kind`` field. Every tensor is one base64 string
of its row-major bytes: little-endian float64 (``<f8``) for float tensors,
one byte per pixel (``u1``) for masks. The shape follows from the
document's ``canvas``/``channels`` fields, so the loader checks the byte
count, and the bytes are the array's exact bits, so a load/save cycle is
byte-identical. A file stores nothing that follows from what it stores:
the loader derives a scenario frame's ``gt_bbox`` and the scenario's
``gt_interval`` from the ground-truth masks, and a track frame's mask,
``bbox`` and ``s_conf`` from its probability map (``fusion.extract_result``).
Version 3 dropped those stored copies and version 2 introduced the base64
encoding; files of an older version are not read and must be regenerated.
Writes go to a temporary file in the target directory and are renamed into
place, so a reader never sees a partial file.

The full schema is documented in the repository README.
"""

from __future__ import annotations

import base64
import json
import math
import os
import tempfile
import typing
from dataclasses import asdict
from typing import Any, Optional

import numpy as np

from .core import ParameterError
from .fusion import TemporalInterval, extract_result
from .geo3d import CameraFrame
from .pipeline import PipelineConfig, QuerySpec, TrackOutput
from .scenario import FrameData, Scenario, ScenarioParams

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

FORMAT_VERSION = 3

# how to replace a file of another version, by kind
_UPGRADE = {
    "scenario": "regenerate it with `vql gen`",
    "track": "regenerate it with `vql run2d`/`vql run3d`",
    "config": f"write version {FORMAT_VERSION}",
}


class SchemaError(ValueError):
    """A document is malformed; the message names the offending field."""


def _atomic_write(path: str, document: dict) -> None:
    """Write ``document`` as one line of JSON with sorted keys.

    The encoder streams its pieces to the file, so no copy of the whole
    text is built in memory.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(document, handle, sort_keys=True, separators=(",", ":"))
            handle.write("\n")
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


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


def _encode(arr: np.ndarray, dtype: str = "<f8") -> str:
    """The row-major ``dtype`` bytes of ``arr`` as one base64 string."""
    return base64.b64encode(np.ascontiguousarray(arr, dtype=dtype).tobytes()).decode("ascii")


def _decode(value: Any, dtype: str, shape: tuple[int, ...], path: str) -> np.ndarray:
    """A read-only view of shape ``shape`` on the ``dtype`` bytes a base64 string holds.

    A leading -1 in ``shape`` takes as many rows as the bytes fill.
    """
    if not isinstance(value, str):
        raise SchemaError(f"{path}: expected a base64 string, got {type(value).__name__}")
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError:
        raise SchemaError(f"{path}: not valid base64") from None
    row_bytes = np.dtype(dtype).itemsize * math.prod(shape[1:])
    if shape[0] == -1:
        if len(raw) % row_bytes:
            raise SchemaError(f"{path}: expected a multiple of {row_bytes} bytes, got {len(raw)}")
        shape = (len(raw) // row_bytes, *shape[1:])
    elif len(raw) != shape[0] * row_bytes:
        raise SchemaError(f"{path}: expected {shape[0] * row_bytes} bytes for shape {shape}, got {len(raw)}")
    return np.frombuffer(raw, dtype).reshape(shape)


def _tensor(value: Any, shape: tuple[int, ...], path: str) -> np.ndarray:
    """An owned float64 copy of a stored tensor, every value finite."""
    arr = _decode(value, "<f8", shape, path).astype(np.float64)
    if not np.isfinite(arr).all():
        raise SchemaError(f"{path}: contains non-finite values")
    return arr


def _encode_mask(mask: np.ndarray, path: str) -> str:
    """The one-byte encoding of a mask whose every value is 0 or 1."""
    mask = np.asarray(mask)
    if not ((mask == 0) | (mask == 1)).all():
        raise SchemaError(f"{path}: mask values must be 0 or 1")
    return _encode(mask, "u1")


def _mask(value: Any, shape: tuple[int, int], path: str) -> np.ndarray:
    """An owned uint8 copy of a stored mask, every byte 0 or 1."""
    arr = _decode(value, "u1", shape, path)
    if not (arr <= 1).all():
        raise SchemaError(f"{path}: mask values must be 0 or 1")
    return arr.astype(np.uint8)


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


def _interval(values: Any, path: str) -> tuple[int, int]:
    """A list of 2 integers [start, end] with start <= end."""
    start, end = _int_vector(values, 2, path)
    if start > end:
        raise SchemaError(f"{path}: expected start <= end, got {[start, end]}")
    return start, end


# the type of every scenario parameter (its keys are the required fields)
# and of every config field
_PARAM_TYPES = typing.get_type_hints(ScenarioParams)
_CONFIG_TYPES = typing.get_type_hints(PipelineConfig)


def _param(value: Any, hint: Any, path: str) -> Any:
    """One dataclass field checked against its type hint.

    The hints are str, int, float, bool, tuple[int, int],
    Optional[tuple[int, int]] and tuple[int, ...]. A bool field takes only
    true or false, a bool is neither an int nor a float, and a float field
    takes any other finite JSON number (``json`` reads NaN and Infinity).
    """
    if typing.get_origin(hint) is typing.Union:
        if value is None:
            return None
        (hint,) = (h for h in typing.get_args(hint) if h is not type(None))
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        return _int_vector(value, None if args[-1] is Ellipsis else len(args), path)
    accepted = (int, float) if hint is float else hint
    if isinstance(value, bool) != (hint is bool) or not isinstance(value, accepted):
        raise SchemaError(f"{path}: expected {hint.__name__}, got {value!r}")
    if hint is float and not abs(value) <= np.finfo(np.float64).max:
        raise SchemaError(f"{path}: expected a finite number, got {value!r}")
    return hint(value)


def _fields(raw: dict, hints: dict, path: str) -> dict:
    """The entries of ``raw``, each checked against the type hint of its field.

    An entry that names no field is an error.
    """
    unknown = sorted(set(raw) - set(hints))
    if unknown:
        raise SchemaError(f"{path}.{unknown[0]}: unknown field")
    return {name: _param(raw[name], hint, f"{path}.{name}") for name, hint in hints.items() if name in raw}


# -- scenario ---------------------------------------------------------------


def save_scenario(scenario: Scenario, path: str) -> None:
    frames = []
    for i, frame in enumerate(scenario.frames):
        camera = None
        if frame.camera is not None:
            camera = {
                "pose": _encode(frame.camera.pose),
                "intrinsics": _encode(frame.camera.intrinsics),
                "depth": _encode(frame.camera.depth),
                "depth_uncertainty": _encode(frame.camera.depth_uncertainty),
            }
        frames.append(
            {
                "feature": _encode(frame.feature),
                "gt_mask": _encode_mask(frame.gt_mask, f"{path}.frames[{i}].gt_mask"),
                "camera": camera,
            }
        )
    document = {
        "version": FORMAT_VERSION,
        "kind": "scenario",
        "seed": scenario.seed,
        "params": asdict(scenario.params),
        "query": {
            "feature": _encode(scenario.query.feature),
            "mask": _encode_mask(scenario.query.mask, f"{path}.query.mask"),
            "frame_index": scenario.query.frame_index,
        },
        "frames": frames,
        "gt_point": None if scenario.gt_point is None else _encode(scenario.gt_point),
        "alignment_src": None if scenario.alignment_src is None else _encode(scenario.alignment_src),
        "alignment_dst": None if scenario.alignment_dst is None else _encode(scenario.alignment_dst),
    }
    _atomic_write(path, document)


def load_scenario(path: str) -> Scenario:
    document = _load_json(path)
    _check_header(document, "scenario", path)
    raw_params = _expect(document, "params", path, dict)
    for name in _PARAM_TYPES:
        _expect(raw_params, name, f"{path}.params")
    params = ScenarioParams(**_fields(raw_params, _PARAM_TYPES, f"{path}.params"))
    h, w = params.canvas
    c = params.channels
    raw_query = _expect(document, "query", path, dict)
    query = QuerySpec(
        _tensor(_expect(raw_query, "feature", f"{path}.query"), (h, w, c), f"{path}.query.feature"),
        _mask(_expect(raw_query, "mask", f"{path}.query"), (h, w), f"{path}.query.mask"),
        _param(_expect(raw_query, "frame_index", f"{path}.query"), int, f"{path}.query.frame_index"),
    )
    frames = []
    raw_frames = _expect(document, "frames", path, list)
    if len(raw_frames) != params.n_frames:
        raise SchemaError(f"{path}.frames: expected {params.n_frames} entries")
    for i, raw in enumerate(raw_frames):
        where = f"{path}.frames[{i}]"
        raw = _container(raw, dict, where)
        camera = None
        if raw.get("camera") is not None:
            at = f"{where}.camera"
            raw_cam = _container(raw["camera"], dict, at)
            camera = CameraFrame(
                _tensor(_expect(raw_cam, "pose", at), (4, 4), f"{at}.pose"),
                _tensor(_expect(raw_cam, "intrinsics", at), (3, 3), f"{at}.intrinsics"),
                _tensor(_expect(raw_cam, "depth", at), (h, w), f"{at}.depth"),
                _tensor(_expect(raw_cam, "depth_uncertainty", at), (h, w), f"{at}.depth_uncertainty"),
            )
        frames.append(
            FrameData(
                _tensor(_expect(raw, "feature", where), (h, w, c), f"{where}.feature"),
                _mask(_expect(raw, "gt_mask", where), (h, w), f"{where}.gt_mask"),
                camera,
            )
        )
    gt_point = document.get("gt_point")
    src = document.get("alignment_src")
    dst = document.get("alignment_dst")
    return Scenario(
        seed=_param(_expect(document, "seed", path), int, f"{path}.seed"),
        params=params,
        frames=frames,
        query=query,
        gt_point=None if gt_point is None else _tensor(gt_point, (3,), f"{path}.gt_point"),
        alignment_src=None if src is None else _tensor(src, (-1, 3), f"{path}.alignment_src"),
        alignment_dst=None if dst is None else _tensor(dst, (-1, 3), f"{path}.alignment_dst"),
    )


# -- track ------------------------------------------------------------------


def save_track(track: TrackOutput, path: str) -> None:
    if not track.results:
        raise SchemaError("track has no per-frame results to save")
    h, w = track.results[0].prob.shape
    frames = [{"frame_index": result.frame_index, "prob": _encode(result.prob)} for result in track.results]
    displacements = [
        {"frame_index": int(idx), "delta": _encode(delta)}
        for idx, delta in sorted(track.displacements.items())
    ]
    document = {
        "version": FORMAT_VERSION,
        "kind": "track",
        "canvas": [h, w],
        "frames": frames,
        "peaks": [float(p) for p in track.peaks],
        "interval": None
        if track.interval is None
        else [track.interval.start_frame, track.interval.end_frame],
        "world_point": None if track.world_point is None else _encode(track.world_point),
        "displacements": displacements,
    }
    _atomic_write(path, document)


def load_track(path: str) -> TrackOutput:
    document = _load_json(path)
    _check_header(document, "track", path)
    h, w = _int_vector(_expect(document, "canvas", path), 2, f"{path}.canvas")
    results = []
    for i, raw in enumerate(_expect(document, "frames", path, list)):
        where = f"{path}.frames[{i}]"
        raw = _container(raw, dict, where)
        results.append(
            extract_result(
                _tensor(_expect(raw, "prob", where), (h, w), f"{where}.prob"),
                _param(_expect(raw, "frame_index", where), int, f"{where}.frame_index"),
            )
        )
    interval = document.get("interval")
    world_point = document.get("world_point")
    displacements = {}
    for i, entry in enumerate(_container(document.get("displacements", []), list, f"{path}.displacements")):
        where = f"{path}.displacements[{i}]"
        entry = _container(entry, dict, where)
        delta = _tensor(_expect(entry, "delta", where), (3,), f"{where}.delta")
        displacements[_param(_expect(entry, "frame_index", where), int, f"{where}.frame_index")] = delta
    return TrackOutput(
        results,
        None if interval is None else TemporalInterval(*_interval(interval, f"{path}.interval")),
        [_param(p, float, f"{path}.peaks[{i}]") for i, p in enumerate(_expect(document, "peaks", path, list))],
        None if world_point is None else _tensor(world_point, (3,), f"{path}.world_point"),
        displacements,
    )


# -- config -----------------------------------------------------------------


def save_config(cfg: PipelineConfig, path: str) -> None:
    document = {"version": FORMAT_VERSION, "kind": "config"}
    document.update(asdict(cfg))
    _atomic_write(path, document)


def load_config(path: str) -> PipelineConfig:
    """A config file; a field it leaves out keeps its default."""
    document = _load_json(path)
    _check_header(document, "config", path)
    fields = _fields({k: v for k, v in document.items() if k not in ("version", "kind")}, _CONFIG_TYPES, path)
    try:
        return PipelineConfig(**fields)
    except ParameterError as exc:
        raise SchemaError(f"{path}: invalid config: {exc}") from exc
