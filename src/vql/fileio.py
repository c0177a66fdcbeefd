"""Scenario, track, and config files.

A scenario or track file is one uncompressed zip archive in the ``.npz``
layout: a ``document.json`` member holding the ``version``, the ``kind``
and every scalar and small integer list, and one ``.npy`` member for each
kind of tensor, the frames' tensors stacked along a leading axis. Float
tensors are little-endian float64 (``<f8``) and masks one byte per pixel
(``u1``). Members are written in sorted order, each stamped with the same
fixed date, so a file's bytes depend on its contents alone and a
load/save cycle is byte-identical. A config file holds no tensor and
stays one JSON document with the same ``version`` and ``kind`` header.

An ``.npy`` member's header has one layout, ``_npy_header``'s: the version
1.0 header numpy writes for a C-order array. The loader refuses any other
header, byte for byte, and evaluates no header text.

The files check only their own rules. The loader accepts no document
field and no member it does not read, reads each member straight from the
file into its array, refuses a member that is compressed or whose bytes do
not match the CRC-32 the archive records, and checks each member's dtype
and shape against what the document and the other members imply, and
each document field's JSON type. Every other rule belongs to the value a
file holds and is checked as it is built, for the library and the loader
alike: ``Scenario`` (with ``QuerySpec`` and ``CameraFrame``),
``TrackOutput`` and ``PipelineConfig``. A loader reports a broken rule as
a ``SchemaError`` carrying its message, and a saver writes a value as it
is, its rules already held.
A loaded scenario holds its loaded stacks as they are, and a loaded
track's probability maps are read-only views of its stack.

A file stores nothing that follows from what it stores: the loader reads
every shape from the stacked tensors (a scenario's N, H, W and C from
``features``, a track's N, H and W from ``prob``), derives a scenario frame's
``gt_bbox`` and the scenario's ``gt_interval`` from the ground-truth masks,
and builds a track frame's ``fusion.SegmentationResult`` from its probability
map alone, which works out its mask and ``s_conf`` (and its ``bbox`` when
first read). A scenario file holds the clip and the query, not the
generator's seed and parameters that made them. Files of an older version
are not read and must be regenerated; the README's "Format change" section
lists the versions. Writes go to a temporary file in the target directory
and are renamed into place, so a reader never sees a partial file.

The full schema is documented in the repository README.
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
import tempfile
import zipfile
import zlib
from dataclasses import asdict, fields
from typing import Any, BinaryIO, Callable, Optional

import numpy as np

from .core import DimensionError, EmptyInputError, ParameterError
from .fusion import SegmentationResult, TemporalInterval
from .geo3d import CameraFrame
from .pipeline import PipelineConfig, QuerySpec, TrackOutput
from .scenario import Scenario

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

FORMAT_VERSION = 7

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


# an .npy file starts with this magic string, a 2-byte format version and, in version 1.0, a 2-byte header length
_NPY_MAGIC = b"\x93NUMPY"
_NPY_PREFIX_LEN = len(_NPY_MAGIC) + 4
# the dtype and the shape's integers (each fits int64) of a header in the text ``_npy_header`` writes
_NPY_FIELDS = re.compile(
    rb"\{'descr': '(<f8|\|u1)', 'fortran_order': False, 'shape': \((\d{1,19},|(?:\d{1,19}(?:, \d{1,19})*)?)\)"
)


def _npy_header(descr: str, shape: tuple[int, ...]) -> bytes:
    """The version 1.0 ``.npy`` header of a C-order ``descr`` array of ``shape``, laid out as numpy
    lays it out: the dict, room for the first axis to grow to 21 digits, then spaces and a newline
    that end the header on a multiple of 64 bytes, a whole 64 of them when it would end on one."""
    text = f"{{'descr': {descr!r}, 'fortran_order': False, 'shape': {shape!r}, }}"
    if shape:
        text += " " * (21 - len(str(shape[0])))
    pad = 64 - (_NPY_PREFIX_LEN + len(text) + 1) % 64
    return _NPY_MAGIC + struct.pack("<2BH", 1, 0, len(text) + pad + 1) + text.encode("ascii") + b" " * pad + b"\n"


def _write_archive(path: str, document: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write ``document`` and one ``<name>.npy`` member per array to exactly ``path``.

    Members are stored uncompressed, in sorted order, each stamped with
    ``_ZIP_DATE``. An array is written as its ``_npy_header`` and its
    C-order bytes, straight from its memory.
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
                        value = np.require(value, requirements="C")
                        member.write(_npy_header(value.dtype.str, value.shape))
                        member.write(memoryview(value))

    _atomic_write(path, write)


# a zip archive starts with a member's local header, or with the end record when it has no member
_ZIP_STARTS = (b"PK\x03\x04", b"PK\x05\x06")
# a member's local header: signature, versions, flags, method, date, CRC, sizes, name and extra lengths
_LOCAL_HEADER = struct.Struct("<4s5H3L2H")
# the bytes of member data read at a time: few calls, and each chunk is still in cache for its CRC
_CHUNK = 1 << 18


class _StoredMember:
    """The data of one stored archive member, read in order and folded into its CRC-32."""

    def __init__(self, handle: BinaryIO, info: zipfile.ZipInfo):
        if info.compress_type != zipfile.ZIP_STORED:
            raise ValueError("compressed; members must be stored uncompressed")
        if info.flag_bits & 0x1:
            raise ValueError("encrypted")
        if info.header_offset < 0:
            raise ValueError("local header outside the file")
        handle.seek(info.header_offset)
        header = handle.read(_LOCAL_HEADER.size)
        if len(header) != _LOCAL_HEADER.size:
            raise ValueError("local header outside the file")
        signature, _, _, method, _, _, _, _, _, name_length, extra_length = _LOCAL_HEADER.unpack(header)
        if signature != b"PK\x03\x04" or method != zipfile.ZIP_STORED:
            raise ValueError("bad local header")
        if handle.read(name_length) != info.filename.encode("ascii"):
            raise ValueError("local header names another member")
        handle.seek(extra_length, os.SEEK_CUR)
        self.handle, self.info = handle, info
        self.left = info.file_size
        self.crc = 0

    def read(self, size: int) -> bytes:
        data = self.handle.read(min(size, self.left))
        self.left -= len(data)
        self.crc = zlib.crc32(data, self.crc)
        return data

    def read_into(self, buffer: np.ndarray) -> None:
        """Fill the bytes of ``buffer`` from the member, a chunk at a time."""
        for start in range(0, buffer.size, _CHUNK):
            chunk = buffer[start : start + _CHUNK]
            if self.handle.readinto(chunk) != chunk.size:
                raise ValueError("data ends early")
            self.crc = zlib.crc32(chunk, self.crc)
        self.left -= buffer.size

    def check_end(self) -> None:
        """Refuse data left unread, and a CRC-32 other than the archive's."""
        if self.left:
            raise ValueError(f"{self.left} bytes after the data")
        if self.crc != self.info.CRC:
            raise ValueError(f"CRC-32 {self.crc:08x}, the archive records {self.info.CRC:08x}")


def _read_npy(member: _StoredMember) -> Optional[np.ndarray]:
    """The ``.npy`` array ``member`` holds, in a new writable C-order array; None when ``member`` is
    not an ``.npy`` file. Its header must be the one ``_npy_header`` lays out, byte for byte."""
    header = member.read(_NPY_PREFIX_LEN)
    if not header.startswith(_NPY_MAGIC):
        return None
    header += member.read(int.from_bytes(header[-2:], "little"))
    found = _NPY_FIELDS.match(header, _NPY_PREFIX_LEN)
    if found is not None:
        descr, shape = found[1].decode("ascii"), tuple(int(n) for n in found[2].split(b",") if n)
    if found is None or header != _npy_header(descr, shape):
        raise ValueError("not a version 1.0 .npy header of a C-order <f8 or |u1 array")
    dtype = np.dtype(descr)
    if member.left != math.prod(shape) * dtype.itemsize:
        raise ValueError(f"{member.left} data bytes for shape {shape} of {dtype.str}")
    arr = np.empty(shape, dtype)
    member.read_into(arr.reshape(-1).view(np.uint8))
    member.check_end()
    return arr


def _read_archive(
    path: str, kind: str, keys: tuple[str, ...], members: tuple[str, ...], optional: tuple[str, ...] = ()
) -> tuple[dict, dict[str, np.ndarray]]:
    """The document and the arrays of the ``kind`` archive at ``path``.

    The document's header is checked, and a field other than the header and
    ``keys`` is an error. Each name in ``members`` must be an array member,
    each in ``optional`` may be, and any other member is an error. Every
    member must be stored uncompressed and match its CRC-32. The arrays
    come back as stored, writable and C-ordered; ``_member`` checks each one.
    """
    with open(path, "rb") as handle:
        try:
            if handle.read(4) not in _ZIP_STARTS:
                raise zipfile.BadZipFile
            archive = zipfile.ZipFile(handle)
        # zipfile raises NotImplementedError for a member that claims a newer zip version
        except (zipfile.BadZipFile, EOFError, NotImplementedError):
            _check_legacy(path, kind)
            raise SchemaError(f"{path}: not a version {FORMAT_VERSION} {kind} file (a zip archive)") from None
        infos = {info.filename: info for info in archive.infolist()}
        if _DOCUMENT not in infos:
            raise SchemaError(f"{path}.{_DOCUMENT}: missing member")
        where = f"{path}.{_DOCUMENT}"
        try:
            member = _StoredMember(handle, infos[_DOCUMENT])
            text = member.read(member.left)
            member.check_end()
        except ValueError as exc:
            raise SchemaError(f"{where}: unreadable member ({exc})") from None
        try:
            document = json.loads(text)
        except ValueError:
            raise SchemaError(f"{where}: not valid JSON") from None
        document = _container(document, dict, path)
        _check_header(document, kind, path)
        unknown = sorted(set(document) - {"version", "kind", *keys})
        if unknown:
            raise SchemaError(f"{path}.{unknown[0]}: unknown field")
        unknown = sorted(set(infos) - {_DOCUMENT} - {f"{name}.npy" for name in members + optional})
        if unknown:
            raise SchemaError(f"{path}.{unknown[0]}: unknown member")
        arrays = {}
        for name in members + optional:
            where = f"{path}.{name}"
            if f"{name}.npy" not in infos:
                if name in members:
                    raise SchemaError(f"{where}: missing member")
                continue
            try:
                arr = _read_npy(_StoredMember(handle, infos[f"{name}.npy"]))
            except ValueError as exc:
                raise SchemaError(f"{where}: unreadable member ({exc})") from None
            if arr is None:
                raise SchemaError(f"{where}: expected an .npy array")
            arrays[name] = arr
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
    (None takes any length on that axis)."""
    arr = arrays[name]
    where = f"{path}.{name}"
    if arr.dtype != np.dtype(dtype):
        raise SchemaError(f"{where}: expected dtype {dtype}, got {arr.dtype.str}")
    if arr.ndim != len(shape) or any(want not in (None, got) for want, got in zip(shape, arr.shape)):
        raise SchemaError(f"{where}: expected shape {shape}, got {arr.shape}")
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


def _stack(rows: list, shape: tuple[int, ...], dtype: str = "<f8") -> np.ndarray:
    """Tensors of ``shape`` stacked along a new leading axis, which is empty when ``rows`` is."""
    return np.asarray(rows, dtype=dtype).reshape(len(rows), *shape)


def _frame_list(values: Any, n_frames: Optional[int], path: str) -> tuple[int, ...]:
    """A list of increasing integer frame indices from 0, each below ``n_frames`` unless it is None;
    a bool is not an integer."""
    frames = tuple(_container(values, list, path))
    integers = all(isinstance(v, int) and not isinstance(v, bool) for v in frames)
    increasing = integers and all(a < b for a, b in zip((-1, *frames), frames))
    if not increasing or (n_frames is not None and frames and frames[-1] >= n_frames):
        below = "" if n_frames is None else f" below {n_frames}"
        raise SchemaError(f"{path}: expected increasing frame indices from 0{below}, got {list(frames)}")
    return frames


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
# the optional members and their shapes; an alignment holds any number of matched points
_SCENARIO_OPTIONAL = {"gt_point": (3,), "alignment_src": (None, 3), "alignment_dst": (None, 3)}


def save_scenario(scenario: Scenario, path: str) -> None:
    """Write ``scenario``, whose contract ``Scenario`` has checked."""
    h, w = scenario.query.mask.shape
    camera_frames = [t for t, camera in enumerate(scenario.cameras) if camera is not None]
    cameras = [scenario.cameras[t] for t in camera_frames]
    arrays = {
        "features": np.asarray(scenario.features, dtype="<f8"),
        "gt_masks": np.asarray(scenario.gt_masks, dtype="u1"),
        "query_feature": np.asarray(scenario.query.feature, dtype="<f8"),
        "query_mask": np.asarray(scenario.query.mask, dtype="u1"),
        "poses": _stack([camera.pose for camera in cameras], (4, 4)),
        "intrinsics": _stack([camera.intrinsics for camera in cameras], (3, 3)),
        "depths": _stack([camera.depth for camera in cameras], (h, w)),
        "depth_uncertainties": _stack([camera.depth_uncertainty for camera in cameras], (h, w)),
    }
    for name in _SCENARIO_OPTIONAL:
        value = getattr(scenario, name)
        if value is not None:
            arrays[name] = np.asarray(value, dtype="<f8")
    document = {"version": FORMAT_VERSION, "kind": "scenario", "camera_frames": camera_frames}
    _write_archive(path, document, arrays)


def load_scenario(path: str) -> Scenario:
    """A scenario file; its frame count N, canvas (H, W) and channels C are the shape of ``features``,
    and a scenario that breaks ``Scenario``'s contract is a ``SchemaError`` carrying its message.
    It holds the loaded stacks themselves, read-only, and its frames are views of them."""
    keys = ("camera_frames",)
    document, arrays = _read_archive(path, "scenario", keys, _SCENARIO_MEMBERS, tuple(_SCENARIO_OPTIONAL))
    features = _member(arrays, "features", "<f8", (None,) * 4, path)
    n, h, w, c = features.shape
    gt_masks = _member(arrays, "gt_masks", "u1", (n, h, w), path)
    camera_frames = _frame_list(_expect(document, "camera_frames", path), n, f"{path}.camera_frames")
    k = len(camera_frames)
    shapes = {"poses": (4, 4), "intrinsics": (3, 3), "depths": (h, w), "depth_uncertainties": (h, w)}
    camera_members = [_member(arrays, name, "<f8", (k, *shape), path) for name, shape in shapes.items()]
    query_feature = _member(arrays, "query_feature", "<f8", (h, w, c), path)
    query_mask = _member(arrays, "query_mask", "u1", (h, w), path)
    optional = {
        name: _member(arrays, name, "<f8", shape, path)
        for name, shape in _SCENARIO_OPTIONAL.items()
        if name in arrays
    }
    # read-only stacks, which the scenario and its cameras keep as they are
    for arr in arrays.values():
        arr.flags.writeable = False
    try:
        cameras = dict(zip(camera_frames, map(CameraFrame, *camera_members)))
        query = QuerySpec(query_feature, query_mask)
        return Scenario(features, gt_masks, tuple(map(cameras.get, range(n))), query, **optional)
    except (DimensionError, EmptyInputError, ParameterError) as exc:
        raise SchemaError(f"{path}: invalid scenario: {exc}") from exc


# -- track ------------------------------------------------------------------


def save_track(track: TrackOutput, path: str) -> None:
    """Write ``track``, whose frames ``TrackOutput`` has checked."""
    arrays = {
        "prob": _stack([result.prob for result in track.results], track.results[0].prob.shape),
        "deltas": _stack(list(track.displacements.values()), (3,)),
    }
    if track.world_point is not None:
        arrays["world_point"] = np.asarray(track.world_point, dtype="<f8")
    document = {
        "version": FORMAT_VERSION,
        "kind": "track",
        "interval": None if track.interval is None else [track.interval.start_frame, track.interval.end_frame],
        "displacement_frames": list(track.displacements),
    }
    _write_archive(path, document, arrays)


def load_track(path: str) -> TrackOutput:
    """A track file; its frame count N and canvas (H, W) are the shape of ``prob``, and a
    track that breaks ``TrackOutput``'s contract is a ``SchemaError`` carrying its message."""
    keys = ("interval", "displacement_frames")
    document, arrays = _read_archive(path, "track", keys, ("prob", "deltas"), ("world_point",))
    prob = _member(arrays, "prob", "<f8", (None,) * 3, path)
    # that each is a frame of the track is TrackOutput's rule
    frames = _frame_list(_expect(document, "displacement_frames", path), None, f"{path}.displacement_frames")
    deltas = _member(arrays, "deltas", "<f8", (len(frames), 3), path)
    ends = _expect(document, "interval", path)
    # TemporalInterval refuses an end that is not an integer
    if ends is not None and not (isinstance(ends, list) and len(ends) == 2):
        raise SchemaError(f"{path}.interval: expected a list of 2 integers, got {ends!r}")
    world_point = _member(arrays, "world_point", "<f8", (3,), path) if "world_point" in arrays else None
    # read-only, so each frame's result keeps its slice as a view that nothing can change
    prob.flags.writeable = False
    try:
        interval = None if ends is None else TemporalInterval(*ends)
        results = [SegmentationResult(p) for p in prob]
        return TrackOutput(results, interval, world_point, dict(zip(frames, deltas)))
    except (DimensionError, EmptyInputError, ParameterError) as exc:
        raise SchemaError(f"{path}: invalid track: {exc}") from exc


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
