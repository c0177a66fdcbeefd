"""Dense-tensor primitives shared by the segmentation and tracking branches.

Conventions used throughout the package:

- feature map: float64 array of shape (H, W, C), row-major
- score map:   float64 array of shape (H, W)
- binary mask: array of shape (H, W) with values exactly 0 or 1
- kernel:      float64 array of shape (K, K, C_in, C_out), K odd

All convolutions are cross-correlations with zero same-padding, so outputs
keep the input's spatial size and stacked memory samples of one resolution
stay shape-compatible. One private helper, ``_zero_border``, writes every
zero-bordered copy the package makes: for the convolution and the patch
matrix here, the blurs of ``amm`` and ``pipeline`` and the pseudo-label
boundary test. Everything is computed in float64; the solvers need
headroom below their 1e-5 verification tolerances.

Every value type checks its arrays with :func:`checked_array` (finite
float64 of a given shape) or :func:`checked_mask` (only 0 and 1), each a
:func:`frozen_array` that nothing can change; a camera's depth, which may
be NaN, is only frozen. Both memory banks hold one entry type,
:class:`BankEntry`, whose patch rows both solvers share; ``_check_bank``
checks a bank against either solver's kernel shape.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Any, Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

__all__ = [
    "DimensionError",
    "ParameterError",
    "EmptyInputError",
    "ArrayValue",
    "as_index",
    "GRADIENT_EPS",
    "BankEntry",
    "conv2d",
    "im2col",
    "frozen_array",
    "checked_array",
    "checked_mask",
    "gaussian_label",
    "min_bounding_rect",
    "median_filter_1d",
    "last_run",
    "extract_square_crop",
    "CROP_AREA_LADDER",
    "ladder_crop",
    "bilinear_resize",
    "nearest_resize",
]


class DimensionError(ValueError):
    """Operands have incompatible shapes or channel counts."""


class ParameterError(ValueError):
    """A numeric parameter is outside its valid range."""


class EmptyInputError(ValueError):
    """An operation that needs a non-empty input received an empty one."""


def _equal(a: Any, b: Any) -> bool:
    """Equality that compares arrays with ``np.array_equal`` and mappings member by member; a tuple
    compares its members with their own ``==``, which an ``ArrayValue`` member defines."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        # a NaN equals a NaN, so a value holding one (a camera's invalid depth sample) equals itself
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b, a.dtype.kind in "fc")
    if isinstance(a, Mapping) and isinstance(b, Mapping):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    return bool(a == b)


class ArrayValue:
    """Base of the frozen dataclass values with array fields, each declared ``eq=False``: equal when of
    one type and ``_equal`` field by field, and unhashable, as a consistent hash would read every array."""

    __hash__ = None  # type: ignore[assignment]

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


def as_index(value: Any, name: str) -> int:
    """``value`` as a Python int (``operator.index``); a bool, a float or any other non-integer is a ParameterError."""
    if isinstance(value, (bool, np.bool_)) or not hasattr(type(value), "__index__"):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


# both solvers stop once the gradient norm falls below this
GRADIENT_EPS = 1e-12


def _check_kernel(shape: Sequence[int]) -> None:
    """A kernel shape is (K, K, C_in, C_out) with K odd."""
    if len(shape) != 4 or shape[0] != shape[1]:
        raise DimensionError(f"kernel must be (K, K, C_in, C_out), got {tuple(shape)}")
    if shape[0] % 2 == 0:
        raise ParameterError(f"kernel size must be odd, got {shape[0]}")


def _zero_border(x: np.ndarray, r: int) -> np.ndarray:
    """Copy of ``x`` with a border of ``r`` zeros around its first two axes."""
    h, w = x.shape[:2]
    out = np.zeros((h + 2 * r, w + 2 * r) + x.shape[2:], dtype=x.dtype)
    out[r : r + h, r : r + w] = x
    return out


def conv2d(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Cross-correlate a (H, W, C) map with a (K, K, C, D) kernel.

    Zero same-padding: out[i, j, d] = sum over (dy, dx, c) of
    x[i + dy - K//2, j + dx - K//2, c] * k[dy, dx, c, d], out-of-range
    input treated as zero. Linear in both arguments.

    Tap-major: one (K*K*D, C) @ (C, padded pixels) product gives every
    tap's response at every pixel of the zero-bordered map, and K*K
    shifted adds, in row-major tap order, sum them into D planes. Each
    plane is kept at the padded row length, so a shift is one contiguous
    slice of the flat responses; the columns past W are scratch. The
    result is a (H, W, D) view of those planes.
    """
    x = np.asarray(x, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    _check_kernel(k.shape)
    if x.ndim != 3:
        raise DimensionError(f"feature map must be (H, W, C), got {x.shape}")
    if x.shape[2] != k.shape[2]:
        raise DimensionError(
            f"feature channels {x.shape[2]} do not match kernel input channels {k.shape[2]}"
        )
    ksz, _, c, d = k.shape
    r = ksz // 2
    h, w = x.shape[:2]
    xp = _zero_border(x, r)
    wp = w + 2 * r
    taps = k.transpose(0, 1, 3, 2).reshape(ksz * ksz * d, c) @ xp.reshape(-1, c).T
    taps = taps.reshape(ksz, ksz, d, -1)
    # out[:, i * wp + j] is output pixel (i, j) for j < w
    span = max(0, (h - 1) * wp + w)
    out = np.zeros((d, h * wp))
    for dy in range(ksz):
        for dx in range(ksz):
            start = dy * wp + dx
            out[:, :span] += taps[dy, dx, :, start : start + span]
    return out.reshape(d, h, wp)[:, :, :w].transpose(1, 2, 0)


def im2col(x: np.ndarray, ksz: int) -> np.ndarray:
    """Patch matrix of a (H, W, C) map for a K x K same-padded correlation.

    Row ``i * W + j`` holds the K*K*C inputs under the kernel centered on
    pixel (i, j), ordered like ``k.reshape(K * K * C, D)``, so
    ``im2col(x, K) @ k.reshape(-1, D)`` equals ``conv2d(x, k).reshape(-1, D)``
    up to rounding. The rows are one copy of a read-only (H, W, K, K, C)
    strided view of the zero-bordered map, whose element (i, j, dy, dx, c)
    is bordered pixel (i + dy, j + dx), channel c.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise DimensionError(f"feature map must be (H, W, C), got {x.shape}")
    if ksz < 1 or ksz % 2 == 0:
        raise ParameterError(f"kernel size must be odd and positive, got {ksz}")
    h, w, c = x.shape
    xp = _zero_border(x, ksz // 2)
    row_step, col_step, channel_step = xp.strides
    windows = as_strided(
        xp,
        (h, w, ksz, ksz, c),
        (row_step, col_step, row_step, col_step, channel_step),
        writeable=False,
    )
    return windows.copy().reshape(h * w, ksz * ksz * c)


def frozen_array(a, dtype=None) -> np.ndarray:
    """``a`` as a ``dtype`` array that nothing can change: ``a`` itself when it and the array it views
    are read-only (a loaded stack's slice stays a view), else a read-only copy."""
    arr = np.asarray(a, dtype=dtype)
    if arr.flags.writeable or (isinstance(arr.base, np.ndarray) and arr.base.flags.writeable):
        arr = arr.copy()
        arr.flags.writeable = False
    return arr


def _check_shape(arr: np.ndarray, name: str, shape: Sequence[int]) -> np.ndarray:
    """``arr`` if it has ``shape``, where -1 takes any length on that axis."""
    if arr.shape != shape and (arr.ndim != len(shape) or any(w not in (-1, g) for w, g in zip(shape, arr.shape))):
        wanted = "a 3-vector" if tuple(shape) == (3,) else f"of shape {tuple(shape)}"
        raise DimensionError(f"{name} must be {wanted}, got shape {arr.shape}")
    return arr


def checked_array(value, name: str, shape: Sequence[int]) -> np.ndarray:
    """``value`` as a float64 ``frozen_array`` of ``shape`` (-1 takes any length), which must be finite."""
    arr = _check_shape(frozen_array(value, np.float64), name, shape)
    if not np.isfinite(arr).all():
        raise ParameterError(f"{name} must be finite")
    return arr


def checked_mask(value, name: str, shape: Sequence[int]) -> np.ndarray:
    """``value`` as a ``frozen_array`` of ``shape`` (-1 takes any length) holding only 0 and 1."""
    arr = _check_shape(frozen_array(value), name, shape)
    if not ((arr == 0) | (arr == 1)).all():
        raise ParameterError(f"{name} values must be 0 or 1")
    return arr


# compared and hashed by identity, not as an ArrayValue: an entry is one window the banks share, caches and all
@dataclass(frozen=True, eq=False)
class BankEntry:
    """One window in both memory banks: a (H, W, C) feature crop, its binary (0/1) mask,
    its target-region map in [0, 1] and its Gaussian label, all of one (H, W).

    The maps are ``checked_array`` values and the mask a ``checked_mask``, so
    the patch rows and solver statistics cached on the entry always describe
    its contents. A caller of one solver alone passes zero maps for the
    fields that solver does not read.
    """

    feature: np.ndarray
    mask: np.ndarray
    target_region: np.ndarray
    label: np.ndarray
    # read-only im2col patch rows keyed by kernel size
    _rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # the appearance solver's statistics (M_i, b_i, c_i) keyed by kernel size
    _stats: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        feature = checked_array(self.feature, "entry feature", (-1, -1, -1))
        object.__setattr__(self, "feature", feature)
        object.__setattr__(self, "mask", checked_mask(self.mask, "entry mask", feature.shape[:2]))
        for name in ("target_region", "label"):
            object.__setattr__(self, name, checked_array(getattr(self, name), f"entry {name}", feature.shape[:2]))
        if self.target_region.min() < 0 or self.target_region.max() > 1:
            raise ParameterError("target_region values must lie in [0, 1]")

    def rows(self, ksz: int) -> np.ndarray:
        """The feature's read-only im2col patch rows, built once per kernel size and kept on the entry."""
        if ksz not in self._rows:
            rows = im2col(self.feature, ksz)
            rows.flags.writeable = False
            self._rows[ksz] = rows
        return self._rows[ksz]


def _check_bank(entries: Sequence[BankEntry], kernel_shape: Sequence[int], c_out: int) -> None:
    """A solver's bank fits its kernel: K x K with K odd, ``c_out`` outputs, and every entry's channels as inputs."""
    _check_kernel(kernel_shape)
    if not entries:
        raise EmptyInputError("the bank has no entries")
    if kernel_shape[3] != c_out:
        raise DimensionError(
            f"kernel shape {tuple(kernel_shape)} does not end in the solver's output channel count {c_out}"
        )
    for entry in entries:
        if entry.feature.shape[2] != kernel_shape[2]:
            raise DimensionError(
                f"entry with {entry.feature.shape[2]} channels does not fit kernel shape {tuple(kernel_shape)}"
            )


def gaussian_label(center: Sequence[float], sigma: float, shape: Sequence[int]) -> np.ndarray:
    """Isotropic Gaussian bump exp(-||p - center||^2 / (2 sigma^2)).

    ``center`` is (row, col) and may be fractional; the peak value is 1
    exactly when the center lies on a pixel.
    """
    if sigma <= 0:
        raise ParameterError(f"sigma must be positive, got {sigma}")
    h, w = shape
    rows = np.arange(h, dtype=np.float64)[:, None]
    cols = np.arange(w, dtype=np.float64)[None, :]
    d2 = (rows - float(center[0])) ** 2 + (cols - float(center[1])) ** 2
    return np.exp(-d2 / (2.0 * float(sigma) ** 2))


def _component_runs(fg: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row runs of a 2-D boolean foreground and the component each belongs to.

    A row run is a maximal horizontal stretch of foreground. Returns each
    run's flat row-major start, its length and its root: the index of the
    first run of its 4-connected component, whose first pixel is the
    component's first pixel. Runs are numbered in row-major order of their
    starts.

    Two runs in adjacent rows touch where they share a column, and each
    touching pair is listed once, at its first shared column. Min-label
    propagation over those pairs: each round hooks the larger of two
    differing roots under the smaller, then pointer jumping flattens every
    tree to its root, until all touching runs share a root.
    """
    w = fg.shape[1]
    starts = fg.copy()
    starts[:, 1:] &= ~fg[:, :-1]
    ends = fg.copy()
    ends[:, :-1] &= ~fg[:, 1:]
    run_start = np.flatnonzero(starts)
    run_length = np.flatnonzero(ends) - run_start + 1
    down = fg[:-1] & fg[1:]
    touch = down.copy()
    touch[:, 1:] &= ~down[:, :-1]
    upper = np.flatnonzero(touch)
    a = np.searchsorted(run_start, upper, side="right") - 1
    b = np.searchsorted(run_start, upper + w, side="right") - 1
    root = np.arange(run_start.size)
    while True:
        ra, rb = root[a], root[b]
        differ = ra != rb
        if not differ.any():
            break
        np.minimum.at(root, np.maximum(ra, rb)[differ], np.minimum(ra, rb)[differ])
        while True:
            jumped = root[root]
            if (jumped == root).all():
                break
            root = jumped
    return run_start, run_length, root


def min_bounding_rect(mask: np.ndarray) -> tuple[int, int, int, int]:
    """Tightest axis-aligned rectangle (x_min, y_min, x_max, y_max), inclusive, of a mask's foreground."""
    rows, cols = np.nonzero(np.asarray(mask))
    if rows.size == 0:
        raise EmptyInputError("cannot bound an empty mask")
    return (int(cols.min()), int(rows.min()), int(cols.max()), int(rows.max()))


def median_filter_1d(seq: Sequence[float], window: int) -> np.ndarray:
    """Sliding median with the window shrunk to the valid neighborhood at edges.

    A shrunk window of even length uses the mean of the two middle order
    statistics, matching ``np.median``. The full windows take one
    ``np.median`` over a sliding-window view; only the at most
    2 * (window // 2) shrunk ones are taken one at a time.
    """
    if window % 2 == 0 or window <= 0:
        raise ParameterError(f"window must be odd and positive, got {window}")
    values = np.asarray(seq, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise EmptyInputError("sequence must be non-empty and one-dimensional")
    half = window // 2
    n = values.size
    out = np.empty(n)
    if n >= window:
        out[half : n - half] = np.median(sliding_window_view(values, window), axis=1)
    for i in (*range(min(half, n)), *range(max(half, n - half), n)):
        out[i] = np.median(values[max(0, i - half) : i + half + 1])
    return out


def last_run(flags: Sequence[bool]) -> tuple[int, int] | None:
    """Inclusive (start, end) of the last run of true flags, or None when no flag is true."""
    flags = np.asarray(flags, dtype=bool)
    true = np.flatnonzero(flags)
    if true.size == 0:
        return None
    end = int(true[-1])
    false = np.flatnonzero(~flags[:end])
    return (int(false[-1]) + 1 if false.size else 0, end)


# Cropping and resampling helpers shared by both memory banks. They live here
# because they are pure dense-tensor plumbing with no branch-specific policy.


def extract_square_crop(
    data: np.ndarray, center: Sequence[float], side: int
) -> tuple[np.ndarray, float]:
    """Cut a zero-padded square window of the given side around ``center``.

    ``center`` is a (row, col) point, possibly fractional; the window start
    is round(center - (side - 1) / 2). Works on (H, W) and (H, W, C) arrays.
    Returns the crop and the fraction of its area that fell outside the
    source array (the zero-padded fraction).
    """
    data = np.asarray(data, dtype=np.float64)
    if side < 1:
        raise ParameterError(f"crop side must be >= 1, got {side}")
    h, w = data.shape[:2]
    r0 = int(np.floor(float(center[0]) - (side - 1) / 2.0 + 0.5))
    c0 = int(np.floor(float(center[1]) - (side - 1) / 2.0 + 0.5))
    out_shape = (side, side) + data.shape[2:]
    crop = np.zeros(out_shape)
    src_r0, src_r1 = max(r0, 0), min(r0 + side, h)
    src_c0, src_c1 = max(c0, 0), min(c0 + side, w)
    inside = 0
    if src_r0 < src_r1 and src_c0 < src_c1:
        crop[src_r0 - r0 : src_r1 - r0, src_c0 - c0 : src_c1 - c0] = data[src_r0:src_r1, src_c0:src_c1]
        inside = (src_r1 - src_r0) * (src_c1 - src_c0)
    padded_fraction = 1.0 - inside / float(side * side)
    return crop, padded_fraction


@lru_cache(maxsize=None)
def _bilinear_taps(n_in: int, n_out: int) -> tuple[np.ndarray, ...]:
    """Source indices i0, i1 and weights 1 - t, t of a pixel-center-aligned resample of one axis (read-only)."""
    r = np.clip((np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5, 0.0, n_in - 1.0)
    i0 = np.floor(r).astype(int)
    t = r - i0
    taps = (i0, np.minimum(i0 + 1, n_in - 1), 1 - t, t)
    for a in taps:
        a.flags.writeable = False
    return taps


def bilinear_resize(data: np.ndarray, out_hw: Sequence[int]) -> np.ndarray:
    """Bilinear resample with pixel-center alignment, for (H, W) or (H, W, C).

    Each output element is (d[y0, x0] (1 - wx) + d[y0, x1] wx) (1 - wy) +
    (d[y1, x0] (1 - wx) + d[y1, x1] wx) wy; the column pass runs once per
    source row and the row pass reads its results. Each axis's indices and
    weights are built once per pair of sizes.
    """
    data = np.asarray(data, dtype=np.float64)
    h, w = data.shape[:2]
    y0, y1, vy, wy = _bilinear_taps(h, int(out_hw[0]))
    x0, x1, vx, wx = _bilinear_taps(w, int(out_hw[1]))
    if data.ndim == 3:
        vy, wy, vx, wx = vy[:, None], wy[:, None], vx[:, None], wx[:, None]
    # columns first, on every source row, then rows
    cols = data[:, x0] * vx + data[:, x1] * wx
    return cols[y0] * vy[:, None] + cols[y1] * wy[:, None]


def nearest_resize(data: np.ndarray, out_hw: Sequence[int]) -> np.ndarray:
    """Nearest-neighbor resample; keeps binary masks binary."""
    data = np.asarray(data)
    h, w = data.shape[:2]
    oh, ow = int(out_hw[0]), int(out_hw[1])
    ry = np.minimum((np.floor((np.arange(oh) + 0.5) * (h / oh))).astype(int), h - 1)
    rx = np.minimum((np.floor((np.arange(ow) + 0.5) * (w / ow))).astype(int), w - 1)
    return data[ry][:, rx]


# Square-crop area scales tried in order; a scale is abandoned when more than
# half the crop would be zero padding. Side factors: 1.5x, 1.2x, 1.0x.
CROP_AREA_LADDER = (2.25, 1.44, 1.0)


def ladder_crop(
    maps: Sequence[np.ndarray], center: Sequence[float], longest: int
) -> tuple[int, list[np.ndarray]]:
    """Square crops of aligned maps on the first ladder side that fits.

    The side is round(sqrt(scale) * longest) for the first scale of
    :data:`CROP_AREA_LADDER` whose crop is at most half zero padding, or
    the last scale if none is. The maps share their first two axes, so
    they share the padding too. Returns the side and every map's crop at
    that side, in order.
    """
    for area_scale in CROP_AREA_LADDER:
        side = max(1, int(round(np.sqrt(area_scale) * longest)))
        first, padded_fraction = extract_square_crop(maps[0], center, side)
        if padded_fraction <= 0.5:
            break
    return side, [first] + [extract_square_crop(m, center, side)[0] for m in maps[1:]]
