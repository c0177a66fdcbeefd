"""Span tracing for the benchmark's traced run, and the per-layer metrics.

:class:`Tracer` wraps the public functions of the vql layers at the module
attribute their callers look them up by (``vql.amm.conv2d`` is the
convolution the appearance solver calls, ``vql.fusion.connected_components``
the labeling inference calls), records one span per call in memory, and puts
every original binding back on :meth:`Tracer.uninstall`. Nothing inside the
library changes; the spans only exist while a traced query runs.

A span is ``[name, site, start, end, parent, query, probe]``: ``name`` is
the defining module and function (``core.conv2d``), ``site`` the module the
call was looked up in (``amm``), ``parent`` the index of the enclosing span
or -1, ``query`` the query id and ``probe`` an exact count taken from the
call's arguments or result (flops and bytes computed from shapes, bank size,
admit decision, file size, foreground pixels).
"""

from __future__ import annotations

import gzip
import importlib
import json
import os
import statistics
import types
from collections import defaultdict
from functools import wraps
from time import perf_counter

import numpy as np

LAYERS = ("pipeline", "amm", "glm", "core", "fusion", "geo3d", "fileio")
PIPELINE_METHODS = {"__init__": "pipeline.init", "step_frame": "pipeline.step_frame",
                    "finalize_2d": "pipeline.finalize_2d", "run": "pipeline.run"}

# Per-layer metrics in report order, with units. Counts and times are per
# traced query; the kernel counts are computed from argument shapes.
LAYER_UNITS = {
    "amm.steepest_descent.s": "s",
    "amm.entry_evals": "count",
    "amm.bank_size_mean": "count",
    "amm.crop_sample.s": "s",
    "amm.admit_ratio": "ratio",
    "glm.optimize_filter.s": "s",
    "glm.iterations": "count",
    "glm.track_gradient.calls": "count",
    "glm.track_loss.calls": "count",
    "glm.loss_evals_per_iter": "ratio",
    "glm.bank_size_mean": "count",
    "glm.static_source_ratio": "ratio",
    "glm.glm_make_dynamic_sample.s": "s",
    "core.conv2d.amm.s": "s",
    "core.conv2d.glm.s": "s",
    "core.kernel_gradient.s": "s",
    "pipeline.init_s": "s",
    "pipeline.step_frame.self_s": "s",
    "pipeline.ingest_frames": "count",
    "pipeline.ingest_frame_ms_p50": "ms",
    "pipeline.infer_frame_ms_p50": "ms",
    "pipeline.finalize_2d.s": "s",
    "pipeline.finalize_3d.s": "s",
    "core.connected_components.s": "s",
    "core.connected_components.fg_pixels": "count",
    "core.conv2d.pipeline.s": "s",
    "glm.track_score.s": "s",
    "fusion.encode_decode.s": "s",
    "fusion.extract_result.self_s": "s",
    "fusion.temporal_localize.s": "s",
    "fileio.load_scenario.s": "s",
    "fileio.load_scenario.mb_per_s": "MB/s",
    "fileio.save_track.s": "s",
    "fileio.save_track.mb_per_s": "MB/s",
    "geo3d.s": "s",
    "geo3d.backproject.calls": "count",
    "core.conv2d.calls": "count",
    "core.conv2d.gflop": "GFLOP",
    "core.conv2d.gbyte": "GB",
    "core.conv2d.gflop_per_s": "GFLOP/s",
    "core.kernel_gradient.calls": "count",
    "core.kernel_gradient.gflop": "GFLOP",
    "core.kernel_gradient.gbyte": "GB",
    "trace.overhead_pct": "%",
}
COMPUTED = ("core.conv2d.gflop", "core.conv2d.gbyte", "core.conv2d.gflop_per_s",
            "core.kernel_gradient.gflop", "core.kernel_gradient.gbyte")


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _conv2d_work(args, kwargs, result) -> tuple[int, int]:
    h, w, c = np.shape(_arg(args, kwargs, 0, "x"))
    k, _, _, d = np.shape(_arg(args, kwargs, 1, "k"))
    return 2 * h * w * k * k * c * d, 8 * (h * w * c + k * k * c * d + h * w * d)


def _kernel_gradient_work(args, kwargs, result) -> tuple[int, int]:
    h, w, c = np.shape(_arg(args, kwargs, 0, "x"))
    d = np.shape(_arg(args, kwargs, 1, "residual"))[2]
    k = _arg(args, kwargs, 2, "kernel_shape")[0]
    return 2 * h * w * k * k * c * d, 8 * (h * w * c + h * w * d + k * k * c * d)


PROBES = {
    "core.conv2d": _conv2d_work,
    "core.kernel_gradient": _kernel_gradient_work,
    "amm.steepest_descent": lambda a, k, r: len(_arg(a, k, 1, "mem")),
    "glm.optimize_filter": lambda a, k, r: len(_arg(a, k, 1, "mem")),
    "amm.amm_admit": lambda a, k, r: bool(r),
    "glm.glm_update_source": lambda a, k, r: r == "static",
    "core.connected_components": lambda a, k, r: int(np.count_nonzero(_arg(a, k, 0, "mask"))),
    "fileio.load_scenario": lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path")),
    "fileio.save_track": lambda a, k, r: os.path.getsize(_arg(a, k, 1, "path")),
}


def bindings() -> list[tuple[object, str, str, str]]:
    """Every wrapped binding as (owner, attribute, span name, call site)."""
    found = []
    for site in LAYERS:
        module = importlib.import_module(f"vql.{site}")
        for attr, value in sorted(vars(module).items()):
            if attr.startswith("_") or not isinstance(value, types.FunctionType):
                continue
            if not value.__module__.startswith("vql."):
                continue
            found.append((module, attr, f"{value.__module__[4:]}.{value.__name__}", site))
    pipeline_cls = importlib.import_module("vql.pipeline").Pipeline
    for attr, name in PIPELINE_METHODS.items():
        found.append((pipeline_cls, attr, name, "pipeline"))
    return found


class Tracer:
    """In-memory span recorder installed over the vql module bindings.

    Spans are kept column-wise in flat lists of numbers, so recording one
    allocates no container the garbage collector has to scan.
    """

    def __init__(self) -> None:
        self.query = -1
        self.keys: list[tuple[str, str]] = []  # (name, site) of each wrapped binding
        self.key = []
        self.start = []
        self.end = []
        self.parent = []
        self.query_of = []
        self.probes: dict[int, object] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, site: str):
        key_id = len(self.keys)
        self.keys.append((name, site))
        probe = PROBES.get(name)
        key, start, end, parent, query_of = self.key, self.start, self.end, self.parent, self.query_of
        probes, stack = self.probes, self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            key.append(key_id)
            parent.append(stack[-1] if stack else -1)
            query_of.append(self.query)
            end.append(0.0)
            stack.append(index)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                stack.pop()
            if probe is not None:
                probes[index] = probe(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name, site in bindings():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, site))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @property
    def spans(self) -> list[list]:
        """Every span as ``[name, site, start, end, parent, query, probe]``."""
        return [
            [*self.keys[k], s, e, p, q, self.probes.get(i)]
            for i, (k, s, e, p, q) in enumerate(zip(self.key, self.start, self.end, self.parent, self.query_of))
        ]


def write_spans(spans: list[list], path: str) -> None:
    """One JSON array per span, in start order, gzip-compressed."""
    with gzip.open(path, "wt", compresslevel=1) as out:
        for record in spans:
            out.write(json.dumps(record, separators=(",", ":")))
            out.write("\n")


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(spans: list[list], queries: int) -> dict[str, float]:
    """Per-layer metrics from recorded spans, per traced query.

    Self time is a span's duration minus the durations of its direct
    children. The solver-side convolution time of the tracking branch counts
    only calls below ``glm.optimize_filter``; ``glm.track_score.s`` counts
    only the per-frame inference call made by ``pipeline.step_frame``.
    """
    count = len(spans)
    duration = [s[3] - s[2] for s in spans]
    child_time = [0.0] * count
    in_glm_solver = [False] * count
    ingest_frame = [False] * count
    for i, (name, _site, _start, _end, parent, _query, _probe) in enumerate(spans):
        if parent < 0:
            continue
        child_time[parent] += duration[i]
        parent_name = spans[parent][0]
        in_glm_solver[i] = in_glm_solver[parent] or parent_name == "glm.optimize_filter"
        if name == "amm.crop_sample" and parent_name == "pipeline.step_frame":
            ingest_frame[parent] = True

    time_by = defaultdict(float)
    calls_by = defaultdict(int)
    probes_by = defaultdict(list)
    for i, (name, site, _start, _end, parent, _query, probe) in enumerate(spans):
        time_by[name] += duration[i]
        time_by[f"{name}@{site}"] += duration[i]
        calls_by[name] += 1
        calls_by[f"{name}@{site}"] += 1
        if probe is not None:
            probes_by[name].append(probe)

    def per_query(value: float) -> float:
        return value / queries

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def matching(predicate) -> list[int]:
        return [i for i in range(count) if predicate(spans[i], i)]

    glm_solver_conv = sum(
        duration[i] for i in matching(lambda s, i: s[0] == "core.conv2d" and s[1] == "glm" and in_glm_solver[i])
    )
    glm_iterations = len(matching(lambda s, i: s[0] == "glm.gauss_newton_step" and in_glm_solver[i]))
    # every solve evaluates the starting loss once before its first step
    solver_loss_evals = (
        len(matching(lambda s, i: s[0] == "glm.track_loss" and in_glm_solver[i])) - calls_by["glm.optimize_filter"]
    )
    inference_score = sum(
        duration[i]
        for i in matching(
            lambda s, i: s[0] == "glm.track_score" and s[4] >= 0 and spans[s[4]][0] == "pipeline.step_frame"
        )
    )
    frames = matching(lambda s, i: s[0] == "pipeline.step_frame")
    ingest_ms = [duration[i] * 1e3 for i in frames if ingest_frame[i]]
    infer_ms = [duration[i] * 1e3 for i in frames if not ingest_frame[i]]
    geo3d_top = sum(
        duration[i]
        for i in matching(lambda s, i: s[0].startswith("geo3d.") and (s[4] < 0 or not spans[s[4]][0].startswith("geo3d.")))
    )
    conv_work = probes_by["core.conv2d"]
    grad_work = probes_by["core.kernel_gradient"]
    load_bytes = sum(probes_by["fileio.load_scenario"])
    save_bytes = sum(probes_by["fileio.save_track"])
    admits = probes_by["amm.amm_admit"]
    sources = probes_by["glm.glm_update_source"]

    return {
        "amm.steepest_descent.s": per_query(time_by["amm.steepest_descent"]),
        "amm.entry_evals": per_query(calls_by["core.kernel_gradient@amm"]),
        "amm.bank_size_mean": _mean(probes_by["amm.steepest_descent"]),
        "amm.crop_sample.s": per_query(time_by["amm.crop_sample"]),
        "amm.admit_ratio": ratio(sum(admits), len(admits)),
        "glm.optimize_filter.s": per_query(time_by["glm.optimize_filter"]),
        "glm.iterations": per_query(glm_iterations),
        "glm.track_gradient.calls": per_query(calls_by["glm.track_gradient"]),
        "glm.track_loss.calls": per_query(calls_by["glm.track_loss"]),
        "glm.loss_evals_per_iter": ratio(solver_loss_evals, glm_iterations),
        "glm.bank_size_mean": _mean(probes_by["glm.optimize_filter"]),
        "glm.static_source_ratio": ratio(sum(sources), len(sources)),
        "glm.glm_make_dynamic_sample.s": per_query(time_by["glm.glm_make_dynamic_sample"]),
        "core.conv2d.amm.s": per_query(time_by["core.conv2d@amm"]),
        "core.conv2d.glm.s": per_query(glm_solver_conv),
        "core.kernel_gradient.s": per_query(time_by["core.kernel_gradient"]),
        "pipeline.init_s": per_query(time_by["pipeline.init"]),
        "pipeline.step_frame.self_s": per_query(sum(duration[i] - child_time[i] for i in frames)),
        "pipeline.ingest_frames": per_query(len(ingest_ms)),
        "pipeline.ingest_frame_ms_p50": _median(ingest_ms),
        "pipeline.infer_frame_ms_p50": _median(infer_ms),
        "pipeline.finalize_2d.s": per_query(time_by["pipeline.finalize_2d"]),
        "pipeline.finalize_3d.s": per_query(time_by["pipeline.finalize_3d"]),
        "core.connected_components.s": per_query(time_by["core.connected_components"]),
        "core.connected_components.fg_pixels": per_query(sum(probes_by["core.connected_components"])),
        "core.conv2d.pipeline.s": per_query(time_by["core.conv2d@pipeline"]),
        "glm.track_score.s": per_query(inference_score),
        "fusion.encode_decode.s": per_query(
            time_by["fusion.encode_score"] + time_by["fusion.fuse"] + time_by["fusion.decode"]
        ),
        "fusion.extract_result.self_s": per_query(
            sum(duration[i] - child_time[i] for i in matching(lambda s, i: s[0] == "fusion.extract_result"))
        ),
        "fusion.temporal_localize.s": per_query(time_by["fusion.temporal_localize"]),
        "fileio.load_scenario.s": per_query(time_by["fileio.load_scenario"]),
        "fileio.load_scenario.mb_per_s": ratio(load_bytes / 1e6, time_by["fileio.load_scenario"]),
        "fileio.save_track.s": per_query(time_by["fileio.save_track"]),
        "fileio.save_track.mb_per_s": ratio(save_bytes / 1e6, time_by["fileio.save_track"]),
        "geo3d.s": per_query(geo3d_top),
        "geo3d.backproject.calls": per_query(calls_by["geo3d.backproject"]),
        "core.conv2d.calls": per_query(calls_by["core.conv2d"]),
        "core.conv2d.gflop": per_query(sum(w[0] for w in conv_work) / 1e9),
        "core.conv2d.gbyte": per_query(sum(w[1] for w in conv_work) / 1e9),
        "core.conv2d.gflop_per_s": ratio(sum(w[0] for w in conv_work) / 1e9, time_by["core.conv2d"]),
        "core.kernel_gradient.calls": per_query(calls_by["core.kernel_gradient"]),
        "core.kernel_gradient.gflop": per_query(sum(w[0] for w in grad_work) / 1e9),
        "core.kernel_gradient.gbyte": per_query(sum(w[1] for w in grad_work) / 1e9),
    }
