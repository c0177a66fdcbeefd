"""The benchmark's workloads, query runner, output checks and metrics.

Every workload is a closed loop with one client: one query at a time, each
frame stepped after the previous one returns. A query calls the library the
way ``vql run2d``/``run3d`` do: load the scenario file, build the Pipeline,
step every frame, ``finalize_2d`` (and ``finalize_3d`` on geo), then
``save_track``. A run repeats whole passes over the workload's scenario
pool until its time is up, always finishing at least one pass.

Times are CPU seconds of this process (``time.process_time``). BLAS runs
on one thread, so a query's CPU time is its compute time; unlike wall time
it leaves out the spells in which other processes have the core. It does
not leave out a slower core: on a virtual machine whose host is shared, CPU
time rises with the host's load too. The report prints wall-clock figures
beside them, which a change that adds threads must be judged by as well.

Import this module only after the BLAS thread variables are set (run.py
does so): numpy reads them once, when it loads.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Optional

import numpy as np

import vql
from vql import fileio, metrics, pipeline

from run import BLAS_THREADS, THREAD_VARS
from tracing import COMPUTED, LAYER_UNITS, Tracer, layer_metrics, write_spans

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
GEN_TIMEOUT_S = 300

END_TO_END_UNITS = {
    "query_s": "s",
    "setup_s": "s",
    "ms_per_frame": "ms",
    "frame_ms_p50": "ms",
    "frame_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "tap25": "ratio",
    "stap25": "ratio",
    "recovery_pct": "%",
}


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    pool: int  # distinct scenarios, each queried once per pass
    frames: Optional[int]  # cuts the preset's frame count when set
    updates_enabled: bool
    lift_3d: bool


WORKLOADS = {
    # the drift preset cut to 55 frames, every one of which ingests: both
    # banks reach capacity 50 near frame 48 and the last frames refit full
    # banks after a FIFO eviction. Not in BENCHMARK.json: it has only three
    # to five queries a 30 s run, and over two sets of ten runs on a shared
    # host whose load was changing its timings spread 0.19-0.28 of their
    # median, past the 0.25 bound (geo and frozen 0.03-0.24 over five such
    # sets). Its traced run is the full-bank solver view.
    "drift": Workload("drift", "drift", 1, 55, True, False),
    # the no-memory ablation: 200 inference-only frames, solvers run at set-up only
    "frozen": Workload("frozen", "drift", 1, None, False, False),
    # 20 five-frame queries, each a fresh Pipeline lifted to 3D: 100 frames,
    # so that 10 lie above frame_ms_p90
    "geo": Workload("geo", "geo", 20, None, True, True),
}


def pool_seeds(workload: Workload, seed: int) -> list[int]:
    return [seed * 1000 + i for i in range(workload.pool)]


@dataclass
class QueryRecord:
    """One query's times: CPU seconds of this process, and wall seconds."""

    path: str
    query_s: float = 0.0
    setup_s: float = 0.0
    frame_ms: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    wall_frame_ms: list[float] = field(default_factory=list)
    error: Optional[str] = None


class Runner:
    """Runs queries over a scenario pool and checks every output."""

    def __init__(self, workload: Workload, paths: list[str], work_dir: str):
        self.workload = workload
        self.paths = paths
        self.work_dir = work_dir
        self.cfg = pipeline.PipelineConfig(updates_enabled=workload.updates_enabled)
        self.records: list[QueryRecord] = []
        self.digests: dict[str, str] = {}
        self.quality: dict[str, dict] = {}
        self.tracer: Optional[Tracer] = None

    def _track_path(self, path: str) -> str:
        return os.path.join(self.work_dir, "track-" + os.path.basename(path))

    def _query(self, path: str, record: QueryRecord):
        wall, start = perf_counter(), process_time()
        scenario = fileio.load_scenario(path)
        pipe = pipeline.Pipeline(scenario.query, self.cfg)
        record.setup_s = process_time() - start
        for index, frame in enumerate(scenario.frames):
            frame_wall, frame_start = perf_counter(), process_time()
            pipe.step_frame(frame.feature, index)
            record.frame_ms.append((process_time() - frame_start) * 1e3)
            record.wall_frame_ms.append((perf_counter() - frame_wall) * 1e3)
        track = pipe.finalize_2d()
        if self.workload.lift_3d:
            track = pipeline.finalize_3d(
                track, scenario.cameras, (scenario.alignment_src, scenario.alignment_dst), self.cfg
            )
        fileio.save_track(track, self._track_path(path))
        record.query_s = process_time() - start
        record.wall_s = perf_counter() - wall
        return scenario, track

    def _check(self, path: str, scenario, track) -> Optional[str]:
        """First failed output check of a finished query, or None."""
        with open(self._track_path(path), "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        if self.digests.setdefault(path, digest) != digest:
            return "track bytes differ from the first query of this scenario in the run"
        if path not in self.quality:
            report = metrics.eval_2d(track, scenario)
            quality = {"tap25": report.t_ap25, "stap25": report.st_ap25, "recovery_pct": report.recovery_pct}
            if self.workload.lift_3d:
                report_3d = metrics.eval_3d(track, scenario)
                quality.update(l2_3d=report_3d.l2, success_3d_pct=report_3d.success_pct)
            self.quality[path] = quality
        quality = self.quality[path]
        if quality["tap25"] != 1.0 or quality["stap25"] != 1.0:
            return f"tap25 {quality['tap25']} and stap25 {quality['stap25']}, expected 1.0"
        if self.workload.lift_3d and quality["success_3d_pct"] != 100.0:
            return f"success_3d_pct {quality['success_3d_pct']}, expected 100"
        return None

    def run_query(self, path: str) -> None:
        record = QueryRecord(path)
        if self.tracer is not None:
            self.tracer.query = len(self.records)
        try:
            record.error = self._check(path, *self._query(path, record))
        except Exception as exc:  # a failed query is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            record.error = f"{type(exc).__name__}: {exc}"
        self.records.append(record)

    def run_passes(self, seconds: float) -> None:
        """Whole passes over the pool, at least one, until ``seconds`` have elapsed."""
        start = perf_counter()
        while True:
            for path in self.paths:
                self.run_query(path)
            if perf_counter() - start >= seconds:
                return


def _passed(runner: Runner) -> list[QueryRecord]:
    return [r for r in runner.records if r.error is None]


def _timing_figures(records: list[QueryRecord], wall: bool = False) -> dict[str, float]:
    """Mean query time, and mean and percentiles of frame step time, over
    every repeat of every passing query (``wall=True``: in wall-clock time).

    Every repeat counts, so a change that slows a few repeats (a collector
    pause, state that builds up) still shows. Lower percentiles of the
    repeats were no steadier: a shared host's load changes over minutes and
    moves them all alike (six geo runs across such a change: spread of
    ms_per_frame 0.34 for the fastest repeat, 0.39 for the 25th percentile,
    0.31 for the mean).
    """
    queries = [r.wall_s if wall else r.query_s for r in records]
    frames = [ms for r in records for ms in (r.wall_frame_ms if wall else r.frame_ms)]
    return {
        "query_s": statistics.fmean(queries),
        "ms_per_frame": statistics.fmean(frames),
        "frame_ms_p50": float(np.percentile(frames, 50)),
        "frame_ms_p90": float(np.percentile(frames, 90)),
    }


def end_to_end_metrics(runner: Runner) -> dict[str, float]:
    """Timing figures from :func:`_timing_figures`, set-up as the median of
    every set-up, quality figures as means over the scenarios. All zero when
    no query passed."""
    passed = _passed(runner)
    if not passed:
        return dict.fromkeys(END_TO_END_UNITS, 0.0)
    quality = list(runner.quality.values())
    return {
        **_timing_figures(passed),
        "setup_s": statistics.median(r.setup_s for r in passed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tap25": statistics.fmean(q["tap25"] for q in quality),
        "stap25": statistics.fmean(q["stap25"] for q in quality),
        "recovery_pct": statistics.fmean(q["recovery_pct"] for q in quality),
    }


def unbounded_metrics(runner: Runner) -> dict[str, Optional[float]]:
    """Figures the report prints but BENCHMARK.json does not bound: the
    timing figures in wall-clock time, ``failed_frac`` (0 on every passing
    run) and, on geo only, the 3D figures."""
    figures: dict[str, Optional[float]] = {
        "failed_frac": sum(1 for r in runner.records if r.error is not None) / len(runner.records),
    }
    passed = _passed(runner)
    if passed:
        figures.update({"wall." + name: value for name, value in _timing_figures(passed, wall=True).items()})
    if runner.workload.lift_3d:
        quality = list(runner.quality.values())
        l2_values = [q["l2_3d"] for q in quality if q["l2_3d"] is not None]
        figures["l2_3d"] = statistics.fmean(l2_values) if l2_values else None
        figures["success_3d_pct"] = statistics.fmean(q["success_3d_pct"] for q in quality) if quality else None
    return figures


def _effective_blas_threads() -> Optional[int]:
    """Thread count reported by the loaded OpenBLAS, if one is mapped."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": BLAS_THREADS,
        "blas_threads_effective": _effective_blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def generate(workload: Workload, seeds: list[int], work_dir: str, src: str) -> list[str]:
    """Write the scenario pool in a child process and wait for it."""
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "gen.py"), "--out", work_dir,
         "--preset", workload.preset, "--seeds", *map(str, seeds),
         *(["--frames", str(workload.frames)] if workload.frames else [])],
        check=True, env=env, timeout=GEN_TIMEOUT_S,
    )
    from gen import scenario_path

    return [scenario_path(work_dir, workload.preset, seed) for seed in seeds]


def measure(runner: Runner, seconds: float) -> dict[str, float]:
    """Untraced run: end-to-end metrics."""
    runner.run_passes(seconds)
    return end_to_end_metrics(runner)


def measure_traced(runner: Runner, seconds: float, spans_path: str) -> dict[str, float]:
    """Alternate untraced and traced passes until the time is up: per-layer metrics.

    Alternating lets both kinds of pass see the same spells of load from
    other work on the host, so trace.overhead_pct compares like with like.
    """
    tracer = Tracer()
    untraced: list[QueryRecord] = []
    traced: list[QueryRecord] = []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        first = len(runner.records)
        runner.run_passes(0.0)
        untraced += runner.records[first:]
        first = len(runner.records)
        runner.tracer = tracer
        tracer.install()
        try:
            runner.run_passes(0.0)
        finally:
            tracer.uninstall()
            runner.tracer = None
        traced += runner.records[first:]
    spans = tracer.spans
    layer = layer_metrics(spans, len(traced))
    untraced_s = statistics.fmean(r.query_s for r in untraced)
    traced_s = statistics.fmean(r.query_s for r in traced)
    layer["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
    write_spans(spans, spans_path)
    return layer


def result_line(runner: Runner, values: dict[str, float], units: dict[str, str]) -> dict:
    """The benchmark's result object: checks passed, queries attempted and failed, metrics."""
    failed = sum(1 for r in runner.records if r.error is not None)
    return {
        "correct": failed == 0,
        "attempted": len(runner.records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(workload_name: str, seed: int, seconds: int, trace: bool, root: str) -> int:
    src = os.path.join(root, "src")
    if os.path.dirname(os.path.abspath(vql.__file__)) != os.path.join(src, "vql"):
        print(f"error: vql was imported from {vql.__file__}, not from {src}", file=sys.stderr)
        return 2
    if workload_name not in WORKLOADS:
        print(f"error: unknown workload {workload_name!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[workload_name]
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{workload.name}-seed{seed}-trace{int(trace)}")
    seeds = pool_seeds(workload, seed)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    try:
        runner = Runner(workload, generate(workload, seeds, work_dir, src), work_dir)
        if trace:
            values = measure_traced(runner, seconds, stem + ".spans.jsonl.gz")
            units = LAYER_UNITS
        else:
            values = measure(runner, seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    report = {
        "workload": workload.name,
        "trace": int(trace),
        "pool_seeds": seeds,
        "queries": len(runner.records),
        "frame_samples": sum(len(r.frame_ms) for r in runner.records if r.error is None),
        "errors": sorted({r.error for r in runner.records if r.error is not None}),
        "unbounded": unbounded_metrics(runner),
        "env": environment(seed),
    }
    if trace:
        report["computed"] = list(COMPUTED)
        report["spans"] = os.path.relpath(stem + ".spans.jsonl.gz", root)
    result = result_line(runner, values, units)
    with open(stem + ".json", "w") as handle:
        json.dump({"report": report, "result": result}, handle, indent=1, sort_keys=True)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1
