"""Acceptance suite: one test per criterion, each printing its verdict.

Run with ``pytest -v tests/test_acceptance.py`` (or ``vql selfcheck`` for
the underlying oracle registry). Tolerances are pinned here, not deferred.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from vql import amm, fileio, glm, metrics
from vql.fusion import temporal_localize
from vql.pipeline import Pipeline, PipelineConfig
from vql.scenario import ScenarioParams, gen_scenario, ground_truth_track, preset_params
from vql.selfcheck import (
    check_amm_fifo_replay,
    check_gauss_newton_beta_scan,
    check_gauss_newton_ridge_case,
    check_geo_aggregation,
    check_geo_weight_suppression,
    check_glm_static_immutable,
    check_halt_revert,
    check_projection_round_trip,
    check_seg_gradient_fd,
    check_sim3_noisy,
    check_sim3_recovery,
    check_steepest_special_cases,
    check_steepest_step_scan,
    check_track_gradient_fd,
    check_update_cadence,
    solve_seg_normal_equations,
    solve_track_normal_equations,
)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_01_gradient_fidelity():
    start = time.monotonic()
    ok_seg, detail_seg = check_seg_gradient_fd(n_instances=100, seed=101)
    ok_trk, detail_trk = check_track_gradient_fd(n_instances=100, seed=102)
    elapsed = time.monotonic() - start
    report(
        "1 gradient fidelity",
        ok_seg and ok_trk and elapsed < 30.0,
        f"seg: {detail_seg}; track: {detail_trk}; runtime {elapsed:.1f}s < 30s",
    )


def test_criterion_02_exact_line_search():
    ok_scan, detail_scan = check_steepest_step_scan(n_instances=50, seed=103)
    ok_special, detail_special = check_steepest_special_cases()
    report("2 exact line search", ok_scan and ok_special, f"{detail_scan}; {detail_special}")


def test_criterion_03_convergence_to_closed_form():
    rng = np.random.default_rng(104)
    worst_seg_gap = worst_trk_gap = 0.0
    for _ in range(10):
        # steepest descent against the dense ridge solution on 4x4 maps
        samples = [
            amm.AmmSample(
                rng.uniform(-1, 1, size=(4, 4, 2)),
                (rng.random((4, 4)) > 0.5).astype(np.uint8),
            )
            for _ in range(int(rng.integers(1, 3)))
        ]
        shape = (1, 1, 2, 3)
        target = amm.seg_loss(solve_seg_normal_equations(samples, shape), samples)
        kernel = np.zeros(shape)
        prev = amm.seg_loss(kernel, samples)
        for _ in range(200):
            kernel = amm.steepest_descent(kernel, samples, 1)
            cur = amm.seg_loss(kernel, samples)
            assert cur <= prev + 1e-12, "steepest descent loss increased"
            prev = cur
        worst_seg_gap = max(worst_seg_gap, prev - target)

        # safeguarded Gauss-Newton on the pure quadratic (S == 1) case
        gsamples = [
            glm.GlmSample(
                rng.uniform(-1, 1, size=(4, 4, 2)),
                np.clip(rng.random((4, 4)), 0.01, 1.0),
                np.ones((4, 4)),
            )
            for _ in range(int(rng.integers(1, 3)))
        ]
        target = glm.track_loss(solve_track_normal_equations(gsamples, (1, 1, 2, 1)), gsamples)
        kernel = np.zeros((1, 1, 2, 1))
        prev = glm.track_loss(kernel, gsamples)
        for _ in range(50):
            kernel = glm.optimize_filter(kernel, gsamples, 1)
            cur = glm.track_loss(kernel, gsamples)
            assert cur <= prev + 1e-12, "Gauss-Newton loss increased"
            prev = cur
        worst_trk_gap = max(worst_trk_gap, prev - target)
    report(
        "3 convergence to closed form",
        worst_seg_gap < 1e-6 and worst_trk_gap < 1e-6,
        f"worst loss gaps: steepest {worst_seg_gap:.2e}, Gauss-Newton {worst_trk_gap:.2e} (both < 1e-6)",
    )


def test_criterion_04_gauss_newton_step_size():
    ok_scan, detail_scan = check_gauss_newton_beta_scan(n_instances=50, seed=105)
    ok_ridge, detail_ridge = check_gauss_newton_ridge_case()
    report("4 Gauss-Newton step size", ok_scan and ok_ridge, f"{detail_scan}; {detail_ridge}")


def test_criterion_05_sim3_recovery():
    ok_clean, detail_clean = check_sim3_recovery(n_instances=100, seed=106)
    ok_noisy, detail_noisy = check_sim3_noisy(n_seeds=50)
    report("5 Sim(3) recovery", ok_clean and ok_noisy, f"{detail_clean}; {detail_noisy}")


def test_criterion_06_projection_round_trips():
    ok, detail = check_projection_round_trip(n_instances=100, seed=107)
    report("6 projection round trips", ok, detail)


def test_criterion_07_memory_policy_conformance():
    checks = [
        ("FIFO with 0.6 admission", check_amm_fifo_replay()),
        ("static snapshot immutable", check_glm_static_immutable()),
        ("halt reverts banks", check_halt_revert()),
        ("update cadence 0-99 then every 25", check_update_cadence()),
    ]
    # capacity bound under sustained admissions, including the initial query
    sc = gen_scenario(7, ScenarioParams("identity", n_frames=2, canvas=(32, 32), object_size=13))
    pipe = Pipeline(sc.query, PipelineConfig(kernel_size=1, capacity=8))
    capacity_ok = True
    for t in range(20):
        pipe.step_frame(sc.frames[t % 2].feature, t)
        capacity_ok &= len(pipe.memory.amm_entries) <= 8
        capacity_ok &= len(pipe.memory.glm_samples) <= 8
    checks.append(("capacity bound", (capacity_ok, f"banks stayed within capacity: {capacity_ok}")))
    failures = [f"{name}: {detail}" for name, (ok, detail) in checks if not ok]
    report(
        "7 memory-policy conformance",
        not failures,
        "; ".join(f"{name} ok" for name, _ in checks) if not failures else "; ".join(failures),
    )


def test_criterion_08_end_to_end_2d():
    start = time.monotonic()
    identity = gen_scenario(7, preset_params("identity"))
    track = Pipeline(identity.query, PipelineConfig()).run([f.feature for f in identity.frames])
    report_identity = metrics.eval_2d(track, identity)

    drift = gen_scenario(7, preset_params("drift"))
    frames = [f.feature for f in drift.frames]
    adaptive = Pipeline(drift.query, PipelineConfig()).run(frames)
    frozen = Pipeline(drift.query, PipelineConfig(updates_enabled=False)).run(frames)

    frame150 = frozen.results[150]
    admit_fails_at_150 = frame150.s_conf < 0.6

    def interval_iou(out):
        if out.interval is None:
            return 0.0
        return metrics.temporal_iou(
            (out.interval.start_frame, out.interval.end_frame), drift.gt_interval
        )

    gap = interval_iou(adaptive) - interval_iou(frozen)
    elapsed = time.monotonic() - start
    report(
        "8 end-to-end synthetic 2D",
        report_identity.st_ap25 == 1.0
        and report_identity.recovery_pct == 100.0
        and admit_fails_at_150
        and gap >= 0.2
        and elapsed < 120.0,
        f"identity stAP25 {report_identity.st_ap25}, recovery {report_identity.recovery_pct}%; "
        f"frozen frame-150 s_conf {frame150.s_conf:.3f} < 0.6; interval-IoU gap {gap:.3f} >= 0.2; "
        f"runtime {elapsed:.1f}s < 120s",
    )


def test_criterion_09_end_to_end_3d():
    checks = [
        ("ground-truth aggregation", check_geo_aggregation()),
        ("corrupted-view suppression", check_geo_weight_suppression()),
    ]
    report(
        "9 end-to-end synthetic 3D",
        all(ok for _, (ok, _) in checks),
        "; ".join(f"{name}: {detail}" for name, (_, detail) in checks),
    )


def test_criterion_10_temporal_localization():
    two_plateaus = [0.0] * 10 + [1.0] * 11 + [0.0] * 19 + [1.0] * 11 + [0.0] * 5
    got = temporal_localize(two_plateaus)
    last_ok = (got.start_frame, got.end_frame) == (40, 50)

    rng = np.random.default_rng(108)
    seq = np.abs(rng.normal(size=60)) + 0.01
    scale_ok = all(temporal_localize(seq) == temporal_localize(k * seq) for k in (0.5, 3.0, 17.0))

    # hand computation: the width-5 median of
    # [.5,.5,.5,1,1,1,.5,.5,.5] is [.5,.5,.5,1,1,1,.5,.5,.5] and the
    # 0.8 * max threshold (0.8) keeps exactly frames 3..5
    hand = [0.5, 0.5, 0.5, 1.0, 1.0, 1.0, 0.5, 0.5, 0.5]
    got_hand = temporal_localize(hand)
    hand_ok = (got_hand.start_frame, got_hand.end_frame) == (3, 5)

    report(
        "10 temporal localization",
        last_ok and scale_ok and hand_ok,
        f"last plateau (40, 50): {last_ok}; scale invariance: {scale_ok}; "
        f"median/threshold hand case (3, 5): {hand_ok}",
    )


def test_criterion_11_determinism(tmp_path):
    scenario_2d = tmp_path / "identity.json"
    fileio.save_scenario(
        gen_scenario(7, ScenarioParams("identity", n_frames=10, canvas=(32, 32), object_size=13)),
        str(scenario_2d),
    )
    scenario_3d = tmp_path / "geo.json"
    geo = gen_scenario(11, preset_params("geo"))
    fileio.save_scenario(geo, str(scenario_3d))
    gt_track = tmp_path / "gt_track.json"
    fileio.save_track(ground_truth_track(geo), str(gt_track))

    def run(tag):
        out2d = tmp_path / f"track2d_{tag}.json"
        out3d = tmp_path / f"track3d_{tag}.json"
        for args in (
            ["run2d", "--scenario", str(scenario_2d), "--out", str(out2d)],
            ["run3d", "--scenario", str(scenario_3d), "--track", str(gt_track), "--out", str(out3d)],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "vql.cli", *args], capture_output=True, text=True
            )
            assert proc.returncode == 0, proc.stderr
        return out2d.read_bytes(), out3d.read_bytes()

    first = run("a")
    second = run("b")
    third = run("c")
    identical = first == second == third
    report(
        "11 determinism",
        identical,
        f"run2d/run3d outputs byte-identical across three runs: {identical}",
    )
