"""The 3D path: align coordinate frames, lift detections, fuse views.

Five cameras on an arc observe one world point. Their geometry lives in a
scaled reconstruction frame; a similarity transform fitted to a handful of
point pairs maps everything back, each view's detection is back-projected
through its depth map, and the confidence-weighted average lands on the
true point. One view gets a corrupted depth and a large uncertainty; its
exp(-uncertainty) weight removes it from the result.
"""

import numpy as np
from dataclasses import replace

from vql import geo3d
from vql.pipeline import PipelineConfig, finalize_3d
from vql.scenario import gen_scenario, ground_truth_track, preset_params

params = preset_params("geo")
clean = gen_scenario(42, params)
broken = gen_scenario(42, replace(params, corrupt_views=(2,)))

t_eta = geo3d.align_sim3(clean.alignment_src, clean.alignment_dst)
print(f"recovered alignment: scale {t_eta.scale:.4f}, translation {np.round(t_eta.translation, 3)}")

for label, scenario in (("clean", clean), ("one corrupted view", broken)):
    track = finalize_3d(
        ground_truth_track(scenario),
        scenario.cameras,
        (scenario.alignment_src, scenario.alignment_dst),
    )
    err = np.linalg.norm(track.world_point - scenario.gt_point)
    print(f"\n{label}:")
    print(f"  aggregated point {np.round(track.world_point, 6)}")
    print(f"  ground truth     {np.round(scenario.gt_point, 6)}")
    print(f"  error {err:.2e} m over {len(track.displacements)} views")

tau = broken.frames[2].camera.depth_uncertainty[0, 0]
# the pipeline's default zeta is 1, so the weight is exp(-tau)
weight = geo3d.geometric_confidence(tau, PipelineConfig().zeta)
print(f"\ncorrupted view weight: exp(-{tau:.0f}) = {weight:.2e}")
