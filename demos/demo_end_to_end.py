"""Full query runs on two synthetic scenarios.

The identity scenario is the sanity floor: a static target the pipeline
must localize perfectly. The drift scenario rotates the target's feature
signature over time; with memory updates enabled the filters follow it,
with updates disabled the frozen query filter loses the target mid-video
and the temporal answer collapses. Takes a few seconds.
"""

from vql.metrics import eval_2d, temporal_iou
from vql.pipeline import Pipeline, PipelineConfig
from vql.scenario import gen_scenario, preset_params


def run(scenario, cfg):
    pipe = Pipeline(scenario.query, cfg)
    return pipe.run(scenario.features)


identity = gen_scenario(7, preset_params("identity"))
track = run(identity, PipelineConfig())
print("identity scenario:", eval_2d(track, identity))

drift = gen_scenario(7, preset_params("drift"))
adaptive = run(drift, PipelineConfig())
frozen = run(drift, PipelineConfig(updates_enabled=False))

for name, out in (("with memory updates", adaptive), ("updates disabled", frozen)):
    span = "none" if out.interval is None else f"{out.interval.start_frame}..{out.interval.end_frame}"
    iou = 0.0
    if out.interval is not None:
        iou = temporal_iou((out.interval.start_frame, out.interval.end_frame), drift.gt_interval)
    print(f"drift scenario, {name}: interval {span}  (IoU vs truth {iou:.3f})")
