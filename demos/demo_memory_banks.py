"""Exercise the two memory banks' admission and eviction policies.

A small identity query runs at capacity 4 over target frames with every
third frame blanked to background. The appearance bank is a pure FIFO gated
on mean in-mask confidence; the localization bank pins its static query
snapshot and rotates up to capacity - 1 dynamic snapshots.
"""

from vql import glm
from vql.pipeline import Pipeline, PipelineConfig
from vql.scenario import ScenarioParams, gen_scenario


def both_banks():
    print("both banks at capacity 4: confidence-gated FIFOs, static snapshot pinned")
    scenario = gen_scenario(7, ScenarioParams(n_frames=8, canvas=(32, 32), object_size=13))
    pipe = Pipeline(scenario.query, PipelineConfig(capacity=4, kernel_size=1))
    static = pipe.memory.glm_static
    query_entries = tuple(pipe.memory.amm_entries)
    background = scenario.frames[0].feature.copy()
    background[:, :, :] = background[0, 0, :]
    for t, frame in enumerate(scenario.frames):
        result = pipe.step_frame(background if t % 3 == 2 else frame.feature, t)
        pinned = pipe.memory.glm_static is static
        held = len(pipe.memory.amm_entries)
        from_query = sum(any(s is q for q in query_entries) for s in pipe.memory.amm_entries)
        print(
            f"  frame {t}: s_conf {result.s_conf:.2f}  appearance={held} ({from_query} from the query)  "
            f"static pinned={pinned}, dynamic={len(pipe.memory.glm_dynamic)}"
        )


def update_source():
    history = [1.0] * 30 + [0.2] * 20
    print(f"weak recent responses -> refresh from '{glm.glm_update_source(history)}' snapshot")
    history = [1.0] * 50
    print(f"strong recent responses -> refresh from '{glm.glm_update_source(history)}' snapshot")


if __name__ == "__main__":
    both_banks()
    print()
    update_source()
