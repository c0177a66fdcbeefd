"""Visual query localization toolkit.

A numpy library implementing the numerical machinery of memory-driven
query localization: a steepest-descent meta-learned segmentation filter, a
Gauss-Newton discriminative correlation filter with a hinge residual, dual
episodic memory banks, branch fusion with temporal localization, and a
multi-view 3D back-projection and aggregation stage, plus a synthetic
scenario harness with its own metrics and CLI.
"""

from .core import (
    DimensionError,
    EmptyInputError,
    ParameterError,
    conv2d,
    connected_components,
    gaussian_label,
    kernel_gradient,
    median_filter_1d,
    min_bounding_rect,
)
from .amm import (
    AmmSample,
    SegFilter,
    amm_admit,
    crop_sample,
    encode_pseudo_label,
    reweight,
    seg_gradient,
    seg_loss,
    steepest_descent,
    steepest_step_size,
)
from .glm import (
    GlmSample,
    TrackFilter,
    gauss_newton_step,
    glm_make_dynamic_sample,
    glm_update_source,
    optimize_filter,
    spatial_weight,
    track_gradient,
    track_loss,
    track_residual,
    track_score,
)
from .fusion import (
    SegmentationResult,
    TemporalInterval,
    extract_result,
    fuse,
    temporal_localize,
)
from .geo3d import (
    CameraFrame,
    DegenerateGeometryError,
    InvalidSampleError,
    Sim3Transform,
    ViewContribution,
    aggregate,
    align_sim3,
    backproject,
    geometric_confidence,
    relative_displacement,
    semantic_confidence,
)
from .pipeline import (
    NoDetectionError,
    Pipeline,
    PipelineConfig,
    QuerySpec,
    TrackOutput,
    finalize_3d,
)
from .scenario import PRESETS, Scenario, ScenarioParams, gen_scenario, ground_truth_track
from .metrics import MetricsReport2D, MetricsReport3D, box_iou, eval_2d, eval_3d, temporal_iou
from .fileio import (
    SchemaError,
    load_config,
    load_scenario,
    load_track,
    save_config,
    save_scenario,
    save_track,
)

__version__ = "0.1.0"
