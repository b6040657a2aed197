"""Interaction-mode evaluation for joint multi-agent trajectory predictions.

Filters safety-critical path-crossing agent pairs, classifies interactions
with winding-angle homotopy classes, enumerates kinematically feasible
futures by rollout simulation with collision checking, and computes mode
correctness / coverage / collapse and displacement metrics.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    ConfigError,
    DegenerateInterval,
    DuplicateAgentId,
    EmptyCorpus,
    EmptyFeasibleSet,
    EmptyOverlap,
    InteractionEvalError,
    IndexOutOfRange,
    LengthMismatch,
    NoCollapse,
    NoFeasibleCombo,
    NonFiniteCoordinate,
    NonUniformSampling,
    ParseError,
    SceneValidationError,
    ShortTrajectory,
    UnknownAgent,
)
from .types import (  # noqa: F401
    Agent,
    EvalConfig,
    JointPredictionSet,
    Scene,
    Trajectory,
    common_window,
    resample_trajectory,
    trajectory_kinematics,
    validate_scene,
)
from .filtering import (  # noqa: F401
    CriticalPair,
    PairFates,
    PairRejection,
    RejectReason,
    classify_pair,
    filter_scene,
    filter_scene_with_rejections,
)
from .homotopy import (  # noqa: F401
    HomotopyClass,
    classify_pair_windows,
    gt_mode_sequence,
    homotopy_class,
    winding_rows,
)
from .collision import VehicleDims, is_collision  # noqa: F401
from .rollout import (  # noqa: F401
    InteractionTimeline,
    PathRollout,
    ProfileKind,
    interaction_timeline,
    interaction_timelines,
    max_scene_speed,
)
from .baselines import cv_predict, oracle_predict  # noqa: F401
from .metrics import (  # noqa: F401
    AggregateReport,
    DisplacementMetrics,
    FrameModeFlags,
    FrameRecord,
    PairMetrics,
    PairRecord,
    aggregate,
    displacement_metrics,
    frame_flags,
    pair_time_metrics,
)
from .sceneio import load_predictions, load_scene, save_predictions, save_scene  # noqa: F401
from .pipeline import (  # noqa: F401
    analyse_scene,
    emit_histograms,
    evaluate_scene,
    grade_scene,
    run_fixture,
    run_pipeline,
)
