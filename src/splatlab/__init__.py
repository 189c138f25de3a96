"""Differentiable point-cloud projection toolkit.

Soft Gaussian splatting with hand-derived exact gradients, hard
rasterization for contrast, information-theoretic grid analysis, set-to-set
losses, and small geometry/attention primitives, all on numpy.
"""

__version__ = "0.1.0"

from .errors import InternalConsistencyError, InvalidInputError, ParseError, SplatlabError
from .geometry import (
    BBox3D,
    CameraModel,
    NeighborGraph,
    PointCloud,
    camera_coords,
    ccm_features,
    front_camera,
    gen_lidar,
    gen_sphere,
    knn,
    normalize_kitti,
    normalize_unit,
    project_points,
)
from .splatting import (
    FeatureGrid,
    GradientBundle,
    SplatAux,
    SplatConfig,
    hard_hit_count,
    rasterize_hard,
    soft_density,
    soft_density_grid,
    splat_backward,
    splat_forward,
    support_measure,
)
from .losses import LossValue, arc_cd, chamfer, chamfer_l1, fidelity, fscore, mmd, total_loss
from .infotheory import (
    AnalysisReport,
    EntropyReport,
    StrategyComparison,
    channel_entropy,
    compare_strategies,
    coverage,
    pmi_field,
)
from .nnprims import (
    AblationParams,
    AblationReport,
    AttentionParams,
    CrossAttentionGrads,
    EdgeConvCache,
    MlpParams,
    ProbeReport,
    counterfactual_ablate,
    cross_attention,
    edgeconv_backward,
    edgeconv_forward,
    grad_flow_probe,
)
from .gradcheck import central_fd, err_ratio, run_all, run_suite
from .fileio import (
    dumps_report,
    load_cloud,
    load_report,
    save_cloud,
    save_grid,
    save_report,
)
