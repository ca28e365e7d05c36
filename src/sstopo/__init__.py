"""Intersection topology of B-spline surface pairs via subdivision + Mapper graphs."""

from ._kernels import backend
from .errors import (
    ConfigurationError,
    DegenerateCloudError,
    EmptyInputError,
    ParameterRangeError,
    SstopoError,
)
from .geometry import (
    BSplineSurface,
    KnotVector,
    ParamRect,
    evaluate,
    load_surface,
    save_surface,
    split_rect,
    uniform_clamped_knots,
    uniform_periodic_knots,
)
from .subdivision import IntersectionPointSets, hausdorff_bound, intersect_surfaces
from .mapper import (
    Cover,
    LinearFilter,
    MapperGraph,
    MapperNode,
    MapperParams,
    build_cover,
    build_mapper_graph,
    centroid,
    cluster_preimage,
    compute_l0,
    default_delta,
    eval_filter,
    interval_count,
    principal_direction,
)
from .twostep import (
    TwoStepResult,
    orthogonal_filter,
    run_two_step,
    split_interval_count,
)
from .partition import (
    BoundarySpec,
    CharacteristicNodes,
    CrossDomainMatch,
    PartitionResult,
    Segment,
    approximate_boundary_set,
    classify_characteristic_nodes,
    match_across_domains,
    partition,
)
from .synthetic import (
    Arc,
    Circle,
    SegmentCurve,
    SyntheticSpec,
    generate_synthetic,
    load_cloud,
    recommended_delta,
    save_cloud,
)
from .pipeline import (
    PipelineConfig,
    ResultDocument,
    result_digest,
    run_mapper_only,
    run_pipeline,
    sweep_theta,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
