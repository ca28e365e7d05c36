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
    evaluate,
    load_surface,
    save_surface,
    uniform_clamped_knots,
    uniform_periodic_knots,
)
from .subdivision import IntersectionPointSets, hausdorff_bound, intersect_surfaces
from .mapper import (
    LinearFilter,
    MapperGraph,
    MapperNode,
    MapperParams,
    build_cover,
    centroid,
    compute_l0,
    default_delta,
    eval_filter,
    interval_count,
    principal_direction,
)
from .twostep import (
    TwoStepResult,
    build_mapper_graph,
    orthogonal_filter,
    run_two_step,
    split_interval_count,
)
from .partition import (
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
