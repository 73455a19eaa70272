"""Exact-arithmetic toolkit for special families of k-spaces in PG(n,q)."""

from .families import (
    BatteryConfig,
    BatteryDisagreement,
    BatteryReport,
    CLCandidate,
    FamilyError,
    Verdict,
    complement,
    difference,
    disjoint_union,
    family,
    full_family,
    hyperplane_family,
    intersection_distribution,
    point_flag_identity,
    point_pencil_family,
    run_battery,
)
from .geometry import GeometryCtx, GeometrySizeError, Subspace, geometry
from .gf import FieldCtx, FieldReduction, field_ctx
from .linalg import kernel_vectors, rref_int
from .qformulas import (
    SchemeParams,
    count_disjoint,
    eigenvalue_p,
    eigenvalue_separated,
    excludes_skew_subfamily,
    member_meet_count,
    pair_meet_count_bound,
    pair_skew_count,
    pair_skew_count_bound,
    parameter_range,
    qbinom,
    skew_pair_component,
    skew_pair_outer_point,
    skew_pair_span_point,
    skew_pair_total,
    valence,
    within_classification_bound,
)
from .scheme import (
    SchemeBundle,
    bundle_for,
    disjointness_vector_identity,
    full_spectrum_check,
    incidence_rows,
    rowspace_equals_v0_v1,
)
from .search import (
    SearchResult,
    max_disjoint_subfamily,
    nonexistence_window,
    search_all,
    verify_max_disjoint,
)

__all__ = [name for name in dir() if not name.startswith("_")]
