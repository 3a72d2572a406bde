"""Noncrossing partition lattices of planar point configurations.

Exact rational geometry, the refinement order on partitions with pairwise
disjoint block hulls, order property checks, symmetric chain decompositions,
and cross-checked enumeration.
"""

from .errors import (
    AssemblyFailure,
    DuplicatePoint,
    EmptyBlock,
    GroundMismatch,
    InvalidInput,
    LabelMismatch,
    NclatError,
    NotGraded,
    NotNoncrossing,
    NotRankSymmetric,
    TooLarge,
    Undecided,
    UnknownFamily,
)
from .geometry import (
    FAMILIES,
    Configuration,
    Point,
    config_from_json,
    config_to_json,
    make_configuration,
    standard_config,
)
from .partition import (
    DEFAULT_ENUM_CAP,
    SetPartition,
    common_refinement,
    count_noncrossing,
    enumerate_noncrossing,
    is_noncrossing,
    partition_join,
)
from .poset import (
    DEFAULT_DUALITY_CAP,
    DEFAULT_LATTICE_CAP,
    FinitePoset,
    GradedInfo,
    bool_poset,
    build_nc_poset,
    find_isomorphism,
    gradedness,
    is_isomorphism,
    is_rank_symmetric,
    is_self_dual,
    lattice_check,
    nc_join,
    nc_meet,
    poset_isomorphic,
    poset_to_dot,
    poset_to_json_obj,
    product_poset,
    rank_vector,
)
from .scd import (
    DecompositionPart,
    RemovalDecomposition,
    VerifyResult,
    boolean_scd,
    decomposition_parts,
    generic_scd,
    product_scd,
    removal_class,
    scd_S,
    scd_T,
    scd_U,
    scd_V,
    symmetric_chain_profile,
    verify_scd,
)
from .enumeration import (
    BivariateSeries,
    CountTable,
    CrossCheck,
    brute_t_sequence,
    brute_table,
    catalan,
    cross_check,
    s_table,
    series_S,
    series_T,
    series_U,
    series_V,
    series_table,
    t_closed,
    t_sequence,
    u_table,
    v_table,
)
from .fixtures import BUILTIN, load_builtin
from .acceptance import CriterionResult, run_criteria

__version__ = "0.1.0"
