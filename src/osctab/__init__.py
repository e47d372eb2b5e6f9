"""Exact enumeration of lattice walks, matching statistics, and orbit search."""

from .errors import (
    BoundExceededError,
    CoverageError,
    EmptyEnumerationError,
    InvalidDyckWordError,
    NotDivisibleByThreeError,
    OsctabError,
    PartitionParseError,
    ShapeMismatchError,
)
from .laurent import LaurentPolynomial
from .partitions import (
    EMPTY,
    Partition,
    as_partition,
    conjugate,
    covers_down,
    covers_up,
    enumerate_syt,
    format_partition,
    num_syt,
    parse_partition,
    partitions_of_size,
    partitions_up_to,
)
from .tableaux import (
    OscillatingTableau,
    average_size_formula,
    average_weight_enumerated,
    average_weight_formula,
    count_formula,
    enumerate_ot,
    format_tableau,
    parse_tableau,
    skew_denominator_scan,
    weight,
    weight_generating_function,
    weight_profile,
)
from .diffposet import (
    CoeffTable,
    apply_D,
    apply_U,
    b_value,
    c_value,
    commutator_check,
    q_table,
    ud_straighten_check,
    verify_key_identity,
)
from .matchings import (
    MatchingStats,
    PerfectMatching,
    area,
    as_matching,
    conjugate_matching,
    conjugate_tableau,
    dyck_of_matching,
    dyck_of_tableau,
    enumerate_dyck_words,
    enumerate_matchings,
    format_matching,
    joint_distribution,
    matching_to_tableau,
    parse_matching,
    permutation_bridge,
    prefix_stats,
    sigma_on_permutation_matchings,
    stats,
    tableau_to_matching,
    weight_via_matching,
)
from .homomesy import (
    SearchResult,
    TriplePartition,
    divisibility_check,
    homomesy_verify,
    orbit_sum_target_matchings,
    orbit_sum_target_tableaux,
    search_matchings,
    search_tableaux,
    triple_partition_search,
)

__version__ = "0.1.0"
