"""Search for partitions of a weighted set into constant-sum triples.

A free action of a 3-element cyclic group whose orbits average a fixed
statistic value must split the set into triples of equal statistic sum,
so such a partition is a certificate that the necessary orbit structure
exists.  Every search is one deterministic first-solution search over
how many items carry each value (kernels.triple_search, the
"value-count" engine), bounded by a node budget and an optional clock
budget; it reports a certificate, a proof of infeasibility (the space
was exhausted), or budget exhaustion, and never claims more.  The
kernel names each outcome as reports print it (kernels.STATUS_*), and
the result carries that name unchanged.  A certificate is reported
only after homomesy_verify accepts it.
"""

import time
from typing import Callable, NamedTuple, Optional, Sequence

from . import kernels
from .errors import CoverageError, NotDivisibleByThreeError, ShapeMismatchError
from .matchings import (
    conjugate_matching,
    conjugate_tableau,
    enumerate_matchings,
    format_matching,
    parse_matching,
    stats,
)
from .partitions import Partition, conjugate, format_partition, size
from .tableaux import (
    average_weight_formula,
    count_formula,
    enumerate_ot,
    format_tableau,
    parse_tableau,
    weight,
)

WeightedItem = tuple[str, int]

DEFAULT_NODE_BUDGET = 10**8
DEFAULT_TIME_BUDGET = 60.0


class TriplePartition(NamedTuple):
    """Disjoint triples of item identifiers, each summing to the target."""

    triples: list[tuple[str, str, str]]
    target: int


class SearchResult(NamedTuple):
    """Outcome of a triple-partition search run."""

    status: str  # kernels.STATUS_*: "certificate" | "infeasible" | "budget-exhausted"
    partition: Optional[TriplePartition]
    nodes: int
    elapsed: float
    target: int
    item_count: int

    @property
    def found(self) -> bool:
        return self.status == kernels.STATUS_FOUND


def triple_partition_search(
    items: Sequence[WeightedItem],
    target: int,
    node_budget: int,
    time_budget: float,
    mate: Optional[dict[str, str]],
) -> SearchResult:
    """Partition the items into triples of value sum `target`, if possible.

    With a `mate` mapping only triples closed under it are allowed; an
    identifier it leaves out is its own mate.  Raises ValueError when the
    identifiers repeat, or when the mapping leads outside the item set or
    is not an involution.  The search is deterministic: identical input
    yields the identical certificate and node count.  It stops after
    `node_budget` attempted triples, or after `time_budget` seconds when
    that is positive; a budget-exhausted result reports the nodes it
    attempted, at most `node_budget`.  Raises RuntimeError if
    homomesy_verify rejects the certificate the kernel returned.
    """
    if len(items) % 3:
        raise NotDivisibleByThreeError(f"{len(items)} items cannot be split into triples")
    index = {identifier: i for i, (identifier, _) in enumerate(items)}
    if len(index) != len(items):
        raise ValueError("item identifiers must be distinct")
    mates = None
    if mate is not None:
        mates = [index.get(mate.get(identifier, identifier)) for identifier in index]
        if any(j is None or mates[j] != i for i, j in enumerate(mates)):
            raise ValueError("mate mapping must be an involution on the item set")
    start_time = time.monotonic()
    status, triples, nodes = kernels.triple_search(
        [value for _, value in items], target, node_budget, time_budget, mates
    )
    elapsed = time.monotonic() - start_time
    partition = None
    if status == kernels.STATUS_FOUND:
        partition = TriplePartition(
            [(items[i][0], items[j][0], items[k][0]) for i, j, k in triples], target
        )
        try:
            verified = homomesy_verify(partition, items)
        except CoverageError:
            verified = False
        if not verified:
            raise RuntimeError("the search returned a certificate that homomesy_verify rejects")
    return SearchResult(status, partition, nodes, elapsed, target, len(items))


def homomesy_verify(partition: TriplePartition, items: Sequence[WeightedItem]) -> bool:
    """True when the triples cover the items exactly and share one sum.

    Raises CoverageError when the triples are not an exact cover of the
    item identifiers.
    """
    value_of = dict(items)
    if len(value_of) != len(items):
        raise ValueError("item identifiers must be distinct")
    seen: list[str] = []
    for triple in partition.triples:
        seen.extend(triple)
    if sorted(seen) != sorted(value_of):
        raise CoverageError("triples do not partition the item set")
    sums = {sum(value_of[identifier] for identifier in triple) for triple in partition.triples}
    if not sums:
        return True
    return sums == {partition.target}


def orbit_sum_target_tableaux(k: int, n: int) -> int:
    """Required weight sum of a size-3 orbit: three times the average weight."""
    # 4n^2 + 8kn + 2n + 3k(k + 1) is even, so three sixths of it is whole
    return int(3 * average_weight_formula(k, n))


def orbit_sum_target_matchings(n: int) -> int:
    """Required alignment sum of a size-3 orbit: C(n, 2)."""
    if n < 2:
        raise ValueError("orbit targets need n >= 2")
    return n * (n - 1) // 2


def divisibility_check(shape: Partition, n: int) -> bool:
    """True when 3 divides the closed-form walk count for this shape and n."""
    return count_formula(shape, n) % 3 == 0


def tableau_items(shape: Partition, n: int) -> list[WeightedItem]:
    """The walks to `shape` of length |shape|+2n, keyed by text form, valued by weight."""
    length = size(shape) + 2 * n
    return [
        (format_tableau(t), weight(t)) for t in enumerate_ot((), tuple(shape), length)
    ]


def matching_items(n: int) -> list[WeightedItem]:
    """All matchings of [2n], keyed by text form, valued by alignment count."""
    return [
        (format_matching(m), stats(m).alignments) for m in enumerate_matchings(n)
    ]


def _search_set(
    items: list[WeightedItem],
    noun: str,
    target: Callable[[], int],
    conjugate_text: Callable[[str], str],
    node_budget: int,
    time_budget: float,
    conjugation_closed: bool,
) -> SearchResult:
    """Check the item count, then search with the optional conjugation mates."""
    if len(items) % 3:
        raise NotDivisibleByThreeError(
            f"{len(items)} {noun} cannot form triples; routine needs n >= 2"
        )
    mate = None
    if conjugation_closed:
        mate = {identifier: conjugate_text(identifier) for identifier, _ in items}
    return triple_partition_search(items, target(), node_budget, time_budget, mate)


def search_tableaux(
    shape: Partition,
    n: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    time_budget: float = DEFAULT_TIME_BUDGET,
    conjugation_closed: bool = False,
) -> SearchResult:
    """Triple-partition search over the walks to `shape` with the weight statistic.

    With conjugation_closed=True only triples closed under stepwise
    conjugation of the walks are allowed (an exploratory restriction).
    Conjugation maps the walks to `shape` onto the walks to its
    conjugate, so that needs a self-conjugate shape; any other raises
    ShapeMismatchError before a walk is enumerated.
    """
    if conjugation_closed and (dual := conjugate(shape)) != tuple(shape):
        raise ShapeMismatchError(
            "a conjugation-closed search needs a self-conjugate shape; "
            f"{format_partition(shape)} has conjugate {format_partition(dual)}"
        )
    return _search_set(
        tableau_items(shape, n),
        "walks",
        lambda: orbit_sum_target_tableaux(size(shape), n),
        lambda text: format_tableau(conjugate_tableau(parse_tableau(text))),
        node_budget,
        time_budget,
        conjugation_closed,
    )


def search_matchings(
    n: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    time_budget: float = DEFAULT_TIME_BUDGET,
    conjugation_closed: bool = False,
) -> SearchResult:
    """Triple-partition search over the matchings of [2n] with the alignment statistic."""
    return _search_set(
        matching_items(n),
        "matchings",
        lambda: orbit_sum_target_matchings(n),
        lambda text: format_matching(conjugate_matching(parse_matching(text))),
        node_budget,
        time_budget,
        conjugation_closed,
    )
