"""Search for partitions of a weighted set into constant-sum triples.

A free action of a 3-element cyclic group whose orbits average a fixed
statistic value must split the set into triples of equal statistic sum,
so such a partition is a certificate that the necessary orbit structure
exists.  Every search is one deterministic first-solution search over
how many items carry each value (kernels.triple_search, the
"value-count" engine), bounded by a node budget and an optional clock
budget; it reports a certificate, a proof of infeasibility (the space
was exhausted), or budget exhaustion, and never claims more.  A
certificate is reported only after homomesy_verify accepts it.
"""

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import kernels
from .errors import CoverageError, NotDivisibleByThreeError
from .matchings import (
    conjugate_matching,
    conjugate_tableau,
    enumerate_matchings,
    format_matching,
    parse_matching,
    stats,
)
from .partitions import Partition, size
from .tableaux import (
    count_formula,
    enumerate_ot,
    format_tableau,
    parse_tableau,
    weight,
)

WeightedItem = tuple[str, int]

DEFAULT_NODE_BUDGET = 10**8
DEFAULT_TIME_BUDGET = 60.0


@dataclass
class TriplePartition:
    """Disjoint triples of item identifiers, each summing to the target."""

    triples: list[tuple[str, str, str]]
    target: int


@dataclass
class SearchResult:
    """Outcome of a triple-partition search run."""

    status: str  # "certificate" | "infeasible" | "budget-exhausted"
    partition: Optional[TriplePartition]
    nodes: int
    elapsed: float
    target: int = 0
    item_count: int = 0

    @property
    def found(self) -> bool:
        return self.status == "certificate"


_STATUS_NAMES = {
    kernels.STATUS_FOUND: "certificate",
    kernels.STATUS_INFEASIBLE: "infeasible",
    kernels.STATUS_BUDGET: "budget-exhausted",
}


def _check_items(items: Sequence[WeightedItem]) -> None:
    if len(items) % 3:
        raise NotDivisibleByThreeError(
            f"{len(items)} items cannot be split into triples"
        )
    identifiers = [identifier for identifier, _ in items]
    if len(set(identifiers)) != len(identifiers):
        raise ValueError("item identifiers must be distinct")


def _mate_indices(
    items: Sequence[WeightedItem], mate: Optional[dict[str, str]]
) -> Optional[list[int]]:
    if mate is None:
        return None
    index = {identifier: i for i, (identifier, _) in enumerate(items)}
    out = []
    for identifier, _ in items:
        out.append(index[mate.get(identifier, identifier)])
    for i, j in enumerate(out):
        if out[j] != i:
            raise ValueError("mate mapping must be an involution on the item set")
    return out


def triple_partition_search(
    items: Sequence[WeightedItem],
    target: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    time_budget: float = DEFAULT_TIME_BUDGET,
    mate: Optional[dict[str, str]] = None,
) -> SearchResult:
    """Partition the items into triples of value sum `target`, if possible.

    The search is deterministic: identical input yields the identical
    certificate and node count.  It stops after `node_budget` attempted
    triples, or after `time_budget` seconds when that is positive; a
    budget-exhausted result reports the nodes it attempted, at most
    `node_budget`.  Raises RuntimeError if homomesy_verify rejects the
    certificate the kernel returned.
    """
    _check_items(items)
    start_time = time.monotonic()
    values = [value for _, value in items]
    status, triples, nodes = kernels.triple_search(
        values, target, node_budget, time_budget, _mate_indices(items, mate)
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
    return SearchResult(
        _STATUS_NAMES[status], partition, nodes, elapsed, target, len(items)
    )


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
    """Required weight sum of a size-3 orbit: (4n^2 + 3k^2 + 8kn + 2n + 3k) / 2."""
    numerator = 4 * n * n + 3 * k * k + 8 * k * n + 2 * n + 3 * k
    half, remainder = divmod(numerator, 2)
    if remainder:
        raise RuntimeError(f"orbit-sum numerator is odd for k={k}, n={n}")
    return half


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
    conjugate: Callable[[str], str],
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
        mate = {identifier: conjugate(identifier) for identifier, _ in items}
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
    """
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
