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
only after homomesy_verify accepts it.  The search works on item
positions; item texts are formatted only to build the items, and a
conjugation-closed search takes each walk's mate from the enumerated
walks and each matching's from its insertion cells
(matchings.conjugate_mates), in the one enumeration that builds the
items.  A walk set over the OSCTAB_MAX_ENUM cap is refused by
tableaux.enumerate_ot at its call, before any item is built.
"""

import time
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from . import kernels
from .errors import CoverageError, NotDivisibleByThreeError, ShapeMismatchError
from .matchings import (
    PerfectMatching,
    conjugate_mates,
    conjugate_tableau,
    enumerate_matchings,
    format_matching,
    stats,
)
from .partitions import OscillatingTableau, Partition, conjugate, format_partition, size
from .tableaux import (
    average_weight_formula,
    enumerate_ot,
    format_tableau,
    walk_count,
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
    mate: Optional[Sequence[int]],
) -> SearchResult:
    """Partition the items into triples of value sum `target`, if possible.

    With a `mate`, a sequence of positions, only triples closed under
    i -> mate[i] are allowed.  Raises ValueError when the identifiers
    repeat, or when `mate` is not an involution on range(len(items)): a
    wrong length, an entry out of range, or mate[mate[i]] != i.  The
    search is deterministic: identical input yields the identical
    certificate and node count.  It stops after `node_budget` attempted
    triples, or after `time_budget` seconds when that is positive; a
    budget-exhausted result reports the nodes it attempted, at most
    `node_budget`.  Raises RuntimeError if homomesy_verify rejects the
    certificate the kernel returned.
    """
    m = len(items)
    if m % 3:
        raise NotDivisibleByThreeError(f"{m} items cannot be split into triples")
    if len({identifier for identifier, _ in items}) != m:
        raise ValueError("item identifiers must be distinct")
    if mate is not None and (
        len(mate) != m or any(not 0 <= j < m or mate[j] != i for i, j in enumerate(mate))
    ):
        raise ValueError("mate must be an involution on the item positions")
    start_time = time.monotonic()
    status, triples, nodes = kernels.triple_search(
        [value for _, value in items], target, node_budget, time_budget, mate
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
    return SearchResult(status, partition, nodes, elapsed, target, m)


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
    return walk_count((), shape, size(shape) + 2 * n) % 3 == 0


def _walks(shape: Partition, n: int) -> Iterator[OscillatingTableau]:
    """The walks to `shape` of length |shape|+2n; enumerate_ot refuses an over-cap set here."""
    return enumerate_ot((), tuple(shape), size(shape) + 2 * n)


def _walk_item(walk: OscillatingTableau) -> WeightedItem:
    return format_tableau(walk), weight(walk)


def _matching_item(matching: PerfectMatching) -> WeightedItem:
    return format_matching(matching), stats(matching).alignments


def tableau_items(shape: Partition, n: int) -> list[WeightedItem]:
    """The walks to `shape` of length |shape|+2n, keyed by text form, valued by weight."""
    return list(map(_walk_item, _walks(shape, n)))


def matching_items(n: int) -> list[WeightedItem]:
    """All matchings of [2n], keyed by text form, valued by alignment count."""
    return list(map(_matching_item, enumerate_matchings(n)))


def _items_and_mates(
    objects: Iterable, item_of: Callable, mates_of: Optional[Callable]
) -> tuple[list[WeightedItem], Optional[list[int]]]:
    """The objects' items and, given mates_of, their mates, from one pass over the objects.

    mates_of reads the objects as the items are built, so none is held
    twice and none is enumerated twice.
    """
    if mates_of is None:
        return list(map(item_of, objects)), None
    items = []

    def listed() -> Iterator:
        for obj in objects:
            items.append(item_of(obj))
            yield obj

    mate = mates_of(listed())
    return items, mate


def conjugate_positions(objects: Iterable, conjugate_of: Callable) -> list[int]:
    """For each of the distinct objects in order, the position of its conjugate."""
    position = {obj: i for i, obj in enumerate(objects)}
    return [position[conjugate_of(obj)] for obj in position]


def _check_triples(items: list[WeightedItem], noun: str) -> None:
    """Refuse, before the orbit target is computed, a set that triples cannot cover."""
    if len(items) % 3:
        raise NotDivisibleByThreeError(
            f"{len(items)} {noun} cannot form triples; routine needs n >= 2"
        )


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
    mates_of = None
    if conjugation_closed:
        mates_of = partial(conjugate_positions, conjugate_of=conjugate_tableau)
    items, mate = _items_and_mates(_walks(shape, n), _walk_item, mates_of)
    _check_triples(items, "walks")
    target = orbit_sum_target_tableaux(size(shape), n)
    return triple_partition_search(items, target, node_budget, time_budget, mate)


def search_matchings(
    n: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    time_budget: float = DEFAULT_TIME_BUDGET,
    conjugation_closed: bool = False,
) -> SearchResult:
    """Triple-partition search over the matchings of [2n] with the alignment statistic."""
    mates_of = conjugate_mates if conjugation_closed else None
    items, mate = _items_and_mates(enumerate_matchings(n), _matching_item, mates_of)
    _check_triples(items, "matchings")
    target = orbit_sum_target_matchings(n)
    return triple_partition_search(items, target, node_budget, time_budget, mate)
