"""The skew denominator scan: exact average weights over a grid of skew walks.

Each nonempty cell (start, shape, length) of the grid gets its walk
count and reduced average weight in closed form, from the normal-ordered
(U + D)^l and the skew tableau counts of partitions.overlaps; no walk is
visited.  Only `skew-scan` and `verify` load this module, and it imports
only partitions and util, so `skew-scan` never compiles tableaux.
"""

from fractions import Fraction
from typing import NamedTuple, Optional

from .partitions import Partition, overlaps, partitions_up_to, size, skew_syt_counts
from .util import normal_order_coefficient


class ScanCase(NamedTuple):
    """One nonempty cell of the skew-average scan."""

    start: Partition
    shape: Partition
    length: int
    count: int
    average: Fraction

    @property
    def denominator(self) -> int:
        return self.average.denominator


class ScanReport(NamedTuple):
    """A scan's cases in scan order; never empty, as every scan holds () -> () at length 0."""

    records: list[ScanCase]

    @property
    def cases(self) -> int:
        return len(self.records)

    @property
    def max_denominator_case(self) -> ScanCase:
        """The first case with the largest reduced denominator."""
        return max(self.records, key=lambda case: case.denominator)

    @property
    def max_denominator(self) -> int:
        return self.max_denominator_case.denominator

    @property
    def witness_exceeding_3(self) -> Optional[ScanCase]:
        """The first case whose denominator exceeds 3, if any."""
        return next((case for case in self.records if case.denominator > 3), None)

    @property
    def all_denominators_divide_3(self) -> bool:
        return all(case.denominator in (1, 3) for case in self.records)


def skew_denominator_scan(max_start_size: int, max_shape_size: int, max_length: int) -> ScanReport:
    """Reduced denominators of the average weight over a grid of skew walks.

    Covers every (start, shape, length) with the given size and length
    bounds whose walk set is nonempty, visited start, then shape, then
    length.  Normal-ordering (U + D)^l by DU - UD = I gives, for walks
    from mu to lambda with d = |lambda| - |mu|,

        count   = sum_j b(j + d, j, l) g_j,
        average = (l + 1) (|mu| + (l + 2d)/6 - E[j]/3),

    where b is util.normal_order_coefficient, g is overlaps' and E[j]
    is the mean of j under the count's terms.  No walk is visited: g
    comes from the two partitions' skew_syt_counts once per pair, and
    every length reads it.
    """
    records = []
    shapes = list(partitions_up_to(max_shape_size))
    largest = max(max_start_size, max_shape_size)
    skew_counts = {p: skew_syt_counts(p) for p in partitions_up_to(largest)}
    for start in partitions_up_to(max_start_size):
        mu = size(start)
        for shape in shapes:
            d = size(shape) - mu
            g_terms = overlaps(skew_counts[start], skew_counts[shape])
            # each step changes the size by one, so only lengths of d's parity have walks
            for length in range(d % 2, max_length + 1, 2):
                terms = [(j, normal_order_coefficient(j + d, j, length) * g_j) for j, g_j in g_terms]
                count = sum(term for _, term in terms)
                if not count:
                    continue
                lowered = sum(j * term for j, term in terms)  # count * E[j]
                sixfold_total = (length + 1) * ((6 * mu + length + 2 * d) * count - 2 * lowered)
                average = Fraction(sixfold_total, 6 * count)
                records.append(ScanCase(start, shape, length, count, average))
    return ScanReport(records)
