"""Walks in the partition lattice and their weight statistic.

A walk of length l is a tuple of l+1 partitions in which consecutive
entries differ by one box in either direction.  Walks starting at the
empty partition are enumerated exactly, and their count and average
weight are compared against closed forms.  Walks with a nonempty start
are the skew variant.  walk_count counts any walk set, the cap refusals'
included, from the normal-ordered (U + D)^l and skew tableau counts; the
skew scan reads counts and average weights the same way, and `gf` lives
in diffposet.  The walk DP in kernels and the enumeration are oracles.
"""

from fractions import Fraction
from math import comb
from typing import Iterator, NamedTuple, Optional, Sequence

from . import kernels
from .errors import BoundExceededError, EmptyEnumerationError, ShapeMismatchError
from .partitions import (
    OscillatingTableau,
    Partition,
    box_step,
    cover_distance,
    covers_down,
    covers_up,
    format_partition,
    num_syt,
    parse_partition,
    partitions_up_to,
    size,
    skew_syt_counts,
)
from .util import double_factorial, max_enumeration_size, normal_order_coefficient


def is_oscillating_tableau(steps: Sequence[Partition]) -> bool:
    """True when the first entry is a partition and each step is a partitions.box_step.

    Each such step keeps a partition a partition, so then every entry is one.
    """
    if not steps:
        return False
    first = list(steps[0])
    if first != sorted(first, reverse=True) or min(first, default=1) < 1:
        return False
    return all(box_step(prev, cur) for prev, cur in zip(steps, steps[1:]))


def weight(tableau: OscillatingTableau) -> int:
    """Sum of the sizes of every partition the walk visits, endpoints included."""
    return sum(map(sum, tableau))


def format_tableau(tableau: OscillatingTableau) -> str:
    """Canonical text form: partition texts joined by '|'."""
    return "|".join(format_partition(step) for step in tableau)


def parse_tableau(text: str) -> OscillatingTableau:
    steps = tuple(parse_partition(piece) for piece in text.split("|"))
    if not is_oscillating_tableau(steps):
        raise ShapeMismatchError(f"consecutive steps are not single-box moves: {text!r}")
    return steps


def cap_exceeded(cap: int) -> BoundExceededError:
    """The error a walk enumeration raises past its cap of `cap` walks."""
    return BoundExceededError(f"enumeration exceeds the configured cap of {cap} walks")


def refuse_over_cap(start: Partition, shape: Partition, length: int) -> int:
    """walk_count, held to the cap before any walk is enumerated: past it, raise cap_exceeded."""
    cap = max_enumeration_size()
    count = walk_count(start, shape, length)
    if count > cap:
        raise cap_exceeded(cap)
    return count


def _walks(
    start: Partition, shape: Partition, length: int
) -> Iterator[tuple[list[Partition], int]]:
    """Yield (path, weight) for each walk from start to shape, depth-first.

    The one walk DFS; enumerate_ot and walk_totals read it.  `path` is a
    live list of the walk's first `length` entries: a prefix that long
    which survived the pruning is one step from shape, so that forced
    last step is never searched.  `weight`, stacked beside the path,
    includes sum(shape); the length-0 walk yields ([], sum(start)).
    Growths come before removals, largest part and top row first.  Each
    distinct partition's moves are listed once, with their distance to
    shape and size; parity and reach are checked once (a mismatch yields
    nothing), then a move is taken when its distance fits the steps left.
    The OSCTAB_MAX_ENUM cap lives here: more than
    util.max_enumeration_size() walks, the length-0 walk counted, raise
    BoundExceededError.
    """
    cap = max_enumeration_size()
    distance = cover_distance(start, shape)
    if distance > length or (length - distance) % 2:
        return
    if not length:  # start == shape
        yield [], sum(shape)
        return
    moves: dict[Partition, list[tuple[Partition, int, int]]] = {}
    produced = 0
    path, weights = [start], [sum(start) + sum(shape)]
    stack: list[Iterator[tuple[Partition, int, int]]] = []  # open moves out of path[i]
    while True:
        if len(path) == length:
            produced += 1
            if produced > cap:
                raise cap_exceeded(cap)
            yield path, weights[-1]
            path.pop()
            weights.pop()
        else:
            current = path[-1]
            table = moves.get(current)
            if table is None:
                table = moves[current] = [
                    (nxt, cover_distance(nxt, shape), sum(nxt))
                    for nxt in covers_up(current) + covers_down(current)
                ]
            stack.append(iter(table))
        # advance to the next prefix: the deepest open move that still reaches shape
        while stack:
            left = length - len(path)  # steps left after a move out of path[-1]
            for nxt, distance, nxt_size in stack[-1]:
                if distance <= left:
                    break
            else:
                stack.pop()
                path.pop()
                weights.pop()
                continue
            path.append(nxt)
            weights.append(weights[-1] + nxt_size)
            break
        else:
            return


def enumerate_ot(start: Partition, shape: Partition, length: int) -> Iterator[OscillatingTableau]:
    """Yield each walk from start to shape as a tuple, in _walks's order, under its cap."""
    return ((*path, shape) for path, _ in _walks(start, shape, length))


def weight_profile(start: Partition, shape: Partition, length: int) -> list[int]:
    """Histogram h with h[w] = number of walks of weight w (kernel-backed).

    Counts the walks enumerate_ot yields without producing any: the
    kernel advances a per-partition weight histogram one step at a time.
    """
    return kernels.ot_weight_profile(tuple(start), tuple(shape), length)


def count_formula(shape: Partition, n: int) -> int:
    """Closed-form count of length-(|shape|+2n) walks from the empty partition.

    C(2n+k, k) * (2n-1)!! * f(shape), with k = |shape| and f the number
    of standard fillings; (2n-1)!! is 1 at n = 0.
    """
    k = size(shape)
    return comb(2 * n + k, k) * double_factorial(2 * n - 1) * num_syt(shape)


def average_weight_formula(k: int, n: int) -> Fraction:
    """Closed-form average weight: (4n^2 + 3k^2 + 8kn + 2n + 3k) / 6."""
    return Fraction(4 * n * n + 3 * k * k + 8 * k * n + 2 * n + 3 * k, 6)


def average_size_formula(k: int, n: int) -> Fraction:
    """Average partition size along the walk: the average weight over 2n+k+1 steps."""
    return average_weight_formula(k, n) / (2 * n + k + 1)


def walk_totals(start: Partition, shape: Partition, length: int) -> tuple[int, int]:
    """(count, total weight) of the walks enumerate_ot yields, from _walks's weights."""
    count = total = 0
    for _, walk_weight in _walks(start, shape, length):
        count += 1
        total += walk_weight
    return count, total


def average_weight_enumerated(
    start: Partition, shape: Partition, length: int
) -> Fraction:
    """Exact average weight over every enumerated walk (walk_totals).

    Raises EmptyEnumerationError when no walk exists (parity or size
    mismatch between the endpoints and the length).
    """
    count, total = walk_totals(start, shape, length)
    if count == 0:
        raise EmptyEnumerationError(
            f"no walks of length {length} from {format_partition(start)} "
            f"to {format_partition(shape)}"
        )
    return Fraction(total, count)


def overlaps(
    start_counts: dict[Partition, int], shape_counts: dict[Partition, int]
) -> list[tuple[int, int]]:
    """Nonzero (j, g_j) from skew_syt_counts(mu) and (lambda); g_j = <lambda| U^(j+d) D^j |mu>.

    d = |lambda| - |mu|; g_j sums f^(mu/nu) f^(lambda/nu) over the nu of size |mu| - j in both.
    """
    mu = size(next(iter(start_counts)))  # the first key is mu itself
    g = [0] * (mu + 1)
    for nu, f_start in start_counts.items():
        g[mu - size(nu)] += f_start * shape_counts.get(nu, 0)
    return [(j, g_j) for j, g_j in enumerate(g) if g_j]


def walk_count(start: Partition, shape: Partition, length: int) -> int:
    """The number of walks from start to shape: sum_j b(j + d, j, l) g_j, d = |shape| - |start|."""
    d = size(shape) - size(start)
    if not start:  # g has the one term g_0 = f^shape
        return normal_order_coefficient(d, 0, length) * num_syt(shape)
    g_terms = overlaps(skew_syt_counts(start), skew_syt_counts(shape))
    return sum(normal_order_coefficient(j + d, j, length) * g_j for j, g_j in g_terms)


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
