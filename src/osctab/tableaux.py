"""Walks in the partition lattice and their weight statistic.

A walk of length l is a tuple of l+1 partitions in which consecutive
entries differ by one box in either direction.  Walks starting at the
empty partition are enumerated exactly, and their count and average
weight are compared against closed forms; walks with a nonempty start
are the skew variant, which has no closed form here: its weight
profiles come from the walk DP in kernels, checked against enumeration.
"""

from fractions import Fraction
from math import comb
from typing import Iterator, NamedTuple, Optional, Sequence

from . import kernels
from .errors import BoundExceededError, EmptyEnumerationError, ShapeMismatchError
from .laurent import LaurentPolynomial
from .partitions import (
    EMPTY,
    Partition,
    cover_distance,
    covers_down,
    covers_up,
    format_partition,
    num_syt,
    parse_partition,
    partitions_up_to,
    size,
)
from .util import double_factorial, max_enumeration_size

OscillatingTableau = tuple[Partition, ...]


def is_cover(small: Partition, big: Partition) -> bool:
    """True when big is small plus exactly one box."""
    if size(big) != size(small) + 1:
        return False
    if len(big) < len(small):
        return False
    return all(b >= s for s, b in zip(small, big + (0,) * len(small)))


def is_oscillating_tableau(steps: Sequence[Partition]) -> bool:
    """True when consecutive entries are single-box moves in either direction."""
    if not steps:
        return False
    for prev, cur in zip(steps, steps[1:]):
        if not (is_cover(prev, cur) or is_cover(cur, prev)):
            return False
    return True


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


def enumerate_ot(start: Partition, shape: Partition, length: int) -> Iterator[OscillatingTableau]:
    """Yield all length-`length` walks from start to shape, depth-first.

    At every step the single-box growths come first (largest part first)
    and the single-box removals after (top row first), which fixes a
    reproducible total order on the output.  Raises BoundExceededError
    once more than util.max_enumeration_size() walks have been produced;
    the walk (start,) of length 0 counts too.  That cap, set by the
    OSCTAB_MAX_ENUM environment variable, is the only enumeration cap.

    One loop walks an explicit stack of move iterators, one per entry of
    the current path.  A move table built for this call lists, once per
    distinct partition, its single-box moves with each move's distance to
    shape.  The distance changes by exactly one per step, so parity and
    reach are checked once at the start (a mismatch yields an empty
    iterator), and afterwards a move is taken exactly when its distance
    is at most the steps left after it.
    """
    cap = max_enumeration_size()
    distance = cover_distance(start, shape)
    if distance > length or (length - distance) % 2:
        return
    moves: dict[Partition, list[tuple[Partition, int]]] = {}
    produced = 0
    path = [start]
    stack: list[Iterator[tuple[Partition, int]]] = []  # open moves out of path[i]
    while True:
        if len(path) > length:
            produced += 1
            if produced > cap:
                raise BoundExceededError(
                    f"enumeration exceeds the configured cap of {cap} walks"
                )
            yield tuple(path)
            path.pop()
        else:
            current = path[-1]
            table = moves.get(current)
            if table is None:
                table = moves[current] = [
                    (nxt, cover_distance(nxt, shape))
                    for nxt in covers_up(current) + covers_down(current)
                ]
            stack.append(iter(table))
        # advance to the next prefix: the deepest open move that still reaches shape
        while stack:
            left = length - len(path)  # steps left after a move out of path[-1]
            for nxt, distance in stack[-1]:
                if distance <= left:
                    break
            else:
                stack.pop()
                path.pop()
                continue
            path.append(nxt)
            break
        else:
            return


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


def average_weight_enumerated(
    start: Partition, shape: Partition, length: int
) -> Fraction:
    """Exact average weight over every enumerated walk.

    Raises EmptyEnumerationError when no walk exists (parity or size
    mismatch between the endpoints and the length).
    """
    total = 0
    count = 0
    for tableau in enumerate_ot(start, shape, length):
        total += weight(tableau)
        count += 1
    if count == 0:
        raise EmptyEnumerationError(
            f"no walks of length {length} from {format_partition(start)} "
            f"to {format_partition(shape)}"
        )
    return Fraction(total, count)


def weight_generating_function(shape: Partition, length: int) -> LaurentPolynomial:
    """Sum of y**weight over all walks from the empty partition to shape.

    Evaluating at y = 1 recovers the walk count; the derivative at y = 1
    recovers the total weight.
    """
    profile = weight_profile(EMPTY, shape, length)
    return LaurentPolynomial({w: c for w, c in enumerate(profile) if c})


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
    """Outcome of scanning skew average-weight denominators over a grid."""

    cases: int
    max_denominator: int
    max_denominator_case: Optional[ScanCase]
    witness_exceeding_3: Optional[ScanCase]
    witness_not_dividing_3: Optional[ScanCase]
    records: list[ScanCase]

    @property
    def all_denominators_divide_3(self) -> bool:
        return self.witness_not_dividing_3 is None


def skew_denominator_scan(
    max_start_size: int,
    max_shape_size: int,
    max_length: int,
    keep_records: bool = False,
) -> ScanReport:
    """Reduced denominators of the average weight over a grid of skew walks.

    Covers every (start, shape, length) with the given size and length
    bounds whose walk set is nonempty, and reports the largest reduced
    denominator seen plus the first case, if any, whose denominator
    exceeds 3.  One kernel pass per start yields the profiles of every
    shape and length; cases are visited start, then shape, then length.
    """
    cases, max_denominator, records = 0, 1, []
    max_case = exceeding_3 = not_dividing_3 = None
    shapes = list(partitions_up_to(max_shape_size))
    for start in partitions_up_to(max_start_size):
        profiles = kernels.ot_weight_profiles(start, shapes, max_length)
        for shape in shapes:
            for length in range(max_length + 1):
                profile = profiles.get((shape, length))
                if profile is None:
                    continue
                count = sum(profile)
                total = sum(w * c for w, c in enumerate(profile))
                case = ScanCase(start, shape, length, count, Fraction(total, count))
                cases += 1
                if keep_records:
                    records.append(case)
                if case.denominator > max_denominator:
                    max_denominator, max_case = case.denominator, case
                if case.denominator > 3 and exceeding_3 is None:
                    exceeding_3 = case
                if case.denominator not in (1, 3) and not_dividing_3 is None:
                    not_dividing_3 = case
    return ScanReport(cases, max_denominator, max_case, exceeding_3, not_dividing_3, records)
