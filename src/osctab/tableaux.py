"""Walks in the partition lattice and their weight statistic.

A walk of length l is a tuple of l+1 partitions in which consecutive
entries differ by one box in either direction.  Walks starting at the
empty partition are enumerated exactly, and their count and average
weight are compared against closed forms; walks with a nonempty start
are the skew variant, which only has enumerated data.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Iterator, Optional, Sequence

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
    return sum(size(step) for step in tableau)


def format_tableau(tableau: OscillatingTableau) -> str:
    """Canonical text form: partition texts joined by '|'."""
    return "|".join(format_partition(step) for step in tableau)


def parse_tableau(text: str) -> OscillatingTableau:
    steps = tuple(parse_partition(piece) for piece in text.split("|"))
    if not is_oscillating_tableau(steps):
        raise ShapeMismatchError(f"consecutive steps are not single-box moves: {text!r}")
    return steps


def enumerate_ot(
    start: Partition,
    shape: Partition,
    length: int,
    max_output: Optional[int] = None,
) -> Iterator[OscillatingTableau]:
    """Yield all length-`length` walks from start to shape, depth-first.

    At every step the single-box growths come first (largest part first)
    and the single-box removals after (top row first), which fixes a
    reproducible total order on the output.  Branches that cannot reach
    the target within the remaining steps are cut, so a parity or size
    mismatch yields an empty iterator.  Raises BoundExceededError once
    more than max_output walks (default from OSCTAB_MAX_ENUM) have been
    produced.
    """
    cap = max_enumeration_size() if max_output is None else max_output
    path: list[Partition] = [start]
    produced = 0

    def rec(current: Partition, remaining: int) -> Iterator[OscillatingTableau]:
        nonlocal produced
        dist = cover_distance(current, shape)
        if dist > remaining or (remaining - dist) % 2:
            return
        if remaining == 0:
            produced += 1
            if produced > cap:
                raise BoundExceededError(
                    f"enumeration exceeds the configured cap of {cap} walks"
                )
            yield tuple(path)
            return
        for nxt in covers_up(current) + covers_down(current):
            path.append(nxt)
            yield from rec(nxt, remaining - 1)
            path.pop()

    yield from rec(start, length)


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


@dataclass
class ScanCase:
    """One nonempty cell of the skew-average scan."""

    start: Partition
    shape: Partition
    length: int
    count: int
    average: Fraction

    @property
    def denominator(self) -> int:
        return self.average.denominator


@dataclass
class ScanReport:
    """Outcome of scanning skew average-weight denominators over a grid."""

    max_start_size: int
    max_shape_size: int
    max_length: int
    cases: int = 0
    max_denominator: int = 1
    max_denominator_case: Optional[ScanCase] = None
    witness_exceeding_3: Optional[ScanCase] = None
    witness_not_dividing_3: Optional[ScanCase] = None
    records: list[ScanCase] = field(default_factory=list)

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
    exceeds 3.
    """
    report = ScanReport(max_start_size, max_shape_size, max_length)
    for start in partitions_up_to(max_start_size):
        for shape in partitions_up_to(max_shape_size):
            for length in range(max_length + 1):
                profile = weight_profile(start, shape, length)
                if not profile:
                    continue
                count = sum(profile)
                total = sum(w * c for w, c in enumerate(profile))
                case = ScanCase(start, shape, length, count, Fraction(total, count))
                report.cases += 1
                if keep_records:
                    report.records.append(case)
                if case.denominator > report.max_denominator:
                    report.max_denominator = case.denominator
                    report.max_denominator_case = case
                if case.denominator > 3 and report.witness_exceeding_3 is None:
                    report.witness_exceeding_3 = case
                if case.denominator not in (1, 3) and report.witness_not_dividing_3 is None:
                    report.witness_not_dividing_3 = case
    return report
