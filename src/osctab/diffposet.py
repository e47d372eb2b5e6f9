"""Up/down operators on formal integer combinations of partitions.

U adds one box in every possible way, D removes one; on the partition
lattice they satisfy DU - UD = I.  Expanding powers of (U + D) in normal
order U^i D^j yields integer coefficient families, and a y-weighted
refinement of the expansion yields Laurent-polynomial coefficients whose
value and derivative at y = 1 give the walk counts and total walk
weights that the closed forms are checked against.
"""

from fractions import Fraction
from math import comb
from typing import Mapping, NamedTuple, Union

from .errors import BoundExceededError
from .laurent import LaurentPolynomial
from .partitions import (
    Partition,
    cover_distance,  # unused here, but perfbench/tracing.py wraps this binding
    covers_down,
    covers_up,
    partitions_up_to,
)
from .util import double_factorial

FormalSum = dict[Partition, int]

DEFAULT_TABLE_BOUND = 16


def as_formal_sum(value: Union[Partition, Mapping[Partition, int]]) -> FormalSum:
    """Coerce a bare partition to the formal sum with coefficient 1."""
    if isinstance(value, tuple):
        return {value: 1}
    return {p: c for p, c in value.items() if c}


def _accumulate(acc: FormalSum, partition: Partition, coeff: int) -> None:
    total = acc.get(partition, 0) + coeff
    if total:
        acc[partition] = total
    else:
        acc.pop(partition, None)


def apply_U(value: Union[Partition, Mapping[Partition, int]]) -> FormalSum:
    """Linear extension of: partition -> sum of its one-box growths."""
    result: FormalSum = {}
    for partition, coeff in as_formal_sum(value).items():
        for upper in covers_up(partition):
            _accumulate(result, upper, coeff)
    return result


def apply_D(value: Union[Partition, Mapping[Partition, int]]) -> FormalSum:
    """Linear extension of: partition -> sum of its one-box removals."""
    result: FormalSum = {}
    for partition, coeff in as_formal_sum(value).items():
        for lower in covers_down(partition):
            _accumulate(result, lower, coeff)
    return result


def _sum_minus(a: FormalSum, b: FormalSum) -> FormalSum:
    result = dict(a)
    for partition, coeff in b.items():
        _accumulate(result, partition, -coeff)
    return result


def commutator_check(partition: Partition) -> bool:
    """True when (DU - UD) applied to the partition returns it unchanged."""
    du = apply_D(apply_U(partition))
    ud = apply_U(apply_D(partition))
    return _sum_minus(du, ud) == {partition: 1}


def ud_straighten_check(i: int, bound: int) -> bool:
    """Check D U^i = U^i D + i U^(i-1) on every partition of size <= bound."""
    for partition in partitions_up_to(bound):
        lhs: FormalSum = {partition: 1}
        for _ in range(i):
            lhs = apply_U(lhs)
        lhs = apply_D(lhs)

        rhs = apply_D(partition)
        for _ in range(i):
            rhs = apply_U(rhs)
        if i > 0:
            extra: FormalSum = {partition: i}
            for _ in range(i - 1):
                extra = apply_U(extra)
            for p, c in extra.items():
                _accumulate(rhs, p, c)
        if lhs != rhs:
            return False
    return True


class CoeffTable:
    """Laurent-polynomial coefficients q[i, j](l) of the weighted expansion.

    Built by the recurrence
        q[i, j](l+1) = y^(i-j) * (q[i-1, j](l) + q[i, j-1](l) + (i+1) q[i+1, j](l))
    from q[0, 0](0) = 1, with out-of-range entries zero.  An entry is
    nonzero only when i + j <= l and i + j has the parity of l.
    """

    def __init__(self, l_max: int):
        if l_max > DEFAULT_TABLE_BOUND:
            raise BoundExceededError(
                f"l_max {l_max} exceeds the configured bound {DEFAULT_TABLE_BOUND}"
            )
        self.l_max = l_max
        self._entries: dict[tuple[int, int, int], LaurentPolynomial] = {
            (0, 0, 0): LaurentPolynomial.one()
        }
        for l in range(l_max):
            for i in range(l + 2):
                for j in range(l + 2 - i):
                    if (i + j) % 2 != (l + 1) % 2:
                        continue
                    poly = (
                        self.q(i - 1, j, l)
                        + self.q(i, j - 1, l)
                        + self.q(i + 1, j, l).scale(i + 1)
                    )
                    if not poly.is_zero():
                        self._entries[(i, j, l + 1)] = poly.shift(i - j)

    def q(self, i: int, j: int, l: int) -> LaurentPolynomial:
        if i < 0 or j < 0 or l < 0:
            return LaurentPolynomial.zero()
        return self._entries.get((i, j, l), LaurentPolynomial.zero())

    def b(self, i: int, j: int, l: int) -> int:
        """Integer coefficient of U^i D^j in (U + D)^l: the value at y = 1."""
        return self.q(i, j, l).eval_at_one()

    def c(self, i: int, j: int, l: int) -> int:
        """Derivative at y = 1; the weighted companion of b."""
        return self.q(i, j, l).derivative_at_one()


def q_table(l_max: int) -> CoeffTable:
    return CoeffTable(l_max)


def b_value(i: int, l: int) -> int:
    """Closed form for the j = 0 column: C(l, i) * (l-i-1)!! when l - i is even.

    Zero when l < i or l - i is odd; (l-i-1)!! is 1 at l = i.
    """
    if i < 0 or l < i or (l - i) % 2:
        return 0
    return comb(l, i) * double_factorial(l - i - 1)


def c_value(i: int, l: int) -> int:
    """Weighted coefficient c[i, 0](l) by the integer recurrence

        c[i, 0](l+1) = c[i-1, 0](l) + (i+1) c[i+1, 0](l)
                       + i b[i-1, 0](l) + i(i+1) b[i+1, 0](l)

    against the closed form for b.  It must agree with CoeffTable.c(i, 0, l),
    the derivative route.
    """
    prev: dict[int, int] = {}  # c[i, 0](0) = 0 for every i
    for step in range(l):
        cur: dict[int, int] = {}
        for ii in range(step + 2):
            value = (
                prev.get(ii - 1, 0)
                + (ii + 1) * prev.get(ii + 1, 0)
                + ii * b_value(ii - 1, step)
                + ii * (ii + 1) * b_value(ii + 1, step)
            )
            if value:
                cur[ii] = value
        prev = cur
    return prev.get(i, 0)


class KeyIdentityReport(NamedTuple):
    """Exact comparison of the weighted-to-plain coefficient ratio with its closed form."""

    k: int
    n: int
    ratio: Fraction
    closed_form: Fraction

    @property
    def passed(self) -> bool:
        return self.ratio == self.closed_form


def verify_key_identity(k: int, n: int, table: CoeffTable) -> KeyIdentityReport:
    """Check c[k,0](k+2n) / b[k,0](k+2n) = (2n+k+1)(2n+3k) / 6 exactly.

    The table must reach l = k + 2n.
    """
    l = k + 2 * n
    ratio = Fraction(table.c(k, 0, l), table.b(k, 0, l))
    closed = Fraction((2 * n + k + 1) * (2 * n + 3 * k), 6)
    return KeyIdentityReport(k, n, ratio, closed)
