"""Up/down operators on formal integer combinations of partitions.

U adds one box in every possible way, D removes one: each is the linear
extension of a cover function.  On the partition lattice DU - UD = I, and
so D U^i = U^i D + i U^(i-1), checked for i = 0..i_max from one chain of
powers per partition.  Expanding powers of (U + D) in normal order U^i D^j
yields integer coefficient families, and a y-weighted refinement of the
expansion yields Laurent-polynomial coefficients whose value and
derivative at y = 1 give the walk counts and total walk weights that the
closed forms are checked against.  `gf` reads the table's column 0
(weight_generating_function); walk counts are tableaux.walk_count's.
"""

from fractions import Fraction
from typing import Mapping, NamedTuple, Union

from .laurent import LaurentPolynomial
from .partitions import (
    Partition,
    cover_distance,  # unused here, but perfbench/tracing.py wraps this binding
    covers_down,
    covers_up,
    num_syt,
    partitions_up_to,
    size,
)
from .util import normal_order_coefficient

FormalSum = dict[Partition, int]


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


def _apply(covers, value: Union[Partition, Mapping[Partition, int]]) -> FormalSum:
    """Linear extension of: partition -> sum of covers(partition)."""
    result: FormalSum = {}
    for partition, coeff in as_formal_sum(value).items():
        for cover in covers(partition):
            _accumulate(result, cover, coeff)
    return result


def apply_U(value: Union[Partition, Mapping[Partition, int]]) -> FormalSum:
    """Linear extension of: partition -> sum of its one-box growths."""
    return _apply(covers_up, value)


def apply_D(value: Union[Partition, Mapping[Partition, int]]) -> FormalSum:
    """Linear extension of: partition -> sum of its one-box removals."""
    return _apply(covers_down, value)


def _straightening(partition: Partition, i_max: int) -> list[bool]:
    """Entry i: whether D U^i p = U^i D p + i U^(i-1) p, for i = 0..i_max.

    One chain each of U^i p and U^i D p; U^(i-1) p is the chain's previous step.
    """
    prev, up, up_down = {}, {partition: 1}, apply_D(partition)
    holds = []
    for i in range(i_max + 1):
        if i:
            prev, up, up_down = up, apply_U(up), apply_U(up_down)
        rhs = dict(up_down)
        for p, c in prev.items():
            _accumulate(rhs, p, i * c)
        holds.append(apply_D(up) == rhs)
    return holds


def commutator_check(partition: Partition) -> bool:
    """True when (DU - UD) p = p: the i = 1 case of the straightening rule."""
    return _straightening(partition, 1)[1]


def ud_straighten_check(i_max: int, bound: int) -> list[bool]:
    """Entry i: whether D U^i = U^i D + i U^(i-1) on every |p| <= bound, for i = 0..i_max."""
    rows = [_straightening(p, i_max) for p in partitions_up_to(bound)]
    return [all(row[i] for row in rows) for i in range(i_max + 1)]


class CoeffTable:
    """Laurent-polynomial coefficients q[i, j](l) of the weighted expansion.

    Built by the recurrence
        q[i, j](l+1) = y^(i-j) * (q[i-1, j](l) + q[i, j-1](l) + (i+1) q[i+1, j](l))
    from q[0, 0](0) = 1, with out-of-range entries zero.  An entry is
    nonzero only when i + j <= l and i + j has the parity of l.  Only columns
    j <= j_max are built (q reads zero past them); column j reads none past j.
    """

    def __init__(self, l_max: int, j_max: int):
        self._entries: dict[tuple[int, int, int], LaurentPolynomial] = {
            (0, 0, 0): LaurentPolynomial.one()
        }
        for l in range(l_max):
            for i in range(l + 2):
                for j in range(min(l + 2 - i, j_max + 1)):
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
    """Every column of the table up to l_max; readers of column 0 build CoeffTable(l_max, 0)."""
    return CoeffTable(l_max, l_max)


def weight_generating_function(shape: Partition, length: int) -> LaurentPolynomial:
    """Sum of y**weight over the walks from () to shape: f^shape q[|shape|, 0](l), unbounded."""
    return CoeffTable(length, 0).q(size(shape), 0, length).scale(num_syt(shape))


def c_rows(l_max: int) -> list[dict[int, int]]:
    """Weighted coefficients c[i, 0](l), l = 0..l_max, by the integer recurrence

        c[i, 0](l+1) = c[i-1, 0](l) + (i+1) c[i+1, 0](l)
                       + i b[i-1, 0](l) + i(i+1) b[i+1, 0](l)

    against the closed form for b.  Row l maps i to c[i, 0](l), zeros left
    out.  Each entry must agree with CoeffTable.c(i, 0, l), the derivative
    route.
    """
    rows: list[dict[int, int]] = [{}]  # c[i, 0](0) = 0 for every i
    for l in range(l_max):
        prev, cur = rows[-1], {}
        for i in range(l + 2):
            value = (
                prev.get(i - 1, 0)
                + (i + 1) * prev.get(i + 1, 0)
                + i * normal_order_coefficient(i - 1, 0, l)
                + i * (i + 1) * normal_order_coefficient(i + 1, 0, l)
            )
            if value:
                cur[i] = value
        rows.append(cur)
    return rows


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
