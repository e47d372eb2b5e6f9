"""Up/down operators on formal integer combinations of partitions.

U adds one box in every possible way, D removes one: each is the linear
extension of a cover function.  On the partition lattice DU - UD = I, and
so D U^i = U^i D + i U^(i-1), checked for i = 0..i_max from one chain of
powers per partition.  Expanding powers of (U + D) in normal order U^i D^j
yields integer coefficient families, and a y-weighted refinement of the
expansion yields Laurent-polynomial coefficients whose value and
derivative at y = 1 give the walk counts and total walk weights that the
closed forms are checked against, one length l at a time (q_levels).  `gf`
keeps only column 0's last level (weight_generating_function); walk counts
are tableaux.walk_count's.  Fraction is imported only by verify_key_identity,
so `gf`, `diffposet q-table` and `diffposet b-table` never load fractions.
"""

from functools import cache
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

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

if TYPE_CHECKING:
    from fractions import Fraction

FormalSum = dict[Partition, int]


def _accumulate(acc: FormalSum, partition: Partition, coeff: int) -> None:
    total = acc.get(partition, 0) + coeff
    if total:
        acc[partition] = total
    else:
        acc.pop(partition, None)


def _apply(covers, value: FormalSum) -> FormalSum:
    """Linear extension of: partition -> sum of covers(partition)."""
    result: FormalSum = {}
    for partition, coeff in value.items():
        for cover in covers(partition):
            _accumulate(result, cover, coeff)
    return result


def _straightening(partition: Partition, i_max: int, up, down) -> list[bool]:
    """Entry i: whether D U^i p = U^i D p + i U^(i-1) p, for i = 0..i_max.

    One chain each of U^i p and U^i D p; U^(i-1) p is the chain's previous
    step.  U and D extend the cover functions `up` and `down`.
    """
    prev, ups = {}, {partition: 1}
    up_down = _apply(down, ups)
    holds = []
    for i in range(i_max + 1):
        if i:
            prev, ups, up_down = ups, _apply(up, ups), _apply(up, up_down)
        rhs = dict(up_down)
        for p, c in prev.items():
            _accumulate(rhs, p, i * c)
        holds.append(_apply(down, ups) == rhs)
    return holds


def ud_straighten_check(i_max: int, bound: int) -> list[bool]:
    """Entry i: whether D U^i = U^i D + i U^(i-1) on every |p| <= bound, for i = 0..i_max.

    The chains of different partitions meet, so each distinct partition's
    covers are listed once per call, read through this module's bindings.
    """
    up, down = cache(covers_up), cache(covers_down)
    rows = [_straightening(p, i_max, up, down) for p in partitions_up_to(bound)]
    return [all(row[i] for row in rows) for i in range(i_max + 1)]


QLevel = dict[tuple[int, int], LaurentPolynomial]


def q_levels(l_max: int, j_max: int) -> Iterator[QLevel]:
    """Level l = 0..l_max of the Laurent-polynomial coefficients q[i, j](l).

    Each level maps (i, j) to q[i, j](l) for the nonzero entries with
    j <= j_max, i ascending and then j, and is built from the level before:
        q[i, j](l+1) = y^(i-j) * (q[i-1, j](l) + q[i, j-1](l) + (i+1) q[i+1, j](l))
    from q[0, 0](0) = 1, with out-of-range entries zero.  An entry is
    nonzero only when i + j <= l and i + j has the parity of l; column j
    reads none past j, so the columns kept are complete.
    """
    zero = LaurentPolynomial.zero()
    level: QLevel = {(0, 0): LaurentPolynomial.one()}
    yield level
    for l in range(l_max):
        prev, level = level, {}
        for i in range(l + 2):
            for j in range(min(l + 2 - i, j_max + 1)):
                if (i + j) % 2 != (l + 1) % 2:
                    continue
                poly = (
                    prev.get((i - 1, j), zero)
                    + prev.get((i, j - 1), zero)
                    + prev.get((i + 1, j), zero).scale(i + 1)
                )
                if not poly.is_zero():
                    level[i, j] = poly.shift(i - j)
        yield level


def q_table(l_max: int) -> Iterator[QLevel]:
    """Every column of every level up to l_max; readers of column 0 take q_levels(l_max, 0)."""
    return q_levels(l_max, l_max)


def weight_generating_function(shape: Partition, length: int) -> LaurentPolynomial:
    """Sum of y**weight over the walks from () to shape: f^shape q[|shape|, 0](l), unbounded."""
    for level in q_levels(length, 0):
        pass
    return level.get((size(shape), 0), LaurentPolynomial.zero()).scale(num_syt(shape))


def c_rows(l_max: int) -> list[dict[int, int]]:
    """Weighted coefficients c[i, 0](l), l = 0..l_max, by the integer recurrence

        c[i, 0](l+1) = c[i-1, 0](l) + (i+1) c[i+1, 0](l)
                       + i b[i-1, 0](l) + i(i+1) b[i+1, 0](l)

    against the closed form for b.  Row l maps i to c[i, 0](l), zeros left
    out.  Each entry must agree with the derivative route: the derivative
    at y = 1 of q[i, 0](l) from q_levels.
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
    ratio: "Fraction"
    closed_form: "Fraction"

    @property
    def passed(self) -> bool:
        return self.ratio == self.closed_form


def verify_key_identity(k: int, n: int, levels: Sequence[QLevel]) -> KeyIdentityReport:
    """Check c[k,0](k+2n) / b[k,0](k+2n) = (2n+k+1)(2n+3k) / 6 exactly.

    `levels` are q_levels' levels, reaching l = k + 2n; c and b are the
    derivative and the value at y = 1 of q[k, 0](k+2n), which is nonzero.
    """
    from fractions import Fraction

    q = levels[k + 2 * n][k, 0]
    ratio = Fraction(q.derivative_at_one(), q.eval_at_one())
    closed = Fraction((2 * n + k + 1) * (2 * n + 3 * k), 6)
    return KeyIdentityReport(k, n, ratio, closed)
