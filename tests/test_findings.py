"""Findings about the walk DP, held as tests over the ranges they were checked on.

Each test names where the finding comes from and its range.  A finding
that a command comes to print moves next to that module's tests.
"""

from fractions import Fraction

from osctab import kernels
from osctab.diffposet import q_levels
from osctab.laurent import LaurentPolynomial
from osctab.partitions import partitions_up_to, size, skew_syt_counts
from osctab.tableaux import overlaps


def test_the_skew_weight_law_equals_the_walk_dp():
    """ROADMAP direction 2: the walks from mu to lambda of length l weigh
    y^((l+1)|mu|) sum_j g_j q[j+d, j](l)(y), with g from tableaux.overlaps and
    d = |lambda| - |mu|; every cell with |mu| <= 3, |lambda| <= 4 and l <= 10,
    empty cells included.
    """
    starts, shapes = list(partitions_up_to(3)), list(partitions_up_to(4))
    levels = list(q_levels(10, 3))
    profiles = kernels.ot_weight_profiles(starts, shapes, 10)
    zero = LaurentPolynomial.zero()
    cells = 0
    for start in starts:
        for shape in shapes:
            d = size(shape) - size(start)
            g_terms = overlaps(skew_syt_counts(start), skew_syt_counts(shape))
            for length in range(11):
                law = zero
                for j, g_j in g_terms:
                    law = law + levels[length].get((j + d, j), zero).scale(g_j)
                profile = profiles.get((start, shape, length), [])
                walks = LaurentPolynomial(dict(enumerate(profile)))
                assert law.shift((length + 1) * size(start)) == walks, (start, shape, length)
                cells += 1
    assert cells == 924


def test_the_first_two_weight_cumulants():
    """ROADMAP direction 5: over the walks from () to a shape of size k with
    length k + 2n, the weight has mean (3k + 2n)(k + 2n + 1)/6 (the paper's
    formula) and variance 2n(k + 2n + 1)(5k + 2n - 2)/45; every column-0 entry
    q[k, 0](l) of q_levels with l <= 40.
    """
    entries = 0
    for length, level in enumerate(q_levels(40, 0)):
        for (k, _), q in level.items():
            n = (length - k) // 2
            count = q.eval_at_one()
            mean = Fraction(q.derivative_at_one(), count)
            second = Fraction(sum(w * w * c for w, c in q.coeffs.items()), count)
            assert mean == Fraction((3 * k + 2 * n) * (k + 2 * n + 1), 6), (k, n)
            variance = Fraction(2 * n * (k + 2 * n + 1) * (5 * k + 2 * n - 2), 45)
            assert second - mean**2 == variance, (k, n)
            entries += 1
    assert entries == 441
