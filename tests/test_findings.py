"""Findings about the walk laws and the matchings, held as tests over the
ranges they were checked on.

Each test names where the finding comes from and its range.  A finding
that a command comes to print moves next to that module's tests.
"""

from fractions import Fraction
from functools import cache
from math import comb

from osctab import kernels
from osctab.diffposet import q_levels
from osctab.laurent import LaurentPolynomial
from osctab.matchings import enumerate_matchings, matching_to_tableau
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


@cache
def column_zero_moments():
    """(k, n, mean, central moments 2 to 4) of each column-0 entry q[k, 0](l) of
    q_levels with l <= 40: the weight law of the walks from () to a shape of
    size k with length l = k + 2n, up to the factor f^shape.
    """
    moments = []
    for length, level in enumerate(q_levels(40, 0)):
        for (k, _), q in level.items():
            count, s1, s2, s3, s4 = (
                sum(w**r * c for w, c in q.coeffs.items()) for r in range(5)
            )
            m = Fraction(s1, count)
            mu2 = Fraction(s2, count) - m**2
            mu3 = Fraction(s3, count) - 3 * m * Fraction(s2, count) + 2 * m**3
            mu4 = Fraction(s4 - 4 * m * s3 + 6 * m**2 * s2, count) - 3 * m**4
            moments.append((k, (length - k) // 2, m, (mu2, mu3, mu4)))
    return moments


def test_the_first_two_weight_cumulants():
    """ROADMAP direction 5: over the walks from () to a shape of size k with
    length k + 2n, the weight has mean (3k + 2n)(k + 2n + 1)/6 (the paper's
    formula) and variance 2n(k + 2n + 1)(5k + 2n - 2)/45; every column-0 entry
    q[k, 0](l) of q_levels with l <= 40.
    """
    entries = 0
    for k, n, mean, (variance, _, _) in column_zero_moments():
        assert mean == Fraction((3 * k + 2 * n) * (k + 2 * n + 1), 6), (k, n)
        assert variance == Fraction(2 * n * (k + 2 * n + 1) * (5 * k + 2 * n - 2), 45), (k, n)
        entries += 1
    assert entries == 441


def test_the_third_and_fourth_weight_cumulants():
    """ROADMAP direction 5: on the same walks, kappa_3 (the third central
    moment) and kappa_4 = mu_4 - 3 mu_2^2 are
    -4n(k + 2n + 1)(14k^2 + 14kn + 7k + 4n^2 + 2n - 6)/945 and
    -4n(k + 2n + 1)(35k^3 + 150k^2 n - 45k^2 + 252kn^2 - 10kn - 32k + 56n^3
    - 80n^2 - 12n + 36)/4725; every column-0 entry q[k, 0](l) with l <= 40.
    """
    entries = 0
    for k, n, _, (mu2, mu3, mu4) in column_zero_moments():
        scale = -4 * n * (k + 2 * n + 1)
        kappa3 = Fraction(scale * (14 * k * k + 14 * k * n + 7 * k + 4 * n * n + 2 * n - 6), 945)
        quartic = (
            35 * k**3 + 150 * k * k * n - 45 * k * k + 252 * k * n * n - 10 * k * n - 32 * k
            + 56 * n**3 - 80 * n * n - 12 * n + 36
        )
        assert mu3 == kappa3, (k, n)
        assert mu4 - 3 * mu2**2 == Fraction(scale * quartic, 4725), (k, n)
        entries += 1
    assert entries == 441


def test_the_crossing_nesting_and_alignment_moments():
    """ROADMAP direction 3, from joint_distribution_counts for 2 <= n <= 12:
    cr, ne and al each have mean C(n, 2)/3 and third central moment
    n(2n + 1)(4n^2 + 2n - 6)/1890; Var(cr) = Var(ne) = n(n - 1)(n + 3)/45 and
    Var(al) = n(n - 1)(2n + 1)/45.  Every pair of arcs is one of the three, so
    cr + ne + al = C(n, 2) on each triple of the law.
    """
    for n in range(2, 13):
        law = kernels.joint_distribution_counts(n)
        assert all(sum(triple) == comb(n, 2) for triple in law)
        count = sum(law.values())
        third = Fraction(n * (2 * n + 1) * (4 * n * n + 2 * n - 6), 1890)
        variances = [Fraction(n * (n - 1) * (n + 3), 45)] * 2
        variances.append(Fraction(n * (n - 1) * (2 * n + 1), 45))
        for statistic, variance in enumerate(variances):  # cr, ne, al
            mean = Fraction(sum(t[statistic] * c for t, c in law.items()), count)
            assert mean == Fraction(comb(n, 2), 3), (n, statistic)
            central = [
                sum((t[statistic] - mean) ** r * c for t, c in law.items()) / count
                for r in (2, 3)
            ]
            assert central == [variance, third], (n, statistic)


def clique_number(adjacent):
    """The size of the largest set of arcs pairwise adjacent; adjacent[i] is the
    bitmask of the arcs adjacent to arc i."""

    def grow(candidates):
        best = 0
        while candidates:
            i = candidates.bit_length() - 1
            candidates &= ~(1 << i)
            best = max(best, 1 + grow(candidates & adjacent[i]))
        return best

    return grow((1 << len(adjacent)) - 1)


def test_the_walk_reads_the_largest_crossing_and_nesting():
    """Chen, Deng, Du, Stanley and Yan, "Crossings and nestings of matchings and
    partitions" (Trans. Amer. Math. Soc. 359, 2007), ROADMAP direction 3: along
    the walk of matching_to_tableau, the most rows any partition has is the
    largest set of mutually crossing arcs, and the most columns is the largest
    set of mutually nesting arcs; every matching with n <= 6.
    """
    matchings = 0
    for n in range(7):
        for matching in enumerate_matchings(n):
            crossing = [0] * n
            nesting = [0] * n
            for i, (a, b) in enumerate(matching):
                for j, (c, d) in enumerate(matching):
                    crossing[i] |= (a < c < b < d or c < a < d < b) << j
                    nesting[i] |= (a < c < d < b or c < a < b < d) << j
            walk = matching_to_tableau(matching)
            rows = max(len(step) for step in walk)
            columns = max(step[0] if step else 0 for step in walk)
            assert (rows, columns) == (clique_number(crossing), clique_number(nesting)), matching
            matchings += 1
    assert matchings == 11465
