"""Findings about the walk laws and the matchings, held as tests over the
ranges they were checked on.

Each test names where the finding comes from and its range.  A finding
that a command comes to print moves next to that module's tests.
"""

from bisect import bisect_right
from fractions import Fraction
from functools import cache
from math import comb

from osctab import kernels
from osctab.diffposet import q_levels
from osctab.laurent import LaurentPolynomial
from osctab.matchings import enumerate_matchings, matching_to_tableau
from osctab.partitions import (
    covers_down,
    covers_up,
    overlaps,
    partitions_up_to,
    size,
    skew_syt_counts,
)


def test_the_skew_weight_law_equals_the_walk_dp():
    """ROADMAP direction 2: the walks from mu to lambda of length l weigh
    y^((l+1)|mu|) sum_j g_j q[j+d, j](l)(y), with g from partitions.overlaps and
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


def rsk_shape(word):
    """The shape of Schensted row insertion of a word of distinct numbers."""
    rows = []
    for x in word:
        for row in rows:
            i = bisect_right(row, x)
            if i == len(row):
                row.append(x)
                break
            row[i], x = x, row[i]
        else:
            rows.append([x])
    return tuple(map(len, rows))


def test_the_walk_is_the_insertion_shape_of_the_open_arcs():
    """ROADMAP direction 6 (Fomin's growth diagram on the staircase): at each time t,
    the partition of the walk of matching_to_tableau is the row-insertion shape of
    the arcs open at t, their closers read in opener order and negated; every
    matching with n <= 5.
    """
    matchings = 0
    for n in range(6):
        for matching in enumerate_matchings(n):
            walk = matching_to_tableau(matching)
            for t, partition in enumerate(walk):
                open_closers = [-b for a, b in sorted(matching) if a <= t < b]
                assert rsk_shape(open_closers) == partition, (matching, t)
            matchings += 1
    assert matchings == 1070


def bell_numbers(count):
    """B(0), ..., B(count - 1), from the Bell triangle."""
    bells, row = [1], [1]
    while len(bells) < count:
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
        bells.append(row[0])
    return bells


def vacillating_by_size(n):
    """{k: (count, total weight)} over the vacillating tableaux of length 2n from ()
    to one shape of size k, each divided by f^shape.  Each step pair removes a box
    or stays, then adds a box or stays; the weight is the sum of the sizes
    visited.  Divided by f^shape the counts depend only on the size: a removal
    from size i has multiplicity i, an addition and a stay multiplicity 1.
    """
    laws = {0: (1, 0)}
    for step in range(2 * n):
        nxt = {}
        for k, (count, weight) in laws.items():
            # (size, multiplicity): a stay, then a removal on even steps, an addition on odd
            for target, m in ((k, 1), (k - 1, k) if step % 2 == 0 else (k + 1, 1)):
                if m:  # nothing is removed from ()
                    c, w = nxt.get(target, (0, 0))
                    nxt[target] = (c + m * count, w + m * (weight + target * count))
        laws = nxt
    return laws


def vacillating_walks(n, shape):
    """Every vacillating tableau of length 2n from () to shape, listed."""
    walks = [((),)]
    for step in range(2 * n):
        moves = covers_down if step % 2 == 0 else covers_up
        walks = [(*w, nxt) for w in walks for nxt in (w[-1], *moves(w[-1]))]
    return [w for w in walks if w[-1] == shape]


def test_the_vacillating_counts_and_weight_to_the_empty_shape():
    """ROADMAP direction 10 (Chen, Deng, Du, Stanley and Yan 2007): the
    vacillating tableaux of length 2n from () number B(n) to () and
    B(n + 1) - B(n) to (1), and those to () weigh
    (n + 1)B(n) + (2n + 7)B(n + 1) - 4B(n + 2) in all; from the size-only DP for
    n <= 30, which equals the listed tableaux to () and (1) for n <= 5.
    """
    bell = bell_numbers(33)
    for n in range(31):
        laws = vacillating_by_size(n)
        (to_empty, weight), (to_box, _) = laws[0], laws.get(1, (0, 0))
        assert (to_empty, to_box) == (bell[n], bell[n + 1] - bell[n]), n
        assert weight == (n + 1) * bell[n] + (2 * n + 7) * bell[n + 1] - 4 * bell[n + 2], n
        if n <= 5:
            for k, shape in ((0, ()), (1, (1,))):
                walks = vacillating_walks(n, shape)
                listed = (len(walks), sum(sum(map(size, w)) for w in walks))
                assert laws.get(k, (0, 0)) == listed, (n, k)
