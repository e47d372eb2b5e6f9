"""Findings about the walk laws and the matchings, held as tests over the
ranges they were checked on.

Each test names where the finding comes from and its range.  A finding
that a command comes to print moves next to that module's tests.
"""

from bisect import bisect_right
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import comb, factorial

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


def walk_laws(max_length, stat=size, keep=lambda partition: True):
    """For each length l = 0..max_length, {end: (count, total)} over the walks from ()
    of length l whose partitions all pass keep, where total adds stat over every
    partition visited, endpoints included.  The test-local walk DP of the content and
    row-bounded findings: a cover filter and a per-visit statistic.
    """
    laws = {(): (1, stat(()))}
    yield laws
    for _ in range(max_length):
        nxt = {}
        for current, (count, total) in laws.items():
            for partition in filter(keep, covers_up(current) + covers_down(current)):
                c, t = nxt.get(partition, (0, 0))
                nxt[partition] = (c + count, t + total + count * stat(partition))
        laws = nxt
        yield laws


@cache
def content_power_sum(partition, r):
    """p_r: the sum of (j - i)^r over the boxes (i, j) of the partition."""
    return sum((j - i) ** r for i, part in enumerate(partition) for j in range(part))


def test_the_content_statistics_have_closed_averages():
    """ROADMAP direction 12 (Kerov and Olshanski, "Polynomial functions on the set
    of Young diagrams", 1994): over the walks from () to a shape of size k with
    length l = k + 2n, the sum of f over the partitions visited averages
    p_1 (l + 1)/3 for f = p_1, (l + 1)(5k^2 + 20kn - 5k + 8n^2 - 8n + 30 p_2)/120
    for f = p_2 and (l + 1)(-k^2 + 20kn + k + 8n^2 - 8n + 24 p_1^2 + 18 p_2)/120
    for f = p_1^2, with p_r the content power sums of the end shape; every
    (shape, l) cell with l <= 14.
    """
    def p1(partition):
        return content_power_sum(partition, 1)

    def p2(partition):
        return content_power_sum(partition, 2)

    def p1_squared(partition):
        return p1(partition) ** 2

    def closed_forms(shape, k, n):
        l1, a, b = k + 2 * n + 1, p1(shape), p2(shape)
        return {
            p1: Fraction(a * l1, 3),
            p2: Fraction(l1 * (5 * k * k + 20 * k * n - 5 * k + 8 * n * n - 8 * n + 30 * b), 120),
            p1_squared: Fraction(
                l1 * (-k * k + 20 * k * n + k + 8 * n * n - 8 * n + 24 * a * a + 18 * b), 120
            ),
        }

    cells = 0
    for stat in (p1, p2, p1_squared):
        for length, laws in enumerate(walk_laws(14, stat)):
            for shape, (count, total) in laws.items():
                k = size(shape)
                expected = closed_forms(shape, k, (length - k) // 2)[stat]
                assert Fraction(total, count) == expected, (stat.__name__, shape, length)
                cells += 1
    assert cells == 3 * 1033


def test_the_commutator_of_down_and_the_content_weighted_up_is_diagonal():
    """ROADMAP direction 12 (Kerov, "Transition probabilities of continual Young
    diagrams and the Markov moment problem", 1993): with U_r adding a box of content
    c with weight c^r and D removing a box, [D, U_r] multiplies each partition by
    1, 0, 2|l|, 6 p_1, 2|l| + 12 p_2 and 10 p_1 + 20 p_3 for r = 0 to 5; every
    partition l with |l| <= 7.
    """

    def up(vector, r):
        out = {}
        for partition, coeff in vector.items():
            for bigger in covers_up(partition):
                row = next(i for i, part in enumerate(bigger) if part != (partition + (0,))[i])
                content = bigger[row] - 1 - row
                out[bigger] = out.get(bigger, 0) + coeff * content**r
        return out

    def down(vector):
        out = {}
        for partition, coeff in vector.items():
            for smaller in covers_down(partition):
                out[smaller] = out.get(smaller, 0) + coeff
        return out

    checked = 0
    for partition in partitions_up_to(7):
        k = size(partition)
        p = [content_power_sum(partition, r) for r in range(4)]
        eigenvalues = [1, 0, 2 * k, 6 * p[1], 2 * k + 12 * p[2], 10 * p[1] + 20 * p[3]]
        for r, eigenvalue in enumerate(eigenvalues):
            commutator = down(up({partition: 1}, r))
            for other, coeff in up(down({partition: 1}), r).items():
                commutator[other] = commutator.get(other, 0) - coeff
            commutator = {other: coeff for other, coeff in commutator.items() if coeff}
            assert commutator == ({partition: eigenvalue} if eigenvalue else {}), (partition, r)
            checked += 1
    assert checked == 6 * 45


def test_the_closed_walk_weight_is_read_from_crossings_and_nestings():
    """ROADMAP direction 3: the closed walk of a matching weighs n + 2(cr + ne), so
    the sum of y^(n + 2(cr + ne)) over joint_distribution_counts(n) is q[0, 0](2n)(y)
    of q_levels; every n <= 12.
    """
    levels = list(q_levels(24, 0))
    for n in range(13):
        law = {}
        for (cr, ne, _), count in kernels.joint_distribution_counts(n).items():
            law[n + 2 * (cr + ne)] = law.get(n + 2 * (cr + ne), 0) + count
        assert levels[2 * n][0, 0].coeffs == law, n


def test_the_crossing_marginal_is_touchard_riordan():
    """ROADMAP direction 3 (Touchard, 1952; Riordan, "The distribution of crossings
    of chords joining pairs of 2n points on a circle", Math. Comp. 29, 1975): the
    sum of q^cr over the matchings of [2n] is (1 - q)^(-n) times
    sum_k (-1)^k (C(2n, n - k) - C(2n, n - k - 1)) q^(k(k + 1)/2); every n <= 12,
    compared after multiplying both sides by (1 - q)^n.
    """
    for n in range(13):
        marginal = [0] * (comb(n, 2) + 1)
        for (cr, _, _), count in kernels.joint_distribution_counts(n).items():
            marginal[cr] += count
        product = marginal
        for _ in range(n):  # times (1 - q)
            product = [a - b for a, b in zip(product + [0], [0] + product)]
        series = [0] * len(product)
        for k in range(n + 1):
            term = (-1) ** k * (comb(2 * n, n - k) - (comb(2 * n, n - k - 1) if k < n else 0))
            series[k * (k + 1) // 2] += term
        assert product == series, n


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def closed_walks_in_rows(rows, n_max):
    """(count, total weight) of the walks from () to () of length 2n whose
    partitions have at most `rows` rows, for n = 0..n_max."""
    laws = walk_laws(2 * n_max, keep=lambda partition: len(partition) <= rows)
    return [law.get((), (0, 0)) for length, law in enumerate(laws) if length % 2 == 0]


def test_walks_in_one_row_count_and_weigh_in_closed_form():
    """ROADMAP direction 15: the walks from () to () of length 2n in at most one row
    number the Catalan number C_n and weigh 4^n - C(2n + 1, n) in all; every n <= 25.
    """
    for n, (count, total) in enumerate(closed_walks_in_rows(1, 25)):
        assert (count, total) == (catalan(n), 4**n - comb(2 * n + 1, n)), n


def test_walks_in_two_rows_count_as_a_catalan_determinant():
    """ROADMAP direction 15: the walks from () to () of length 2n in at most two rows
    number C_n C_(n+2) - C_(n+1)^2; every n <= 20.
    """
    for n, (count, _) in enumerate(closed_walks_in_rows(2, 20)):
        assert count == catalan(n) * catalan(n + 2) - catalan(n + 1) ** 2, n


def test_walks_in_r_rows_count_as_a_bessel_determinant():
    """ROADMAP direction 15 (Grabiner and Magyar, "Random walks in Weyl chambers and
    the decomposition of tensor powers", J. Algebraic Combin. 2, 1993): the closed
    walks of length 2n in at most r rows have exponential generating function
    sum_n count x^(2n)/(2n)! = det[I_(i-j)(2x) - I_(i+j)(2x)], 1 <= i, j <= r, with
    I_m(2x) = sum_k x^(2k+m)/(k! (k+m)!); every r <= 3 and n <= 12.
    """
    degree = 24

    def bessel(m):  # I_m(2x) to x^degree, as coefficients
        m = abs(m)
        series = [Fraction(0)] * (degree + 1)
        for k in range((degree - m) // 2 + 1):
            series[2 * k + m] = Fraction(1, factorial(k) * factorial(k + m))
        return series

    def times(a, b):
        out = [Fraction(0)] * (degree + 1)
        for i, x in enumerate(a):
            if x:
                for j in range(degree + 1 - i):
                    out[i + j] += x * b[j]
        return out

    for r in range(1, 4):
        matrix = [
            [[a - b for a, b in zip(bessel(i - j), bessel(i + j))] for j in range(1, r + 1)]
            for i in range(1, r + 1)
        ]
        determinant = [Fraction(0)] * (degree + 1)
        for columns in permutations(range(r)):
            sign = (-1) ** sum(a > b for a, b in combinations(columns, 2))
            term = [Fraction(1)] + [Fraction(0)] * degree
            for row, column in enumerate(columns):
                term = times(term, matrix[row][column])
            determinant = [d + sign * t for d, t in zip(determinant, term)]
        counts = [count for count, _ in closed_walks_in_rows(r, degree // 2)]
        assert determinant[1::2] == [0] * (degree // 2), r
        assert [c * factorial(2 * n) for n, c in enumerate(determinant[::2])] == counts, r
