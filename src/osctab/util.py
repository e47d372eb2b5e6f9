"""The normal-ordering coefficient that the walk counts, the skew scan and the tables share."""

from math import factorial


def normal_order_coefficient(i: int, j: int, l: int) -> int:
    """b(i, j, l), the coefficient of U^i D^j in (U + D)^l normal-ordered by DU = UD + 1.

    l! / (i! j! m! 2^m) with m = (l - i - j) / 2: it counts the l-letter
    words with m disjoint pairs marked, each a D before a U that the rule
    contracts, whose other letters are i U's and j D's.  Zero when i or j
    is negative, i + j exceeds l, or l - i - j is odd.
    """
    m, odd = divmod(l - i - j, 2)
    if i < 0 or j < 0 or m < 0 or odd:
        return 0
    return factorial(l) // (factorial(i) * factorial(j) * factorial(m) * 2**m)
