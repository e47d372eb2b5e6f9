"""Small arithmetic helpers used by several modules, and the enumeration cap."""

import os
from math import factorial

DEFAULT_MAX_ENUM = 10**7  # enumeration cap when OSCTAB_MAX_ENUM is unset


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


def max_enumeration_size() -> int:
    """Global cap on enumeration output size, from OSCTAB_MAX_ENUM."""
    raw = os.environ.get("OSCTAB_MAX_ENUM")
    if raw is None:
        return DEFAULT_MAX_ENUM
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"OSCTAB_MAX_ENUM must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError("OSCTAB_MAX_ENUM must be positive")
    return value

