"""Perfect matchings, their pair statistics, and Dyck-path projections.

A matching of {1, ..., 2n} is stored canonically as a tuple of (a, b)
pairs with a < b, sorted by a.  Every unordered pair of pairs is a
crossing, a nesting, or an alignment; the three counts always sum to
C(n, 2).  Projecting openers/closers to a binary word gives a Dyck path,
shared with closed lattice walks, and a row-insertion bijection links
the matchings to the walks while preserving that projection.
"""

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

from . import kernels
from .errors import BoundExceededError, InvalidDyckWordError, ShapeMismatchError
from .partitions import EMPTY, Partition, conjugate
from .tableaux import OscillatingTableau, is_cover, is_oscillating_tableau

PerfectMatching = tuple[tuple[int, int], ...]

MAX_MATCHING_N = 8


def as_matching(pairs: Sequence[Sequence[int]]) -> PerfectMatching:
    """Canonicalize and validate a pairing of {1, ..., 2n}."""
    canonical = tuple(sorted((min(a, b), max(a, b)) for a, b in pairs))
    n = len(canonical)
    seen = [x for pair in canonical for x in pair]
    if sorted(seen) != list(range(1, 2 * n + 1)):
        raise ValueError(f"pairs do not partition 1..{2 * n}: {pairs}")
    return canonical


def parse_matching(text: str) -> PerfectMatching:
    """Parse the canonical text form "a-b,c-d,..."."""
    pairs = []
    for piece in text.split(","):
        left, _, right = piece.partition("-")
        pairs.append((int(left), int(right)))
    return as_matching(pairs)


def format_matching(matching: PerfectMatching, pair_sep: str = ",") -> str:
    """Canonical text form; pass pair_sep=";" for the CSV-safe variant."""
    return pair_sep.join(f"{a}-{b}" for a, b in matching)


def enumerate_matchings(n: int, max_n: int = MAX_MATCHING_N) -> Iterator[PerfectMatching]:
    """All matchings of {1, ..., 2n}, ordered by their sorted pair lists.

    The smallest free element is always paired next, with its partner
    ascending, which produces lexicographic order directly.
    """
    if n > max_n:
        raise BoundExceededError(f"n = {n} exceeds the configured bound {max_n}")
    free = list(range(1, 2 * n + 1))

    def rec(chosen: list[tuple[int, int]]) -> Iterator[PerfectMatching]:
        if not free:
            yield tuple(chosen)
            return
        a = free.pop(0)
        for idx in range(len(free)):
            b = free.pop(idx)
            chosen.append((a, b))
            yield from rec(chosen)
            chosen.pop()
            free.insert(idx, b)
        free.insert(0, a)

    yield from rec([])


def partner_array(matching: PerfectMatching) -> list[int]:
    """0-indexed partner positions, the kernel-level encoding."""
    partner = [0] * (2 * len(matching))
    for a, b in matching:
        partner[a - 1] = b - 1
        partner[b - 1] = a - 1
    return partner


@dataclass(frozen=True)
class MatchingStats:
    crossings: int
    nestings: int
    alignments: int


def stats(matching: PerfectMatching) -> MatchingStats:
    """Classify every unordered pair of pairs of the matching."""
    cr, ne, al = kernels.matching_stats(partner_array(matching))
    return MatchingStats(cr, ne, al)


def joint_distribution(n: int, max_n: int = MAX_MATCHING_N) -> Counter:
    """Multiset of (crossings, nestings, alignments) over all matchings of [2n]."""
    if n > max_n:
        raise BoundExceededError(f"n = {n} exceeds the configured bound {max_n}")
    return Counter(kernels.joint_distribution_counts(n))


def validate_dyck_word(word: str) -> None:
    height = 0
    for ch in word:
        if ch == "1":
            height += 1
        elif ch == "0":
            height -= 1
        else:
            raise InvalidDyckWordError(f"unexpected letter {ch!r} in {word!r}")
        if height < 0:
            raise InvalidDyckWordError(f"prefix dips below the diagonal in {word!r}")
    if height != 0:
        raise InvalidDyckWordError(f"unbalanced word {word!r}")


def enumerate_dyck_words(n: int) -> Iterator[str]:
    """All balanced words of semilength n, '1'-first depth-first order."""

    def rec(prefix: str, ones: int, zeros: int) -> Iterator[str]:
        if ones == n and zeros == n:
            yield prefix
            return
        if ones < n:
            yield from rec(prefix + "1", ones + 1, zeros)
        if zeros < ones:
            yield from rec(prefix + "0", ones, zeros + 1)

    yield from rec("", 0, 0)


def dyck_of_matching(matching: PerfectMatching) -> str:
    """Letter i is 1 when i opens its pair (is the smaller element), else 0."""
    partner = partner_array(matching)
    return "".join("1" if partner[i] > i else "0" for i in range(len(partner)))


def dyck_of_tableau(tableau: OscillatingTableau) -> str:
    """Letter i is 1 when step i adds a box, 0 when it removes one.

    Only closed walks (empty start and end, hence even length) project
    to balanced words; anything else raises ShapeMismatchError.
    """
    if not is_oscillating_tableau(tableau):
        raise ShapeMismatchError("not a single-box walk")
    if tableau[0] != EMPTY or tableau[-1] != EMPTY or len(tableau) % 2 == 0:
        raise ShapeMismatchError("walk must start and end at the empty partition")
    letters = []
    for prev, cur in zip(tableau, tableau[1:]):
        letters.append("1" if sum(cur) > sum(prev) else "0")
    return "".join(letters)


def area(word: str) -> int:
    """Complete unit boxes between the path and the diagonal.

    Box (column c, row r) with r < c lies under the path exactly when
    the path's (r+1)-th down step comes after its (c+1)-th right step;
    the boxes are counted one by one.
    """
    validate_dyck_word(word)
    ones_pos = [i for i, ch in enumerate(word) if ch == "1"]
    zeros_pos = [i for i, ch in enumerate(word) if ch == "0"]
    total = 0
    for c in range(len(ones_pos)):
        for r in range(c):
            if zeros_pos[r] > ones_pos[c]:
                total += 1
    return total


def prefix_stats(word: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Heights b after every letter, and the heights a at the down letters.

    b[i-1] is the number of 1s minus 0s among the first i letters; a[j-1]
    picks b at the position of the j-th 0.
    """
    validate_dyck_word(word)
    heights = []
    at_zeros = []
    height = 0
    for ch in word:
        height += 1 if ch == "1" else -1
        heights.append(height)
        if ch == "0":
            at_zeros.append(height)
    return tuple(at_zeros), tuple(heights)


def _removed_corner(prev: Partition, cur: Partition) -> int:
    """Row index where cur = prev minus one box."""
    for r in range(len(prev)):
        if r >= len(cur) or cur[r] < prev[r]:
            return r
    raise ShapeMismatchError(f"{cur} is not {prev} minus a box")


def tableau_to_matching(tableau: OscillatingTableau) -> PerfectMatching:
    """Invert the row-insertion bijection on a closed walk.

    A partial standard filling tracks the walk: a box added at step i
    writes entry i into the new cell; a box removed at step i ejects its
    entry upward (each row above gives up its largest entry below the
    travelling value), and the value leaving the top row is the opener
    paired with i.
    """
    if not is_oscillating_tableau(tableau):
        raise ShapeMismatchError("not a single-box walk")
    if tableau[0] != EMPTY or tableau[-1] != EMPTY:
        raise ShapeMismatchError("walk must start and end at the empty partition")
    filling: list[list[int]] = []
    pairs: list[tuple[int, int]] = []
    for i in range(1, len(tableau)):
        prev, cur = tableau[i - 1], tableau[i]
        if is_cover(prev, cur):
            row = _removed_corner(cur, prev)
            if row == len(filling):
                filling.append([])
            filling[row].append(i)
        else:
            row = _removed_corner(prev, cur)
            value = filling[row].pop()
            if not filling[row]:
                filling.pop()
            for upper in range(row - 1, -1, -1):
                idx = bisect_left(filling[upper], value) - 1
                value, filling[upper][idx] = filling[upper][idx], value
            pairs.append((value, i))
    return as_matching(pairs)


def matching_to_tableau(matching: PerfectMatching) -> OscillatingTableau:
    """Row-insertion bijection from matchings to closed walks.

    Scanning positions from 2n down to 1: a closer inserts its opener
    into the filling by standard row bumping, an opener deletes its own
    entry, which at that moment is the maximum and sits in a corner.
    The recorded shapes, reversed, are the walk; its projection to a
    binary word equals the matching's opener/closer word.
    """
    partner = {a: b for a, b in matching} | {b: a for a, b in matching}
    filling: list[list[int]] = []
    shapes: list[Partition] = [EMPTY]
    for i in range(2 * len(matching), 0, -1):
        if partner[i] < i:
            value = partner[i]
            for row in filling:
                idx = bisect_right(row, value)
                if idx == len(row):
                    row.append(value)
                    break
                value, row[idx] = row[idx], value
            else:
                filling.append([value])
        else:
            for r in range(len(filling) - 1, -1, -1):
                if filling[r] and filling[r][-1] == i:
                    filling[r].pop()
                    if not filling[r]:
                        filling.pop()
                    break
            else:
                raise RuntimeError(f"entry {i} is not a removable corner")
        shapes.append(tuple(len(row) for row in filling))
    return tuple(reversed(shapes))


def weight_of_alignments(n: int, alignments: int) -> int:
    """Walk weight of the image of an n-pair matching: n + 2 * (C(n, 2) - alignments)."""
    return n + 2 * (n * (n - 1) // 2 - alignments)


def weight_via_matching(matching: PerfectMatching) -> int:
    """Walk weight of the matching's image under the insertion bijection."""
    return weight_of_alignments(len(matching), stats(matching).alignments)


def conjugate_tableau(tableau: OscillatingTableau) -> OscillatingTableau:
    """Transpose every partition the walk visits; an involution preserving weight."""
    return tuple(conjugate(step) for step in tableau)


def conjugate_matching(matching: PerfectMatching) -> PerfectMatching:
    """Stepwise conjugation transported through the insertion bijection."""
    return tableau_to_matching(conjugate_tableau(matching_to_tableau(matching)))


def permutation_bridge(matching: PerfectMatching) -> tuple[int, ...]:
    """The permutation sending j to i for pairs {i, j+n}.

    Defined only on matchings whose word is 1^n 0^n (all openers before
    all closers); anything else raises ShapeMismatchError.
    """
    n = len(matching)
    if dyck_of_matching(matching) != "1" * n + "0" * n:
        raise ShapeMismatchError("matching word is not 1^n 0^n")
    partner = {b: a for a, b in matching}
    return tuple(partner[j + n] for j in range(1, n + 1))


def matching_of_permutation(perm: Sequence[int]) -> PerfectMatching:
    """Inverse of permutation_bridge."""
    n = len(perm)
    return as_matching([(perm[j], j + 1 + n) for j in range(n)])


def sigma_on_permutation_matchings(matching: PerfectMatching) -> PerfectMatching:
    """Reverse the bridged permutation: position j maps to the value at n+1-j.

    On the 1^n 0^n matchings this swaps the crossing and nesting counts.
    """
    perm = permutation_bridge(matching)
    n = len(perm)
    return matching_of_permutation(tuple(perm[n - 1 - j] for j in range(n)))
