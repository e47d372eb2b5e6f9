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
from typing import Iterator, NamedTuple, Sequence

from . import kernels
from .errors import BoundExceededError, InvalidDyckWordError, ShapeMismatchError
from .partitions import EMPTY, Partition, conjugate
from .tableaux import OscillatingTableau, is_cover, is_oscillating_tableau

PerfectMatching = tuple[tuple[int, int], ...]

MAX_MATCHING_N = 8

# scan_matchings reads the last this many pairs of every matching from a table
TAIL_PAIRS = 3


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


def format_matching(matching: PerfectMatching) -> str:
    """Canonical text form "a-b,c-d,...", the inverse of parse_matching."""
    return ",".join(f"{a}-{b}" for a, b in matching)


def _check_bound(n: int) -> None:
    """Refuse an n past MAX_MATCHING_N, the one bound on matchings of [2n]."""
    if n > MAX_MATCHING_N:
        raise BoundExceededError(f"n = {n} exceeds the configured bound {MAX_MATCHING_N}")


def enumerate_matchings(n: int) -> Iterator[PerfectMatching]:
    """All matchings of {1, ..., 2n}, ordered by their sorted pair lists.

    The smallest free element is always paired next, with its partner
    ascending, which produces lexicographic order directly.
    """
    _check_bound(n)
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


ScanRow = tuple[str, int, int, int, str]
Tails = dict[tuple[int, ...], list[ScanRow]]


def scan_matchings(n: int) -> Iterator[list[ScanRow]]:
    """Every matching of [2n] with its statistics, in enumerate_matchings order.

    Yields one batch of rows per prefix of n - TAIL_PAIRS pairs (a single
    batch when n <= TAIL_PAIRS).  A row is (text, cr, ne, al, word) where
    text is format_matching(m) with ";" between pairs, so that it stays
    one CSV column, (cr, ne, al) is kernels.matching_stats(partner_array(m))
    and word is dyck_of_matching(m).  The pairing is enumerate_matchings'
    depth-first one, and each row is carried down it at O(1) per pair
    (_pairs).

    Those increments depend only on the free set, so the last TAIL_PAIRS
    pairs are not walked per prefix: the completions of each distinct
    free set (15 for 6 elements) with their text, increments and word are
    built once per call and added to every prefix that leaves that set.
    At n = 7, 9,009 prefixes share 210 six-element sets (364 sets with
    the smaller ones the tables are built from); at n = 8, 135,135
    prefixes share 462 (708).  On one Xeon core with Python 3.11, `stats`
    computes its rows in about 0.2 s at n = 7 and 4 s at n = 8.  The bound
    on n is checked when this is called, before the first batch is asked for.
    """
    _check_bound(n)
    return _scan(list(range(1, 2 * n + 1)), 2 * n, {}, "", "", 0, 0, 0)


def _scan(
    free: list[int], size: int, tails: Tails, text: str, word: str, cr: int, ne: int, al: int
) -> Iterator[list[ScanRow]]:
    """The batches of scan_matchings below one prefix, which leaves `free`.

    text ends in ";" after each pair; word keeps its letters up to the
    last opener, since the elements between two openers are closers.
    """
    if len(free) > 2 * TAIL_PAIRS:
        for a, b, dcr, dne, dal in _pairs(free, size):
            yield from _scan(free, size, tails, f"{text}{a}-{b};", word.ljust(a - 1, "0") + "1",
                             cr + dcr, ne + dne, al + dal)
        return
    word = word.ljust(free[0] - 1 if free else size, "0")
    yield [
        (text + t, cr + dcr, ne + dne, al + dal, word + w)
        for t, dcr, dne, dal, w in _tail(tuple(free), size, tails)
    ]


def _pairs(free: list[int], size: int) -> Iterator[tuple[int, int, int, int, int]]:
    """Pair the smallest free a with each free b in turn: (a, b, dcr, dne, dal).

    a and b are out of `free` while their pair is out.  With k pairs
    chosen (k = (size - |free|) / 2), the pair (a, b)
      - aligns with the a - 1 - k closers below a (every element below
        a is used, k of them openers);
      - nests inside the arcs closed above b, one for each used element
        above b (all used elements above a are closers);
      - crosses the other arcs open at a, 2k - (a - 1) open in all.
    Every later pair meets (a, b) when its own opener is chosen, so each
    pair of arcs is classified exactly once.
    """
    k = (size - len(free)) // 2
    a = free.pop(0)
    dal = a - 1 - k
    open_at_a = 2 * k - (a - 1)
    last = len(free) - 1
    for idx in range(len(free)):
        b = free.pop(idx)
        nested = size - b - (last - idx)
        yield a, b, open_at_a - nested, nested, dal
        free.insert(idx, b)
    free.insert(0, a)


def _tail(free: tuple[int, ...], size: int, tails: Tails) -> list[ScanRow]:
    """The completions of a free set of [size], read from `tails` or built into it."""
    tail = tails.get(free)
    if tail is None:
        tail = tails[free] = _completions(free, size, tails)
    return tail


def _completions(free: tuple[int, ...], size: int, tails: Tails) -> list[ScanRow]:
    """Every pairing of a free set of [size], in enumerate_matchings order.

    An entry is (text, dcr, dne, dal, word): the pairs, the statistics
    they add, and the word's letters from free[0] on.
    """
    if not free:
        return [("", 0, 0, 0, "")]
    rest = list(free)
    out = []
    for a, b, dcr, dne, dal in _pairs(rest, size):
        # a opens; the elements after it up to the next free one close
        lead = "1".ljust((rest[0] if rest else size + 1) - a, "0")
        out += [
            (f"{a}-{b};{text}" if text else f"{a}-{b}", dcr + cr, dne + ne, dal + al, lead + word)
            for text, cr, ne, al, word in _tail(tuple(rest), size, tails)
        ]
    return out


def partner_array(matching: PerfectMatching) -> list[int]:
    """0-indexed partner positions, the kernel-level encoding."""
    partner = [0] * (2 * len(matching))
    for a, b in matching:
        partner[a - 1] = b - 1
        partner[b - 1] = a - 1
    return partner


class MatchingStats(NamedTuple):
    crossings: int
    nestings: int
    alignments: int


def stats(matching: PerfectMatching) -> MatchingStats:
    """Classify every unordered pair of pairs of the matching."""
    cr, ne, al = kernels.matching_stats(partner_array(matching))
    return MatchingStats(cr, ne, al)


def joint_distribution(n: int) -> Counter:
    """Multiset of (crossings, nestings, alignments) over all matchings of [2n]."""
    _check_bound(n)
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
