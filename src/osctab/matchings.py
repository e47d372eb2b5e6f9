"""Perfect matchings, their pair statistics, and Dyck-path projections.

A matching of {1, ..., 2n} is stored canonically as a tuple of (a, b)
pairs with a < b, sorted by a.  Every unordered pair of pairs is a
crossing, a nesting, or an alignment; the three counts always sum to
C(n, 2).  Projecting openers/closers to a binary word gives a Dyck path,
shared with closed lattice walks, and a row-insertion bijection links
the matchings to the walks while preserving that projection.
"""

from bisect import bisect_left, bisect_right
from functools import cache
from typing import Callable, Iterator, NamedTuple, Sequence

from .errors import BoundExceededError, InvalidDyckWordError, ShapeMismatchError
from .partitions import EMPTY, OscillatingTableau, Partition, box_step, conjugate

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
    """Parse the canonical text form "a-b,c-d,..."; "" is the empty matching."""
    pairs = []
    for piece in text.split(",") if text else ():
        left, _, right = piece.partition("-")
        try:
            pairs.append((int(left), int(right)))
        except ValueError:
            raise ValueError(f"matching piece {piece!r} is not of the form a-b") from None
    return as_matching(pairs)


def format_matching(matching: PerfectMatching) -> str:
    """Canonical text form "a-b,c-d,...", the inverse of parse_matching."""
    return ",".join(f"{a}-{b}" for a, b in matching)


def check_bound(n: int) -> None:
    """Refuse an n past MAX_MATCHING_N, the one bound on matchings of [2n]."""
    if n > MAX_MATCHING_N:
        raise BoundExceededError(f"n = {n} exceeds the configured bound {MAX_MATCHING_N}")


def enumerate_matchings(n: int) -> Iterator[PerfectMatching]:
    """All matchings of {1, ..., 2n}, ordered by their sorted pair lists.

    The smallest free element is always paired next, with its partner
    ascending, which produces lexicographic order directly.
    """
    check_bound(n)
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
# a prefix's free set, its Dyck word so far and its running (cr, ne, al)
State = tuple[tuple[int, ...], str, int, int, int]


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
    pairs are not walked per prefix: one _completion_table per call builds
    the completions of each distinct free set (15 for 6 elements) with
    their text, increments and word once, and they are added to every
    prefix that leaves that set.  At n = 7, 9,009 prefixes share 210
    six-element sets (364 sets with the smaller ones the table builds
    them from); at n = 8, 135,135 prefixes share 462 (708).  On a shared
    Xeon with Python 3.11 this yields the 135,135 rows of n = 7 in about
    0.05 s and the 2,027,025 of n = 8 in about 0.85 s.  The bound on n is
    checked when this is called, before the first batch is asked for.
    """
    check_bound(n)
    size = 2 * n
    completions = _completion_table(size)
    return (
        [(text + t, cr + dcr, ne + dne, al + dal, word + w)
         for t, dcr, dne, dal, w in completions(free)]
        for text, (free, word, cr, ne, al) in _prefixes(size)
    )


def _prefixes(size: int) -> Iterator[tuple[str, State]]:
    """Each prefix of scan_matchings, in order: its text and its State.

    One loop over a stack of _pairs iterators, one per pair chosen, all
    pairing from one `free` list.  text ends in ";" after each pair; word
    runs up to the prefix's first free element: the used elements between
    its last opener and that one are closers.
    """
    free = list(range(1, size + 1))
    if size <= 2 * TAIL_PAIRS:
        yield "", (tuple(free), "", 0, 0, 0)
        return
    stack = [(_pairs(free, size), "", "", 0, 0, 0)]
    while stack:
        pairs, text, word, cr, ne, al = stack[-1]
        for a, b, dcr, dne, dal in pairs:
            below = f"{text}{a}-{b};"
            opened = word.ljust(a - 1, "0") + "1"
            if len(free) > 2 * TAIL_PAIRS:
                stack.append((_pairs(free, size), below, opened, cr + dcr, ne + dne, al + dal))
                break
            yield below, (tuple(free), opened.ljust(free[0] - 1, "0"), cr + dcr, ne + dne, al + dal)
        else:
            stack.pop()


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


def _completion_table(size: int) -> Callable[[tuple[int, ...]], list[ScanRow]]:
    """completions(free): every pairing of a free set of [size], in enumerate_matchings
    order, built once per free set for as long as the returned function lives.

    An entry is (text, dcr, dne, dal, word): the pairs, the statistics
    they add, and the word's letters from free[0] on.
    """

    @cache
    def completions(free: tuple[int, ...]) -> list[ScanRow]:
        if not free:
            return [("", 0, 0, 0, "")]
        rest = list(free)
        out = []
        for a, b, dcr, dne, dal in _pairs(rest, size):
            # a opens; the elements after it up to the next free one close
            lead = "1".ljust((rest[0] if rest else size + 1) - a, "0")
            out += [
                (f"{a}-{b};{text}" if text else f"{a}-{b}", dcr + cr, dne + ne, dal + al, lead + word)
                for text, cr, ne, al, word in completions(tuple(rest))
            ]
        return out

    return completions


# per format, the text before a stats row and between rows, then the formats
# of a row's "cr,ne" and of the rest, from al on, around the matching text
STATS_FORMATS = {
    "csv": ("", "", ",{},{},", "{},{},{},{}\n"),
    # matching and word texts hold only digits, '-' and ';', which JSON leaves unescaped
    "json": ('      {\n        "matching": "', ",\n",
             '",\n        "cr": {},\n        "ne": {},\n        "al": ',
             '{},\n        "dyck": "{}",\n        "area": {},\n        "wt": {}\n      }}'),
}


def stats_table(n: int, fmt: str) -> Iterator[str]:
    r"""The rows of the `stats` table in fmt ("csv" or "json"), in scan_matchings order.

    A row holds (text, cr, ne, al, word) of scan_matchings, then the
    word's area and the weight_of_alignments.  CSV rows end in "\n"; JSON
    rows are objects indented as `stats` reports them.  Each string
    yielded holds the rows of one prefix of scan_matchings, with ",\n"
    between JSON rows, as there is between the strings in the report.

    The rows after a prefix's text come from one template per (free set,
    word, cr + ne, al), in which the prefix's cr picks each row's "cr,ne"
    text from a list.  cr + ne and al are fixed by the word (each opener
    a meets the 2k - (a - 1) arcs open at a, see _pairs), so there are
    as many templates as (free set, word) pairs: 637 for 9,009 prefixes
    at n = 7, 2,548 for 135,135 at n = 8.  The templates, the "cr,ne"
    lists they share by (dcr, dne, cr + ne), the rests they share by
    (word, al), each with one area, and the completion table are cached
    functions built once per call.  Nothing is kept per prefix.  The
    bound on n is checked when this is called.
    """
    check_bound(n)
    return _stats_pieces(n, *STATS_FORMATS[fmt])


def _stats_pieces(n: int, head: str, sep: str, crne_fmt: str, rest_fmt: str) -> Iterator[str]:
    completions = _completion_table(2 * n)

    @cache
    def crne_texts(dcr: int, dne: int, total: int) -> list[str]:
        # a tail adding (dcr, dne) after a prefix with cr + ne = total, by the prefix's cr
        return [crne_fmt.format(cr + dcr, total - cr + dne) for cr in range(total + 1)]

    @cache
    def rest_text(word: str, al: int) -> str:
        return rest_fmt.format(al, word, area(word), weight_of_alignments(n, al))

    @cache
    def template(free: tuple[int, ...], word: str, total: int, al: int) -> list[tuple]:
        """Each row after the text of a prefix: the tail's text, its "cr,ne" list and the rest."""
        return [(t, crne_texts(dcr, dne, total), rest_text(word + w, al + dal))
                for t, dcr, dne, dal, w in completions(free)]

    for text, (free, word, cr, ne, al) in _prefixes(2 * n):
        lead = head + text
        rows = template(free, word, cr + ne, al)
        yield sep.join([f"{lead}{pairs}{crne[cr]}{rest}" for pairs, crne, rest in rows])


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
    from . import kernels  # here, so that the `stats` and `rs` commands never load it
    cr, ne, al = kernels.matching_stats(partner_array(matching))
    return MatchingStats(cr, ne, al)


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


def _walk_steps(tableau: OscillatingTableau) -> list[tuple[int, int]]:
    """Each step of a closed walk as its box_step, validating the walk on the way.

    Raises ShapeMismatchError for an empty walk or one with a step that
    partitions.box_step refuses (not one box, or onto a tuple that is
    not a partition), then for one that does not start and end at the
    empty partition.
    """
    if not tableau:
        raise ShapeMismatchError("not a single-box walk")
    steps = []
    for prev, cur in zip(tableau, tableau[1:]):
        step = box_step(prev, cur)
        if step is None:
            raise ShapeMismatchError("not a single-box walk")
        steps.append(step)
    if tableau[0] != EMPTY or tableau[-1] != EMPTY:
        raise ShapeMismatchError("walk must start and end at the empty partition")
    return steps


def tableau_to_matching(tableau: OscillatingTableau) -> PerfectMatching:
    """Invert the row-insertion bijection on a closed walk (see _unwalk)."""
    return _unwalk(_walk_steps(tableau))


def _unwalk(steps: list[tuple[int, int]]) -> PerfectMatching:
    """The matching whose walk makes these steps, each (row, 1 or -1).

    A partial standard filling tracks the walk: a box added at step i
    writes entry i into the new cell; a box removed at step i ejects its
    entry upward (each row above gives up its largest entry below the
    travelling value), and the value leaving the top row is the opener
    paired with i.
    """
    filling: list[list[int]] = []
    pairs: list[tuple[int, int]] = []
    for i, (row, sign) in enumerate(steps, 1):
        if sign > 0:
            if row == len(filling):
                filling.append([])
            filling[row].append(i)
        else:
            value = filling[row].pop()
            if not filling[row]:
                filling.pop()
            for upper in range(row - 1, -1, -1):
                idx = bisect_left(filling[upper], value) - 1
                value, filling[upper][idx] = filling[upper][idx], value
            pairs.append((value, i))
    return as_matching(pairs)


def _insertion_cells(matching: PerfectMatching) -> list[tuple[int, int, int]]:
    """Step i of the matching's walk as (row, column, 1 or -1), the cell it adds or removes.

    Scanning positions from 2n down to 1: a closer inserts its opener
    into the filling by standard row bumping, an opener deletes its own
    entry, which at that moment is the maximum and sits in a corner.
    Read from 1 up, an insertion is the walk removing its cell and a
    deletion the walk adding it.
    """
    partner = {a: b for a, b in matching} | {b: a for a, b in matching}
    filling: list[list[int]] = []
    cells: list[tuple[int, int, int]] = []
    for i in range(2 * len(matching), 0, -1):
        if partner[i] < i:
            value = partner[i]
            for r, row in enumerate(filling):
                col = bisect_right(row, value)
                if col == len(row):
                    row.append(value)
                    break
                value, row[col] = row[col], value
            else:
                r, col = len(filling), 0
                filling.append([value])
            cells.append((r, col, -1))
        else:
            for r in range(len(filling) - 1, -1, -1):
                row = filling[r]
                if row and row[-1] == i:
                    col = len(row) - 1
                    row.pop()
                    if not row:
                        filling.pop()
                    break
            else:
                raise RuntimeError(f"entry {i} is not a removable corner")
            cells.append((r, col, 1))
    cells.reverse()
    return cells


def matching_to_tableau(matching: PerfectMatching) -> OscillatingTableau:
    """Row-insertion bijection from matchings to closed walks (see _insertion_cells).

    The walk's projection to a binary word equals the matching's
    opener/closer word.
    """
    lengths: list[int] = []
    walk: list[Partition] = [EMPTY]
    for row, col, sign in _insertion_cells(matching):
        if sign > 0:
            if row == len(lengths):
                lengths.append(1)
            else:
                lengths[row] += 1
        elif col:
            lengths[row] = col
        else:
            lengths.pop()
        walk.append(tuple(lengths))
    return tuple(walk)


def weight_of_alignments(n: int, alignments: int) -> int:
    """Walk weight of the image of an n-pair matching: n + 2 * (C(n, 2) - alignments)."""
    return n + 2 * (n * (n - 1) // 2 - alignments)


def conjugate_tableau(tableau: OscillatingTableau) -> OscillatingTableau:
    """Transpose every partition the walk visits; an involution preserving weight."""
    return tuple(conjugate(step) for step in tableau)


def conjugate_matching(matching: PerfectMatching) -> PerfectMatching:
    """Stepwise conjugation transported through the insertion bijection.

    The conjugate walk adds or removes at (column, row) each box the
    walk adds or removes at (row, column), so the inverse insertion run
    on the columns gives the image without building either walk.
    """
    return _unwalk([(col, sign) for _, col, sign in _insertion_cells(matching)])
