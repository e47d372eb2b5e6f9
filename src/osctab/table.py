"""The matching scan and the `stats` table built from it.

scan_matchings yields every matching of [2n] with its (cr, ne, al) and
Dyck word, in enumerate_matchings order, without classifying any
matching pair by pair: each pair's increments are read off the prefix it
extends, and the last TAIL_PAIRS pairs come from a table built once per
free set.  stats_table lays those rows out as the `stats` command prints
them.  Only `stats` and `verify` load this module.
"""

from functools import cache
from typing import Callable, Iterator

from .matchings import area, check_bound, weight_of_alignments

# scan_matchings reads the last this many pairs of every matching from a table
TAIL_PAIRS = 3

ScanRow = tuple[str, int, int, int, str]
# a prefix's free set, its Dyck word so far and its running (cr, ne, al)
State = tuple[tuple[int, ...], str, int, int, int]


def scan_matchings(n: int) -> Iterator[list[ScanRow]]:
    """Every matching of [2n] with its statistics, in matchings.enumerate_matchings order.

    Yields one batch of rows per prefix of n - TAIL_PAIRS pairs (a single
    batch when n <= TAIL_PAIRS).  A row is (text, cr, ne, al, word) where
    text is matchings.format_matching(m) with ";" between pairs, so that
    it stays one CSV column, (cr, ne, al) is matchings.stats(m) and word
    is matchings.dyck_of_matching(m).  The pairing is enumerate_matchings'
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
