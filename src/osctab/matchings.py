"""Perfect matchings, their pair statistics, and Dyck-path projections.

A matching of {1, ..., 2n} is stored canonically as a tuple of (a, b)
pairs with a < b, sorted by a.  Every unordered pair of pairs is a
crossing, a nesting, or an alignment; the three counts always sum to
C(n, 2).  Projecting openers/closers to a binary word gives a Dyck path,
shared with closed lattice walks, and a row-insertion bijection links
the matchings to the walks while preserving that projection; stepwise
conjugation of the walks, carried through it, pairs each matching with
its mate.  The scan that classifies every matching of [2n] at once, and
the `stats` table read from it, live in table.
"""

from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import BoundExceededError, InvalidDyckWordError, ShapeMismatchError
from .partitions import EMPTY, OscillatingTableau, Partition, box_step, conjugate

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


# A step's cell (row, column) packed as one byte, 16 * row + column, and the
# table that swaps row and column in every byte; the walk of a matching of [2n]
# stays in partitions of size at most n <= MAX_MATCHING_N < 16
_TRANSPOSE_CELLS = bytes(16 * (cell % 16) + cell // 16 for cell in range(256))


def conjugate_mates(matchings: Iterable[PerfectMatching]) -> list[int]:
    """For each of the distinct matchings in order, the position of its conjugate.

    The conjugate is stepwise conjugation of the walk, transported
    through the insertion bijection: the conjugate walk adds or removes
    at (column, row) each box the walk adds or removes at (row, column).
    A walk from the empty partition is fixed by the cells it steps on,
    since each step adds its cell when absent and removes it when
    present, so each matching is keyed by its _insertion_cells packed one
    byte per step, and its conjugate's key is that key with row and
    column swapped (_TRANSPOSE_CELLS).  The matchings must be closed
    under conjugation, as the matchings of one [2n] are.
    """
    position = {
        bytes(16 * row + col for row, col, _ in _insertion_cells(m)): i
        for i, m in enumerate(matchings)
    }
    return [position[key.translate(_TRANSPOSE_CELLS)] for key in position]
