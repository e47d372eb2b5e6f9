"""Walks in the partition lattice and their weight statistic.

A walk of length l is a tuple of l+1 partitions in which consecutive
entries differ by one box in either direction.  Walks with a nonempty
start are the skew variant.  walk_count counts any walk set from the
normal-ordered (U + D)^l and the skew tableau counts of
partitions.overlaps; the skew scan in skew reads counts and average
weights the same way without this module, and `gf` lives in diffposet.
The OSCTAB_MAX_ENUM walk cap lives here alone: refuse_over_cap holds a
set's walk_count to it, and enumerate_ot, which lists the walks to one
end shape for the commands that print or search them, calls it once,
before its DFS starts.  `count` and `avg-weight` check the closed
forms against the walk DP in kernels, through weight_profile.  The walk
DP and the enumeration are oracles.  Fraction is imported by the
functions that build one, so the commands that only count, walk or
format (`count`, `enumerate`, `rs`, a matching `homomesy`) never load
fractions.
"""

import os
from typing import TYPE_CHECKING, Iterator, Sequence

from .errors import BoundExceededError, EmptyEnumerationError, ShapeMismatchError
from .partitions import (
    OscillatingTableau,
    Partition,
    box_step,
    cover_distance,
    covers_down,
    covers_up,
    format_partition,
    num_syt,
    overlaps,
    parse_partition,
    size,
    skew_syt_counts,
)
from .util import normal_order_coefficient

if TYPE_CHECKING:
    from fractions import Fraction


def is_oscillating_tableau(steps: Sequence[Partition]) -> bool:
    """True when the first entry is a partition and each step is a partitions.box_step.

    Each such step keeps a partition a partition, so then every entry is one.
    """
    if not steps:
        return False
    first = list(steps[0])
    if first != sorted(first, reverse=True) or min(first, default=1) < 1:
        return False
    return all(box_step(prev, cur) for prev, cur in zip(steps, steps[1:]))


def weight(tableau: OscillatingTableau) -> int:
    """Sum of the sizes of every partition the walk visits, endpoints included."""
    return sum(map(sum, tableau))


def format_tableau(tableau: OscillatingTableau) -> str:
    """Canonical text form: partition texts joined by '|'."""
    return "|".join(format_partition(step) for step in tableau)


def parse_tableau(text: str) -> OscillatingTableau:
    steps = tuple(parse_partition(piece) for piece in text.split("|"))
    if not is_oscillating_tableau(steps):
        raise ShapeMismatchError(f"consecutive steps are not single-box moves: {text!r}")
    return steps


DEFAULT_MAX_ENUM = 10**7  # the walk cap when OSCTAB_MAX_ENUM is unset


def max_enumeration_size() -> int:
    """The walk cap, from OSCTAB_MAX_ENUM."""
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


def refuse_over_cap(start: Partition, shape: Partition, length: int) -> int:
    """walk_count, held to the cap before any walk is enumerated: past it, raise."""
    cap = max_enumeration_size()
    count = walk_count(start, shape, length)
    if count > cap:
        raise BoundExceededError(f"enumeration exceeds the configured cap of {cap} walks")
    return count


def enumerate_ot(start: Partition, shape: Partition, length: int) -> Iterator[OscillatingTableau]:
    """The walks from start to shape, from _walk_dfs; an over-cap set raises here, at the call."""
    refuse_over_cap(start, shape, length)
    return _walk_dfs(start, shape, length)


def _walk_dfs(start: Partition, shape: Partition, length: int) -> Iterator[OscillatingTableau]:
    """Yield each walk from start to shape as a tuple, depth-first.

    The one walk DFS.  Growths come before removals, largest part and top
    row first.  Parity and reach are checked once (a mismatch yields
    nothing), then a move is taken when its distance to shape fits the
    steps left.  Each distinct partition's moves are listed once, with
    their distance to shape; a prefix two steps short reads each last
    move next to shape straight from that table, so the forced step onto
    shape is never searched.
    """
    distance = cover_distance(start, shape)
    if distance > length or (length - distance) % 2:
        return
    if length < 2:  # start is shape (length 0) or next to it (length 1)
        yield (start, shape) if length else (shape,)
        return
    moves: dict[Partition, list[tuple[Partition, int]]] = {}  # (next, distance to shape)
    path = [start]  # the walk's first entries
    stack: list[Iterator[tuple[Partition, int]]] = []  # open moves out of path[i]
    while True:
        current = path[-1]
        table = moves.get(current)
        if table is None:
            table = moves[current] = [
                (nxt, cover_distance(nxt, shape))
                for nxt in covers_up(current) + covers_down(current)
            ]
        if len(path) < length - 1:
            stack.append(iter(table))
        else:  # each move next to shape makes a prefix one step short
            for last, last_distance in table:
                if last_distance == 1:
                    yield (*path, last, shape)
            path.pop()
        # advance to the next prefix: the deepest open move that still reaches shape
        while stack:
            left = length - len(path)  # steps left after a move out of path[-1]
            for nxt, distance in stack[-1]:
                if distance <= left:
                    break
            else:
                stack.pop()
                path.pop()
                continue
            path.append(nxt)
            break
        else:
            return


def weight_profile(start: Partition, shape: Partition, length: int) -> list[int]:
    """Histogram h with h[w] = number of walks of weight w (kernel-backed).

    Counts the walks enumerate_ot yields without producing any: the
    kernel advances a per-partition weight histogram one step at a time.
    `count` and `avg-weight` check their closed forms against it.
    kernels is imported here, so the commands that load tableaux only
    for its closed forms and enumeration (enumerate, skew-scan, rs, a
    homomesy search) never load the walk DP.
    """
    from . import kernels

    return kernels.ot_weight_profile(tuple(start), tuple(shape), length)


def average_weight_formula(k: int, n: int) -> "Fraction":
    """Closed-form average weight: (4n^2 + 3k^2 + 8kn + 2n + 3k) / 6."""
    from fractions import Fraction

    return Fraction(4 * n * n + 3 * k * k + 8 * k * n + 2 * n + 3 * k, 6)


def average_size_formula(k: int, n: int) -> "Fraction":
    """Average partition size along the walk: the average weight over 2n+k+1 steps."""
    return average_weight_formula(k, n) / (2 * n + k + 1)


def average_weight_enumerated(
    start: Partition, shape: Partition, length: int
) -> "Fraction":
    """Exact average weight over every walk from start to shape, from one weight_profile.

    Raises EmptyEnumerationError when no walk exists (parity or size
    mismatch between the endpoints and the length).
    """
    from fractions import Fraction

    profile = weight_profile(start, shape, length)
    if not profile:
        raise EmptyEnumerationError(
            f"no walks of length {length} from {format_partition(start)} "
            f"to {format_partition(shape)}"
        )
    return Fraction(sum(w * c for w, c in enumerate(profile)), sum(profile))


def walk_count(start: Partition, shape: Partition, length: int) -> int:
    """The number of walks from start to shape: sum_j b(j + d, j, l) g_j, d = |shape| - |start|.

    From the empty start this is the paper's closed form: with l = d + 2n,
    b(d, 0, l) f^shape = C(d + 2n, d) (2n - 1)!! f^shape.
    """
    d = size(shape) - size(start)
    if not start:  # g has the one term g_0 = f^shape
        return normal_order_coefficient(d, 0, length) * num_syt(shape)
    g_terms = overlaps(skew_syt_counts(start), skew_syt_counts(shape))
    return sum(normal_order_coefficient(j + d, j, length) * g_j for j, g_j in g_terms)
