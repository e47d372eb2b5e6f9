"""Walks in the partition lattice and their weight statistic.

A walk of length l is a tuple of l+1 partitions in which consecutive
entries differ by one box in either direction.  Walks to one end shape
are enumerated exactly (enumerate_ot, walk_totals) for the commands that
list or check them; `verify`'s count and weight batteries read the walk
DP in kernels instead.  Walks with a nonempty start are the skew
variant.  walk_count counts any walk set, the cap refusals'
included, from the normal-ordered (U + D)^l and skew tableau counts; the
skew scan in skew reads counts and average weights the same way, and
`gf` lives in diffposet.  The walk DP in kernels and the enumeration are
oracles.  Fraction is imported by the functions that build one, so the
commands that only count, walk or format (`count`, `enumerate`, `rs`, a
matching `homomesy`) never load fractions.
"""

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
    parse_partition,
    size,
    skew_syt_counts,
)
from .util import max_enumeration_size, normal_order_coefficient

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


def cap_exceeded(cap: int) -> BoundExceededError:
    """The error a walk enumeration raises past its cap of `cap` walks."""
    return BoundExceededError(f"enumeration exceeds the configured cap of {cap} walks")


def refuse_over_cap(start: Partition, shape: Partition, length: int) -> int:
    """walk_count, held to the cap before any walk is enumerated: past it, raise cap_exceeded."""
    cap = max_enumeration_size()
    count = walk_count(start, shape, length)
    if count > cap:
        raise cap_exceeded(cap)
    return count


def _walks(
    start: Partition, shape: Partition, length: int
) -> Iterator[tuple[list[Partition], int]]:
    """Yield (path, weight) for each walk from start to shape, depth-first.

    The one walk DFS; enumerate_ot and walk_totals read it.  `path` is a
    live list of the walk's first `length` entries and `weight`, the sum
    of the sizes of all its entries, includes sum(shape); the length-0
    walk yields ([], sum(start)).  Growths come before removals, largest
    part and top row first.  Parity and reach are checked once (a
    mismatch yields nothing), then a move is taken when its distance to
    shape fits the steps left.  Each distinct partition's moves are
    listed once, with their distance to shape and size; a prefix two
    steps short reads each last move next to shape straight from that
    table, so the forced step onto shape is never searched.  The
    OSCTAB_MAX_ENUM cap lives here: more than util.max_enumeration_size()
    walks raise BoundExceededError.
    """
    cap = max_enumeration_size()
    distance = cover_distance(start, shape)
    if distance > length or (length - distance) % 2:
        return
    if length < 2:  # start is shape (length 0) or next to it (length 1)
        path = [start][:length]
        yield path, sum(map(sum, path)) + sum(shape)
        return
    produced = 0
    moves: dict[Partition, list[tuple[Partition, int, int]]] = {}  # (next, distance, size)
    path, weights = [start], [sum(start) + sum(shape)]
    stack: list[Iterator[tuple[Partition, int, int]]] = []  # open moves out of path[i]
    while True:
        current = path[-1]
        table = moves.get(current)
        if table is None:
            table = moves[current] = [
                (nxt, cover_distance(nxt, shape), sum(nxt))
                for nxt in covers_up(current) + covers_down(current)
            ]
        if len(path) < length - 1:
            stack.append(iter(table))
        else:  # each move next to shape makes a prefix one step short
            for last, last_distance, last_size in table:
                if last_distance == 1:
                    produced += 1
                    if produced > cap:
                        raise cap_exceeded(cap)
                    path.append(last)
                    yield path, weights[-1] + last_size
                    path.pop()
            path.pop()
            weights.pop()
        # advance to the next prefix: the deepest open move that still reaches shape
        while stack:
            left = length - len(path)  # steps left after a move out of path[-1]
            for nxt, distance, nxt_size in stack[-1]:
                if distance <= left:
                    break
            else:
                stack.pop()
                path.pop()
                weights.pop()
                continue
            path.append(nxt)
            weights.append(weights[-1] + nxt_size)
            break
        else:
            return


def enumerate_ot(start: Partition, shape: Partition, length: int) -> Iterator[OscillatingTableau]:
    """Yield each walk from start to shape as a tuple, in _walks's order, under its cap."""
    return ((*path, shape) for path, _ in _walks(start, shape, length))


def weight_profile(start: Partition, shape: Partition, length: int) -> list[int]:
    """Histogram h with h[w] = number of walks of weight w (kernel-backed).

    Counts the walks enumerate_ot yields without producing any: the
    kernel advances a per-partition weight histogram one step at a time.
    No command calls it (perfbench/tracing.py wraps this binding), so
    kernels is imported here: the commands that load tableaux for its
    closed forms and enumeration (count, enumerate, avg-weight,
    skew-scan) then never load the walk DP.
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


def walk_totals(start: Partition, shape: Partition, length: int) -> tuple[int, int]:
    """(count, total weight) of the walks enumerate_ot yields, from _walks's weights."""
    count = total = 0
    for _, walk_weight in _walks(start, shape, length):
        count += 1
        total += walk_weight
    return count, total


def average_weight_enumerated(
    start: Partition, shape: Partition, length: int
) -> "Fraction":
    """Exact average weight over every enumerated walk (walk_totals).

    Raises EmptyEnumerationError when no walk exists (parity or size
    mismatch between the endpoints and the length).
    """
    from fractions import Fraction

    count, total = walk_totals(start, shape, length)
    if count == 0:
        raise EmptyEnumerationError(
            f"no walks of length {length} from {format_partition(start)} "
            f"to {format_partition(shape)}"
        )
    return Fraction(total, count)


def overlaps(
    start_counts: dict[Partition, int], shape_counts: dict[Partition, int]
) -> list[tuple[int, int]]:
    """Nonzero (j, g_j) from skew_syt_counts(mu) and (lambda); g_j = <lambda| U^(j+d) D^j |mu>.

    d = |lambda| - |mu|; g_j sums f^(mu/nu) f^(lambda/nu) over the nu of size |mu| - j in both.
    """
    mu = size(next(iter(start_counts)))  # the first key is mu itself
    g = [0] * (mu + 1)
    for nu, f_start in start_counts.items():
        g[mu - size(nu)] += f_start * shape_counts.get(nu, 0)
    return [(j, g_j) for j, g_j in enumerate(g) if g_j]


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
