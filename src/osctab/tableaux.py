"""Walks in the partition lattice and their weight statistic.

A walk of length l is a tuple of l+1 partitions in which consecutive
entries differ by one box in either direction.  Walks starting at the
empty partition are enumerated exactly, and their count and average
weight are compared against closed forms.  Walks with a nonempty start
are the skew variant.  walk_count counts any walk set, the cap refusals'
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
    start: Partition, shapes: Sequence[Partition], length: int
) -> Iterator[tuple[list[Partition], Partition, int]]:
    """Yield (path, shape, weight) for each walk from start to one of shapes, depth-first.

    The one walk DFS; enumerate_ot and walk_totals read it.  One pass
    serves every shape of one length.  A shape that the parity or reach
    of its distance from start rules out is dropped first; a move is
    taken when its box distance to the nearest shape fits the steps
    left, and each prefix one step short credits every shape next to
    it, in shapes' order, so the last step is never searched.  `path` is
    a live list of the walk's first `length` entries and `weight` is the
    sum of their sizes, sum(shape) left out (the length-0 walk yields
    ([], start, 0)).  Growths come before removals, largest part and top
    row first.  Each distinct partition's moves are listed once per
    pass, with their nearest-shape distance, the shapes next to them and
    their size.  The OSCTAB_MAX_ENUM cap lives here, per shape: more
    than util.max_enumeration_size() walks to one shape raise
    BoundExceededError.
    """
    cap = max_enumeration_size()
    shapes = [
        shape
        for shape in dict.fromkeys(shapes)
        if (distance := cover_distance(start, shape)) <= length and not (length - distance) % 2
    ]
    if length < 2 or not shapes:
        # each shape kept is start itself (length 0) or next to it (length 1)
        path = [start][:length]
        for shape in shapes:
            yield path, shape, sum(map(sum, path))
        return
    produced = [0] * len(shapes)
    # partition -> its distance to the nearest shape, and (index, shape) of each
    # shape one step from it; every shape kept has the parity of |start| +
    # length, so a prefix one step short that the pruning kept is next to one
    reach: dict[Partition, tuple[int, list[tuple[int, Partition]]]] = {}

    def near(partition: Partition) -> tuple[int, list[tuple[int, Partition]]]:
        found = reach.get(partition)
        if found is None:
            distances = [cover_distance(partition, shape) for shape in shapes]
            found = reach[partition] = min(distances), [
                (index, shape) for index, shape in enumerate(shapes) if distances[index] == 1
            ]
        return found

    # the moves out of a partition: (next, its distance to the nearest shape and
    # the shapes next to it, its size)
    moves: dict[Partition, list[tuple[Partition, int, list, int]]] = {}
    path, weights = [start], [sum(start)]
    stack: list[Iterator[tuple[Partition, int, list, int]]] = []  # open moves out of path[i]
    while True:
        current = path[-1]
        table = moves.get(current)
        if table is None:
            table = moves[current] = [
                (nxt, *near(nxt), sum(nxt)) for nxt in covers_up(current) + covers_down(current)
            ]
        if len(path) < length - 1:
            stack.append(iter(table))
        else:  # a move next to a shape makes a prefix one step short
            for last, _, last_ends, last_size in table:
                if last_ends:
                    path.append(last)
                    for index, shape in last_ends:
                        produced[index] += 1
                        if produced[index] > cap:
                            raise cap_exceeded(cap)
                        yield path, shape, weights[-1] + last_size
                    path.pop()
            path.pop()
            weights.pop()
        # advance to the next prefix: the deepest open move that still reaches a shape
        while stack:
            left = length - len(path)  # steps left after a move out of path[-1]
            for nxt, distance, _, nxt_size in stack[-1]:
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
    return ((*path, shape) for path, _, _ in _walks(start, (shape,), length))


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


def walk_totals(
    start: Partition, shapes: Sequence[Partition], length: int
) -> dict[Partition, tuple[int, int]]:
    """{shape: (count, total weight)} of the walks enumerate_ot yields, for each of shapes.

    One _walks pass serves them all, crediting each walk to its shape; a
    shape no walk reaches maps to (0, 0).  The cap applies per shape.
    """
    sums = {shape: [0, 0] for shape in shapes}  # shape -> [count, total of _walks's weights]
    for _, shape, path_weight in _walks(start, shapes, length):
        shape_sums = sums[shape]
        shape_sums[0] += 1
        shape_sums[1] += path_weight
    # each walk ends on its shape, which _walks's weights leave out
    return {shape: (count, total + count * sum(shape)) for shape, (count, total) in sums.items()}


def average_weight_enumerated(
    start: Partition, shape: Partition, length: int
) -> "Fraction":
    """Exact average weight over every enumerated walk (walk_totals).

    Raises EmptyEnumerationError when no walk exists (parity or size
    mismatch between the endpoints and the length).
    """
    from fractions import Fraction

    count, total = walk_totals(start, (shape,), length)[shape]
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
