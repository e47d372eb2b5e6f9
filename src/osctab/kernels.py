"""The four hot kernels, in pure Python.

Walk profiles and the joint (cr, ne, al) distribution are layered
dynamic programmes: they advance a table of states one step at a time
instead of visiting every walk or matching, so their cost grows with the
number of states rather than with the number of objects counted.  The
tests hold them to enumeration (tableaux.enumerate_ot, classifying each
matching).  The walk DP is the oracle for the normal-ordering law behind
every product walk count and `gf`: `count`, `avg-weight`, `verify` (its
count, weight, diffposet and skew batteries) and the tests run it.
The triple search works on value counts, held to a brute-force search.

Kernel contract
---------------
matching_stats(partner)            -> (crossings, nestings, alignments)
joint_distribution_counts(n)       -> {(cr, ne, al): count} over all matchings of [2n]
ot_weight_profile(start, shape, l) -> list c with c[w] = number of length-l
                                      lattice walks start -> shape of weight w
                                      (trailing zeros trimmed)
ot_weight_profiles(starts, shapes, L)
                                   -> {(start, shape, l): ot_weight_profile(start, shape, l)}
                                      for every start in starts, shape in shapes and
                                      0 <= l <= L, one pass per start sharing one move
                                      table and one nearest-shape distance table;
                                      a triple with no walk has no key
triple_search(values, target, node_budget, time_budget, mate)
                                   -> (status, triples, nodes); status is the
                                      report name STATUS_FOUND "certificate",
                                      STATUS_INFEASIBLE "infeasible" or
                                      STATUS_BUDGET "budget-exhausted"; triples
                                      are index triples (each ascending, in
                                      ascending order) when found, else empty;
                                      nodes counts the triples attempted, at most
                                      node_budget; time_budget <= 0 means no clock;
                                      mate is required: an involution on indices,
                                      or None for no closure constraint
"""

import time
from typing import Iterable, Sequence

from .partitions import cover_distance, covers_down, covers_up

BACKEND = "pure"  # the benchmark records it with every result
SEARCH_ENGINE = "value-count"  # named in every homomesy report

# search outcomes, named as reports print them
STATUS_FOUND = "certificate"
STATUS_INFEASIBLE = "infeasible"
STATUS_BUDGET = "budget-exhausted"

_TIME_CHECK_MASK = 0xFFF
# count vectors the triple search remembers as dead, about 80 MB of them;
# past that a dead vector may be explored again, which costs only time
_DEAD_LIMIT = 1 << 20


def matching_stats(partner: Sequence[int]) -> tuple[int, int, int]:
    """Classify every pair of pairs of a perfect matching.

    partner[i] is the 0-indexed position matched with i.  For openers
    o1 < o2 with closers c1, c2: the pairs are disjoint (alignment) when
    c1 < o2, nested when c2 < c1, and crossing otherwise.
    """
    openers = [i for i in range(len(partner)) if partner[i] > i]
    cr = ne = al = 0
    for idx, o1 in enumerate(openers):
        c1 = partner[o1]
        for o2 in openers[idx + 1 :]:
            c2 = partner[o2]
            if c1 < o2:
                al += 1
            elif c2 < c1:
                ne += 1
            else:
                cr += 1
    return cr, ne, al


def joint_distribution_counts(n: int) -> dict[tuple[int, int, int], int]:
    """Count matchings of [2n] by their (crossings, nestings, alignments) triple.

    Scans positions left to right over states (open arcs h, cr, ne, al).
    An opener is aligned with every arc already closed.  A closer picks
    which of the h open arcs it closes; closing the k-th most recently
    opened one crosses the k-1 arcs opened after it and nests inside the
    h-k opened before.  Each pair of arcs is thereby classified exactly
    once, when the first of its two closers (or, for an alignment, the
    later opener) is scanned, and each sequence of choices is one matching.
    """
    layer: dict[tuple[int, int, int, int], int] = {(0, 0, 0, 0): 1}
    for position in range(2 * n):
        left = 2 * n - position - 1  # positions after this one
        following: dict[tuple[int, int, int, int], int] = {}
        for (h, cr, ne, al), count in layer.items():
            if h < left:
                key = (h + 1, cr, ne, al + (position - h) // 2)
                following[key] = following.get(key, 0) + count
            for k in range(1, h + 1):
                key = (h - 1, cr + k - 1, ne + h - k, al)
                following[key] = following.get(key, 0) + count
        layer = following
    return {(cr, ne, al): count for (_, cr, ne, al), count in layer.items()}


def ot_weight_profile(
    start: tuple[int, ...], shape: tuple[int, ...], length: int
) -> list[int]:
    """Weight histogram of all length-`length` walks from start to shape.

    The one-start, one-shape case of ot_weight_profiles.  The box
    distance changes by one per step, so when its parity or size rules
    the walks out no layer is built.
    """
    distance = cover_distance(start, shape)
    if distance > length or (length - distance) % 2:
        return []
    return ot_weight_profiles((start,), (shape,), length)[start, shape, length]


def ot_weight_profiles(
    starts: Iterable[tuple[int, ...]], shapes: Iterable[tuple[int, ...]], max_length: int
) -> dict[tuple[tuple[int, ...], tuple[int, ...], int], list[int]]:
    """Weight histograms of the walks from each start to each shape, at every length.

    From each start in turn, keeps, for every partition a walk can occupy
    after t steps, the histogram {weight so far: walks} and advances all
    of them by one single-box move per step (the U + D transfer of the
    differential poset).  After step t the layer's entry at each shape is
    the profile of the length-t walks to it, so one pass per start serves
    every length up to max_length.  A partition is kept only while its box
    distance to the nearest shape fits in the steps left; since any walk
    to a shape passes only through partitions within that reach, no walk
    counted in a profile is lost.  Neither the moves out of a partition
    nor its distance to the nearest shape depends on the start, so each
    is computed once per call.  Keys are (start, shape, length); a triple
    with no walk has no key.
    """
    shapes = list(dict.fromkeys(shapes))
    if not shapes:
        return {}
    moves: dict[tuple[int, ...], list[tuple[tuple[int, ...], int, int]]] = {}
    reach: dict[tuple[int, ...], int] = {}  # partition -> distance to the nearest shape

    def near(partition: tuple[int, ...]) -> int:
        distance = reach.get(partition)
        if distance is None:
            distance = reach[partition] = min(cover_distance(partition, s) for s in shapes)
        return distance

    profiles: dict[tuple[tuple[int, ...], tuple[int, ...], int], list[int]] = {}
    for start in dict.fromkeys(starts):
        layer: dict[tuple[int, ...], dict[int, int]] = {start: {sum(start): 1}}
        for length in range(max_length + 1):
            for shape in shapes:
                histogram = layer.get(shape)
                if histogram:
                    profiles[start, shape, length] = [
                        histogram.get(w, 0) for w in range(max(histogram) + 1)
                    ]
            if length == max_length:
                break
            remaining = max_length - length - 1  # steps left after the next one
            following: dict[tuple[int, ...], dict[int, int]] = {}
            for partition, histogram in layer.items():
                table = moves.get(partition)
                if table is None:
                    table = moves[partition] = [
                        (nxt, sum(nxt), near(nxt))
                        for nxt in covers_up(partition) + covers_down(partition)
                    ]
                for nxt, new_size, distance in table:
                    if distance > remaining:
                        continue
                    target = following.setdefault(nxt, {})
                    for w, c in histogram.items():
                        target[w + new_size] = target.get(w + new_size, 0) + c
            layer = following
    return profiles


def triple_search(
    values: Sequence[int],
    target: int,
    node_budget: int,
    time_budget: float,
    mate: Sequence[int] | None,
) -> tuple[str, list[tuple[int, int, int]], int]:
    """First-solution search partitioning indices into value-sum-`target` triples.

    With mate None only how many items carry each value matters, so the
    search runs over that count vector (_value_triples) and lifts the
    value triples it finds back to indices, each value class handing out
    its lowest free indices first; the certificate and the node count are
    therefore deterministic.  With a mate (an involution on indices) only
    triples closed under it are allowed.  Such a triple is three fixed
    points or one fixed point with a mate pair, so each pair {i, mate[i]}
    first takes a fixed point of value target - values[i] - values[mate[i]]
    (none left means infeasible), and the fixed points left over go to the
    count search.  A node is one attempted triple.  Each triple lists its
    indices ascending, and the triples come out sorted.
    """
    m = len(values)
    if m % 3:
        raise ValueError("item count must be divisible by 3")
    if sum(values) != (m // 3) * target:
        return STATUS_INFEASIBLE, [], 0

    clock = _Clock(node_budget, time_budget)
    pools: dict[int, list[int]] = {}  # value -> free fixed points, lowest index last
    for i in range(m - 1, -1, -1):
        if mate is None or mate[i] == i:
            pools.setdefault(values[i], []).append(i)
    triples: list[tuple[int, ...]] = []
    try:
        for i, j in enumerate(mate or ()):
            if j <= i:
                continue
            clock.tick()
            pool = pools.get(target - values[i] - values[j])
            if not pool:
                return STATUS_INFEASIBLE, [], clock.nodes
            triples.append(tuple(sorted((i, j, pool.pop()))))
        found = _value_triples({v: len(p) for v, p in pools.items() if p}, target, clock)
    except _Budget:
        return STATUS_BUDGET, [], clock.nodes
    if found is None:
        return STATUS_INFEASIBLE, [], clock.nodes
    for value_triple in found:
        triples.append(tuple(sorted(pools[v].pop() for v in value_triple)))
    triples.sort()
    return STATUS_FOUND, triples, clock.nodes


class _Budget(Exception):
    pass


class _Clock:
    """Counts nodes and raises _Budget instead of passing the node budget or the deadline."""

    def __init__(self, node_budget: int, time_budget: float):
        self.nodes = 0
        self.node_budget = node_budget
        self.deadline = time.monotonic() + time_budget if time_budget > 0 else None

    def tick(self) -> None:
        # nodes counts triples attempted, so it never passes the budget
        if self.nodes >= self.node_budget:
            raise _Budget
        if self.deadline is not None and not (self.nodes & _TIME_CHECK_MASK):
            if time.monotonic() > self.deadline:
                raise _Budget
        self.nodes += 1


def _value_triples(
    counts: dict[int, int], target: int, clock: _Clock
) -> list[tuple[int, int, int]] | None:
    """Value triples of sum `target` that use up `counts` exactly, or None if none do.

    A depth-first search over count vectors with an explicit stack.  The
    smallest and the largest value still present must each go into some
    triple, so a step branches over the completions of whichever of the
    two has fewer, and a vector where either has none is a dead end.  The
    completions using the most plentiful values go first; on the matching
    and walk sets that finds a certificate without backtracking.  A vector
    all of whose branches failed joins `dead` (up to _DEAD_LIMIT of them)
    and is not explored again.
    """
    vals = sorted(counts)
    state = [counts[v] for v in vals]
    position = {v: p for p, v in enumerate(vals)}
    # the vector as one integer in mixed radix, kept in step with state
    weight = [1] * len(vals)
    for p in range(1, len(vals)):
        weight[p] = weight[p - 1] * (state[p - 1] + 1)
    key = sum(c * w for c, w in zip(state, weight))
    dead: set[int] = set()

    def move(step: tuple[int, int, int], sign: int) -> None:
        nonlocal key
        for p in step:
            state[p] += sign
            key += sign * weight[p]

    def supplied(step: tuple[int, int, int]) -> bool:
        return all(state[p] >= step.count(p) for p in step)

    def options() -> list[tuple[int, int, int]]:
        """Completions of the scarcer extreme, the most plentiful values first."""
        present = [p for p, c in enumerate(state) if c]
        lo, hi = present[0], present[-1]
        low, high = [], []
        for p in present:
            q = position.get(target - vals[lo] - vals[p])  # the smallest with p and q
            if q is not None and p <= q <= hi and supplied((lo, p, q)):
                low.append((lo, p, q))
            q = position.get(target - vals[hi] - vals[p])  # p and q with the largest
            if q is not None and p <= q <= hi and supplied((p, q, hi)):
                high.append((p, q, hi))
        branches = low if len(low) <= len(high) else high  # empty if either is
        branches.sort(key=lambda step: -sum(state[p] for p in step))
        return branches

    left = sum(state) // 3
    if not left:
        return []
    path: list[tuple[int, int, int]] = []
    stack = [iter(options())]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            if len(dead) < _DEAD_LIMIT:
                dead.add(key)
            stack.pop()
            if path:
                move(path.pop(), 1)
            continue
        clock.tick()
        move(step, -1)
        path.append(step)
        if len(path) == left:
            return [(vals[a], vals[b], vals[c]) for a, b, c in path]
        stack.append(iter(options() if key not in dead else ()))
    return None
