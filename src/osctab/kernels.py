"""The four hot kernels, in pure Python.

Walk profiles and the joint (cr, ne, al) distribution are layered
dynamic programmes: they advance a table of states one step at a time
instead of visiting every walk or matching, so their cost grows with the
number of states rather than with the number of objects counted.  The
brute-force routes they replace (tableaux.enumerate_ot, enumerating
matchings and classifying each) remain as test oracles.

Kernel contract
---------------
matching_stats(partner)            -> (crossings, nestings, alignments)
joint_distribution_counts(n)       -> {(cr, ne, al): count} over all matchings of [2n]
ot_weight_profile(start, shape, l) -> list c with c[w] = number of length-l
                                      lattice walks start -> shape of weight w
                                      (trailing zeros trimmed)
triple_search(values, target, node_budget, time_budget, mate)
                                   -> (status, triples, nodes); status 0 found,
                                      1 infeasible, 2 budget exhausted
"""

import time
from typing import Sequence

from .partitions import cover_distance, covers_down, covers_up

BACKEND = "pure"  # the benchmark records it with every result

STATUS_FOUND = 0
STATUS_INFEASIBLE = 1
STATUS_BUDGET = 2

_TIME_CHECK_MASK = 0xFFF


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

    Keeps, for every partition a walk can occupy after t steps, the
    histogram {weight so far: walks} and advances all of them by one
    single-box move per step (the U + D transfer of the differential
    poset).  A partition is kept only while the box distance to shape
    fits in the remaining steps; that distance changes by one per step,
    so its parity is settled once at the start and no kept state is a
    dead end.
    """
    distance = cover_distance(start, shape)
    if distance > length or (length - distance) % 2:
        return []
    layer: dict[tuple[int, ...], dict[int, int]] = {start: {sum(start): 1}}
    for remaining in range(length - 1, -1, -1):
        following: dict[tuple[int, ...], dict[int, int]] = {}
        for partition, histogram in layer.items():
            size = sum(partition)
            for moves, new_size in (
                (covers_up(partition), size + 1),
                (covers_down(partition), size - 1),
            ):
                for nxt in moves:
                    if cover_distance(nxt, shape) > remaining:
                        continue
                    target = following.setdefault(nxt, {})
                    for w, c in histogram.items():
                        target[w + new_size] = target.get(w + new_size, 0) + c
        layer = following
    histogram = layer[shape]
    return [histogram.get(w, 0) for w in range(max(histogram) + 1)]


class _Budget(Exception):
    pass


def triple_search(
    values: Sequence[int],
    target: int,
    node_budget: int,
    time_budget: float,
    mate: Sequence[int] | None = None,
) -> tuple[int, list[tuple[int, int, int]], int]:
    """First-solution DFS partitioning indices into value-sum-`target` triples.

    The lowest unassigned index i is extended by every pair j < k of
    unassigned indices (j ascending, k located through a value index),
    so the search order and therefore the certificate and node count are
    deterministic.  With `mate` (an involution on indices) only triples
    closed under it are allowed.  A node is one attempted triple.
    """
    m = len(values)
    if m % 3:
        raise ValueError("item count must be divisible by 3")
    if sum(values) != (m // 3) * target:
        return STATUS_INFEASIBLE, [], 0

    by_value: dict[int, list[int]] = {}
    for i, v in enumerate(values):
        by_value.setdefault(v, []).append(i)
    free_count = {v: len(positions) for v, positions in by_value.items()}

    assigned = [False] * m
    chosen: list[tuple[int, int, int]] = []
    nodes = 0
    deadline = time.monotonic() + time_budget if time_budget > 0 else None

    def closed(i: int, j: int, k: int) -> bool:
        triple = {i, j, k}
        return {mate[i], mate[j], mate[k]} == triple

    def rec(lowest: int) -> bool:
        nonlocal nodes
        i = lowest
        while i < m and assigned[i]:
            i += 1
        if i == m:
            return True
        assigned[i] = True
        free_count[values[i]] -= 1
        vi = values[i]
        for j in range(i + 1, m):
            if assigned[j]:
                continue
            need = target - vi - values[j]
            candidates = by_value.get(need)
            if not candidates:
                continue
            # a j whose completion value has no free item would try zero nodes
            if free_count[need] - (1 if values[j] == need else 0) <= 0:
                continue
            assigned[j] = True
            free_count[values[j]] -= 1
            for k in candidates:
                if k <= j or assigned[k]:
                    continue
                if mate is not None and not closed(i, j, k):
                    continue
                nodes += 1
                if nodes > node_budget:
                    raise _Budget
                if deadline is not None and not (nodes & _TIME_CHECK_MASK):
                    if time.monotonic() > deadline:
                        raise _Budget
                assigned[k] = True
                free_count[values[k]] -= 1
                chosen.append((i, j, k))
                if rec(i + 1):
                    return True
                chosen.pop()
                assigned[k] = False
                free_count[values[k]] += 1
            assigned[j] = False
            free_count[values[j]] += 1
        assigned[i] = False
        free_count[values[i]] += 1
        return False

    try:
        found = rec(0)
    except _Budget:
        return STATUS_BUDGET, [], nodes
    if found:
        return STATUS_FOUND, list(chosen), nodes
    return STATUS_INFEASIBLE, [], nodes
