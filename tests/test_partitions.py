from collections import Counter
from itertools import product
from math import factorial
from typing import Iterator

import pytest
from hypothesis import given, strategies as st

from osctab.errors import BoundExceededError, PartitionParseError
from osctab.kernels import ot_weight_profile
from osctab.partitions import (
    Partition,
    as_partition,
    box_step,
    conjugate,
    covers_down,
    covers_up,
    format_partition,
    num_syt,
    parse_partition,
    partitions_of_size,
    partitions_up_to,
    size,
    skew_syt_counts,
)

MAX_SYT_SIZE = 12  # largest diagram enumerate_syt fills


def enumerate_syt(partition: Partition) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield every standard filling of the diagram as a tuple of rows.

    Entries 1..n are placed one at a time; entry v may extend row i when
    the row above is already longer at that column.  Independent of the
    hook-length count, which it serves as a brute-force check for.
    """
    n = size(partition)
    if n > MAX_SYT_SIZE:
        raise BoundExceededError(f"|partition| = {n} exceeds the configured bound {MAX_SYT_SIZE}")
    rows = len(partition)
    filling: list[list[int]] = [[] for _ in range(rows)]

    def place(value: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if value > n:
            yield tuple(tuple(row) for row in filling)
            return
        for i in range(rows):
            col = len(filling[i])
            if col >= partition[i]:
                continue
            if i > 0 and len(filling[i - 1]) <= col:
                continue
            filling[i].append(value)
            yield from place(value + 1)
            filling[i].pop()

    yield from place(1)


@st.composite
def partition_strategy(draw, max_n=10):
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n == 0:
        return ()
    k = draw(st.integers(min_value=1, max_value=n))
    bins = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return tuple(sorted(Counter(bins).values(), reverse=True))


def cells(partition):
    return {(r, c) for r, part in enumerate(partition) for c in range(part)}


def test_parse_format_examples():
    assert parse_partition("3,1,1") == (3, 1, 1)
    assert parse_partition("-") == ()
    assert parse_partition("") == ()
    assert format_partition(()) == "-"
    assert format_partition((3, 1, 1)) == "3,1,1"


def test_parse_rejects_increasing():
    with pytest.raises(PartitionParseError):
        parse_partition("1,2")
    with pytest.raises(PartitionParseError):
        parse_partition("2,-1")


def test_as_partition_strips_trailing_zeros():
    assert as_partition([3, 1, 0, 0]) == (3, 1)


def test_covers_up_examples():
    assert covers_up(()) == [(1,)]
    assert covers_up((1,)) == [(2,), (1, 1)]
    assert covers_up((2, 1)) == [(3, 1), (2, 2), (2, 1, 1)]


def test_covers_down_examples():
    assert covers_down(()) == []
    assert covers_down((2, 1)) == [(1, 1), (2,)]
    assert covers_down((3, 3)) == [(3, 2)]


def test_covers_up_brute_force():
    # independent oracle: every partition of size+1 whose diagram contains ours
    for p in partitions_up_to(7):
        expected = {
            q for q in partitions_of_size(size(p) + 1) if cells(p) <= cells(q)
        }
        assert set(covers_up(p)) == expected
        assert len(covers_up(p)) == len(set(p)) + 1


def test_covers_duality():
    for p in partitions_up_to(10):
        for q in covers_down(p):
            assert p in covers_up(q)
        for q in covers_up(p):
            assert p in covers_down(q)


def test_box_step_equals_the_size_definition():
    def covers(small, big):
        rowwise = len(big) >= len(small) and all(b >= s for s, b in zip(small, big))
        return size(big) == size(small) + 1 and rowwise

    def box_row(small, big):  # the first row where the two differ
        return next(r for r, (s, b) in enumerate(zip(small + (0,), big)) if s != b)

    parts = list(partitions_up_to(7))
    kinds = set()
    for prev in parts:
        for cur in parts:
            expected = None
            if covers(prev, cur):
                expected = (box_row(prev, cur), 1)
            elif covers(cur, prev):
                expected = (box_row(cur, prev), -1)
            assert box_step(prev, cur) == expected, (prev, cur)
            kinds.add((len(cur) - len(prev), size(cur) - size(prev), expected is not None))
    # steps of equal length and of one row more or fewer; longer by two; sizes not adjacent
    assert {(0, 1, True), (1, 1, True), (0, -1, True), (-1, -1, True),
            (2, 2, False), (0, 2, False), (0, 0, False)} <= kinds


def test_box_step_lands_only_on_partitions():
    # every tuple near prev, partition or not: parts 0..prev[0]+1, at most one row more
    for prev in partitions_up_to(5):
        top = (prev[0] if prev else 0) + 1
        accepted = set()
        for rows in range(len(prev) + 2):
            for cur in product(range(top + 1), repeat=rows):
                if box_step(prev, cur) is not None:
                    assert 0 not in cur and list(cur) == sorted(cur, reverse=True), (prev, cur)
                    accepted.add(cur)
        assert accepted == set(covers_up(prev) + covers_down(prev))


def test_conjugate_examples():
    assert conjugate(()) == ()
    assert conjugate((2, 1)) == (2, 1)
    assert conjugate((3, 1)) == (2, 1, 1)


def test_conjugate_is_diagram_transpose():
    for p in partitions_up_to(8):
        assert cells(conjugate(p)) == {(c, r) for r, c in cells(p)}


@given(partition_strategy(max_n=12))
def test_conjugate_involution(p):
    assert conjugate(conjugate(p)) == p


@given(partition_strategy())
def test_parse_format_roundtrip(p):
    assert parse_partition(format_partition(p)) == p


def test_num_syt_examples():
    assert num_syt(()) == 1
    assert num_syt((2, 1)) == 2
    assert num_syt((3, 2)) == 5
    assert num_syt((5, 4, 1)) == 288


def test_num_syt_conjugation_invariant():
    for p in partitions_up_to(10):
        assert num_syt(p) == num_syt(conjugate(p))


def test_enumerate_syt_examples():
    assert list(enumerate_syt(())) == [()]
    assert list(enumerate_syt((1, 1))) == [((1,), (2,))]
    fillings = list(enumerate_syt((2, 1)))
    assert len(fillings) == 2
    assert ((1, 2), (3,)) in fillings and ((1, 3), (2,)) in fillings


def test_enumerate_syt_fillings_are_standard():
    for p in partitions_up_to(6):
        for filling in enumerate_syt(p):
            entries = sorted(x for row in filling for x in row)
            assert entries == list(range(1, size(p) + 1))
            for row in filling:
                assert list(row) == sorted(row)
            for r in range(1, len(filling)):
                for c in range(len(filling[r])):
                    assert filling[r][c] > filling[r - 1][c]


def test_num_syt_matches_enumeration():
    for p in partitions_up_to(8):
        assert num_syt(p) == sum(1 for _ in enumerate_syt(p))


def test_enumerate_syt_bound():
    with pytest.raises(BoundExceededError):
        list(enumerate_syt((7, 6)))


def test_syt_squares_sum_to_factorial():
    for m in range(9):
        assert sum(num_syt(p) ** 2 for p in partitions_of_size(m)) == factorial(m)


def test_skew_syt_counts_at_the_empty_inner_are_num_syt():
    for outer in partitions_up_to(10):
        assert skew_syt_counts(outer)[()] == num_syt(outer)


def test_skew_syt_counts_examples():
    assert skew_syt_counts(()) == {(): 1}
    assert skew_syt_counts((2, 1)) == {(2, 1): 1, (2,): 1, (1, 1): 1, (1,): 2, (): 2}
    assert skew_syt_counts((3, 2))[(2,)] == 3  # the skew shape (3,2)/(2) has 3 fillings


def test_skew_syt_counts_are_up_only_walk_counts():
    """Every inner inside outer is a key, and each count is the walk DP's up-only count."""
    for outer in partitions_up_to(7):
        counts = skew_syt_counts(outer)
        inside = [p for p in partitions_up_to(size(outer)) if cells(p) <= cells(outer)]
        assert sorted(counts) == sorted(inside)
        assert [size(p) for p in counts] == sorted(map(size, counts), reverse=True)
        for inner, count in counts.items():
            steps = size(outer) - size(inner)
            assert count == sum(ot_weight_profile(inner, outer, steps))


def test_partitions_of_size_order_and_count():
    parts4 = list(partitions_of_size(4))
    assert parts4 == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    counts = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for m, expected in enumerate(counts):
        assert sum(1 for _ in partitions_of_size(m)) == expected
