"""The kernels against brute-force routes, plus symmetries they must respect."""

from collections import Counter
from itertools import combinations
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from osctab import kernels
from osctab.matchings import enumerate_matchings, partner_array
from osctab.partitions import conjugate, partitions_up_to
from osctab.tableaux import enumerate_ot, weight

partition_st = st.builds(
    lambda parts: tuple(sorted((p for p in parts if p > 0), reverse=True)),
    st.lists(st.integers(0, 4), max_size=4),
)


def enumerated_profile(start, shape, length):
    histogram = Counter(weight(walk) for walk in enumerate_ot(start, shape, length))
    return [histogram[w] for w in range(max(histogram) + 1)] if histogram else []


@given(partition_st, partition_st, st.integers(0, 8))
@settings(deadline=None, max_examples=80)
def test_profile_equals_enumerated_weights(start, shape, length):
    assert kernels.ot_weight_profile(start, shape, length) == enumerated_profile(
        start, shape, length
    )


# endpoints of size <= 4 keep the enumeration at length 10 small
small_partition_st = st.sampled_from(list(partitions_up_to(4)))


@given(
    small_partition_st,
    st.lists(small_partition_st, min_size=1, max_size=4),
    st.integers(0, 10),
)
@settings(deadline=None, max_examples=25)
def test_profiles_equal_enumerated_weights(start, shapes, max_length):
    profiles = kernels.ot_weight_profiles((start,), shapes, max_length)
    assert all(profiles.values())
    grid = {(start, shape, length) for shape in shapes for length in range(max_length + 1)}
    assert set(profiles) <= grid
    for cell in grid:
        assert profiles.get(cell, []) == enumerated_profile(*cell)


def test_one_multi_start_call_equals_the_one_start_calls():
    starts, shapes = list(partitions_up_to(4)), list(partitions_up_to(5))
    together = kernels.ot_weight_profiles(starts, shapes, 12)
    apart = {}
    for start in starts:
        apart.update(kernels.ot_weight_profiles((start,), shapes, 12))
    assert together == apart
    assert {start for start, _, _ in together} == set(starts)


def test_profile_mismatch_builds_no_layer(monkeypatch):
    calls = []
    for name in ("covers_up", "covers_down"):
        real = getattr(kernels, name)
        spy = lambda p, name=name, real=real: calls.append((name, p)) or real(p)  # noqa: E731
        monkeypatch.setattr(kernels, name, spy)
    # wrong parity, then too far apart
    for start, shape, length in (((), (), 7), ((), (1,), 2), ((2,), (1, 1), 9), ((3,), (), 2)):
        assert kernels.ot_weight_profile(start, shape, length) == []
    assert calls == []
    # moves are listed once per partition a walk leaves: (), (1), (2) and (1,1), not (2,1)
    assert kernels.ot_weight_profile((), (2, 1), 3) == [0] * 6 + [2]
    assert len(calls) == len(set(calls)) == 8


@given(partition_st, partition_st, st.integers(0, 12))
@settings(deadline=None, max_examples=80)
def test_profile_reversal(start, shape, length):
    assert kernels.ot_weight_profile(start, shape, length) == kernels.ot_weight_profile(
        shape, start, length
    )


@given(partition_st, partition_st, st.integers(0, 12))
@settings(deadline=None, max_examples=80)
def test_profile_conjugation(start, shape, length):
    assert kernels.ot_weight_profile(start, shape, length) == kernels.ot_weight_profile(
        conjugate(start), conjugate(shape), length
    )


@pytest.mark.parametrize("n", range(7))
def test_joint_distribution_equals_enumerated_stats(n):
    direct = Counter(kernels.matching_stats(partner_array(m)) for m in enumerate_matchings(n))
    assert kernels.joint_distribution_counts(n) == dict(direct)


def test_joint_distribution_beyond_enumeration():
    # sizes the enumeration bound rules out: totals and the cr <-> ne symmetry
    for n in range(7, 11):
        counts = kernels.joint_distribution_counts(n)
        assert sum(counts.values()) == prod(range(1, 2 * n, 2))
        assert counts == {(ne, cr, al): c for (cr, ne, al), c in counts.items()}


def closed_partition_exists(values, target, mate):
    """Brute force: can the indices be split into value-sum-`target` triples closed under mate?"""

    def rec(free):
        if not free:
            return True
        i = free[0]
        for j, k in combinations(free[1:], 2):
            if values[i] + values[j] + values[k] != target:
                continue
            if mate is not None and {mate[i], mate[j], mate[k]} != {i, j, k}:
                continue
            if rec([x for x in free if x not in (i, j, k)]):
                return True
        return False

    return rec(list(range(len(values))))


def random_involution(size, rng):
    idx = list(range(size))
    rng.shuffle(idx)
    mate = list(range(size))
    for i in range(0, size - 1, 2):
        a, b = idx[i], idx[i + 1]
        if rng.random() < 0.5:
            mate[a], mate[b] = b, a
    return mate


@given(
    st.integers(1, 5).flatmap(
        lambda t: st.lists(st.integers(0, 3), min_size=3 * t, max_size=3 * t)
    ),
    st.integers(0, 6),
    st.booleans(),
    st.randoms(use_true_random=False),
)
@settings(deadline=None, max_examples=150)
def test_triple_search_matches_brute_force(values, target, with_mate, rng):
    mate = random_involution(len(values), rng) if with_mate else None
    status, triples, _ = kernels.triple_search(values, target, 10**6, 60.0, mate)
    exists = closed_partition_exists(values, target, mate)
    assert status == (kernels.STATUS_FOUND if exists else kernels.STATUS_INFEASIBLE)
    if exists:
        assert sorted(x for t in triples for x in t) == list(range(len(values)))
        for i, j, k in triples:
            assert values[i] + values[j] + values[k] == target
            if mate is not None:
                assert {mate[i], mate[j], mate[k]} == {i, j, k}


def test_triple_search_budget():
    status, triples, nodes = kernels.triple_search([0, 1, 2] * 8, 3, 5, 60.0, None)
    assert (status, triples, nodes) == (kernels.STATUS_BUDGET, [], 5)


def test_triple_search_refuses_an_item_count_3_does_not_divide():
    with pytest.raises(ValueError, match="item count must be divisible by 3"):
        kernels.triple_search([0, 1, 2, 0], 3, 10**6, 60.0, None)


def test_triple_search_deep_certificate():
    # 1500 triples deep: the search keeps its own stack instead of recursing
    values = [0, 1, 2] * 1500
    status, triples, nodes = kernels.triple_search(values, 3, 10**6, 0, None)
    assert (status, nodes) == (kernels.STATUS_FOUND, 1500)
    assert sorted(x for t in triples for x in t) == list(range(len(values)))
    assert all(values[i] + values[j] + values[k] == 3 for i, j, k in triples)


def test_triple_search_mate_pair_without_fixed_point():
    # the pair {0, 1} needs a fixed point of value 3 and there is none
    values, mate = [0, 0, 1, 1, 2, 2], [1, 0, 2, 3, 4, 5]
    assert closed_partition_exists(values, 3, None)
    assert not closed_partition_exists(values, 3, mate)
    assert kernels.triple_search(values, 3, 10**6, 0, mate) == (kernels.STATUS_INFEASIBLE, [], 1)


# instances on which the count search backtracks: one without a certificate, one with
BACKTRACKING = [
    ([8, 5, 9, 19, 13, 6, 0, 8, 2, 13, 18, 4, 13, 4, 14, 6, 4, 13, 19, 6, 5, 4, 4, 4,
      14, 13, 18, 4, 4, 12, 10, 7, 6, 16, 14, 14, 13, 12, 5, 18, 13, 16, 5, 5, 6, 12, 11, 15],
     29, kernels.STATUS_INFEASIBLE),
    ([21, 13, 4, 18, 11, 0, 15, 17, 3, 9, 11, 10, 11, 0, 1, 14, 17, 1, 9, 19, 9, 12, 4, 19,
      0, 2, 4, 13, 16, 1, 0, 18, 19, 11, 7, 19, 6, 20, 15, 13, 1, 21],
     31, kernels.STATUS_FOUND),
]


@pytest.mark.parametrize("values, target, expected", BACKTRACKING)
def test_triple_search_dead_vectors(monkeypatch, values, target, expected):
    # remembering dead count vectors saves nodes; forgetting them changes no answer
    status, triples, remembered = kernels.triple_search(values, target, 10**6, 0, None)
    monkeypatch.setattr(kernels, "_DEAD_LIMIT", 0)
    forgotten = kernels.triple_search(values, target, 10**6, 0, None)
    assert status == forgotten[0] == expected
    assert triples == forgotten[1]
    assert remembered < forgotten[2]
    if triples:
        assert sorted(x for t in triples for x in t) == list(range(len(values)))
        assert all(values[i] + values[j] + values[k] == target for i, j, k in triples)
