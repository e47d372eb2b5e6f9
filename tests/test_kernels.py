"""The kernels against brute-force routes, plus symmetries they must respect."""

from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from osctab import kernels
from osctab.matchings import enumerate_matchings, partner_array
from osctab.partitions import conjugate
from osctab.tableaux import enumerate_ot, weight
from osctab.util import double_factorial

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
        assert sum(counts.values()) == double_factorial(2 * n - 1)
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
    st.lists(st.integers(0, 3), min_size=3, max_size=12).filter(lambda v: len(v) % 3 == 0),
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
    assert (status, triples, nodes) == (kernels.STATUS_BUDGET, [], 6)
