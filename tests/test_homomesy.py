import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from osctab import homomesy, kernels
from osctab.errors import BoundExceededError, CoverageError, NotDivisibleByThreeError, OsctabError
from osctab.homomesy import (
    TriplePartition,
    conjugate_positions,
    divisibility_check,
    homomesy_verify,
    matching_items,
    orbit_sum_target_matchings,
    orbit_sum_target_tableaux,
    search_matchings,
    search_tableaux,
    tableau_items,
    triple_partition_search,
)
from osctab.matchings import (
    conjugate_mates,
    conjugate_tableau,
    enumerate_matchings,
    format_matching,
    matching_to_tableau,
    parse_matching,
    tableau_to_matching,
)
from osctab.partitions import partitions_up_to, size
from osctab.tableaux import enumerate_ot, format_tableau, parse_tableau

GOLDENS = json.loads((Path(__file__).parent / "data" / "goldens.json").read_text())


def items_of(values):
    return [(f"x{i}", v) for i, v in enumerate(values)]


def test_orbit_target_tableaux_examples():
    assert orbit_sum_target_tableaux(0, 2) == 10
    assert orbit_sum_target_tableaux(1, 2) == 21
    assert orbit_sum_target_tableaux(0, 0) == 0


def test_orbit_target_matchings_examples():
    assert orbit_sum_target_matchings(2) == 1
    assert orbit_sum_target_matchings(3) == 3
    assert orbit_sum_target_matchings(4) == 6
    with pytest.raises(ValueError):
        orbit_sum_target_matchings(1)


def test_divisibility_examples():
    assert divisibility_check((), 2)
    assert not divisibility_check((), 1)
    for shape in partitions_up_to(5):
        for n in range(2, 6):
            assert divisibility_check(shape, n)


def test_search_single_triple():
    result = triple_partition_search(
        items_of([0, 0, 1]), 1, node_budget=10**8, time_budget=60.0, mate=None
    )
    assert result.found
    assert result.partition.triples == [("x0", "x1", "x2")]
    assert homomesy_verify(result.partition, items_of([0, 0, 1]))


def test_search_sum_mismatch_is_immediately_infeasible():
    result = triple_partition_search(
        items_of([0, 0, 0]), 1, node_budget=10**8, time_budget=60.0, mate=None
    )
    assert result.status == "infeasible"
    assert result.nodes == 0


def brute_feasible(values, target):
    """Exhaustive check, no budget and no value index: the feasibility oracle."""
    from itertools import combinations

    def rec(remaining):
        if not remaining:
            return True
        i = remaining[0]
        for j, k in combinations(remaining[1:], 2):
            if values[i] + values[j] + values[k] == target:
                rest = [x for x in remaining if x not in (i, j, k)]
                if rec(rest):
                    return True
        return False

    if sum(values) != (len(values) // 3) * target:
        return False
    return rec(list(range(len(values))))


def test_search_exhausts_to_infeasible():
    # totals agree (12 = 2 * 6) but no triple of {1,1,1,3,3,3} sums to 6
    values = [1, 1, 1, 3, 3, 3]
    assert not brute_feasible(values, 6)
    result = triple_partition_search(
        items_of(values), 6, node_budget=10**8, time_budget=60.0, mate=None
    )
    assert result.status == "infeasible"


@given(
    st.integers(1, 5).flatmap(
        lambda t: st.lists(st.integers(0, 4), min_size=3 * t, max_size=3 * t)
    ),
    st.integers(0, 9),
)
@settings(deadline=None, max_examples=150)
def test_search_feasibility_matches_brute_force(values, target):
    result = triple_partition_search(
        items_of(values), target, node_budget=10**6, time_budget=60.0, mate=None
    )
    expected = brute_feasible(values, target)
    assert result.status != "budget-exhausted"
    assert result.found == expected
    if result.found:
        assert homomesy_verify(result.partition, items_of(values))


def test_search_not_divisible():
    with pytest.raises(NotDivisibleByThreeError):
        triple_partition_search(
            items_of([1, 1]), 2, node_budget=10**8, time_budget=60.0, mate=None
        )


def test_search_budget_exhaustion():
    values = [0, 1, 2] * 6
    result = triple_partition_search(
        items_of(values), 3, node_budget=2, time_budget=60.0, mate=None
    )
    assert result.status == "budget-exhausted"
    assert result.partition is None
    assert result.nodes == 2


def test_search_deterministic():
    values = [0, 1, 3, 2, 2, 0, 1, 1, 2, 4, 0, 0]
    first = triple_partition_search(
        items_of(values), 4, node_budget=10**8, time_budget=60.0, mate=None
    )
    second = triple_partition_search(
        items_of(values), 4, node_budget=10**8, time_budget=60.0, mate=None
    )
    assert first.found and second.found
    assert first.partition.triples == second.partition.triples
    assert first.nodes == second.nodes


def test_homomesy_verify_examples():
    items = items_of([0, 0, 1, 1, 0, 0])
    good = TriplePartition([("x0", "x1", "x2"), ("x3", "x4", "x5")], 1)
    bad_sums = TriplePartition([("x0", "x1", "x4"), ("x2", "x3", "x5")], 1)
    assert homomesy_verify(good, items)
    assert not homomesy_verify(bad_sums, items)
    with pytest.raises(CoverageError):
        homomesy_verify(TriplePartition([("x0", "x1", "x2")], 1), items)


def test_homomesy_verify_refuses_repeated_identifiers():
    items = items_of([0, 0, 1]) + [("x0", 1)]
    with pytest.raises(ValueError, match="item identifiers must be distinct"):
        homomesy_verify(TriplePartition([("x0", "x1", "x2")], 1), items)


def test_homomesy_verify_accepts_the_empty_certificate():
    # no triples share every sum, whatever the target
    assert homomesy_verify(TriplePartition([], 5), [])


def test_matching_search_n2_unique():
    result = search_matchings(2)
    assert result.found
    assert result.target == 1
    assert result.partition.triples == [("1-2,3-4", "1-3,2-4", "1-4,2-3")]
    assert homomesy_verify(result.partition, matching_items(2))


def test_search_result_is_a_record_with_found():
    exhausted = search_matchings(4, node_budget=2, time_budget=0)
    assert exhausted.status == kernels.STATUS_BUDGET and not exhausted.found
    assert exhausted.partition is None
    assert (exhausted.nodes, exhausted.target, exhausted.item_count) == (2, 6, 105)
    with pytest.raises(AttributeError):
        exhausted.status = kernels.STATUS_FOUND
    assert search_matchings(2).found


def test_matching_search_goldens():
    for n_text, golden in GOLDENS["matching_search"].items():
        n = int(n_text)
        result = search_matchings(n)
        assert result.status == golden["status"]
        assert len(result.partition.triples) == golden["triples"]
        assert result.nodes == golden["nodes"]
        assert homomesy_verify(result.partition, matching_items(n))


def test_tableau_search_empty_shape_n2():
    result = search_tableaux((), 2)
    assert result.found
    assert result.target == 10
    assert len(result.partition.triples) == 1
    assert homomesy_verify(result.partition, tableau_items((), 2))


def test_tableau_search_refuses_indivisible():
    with pytest.raises(NotDivisibleByThreeError):
        search_tableaux((), 1)


def test_tableau_search_shape1_golden():
    golden = GOLDENS["tableau_search_shape1_n2"]
    result = search_tableaux((1,), 2)
    assert result.status == golden["status"]
    assert result.target == golden["target"]
    assert len(result.partition.triples) == golden["triples"]
    assert homomesy_verify(result.partition, tableau_items((1,), 2))


def test_conjugation_closed_search():
    result = search_matchings(2, conjugation_closed=True)
    # the only triple partition of 3 items is conjugation-closed here
    assert result.found
    assert homomesy_verify(result.partition, matching_items(2))


def test_mate_must_be_involution():
    items = items_of([0, 0, 1])
    with pytest.raises(ValueError):
        triple_partition_search(items, 1, node_budget=10**8, time_budget=60.0, mate=[1, 2, 0])


def test_mate_outside_the_item_set():
    items = items_of([0, 0, 1])
    # [2, 1, -3] would pass the involution test through Python's negative indexing
    for mate in ([3, 1, 2], [2, 1, -3], [0, 1], [0, 1, 2, 3]):
        with pytest.raises(ValueError):
            triple_partition_search(items, 1, node_budget=10**8, time_budget=60.0, mate=mate)


def test_repeated_identifiers_are_refused(monkeypatch):
    def no_search(*args):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(kernels, "triple_search", no_search)
    items = [("x0", 0), ("x1", 0), ("x0", 1)]
    with pytest.raises(ValueError):
        triple_partition_search(items, 1, node_budget=10**8, time_budget=60.0, mate=None)


def text_round_trip_mates(items, parse, conjugate_of, format_text):
    """Each item's mate the way it was once found: parse, conjugate, format, look up."""
    index = {text: i for i, (text, _) in enumerate(items)}
    return [index[format_text(conjugate_of(parse(text)))] for text, _ in items]


def fixed_points(mate):
    return [i for i, j in enumerate(mate) if i == j]


def conjugate_through_the_walk(matching):
    """The matching whose walk is the matching's walk conjugated step by step."""
    return tableau_to_matching(conjugate_tableau(matching_to_tableau(matching)))


def test_matching_mates_equal_the_text_round_trip():
    for n in range(1, 7):
        mate = conjugate_mates(enumerate_matchings(n))
        items = matching_items(n)
        assert mate == text_round_trip_mates(
            items, parse_matching, conjugate_through_the_walk, format_matching
        )
        assert all(mate[j] == i for i, j in enumerate(mate))
        # the only self-conjugate matching is 1-2,3-4,...
        self_conjugate = [items[i][0] for i in fixed_points(mate)]
        assert self_conjugate == [",".join(f"{2 * i + 1}-{2 * i + 2}" for i in range(n))]


@pytest.mark.parametrize(
    "shape, fixed", [((), 1), ((1,), 1), ((2, 1), 0), ((2, 2), 0), ((3, 1, 1), 0)]
)
def test_walk_mates_equal_the_text_round_trip(shape, fixed):
    for n in range(4):
        walks = enumerate_ot((), shape, size(shape) + 2 * n)
        mate = conjugate_positions(walks, conjugate_tableau)
        assert mate == text_round_trip_mates(
            tableau_items(shape, n), parse_tableau, conjugate_tableau, format_tableau
        )
        assert all(mate[j] == i for i, j in enumerate(mate))
        assert len(fixed_points(mate)) == fixed


def test_walk_search_refuses_an_over_cap_set_before_enumerating(monkeypatch):
    monkeypatch.setenv("OSCTAB_MAX_ENUM", "15")  # the walks to (1) at n = 2 number 15
    assert search_tableaux((1,), 2).item_count == 15

    def no_walks(*args):
        raise AssertionError("walks were enumerated")

    monkeypatch.setenv("OSCTAB_MAX_ENUM", "14")
    monkeypatch.setattr(homomesy, "enumerate_ot", no_walks)
    with pytest.raises(BoundExceededError) as excinfo:
        search_tableaux((1,), 2)
    assert str(excinfo.value) == "enumeration exceeds the configured cap of 14 walks"


@pytest.mark.parametrize("shape, conjugate", [((2,), "1,1"), ((1, 1), "2")])
def test_conjugation_closed_walks_need_a_self_conjugate_shape(monkeypatch, shape, conjugate):
    def no_walks(*args):
        raise AssertionError("walks were enumerated")

    monkeypatch.setattr(homomesy, "enumerate_ot", no_walks)
    with pytest.raises(OsctabError) as excinfo:
        search_tableaux(shape, 2, conjugation_closed=True)
    message = str(excinfo.value)
    assert f"{','.join(map(str, shape))} has conjugate {conjugate}" in message


@pytest.mark.parametrize("shape, n", [((), 2), ((1,), 1)])
def test_conjugation_closed_walk_search_on_a_self_conjugate_shape(shape, n):
    result = search_tableaux(shape, n, conjugation_closed=True)
    assert result.status == "certificate"
    assert homomesy_verify(result.partition, tableau_items(shape, n))
    for triple in result.partition.triples:
        walks = {parse_tableau(text) for text in triple}
        assert {conjugate_tableau(walk) for walk in walks} == walks


def test_conjugation_closed_walk_search_can_be_infeasible():
    result = search_tableaux((2, 1), 2, conjugation_closed=True)
    assert (result.status, result.partition) == ("infeasible", None)


def test_search_verifies_before_reporting(monkeypatch):
    # a kernel that claims a certificate: one triple of sum 2, then no triples at all
    for triples, target in (([(0, 1, 2)], 3), ([], 2)):
        monkeypatch.setattr(
            kernels, "triple_search", lambda *args: (kernels.STATUS_FOUND, triples, 1)
        )
        with pytest.raises(RuntimeError):
            triple_partition_search(
                items_of([0, 1, 1]), target, node_budget=10**8, time_budget=60.0, mate=None
            )


def test_value_count_search_resolves_the_open_instances():
    matchings5 = search_matchings(5)
    assert matchings5.found
    assert len(matchings5.partition.triples) == 315
    assert homomesy_verify(matchings5.partition, matching_items(5))
    walks = search_tableaux((2,), 3)
    assert walks.found
    assert walks.target == 54
    assert homomesy_verify(walks.partition, tableau_items((2,), 3))
    assert search_matchings(5, conjugation_closed=True).status == "infeasible"
