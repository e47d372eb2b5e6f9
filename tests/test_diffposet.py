from fractions import Fraction

import pytest

from osctab import diffposet
from osctab.diffposet import (
    _apply,
    _straightening,
    c_rows,
    q_levels,
    q_table,
    ud_straighten_check,
    verify_key_identity,
    weight_generating_function,
)
from osctab.laurent import LaurentPolynomial
from osctab.partitions import EMPTY, covers_down, covers_up, num_syt, partitions_up_to, size
from osctab.tableaux import weight_profile
from osctab.util import normal_order_coefficient


def formal_sum(value) -> dict:
    """A formal sum as given, or a bare partition as the sum with coefficient 1."""
    return {value: 1} if isinstance(value, tuple) else value


# U and D read diffposet's cover bindings, so a test that patches one patches the oracle too
def apply_U(value):
    """Linear extension of: partition -> sum of its one-box growths."""
    return _apply(diffposet.covers_up, formal_sum(value))


def apply_D(value):
    """Linear extension of: partition -> sum of its one-box removals."""
    return _apply(diffposet.covers_down, formal_sum(value))


def test_apply_u_examples():
    assert apply_U(()) == {(1,): 1}
    assert apply_U((1,)) == {(2,): 1, (1, 1): 1}
    assert apply_U({(1,): 2, (): -1}) == {(2,): 2, (1, 1): 2, (1,): -1}


def test_apply_d_examples():
    assert apply_D(()) == {}
    assert apply_D((2, 1)) == {(1, 1): 1, (2,): 1}
    assert apply_D((1,)) == {(): 1}


def entry(levels, i, j, l) -> LaurentPolynomial:
    """q[i, j](l) from a list of q_levels' levels, zero where the level holds no entry."""
    return levels[l].get((i, j), LaurentPolynomial.zero())


def test_commutator_everywhere():
    assert ud_straighten_check(1, 10)[1]


def three_chain_straighten_check(i, bound):
    """D U^i = U^i D + i U^(i-1) for one i, each side built from nothing, kept as the oracle."""
    for partition in partitions_up_to(bound):
        lhs = {partition: 1}
        for _ in range(i):
            lhs = apply_U(lhs)
        lhs = apply_D(lhs)
        rhs = apply_D(partition)
        for _ in range(i):
            rhs = apply_U(rhs)
        if i > 0:
            extra = {partition: i}
            for _ in range(i - 1):
                extra = apply_U(extra)
            for p, c in extra.items():
                rhs[p] = rhs.get(p, 0) + c
        if {p: c for p, c in lhs.items() if c} != {p: c for p, c in rhs.items() if c}:
            return False
    return True


def test_straighten_identities():
    assert ud_straighten_check(0, 8) == [True]
    assert ud_straighten_check(1, 8) == [True] * 2
    assert ud_straighten_check(3, 6) == [True] * 4
    assert ud_straighten_check(2, -1) == [True] * 3  # no partitions: every rule holds vacuously


@pytest.mark.parametrize("bound", range(8))
def test_straighten_list_equals_the_three_chain_oracle(bound):
    assert ud_straighten_check(6, bound) == [
        three_chain_straighten_check(i, bound) for i in range(7)
    ]


def test_straighten_fails_where_the_oracle_does(monkeypatch):
    # U doubled gives DU - UD = 2I, so every rule with i >= 1 fails and i = 0 holds
    monkeypatch.setattr(diffposet, "covers_up", lambda p: covers_up(p) * 2)
    expected = [True] + [False] * 4
    assert ud_straighten_check(4, 4) == expected
    assert [three_chain_straighten_check(i, 4) for i in range(5)] == expected
    assert not _straightening((2, 1), 1, diffposet.covers_up, diffposet.covers_down)[1]


@pytest.mark.parametrize("bound", [0, 3, 6])
def test_straighten_builds_one_chain_of_powers_per_partition(monkeypatch, bound):
    i_max = 6
    budget = 0  # covers_up calls of one chain of U^j p and one of U^j D p, j < i_max
    for p in partitions_up_to(bound):
        for chain in ({p: 1}, apply_D(p)):
            for _ in range(i_max):
                budget += len(chain)
                chain = apply_U(chain)
    calls = []

    def spy(partition):
        calls.append(partition)
        return covers_up(partition)

    monkeypatch.setattr(diffposet, "covers_up", spy)
    holds = ud_straighten_check(i_max, bound)
    assert 0 < len(calls) <= budget
    assert holds == [True] * (i_max + 1)


def test_straighten_lists_each_partitions_covers_once(monkeypatch):
    calls = {"covers_up": [], "covers_down": []}
    for name, real in (("covers_up", covers_up), ("covers_down", covers_down)):
        spy = lambda p, name=name, real=real: calls[name].append(p) or real(p)  # noqa: E731
        monkeypatch.setattr(diffposet, name, spy)
    assert ud_straighten_check(6, 6) == [True] * 7
    # the chains from |p| <= 6 climb through every partition of size <= 11, and D reads size 12
    assert sorted(calls["covers_up"]) == sorted(partitions_up_to(11))
    assert sorted(calls["covers_down"]) == sorted(partitions_up_to(12))


def test_q_table_entries():
    levels = list(q_table(4))
    assert levels[1][1, 0] == LaurentPolynomial({1: 1})
    assert levels[1][0, 1] == LaurentPolynomial({-1: 1})
    assert levels[2][0, 0] == LaurentPolynomial({1: 1})
    assert levels[4][0, 0] == LaurentPolynomial({2: 1, 4: 2})
    assert levels[0][0, 0] == LaurentPolynomial.one()


def test_q_table_support_condition():
    levels = list(q_table(8))
    assert len(levels) == 9
    for l, level in enumerate(levels):
        assert list(level) == sorted(level)  # i ascending, then j
        for (i, j), poly in level.items():
            assert i + j <= l
            assert (i + j) % 2 == l % 2
            assert not poly.is_zero()


def test_q_table_has_no_length_bound():
    full, column_0 = list(q_table(17)), list(q_levels(17, 0))
    assert column_0 == [{key: poly for key, poly in level.items() if key[1] == 0} for level in full]
    assert column_0[17][17, 0] == LaurentPolynomial({153: 1})  # one walk: weight 0 + 1 + ... + 17


def walk_dp_gf(shape, length) -> LaurentPolynomial:
    """The walk generating function from the walk DP, a route that shares no code with the table."""
    return LaurentPolynomial(dict(enumerate(weight_profile(EMPTY, shape, length))))


def test_q_table_against_walk_generating_function():
    # the walk-level histogram is the independent check on the recurrence
    levels = list(q_table(9))
    for shape in partitions_up_to(3):
        k = size(shape)
        f = num_syt(shape)
        for length in range(10):
            assert entry(levels, k, 0, length).scale(f) == walk_dp_gf(shape, length)


def test_weight_generating_function_equals_the_walk_dp():
    cells = 0
    for shape in partitions_up_to(5):
        for length in range(15):
            gf = weight_generating_function(shape, length)
            assert gf == walk_dp_gf(shape, length), (shape, length)
            cells += not gf.is_zero()
    assert cells == 112  # the (shape, length) pairs with walks: length >= |shape|, same parity


def test_weight_generating_function_reads_only_column_0(monkeypatch):
    built = []
    real = diffposet.q_levels
    spy = lambda *bounds: built.append(bounds) or real(*bounds)  # noqa: E731
    monkeypatch.setattr(diffposet, "q_levels", spy)
    diffposet.weight_generating_function((2, 1), 41)
    assert built == [(41, 0)]


def test_a_partial_table_holds_its_columns_complete():
    full = list(q_levels(12, 12))
    for j_max in range(4):
        partial = list(q_levels(12, j_max))
        for l in range(13):
            for i in range(l + 1):
                for j in range(l + 1 - i):
                    expected = entry(full, i, j, l) if j <= j_max else LaurentPolynomial.zero()
                    assert entry(partial, i, j, l) == expected, (i, j, l, j_max)


def test_b_value_examples():
    """Cases of the j = 0 column of normal_order_coefficient."""
    assert normal_order_coefficient(0, 0, 4) == 3
    assert normal_order_coefficient(1, 0, 1) == 1
    assert normal_order_coefficient(3, 0, 5) == 10
    assert normal_order_coefficient(2, 0, 5) == 0  # parity
    assert normal_order_coefficient(4, 0, 2) == 0  # l < i


def test_b_value_matches_table():
    levels = list(q_table(12))
    for l in range(13):
        for i in range(9):
            assert normal_order_coefficient(i, 0, l) == entry(levels, i, 0, l).eval_at_one()


def test_normal_order_coefficient_equals_the_table_everywhere():
    """The closed form b(i, j, l) against the recurrence's value at y = 1, j > 0 included."""
    levels = list(q_table(16))
    nonzero = 0
    for l in range(17):
        for i in range(-1, l + 2):
            for j in range(-1, l + 2):
                b = entry(levels, i, j, l).eval_at_one()
                assert normal_order_coefficient(i, j, l) == b, (i, j, l)
                nonzero += b != 0
    assert nonzero == 525  # the entries with i + j <= l of l's parity


def test_c_value_examples():
    assert c_rows(0)[0].get(0, 0) == 0
    assert c_rows(2)[2].get(0, 0) == 1
    assert c_rows(4)[4].get(0, 0) == 10


def test_c_value_both_paths_agree():
    levels = list(q_table(12))
    for l in range(13):
        for i in range(7):
            assert entry(levels, i, 0, l).derivative_at_one() == c_rows(l)[l].get(i, 0)


def test_c_times_f_is_total_weight():
    levels = list(q_table(9))
    for shape in partitions_up_to(3):
        k = size(shape)
        for n in range(3):
            length = k + 2 * n
            if length > 9:
                continue
            gf = walk_dp_gf(shape, length)
            c = entry(levels, k, 0, length).derivative_at_one()
            assert c * num_syt(shape) == gf.derivative_at_one()


def test_key_identity_examples():
    levels = list(q_table(4))
    r = verify_key_identity(0, 1, levels)
    assert r.passed and r.ratio == Fraction(1)
    r = verify_key_identity(0, 2, levels)
    assert r.passed and r.ratio == Fraction(10, 3)
    r = verify_key_identity(0, 0, levels)
    assert r.passed and r.ratio == 0


def test_key_identity_range():
    levels = list(q_table(14))
    for k in range(7):
        for n in range(6):
            if k + 2 * n > 14:
                continue
            assert verify_key_identity(k, n, levels).passed
