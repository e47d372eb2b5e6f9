"""Each battery builds each of its inputs once, and refuses an out-of-range n before any."""

from fractions import Fraction
from functools import cache
from itertools import product

import pytest

from osctab import diffposet, kernels, matchings, skew, table, tableaux, verify
from osctab.errors import BoundExceededError
from osctab.partitions import covers_down, covers_up, partitions_up_to, size


def spy_on(monkeypatch, module, name) -> list:
    """Record the positional arguments of every call of module.name."""
    calls = []
    original = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("suite", ["count", "weight"])
@pytest.mark.parametrize(
    "overrides, kmax, nmax",
    [({}, 4, 3), ({"kmax": 5, "nmax": 1}, 5, 1), ({"kmax": 1}, 1, 3), ({"nmax": 0}, 4, 0)],
)
def test_a_walk_battery_reads_one_walk_dp_call(monkeypatch, suite, overrides, kmax, nmax):
    dp_calls = spy_on(monkeypatch, kernels, "ot_weight_profiles")
    walks = spy_on(monkeypatch, tableaux, "_walks")
    for _ in range(2):
        assert all(row.passed for row in verify.run_suite(suite, **overrides))
    # every cell (shape, n) of |shape| <= kmax, n <= nmax, from the empty start, in one call
    # per run, with no walk enumerated
    assert dp_calls == [([()], list(partitions_up_to(kmax)), kmax + 2 * nmax)] * 2
    assert walks == []


@cache
def enumerated_totals(length: int) -> dict:
    """{end: (count, total weight)} of the walks of `length` from () to an end of size <= 5.

    A recursive enumeration that visits every walk; it shares no code with the walk DP.
    """
    totals = {}

    def visit(current, remaining, weight):
        if size(current) - remaining > 5:  # no way back to size 5 in the steps left
            return
        if not remaining:
            count, total = totals.get(current, (0, 0))
            totals[current] = (count + 1, total + weight)
            return
        for nxt in covers_up(current) + covers_down(current):
            visit(nxt, remaining - 1, weight + size(nxt))

    visit((), length, 0)
    return totals


def test_the_walk_cells_equal_walk_enumeration():
    for kmax, nmax in [*product(range(6), range(3)), (4, 3)]:
        cells = verify._walk_cells(kmax, nmax)
        assert [cell[:3] for cell in cells] == [
            (shape, size(shape), n) for shape in partitions_up_to(kmax) for n in range(nmax + 1)
        ]
        for shape, k, n, count, average in cells:
            enumerated, total = enumerated_totals(k + 2 * n)[shape]
            assert (count, average) == (enumerated, Fraction(total, enumerated)), (shape, n)


def failing(rows) -> list[str]:
    return [row.name for row in rows if not row.passed]


def test_the_count_suite_fails_where_the_walk_dp_loses_a_down_move(monkeypatch):
    real = kernels.covers_down
    monkeypatch.setattr(kernels, "covers_down", lambda p: real(p)[:-1] if len(p) >= 2 else real(p))
    rows = verify.suite_count()
    # n = 0 walks only add boxes, and the one walk () (1) () visits no partition of two rows
    kept = ("count shape=- n=1",)
    assert failing(rows) == [
        row.name for row in rows if not row.name.endswith(" n=0") and row.name not in kept
    ]


def test_the_weight_suite_fails_where_the_formula_is_off_at_k_2(monkeypatch):
    real = tableaux.average_weight_formula
    monkeypatch.setattr(
        tableaux, "average_weight_formula", lambda k, n: real(k, n) + Fraction(k == 2, 6)
    )
    # average_size_formula reads the average weight formula, so its rows fail too; the
    # avg-size-enumerated rows read the walk DP's average and still pass
    assert failing(verify.suite_weight()) == [
        f"{name} shape={shape} n={n}"
        for shape in ("2", "1,1")
        for n in range(4)
        for name in ("avg-weight", "avg-size")
    ]


def test_each_battery_alone_returns_its_rows_of_the_full_run():
    alone = {name: verify.run_suite(name) for name in reversed(verify.SUITES)}
    assert verify.run_suite("all") == [row for name in verify.SUITES for row in alone[name]]


def test_the_skew_suite_scans_once(monkeypatch):
    scans = spy_on(monkeypatch, verify, "walk_dp_scan")
    closed_form_scans = spy_on(monkeypatch, skew, "skew_denominator_scan")
    passes = spy_on(monkeypatch, kernels, "ot_weight_profiles")
    assert all(row.passed for row in verify.suite_skew())
    assert scans == [(3, 4, 8)]
    # one walk DP call serves all 7 starts of size <= 3
    assert len(passes) == 1
    assert passes[0][0] == list(partitions_up_to(3))
    assert closed_form_scans == []


def test_the_stats_suite_builds_each_joint_distribution_once(monkeypatch):
    calls = spy_on(monkeypatch, kernels, "joint_distribution_counts")
    assert all(row.passed for row in verify.suite_stats(6))
    assert calls == [(n,) for n in range(2, 7)]


def test_the_diffposet_suite_builds_the_c_rows_once(monkeypatch):
    calls = spy_on(monkeypatch, diffposet, "c_rows")
    assert all(row.passed for row in verify.suite_diffposet())
    assert calls == [(12,)]


def test_the_diffposet_suite_checks_the_commutator_by_straightening(monkeypatch):
    calls = spy_on(monkeypatch, diffposet, "ud_straighten_check")
    row = "DU - UD = I on |p| <= 10"
    assert {r.name: r.passed for r in verify.suite_diffposet()}[row]
    assert calls == [(1, 10), (6, 6)]
    # U doubled gives DU - UD = 2I
    real = diffposet.covers_up
    monkeypatch.setattr(diffposet, "covers_up", lambda p: real(p) * 2)
    assert not {r.name: r.passed for r in verify.suite_diffposet()}[row]


@pytest.mark.parametrize("suite", ["rs", "stats", "all"])
def test_an_nmax_past_the_matching_bound_is_refused_before_any_scan(monkeypatch, suite):
    scans = spy_on(monkeypatch, table, "scan_matchings")
    enumerations = spy_on(monkeypatch, matchings, "enumerate_matchings")
    nmax = matchings.MAX_MATCHING_N + 1
    with pytest.raises(BoundExceededError, match=f"^n = {nmax} exceeds the configured bound 8$"):
        verify.run_suite(suite, nmax=nmax)
    assert scans == enumerations == []


def rs_rows(rows, n) -> dict[str, bool]:
    """{check name without " n=...": passed} for the rows of one n."""
    suffix = f" n={n}"
    return {row.name.removesuffix(suffix): row.passed for row in rows if row.name.endswith(suffix)}


def test_the_rs_suite_maps_each_matching_once(monkeypatch):
    forward = spy_on(monkeypatch, matchings, "matching_to_tableau")
    inverse = spy_on(monkeypatch, matchings, "tableau_to_matching")
    assert all(row.passed for row in verify.suite_rs(5))
    # 1 + 3 + 15 + 105 + 945 matchings, each mapped once; every walk is an
    # image whose matching came back, so the inverse round trip maps none again
    assert len(forward) == 1069
    assert inverse == []


def test_the_rs_suite_reads_the_matching_scan(monkeypatch):
    scans = spy_on(monkeypatch, table, "scan_matchings")
    classified = spy_on(monkeypatch, matchings, "stats")
    words = spy_on(monkeypatch, matchings, "dyck_of_matching")
    assert all(row.passed for row in verify.suite_rs(5))
    assert scans == [(n,) for n in range(1, 6)]
    assert classified == words == []


@pytest.mark.parametrize(
    "slot, extra, check", [(3, 1, "rs weight formula"), (4, "0", "rs word preserved")]
)
def test_the_rs_suite_fails_where_one_scan_row_is_wrong(monkeypatch, slot, extra, check):
    real = table.scan_matchings

    def scan(n):
        for batch in real(n):
            if n == 3:  # the first row of n = 3 gets one alignment more, or a 0 more
                row = list(batch[0])
                row[slot] += extra
                batch = [tuple(row), *batch[1:]]
            yield batch

    monkeypatch.setattr(table, "scan_matchings", scan)
    rows = verify.suite_rs(3)
    assert all(rs_rows(rows, 2).values())
    assert [name for name, passed in rs_rows(rows, 3).items() if not passed] == [check]


def test_the_rs_suite_fails_where_the_inverse_breaks_for_one_walk(monkeypatch):
    broken = matchings.matching_to_tableau(matchings.parse_matching("1-4,2-3,5-6"))
    real = matchings._unwalk

    def unwalk(steps):
        if steps == matchings._walk_steps(broken):
            return matchings.parse_matching("1-2,3-4,5-6")
        return real(steps)

    # tableau_to_matching(t) is _unwalk of t's steps, so it breaks for `broken` alone
    monkeypatch.setattr(matchings, "_unwalk", unwalk)
    assert matchings.tableau_to_matching(broken) != matchings.parse_matching("1-4,2-3,5-6")
    rows = verify.suite_rs(4)
    for n in (1, 2, 4):
        assert all(rs_rows(rows, n).values())
    assert rs_rows(rows, 3) == {
        "rs injective": True,
        "rs image size": True,
        "rs roundtrip": False,
        "rs inverse roundtrip": False,
        "rs word preserved": True,
        "rs weight formula": True,
    }


def test_the_rs_suite_fails_where_two_matchings_share_a_walk(monkeypatch):
    real = matchings.matching_to_tableau
    twin, target = matchings.parse_matching("1-4,2-3,5-6"), matchings.parse_matching("1-2,3-4,5-6")
    monkeypatch.setattr(
        matchings, "matching_to_tableau", lambda m: real(target if m == twin else m)
    )
    rows = rs_rows(verify.suite_rs(3), 3)
    assert rows["rs injective"] is False
    assert rows["rs image size"] is False
    assert rows["rs roundtrip"] is False
