"""Each battery builds each of its inputs once, and refuses an out-of-range n before any."""

import pytest

from osctab import diffposet, kernels, matchings, tableaux, verify
from osctab.errors import BoundExceededError
from osctab.partitions import partitions_up_to, size


def spy_on_walks(monkeypatch) -> list:
    """Record the (shape, length) of every call of tableaux._walks, the walk DFS core."""
    calls = []
    original = tableaux._walks

    def spy(start, shape, length):
        calls.append((shape, length))
        return original(start, shape, length)

    monkeypatch.setattr(tableaux, "_walks", spy)
    return calls


def cells(kmax, nmax):
    return [(shape, size(shape) + 2 * n) for shape in partitions_up_to(kmax) for n in range(nmax + 1)]


def test_count_and_weight_enumerate_each_cell_once(monkeypatch):
    verify._walk_totals.cache_clear()
    calls = spy_on_walks(monkeypatch)
    assert all(row.passed for row in verify.suite_count() + verify.suite_weight())
    assert len(calls) == 48
    assert calls == cells(4, 3)


def test_a_suite_run_alone_enumerates_its_own_cells(monkeypatch):
    verify._walk_totals.cache_clear()
    calls = spy_on_walks(monkeypatch)
    assert all(row.passed for row in verify.suite_count(kmax=5, nmax=1))
    assert calls == cells(5, 1)
    # each run_suite call enumerates anew, with its own overrides
    calls.clear()
    for _ in range(2):
        assert all(row.passed for row in verify.run_suite("weight", kmax=1, nmax=1))
    assert calls == cells(1, 1) * 2


def spy_on(monkeypatch, module, name) -> list:
    """Record the positional arguments of every call of module.name."""
    calls = []
    original = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_the_skew_suite_scans_once(monkeypatch):
    scans = spy_on(monkeypatch, verify, "walk_dp_scan")
    closed_form_scans = spy_on(monkeypatch, tableaux, "skew_denominator_scan")
    passes = spy_on(monkeypatch, kernels, "ot_weight_profiles")
    assert all(row.passed for row in verify.suite_skew())
    assert scans == [(3, 4, 8)]
    # one walk DP call serves all 7 starts of size <= 3
    assert len(passes) == 1
    assert passes[0][0] == list(partitions_up_to(3))
    assert closed_form_scans == []


def test_the_stats_suite_builds_each_joint_distribution_once(monkeypatch):
    calls = spy_on(monkeypatch, matchings, "joint_distribution")
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
    scans = spy_on(monkeypatch, matchings, "scan_matchings")
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
