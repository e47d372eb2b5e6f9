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
    assert len(passes) == len(list(partitions_up_to(3))) == 7
    assert closed_form_scans == []


def test_the_stats_suite_builds_each_joint_distribution_once(monkeypatch):
    calls = spy_on(monkeypatch, matchings, "joint_distribution")
    assert all(row.passed for row in verify.suite_stats(6))
    assert calls == [(n,) for n in range(2, 7)]


def test_the_diffposet_suite_builds_the_c_rows_once(monkeypatch):
    calls = spy_on(monkeypatch, diffposet, "c_rows")
    assert all(row.passed for row in verify.suite_diffposet())
    assert calls == [(12,)]


@pytest.mark.parametrize("suite", ["rs", "stats", "all"])
def test_an_nmax_past_the_matching_bound_is_refused_before_any_scan(monkeypatch, suite):
    scans = spy_on(monkeypatch, matchings, "scan_matchings")
    enumerations = spy_on(monkeypatch, matchings, "enumerate_matchings")
    nmax = matchings.MAX_MATCHING_N + 1
    with pytest.raises(BoundExceededError, match=f"^n = {nmax} exceeds the configured bound 8$"):
        verify.run_suite(suite, nmax=nmax)
    assert scans == enumerations == []
