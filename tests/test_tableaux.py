import hashlib
import json
from fractions import Fraction
from functools import cache
from math import comb, prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from osctab import kernels, skew, tableaux, verify
from osctab.diffposet import weight_generating_function
from osctab.cli import main
from osctab.errors import BoundExceededError, EmptyEnumerationError, ShapeMismatchError
from osctab.laurent import LaurentPolynomial
from osctab.partitions import (
    cover_distance,
    covers_down,
    covers_up,
    num_syt,
    parse_partition,
    partitions_up_to,
    size,
)
from osctab.skew import ScanCase, ScanReport, skew_denominator_scan
from osctab.tableaux import (
    average_size_formula,
    average_weight_enumerated,
    average_weight_formula,
    enumerate_ot,
    format_tableau,
    is_oscillating_tableau,
    parse_tableau,
    refuse_over_cap,
    walk_count,
    walk_totals,
    weight,
    weight_profile,
)

GOLDENS = json.loads((Path(__file__).parent / "data" / "goldens.json").read_text())


def count_formula(shape, n):
    """The paper's count of length-(|shape|+2n) walks from (): C(2n+k, k) (2n-1)!! f^shape."""
    k = size(shape)
    return comb(2 * n + k, k) * prod(range(1, 2 * n, 2)) * num_syt(shape)


def test_enumerate_examples():
    assert list(enumerate_ot((), (), 2)) == [((), (1,), ())]
    walks = list(enumerate_ot((), (), 4))
    assert len(walks) == 3
    assert set(walks) == {
        ((), (1,), (), (1,), ()),
        ((), (1,), (2,), (1,), ()),
        ((), (1,), (1, 1), (1,), ()),
    }
    # documented depth-first order: box additions (largest part first) before removals
    assert walks == [
        ((), (1,), (2,), (1,), ()),
        ((), (1,), (1, 1), (1,), ()),
        ((), (1,), (), (1,), ()),
    ]
    assert list(enumerate_ot((), (1,), 2)) == []


def test_enumerated_walks_are_valid():
    for shape in partitions_up_to(3):
        for length in range(size(shape) % 2, 7, 2):
            for walk in enumerate_ot((), shape, length):
                assert is_oscillating_tableau(walk)
                assert walk[0] == ()
                assert walk[-1] == shape
                assert len(walk) == length + 1


@pytest.mark.parametrize("text", ["-|2|-", "-|1|2|1,1|1|-", "-|1|1|-", "-|1|2,1|1|-"])
def test_walks_with_a_step_that_is_not_one_box_are_rejected(text):
    steps = tuple(parse_partition(piece) for piece in text.split("|"))
    assert not is_oscillating_tableau(steps)
    with pytest.raises(ShapeMismatchError):
        parse_tableau(text)


@pytest.mark.parametrize(
    "steps",
    [
        ((), (1,), (1, 1), (1, 2), (1, 1), (1,), ()),
        ((), (1,), (2,), (2, 1), (1, 1), (0, 1), (1, 1), (1,), ()),
        ((0, 1), (1, 1)),
    ],
)
def test_walks_through_a_tuple_that_is_not_a_partition_are_rejected(steps):
    assert not is_oscillating_tableau(steps)


def test_weight_examples():
    assert weight(((), (1,), ())) == 1
    assert weight(((), (1,), (2,), (1,), ())) == 4
    assert weight(((), (1,), (1, 1), (1,), ())) == 4


def test_text_roundtrip():
    t = ((), (1,), (1, 1), (1,), ())
    assert format_tableau(t) == "-|1|1,1|1|-"
    assert parse_tableau("-|1|1,1|1|-") == t


def test_count_formula_examples():
    assert count_formula((), 2) == 3
    assert count_formula((1,), 0) == 1
    assert count_formula((2, 1), 1) == 20


def test_count_matches_enumeration():
    for shape in partitions_up_to(4):
        for n in range(3):
            length = size(shape) + 2 * n
            assert count_formula(shape, n) == sum(
                1 for _ in enumerate_ot((), shape, length)
            )


def test_syt_special_case():
    # length exactly |shape| forces an all-additions walk
    for shape in partitions_up_to(6):
        assert sum(1 for _ in enumerate_ot((), shape, size(shape))) == num_syt(shape)


def test_average_weight_formula_examples():
    assert average_weight_formula(0, 2) == Fraction(10, 3)
    assert average_weight_formula(1, 1) == Fraction(10, 3)
    assert average_weight_formula(0, 0) == 0


def test_average_size_formula_examples():
    assert average_size_formula(0, 2) == Fraction(2, 3)
    assert average_size_formula(1, 1) == Fraction(5, 6)
    assert average_size_formula(0, 0) == 0
    for k in range(6):
        for n in range(6):
            assert average_size_formula(k, n) == Fraction(n, 3) + Fraction(k, 2)


def test_numerator_factorizations():
    # 3 * average is integral: both product forms equal the doubled numerator
    for k in range(51):
        for n in range(51):
            doubled = 4 * n * n + 3 * k * k + 8 * k * n + 2 * n + 3 * k
            assert doubled == (2 * n + 3 * k) * (2 * n + k + 1)
            assert doubled % 2 == 0
            assert (3 * average_weight_formula(k, n)).denominator == 1


def test_average_weight_enumerated_examples():
    assert average_weight_enumerated((), (), 4) == Fraction(10, 3)
    golden = GOLDENS["skew_average_1_1_2"]
    assert average_weight_enumerated((1,), (1,), 2) == Fraction(
        golden["num"], golden["den"]
    )
    with pytest.raises(EmptyEnumerationError):
        average_weight_enumerated((), (1,), 2)


def test_weight_generating_function_examples():
    assert weight_generating_function((1,), 1) == LaurentPolynomial({1: 1})
    assert weight_generating_function((), 2) == LaurentPolynomial({1: 1})
    assert weight_generating_function((), 4) == LaurentPolynomial({2: 1, 4: 2})


def test_gf_consistent_with_enumeration():
    for shape in partitions_up_to(3):
        for length in range(10):
            gf = weight_generating_function(shape, length)
            walks = list(enumerate_ot((), shape, length))
            assert gf.eval_at_one() == len(walks)
            assert gf.derivative_at_one() == sum(weight(w) for w in walks)


def test_profile_matches_enumeration_histogram():
    for start in partitions_up_to(2):
        for shape in partitions_up_to(2):
            for length in range(7):
                histogram: dict[int, int] = {}
                for walk in enumerate_ot(start, shape, length):
                    w = weight(walk)
                    histogram[w] = histogram.get(w, 0) + 1
                profile = weight_profile(start, shape, length)
                assert {w: c for w, c in enumerate(profile) if c} == histogram


def test_enumeration_cap(monkeypatch):
    monkeypatch.setenv("OSCTAB_MAX_ENUM", "10")
    with pytest.raises(BoundExceededError):
        list(enumerate_ot((), (), 8))


def recursive_enumerate_ot(start, shape, length):
    """The recursive depth-first enumerator that enumerate_ot replaced, kept as its oracle."""
    path = [start]

    def rec(current, remaining):
        dist = cover_distance(current, shape)
        if dist > remaining or (remaining - dist) % 2:
            return
        if remaining == 0:
            yield tuple(path)
            return
        for nxt in covers_up(current) + covers_down(current):
            path.append(nxt)
            yield from rec(nxt, remaining - 1)
            path.pop()

    yield from rec(start, length)


def test_enumeration_order_equals_the_recursive_oracle():
    cases = 0
    for start in partitions_up_to(3):
        for shape in partitions_up_to(4):
            for length in range(9):
                walks = list(enumerate_ot(start, shape, length))
                assert walks == list(recursive_enumerate_ot(start, shape, length))
                cases += bool(walks)
    assert cases == 309


def test_enumeration_cap_edges(monkeypatch):
    # the single walk of length 0 fits the smallest cap
    monkeypatch.setenv("OSCTAB_MAX_ENUM", "1")
    assert list(enumerate_ot((1,), (1,), 0)) == [((1,),)]
    for start, shape, length in (((), (), 6), ((1,), (2, 1), 4), ((2,), (1,), 3)):
        count = len(list(recursive_enumerate_ot(start, shape, length)))
        assert count > 1
        monkeypatch.setenv("OSCTAB_MAX_ENUM", str(count))
        assert len(list(enumerate_ot(start, shape, length))) == count
        monkeypatch.setenv("OSCTAB_MAX_ENUM", str(count - 1))
        with pytest.raises(BoundExceededError):
            list(enumerate_ot(start, shape, length))


def recursive_totals(start, shape, length):
    walks = list(recursive_enumerate_ot(start, shape, length))
    return len(walks), sum(map(weight, walks))


def test_walk_totals_equal_the_recursive_oracle():
    cases = 0
    for start in partitions_up_to(3):
        for shape in partitions_up_to(4):
            for length in range(9):
                totals = recursive_totals(start, shape, length)
                assert walk_totals(start, shape, length) == totals
                cases += bool(totals[0])
    assert cases == 309


def test_walk_totals_cap_edges(monkeypatch):
    # the single walk of length 0 fits the smallest cap, and weighs its one partition
    monkeypatch.setenv("OSCTAB_MAX_ENUM", "1")
    assert walk_totals((2, 1), (2, 1), 0) == (1, 3)
    for start, shape, length in (((), (), 6), ((1,), (2, 1), 4), ((2,), (1,), 3)):
        totals = recursive_totals(start, shape, length)
        monkeypatch.setenv("OSCTAB_MAX_ENUM", str(totals[0]))
        assert walk_totals(start, shape, length) == totals
        monkeypatch.setenv("OSCTAB_MAX_ENUM", str(totals[0] - 1))
        with pytest.raises(BoundExceededError):
            walk_totals(start, shape, length)


def dp_counts(max_start_size, max_shape_size, max_length):
    """{(start, shape, length): walk count} from the walk DP; a cell with no walk has no key."""
    profiles = kernels.ot_weight_profiles(
        partitions_up_to(max_start_size), partitions_up_to(max_shape_size), max_length
    )
    return {cell: sum(profile) for cell, profile in profiles.items()}


def test_walk_count_equals_the_walk_dp():
    counts = dp_counts(4, 5, 12)
    cells = [
        (start, shape, length)
        for start in partitions_up_to(4)
        for shape in partitions_up_to(5)
        for length in range(13)
    ]
    assert len(cells) == 2964
    for cell in cells:
        assert walk_count(*cell) == counts.get(cell, 0), cell


def test_walk_count_from_the_empty_start_equals_the_count_formula():
    for shape in partitions_up_to(8):
        for n in range(5):
            assert walk_count((), shape, size(shape) + 2 * n) == count_formula(shape, n), (shape, n)


def test_refuse_over_cap_from_the_empty_start_builds_no_skew_counts(monkeypatch):
    calls = []
    real = tableaux.skew_syt_counts
    spy = lambda outer: calls.append(outer) or real(outer)  # noqa: E731
    monkeypatch.setattr(tableaux, "skew_syt_counts", spy)
    with pytest.raises(BoundExceededError, match=r"cap of \d+ walks$"):
        refuse_over_cap((), (9,) * 9, 81)
    assert calls == []


def test_refuse_over_cap_raises_exactly_when_the_walks_outnumber_the_cap(monkeypatch):
    counts = dp_counts(3, 4, 12)
    raised = 0
    for start in partitions_up_to(3):
        for shape in partitions_up_to(4):
            for length in range(13):
                count = counts.get((start, shape, length), 0)
                # the cap is positive, so a cell with no walk is tried at cap 1
                for cap in (count, count - 1) if count > 1 else (1,):
                    monkeypatch.setenv("OSCTAB_MAX_ENUM", str(cap))
                    if count > cap:
                        with pytest.raises(BoundExceededError, match=f"cap of {cap} walks$"):
                            refuse_over_cap(start, shape, length)
                        raised += 1
                    else:
                        assert refuse_over_cap(start, shape, length) == count
    assert raised == sum(count > 1 for count in counts.values())


def test_walk_counts_never_fall_as_the_length_grows_by_two():
    # an up-down step first turns each walk two steps shorter into a distinct longer one
    for start in partitions_up_to(3):
        for shape in partitions_up_to(4):
            counts = [sum(weight_profile(start, shape, length)) for length in range(13)]
            assert all(a <= b for a, b in zip(counts, counts[2:]))


def test_unreachable_endpoints_yield_nothing_without_a_search(monkeypatch):
    calls = []
    for name in ("covers_up", "covers_down"):
        real = getattr(tableaux, name)
        spy = lambda p, name=name, real=real: calls.append((name, p)) or real(p)  # noqa: E731
        monkeypatch.setattr(tableaux, name, spy)
    # wrong parity, then too far apart
    for start, shape, length in (((), (), 7), ((), (1,), 2), ((2,), (1, 1), 9), ((3,), (), 2)):
        assert list(enumerate_ot(start, shape, length)) == []
    assert calls == []
    # the move table is built once per distinct partition: (), (1), (2) and (1,1)
    assert len(list(enumerate_ot((), (), 4))) == 3
    assert len(calls) == len(set(calls)) == 8


def test_skew_scan_plain_slice():
    golden = GOLDENS["skew_scan_0_4_8"]
    report = skew_denominator_scan(0, 4, 8)
    assert report.cases == golden["cases"]
    assert report.max_denominator == golden["max_denominator"]
    assert report.all_denominators_divide_3 is golden["all_divide_3"]


def test_skew_scan_finds_large_denominator():
    golden = GOLDENS["skew_scan_3_3_6"]
    report = skew_denominator_scan(3, 3, 6)
    assert report.max_denominator == golden["max_denominator"]
    witness = report.witness_exceeding_3
    expected = golden["witness_exceeding_3"]
    assert witness is not None
    assert list(witness.start) == expected["mu"]
    assert list(witness.shape) == expected["shape"]
    assert witness.length == expected["length"]
    assert str(witness.average) == expected["average"]


def test_scan_report_fields_equal_the_golden():
    golden = GOLDENS["skew_scan_3_4_9_records"]
    report = skew_denominator_scan(3, 4, 9)

    def case_fields(case):
        if case is None:
            return None
        return [list(case.start), list(case.shape), case.length, case.count, str(case.average)]

    assert ScanReport._fields == ("records",)
    assert list(report._fields) == golden["fields"]
    assert report.cases == golden["cases"] == len(report.records)
    assert report.max_denominator == golden["max_denominator"]
    for name in ("max_denominator_case", "witness_exceeding_3"):
        assert case_fields(getattr(report, name)) == golden[name]
    lines = "".join(f"{c.start}|{c.shape}|{c.length}|{c.count}|{c.average}\n" for c in report.records)
    assert hashlib.sha256(lines.encode()).hexdigest() == golden["records_sha256"]
    assert report.max_denominator_case.denominator == report.max_denominator
    assert report.witness_exceeding_3.denominator == 7
    assert report.all_denominators_divide_3 is False
    with pytest.raises(AttributeError):
        report.cases = 0


def test_skew_scan_trivial_case():
    report = skew_denominator_scan(0, 0, 0)
    assert report.cases == 1
    assert report.max_denominator == 1


@pytest.mark.parametrize("grid, cases", [((0, 0, 0), 1), ((1, 0, 2), 3)])
def test_skew_scan_names_the_case_when_every_denominator_is_1(grid, cases):
    report = skew_denominator_scan(*grid)
    assert report.cases == cases
    assert report.max_denominator == 1
    assert report.max_denominator_case == ScanCase((), (), 0, 1, Fraction(0))


def test_scan_agrees_with_enumerated_averages():
    report = skew_denominator_scan(2, 2, 4)
    for case in report.records:
        assert case.average == average_weight_enumerated(
            case.start, case.shape, case.length
        )


def per_cell_scan(max_start_size, max_shape_size, max_length):
    """The scan with one profile per (start, shape, length) cell, kept as its oracle."""
    records = []
    for start in partitions_up_to(max_start_size):
        for shape in partitions_up_to(max_shape_size):
            for length in range(max_length + 1):
                profile = weight_profile(start, shape, length)
                if not profile:
                    continue
                count = sum(profile)
                total = sum(w * c for w, c in enumerate(profile))
                records.append(ScanCase(start, shape, length, count, Fraction(total, count)))
    return ScanReport(records)


@pytest.mark.parametrize("grid", [(0, 0, 0), (1, 0, 2), (2, 2, 4), (3, 3, 6), (3, 4, 9)])
def test_scan_equals_the_per_cell_oracle(grid):
    report = skew_denominator_scan(*grid)
    assert report == per_cell_scan(*grid)
    assert len(report.records) == report.cases


@pytest.mark.parametrize("grid", [(1, 2, 4), (2, 3, 6), (3, 4, 8)])
def test_empty_start_cases_of_a_scan_are_the_plain_scan(grid):
    max_start_size, max_shape_size, max_length = grid
    plain = skew_denominator_scan(0, max_shape_size, max_length)
    cases = [case for case in skew_denominator_scan(*grid).records if not case.start]
    assert cases == plain.records


def test_scan_command_bytes_equal_the_per_cell_oracle(capsys, monkeypatch):
    for mu, shape, length in ((2, 3, 6), (3, 4, 9)):  # (3, 4, 9): the benchmark's grid
        argv = ["skew-scan", "--max-mu", str(mu), "--max-shape", str(shape)]
        argv += ["--max-length", str(length), "--records"]
        with monkeypatch.context() as patched:
            assert main(argv) == 0
            out = capsys.readouterr().out
            patched.setattr(skew, "skew_denominator_scan", per_cell_scan)
            assert main(argv) == 0
            assert out == capsys.readouterr().out


def test_the_scan_command_runs_no_walk_dp(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(kernels, "ot_weight_profiles", lambda *args: calls.append(args))
    argv = ["skew-scan", "--max-mu", "3", "--max-shape", "4", "--max-length", "9", "--records"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["details"]["cases"] == 353
    assert calls == []


def test_the_closed_form_scan_equals_the_walk_dp_scan():
    report = skew_denominator_scan(4, 5, 12)
    assert report == verify.walk_dp_scan(4, 5, 12)
    assert report.cases == 1230


@cache
def scan_cases(max_start_size, max_shape_size, max_length):
    report = skew_denominator_scan(max_start_size, max_shape_size, max_length)
    return {(case.start, case.shape, case.length): case for case in report.records}


@given(
    st.sampled_from(list(partitions_up_to(4))),
    st.sampled_from(list(partitions_up_to(5))),
    st.integers(0, 10),
)
@settings(deadline=None, max_examples=150)
def test_scan_cases_equal_walk_enumeration(start, shape, length):
    """Each cell's closed-form count and average against walk_totals; an absent cell has no walk."""
    count, total = walk_totals(start, shape, length)
    case = scan_cases(4, 5, 10).get((start, shape, length))
    if case is None:
        assert count == 0
    else:
        assert (case.count, case.average) == (count, Fraction(total, count))
