"""Acceptance criteria, one test per criterion.

Every check is exact (integer or rational equality, byte equality for
words); the only tolerances are the stated wall-clock ceilings.  Run
with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import json
import time
from fractions import Fraction
from pathlib import Path

from osctab import kernels, verify
from osctab.homomesy import (
    divisibility_check,
    homomesy_verify,
    matching_items,
    orbit_sum_target_matchings,
    orbit_sum_target_tableaux,
    search_matchings,
)
from osctab.matchings import area
from osctab.partitions import partitions_up_to
from osctab.skew import skew_denominator_scan
from osctab.tableaux import average_weight_formula

GOLDENS = json.loads((Path(__file__).parent / "data" / "goldens.json").read_text())


def run_rows(rows, label, started, limit):
    elapsed = time.monotonic() - started
    failed = [row for row in rows if not row.passed]
    for row in failed:
        print(f"  FAILED {row.name}: {row.lhs} != {row.rhs}")
    status = "PASS" if not failed and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {label}: {status} ({len(rows)} checks, {elapsed:.1f}s)")
    assert not failed
    assert elapsed < limit, f"{label} exceeded the stated runtime ceiling"


def test_criterion_1_count_equivalence():
    started = time.monotonic()
    rows = verify.suite_count(kmax=4, nmax=3)
    run_rows(rows, "1 (walk counts vs closed form)", started, 60.0)


def test_criterion_2_average_weight_equivalence():
    started = time.monotonic()
    rows = [r for r in verify.suite_weight(kmax=4, nmax=3) if r.name.startswith("avg-weight")]
    assert average_weight_formula(0, 2) == Fraction(10, 3)
    assert average_weight_formula(1, 1) == Fraction(10, 3)
    run_rows(rows, "2 (average weight vs closed form)", started, 60.0)


def test_criterion_3_average_size():
    started = time.monotonic()
    rows = [r for r in verify.suite_weight(kmax=4, nmax=3) if "avg-size" in r.name]
    run_rows(rows, "3 (average size n/3 + k/2)", started, 60.0)


def test_criterion_4_diffposet_battery():
    started = time.monotonic()
    rows = verify.suite_diffposet(kmax=6, nmax=5)
    run_rows(rows, "4 (operator calculus battery)", started, 60.0)


def test_criterion_5_rs_bijection():
    started = time.monotonic()
    rows = verify.suite_rs(nmax=5)
    run_rows(rows, "5 (insertion bijection, n <= 5)", started, 30.0)


def test_criterion_6_proposition_battery():
    started = time.monotonic()
    assert (area("101010"), area("101100"), area("111000")) == (0, 1, 3)
    wanted = ("area(", "al = C(n,2)", "cr+ne = sum(a)", "wt = 2 area", "sum(a) = area")
    rows = [
        r
        for r in verify.suite_stats(nmax=6)
        if any(r.name.startswith(prefix) for prefix in wanted)
    ]
    run_rows(rows, "6 (statistic transfer battery)", started, 120.0)


def test_criterion_7_distribution_facts():
    started = time.monotonic()
    wanted = ("mean alignments", "joint cr<->ne", "first n with S3")
    rows = [
        r
        for r in verify.suite_stats(nmax=6)
        if any(r.name.startswith(prefix) for prefix in wanted)
    ]
    distributions = {n: kernels.joint_distribution_counts(n) for n in range(2, 7)}
    assert verify.first_s3_symmetry_failure(distributions) == GOLDENS["s3_symmetry_first_failure_n"]
    run_rows(rows, "7 (distribution facts)", started, 120.0)


def test_criterion_8_homomesy_certificates():
    started = time.monotonic()
    assert all(
        divisibility_check(shape, n)
        for shape in partitions_up_to(5)
        for n in range(2, 6)
    )
    for n in (2, 3, 4):
        result = search_matchings(n)
        assert result.status in ("certificate", "infeasible"), result.status
        if result.partition is not None:
            assert homomesy_verify(result.partition, matching_items(n))
    two = search_matchings(2)
    assert two.status == "certificate"
    assert len(two.partition.triples) == 1
    assert two.target == 1
    assert orbit_sum_target_tableaux(0, 2) == 10
    assert orbit_sum_target_tableaux(1, 2) == 21
    for n in range(2, 6):
        assert orbit_sum_target_matchings(n) == n * (n - 1) // 2
    rows = verify.suite_homomesy()
    run_rows(rows, "8 (orbit certificates)", started, 60.0)


def test_criterion_9_skew_experiment():
    started = time.monotonic()
    plain = skew_denominator_scan(0, 4, 8)
    assert plain.all_denominators_divide_3
    skew = skew_denominator_scan(3, 4, 8)
    witness = skew.witness_exceeding_3
    assert witness is not None, "no denominator above 3 at this scale (recorded)"
    golden = GOLDENS["skew_scan_3_4_8"]
    assert skew.max_denominator == golden["max_denominator"]
    expected = golden["witness_exceeding_3"]
    assert list(witness.start) == expected["mu"]
    assert list(witness.shape) == expected["shape"]
    assert witness.length == expected["length"]
    assert str(witness.average) == expected["average"]
    elapsed = time.monotonic() - started
    print(
        f"ACCEPTANCE 9 (skew denominators): PASS "
        f"(plain slice within 3; first skew witness {witness.average} at "
        f"mu={witness.start} shape={witness.shape} l={witness.length}; "
        f"max denominator {skew.max_denominator}; {elapsed:.1f}s)"
    )
