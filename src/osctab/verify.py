"""Cross-checking batteries: every closed form against its brute-force twin.

Each suite returns a list of CheckRow records, one per identity checked,
with both sides rendered so a failure is self-describing.  The CLI
`verify` command and the acceptance tests both run these.
"""

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import chain, permutations
from math import comb
from typing import NamedTuple

from . import diffposet, kernels, matchings, tableaux, util
from .errors import OsctabError
from .homomesy import (
    divisibility_check,
    homomesy_verify,
    matching_items,
    orbit_sum_target_matchings,
    orbit_sum_target_tableaux,
    search_matchings,
    search_tableaux,
    tableau_items,
)
from .laurent import LaurentPolynomial
from .partitions import (
    EMPTY,
    OscillatingTableau,
    Partition,
    format_partition,
    num_syt,
    partitions_up_to,
    size,
)


class CheckRow(NamedTuple):
    name: str
    passed: bool
    lhs: str
    rhs: str


def _row(name: str, lhs, rhs) -> CheckRow:
    return CheckRow(name, lhs == rhs, str(lhs), str(rhs))


# one tableaux.walk_totals pass per cell, shared by suite_count and
# suite_weight; run_suite clears the cache, so each run enumerates anew
_walk_totals = cache(tableaux.walk_totals)


def _walk_cells(kmax: int, nmax: int) -> list[tuple[Partition, int, int, int, int]]:
    """The count and weight suites' cells, (shape, |shape|, n, count, total), all capped first."""
    cells = [(shape, size(shape), n) for shape in partitions_up_to(kmax) for n in range(nmax + 1)]
    for shape, k, n in cells:
        tableaux.refuse_over_cap(EMPTY, shape, k + 2 * n)
    return [(shape, k, n, *_walk_totals(EMPTY, shape, k + 2 * n)) for shape, k, n in cells]


def suite_count(kmax: int = 4, nmax: int = 3) -> list[CheckRow]:
    """Enumerated walk counts against C(2n+k, k) (2n-1)!! f(shape).

    The counts come from tableaux.walk_totals, the brute-force walk
    enumeration, through the per-run cache _walk_totals.
    """
    rows = []
    for shape, k, n, enumerated, _ in _walk_cells(kmax, nmax):
        rows.append(
            _row(
                f"count shape={format_partition(shape)} n={n}",
                enumerated,
                tableaux.count_formula(shape, n),
            )
        )
    return rows


def suite_weight(kmax: int = 4, nmax: int = 3) -> list[CheckRow]:
    """Enumerated average weights against the quadratic closed form.

    The averages are total over count from tableaux.walk_totals, through
    the per-run cache _walk_totals that suite_count reads too, so one run
    of both walks each cell once.
    """
    rows = []
    for shape, k, n, count, total in _walk_cells(kmax, nmax):
        enumerated = Fraction(total, count)
        formula = tableaux.average_weight_formula(k, n)
        rows.append(
            _row(
                f"avg-weight shape={format_partition(shape)} n={n}",
                enumerated,
                formula,
            )
        )
        rows.append(
            _row(
                f"avg-size shape={format_partition(shape)} n={n}",
                tableaux.average_size_formula(k, n),
                Fraction(n, 3) + Fraction(k, 2),
            )
        )
        rows.append(
            _row(
                f"avg-size-enumerated shape={format_partition(shape)} n={n}",
                enumerated / (2 * n + k + 1),
                Fraction(n, 3) + Fraction(k, 2),
            )
        )
    return rows


def suite_diffposet(kmax: int = 6, nmax: int = 5) -> list[CheckRow]:
    """Operator identities and both coefficient-family computation paths."""
    rows = [_row("DU - UD = I on |p| <= 10", diffposet.ud_straighten_check(1, 10)[1], True)]
    for i, straight_ok in enumerate(diffposet.ud_straighten_check(6, 6)):
        rows.append(_row(f"D U^{i} = U^{i} D + {i} U^{i-1} on |p| <= 6", straight_ok, True))
    # column 0 of every level for every check below; key-identity cells longer
    # than l_max are skipped, since checking (5, 5) and (6, 5) adds rows to the
    # 405 checks of `verify --suite all` that the benchmark's reference pins
    l_max = 14
    levels = list(diffposet.q_levels(l_max, 0))

    def q(i: int, l: int) -> LaurentPolynomial:
        return levels[l].get((i, 0), LaurentPolynomial.zero())

    b_ok = all(
        q(i, l).eval_at_one() == util.normal_order_coefficient(i, 0, l)
        for l in range(13)
        for i in range(l + 1)
    )
    rows.append(_row("b closed form vs table at y=1, l <= 12", b_ok, True))
    c_ok = all(
        q(i, l).derivative_at_one() == row.get(i, 0)
        for l, row in enumerate(diffposet.c_rows(12))
        for i in range(l + 1)
    )
    rows.append(_row("c derivative vs recurrence, l <= 12", c_ok, True))
    for k in range(kmax + 1):
        for n in range(nmax + 1):
            if k + 2 * n > l_max:
                continue
            report = diffposet.verify_key_identity(k, n, levels)
            rows.append(
                CheckRow(
                    f"coefficient ratio k={k} n={n}",
                    report.passed,
                    str(report.ratio),
                    str(report.closed_form),
                )
            )
    shapes = list(partitions_up_to(3))
    profiles = kernels.ot_weight_profiles((EMPTY,), shapes, 9)
    for shape in shapes:
        k = size(shape)
        f_shape = num_syt(shape)
        for l in range(10):
            gf = LaurentPolynomial(dict(enumerate(profiles.get((EMPTY, shape, l), []))))
            rows.append(
                _row(
                    f"q[{k},0]({l}) * f vs walk gf, shape={format_partition(shape)}",
                    q(k, l).scale(f_shape),
                    gf,
                )
            )
    return rows


def suite_rs(nmax: int = 5) -> list[CheckRow]:
    """Bijectivity, projection preservation, and the weight transfer formula.

    Each matching's image is decoded once: the steps that
    matchings.tableau_to_matching reads (_walk_steps, then _unwalk) also
    give the image's word, and the inverse round trip reuses the result.
    """
    rows = []
    for n in range(1, nmax + 1):
        # image walk -> whether tableau_to_matching returned the matching that produced it
        images: dict[OscillatingTableau, bool] = {}
        round_ok = True
        dyck_ok = True
        weight_ok = True
        count = 0
        for m in matchings.enumerate_matchings(n):
            count += 1
            t = matchings.matching_to_tableau(m)
            steps = matchings._walk_steps(t)
            images[t] = matchings._unwalk(steps) == m
            if not images[t]:
                round_ok = False
            word = "".join("1" if sign > 0 else "0" for _, sign in steps)
            if matchings.dyck_of_matching(m) != word:
                dyck_ok = False
            if tableaux.weight(t) != matchings.weight_via_matching(m):
                weight_ok = False
        ot_count = 0
        inverse_round_ok = True
        for t in tableaux.enumerate_ot((), (), 2 * n):
            ot_count += 1
            # an entry True means t = m2t(m) and t2m(t) = m for some m, so
            # m2t(t2m(t)) = m2t(m) = t holds without running either map again
            if images.get(t):
                continue
            if matchings.matching_to_tableau(matchings.tableau_to_matching(t)) != t:
                inverse_round_ok = False
        rows.append(_row(f"rs injective n={n}", len(images), count))
        rows.append(_row(f"rs image size n={n}", len(images), ot_count))
        rows.append(_row(f"rs roundtrip n={n}", round_ok, True))
        rows.append(_row(f"rs inverse roundtrip n={n}", inverse_round_ok, True))
        rows.append(_row(f"rs word preserved n={n}", dyck_ok, True))
        rows.append(_row(f"rs weight formula n={n}", weight_ok, True))
    return rows


def suite_stats(nmax: int = 6) -> list[CheckRow]:
    """Pairwise statistics, area identities, and distribution facts.

    The per-matching (cr, ne, al) and Dyck word come from
    matchings.scan_matchings, which reads the prefix walk that `stats`
    prints from; the identities hold them against the area and heights
    counted from the word alone.
    tests/test_matchings.py::test_scan_rows_equal_enumerated_stats holds
    the scan equal to the per-matching classifier (kernels.matching_stats,
    which matchings.stats wraps) for n <= 6.
    """
    rows = []
    for word, expected in (("101010", 0), ("101100", 1), ("111000", 3)):
        rows.append(_row(f"area({word})", matchings.area(word), expected))
    for n in range(1, nmax + 1):
        sum_ok = True
        align_ok = True
        prefix_ok = True
        align_total = 0
        count = 0
        word_sums: dict[str, tuple[int, int]] = {}  # (area, sum(a)) once per distinct word
        for _, cr, ne, al, word in chain.from_iterable(matchings.scan_matchings(n)):
            count += 1
            if word not in word_sums:
                a, _ = matchings.prefix_stats(word)
                word_sums[word] = matchings.area(word), sum(a)
            word_area, a_sum = word_sums[word]
            if cr + ne + al != comb(n, 2):
                sum_ok = False
            if al != comb(n, 2) - word_area:
                align_ok = False
            if cr + ne != a_sum:
                prefix_ok = False
            align_total += al
        rows.append(_row(f"cr+ne+al = C(n,2), n={n}", sum_ok, True))
        rows.append(_row(f"al = C(n,2) - area, n={n}", align_ok, True))
        rows.append(_row(f"cr+ne = sum(a), n={n}", prefix_ok, True))
        rows.append(
            _row(
                f"mean alignments n={n}",
                Fraction(align_total, count),
                Fraction(comb(n, 2), 3),
            )
        )
    area = cache(matchings.area)  # once per distinct word: 64 for the 1,069 walks
    for n in range(1, 6):
        wt_ok = all(
            tableaux.weight(t) == 2 * area(matchings.dyck_of_tableau(t)) + n
            for t in tableaux.enumerate_ot((), (), 2 * n)
        )
        rows.append(_row(f"wt = 2 area + n on walks, n={n}", wt_ok, True))
    for n in range(1, 8):
        path_ok = True
        for word in matchings.enumerate_dyck_words(n):
            a, b = matchings.prefix_stats(word)
            word_area = matchings.area(word)
            if sum(a) != word_area or sum(b) != 2 * word_area + n:
                path_ok = False
        rows.append(_row(f"sum(a) = area, sum(b) = 2 area + n, paths n={n}", path_ok, True))
    distributions = {n: matchings.joint_distribution(n) for n in range(2, nmax + 1)}
    for n, jd in distributions.items():
        swapped = {(ne, cr, al): c for (cr, ne, al), c in jd.items()}
        rows.append(_row(f"joint cr<->ne symmetric n={n}", dict(jd) == swapped, True))
        totals = [0, 0, 0]
        for triple, cnt in jd.items():
            for slot in range(3):
                totals[slot] += triple[slot] * cnt
        rows.append(
            _row(
                f"statistic totals all equal n={n}",
                totals,
                [totals[0]] * 3,
            )
        )
    s3_break = first_s3_symmetry_failure(distributions)
    expected_break = 3 if nmax >= 3 else 0  # recorded: symmetry first fails at n = 3
    rows.append(_row("first n with S3 symmetry broken", s3_break, expected_break))
    return rows


def first_s3_symmetry_failure(distributions: dict[int, Counter]) -> int:
    """First n of distributions (n -> joint distribution) that is not S3-symmetric, else 0."""
    for n, counts in distributions.items():
        jd = dict(counts)
        for perm in permutations(range(3)):
            permuted: dict[tuple[int, int, int], int] = {}
            for triple, cnt in jd.items():
                key = (triple[perm[0]], triple[perm[1]], triple[perm[2]])
                permuted[key] = permuted.get(key, 0) + cnt
            if permuted != jd:
                return n
    return 0


def suite_homomesy() -> list[CheckRow]:
    """Divisibility, orbit-sum targets, and the searches that must terminate."""
    rows = []
    div_ok = all(
        divisibility_check(shape, n)
        for shape in partitions_up_to(5)
        for n in range(2, 6)
    )
    rows.append(_row("3 divides counts, |shape| <= 5, 2 <= n <= 5", div_ok, True))
    rows.append(_row("orbit target walks k=0 n=2", orbit_sum_target_tableaux(0, 2), 10))
    rows.append(_row("orbit target walks k=1 n=2", orbit_sum_target_tableaux(1, 2), 21))
    for n in range(2, 5):
        rows.append(
            _row(f"orbit target matchings n={n}", orbit_sum_target_matchings(n), comb(n, 2))
        )
    results = {}
    for n in (2, 3, 4):
        result = results[n] = search_matchings(n)
        terminated = result.status in ("certificate", "infeasible")
        verified = (
            homomesy_verify(result.partition, matching_items(n))
            if result.partition
            else result.status == "infeasible"
        )
        rows.append(
            CheckRow(
                f"matching search n={n} terminated ({result.status})",
                terminated and verified,
                result.status,
                "certificate|infeasible",
            )
        )
    n2 = results[2]
    unique_ok = (
        n2.status == "certificate"
        and len(n2.partition.triples) == 1
        and n2.target == 1
    )
    rows.append(CheckRow("n=2 unique certificate, one triple, sum 1", unique_ok, n2.status, "certificate"))
    t2 = search_tableaux((), 2)
    t_ok = (
        t2.status == "certificate"
        and len(t2.partition.triples) == 1
        and t2.target == 10
        and homomesy_verify(t2.partition, tableau_items((), 2))
    )
    rows.append(CheckRow("walk search shape=- n=2, one triple, sum 10", t_ok, t2.status, "certificate"))
    return rows


def walk_dp_scan(max_start_size: int, max_shape_size: int, max_length: int) -> tableaux.ScanReport:
    """tableaux.skew_denominator_scan's cases, from the walk DP instead of its closed form.

    One kernels.ot_weight_profiles call yields the weight profiles of
    every start, shape and length; cases are visited start, then shape,
    then length, as the closed-form scan visits them.
    """
    records = []
    starts = list(partitions_up_to(max_start_size))
    shapes = list(partitions_up_to(max_shape_size))
    profiles = kernels.ot_weight_profiles(starts, shapes, max_length)
    for start in starts:
        for shape in shapes:
            for length in range(max_length + 1):
                profile = profiles.get((start, shape, length))
                if profile is None:
                    continue
                count = sum(profile)
                total = sum(w * c for w, c in enumerate(profile))
                records.append(
                    tableaux.ScanCase(start, shape, length, count, Fraction(total, count))
                )
    return tableaux.ScanReport(records)


def suite_skew() -> list[CheckRow]:
    """One skew-average denominator scan; its empty-start cases are the scan (0, 4, 8).

    The scan runs the walk DP (walk_dp_scan), a route that shares no
    code with the closed form `skew-scan` runs.
    """
    rows = []
    skew = walk_dp_scan(3, 4, 8)
    plain = tableaux.ScanReport([case for case in skew.records if not case.start])
    rows.append(
        CheckRow(
            "scan start=- |shape|<=4 l<=8: denominators divide 3",
            plain.all_denominators_divide_3,
            str(plain.max_denominator),
            "1 or 3",
        )
    )
    witness = skew.witness_exceeding_3
    rows.append(
        CheckRow(
            "scan |start|<=3 |shape|<=4 l<=8 finds denominator > 3",
            witness is not None,
            f"max denominator {skew.max_denominator}",
            "> 3 witness recorded",
        )
    )
    return rows


SUITES = {
    "count": suite_count,
    "weight": suite_weight,
    "diffposet": suite_diffposet,
    "rs": suite_rs,
    "stats": suite_stats,
    "homomesy": suite_homomesy,
    "skew": suite_skew,
}


# the suites whose nmax is the n of the matchings of [2n] they enumerate
MATCHING_SUITES = ("rs", "stats")

# The range overrides each suite takes: its parameter names, read from its
# code (importing inspect would cost every run) here, before any caller
# replaces a function in SUITES with a wrapper.
SUITE_OVERRIDES = {
    name: suite.__code__.co_varnames[: suite.__code__.co_argcount] for name, suite in SUITES.items()
}


def run_suite(name: str, kmax: int | None = None, nmax: int | None = None) -> list[CheckRow]:
    """Run one suite (or all) with optional range overrides.

    A named suite refuses an override it does not take; "all" passes
    each override only to the suites that take it.  An nmax past
    matchings.MAX_MATCHING_N is refused, before any suite runs, by the
    suites it reaches as a matching n.
    """
    given = {key: value for key, value in (("kmax", kmax), ("nmax", nmax)) if value is not None}
    if name != "all":
        accepted = SUITE_OVERRIDES[name]
        refused = [key for key in given if key not in accepted]
        if refused:
            raise OsctabError(
                f"suite {name!r} takes no --{refused[0]} override "
                f"(it takes {' '.join('--' + key for key in accepted) or 'none'})"
            )
    if nmax is not None and name in ("all", *MATCHING_SUITES):
        matchings.check_bound(nmax)  # before any suite has scanned the smaller n
    _walk_totals.cache_clear()
    rows = []
    for suite_name in SUITES if name == "all" else (name,):
        accepted = SUITE_OVERRIDES[suite_name]
        rows.extend(SUITES[suite_name](**{k: v for k, v in given.items() if k in accepted}))
    return rows
