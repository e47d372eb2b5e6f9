from collections import Counter
from itertools import chain
from math import comb

import pytest
from hypothesis import given, strategies as st

from osctab import kernels, matchings
from osctab.errors import (
    BoundExceededError,
    InvalidDyckWordError,
    ShapeMismatchError,
)
from osctab.homomesy import matching_items
from osctab.matchings import (
    area,
    as_matching,
    conjugate_matching,
    conjugate_tableau,
    dyck_of_matching,
    dyck_of_tableau,
    enumerate_dyck_words,
    enumerate_matchings,
    format_matching,
    joint_distribution,
    matching_of_permutation,
    matching_to_tableau,
    parse_matching,
    partner_array,
    permutation_bridge,
    prefix_stats,
    scan_matchings,
    sigma_on_permutation_matchings,
    stats,
    tableau_to_matching,
    weight_via_matching,
)
from osctab.tableaux import enumerate_ot, weight


def brute_stats(matching):
    """Interval-containment classification, independent of the opener scan."""
    cr = ne = al = 0
    pairs = list(matching)
    for idx, p in enumerate(pairs):
        for q in pairs[idx + 1 :]:
            inside_p = sum(1 for x in q if p[0] < x < p[1])
            inside_q = sum(1 for x in p if q[0] < x < q[1])
            if inside_p == 1:
                cr += 1
            elif inside_p == 2 or inside_q == 2:
                ne += 1
            else:
                al += 1
    return cr, ne, al


def test_parse_and_format():
    m = parse_matching("1-4,2-3")
    assert m == ((1, 4), (2, 3))
    assert format_matching(m) == "1-4,2-3"
    assert as_matching([(3, 1), (4, 2)]) == ((1, 3), (2, 4))


def test_as_matching_rejects_non_partition():
    with pytest.raises(ValueError):
        as_matching([(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        as_matching([(1, 3)])


def test_enumerate_examples():
    assert list(enumerate_matchings(1)) == [((1, 2),)]
    assert [format_matching(m) for m in enumerate_matchings(2)] == [
        "1-2,3-4",
        "1-3,2-4",
        "1-4,2-3",
    ]
    assert sum(1 for _ in enumerate_matchings(3)) == 15
    assert sum(1 for _ in enumerate_matchings(5)) == 945


def test_enumerate_bound():
    with pytest.raises(BoundExceededError):
        list(enumerate_matchings(9))
    with pytest.raises(BoundExceededError):
        scan_matchings(9)  # checked on the call, before any batch is asked for
    with pytest.raises(BoundExceededError):
        joint_distribution(9)


@pytest.mark.parametrize("n", range(7))
def test_scan_rows_equal_enumerated_stats(n):
    expected = [
        (format_matching(m).replace(",", ";"), *kernels.matching_stats(partner_array(m)), dyck_of_matching(m))
        for m in enumerate_matchings(n)
    ]
    assert list(chain.from_iterable(scan_matchings(n))) == expected


@pytest.mark.parametrize("n", range(7))
def test_scan_batches_one_per_prefix(n):
    batches = list(scan_matchings(n))
    if n <= matchings.TAIL_PAIRS:
        assert len(batches) == 1
        return
    assert {len(batch) for batch in batches} == {15}
    for batch in batches:
        prefixes = {text.rsplit(";", matchings.TAIL_PAIRS)[0] for text, *_ in batch}
        assert len(prefixes) == 1


@pytest.mark.parametrize("n", [5, 6])
def test_scan_builds_each_free_set_once(monkeypatch, n):
    built = Counter()
    completions = matchings._completions

    def spy(free, size, tails):
        built[free] += 1
        return completions(free, size, tails)

    monkeypatch.setattr(matchings, "_completions", spy)
    tail_sets = set()
    for m in enumerate_matchings(n):
        used = {x for pair in m[: n - matchings.TAIL_PAIRS] for x in pair}
        tail_sets.add(tuple(x for x in range(1, 2 * n + 1) if x not in used))
    for _ in range(2):  # the tables live for one call
        built.clear()
        for _ in scan_matchings(n):
            pass
        assert set(built.values()) == {1}
        assert {free for free in built if len(free) == 2 * matchings.TAIL_PAIRS} == tail_sets


@pytest.mark.parametrize("n", range(7))
def test_matching_items_equal_scan_rows(n):
    # the scan rows give the homomesy items, in the same order
    rows = chain.from_iterable(scan_matchings(n))
    assert matching_items(n) == [(text.replace(";", ","), al) for text, _, _, al, _ in rows]


def test_scan_distribution_equals_joint_dp():
    counts = Counter((cr, ne, al) for _, cr, ne, al, _ in chain.from_iterable(scan_matchings(7)))
    assert dict(counts) == kernels.joint_distribution_counts(7)


def test_stats_examples():
    s = stats(parse_matching("1-2,3-4"))
    assert (s.crossings, s.nestings, s.alignments) == (0, 0, 1)
    s = stats(parse_matching("1-3,2-4"))
    assert (s.crossings, s.nestings, s.alignments) == (1, 0, 0)
    s = stats(parse_matching("1-4,2-3"))
    assert (s.crossings, s.nestings, s.alignments) == (0, 1, 0)


def test_stats_against_interval_oracle():
    for n in range(1, 6):
        for m in enumerate_matchings(n):
            s = stats(m)
            assert (s.crossings, s.nestings, s.alignments) == brute_stats(m)
            assert s.crossings + s.nestings + s.alignments == comb(n, 2)


@given(st.integers(1, 7), st.randoms(use_true_random=False))
def test_stats_random_matchings(n, rng):
    points = list(range(1, 2 * n + 1))
    rng.shuffle(points)
    m = as_matching([tuple(points[2 * i : 2 * i + 2]) for i in range(n)])
    s = stats(m)
    assert (s.crossings, s.nestings, s.alignments) == brute_stats(m)


def test_dyck_of_matching_examples():
    assert dyck_of_matching(parse_matching("1-2,3-4")) == "1010"
    assert dyck_of_matching(parse_matching("1-4,2-3")) == "1100"
    assert dyck_of_matching(parse_matching("1-3,2-4")) == "1100"


def test_dyck_of_tableau_examples():
    assert dyck_of_tableau(((), (1,), ())) == "10"
    assert dyck_of_tableau(((), (1,), (2,), (1,), ())) == "1100"
    assert dyck_of_tableau(((), (1,), (), (1,), ())) == "1010"
    with pytest.raises(ShapeMismatchError):
        dyck_of_tableau(((), (1,)))


def test_area_examples_byte_exact():
    assert area("101010") == 0
    assert area("101100") == 1
    assert area("111000") == 3


def test_area_rejects_invalid():
    with pytest.raises(InvalidDyckWordError):
        area("1001" + "01")
    with pytest.raises(InvalidDyckWordError):
        area("10a0")
    with pytest.raises(InvalidDyckWordError):
        area("110")


def test_prefix_stats_examples():
    assert prefix_stats("1010") == ((0, 0), (1, 0, 1, 0))
    assert prefix_stats("1100") == ((1, 0), (1, 2, 1, 0))
    assert prefix_stats("111000") == ((2, 1, 0), (1, 2, 3, 2, 1, 0))


def test_dyck_word_count():
    # Catalan numbers
    for n, catalan in enumerate([1, 1, 2, 5, 14, 42, 132, 429]):
        assert sum(1 for _ in enumerate_dyck_words(n)) == catalan


def test_prefix_identities_all_paths():
    for n in range(1, 8):
        for word in enumerate_dyck_words(n):
            a, b = prefix_stats(word)
            assert sum(a) == area(word)
            assert sum(b) == 2 * area(word) + n


def test_rs_examples():
    assert tableau_to_matching(((), (1,), (), (1,), ())) == parse_matching("1-2,3-4")
    assert tableau_to_matching(((), (1,), (2,), (1,), ())) == parse_matching("1-4,2-3")
    assert tableau_to_matching(((), (1,), (1, 1), (1,), ())) == parse_matching("1-3,2-4")


def test_rs_inverse_examples():
    assert matching_to_tableau(parse_matching("1-2")) == ((), (1,), ())
    assert matching_to_tableau(parse_matching("1-3,2-4")) == ((), (1,), (1, 1), (1,), ())
    assert matching_to_tableau(parse_matching("1-4,2-3")) == ((), (1,), (2,), (1,), ())


def test_rs_rejects_open_walks():
    with pytest.raises(ShapeMismatchError):
        tableau_to_matching(((), (1,)))
    with pytest.raises(ShapeMismatchError):
        tableau_to_matching(((1,), (1, 1), (1,)))


def test_rs_bijection_battery():
    for n in range(1, 5):
        images = set()
        for m in enumerate_matchings(n):
            t = matching_to_tableau(m)
            assert tableau_to_matching(t) == m
            assert dyck_of_matching(m) == dyck_of_tableau(t)
            images.add(t)
        walks = set(enumerate_ot((), (), 2 * n))
        assert images == walks
        for t in walks:
            assert matching_to_tableau(tableau_to_matching(t)) == t


def test_weight_via_matching_examples():
    assert weight_via_matching(parse_matching("1-2")) == 1
    assert weight_via_matching(parse_matching("1-2,3-4")) == 2
    assert weight_via_matching(parse_matching("1-3,2-4")) == 4


def test_weight_transfer():
    for n in range(1, 5):
        for m in enumerate_matchings(n):
            assert weight_via_matching(m) == weight(matching_to_tableau(m))


def test_conjugate_tableau_examples():
    assert conjugate_tableau(((), (1,), ())) == ((), (1,), ())
    assert conjugate_tableau(((), (1,), (2,), (1,), ())) == ((), (1,), (1, 1), (1,), ())
    for t in enumerate_ot((), (), 6):
        assert conjugate_tableau(conjugate_tableau(t)) == t
        assert weight(conjugate_tableau(t)) == weight(t)
        assert dyck_of_tableau(conjugate_tableau(t)) == dyck_of_tableau(t)


def test_conjugate_matching_involution():
    for n in range(1, 5):
        for m in enumerate_matchings(n):
            assert conjugate_matching(conjugate_matching(m)) == m


def test_permutation_bridge_examples():
    assert permutation_bridge(parse_matching("1-3,2-4")) == (1, 2)
    assert permutation_bridge(parse_matching("1-4,2-3")) == (2, 1)
    with pytest.raises(ShapeMismatchError):
        permutation_bridge(parse_matching("1-2,3-4"))


def test_bridge_is_bijective():
    from itertools import permutations

    for n in range(1, 5):
        seen = set()
        for m in enumerate_matchings(n):
            word = dyck_of_matching(m)
            if word == "1" * n + "0" * n:
                seen.add(permutation_bridge(m))
        assert seen == set(permutations(range(1, n + 1)))
        for perm in seen:
            assert permutation_bridge(matching_of_permutation(perm)) == perm


def test_sigma_examples_and_involution():
    assert sigma_on_permutation_matchings(parse_matching("1-3,2-4")) == parse_matching("1-4,2-3")
    assert sigma_on_permutation_matchings(parse_matching("1-4,2-3")) == parse_matching("1-3,2-4")
    for n in range(1, 6):
        for m in enumerate_matchings(n):
            if dyck_of_matching(m) != "1" * n + "0" * n:
                continue
            image = sigma_on_permutation_matchings(m)
            assert sigma_on_permutation_matchings(image) == m
            s, si = stats(m), stats(image)
            assert (s.crossings, s.nestings) == (si.nestings, si.crossings)
            assert s.alignments == si.alignments


def test_conjugation_transfer_swaps_crossings_and_nestings_n2():
    # On the two 1100 matchings the stepwise conjugation transfer acts as the
    # word reversal, not as permutation inversion: the transfer swaps the two
    # walks (2) <-> (1,1) while inversion fixes both bridged permutations of
    # S_2, so no projection-preserving bijection can realize inversion here.
    crossing = parse_matching("1-3,2-4")
    nesting = parse_matching("1-4,2-3")
    assert conjugate_matching(crossing) == nesting
    assert conjugate_matching(nesting) == crossing
    assert permutation_bridge(crossing) == (1, 2)  # its own inverse
    assert permutation_bridge(nesting) == (2, 1)  # its own inverse


def test_joint_distribution_examples():
    jd = joint_distribution(2)
    assert dict(jd) == {(0, 0, 1): 1, (1, 0, 0): 1, (0, 1, 0): 1}


def test_joint_distribution_matches_direct_count():
    for n in range(1, 5):
        direct: dict[tuple[int, int, int], int] = {}
        for m in enumerate_matchings(n):
            s = stats(m)
            key = (s.crossings, s.nestings, s.alignments)
            direct[key] = direct.get(key, 0) + 1
        assert dict(joint_distribution(n)) == direct


def test_joint_distribution_cr_ne_symmetry():
    for n in range(2, 6):
        jd = dict(joint_distribution(n))
        assert jd == {(ne, cr, al): c for (cr, ne, al), c in jd.items()}


def test_each_statistic_has_equal_total():
    # summed over all matchings, crossings, nestings and alignments each
    # account for a third of all C(n,2) * (2n-1)!! pair relations
    from osctab.util import double_factorial

    for n in range(2, 7):
        totals = [0, 0, 0]
        for triple, cnt in joint_distribution(n).items():
            for slot in range(3):
                totals[slot] += triple[slot] * cnt
        expected = comb(n, 2) * double_factorial(2 * n - 1) // 3
        assert totals == [expected] * 3
