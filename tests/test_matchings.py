from collections import Counter
from itertools import chain
from math import comb, prod
from typing import Sequence

import pytest
from hypothesis import given, strategies as st

from osctab import kernels, matchings, table
from osctab.errors import (
    BoundExceededError,
    InvalidDyckWordError,
    ShapeMismatchError,
)
from osctab.homomesy import matching_items
from osctab.matchings import (
    PerfectMatching,
    area,
    as_matching,
    conjugate_mates,
    conjugate_tableau,
    dyck_of_matching,
    enumerate_dyck_words,
    enumerate_matchings,
    format_matching,
    matching_to_tableau,
    parse_matching,
    partner_array,
    prefix_stats,
    stats,
    tableau_to_matching,
    weight_of_alignments,
)
from osctab.partitions import OscillatingTableau
from osctab.table import scan_matchings
from osctab.tableaux import enumerate_ot, weight


def dyck_of_tableau(tableau: OscillatingTableau) -> str:
    """Letter i is 1 when step i adds a box, 0 when it removes one.

    Only closed walks (empty start and end, hence even length) project
    to balanced words; anything else raises ShapeMismatchError.
    """
    return "".join("1" if sign > 0 else "0" for _, sign in matchings._walk_steps(tableau))


def weight_via_matching(matching: PerfectMatching) -> int:
    """Walk weight of the matching's image under the insertion bijection."""
    return weight_of_alignments(len(matching), stats(matching).alignments)


def permutation_bridge(matching: PerfectMatching) -> tuple[int, ...]:
    """The permutation sending j to i for pairs {i, j+n}.

    Defined only on matchings whose word is 1^n 0^n (all openers before
    all closers); anything else raises ShapeMismatchError.
    """
    n = len(matching)
    if dyck_of_matching(matching) != "1" * n + "0" * n:
        raise ShapeMismatchError("matching word is not 1^n 0^n")
    partner = {b: a for a, b in matching}
    return tuple(partner[j + n] for j in range(1, n + 1))


def matching_of_permutation(perm: Sequence[int]) -> PerfectMatching:
    """Inverse of permutation_bridge."""
    n = len(perm)
    return as_matching([(perm[j], j + 1 + n) for j in range(n)])


def sigma_on_permutation_matchings(matching: PerfectMatching) -> PerfectMatching:
    """Reverse the bridged permutation: position j maps to the value at n+1-j.

    On the 1^n 0^n matchings this swaps the crossing and nesting counts.
    """
    perm = permutation_bridge(matching)
    n = len(perm)
    return matching_of_permutation(tuple(perm[n - 1 - j] for j in range(n)))


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


def conjugate_matching(matching: PerfectMatching) -> PerfectMatching:
    """Stepwise conjugation transported through the insertion bijection, one matching at a time.

    The conjugate walk adds or removes at (column, row) each box the
    walk adds or removes at (row, column), so the inverse insertion run
    on the columns gives the image without building either walk.
    """
    return matchings._unwalk([(col, sign) for _, col, sign in matchings._insertion_cells(matching)])


def largest_family(matching: PerfectMatching, related) -> int:
    """The most arcs of the matching that are pairwise related, found by growing every such set.

    related(p, q) is asked only for p before q in the canonical order.
    """
    families: list[tuple] = [()]
    while True:
        grown = [
            family + (arc,)
            for family in families
            for arc in matching
            if (not family or arc > family[-1]) and all(related(p, arc) for p in family)
        ]
        if not grown:
            return len(families[0])
        families = grown


def crosses(p, q) -> bool:
    return p[0] < q[0] < p[1] < q[1]


def nests(p, q) -> bool:
    return p[0] < q[0] < q[1] < p[1]


def test_parse_and_format():
    m = parse_matching("1-4,2-3")
    assert m == ((1, 4), (2, 3))
    assert format_matching(m) == "1-4,2-3"
    assert as_matching([(3, 1), (4, 2)]) == ((1, 3), (2, 4))


@pytest.mark.parametrize("n", range(5))
def test_parse_inverts_format(n):
    for m in enumerate_matchings(n):
        assert parse_matching(format_matching(m)) == m


@pytest.mark.parametrize(
    "text, piece", [("1-", "1-"), ("1", "1"), ("1-2,", ""), ("a-b", "a-b"), ("1-2,3-4-5", "3-4-5")]
)
def test_parse_matching_names_the_bad_piece(text, piece):
    with pytest.raises(ValueError, match=f"^matching piece '{piece}' is not of the form a-b$"):
        parse_matching(text)


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
    if n <= table.TAIL_PAIRS:
        assert len(batches) == 1
        return
    assert {len(batch) for batch in batches} == {15}
    for batch in batches:
        prefixes = {text.rsplit(";", table.TAIL_PAIRS)[0] for text, *_ in batch}
        assert len(prefixes) == 1


def spy_on_tables(monkeypatch) -> list[Counter]:
    """Per call of table._completion_table, how often each free set is asked of its
    table from outside it (the table's own recursion is not counted)."""
    asked = []
    build = table._completion_table

    def spy(size):
        completions = build(size)
        calls = Counter()
        asked.append(calls)

        def ask(free):
            calls[free] += 1
            return completions(free)

        return ask

    monkeypatch.setattr(table, "_completion_table", spy)
    return asked


@pytest.mark.parametrize("n", [5, 6])
def test_scan_builds_each_free_set_once(monkeypatch, n):
    # a free set's completions are built by pairing its smallest element,
    # so the table's _pairs calls on at most 2 * TAIL_PAIRS elements count its builds
    built = Counter()
    pairs = table._pairs

    def spy(free, size):
        built[tuple(free)] += 1
        return pairs(free, size)

    monkeypatch.setattr(table, "_pairs", spy)
    asked = spy_on_tables(monkeypatch)
    tail_sets = set()
    for m in enumerate_matchings(n):
        used = {x for pair in m[: n - table.TAIL_PAIRS] for x in pair}
        tail_sets.add(tuple(x for x in range(1, 2 * n + 1) if x not in used))
    for calls in range(1, 3):  # the tables live for one call
        built.clear()
        for _ in scan_matchings(n):
            pass
        assert len(asked) == calls
        tail_size = 2 * table.TAIL_PAIRS
        tails = {free: count for free, count in built.items() if len(free) <= tail_size}
        assert set(tails.values()) == {1}
        assert {free for free in tails if len(free) == tail_size} == tail_sets
        # every prefix asks for its free set
        assert sum(asked[-1].values()) == prod(range(2 * n - 1, 2 * table.TAIL_PAIRS, -2))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stats_table_builds_each_template_once(monkeypatch, fmt):
    n = 7
    keys = set()
    for m in enumerate_matchings(n):
        prefix = m[: n - table.TAIL_PAIRS]
        used = {x for pair in prefix for x in pair}
        free = tuple(x for x in range(1, 2 * n + 1) if x not in used)
        openers = {a for a, _ in prefix}
        word = "".join("1" if x in openers else "0" for x in range(1, free[0]))
        cr, ne, al = brute_stats(prefix)
        keys.add((free, word, cr + ne, al))
    assert len(keys) == 637
    # building a template asks the completion table for its free set once,
    # and nothing else asks it from outside
    asked = spy_on_tables(monkeypatch)
    for calls in range(1, 3):  # the templates live for one call
        for _ in table.stats_table(n, fmt):
            pass
        assert len(asked) == calls
        assert asked[-1] == Counter(free for free, *_ in keys)


@pytest.mark.parametrize("n", range(8))
def test_a_prefix_word_fixes_its_cr_plus_ne_and_al(n):
    # what keeps the templates as few as the (free set, word) pairs
    seen = {}
    for _, (free, word, cr, ne, al) in table._prefixes(2 * n):
        assert seen.setdefault((free, word), (cr + ne, al)) == (cr + ne, al)


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
    for n in range(6):
        for m in enumerate_matchings(n):
            image = conjugate_matching(m)
            # the oracle: conjugate the walk step by step
            assert image == tableau_to_matching(conjugate_tableau(matching_to_tableau(m)))
            assert conjugate_matching(image) == m



@pytest.mark.parametrize("n", range(7))
def test_conjugate_mates_equal_the_oracle(n):
    ms = list(enumerate_matchings(n))
    position = {m: i for i, m in enumerate(ms)}
    mate = conjugate_mates(ms)
    assert mate == [position[conjugate_matching(m)] for m in ms]
    assert all(mate[j] == i for i, j in enumerate(mate))
    # the only self-conjugate matching is 1-2,3-4,...
    fixed = [ms[i] for i, j in enumerate(mate) if i == j]
    assert fixed == [tuple((2 * k + 1, 2 * k + 2) for k in range(n))]


@pytest.mark.parametrize("n", range(7))
def test_a_mate_swaps_the_largest_crossing_and_the_largest_nesting(n):
    # Chen, Deng, Du, Stanley and Yan (2007): the largest crossing is the most
    # rows the walk reaches and the largest nesting the most columns, which
    # conjugating the walk swaps
    ms = list(enumerate_matchings(n))
    largest = [(largest_family(m, crosses), largest_family(m, nests)) for m in ms]
    for i, j in enumerate(conjugate_mates(ms)):
        assert largest[j] == largest[i][::-1]

@pytest.mark.parametrize(
    "walk, message",
    [
        ((), "not a single-box walk"),
        (((1,), (2,), (2, 1), (1,)), "not a single-box walk"),  # open and a two-box step
        (((), (1,), (2,), (1,)), "walk must start and end at the empty partition"),
        (((1,), (2,), (1,)), "walk must start and end at the empty partition"),
        # closed walks through (1, 2) and (0, 1), which are not partitions
        (((), (1,), (1, 1), (1, 2), (1, 1), (1,), ()), "not a single-box walk"),
        (((), (1,), (2,), (2, 1), (1, 1), (0, 1), (1, 1), (1,), ()), "not a single-box walk"),
    ],
)
def test_walk_rejections_keep_their_messages(walk, message):
    for decode in (tableau_to_matching, dyck_of_tableau):
        with pytest.raises(ShapeMismatchError, match=f"^{message}$"):
            decode(walk)


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
    jd = kernels.joint_distribution_counts(2)
    assert jd == {(0, 0, 1): 1, (1, 0, 0): 1, (0, 1, 0): 1}


def test_joint_distribution_matches_direct_count():
    for n in range(1, 5):
        direct: dict[tuple[int, int, int], int] = {}
        for m in enumerate_matchings(n):
            s = stats(m)
            key = (s.crossings, s.nestings, s.alignments)
            direct[key] = direct.get(key, 0) + 1
        assert kernels.joint_distribution_counts(n) == direct


def test_joint_distribution_cr_ne_symmetry():
    for n in range(2, 6):
        jd = kernels.joint_distribution_counts(n)
        assert jd == {(ne, cr, al): c for (cr, ne, al), c in jd.items()}


def test_each_statistic_has_equal_total():
    # summed over all matchings, crossings, nestings and alignments each
    # account for a third of all C(n,2) * (2n-1)!! pair relations
    for n in range(2, 7):
        totals = [0, 0, 0]
        for triple, cnt in kernels.joint_distribution_counts(n).items():
            for slot in range(3):
                totals[slot] += triple[slot] * cnt
        expected = comb(n, 2) * prod(range(1, 2 * n, 2)) // 3
        assert totals == [expected] * 3
