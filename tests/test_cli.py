import argparse
import ast
import hashlib
import importlib.util
import itertools
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from osctab import diffposet, kernels, matchings, table, tableaux
from osctab.cli import build_parser, main
from osctab.partitions import format_partition, parse_partition
from osctab.tableaux import enumerate_ot
from osctab.util import normal_order_coefficient

SRC = Path(__file__).resolve().parents[1] / "src"
WORKLOADS_PY = SRC.parent / "perfbench" / "workloads.py"
GOLDENS = json.loads((Path(__file__).parent / "data" / "goldens.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_pass(capsys):
    code, out, _ = run_cli(capsys, "count", "--shape", "2,1", "--n", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "pass"
    assert payload["details"]["formula"] == "20"
    assert payload["details"]["enumerated"] == "20"
    assert payload["details"]["equal"] is True


def test_count_empty_shape(capsys):
    code, out, _ = run_cli(capsys, "count", "--shape", "-", "--n", "2")
    assert code == 0
    assert json.loads(out)["details"]["formula"] == "3"


def test_count_parse_error(capsys):
    code, _, err = run_cli(capsys, "count", "--shape", "1,2", "--n", "1")
    assert code == 2
    assert "weakly decreasing" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--shape", "-", "--n", "-1"),
        ("enumerate", "--shape", "-", "--length", "-1"),
        ("avg-weight", "--shape", "-", "--n", "-1"),
        ("avg-weight", "--shape", "-", "--length", "-2"),
        ("gf", "--shape", "-", "--length", "-1"),
        ("diffposet", "q-table", "--lmax", "-1"),
        ("diffposet", "b-table", "--lmax", "-1"),
        ("diffposet", "verify-eq1", "--kmax", "-1"),
        ("rs", "roundtrip", "--n", "-1"),
        ("stats", "--n", "-1"),
        ("homomesy", "--target-set", "matchings", "--n", "-3"),
        ("homomesy", "--target-set", "matchings", "--n", "3", "--budget-nodes", "-1"),
        ("homomesy", "--target-set", "matchings", "--n", "3", "--budget-seconds", "-0.5"),
        ("homomesy", "--target-set", "matchings", "--n", "3", "--budget-seconds", "nan"),
        ("skew-scan", "--max-mu", "-1"),
        ("skew-scan", "--max-length", "-1"),
        ("verify", "--suite", "count", "--nmax", "-1"),
        ("stats", "--n", "x"),
        ("homomesy", "--target-set", "matchings", "--n", "3", "--parallel"),
        ("homomesy", "--target-set", "matchings", "--n", "3", "--no-deterministic"),
    ],
)
def test_negative_sizes_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_enumerate_walks(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--shape", "-", "--length", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["details"]["count"] == "3"
    assert [[], [1], [2], [1], []] in payload["details"]["walks"]


def enumerate_payload_oracle(mu, shape, length):
    """The enumerate report built whole, every walk in a list, as json.dumps renders it."""
    start, end = parse_partition(mu), parse_partition(shape)
    walks = [[list(step) for step in walk] for walk in enumerate_ot(start, end, length)]
    parameters = {"mu": format_partition(start), "shape": format_partition(end), "length": length}
    return {"command": "enumerate", "parameters": parameters, "outcome": "pass",
            "details": {"count": str(len(walks)), "walks": walks}}


@pytest.mark.parametrize("mu", ["-", "1", "2,1"])
@pytest.mark.parametrize("shape", ["-", "2", "1,1", "2,1"])
def test_enumerate_bytes_equal_the_whole_payload(capsys, mu, shape):
    for length in range(9):
        argv = ("enumerate", "--mu", mu, "--shape", shape, "--length", str(length))
        payload = enumerate_payload_oracle(mu, shape, length)
        assert run_cli(capsys, *argv) == (0, json.dumps(payload, indent=2) + "\n", "")
        code, timed, _ = run_cli(capsys, "--timing", *argv)
        assert code == 0
        elapsed = json.loads(timed)["elapsed_seconds"]
        assert timed == json.dumps({**payload, "elapsed_seconds": elapsed}, indent=2) + "\n"


@pytest.mark.parametrize("cap, code", [("14", 2), ("15", 0)])
def test_enumerate_cap_fails_before_any_output(capsys, monkeypatch, cap, code):
    monkeypatch.setenv("OSCTAB_MAX_ENUM", cap)  # the walks of length 6 number 15
    got, out, err = run_cli(capsys, "enumerate", "--shape", "-", "--length", "6")
    assert got == code
    if code:
        assert out == ""
        assert err.startswith("error: ") and "cap of 14" in err
    else:
        assert json.loads(out)["details"]["count"] == "15"


@pytest.mark.parametrize("argv", [
    ("enumerate", "--shape", "-", "--length", "6"),
    ("avg-weight", "--mu", "1", "--shape", "1", "--length", "4"),
])
def test_over_cap_walk_runs_refuse_before_the_walk_dfs(capsys, monkeypatch, argv):
    entered, dp_calls = spy_on_walks(monkeypatch)
    monkeypatch.setenv("OSCTAB_MAX_ENUM", "14")  # both walk sets number 15
    error = "error: enumeration exceeds the configured cap of 14 walks\n"
    assert run_cli(capsys, *argv) == (2, "", error)
    assert entered == dp_calls == []
    monkeypatch.setenv("OSCTAB_MAX_ENUM", "15")
    assert run_cli(capsys, *argv)[0] == 0
    # `enumerate` prints the closed count, so it walks only to list; `avg-weight` reads the DP
    listing = argv[0] == "enumerate"
    assert (len(entered), len(dp_calls)) == ((1, 0) if listing else (0, 1))


def spy_on_walks(monkeypatch):
    """Record the arguments of each walk DFS that starts (tableaux._walk_dfs, which
    enumerate_ot calls once the set is held to the cap) and each walk DP call."""
    entered, dp_calls = [], []
    real_dfs, real_dp = tableaux._walk_dfs, kernels.ot_weight_profiles
    monkeypatch.setattr(tableaux, "_walk_dfs", lambda *a: entered.append(a) or real_dfs(*a))
    monkeypatch.setattr(kernels, "ot_weight_profiles", lambda *a: dp_calls.append(a) or real_dp(*a))
    return entered, dp_calls


@pytest.mark.parametrize("argv, cap, dp_calls", [
    (("count", "--shape", "2,1", "--n", "2"), None, 1),
    (("count", "--shape", "-", "--n", "8"), None, 1),  # 2,027,025 walks, under the default cap
    (("count", "--shape", "-", "--n", "3"), "15", 1),
    (("count", "--shape", "-", "--n", "3"), "14", 0),  # over the cap: the note, no check
    (("count", "--shape", "2,1", "--n", "2", "--skip-enumeration"), None, 0),
    (("avg-weight", "--shape", "2,1", "--n", "2"), None, 1),
    (("avg-weight", "--mu", "2,1", "--shape", "2", "--length", "5"), None, 1),
])
def test_count_and_avg_weight_read_one_walk_dp_call(capsys, monkeypatch, argv, cap, dp_calls):
    """Each checks its closed form against one walk DP call and lists no walk."""
    entered, calls = spy_on_walks(monkeypatch)
    if cap is not None:
        monkeypatch.setenv("OSCTAB_MAX_ENUM", cap)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert (len(calls), entered) == (dp_calls, [])
    details = json.loads(out)["details"]
    assert ("note" in details) is (argv[0] == "count" and not dp_calls)


@pytest.mark.parametrize("suite", ["count", "weight"])
def test_an_over_cap_walk_battery_refuses_before_any_walk(capsys, monkeypatch, suite):
    entered, dp_calls = spy_on_walks(monkeypatch)
    monkeypatch.setenv("OSCTAB_MAX_ENUM", "14")  # n = 3 has 15 walks, n <= 2 fit
    error = "error: enumeration exceeds the configured cap of 14 walks\n"
    argv = ("verify", "--suite", suite, "--kmax", "0", "--nmax", "3")
    assert run_cli(capsys, *argv) == (2, "", error)
    assert entered == dp_calls == []


@pytest.mark.parametrize("argv, cap, status", [
    (("gf", "--shape", "2,1", "--length", "11"), None, 0),
    (("enumerate", "--mu", "1", "--shape", "2", "--length", "5"), None, 0),
    (("enumerate", "--shape", "-", "--length", "40"), "14", 2),
    (("avg-weight", "--mu", "2,1", "--shape", "2", "--length", "5"), None, 0),
    (("avg-weight", "--mu", "2,1", "--shape", "2,1", "--length", "12"), "14", 2),
    (("count", "--shape", "2,1", "--n", "2"), None, 0),
    (("skew-scan", "--max-mu", "2", "--max-shape", "3", "--max-length", "6"), None, 0),
    (("homomesy", "--target-set", "tableaux", "--shape", "1", "--n", "2"), None, 0),
    (("homomesy", "--target-set", "tableaux", "--shape", "2,1", "--n", "7"), None, 2),  # over 10^7
])
def test_no_product_command_runs_the_walk_dp(capsys, monkeypatch, argv, cap, status):
    """The walk DP is an oracle: product walk counts and `gf` come from normal ordering.

    `count` and `avg-weight` check their closed forms against it, one call a
    run; an over-cap `avg-weight` exits 2 before that call.
    """
    _, calls = spy_on_walks(monkeypatch)
    if cap is not None:
        monkeypatch.setenv("OSCTAB_MAX_ENUM", cap)
    assert run_cli(capsys, *argv)[0] == status
    checks = argv[0] in ("count", "avg-weight") and status == 0
    assert len(calls) == checks


def test_gf_past_the_table_bound_equals_the_golden(capsys):
    code, out, err = run_cli(capsys, "gf", "--shape", "2,1", "--length", "31")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDENS["gf_2_1_31_sha256"]


@pytest.mark.parametrize("command", sorted(GOLDENS["long_length_sha256"]))
def test_long_length_bytes_equal_the_golden(capsys, command):
    code, out, err = run_cli(capsys, *command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDENS["long_length_sha256"][command]


@pytest.mark.parametrize("command", sorted(GOLDENS["count_avg_weight_sha256"]))
def test_count_and_avg_weight_bytes_equal_the_golden(capsys, monkeypatch, command):
    """Exit status and the sha256 of stdout then stderr; a leading NAME=value sets a variable."""
    monkeypatch.delenv("OSCTAB_MAX_ENUM", raising=False)
    words = command.split()
    if "=" in words[0]:
        monkeypatch.setenv(*words.pop(0).split("="))
    code, out, err = run_cli(capsys, *words)
    golden = GOLDENS["count_avg_weight_sha256"][command]
    assert (code, hashlib.sha256((out + err).encode()).hexdigest()) == (
        golden["status"], golden["sha256"]
    )


def test_avg_weight_formula_agreement(capsys):
    code, out, _ = run_cli(capsys, "avg-weight", "--shape", "-", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["details"]["enumerated"] == {"num": "10", "den": "3"}
    assert payload["details"]["formula"] == {"num": "10", "den": "3"}
    assert payload["details"]["equal"] is True


def test_avg_weight_skew(capsys):
    code, out, _ = run_cli(
        capsys, "avg-weight", "--shape", "1", "--mu", "1", "--length", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["details"]["enumerated"] == {"num": "10", "den": "3"}
    assert "formula" not in payload["details"]


@pytest.mark.parametrize(
    "mu, shape, n, length", [("-", "-", "2", "4"), ("-", "2,1", "2", "7"), ("1", "1", "1", "2")]
)
def test_avg_weight_consistent_n_and_length(capsys, mu, shape, n, length):
    argv = ("avg-weight", "--mu", mu, "--shape", shape, "--n", n)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert run_cli(capsys, *argv, "--length", length) == (0, out, "")


def test_avg_weight_empty_set_error(capsys):
    code, _, err = run_cli(capsys, "avg-weight", "--shape", "1", "--length", "2")
    assert code == 2
    assert "no walks" in err


def test_gf(capsys):
    code, out, _ = run_cli(capsys, "gf", "--shape", "-", "--length", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["details"]["weight_generating_function"] == {"2": "1", "4": "2"}


def test_stats_csv(capsys):
    code, out, _ = run_cli(capsys, "stats", "--n", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "matching,cr,ne,al,dyck,area,wt"
    assert lines[1] == "1-2;3-4,0,0,1,1010,0,2"
    assert lines[2] == "1-3;2-4,1,0,0,1100,1,4"
    assert lines[3] == "1-4;2-3,0,1,0,1100,1,4"


def test_stats_n1(capsys):
    code, out, _ = run_cli(capsys, "stats", "--n", "1")
    assert code == 0
    assert out.strip().splitlines()[1] == "1-2,0,0,0,10,0,1"


def test_stats_bound(capsys):
    code, _, err = run_cli(capsys, "stats", "--n", "9")
    assert code == 2
    assert "bound" in err
    for fmt in ("csv", "json"):
        code, out, err = run_cli(capsys, "stats", "--n", "9", "--format", fmt)
        assert code == 2
        assert out == ""
        assert err == "error: n = 9 exceeds the configured bound 8\n"


def test_stats_json(capsys):
    code, out, _ = run_cli(capsys, "stats", "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["details"]["rows"]) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ("stats", "--n", "9"),
        ("rs", "roundtrip", "--n", "9"),
        ("verify", "--suite", "rs", "--nmax", "9"),
        ("verify", "--suite", "stats", "--nmax", "9"),
        ("verify", "--suite", "all", "--nmax", "9"),
        ("homomesy", "--target-set", "matchings", "--n", "9"),
    ],
    ids=" ".join,
)
def test_a_matching_n_past_the_bound_is_refused_before_any_scan(monkeypatch, capsys, argv):
    def no_pairs(*args):
        raise AssertionError("a matching was paired before the bound was checked")

    monkeypatch.setattr(table, "_pairs", no_pairs)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "error: n = 9 exceeds the configured bound 8\n")


def stats_rows_oracle(n):
    """The stats rows built one matching at a time from the per-matching functions."""
    for m in matchings.enumerate_matchings(n):
        s = matchings.stats(m)
        word = matchings.dyck_of_matching(m)
        yield {
            "matching": matchings.format_matching(m).replace(",", ";"),
            "cr": s.crossings,
            "ne": s.nestings,
            "al": s.alignments,
            "dyck": word,
            "area": matchings.area(word),
            "wt": matchings.weight_of_alignments(n, s.alignments),
        }


@pytest.mark.parametrize("n", range(6))
def test_stats_bytes_equal_the_row_oracle(capsys, n):
    rows = list(stats_rows_oracle(n))
    csv = "matching,cr,ne,al,dyck,area,wt\n" + "".join(
        ",".join(str(value) for value in row.values()) + "\n" for row in rows
    )
    assert run_cli(capsys, "stats", "--n", str(n)) == (0, csv, "")
    payload = {"command": "stats", "parameters": {"n": n}, "outcome": "pass",
               "details": {"rows": rows}}
    expected = json.dumps(payload, indent=2) + "\n"
    assert run_cli(capsys, "stats", "--n", str(n), "--format", "json") == (0, expected, "")
    code, timed, _ = run_cli(capsys, "--timing", "stats", "--n", str(n), "--format", "json")
    assert code == 0
    elapsed = json.loads(timed)["elapsed_seconds"]
    assert timed == json.dumps({**payload, "elapsed_seconds": elapsed}, indent=2) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stats_n7_bytes_equal_the_golden(capsys, fmt):
    # past the row oracle's n <= 5, where a state key missing a field would show
    code, out, err = run_cli(capsys, "stats", "--n", "7", "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDENS["stats_n7_sha256"][fmt]


class WriteRecorder:
    """Stands in for sys.stdout and keeps every write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stats_streams_in_bounded_writes(monkeypatch, fmt):
    out = WriteRecorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["stats", "--n", "6", "--format", fmt]) == 0
    assert max(len(text.encode()) for text in out.writes) <= 64 * 1024
    text = "".join(out.writes)
    rows = text.splitlines()[1:] if fmt == "csv" else json.loads(text)["details"]["rows"]
    assert len(rows) == 10395
    # scan batches of 15 rows are grouped into writes of at least 16 KiB, over 64 rows in
    # either format; `fixed` allows for the CSV header or the report text around the rows
    fixed = 1 if fmt == "csv" else 4
    assert len(out.writes) <= -(-len(rows) // 64) + fixed


def test_q_table_streams_in_bounded_writes(monkeypatch):
    # an entry's text grows with l, to about 8 KiB at l = 34
    for lmax, count in ((30, 2856), (34, 4047)):
        out = WriteRecorder()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["diffposet", "q-table", "--lmax", str(lmax)]) == 0
        assert max(len(text.encode()) for text in out.writes) <= 64 * 1024
        entries = json.loads("".join(out.writes))["details"]["entries"]
        assert len(entries) == sum(map(len, diffposet.q_table(lmax))) == count


class NullWriter:
    """Stands in for sys.stdout and drops every write."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def traced_peak_mib(run) -> float:
    """Peak of the memory that Python allocates while `run()` runs, in MiB."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_q_table_holds_one_level_at_a_time(monkeypatch):
    # the whole table up to l = 24 peaks near 7.7 MiB; a level at a time, near 3 MiB
    monkeypatch.setattr(sys, "stdout", NullWriter())
    assert traced_peak_mib(lambda: main(["diffposet", "q-table", "--lmax", "24"])) < 5


def test_gf_keeps_only_the_last_level():
    # every level of column 0 up to l = 61 peaks near 22 MiB; the last two, near 3 MiB
    assert traced_peak_mib(lambda: diffposet.weight_generating_function((2, 1), 61)) < 10


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stats_keeps_nothing_per_prefix(monkeypatch, fmt):
    # matchings is imported above, so only the run counts: one block of rows kept per
    # prefix state peaked near 3.5 MiB (CSV) and 9.7 MiB (JSON); one template per
    # (free set, word), near 2 MiB in either format
    monkeypatch.setattr(sys, "stdout", NullWriter())
    assert traced_peak_mib(lambda: main(["stats", "--n", "7", "--format", fmt])) < 3


class HashWriter(NullWriter):
    """Stands in for sys.stdout and hashes every write, keeping none."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode())
        return len(text)


@pytest.mark.parametrize("n, fmt", [(6, "csv"), (6, "json"), (matchings.MAX_MATCHING_N, "csv")])
def test_stats_bytes_as_written_equal_the_golden(monkeypatch, n, fmt):
    # with the row oracle (n <= 5) and the n = 7 golden, every allowed n is pinned;
    # n = 8 is 141 MB of CSV, hashed as it is written and never held
    out = HashWriter()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["stats", "--n", str(n), "--format", fmt]) == 0
    assert out.sha.hexdigest() == GOLDENS[f"stats_n{n}_sha256"][fmt]


def test_q_table_writes_entries_before_the_last_level_is_built(monkeypatch):
    events = []
    real = diffposet.q_levels

    def spy(l_max, j_max):
        for l, level in enumerate(real(l_max, j_max)):
            events.append(("level", l))
            yield level

    class EntryWriter(NullWriter):
        def write(self, text):
            events.append(("write", '"l": ' in text))  # True: the write carries entries
            return len(text)

    monkeypatch.setattr(diffposet, "q_levels", spy)
    monkeypatch.setattr(sys, "stdout", EntryWriter())
    assert main(["diffposet", "q-table", "--lmax", "12"]) == 0
    assert events.index(("write", True)) < events.index(("level", 12))


def test_enumerate_streams_in_bounded_writes(monkeypatch):
    out = WriteRecorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["enumerate", "--shape", "-", "--length", "12"]) == 0
    assert max(len(text.encode()) for text in out.writes) <= 64 * 1024
    details = json.loads("".join(out.writes))["details"]
    assert details["count"] == "10395"
    assert len(details["walks"]) == 10395


class CallerRecorder(NullWriter):
    """Stands in for sys.stdout and notes the function that makes each write."""

    def __init__(self):
        self.callers = set()

    def write(self, text):
        frame = sys._getframe(1)
        self.callers.add(f"{frame.f_globals['__name__']}.{frame.f_code.co_name}")
        return len(text)


@pytest.mark.parametrize(
    "argv",
    [
        ("stats", "--n", "4", "--format", "csv"),
        ("stats", "--n", "4", "--format", "json"),
        ("diffposet", "b-table", "--lmax", "6"),
        ("enumerate", "--shape", "2,1", "--length", "5"),
        ("diffposet", "q-table", "--lmax", "6"),
        ("verify", "--suite", "skew"),
    ],
    ids=" ".join,
)
def test_only_main_writes_to_stdout(monkeypatch, argv):
    out = CallerRecorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(list(argv)) == 0
    assert out.callers == {"osctab.cli.main"}


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--shape", "2,1", "--n", "1"),
        ("rs", "forward", "--matching", "1-4,2-3"),
        ("skew-scan", "--max-mu", "1", "--max-shape", "1", "--max-length", "2", "--records"),
        ("enumerate", "--shape", "1", "--length", "3"),
        ("enumerate", "--shape", "2", "--length", "1"),  # no walks: "walks": []
        ("diffposet", "q-table", "--lmax", "3"),
        ("stats", "--n", "3", "--format", "json"),
    ],
)
def test_reports_print_as_json_dumps(capsys, argv):
    for timing in ((), ("--timing",)):
        code, out, _ = run_cli(capsys, *timing, *argv)
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        assert list(json.loads(out))[-1] == ("elapsed_seconds" if timing else "details")


def test_diffposet_q_table(capsys):
    code, out, _ = run_cli(capsys, "diffposet", "q-table", "--lmax", "4")
    assert code == 0
    payload = json.loads(out)
    entries = {
        (e["i"], e["j"], e["l"]): e["poly"] for e in payload["details"]["entries"]
    }
    assert entries[(0, 0, 4)] == {"2": "1", "4": "2"}
    assert entries[(1, 0, 1)] == {"1": "1"}


@pytest.mark.parametrize("lmax", sorted(GOLDENS["q_table_sha256"], key=int))
def test_q_table_bytes_equal_the_golden(capsys, lmax):
    code, out, err = run_cli(capsys, "diffposet", "q-table", "--lmax", lmax)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDENS["q_table_sha256"][lmax]


def test_diffposet_tables_csv(capsys):
    code, out, _ = run_cli(capsys, "diffposet", "b-table", "--lmax", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "i,l,b,c"
    assert "0,4,3,10" in lines
    code, out2, _ = run_cli(capsys, "diffposet", "c-table", "--lmax", "4")
    assert code == 0
    assert out2 == out


def test_diffposet_b_table_equals_closed_form_and_recurrence(capsys):
    code, out, _ = run_cli(capsys, "diffposet", "b-table", "--lmax", "16")
    assert code == 0
    rows = [tuple(map(int, line.split(","))) for line in out.strip().splitlines()[1:]]
    assert [(i, l) for i, l, _, _ in rows] == [
        (i, l) for l in range(17) for i in range(l + 1) if (l - i) % 2 == 0
    ]
    for i, l, b, c in rows:
        assert (b, c) == (normal_order_coefficient(i, 0, l), diffposet.c_rows(l)[l].get(i, 0))


def test_diffposet_verify_eq1(capsys):
    code, out, _ = run_cli(capsys, "diffposet", "verify-eq1", "--kmax", "3", "--nmax", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "pass"
    assert all(row["passed"] for row in payload["details"]["checks"])


def test_diffposet_verify_eq1_covers_the_requested_grid(capsys):
    code, out, _ = run_cli(capsys, "diffposet", "verify-eq1", "--kmax", "16", "--nmax", "0")
    assert code == 0
    checks = json.loads(out)["details"]["checks"]
    assert [(row["k"], row["n"]) for row in checks] == [(k, 0) for k in range(17)]
    assert all(row["passed"] for row in checks)
    code, out, _ = run_cli(capsys, "diffposet", "verify-eq1", "--kmax", "6", "--nmax", "5")
    assert code == 0
    assert len(json.loads(out)["details"]["checks"]) == 42
    # k + 2n = 17: the table has no length bound
    for kmax, nmax in ((17, 0), (1, 8)):
        argv = ("diffposet", "verify-eq1", "--kmax", str(kmax), "--nmax", str(nmax))
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        checks = json.loads(out)["details"]["checks"]
        assert [(row["k"], row["n"]) for row in checks] == [
            (k, n) for k in range(kmax + 1) for n in range(nmax + 1)
        ]
        assert all(row["passed"] for row in checks)


@pytest.mark.parametrize("argv, built", [
    (("diffposet", "q-table", "--lmax", "6"), [(6, 6)]),
    (("diffposet", "b-table", "--lmax", "5"), [(5, 0)]),
    (("diffposet", "c-table"), [(12, 0)]),
    (("diffposet", "verify-eq1", "--kmax", "3", "--nmax", "2"), [(7, 0)]),
    (("verify", "--suite", "diffposet"), [(14, 0)]),
])
def test_a_command_builds_only_the_table_columns_it_reads(capsys, monkeypatch, argv, built):
    calls = []
    real = diffposet.q_levels
    spy = lambda *bounds: calls.append(bounds) or real(*bounds)  # noqa: E731
    monkeypatch.setattr(diffposet, "q_levels", spy)
    assert run_cli(capsys, *argv)[0] == 0
    assert calls == built


def test_rs_forward_inverse(capsys):
    code, out, _ = run_cli(capsys, "rs", "forward", "--matching", "1-4,2-3")
    assert code == 0
    payload = json.loads(out)
    assert payload["details"]["tableau_text"] == "-|1|2|1|-"
    # values starting with "-" need the --option=value spelling
    code, out, _ = run_cli(capsys, "rs", "inverse", "--tableau=-|1|2|1|-")
    assert code == 0
    assert json.loads(out)["details"]["matching"] == "1-4,2-3"


@pytest.mark.parametrize("command, option", [("rs forward", "--matching"), ("rs inverse", "--tableau")])
def test_help_examples_run_as_printed(capsys, monkeypatch, command, option):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        main([*command.split(), "--help"])
    line = next(l for l in capsys.readouterr().out.splitlines() if l.lstrip().startswith(option))
    example = line.split("e.g. ", 1)[1]
    # an example that does not name its option is the value typed after it
    argv = shlex.split(example if example.startswith(option) else f"{option} {example}")
    assert run_cli(capsys, *command.split(), *argv)[0] == 0


def test_rs_forward_takes_the_empty_matching_that_inverse_prints(capsys):
    code, out, _ = run_cli(capsys, "rs", "inverse", "--tableau=-")
    assert code == 0
    assert json.loads(out)["details"]["matching"] == ""
    code, out, _ = run_cli(capsys, "rs", "forward", "--matching", "")
    assert code == 0
    assert json.loads(out)["details"]["tableau_text"] == "-"


def test_rs_forward_names_a_bad_matching_piece(capsys):
    code, out, err = run_cli(capsys, "rs", "forward", "--matching", "1-")
    assert (code, out) == (2, "")
    assert err == "error: matching piece '1-' is not of the form a-b\n"


def test_rs_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "rs", "roundtrip", "--n", "3")
    assert code == 0
    assert json.loads(out)["outcome"] == "pass"


def test_homomesy_matchings(capsys):
    code, out, _ = run_cli(capsys, "homomesy", "--target-set", "matchings", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "pass"
    assert payload["details"]["triples"] == [["1-2,3-4", "1-3,2-4", "1-4,2-3"]]
    assert payload["details"]["search"]["engine"] == "value-count"
    assert "time_seconds" not in payload["details"]["search"]
    assert payload["parameters"]["shape"] == "-"


def test_homomesy_large_set(capsys):
    # 10,395 items: deeper than the interpreter's recursion limit in triples
    code, out, _ = run_cli(capsys, "homomesy", "--target-set", "matchings", "--n", "6")
    assert code == 0
    details = json.loads(out)["details"]
    assert details["status"] == "certificate"
    assert len(details["triples"]) == 3465


def test_homomesy_tableaux(capsys):
    code, out, _ = run_cli(
        capsys, "homomesy", "--target-set", "tableaux", "--shape", "-", "--n", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["details"]["target"] == "10"
    assert len(payload["details"]["triples"]) == 1


def test_homomesy_divisibility_error(capsys):
    code, _, err = run_cli(capsys, "homomesy", "--target-set", "matchings", "--n", "1")
    assert code == 2
    assert "n >= 2" in err


@pytest.mark.parametrize("shape", ["2", "1,1"])
def test_homomesy_conjugation_closed_needs_a_self_conjugate_shape(capsys, shape):
    code, out, err = run_cli(
        capsys, "homomesy", "--target-set", "tableaux", "--shape", shape, "--n", "2",
        "--conjugation-closed",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "self-conjugate" in err


def test_homomesy_refuses_an_over_cap_walk_set_as_enumerate_does(capsys, monkeypatch):
    monkeypatch.setenv("OSCTAB_MAX_ENUM", "14")  # the walks to (1) at n = 2 number 15
    refused = run_cli(capsys, "enumerate", "--shape", "1", "--length", "5")
    assert refused[0] == 2 and "cap of 14" in refused[2]
    argv = ("homomesy", "--target-set", "tableaux", "--shape", "1", "--n", "2")
    assert run_cli(capsys, *argv) == refused


def test_homomesy_budget_exhausted_exit(capsys):
    code, out, _ = run_cli(
        capsys,
        "homomesy", "--target-set", "matchings", "--n", "4", "--budget-nodes", "2",
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["outcome"] == "budget-exhausted"
    assert payload["details"]["search"]["nodes"] == "2"


def test_homomesy_past_its_deadline_exits_3_at_0_nodes(capsys, monkeypatch):
    """The clock budget's deadline: a clock that moves an hour a reading puts the
    first node past it, so the search stops before any triple is tried."""
    hours = itertools.count(0, 3600)
    monkeypatch.setattr(kernels.time, "monotonic", lambda: next(hours))
    code, out, _ = run_cli(capsys, "homomesy", "--target-set", "matchings", "--n", "4",
                           "--budget-seconds", "60")
    assert code == 3
    payload = json.loads(out)
    assert payload["outcome"] == payload["details"]["status"] == "budget-exhausted"
    assert payload["details"]["search"]["nodes"] == "0"


def test_skew_scan(capsys):
    code, out, _ = run_cli(
        capsys, "skew-scan", "--max-mu", "0", "--max-shape", "4", "--max-length", "8"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["details"]["all_denominators_divide_3"] is True
    assert payload["details"]["max_denominator"] == "3"


def test_skew_scan_names_a_case_when_every_denominator_is_1(capsys):
    code, out, _ = run_cli(capsys, "skew-scan", "--max-mu", "1", "--max-shape", "0", "--max-length", "2")
    assert code == 0
    details = json.loads(out)["details"]
    assert (details["cases"], details["max_denominator"]) == (3, "1")
    case = details["max_denominator_case"]
    assert (case["mu"], case["shape"], case["length"], case["denominator"]) == ([], [], 0, "1")


def test_skew_scan_records_add_only_the_records_key(capsys):
    argv = ("skew-scan", "--max-mu", "3", "--max-shape", "4", "--max-length", "9")
    _, out, _ = run_cli(capsys, *argv)
    _, out_records, _ = run_cli(capsys, *argv, "--records")
    details = json.loads(out)["details"]
    details_records = json.loads(out_records)["details"]
    assert len(details_records.pop("records")) == details["cases"] == 353
    assert list(details_records.items()) == list(details.items())


def test_verify_small_suites(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "count", "--kmax", "2", "--nmax", "2")
    assert code == 0
    assert json.loads(out)["outcome"] == "pass"
    code, out, _ = run_cli(capsys, "verify", "--suite", "rs", "--nmax", "3")
    assert code == 0
    assert json.loads(out)["outcome"] == "pass"


@pytest.mark.parametrize(
    "argv, refused",
    [
        (("--suite", "skew", "--nmax", "0"), "--nmax"),
        (("--suite", "rs", "--kmax", "2", "--nmax", "2"), "--kmax"),
    ],
)
def test_verify_refuses_overrides_a_suite_does_not_take(capsys, argv, refused):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert f"takes no {refused} override" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("rs", "roundtrip", "--n", "0"),
        ("verify", "--suite", "rs", "--nmax", "0"),
    ],
)
def test_empty_battery_is_an_input_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "no checks" in err


def test_verify_all_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--kmax", "3", "--nmax", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "pass"
    assert payload["details"]["total"] > 100


def test_verify_all_bytes_equal_the_golden(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "all")
    assert (code, err) == (0, "")
    assert json.loads(out)["details"]["total"] == GOLDENS["verify_all"]["checks"]
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDENS["verify_all"]["sha256"]


def test_verify_stats_past_the_matching_bound_exits_2(capsys):
    # run_suite refuses n = 9 before any smaller n is scanned
    code, out, err = run_cli(capsys, "verify", "--suite", "stats", "--nmax", "9")
    golden = GOLDENS["verify_stats_nmax_9"]
    assert (code, out, err) == (golden["status"], golden["stdout"], golden["stderr"])


def test_output_reproducible(capsys):
    _, first, _ = run_cli(capsys, "homomesy", "--target-set", "matchings", "--n", "3")
    _, second, _ = run_cli(capsys, "homomesy", "--target-set", "matchings", "--n", "3")
    assert first == second
    _, first, _ = run_cli(capsys, "stats", "--n", "3")
    _, second, _ = run_cli(capsys, "stats", "--n", "3")
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--shape", "-", "--n", "1"),
        ("gf", "--shape", "1", "--length", "3"),
        ("diffposet", "q-table", "--lmax", "3"),
        ("rs", "forward", "--matching", "1-4,2-3"),
        ("rs", "roundtrip", "--n", "2"),
        ("stats", "--n", "2", "--format", "json"),
        ("homomesy", "--target-set", "matchings", "--n", "2"),
        ("skew-scan", "--max-mu", "1", "--max-shape", "2", "--max-length", "4"),
        ("verify", "--suite", "skew"),
    ],
)
def test_timing_flag_adds_elapsed(capsys, argv):
    code, out, _ = run_cli(capsys, "--timing", *argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["elapsed_seconds"] > 0
    assert list(payload)[-1] == "elapsed_seconds"
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "elapsed_seconds" not in json.loads(out)


@pytest.mark.parametrize(
    "argv, header",
    [
        (("stats", "--n", "2"), "matching,cr,ne,al,dyck,area,wt"),
        (("diffposet", "b-table", "--lmax", "4"), "i,l,b,c"),
    ],
)
def test_timing_flag_leaves_csv_alone(capsys, argv, header):
    code, timed, _ = run_cli(capsys, "--timing", *argv)
    assert code == 0
    assert timed.splitlines()[0] == header
    assert "elapsed" not in timed
    assert run_cli(capsys, *argv) == (0, timed, "")


@pytest.mark.parametrize(
    "argv, message",
    [
        # a plain ValueError from the matching parser
        (("rs", "forward", "--matching", "1-1"), "error: "),
        # an OsctabError (PartitionParseError)
        (("count", "--shape", "1,2", "--n", "1"), "weakly decreasing"),
        # --n 2 means length 4 here, so length 6 contradicts it
        (("avg-weight", "--shape", "-", "--n", "2", "--length", "6"), "does not match"),
        # matchings take no shape, so one given is refused rather than ignored
        (("homomesy", "--target-set", "matchings", "--n", "3", "--shape", "2"), "--shape"),
        # |shape| - |mu| + 2n = -2 is no length: refused, not reported as an empty walk set
        (("avg-weight", "--mu", "2", "--shape", "-", "--n", "0"),
         "error: --n 0 gives a negative length"),
    ],
)
def test_input_errors_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert message in err


@pytest.mark.parametrize("argv, error", [
    (("avg-weight", "--shape", "1"), "error: provide --length or --n\n"),
    (("count", "--shape", "2,x", "--n", "1"), "error: cannot parse partition from '2,x'\n"),
])
def test_a_missing_length_or_a_bad_shape_exits_2_with_its_message(capsys, argv, error):
    assert run_cli(capsys, *argv) == (2, "", error)


@pytest.mark.parametrize(
    "argv, status",
    [
        (("count", "--shape", "-", "--n", "1"), 0),
        (("count", "--shape", "1,2", "--n", "1"), 2),
        (("homomesy", "--target-set", "matchings", "--n", "5",
          "--budget-nodes", "2", "--budget-seconds", "0"), 3),
    ],
)
def test_exit_status_of_a_real_process(argv, status):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-m", "osctab.cli", *argv], env=env, capture_output=True, timeout=60
    )
    assert done.returncode == status, done.stderr


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_reader_that_closes_early_ends_the_run_quietly(fmt):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # 300 KB of rows, more than a pipe holds, so a write meets the closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "osctab.cli", "stats", "--n", "6", "--format", fmt],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""
    assert first in (b"matching,cr,ne,al,dyck,area,wt\n", b"{\n")


@pytest.mark.parametrize("command", GOLDENS["help_columns_80"], ids=lambda c: c or "osctab")
def test_help_text_is_unchanged(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*command.split(), "--help"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert (out, err) == (GOLDENS["help_columns_80"][command], "")


def subcommand_paths(parser, path=()):
    """(path, parser) of the program and of every subcommand, aliases included."""
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from subcommand_paths(sub, (*path, name))


def test_every_help_text_equals_the_golden(capsys, monkeypatch):
    """The sha256 of each --help, the program's and every subcommand's, as before the
    handlers left cli.py; a new subcommand needs a golden."""
    monkeypatch.setenv("COLUMNS", "80")
    golden = GOLDENS["help_sha256_columns_80"]
    paths = [" ".join(path) for path, _ in subcommand_paths(build_parser())]
    assert sorted(paths) == sorted(golden)
    for command in paths:
        with pytest.raises(SystemExit) as exc:
            main([*command.split(), "--help"])
        out, err = capsys.readouterr()
        assert (exc.value.code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == golden[command], command


HANDLER_MODULES = ("cli_walks", "cli_diffposet", "cli_matchings", "cli_skew", "cli_verify")


def test_every_subcommand_resolves_to_its_handler_without_running_it():
    """Each leaf of the parser resolves, without running it, to a cmd_* function of
    one handler module."""
    leaves = {
        " ".join(path): parser.get_default("handler")
        for path, parser in subcommand_paths(build_parser())
        if not parser._subparsers
    }
    assert len(leaves) == 15  # 14 handlers; `diffposet c-table` is b-table's alias
    handlers = {command: resolve() for command, resolve in leaves.items()}
    assert handlers["diffposet c-table"] is handlers["diffposet b-table"]
    assert len(set(handlers.values())) == 14
    for command, handler in handlers.items():
        assert handler.__name__.startswith("cmd_"), command
        assert handler.__module__.removeprefix("osctab.") in HANDLER_MODULES, command


def test_cli_defines_no_handler_and_no_handler_module_imports_it():
    """cli.py parses and dispatches; the handlers and the report envelope live apart,
    and none imports cli, which `python -m osctab.cli` runs as __main__."""
    cli = ast.parse((SRC / "osctab" / "cli.py").read_text())
    defined = [node.name for node in cli.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert not [name for name in defined if name.startswith("cmd_")]
    assert "RunReport" not in defined and "Streamed" not in defined
    for module in (*HANDLER_MODULES, "report"):
        tree = ast.parse((SRC / "osctab" / f"{module}.py").read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
                if node.module in (None, "osctab"):
                    imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert not imported & {"cli", "osctab.cli"}, module


@pytest.mark.parametrize(
    "argv, handler_module",
    [
        (("skew-scan", "--max-mu", "1", "--max-shape", "1", "--max-length", "2"), "cli_skew"),
        (("verify", "--suite", "skew"), "cli_verify"),
    ],
)
def test_a_module_run_does_not_import_cli_again(argv, handler_module):
    """`python -m osctab.cli` runs cli.py as __main__, as runpy does here; were
    osctab.cli imported too, cli.py would compile and run a second time."""
    script = (
        "import runpy, sys\n"
        "try:\n"
        "    runpy.run_module('osctab.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exit:\n"
        "    status = exit.code\n"
        "print(*sorted(sys.modules))\n"
        "sys.exit(status)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    modules = set(done.stdout.splitlines()[-1].split())
    assert {"osctab.report", f"osctab.{handler_module}"} <= modules
    assert "osctab.cli" not in modules


ENGINES = (
    "tableaux", "skew", "kernels", "laurent", "matchings", "table", "homomesy", "diffposet", "verify",
)
RATIONALS = ("fractions", "decimal")


def loaded_modules(argv):
    """The modules a fresh interpreter holds after `import osctab.cli` and main(argv)."""
    script = (
        "import sys\n"
        "from osctab.cli import main\n"
        "status = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        "print(*sorted(sys.modules))\n"
        "sys.exit(status)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


def module_names(names):
    """The sys.modules keys of names: osctab's modules by their short names, the
    standard library's as they are."""
    return {name if name in sys.stdlib_module_names else f"osctab.{name}" for name in names}


@pytest.mark.parametrize(
    "argv, loaded, absent",
    [
        ((), (), ENGINES),
        (("skew-scan", "--max-mu", "1", "--max-shape", "2", "--max-length", "3"),
         ("cli_skew", "skew"),
         ("tableaux", "verify", "diffposet", "homomesy", "matchings", "table", "laurent",
          "kernels")),
        (("count", "--shape", "2,1", "--n", "1"), ("cli_walks", "tableaux", "kernels"),
         ("skew", "table", *RATIONALS)),
        (("enumerate", "--shape", "1", "--length", "3"), ("cli_walks", "tableaux"),
         ("kernels", "skew", "table", *RATIONALS)),
        (("avg-weight", "--shape", "1", "--n", "1"), ("cli_walks", "tableaux", "kernels"),
         ("skew", "table")),
        (("gf", "--shape", "2,1", "--length", "5"), ("cli_diffposet", "diffposet"),
         ("tableaux", "skew", "kernels", "matchings", "table", "homomesy", "verify",
          *RATIONALS)),
        (("stats", "--n", "2"), ("cli_matchings", "matchings", "table"),
         ("verify", "diffposet", "tableaux", "skew", "laurent", "kernels")),
        (("homomesy", "--target-set", "matchings", "--n", "2"), ("cli_matchings", "homomesy"),
         ("verify", "diffposet", "table", "skew", *RATIONALS)),
        (("verify", "--suite", "skew"), ("cli_verify", *ENGINES), ()),
        (("rs", "forward", "--matching", "1-4,2-3"), ("cli_matchings", "matchings", "tableaux"),
         ("kernels", "table", "skew", *RATIONALS)),
        (("rs", "inverse", "--tableau=-|1|2|1|-"), ("cli_matchings", "matchings", "tableaux"),
         ("kernels", "table", "skew", *RATIONALS)),
        (("diffposet", "b-table", "--lmax", "4"), ("cli_diffposet", "diffposet"),
         ("tableaux", "skew", "kernels", "matchings", "table", "homomesy", "verify",
          *RATIONALS)),
    ],
)
def test_a_command_imports_only_what_it_runs(argv, loaded, absent):
    """A command loads its own handler module (first in `loaded`) and no other's."""
    modules = loaded_modules(argv)
    assert module_names(("cli", "report", *loaded)) <= modules
    assert not module_names((*absent, *set(HANDLER_MODULES) - set(loaded))) & modules
    assert "dataclasses" not in modules


def readme_cli_examples():
    """The command lines of README's `## CLI` code block, without `osctab` and comments."""
    section = (SRC.parent / "README.md").read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```\n", 2)[1]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()]


def test_the_readme_layout_names_every_module():
    """README's `## Layout` block lists each module of src/osctab but __init__, once."""
    section = (SRC.parent / "README.md").read_text().split("\n## Layout\n", 1)[1]
    block = section.split("```\n", 2)[1]
    listed = [line.split()[0] for line in block.splitlines()[1:]]
    modules = [path.name for path in (SRC / "osctab").glob("*.py") if path.stem != "__init__"]
    assert sorted(listed) == sorted(modules)


def test_the_readme_cli_examples_run(capsys):
    examples = readme_cli_examples()
    assert len(examples) == 15
    for argv in examples:
        assert run_cli(capsys, *argv)[0] == 0, argv


def test_the_benchmark_command_lines_parse():
    """Each command line of perfbench/workloads.py is one the CLI accepts."""
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS_PY)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    argvs = [command.argv for commands in workloads.WORKLOADS.values() for command in commands]
    assert argvs
    parser = build_parser()
    for argv in argvs:
        assert parser.parse_args(list(argv)).handler().__name__.startswith("cmd_")
