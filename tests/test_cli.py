import json

import pytest

from osctab.cli import main


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


def test_stats_json(capsys):
    code, out, _ = run_cli(capsys, "stats", "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["details"]["rows"]) == 3


def test_diffposet_q_table(capsys):
    code, out, _ = run_cli(capsys, "diffposet", "q-table", "--lmax", "4")
    assert code == 0
    payload = json.loads(out)
    entries = {
        (e["i"], e["j"], e["l"]): e["poly"] for e in payload["details"]["entries"]
    }
    assert entries[(0, 0, 4)] == {"2": "1", "4": "2"}
    assert entries[(1, 0, 1)] == {"1": "1"}


def test_diffposet_tables_csv(capsys):
    code, out, _ = run_cli(capsys, "diffposet", "b-table", "--lmax", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "i,l,b,c"
    assert "0,4,3,10" in lines
    code, out2, _ = run_cli(capsys, "diffposet", "c-table", "--lmax", "4")
    assert code == 0
    assert out2 == out


def test_diffposet_verify_eq1(capsys):
    code, out, _ = run_cli(capsys, "diffposet", "verify-eq1", "--kmax", "3", "--nmax", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "pass"
    assert all(row["passed"] for row in payload["details"]["checks"])


def test_rs_forward_inverse(capsys):
    code, out, _ = run_cli(capsys, "rs", "forward", "--matching", "1-4,2-3")
    assert code == 0
    payload = json.loads(out)
    assert payload["details"]["tableau_text"] == "-|1|2|1|-"
    # values starting with "-" need the --option=value spelling
    code, out, _ = run_cli(capsys, "rs", "inverse", "--tableau=-|1|2|1|-")
    assert code == 0
    assert json.loads(out)["details"]["matching"] == "1-4,2-3"


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
    assert payload["details"]["search"]["mode"] == "sequential"
    assert "time_seconds" not in payload["details"]["search"]


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


def test_homomesy_budget_exhausted_exit(capsys):
    code, out, _ = run_cli(
        capsys,
        "homomesy", "--target-set", "matchings", "--n", "4", "--budget-nodes", "2",
    )
    assert code == 3
    assert json.loads(out)["outcome"] == "budget-exhausted"


def test_skew_scan(capsys):
    code, out, _ = run_cli(
        capsys, "skew-scan", "--max-mu", "0", "--max-shape", "4", "--max-length", "8"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["details"]["all_denominators_divide_3"] is True
    assert payload["details"]["max_denominator"] == "3"


def test_verify_small_suites(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "count", "--kmax", "2", "--nmax", "2")
    assert code == 0
    assert json.loads(out)["outcome"] == "pass"
    code, out, _ = run_cli(capsys, "verify", "--suite", "rs", "--nmax", "3")
    assert code == 0
    assert json.loads(out)["outcome"] == "pass"


def test_verify_all_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--kmax", "3", "--nmax", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "pass"
    assert payload["details"]["total"] > 100


def test_output_reproducible(capsys):
    _, first, _ = run_cli(capsys, "homomesy", "--target-set", "matchings", "--n", "3")
    _, second, _ = run_cli(capsys, "homomesy", "--target-set", "matchings", "--n", "3")
    assert first == second
    _, first, _ = run_cli(capsys, "stats", "--n", "3")
    _, second, _ = run_cli(capsys, "stats", "--n", "3")
    assert first == second


def test_timing_flag_adds_elapsed(capsys):
    code, out, _ = run_cli(capsys, "--timing", "count", "--shape", "-", "--n", "1")
    assert code == 0
    assert "elapsed_seconds" in json.loads(out)
