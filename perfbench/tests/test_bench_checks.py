"""The output checks reject tampered outputs and unverifiable certificates."""

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import workloads
from osctab import cli
from tracing import Tracer, layer_metrics

SEARCH = ("homomesy", "--target-set", "matchings", "--n", "4", "--budget-seconds", "0")


def command(argv):
    return next(c for cs in workloads.WORKLOADS.values() for c in cs if c.argv == argv)


def run_cli(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        status = cli.main(list(argv))
    return out.getvalue().encode(), status


def test_digest_check_rejects_a_tampered_stdout(monkeypatch):
    stdout = b"matching,cr,ne,al,dyck,area,wt\n1-2,0,0,0,10,0,1\n"
    argv = ("stats", "--n", "7")
    monkeypatch.setitem(workloads.REFERENCE, " ".join(argv),
                        {"sha256": hashlib.sha256(stdout).hexdigest(), "rows": 1})
    check = command(argv)
    assert workloads.run_check(check, stdout, 0) is None
    tampered = stdout.replace(b"1-2,0", b"1-2,1")
    assert "sha256" in workloads.run_check(check, tampered, 0)
    assert "rows" in workloads.run_check(check, stdout + b"extra\n", 0)
    assert "exit status" in workloads.run_check(check, stdout, 1)


def test_search_check_verifies_the_certificate():
    stdout, status = run_cli(SEARCH)
    check = command(SEARCH)
    assert workloads.run_check(check, stdout, status) is None

    doc = json.loads(stdout)
    triples = doc["details"]["triples"]
    values = dict(workloads.matching_items(4))
    # swap two items of different value between the first two triples:
    # still an exact cover, but two triple sums move off the target
    a, b = next((i, j) for i in range(3) for j in range(3)
                if values[triples[0][i]] != values[triples[1][j]])
    triples[0][a], triples[1][b] = triples[1][b], triples[0][a]
    swapped = json.dumps(doc).encode()
    assert "target sum" in workloads.run_check(check, swapped, status)

    doc["details"]["triples"] = triples[1:]
    assert "partition" in workloads.run_check(check, json.dumps(doc).encode(), status)


def test_search_check_rejects_a_worse_status():
    stdout, status = run_cli(SEARCH)
    doc = json.loads(stdout)
    doc["details"]["status"] = "budget-exhausted"
    del doc["details"]["triples"]
    problem = workloads.run_check(command(SEARCH), json.dumps(doc).encode(), 3)
    assert "allowed" in problem
    assert "unreadable" in workloads.run_check(command(SEARCH), b"not json", 0)


def test_seed_orders_workloads_and_commands_only():
    names = list(workloads.WORKLOADS)
    first = workloads.plan(names, 7)
    assert first == workloads.plan(names, 7)
    orders = {tuple(name for name, _ in workloads.plan(names, seed)) for seed in range(20)}
    assert len(orders) > 1
    for name, commands in first:
        assert sorted(c.argv for c in commands) == sorted(c.argv for c in workloads.WORKLOADS[name])


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((Path(workloads.__file__).parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    reported = set(layer_metrics(Tracer())) | {"cli.bytes_out", "cli.writes", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == reported
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_ref", "setup_s", "peak_rss_mb", "resolved"}

