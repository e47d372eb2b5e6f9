"""Self-time arithmetic, span recording and ratio reporting of the tracer."""

import io
import json

from tracing import RATIOS, Tracer, describe_ratio, install, layer_metrics, ratio, wrap_generator


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_nested_span_tree():
    clock = FakeClock()
    tracer = Tracer(run="r1", clock=clock)

    def at(t, action, *args):
        clock.now = t
        action(*args)

    at(0, tracer.enter, "A", True)
    at(1, tracer.enter, "B", True)
    at(2, tracer.enter, "C", False)
    at(3, tracer.leave)
    at(4, tracer.leave)  # B
    at(5, tracer.enter, "D", True)
    at(6, tracer.enter, "E", False)
    at(6.5, tracer.enter, "F", True)  # under an aggregated call: no span
    at(7, tracer.leave)
    at(8, tracer.leave)  # E
    at(9, tracer.leave)  # D
    at(10, tracer.leave)  # A

    assert dict(tracer.self_s) == {"A": 3, "B": 2, "C": 1, "D": 2, "E": 1.5, "F": 0.5}
    assert dict(tracer.total_s) == {"A": 10, "B": 3, "C": 1, "D": 4, "E": 2, "F": 0.5}
    assert [(s.name, s.start, s.end, s.parent, s.run) for s in tracer.spans] == [
        ("A", 0, 10, None, "r1"),
        ("B", 1, 4, 0, "r1"),
        ("D", 5, 9, 0, "r1"),
    ]
    out = io.StringIO()
    tracer.write_spans(out)
    lines = [json.loads(line) for line in out.getvalue().splitlines()]
    assert [line["id"] for line in lines] == [0, 1, 2]
    assert lines[2] == {"id": 2, "name": "D", "start": 5, "end": 9, "parent": 0, "run": "r1"}


def test_generator_time_excludes_the_consumer():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def produce():
        for item in range(3):
            clock.now += 1  # work inside the generator
            yield item

    items = []
    for item in wrap_generator(tracer, produce, "gen", "gen.items")():
        clock.now += 10  # work in the consumer
        items.append(item)
    assert items == [0, 1, 2]
    assert tracer.calls["gen"] == 1
    assert tracer.counts["gen.items"] == 3
    assert tracer.self_s["gen"] == 3


def test_ratio_is_reported_with_its_base():
    metrics = {
        "matchings.stats.calls": 270270,
        "matchings.enumerate_matchings.matchings": 135135,
    }
    metrics["matchings.stats.calls_per_row"] = ratio(270270, 135135)
    text = describe_ratio("matchings.stats.calls_per_row", metrics)
    assert text == ("2 = 270270 matchings.stats.calls / "
                    "135135 matchings.enumerate_matchings.matchings")
    assert ratio(5, 0) == 0.0
    for numerator, base in RATIOS.values():
        assert numerator in layer_metrics(Tracer()) and base in layer_metrics(Tracer())


def test_install_counts_a_search_and_restores_every_binding():
    from osctab import cli, homomesy, kernels, verify

    before = (kernels.triple_search, homomesy.stats, dict(verify.SUITES))
    tracer = Tracer()
    restore = install(tracer)
    try:
        assert cli.main(["homomesy", "--target-set", "matchings", "--n", "4",
                         "--budget-seconds", "0"]) == 0
    finally:
        restore()
    assert (kernels.triple_search, homomesy.stats, dict(verify.SUITES)) == before
    metrics = layer_metrics(tracer)
    assert metrics["kernels.triple_search.nodes"] == 35
    assert metrics["kernels.triple_search.certificate_triples"] == 35
    assert metrics["homomesy.triples_per_node"] == 1.0
    assert metrics["matchings.stats.calls"] == 105
    assert metrics["homomesy.search_matchings.calls"] == 1
    assert metrics["kernels.triple_search.self_s"] > 0
