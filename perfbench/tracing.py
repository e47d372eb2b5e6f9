"""In-memory span recorder and the layer boundaries of osctab it wraps.

The traced run drives the CLI in-process through ``osctab.cli.main`` with
the module attributes below replaced by timing wrappers.  Each wrapper
stands at a boundary where one module calls into another (the binding the
caller looks up at call time), so the program's sources stay untouched.

Boundaries crossed fewer than about 10**4 times per run record one span
per call.  The hot ones (``cover_distance`` alone is crossed 659,373
times by ``verify --suite all``) only add to per-name call counts and
times.  A span opened while an aggregated call is active is aggregated
too, so a span's children never hide inside an unrecorded interval.

Self time is a call's duration minus the time its direct children (spans
and aggregated calls alike) cover.  Calls run on one thread and nest, so
the children's intervals never overlap and their durations add up.
"""

import importlib
import json
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from typing import Callable, Iterator, Optional

from osctab.kernels import STATUS_BUDGET


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span in Tracer.spans
    run: str


class Tracer:
    """Stack of open calls plus per-name totals, counters and recorded spans."""

    def __init__(self, run: str = "run", clock: Callable[[], float] = time.perf_counter):
        self.run = run
        self.clock = clock
        self.spans: list[Span] = []
        self.calls: Counter = Counter()
        self.edges: Counter = Counter()  # (caller name, callee name) -> calls
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()  # work counters named by the wrappers
        self.arguments: defaultdict = defaultdict(set)  # name -> distinct argument reprs
        self._stack: list[list] = []  # [name, start, child_s, span index or None]

    def call(self, name: str) -> None:
        """Count one call of `name` from the innermost open call."""
        self.calls[name] += 1
        self.edges[(self._stack[-1][0] if self._stack else None, name)] += 1

    def enter(self, name: str, span: bool) -> None:
        start = self.clock()
        index = None
        if span and (not self._stack or self._stack[-1][3] is not None):
            parent = self._stack[-1][3] if self._stack else None
            index = len(self.spans)
            self.spans.append(Span(name, start, 0.0, parent, self.run))
        self._stack.append([name, start, 0.0, index])

    def leave(self) -> None:
        end = self.clock()
        name, start, child_s, index = self._stack.pop()
        duration = end - start
        self.total_s[name] += duration
        self.self_s[name] += duration - child_s
        if index is not None:
            self.spans[index].end = end
        if self._stack:
            self._stack[-1][2] += duration

    def write_spans(self, out) -> None:
        """One JSON line per span to the text file `out`; ids are unique within a run."""
        for index, span in enumerate(self.spans):
            out.write(json.dumps({"id": index, **asdict(span)}) + "\n")


def wrap_call(tracer: Tracer, fn, name: str, span: bool, on_result=None):
    """Time every call of `fn` as `name`; `on_result(tracer, result, args, kwargs)` counts work."""

    def wrapper(*args, **kwargs):
        tracer.call(name)
        tracer.enter(name, span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave()
        if on_result is not None:
            on_result(tracer, result, args, kwargs)
        return result

    return wrapper


def wrap_generator(tracer: Tracer, fn, name: str, item_counter: str):
    """Time each resume of the generator `fn` returns, and count its items.

    A generator does its work while its consumer iterates, so the time
    between two resumes belongs to the consumer, not to `name`.
    """

    def resumes(gen) -> Iterator:
        while True:
            tracer.enter(name, False)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                tracer.leave()
            tracer.counts[item_counter] += 1
            yield item

    def wrapper(*args, **kwargs):
        tracer.call(name)
        return resumes(fn(*args, **kwargs))

    return wrapper


def _distinct(name: str):
    def on_result(tracer, result, args, kwargs):
        tracer.arguments[name].add(repr((args, sorted(kwargs.items()))))

    return on_result


def _profile_walks(tracer, result, args, kwargs):
    tracer.counts["tableaux.weight_profile.walks"] += sum(result)


def _joint_matchings(tracer, result, args, kwargs):
    tracer.counts["kernels.joint_distribution_counts.matchings"] += sum(result.values())


def _search_nodes(tracer, result, args, kwargs):
    status, triples, nodes = result
    tracer.counts["kernels.triple_search.nodes"] += nodes
    if status != STATUS_BUDGET:
        tracer.counts["kernels.triple_search.resolved_nodes"] += nodes
        tracer.counts["kernels.triple_search.certificate_triples"] += len(triples)


# (module, attribute, name, kind, on_result or item counter).  Kinds:
# "span" records a span per call, "agg" only aggregates, "gen" times the
# resumes of a generator.  Each attribute is the binding its callers use;
# the same function bound in two modules is wrapped in both.
BOUNDARIES = [
    ("osctab.tableaux", "cover_distance", "partitions.cover_distance", "agg", None),
    ("osctab.diffposet", "cover_distance", "partitions.cover_distance", "agg", None),
    ("osctab.tableaux", "covers_up", "partitions.covers_up", "agg", None),
    ("osctab.tableaux", "covers_down", "partitions.covers_down", "agg", None),
    ("osctab.diffposet", "covers_up", "partitions.covers_up", "agg", None),
    ("osctab.diffposet", "covers_down", "partitions.covers_down", "agg", None),
    ("osctab.tableaux", "enumerate_ot", "tableaux.enumerate_ot", "gen", "tableaux.enumerate_ot.walks"),
    ("osctab.homomesy", "enumerate_ot", "tableaux.enumerate_ot", "gen", "tableaux.enumerate_ot.walks"),
    ("osctab.tableaux", "weight_profile", "tableaux.weight_profile", "span", _profile_walks),
    ("osctab.kernels", "ot_weight_profile", "kernels.ot_weight_profile", "span", None),
    ("osctab.kernels", "matching_stats", "kernels.matching_stats", "agg", None),
    ("osctab.kernels", "joint_distribution_counts", "kernels.joint_distribution_counts", "span",
     _joint_matchings),
    ("osctab.kernels", "triple_search", "kernels.triple_search", "span", _search_nodes),
    ("osctab.matchings", "enumerate_matchings", "matchings.enumerate_matchings", "gen",
     "matchings.enumerate_matchings.matchings"),
    ("osctab.homomesy", "enumerate_matchings", "matchings.enumerate_matchings", "gen",
     "matchings.enumerate_matchings.matchings"),
    ("osctab.matchings", "stats", "matchings.stats", "agg", None),
    ("osctab.homomesy", "stats", "matchings.stats", "agg", None),
    ("osctab.matchings", "partner_array", "matchings.partner_array", "agg", None),
    ("osctab.matchings", "area", "matchings.area", "agg", None),
    ("osctab.matchings", "dyck_of_matching", "matchings.dyck_of_matching", "agg", None),
    ("osctab.matchings", "matching_to_tableau", "matchings.matching_to_tableau", "agg", None),
    ("osctab.matchings", "tableau_to_matching", "matchings.tableau_to_matching", "agg", None),
    ("osctab.diffposet", "q_table", "diffposet.q_table", "span", None),
    ("osctab.diffposet", "ud_straighten_check", "diffposet.ud_straighten_check", "span",
     _distinct("diffposet.ud_straighten_check")),
    ("osctab.laurent:LaurentPolynomial", "__add__", "laurent.add", "agg", None),
    ("osctab.laurent:LaurentPolynomial", "scale", "laurent.scale", "agg", None),
    ("osctab.laurent:LaurentPolynomial", "shift", "laurent.shift", "agg", None),
    ("osctab.homomesy", "matching_items", "homomesy.matching_items", "span", None),
    ("osctab.homomesy", "tableau_items", "homomesy.tableau_items", "span", None),
    ("osctab.verify", "matching_items", "homomesy.matching_items", "span", None),
    ("osctab.verify", "tableau_items", "homomesy.tableau_items", "span", None),
    ("osctab.verify", "homomesy_verify", "homomesy.homomesy_verify", "span", None),
    ("osctab.homomesy", "search_matchings", "homomesy.search_matchings", "span",
     _distinct("homomesy.search_matchings")),
    ("osctab.verify", "search_matchings", "homomesy.search_matchings", "span",
     _distinct("homomesy.search_matchings")),
]


def _resolve(path: str):
    """A module, or with "module:Class" a class in it."""
    module_name, _, class_name = path.partition(":")
    holder = importlib.import_module(module_name)
    return getattr(holder, class_name) if class_name else holder


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every boundary for `tracer`; returns the function that unwraps them."""
    from osctab import verify

    saved = []
    for holder_path, attr, name, kind, extra in BOUNDARIES:
        holder = _resolve(holder_path)
        original = getattr(holder, attr)
        saved.append((holder, attr, original))
        if kind == "gen":
            wrapped = wrap_generator(tracer, original, name, extra)
        else:
            wrapped = wrap_call(tracer, original, name, kind == "span", extra)
        setattr(holder, attr, wrapped)
    # run_suite looks suites up in this table, so the table is their binding
    suites = dict(verify.SUITES)
    for suite, fn in suites.items():
        verify.SUITES[suite] = wrap_call(tracer, fn, f"verify.suite_{suite}", True)

    def restore() -> None:
        for holder, attr, original in reversed(saved):
            setattr(holder, attr, original)
        verify.SUITES.update(suites)

    return restore


def ratio(numerator: float, base: float) -> float:
    """numerator / base, and 0.0 when the base is 0 (the layer did no work)."""
    return numerator / base if base else 0.0


# ratio metric -> (numerator metric, base metric); a ratio is reported with its base
RATIOS = {
    "tableaux.enumerate_ot.distance_calls_per_walk":
        ("tableaux.enumerate_ot.distance_calls", "tableaux.enumerate_ot.walks"),
    "matchings.stats.calls_per_row":
        ("matchings.stats.calls", "matchings.enumerate_matchings.matchings"),
    "kernels.triple_search.nodes_per_s":
        ("kernels.triple_search.nodes", "kernels.triple_search.self_s"),
    "homomesy.triples_per_node":
        ("kernels.triple_search.certificate_triples", "kernels.triple_search.resolved_nodes"),
}


def describe_ratio(name: str, metrics: dict[str, float]) -> str:
    """`name` = value, followed by the numerator and base it was computed from."""
    numerator, base = RATIOS[name]
    return f"{metrics[name]:.6g} = {metrics[numerator]:.6g} {numerator} / {metrics[base]:.6g} {base}"


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass over a workload."""
    calls, self_s, total_s, counts = tracer.calls, tracer.self_s, tracer.total_s, tracer.counts

    laurent = ("laurent.add", "laurent.scale", "laurent.shift")
    metrics = {
        "partitions.cover_distance.calls": calls["partitions.cover_distance"],
        "partitions.cover_distance.self_s": self_s["partitions.cover_distance"],
        "partitions.covers.calls": calls["partitions.covers_up"] + calls["partitions.covers_down"],
        "tableaux.enumerate_ot.walks": counts["tableaux.enumerate_ot.walks"],
        "tableaux.enumerate_ot.self_s": self_s["tableaux.enumerate_ot"],
        "tableaux.enumerate_ot.distance_calls":
            tracer.edges[("tableaux.enumerate_ot", "partitions.cover_distance")],
        "tableaux.weight_profile.calls": calls["tableaux.weight_profile"],
        "tableaux.weight_profile.walks": counts["tableaux.weight_profile.walks"],
        "kernels.ot_weight_profile.self_s": self_s["kernels.ot_weight_profile"],
        "kernels.matching_stats.calls": calls["kernels.matching_stats"],
        "kernels.matching_stats.self_s": self_s["kernels.matching_stats"],
        "matchings.stats.calls": calls["matchings.stats"],
        "matchings.enumerate_matchings.matchings": counts["matchings.enumerate_matchings.matchings"],
        "matchings.partner_array.calls": calls["matchings.partner_array"],
        "matchings.enumerate_matchings.self_s": self_s["matchings.enumerate_matchings"],
        "matchings.area.self_s": self_s["matchings.area"],
        "matchings.dyck_of_matching.self_s": self_s["matchings.dyck_of_matching"],
        "kernels.joint_distribution_counts.self_s": self_s["kernels.joint_distribution_counts"],
        "kernels.joint_distribution_counts.matchings":
            counts["kernels.joint_distribution_counts.matchings"],
        "matchings.bijection.self_s":
            self_s["matchings.matching_to_tableau"] + self_s["matchings.tableau_to_matching"],
        "kernels.triple_search.nodes": counts["kernels.triple_search.nodes"],
        "kernels.triple_search.self_s": self_s["kernels.triple_search"],
        "kernels.triple_search.resolved_nodes": counts["kernels.triple_search.resolved_nodes"],
        "kernels.triple_search.certificate_triples":
            counts["kernels.triple_search.certificate_triples"],
        "homomesy.items.self_s":
            self_s["homomesy.matching_items"] + self_s["homomesy.tableau_items"],
        "homomesy.homomesy_verify.self_s": self_s["homomesy.homomesy_verify"],
        "diffposet.q_table.calls": calls["diffposet.q_table"],
        "diffposet.q_table.self_s": self_s["diffposet.q_table"],
        "diffposet.ud_straighten_check.calls": calls["diffposet.ud_straighten_check"],
        "diffposet.ud_straighten_check.distinct": len(tracer.arguments["diffposet.ud_straighten_check"]),
        "laurent.ops.calls": sum(calls[name] for name in laurent),
        "laurent.self_s": sum(self_s[name] for name in laurent),
        "homomesy.search_matchings.calls": calls["homomesy.search_matchings"],
        "homomesy.search_matchings.distinct": len(tracer.arguments["homomesy.search_matchings"]),
        "cli.self_s": self_s["cli"],
    }
    for suite in ("count", "weight", "diffposet", "rs", "stats", "homomesy", "skew"):
        metrics[f"verify.suite_{suite}.total_s"] = total_s[f"verify.suite_{suite}"]
    for name, (numerator, base) in RATIOS.items():
        metrics[name] = ratio(metrics[numerator], metrics[base])
    return metrics
