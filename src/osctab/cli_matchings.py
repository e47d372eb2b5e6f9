"""The matching commands `rs forward`, `rs inverse`, `stats` and `homomesy`.

Each loads the engines beyond matchings that it runs: tableaux for `rs`,
table for `stats`, homomesy and kernels for `homomesy`.
"""

from itertools import chain
from typing import Any, Iterable

from . import matchings
from .errors import OsctabError
from .partitions import parse_partition
from .report import RunReport, Streamed


def cmd_rs_forward(args) -> RunReport:
    from . import tableaux

    matching = matchings.parse_matching(args.matching)
    tableau = matchings.matching_to_tableau(matching)
    return RunReport(
        "rs forward",
        {"matching": matchings.format_matching(matching)},
        "pass",
        {
            "tableau": [list(step) for step in tableau],
            "tableau_text": tableaux.format_tableau(tableau),
            "dyck": matchings.dyck_of_matching(matching),
            "weight": str(tableaux.weight(tableau)),
        },
    )


def cmd_rs_inverse(args) -> RunReport:
    from . import tableaux

    tableau = tableaux.parse_tableau(args.tableau)
    matching = matchings.tableau_to_matching(tableau)
    return RunReport(
        "rs inverse",
        {"tableau": tableaux.format_tableau(tableau)},
        "pass",
        {"matching": matchings.format_matching(matching)},
    )


def cmd_stats(args) -> RunReport | Iterable[str]:
    from . import table

    # both formats stream: n = 8 means two million rows
    rows = table.stats_table(args.n, args.format)
    if args.format == "csv":
        return chain(["matching,cr,ne,al,dyck,area,wt\n"], rows)
    return RunReport("stats", {"n": args.n}, "pass", {"rows": Streamed(rows)})


def cmd_homomesy(args) -> RunReport:
    from . import homomesy, kernels

    if args.shape is not None and args.target_set == "matchings":
        raise OsctabError("--shape applies only to --target-set tableaux")
    shape_text = "-" if args.shape is None else args.shape  # echoed as given, "-" if not
    budgets = {
        "node_budget": args.budget_nodes,
        "time_budget": args.budget_seconds,
        "conjugation_closed": args.conjugation_closed,
    }
    if args.target_set == "matchings":
        result = homomesy.search_matchings(args.n, **budgets)
    else:
        result = homomesy.search_tableaux(parse_partition(shape_text), args.n, **budgets)
    details: dict[str, Any] = {
        "statistic": "alignments" if args.target_set == "matchings" else "weight",
        "target": str(result.target),
        "item_count": result.item_count,
        "search": {"nodes": str(result.nodes), "engine": kernels.SEARCH_ENGINE},
        "status": result.status,
    }
    if args.timing:
        details["search"]["time_seconds"] = round(result.elapsed, 6)
    if result.partition:
        details["triples"] = [list(t) for t in result.partition.triples]
    return RunReport(
        "homomesy",
        {
            "target_set": args.target_set,
            "shape": shape_text,
            "n": args.n,
            "conjugation_closed": args.conjugation_closed,
        },
        "pass" if result.found else result.status,
        details,
    )
