"""The Laurent-table commands `gf` and `diffposet q-table|b-table|verify-eq1`, on diffposet."""

import json
from typing import Iterator

from . import diffposet
from .partitions import format_partition, parse_partition
from .report import RunReport, Streamed, frac
from .util import normal_order_coefficient


def cmd_gf(args) -> RunReport:
    shape = parse_partition(args.shape)
    poly = diffposet.weight_generating_function(shape, args.length)
    return RunReport(
        "gf",
        {"shape": format_partition(shape), "length": args.length},
        "pass",
        {"weight_generating_function": poly.to_json_dict()},
    )


def cmd_q_table(args) -> RunReport:
    def entries() -> Iterator[str]:
        """Each nonzero entry, indented as an item of "entries" in the report."""
        for l, level in enumerate(diffposet.q_table(args.lmax)):
            for (i, j), poly in level.items():
                entry = {"i": i, "j": j, "l": l, "poly": poly.to_json_dict()}
                yield "      " + json.dumps(entry, indent=2).replace("\n", "\n      ")

    return RunReport(
        "diffposet q-table", {"lmax": args.lmax}, "pass", {"entries": Streamed(entries())}
    )


def cmd_b_table(args) -> Iterator[str]:
    yield "i,l,b,c\n"
    # column 0 of level l holds i = l, l - 2, ..., every entry nonzero
    for l, level in enumerate(diffposet.q_levels(args.lmax, 0)):
        yield "".join(
            f"{i},{l},{normal_order_coefficient(i, 0, l)},{q.derivative_at_one()}\n"
            for (i, _), q in level.items()
        )


def cmd_verify_eq1(args) -> RunReport:
    # column 0 of every level up to the largest length in the grid
    levels = list(diffposet.q_levels(args.kmax + 2 * args.nmax, 0))
    rows = []
    for k in range(args.kmax + 1):
        for n in range(args.nmax + 1):
            rep = diffposet.verify_key_identity(k, n, levels)
            rows.append(
                {
                    "k": k,
                    "n": n,
                    "ratio": frac(rep.ratio),
                    "closed_form": frac(rep.closed_form),
                    "passed": rep.passed,
                }
            )
    outcome = "pass" if all(r["passed"] for r in rows) else "fail"
    return RunReport(
        "diffposet verify-eq1",
        {"kmax": args.kmax, "nmax": args.nmax},
        outcome,
        {"checks": rows},
    )
