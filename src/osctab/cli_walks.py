"""The walk commands `count`, `enumerate` and `avg-weight`, on tableaux.

`count` and `avg-weight` check their closed forms against the walk DP,
which tableaux.weight_profile loads; `enumerate` lists walks.
"""

import json
from functools import cache
from typing import Any

from . import tableaux
from .errors import OsctabError
from .partitions import format_partition, parse_partition, size
from .report import RunReport, Streamed, frac


def cmd_count(args) -> RunReport:
    shape = parse_partition(args.shape)
    formula = tableaux.walk_count((), shape, size(shape) + 2 * args.n)
    details: dict[str, Any] = {"formula": str(formula)}
    outcome = "pass"
    if formula <= tableaux.max_enumeration_size() and not args.skip_enumeration:
        enumerated = sum(tableaux.weight_profile((), shape, size(shape) + 2 * args.n))
        details["enumerated"] = str(enumerated)
        details["equal"] = enumerated == formula
        outcome = "pass" if enumerated == formula else "fail"
    else:
        details["enumerated"] = None
        details["note"] = (
            "enumeration skipped (requested)"
            if args.skip_enumeration
            else "enumeration skipped (beyond configured bound)"
        )
    return RunReport("count", {"shape": format_partition(shape), "n": args.n}, outcome, details)


def cmd_enumerate(args) -> RunReport:
    start = parse_partition(args.mu)
    shape = parse_partition(args.shape)
    # each distinct partition is rendered once, indented as a walk's step in the report
    step_json = cache(lambda step: json.dumps(list(step), indent=2).replace("\n", "\n        "))
    walks = (  # enumerate_ot is called as this is built: an over-cap set is refused here
        "      [\n        " + ",\n        ".join(map(step_json, t)) + "\n      ]"
        for t in tableaux.enumerate_ot(start, shape, args.length)
    )
    return RunReport(
        "enumerate",
        {
            "mu": format_partition(start),
            "shape": format_partition(shape),
            "length": args.length,
        },
        "pass",
        {"count": str(tableaux.walk_count(start, shape, args.length)), "walks": Streamed(walks)},
    )


def cmd_avg_weight(args) -> RunReport:
    start = parse_partition(args.mu)
    shape = parse_partition(args.shape)
    if args.n is not None:
        length = size(shape) - size(start) + 2 * args.n
        if args.length is not None and args.length != length:
            raise OsctabError(
                f"--length {args.length} does not match --n {args.n}: "
                f"|shape| - |mu| + 2n = {length}"
            )
        if length < 0:
            raise OsctabError(
                f"--n {args.n} gives a negative length: |shape| - |mu| + 2n = {length}"
            )
    elif args.length is not None:
        length = args.length
    else:
        raise OsctabError("provide --length or --n")
    tableaux.refuse_over_cap(start, shape, length)
    enumerated = tableaux.average_weight_enumerated(start, shape, length)
    details: dict[str, Any] = {"enumerated": frac(enumerated), "length": length}
    outcome = "pass"
    if start == () and args.n is not None:
        formula = tableaux.average_weight_formula(size(shape), args.n)
        details["formula"] = frac(formula)
        details["equal"] = enumerated == formula
        details["average_size"] = frac(tableaux.average_size_formula(size(shape), args.n))
        outcome = "pass" if enumerated == formula else "fail"
    return RunReport(
        "avg-weight",
        {"mu": format_partition(start), "shape": format_partition(shape)},
        outcome,
        details,
    )
