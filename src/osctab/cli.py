"""Command-line interface.

Every command prints a JSON report (or plain CSV for the table
commands).  Big integers are emitted as decimal strings and rationals
as {"num": ..., "den": ...} string pairs so downstream consumers never
round.  Output is byte-identical across runs by default; timing data is
only included with --timing since it would break that.

Exit status: 0 for pass and for search outcomes certificate/infeasible,
1 for a failed verification, 2 for usage or input errors, 3 for an
exhausted search budget.
"""

import argparse
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from . import diffposet, homomesy, matchings, tableaux, verify
from .errors import BoundExceededError, OsctabError
from .partitions import format_partition, parse_partition, size
from .util import max_enumeration_size

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2
EXIT_BUDGET = 3


@dataclass
class RunReport:
    """Envelope for one command invocation."""

    command: str
    parameters: dict[str, Any]
    outcome: str  # pass | fail | infeasible | budget-exhausted
    details: Any
    elapsed: float = 0.0

    def to_json(self, timing: bool = False) -> str:
        payload = {
            "command": self.command,
            "parameters": self.parameters,
            "outcome": self.outcome,
            "details": self.details,
        }
        if timing:
            payload["elapsed_seconds"] = round(self.elapsed, 6)
        return json.dumps(payload, indent=2, sort_keys=False)

    @property
    def exit_code(self) -> int:
        return {
            "pass": EXIT_PASS,
            "infeasible": EXIT_PASS,
            "fail": EXIT_FAIL,
            "budget-exhausted": EXIT_BUDGET,
        }[self.outcome]


def _frac(value: Fraction) -> dict[str, str]:
    return {"num": str(value.numerator), "den": str(value.denominator)}


def _tableau_json(tableau) -> list[list[int]]:
    return [list(step) for step in tableau]


def _emit(report: RunReport, timing: bool) -> int:
    print(report.to_json(timing))
    return report.exit_code


def _check_rows_payload(rows) -> tuple[str, list[dict[str, str]]]:
    outcome = "pass" if all(row.passed for row in rows) else "fail"
    payload = [
        {"check": row.name, "passed": row.passed, "lhs": row.lhs, "rhs": row.rhs}
        for row in rows
    ]
    return outcome, payload


def cmd_count(args) -> int:
    started = time.monotonic()
    shape = parse_partition(args.shape)
    formula = tableaux.count_formula(shape, args.n)
    details: dict[str, Any] = {"formula": str(formula)}
    outcome = "pass"
    if formula <= max_enumeration_size() and not args.skip_enumeration:
        enumerated = sum(1 for _ in tableaux.enumerate_ot((), shape, size(shape) + 2 * args.n))
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
    report = RunReport(
        "count",
        {"shape": format_partition(shape), "n": args.n},
        outcome,
        details,
        time.monotonic() - started,
    )
    return _emit(report, args.timing)


def cmd_enumerate(args) -> int:
    started = time.monotonic()
    start = parse_partition(args.mu)
    shape = parse_partition(args.shape)
    walks = [
        _tableau_json(t) for t in tableaux.enumerate_ot(start, shape, args.length)
    ]
    report = RunReport(
        "enumerate",
        {
            "mu": format_partition(start),
            "shape": format_partition(shape),
            "length": args.length,
        },
        "pass",
        {"count": str(len(walks)), "walks": walks},
        time.monotonic() - started,
    )
    return _emit(report, args.timing)


def cmd_avg_weight(args) -> int:
    started = time.monotonic()
    start = parse_partition(args.mu)
    shape = parse_partition(args.shape)
    if args.length is not None:
        length = args.length
    elif args.n is not None:
        length = size(shape) - size(start) + 2 * args.n
    else:
        raise OsctabError("provide --length or --n")
    enumerated = tableaux.average_weight_enumerated(start, shape, length)
    details: dict[str, Any] = {"enumerated": _frac(enumerated), "length": length}
    outcome = "pass"
    if start == () and args.n is not None:
        formula = tableaux.average_weight_formula(size(shape), args.n)
        details["formula"] = _frac(formula)
        details["equal"] = enumerated == formula
        details["average_size"] = _frac(tableaux.average_size_formula(size(shape), args.n))
        outcome = "pass" if enumerated == formula else "fail"
    report = RunReport(
        "avg-weight",
        {"mu": format_partition(start), "shape": format_partition(shape)},
        outcome,
        details,
        time.monotonic() - started,
    )
    return _emit(report, args.timing)


def cmd_gf(args) -> int:
    started = time.monotonic()
    shape = parse_partition(args.shape)
    poly = tableaux.weight_generating_function(shape, args.length)
    report = RunReport(
        "gf",
        {"shape": format_partition(shape), "length": args.length},
        "pass",
        {"weight_generating_function": poly.to_json_dict()},
        time.monotonic() - started,
    )
    return _emit(report, args.timing)


def cmd_diffposet(args) -> int:
    started = time.monotonic()
    if args.diffposet_command == "q-table":
        table = diffposet.q_table(args.lmax)
        entries = []
        for l in range(args.lmax + 1):
            for i in range(l + 1):
                for j in range(l + 1 - i):
                    poly = table.q(i, j, l)
                    if not poly.is_zero():
                        entries.append({"i": i, "j": j, "l": l, "poly": poly.to_json_dict()})
        report = RunReport(
            "diffposet q-table", {"lmax": args.lmax}, "pass", {"entries": entries},
            time.monotonic() - started,
        )
        return _emit(report, args.timing)
    if args.diffposet_command in ("b-table", "c-table"):
        table = diffposet.q_table(args.lmax)
        lines = ["i,l,b,c"]
        for l in range(args.lmax + 1):
            for i in range(l + 1):
                if (l - i) % 2:
                    continue
                lines.append(
                    f"{i},{l},{diffposet.b_value(i, l)},{diffposet.c_value(i, l, 'derivative', table)}"
                )
        print("\n".join(lines))
        return EXIT_PASS
    if args.diffposet_command == "verify-eq1":
        rows = []
        for k in range(args.kmax + 1):
            for n in range(args.nmax + 1):
                if k + 2 * n > diffposet.DEFAULT_POWER_BOUND:
                    continue
                rep = diffposet.verify_key_identity(k, n)
                rows.append(
                    {
                        "k": k,
                        "n": n,
                        "ratio": _frac(rep.ratio),
                        "closed_form": _frac(rep.closed_form),
                        "passed": rep.passed,
                    }
                )
        outcome = "pass" if all(r["passed"] for r in rows) else "fail"
        report = RunReport(
            "diffposet verify-eq1",
            {"kmax": args.kmax, "nmax": args.nmax},
            outcome,
            {"checks": rows},
            time.monotonic() - started,
        )
        return _emit(report, args.timing)
    raise OsctabError(f"unknown diffposet subcommand {args.diffposet_command!r}")


def cmd_rs(args) -> int:
    started = time.monotonic()
    if args.rs_command == "forward":
        matching = matchings.parse_matching(args.matching)
        tableau = matchings.matching_to_tableau(matching)
        report = RunReport(
            "rs forward",
            {"matching": matchings.format_matching(matching)},
            "pass",
            {
                "tableau": _tableau_json(tableau),
                "tableau_text": tableaux.format_tableau(tableau),
                "dyck": matchings.dyck_of_matching(matching),
                "weight": str(tableaux.weight(tableau)),
            },
            time.monotonic() - started,
        )
        return _emit(report, args.timing)
    if args.rs_command == "inverse":
        tableau = tableaux.parse_tableau(args.tableau)
        matching = matchings.tableau_to_matching(tableau)
        report = RunReport(
            "rs inverse",
            {"tableau": tableaux.format_tableau(tableau)},
            "pass",
            {"matching": matchings.format_matching(matching)},
            time.monotonic() - started,
        )
        return _emit(report, args.timing)
    if args.rs_command == "roundtrip":
        rows = verify.suite_rs(args.n)
        outcome, payload = _check_rows_payload(rows)
        report = RunReport(
            "rs roundtrip", {"n": args.n}, outcome, {"checks": payload},
            time.monotonic() - started,
        )
        return _emit(report, args.timing)
    raise OsctabError(f"unknown rs subcommand {args.rs_command!r}")


def _stats_rows(n):
    for m in matchings.enumerate_matchings(n):
        s = matchings.stats(m)
        word = matchings.dyck_of_matching(m)
        yield {
            "matching": matchings.format_matching(m, pair_sep=";"),
            "cr": s.crossings,
            "ne": s.nestings,
            "al": s.alignments,
            "dyck": word,
            "area": matchings.area(word),
            "wt": matchings.weight_of_alignments(n, s.alignments),
        }


def cmd_stats(args) -> int:
    started = time.monotonic()
    if args.n > matchings.MAX_MATCHING_N:
        raise BoundExceededError(
            f"n = {args.n} exceeds the configured bound {matchings.MAX_MATCHING_N}"
        )
    if args.format == "csv":
        # streamed: n = 8 means two million rows
        print("matching,cr,ne,al,dyck,area,wt")
        for row in _stats_rows(args.n):
            print(
                f"{row['matching']},{row['cr']},{row['ne']},{row['al']},"
                f"{row['dyck']},{row['area']},{row['wt']}"
            )
        return EXIT_PASS
    report = RunReport(
        "stats", {"n": args.n}, "pass", {"rows": list(_stats_rows(args.n))},
        time.monotonic() - started,
    )
    return _emit(report, args.timing)


def cmd_homomesy(args) -> int:
    started = time.monotonic()
    parallel = args.parallel and not args.deterministic
    if args.target_set == "matchings":
        result = homomesy.search_matchings(
            args.n,
            node_budget=args.budget_nodes,
            time_budget=args.budget_seconds,
            conjugation_closed=args.conjugation_closed,
            parallel=parallel,
        )
    else:
        shape = parse_partition(args.shape)
        result = homomesy.search_tableaux(
            shape,
            args.n,
            node_budget=args.budget_nodes,
            time_budget=args.budget_seconds,
            conjugation_closed=args.conjugation_closed,
            parallel=parallel,
        )
    details: dict[str, Any] = {
        "statistic": "alignments" if args.target_set == "matchings" else "weight",
        "target": str(result.target),
        "item_count": result.item_count,
        "search": {"nodes": str(result.nodes), "mode": result.mode},
        "status": result.status,
    }
    if args.timing:
        details["search"]["time_seconds"] = round(result.elapsed, 6)
    if result.partition:
        details["triples"] = [list(t) for t in result.partition.triples]
    outcome = {"certificate": "pass", "infeasible": "infeasible", "budget-exhausted": "budget-exhausted"}[
        result.status
    ]
    report = RunReport(
        "homomesy",
        {
            "target_set": args.target_set,
            "shape": args.shape,
            "n": args.n,
            "conjugation_closed": args.conjugation_closed,
        },
        outcome,
        details,
        time.monotonic() - started,
    )
    return _emit(report, args.timing)


def cmd_skew_scan(args) -> int:
    started = time.monotonic()
    report_data = tableaux.skew_denominator_scan(
        args.max_mu, args.max_shape, args.max_length, keep_records=args.records
    )

    def case_json(case):
        if case is None:
            return None
        return {
            "mu": list(case.start),
            "shape": list(case.shape),
            "length": case.length,
            "count": str(case.count),
            "average": _frac(case.average),
            "denominator": str(case.denominator),
        }

    details = {
        "cases": report_data.cases,
        "max_denominator": str(report_data.max_denominator),
        "max_denominator_case": case_json(report_data.max_denominator_case),
        "witness_exceeding_3": case_json(report_data.witness_exceeding_3),
        "all_denominators_divide_3": report_data.all_denominators_divide_3,
    }
    if args.records:
        details["records"] = [case_json(c) for c in report_data.records]
    report = RunReport(
        "skew-scan",
        {
            "max_mu": args.max_mu,
            "max_shape": args.max_shape,
            "max_length": args.max_length,
        },
        "pass",
        details,
        time.monotonic() - started,
    )
    return _emit(report, args.timing)


def cmd_verify(args) -> int:
    started = time.monotonic()
    rows = verify.run_suite(args.suite, args.kmax, args.nmax)
    outcome, payload = _check_rows_payload(rows)
    report = RunReport(
        "verify",
        {"suite": args.suite, "kmax": args.kmax, "nmax": args.nmax},
        outcome,
        {"checks": payload, "total": len(payload)},
        time.monotonic() - started,
    )
    return _emit(report, args.timing)


def _non_negative(convert):
    """argparse type: `convert` the text and reject negative values (and NaN)."""

    def parse(text: str):
        value = convert(text)
        if not value >= 0:
            raise argparse.ArgumentTypeError(f"must be non-negative, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


NON_NEGATIVE_INT = _non_negative(int)
NON_NEGATIVE_FLOAT = _non_negative(float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="osctab",
        description="Exact walk enumeration, matching statistics, and orbit search",
    )
    parser.add_argument("--timing", action="store_true", help="include elapsed times in output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="walk count: closed form vs enumeration")
    p.add_argument("--shape", required=True)
    p.add_argument("--n", type=NON_NEGATIVE_INT, required=True)
    p.add_argument("--skip-enumeration", action="store_true")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", help="list all walks as JSON")
    p.add_argument("--shape", required=True)
    p.add_argument("--mu", default="-", help="start partition (default empty)")
    p.add_argument("--length", type=NON_NEGATIVE_INT, required=True)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("avg-weight", help="average walk weight, exact")
    p.add_argument("--shape", required=True)
    p.add_argument("--mu", default="-")
    p.add_argument("--n", type=NON_NEGATIVE_INT)
    p.add_argument("--length", type=NON_NEGATIVE_INT)
    p.set_defaults(func=cmd_avg_weight)

    p = sub.add_parser("gf", help="weight generating function of walks to a shape")
    p.add_argument("--shape", required=True)
    p.add_argument("--length", type=NON_NEGATIVE_INT, required=True)
    p.set_defaults(func=cmd_gf)

    p = sub.add_parser("diffposet", help="operator coefficient tables and identities")
    dsub = p.add_subparsers(dest="diffposet_command", required=True)
    q = dsub.add_parser("q-table", help="Laurent coefficient table as JSON")
    q.add_argument("--lmax", type=NON_NEGATIVE_INT, default=8)
    q.set_defaults(func=cmd_diffposet)
    b = dsub.add_parser("b-table", help="integer coefficients as CSV (i,l,b,c)")
    b.add_argument("--lmax", type=NON_NEGATIVE_INT, default=12)
    b.set_defaults(func=cmd_diffposet)
    c = dsub.add_parser("c-table", help="weighted coefficients as CSV (i,l,b,c)")
    c.add_argument("--lmax", type=NON_NEGATIVE_INT, default=12)
    c.set_defaults(func=cmd_diffposet)
    v = dsub.add_parser("verify-eq1", help="coefficient-ratio identity check")
    v.add_argument("--kmax", type=NON_NEGATIVE_INT, default=6)
    v.add_argument("--nmax", type=NON_NEGATIVE_INT, default=5)
    v.set_defaults(func=cmd_diffposet)

    p = sub.add_parser("rs", help="matching <-> walk bijection")
    rsub = p.add_subparsers(dest="rs_command", required=True)
    f = rsub.add_parser("forward", help="matching to walk")
    f.add_argument("--matching", required=True, help='e.g. "1-4,2-3"')
    f.set_defaults(func=cmd_rs)
    i = rsub.add_parser("inverse", help="walk to matching")
    i.add_argument("--tableau", required=True, help='e.g. "-|1|2|1|-"')
    i.set_defaults(func=cmd_rs)
    r = rsub.add_parser("roundtrip", help="bijection battery up to n")
    r.add_argument("--n", type=NON_NEGATIVE_INT, default=5)
    r.set_defaults(func=cmd_rs)

    p = sub.add_parser("stats", help="per-matching statistics table")
    p.add_argument("--n", type=NON_NEGATIVE_INT, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("homomesy", help="search for constant-sum triple partitions")
    p.add_argument("--target-set", choices=("matchings", "tableaux"), required=True)
    p.add_argument("--shape", default="-")
    p.add_argument("--n", type=NON_NEGATIVE_INT, required=True)
    p.add_argument("--budget-nodes", type=NON_NEGATIVE_INT, default=homomesy.DEFAULT_NODE_BUDGET)
    p.add_argument(
        "--budget-seconds", type=NON_NEGATIVE_FLOAT, default=homomesy.DEFAULT_TIME_BUDGET
    )
    p.add_argument("--conjugation-closed", action="store_true",
                   help="restrict to triples closed under conjugation")
    p.add_argument("--parallel", action="store_true",
                   help="race top-level branches across processes (not deterministic)")
    p.add_argument("--deterministic", action=argparse.BooleanOptionalAction, default=True)
    p.set_defaults(func=cmd_homomesy)

    p = sub.add_parser("skew-scan", help="denominators of skew average weights")
    p.add_argument("--max-mu", type=NON_NEGATIVE_INT, default=3)
    p.add_argument("--max-shape", type=NON_NEGATIVE_INT, default=4)
    p.add_argument("--max-length", type=NON_NEGATIVE_INT, default=8)
    p.add_argument("--records", action="store_true", help="include every scanned case")
    p.set_defaults(func=cmd_skew_scan)

    p = sub.add_parser("verify", help="run a verification battery")
    p.add_argument(
        "--suite",
        choices=("count", "weight", "diffposet", "rs", "stats", "homomesy", "skew", "all"),
        default="all",
    )
    p.add_argument("--kmax", type=NON_NEGATIVE_INT, default=None)
    p.add_argument("--nmax", type=NON_NEGATIVE_INT, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OsctabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
