"""Command-line interface.

Every command prints a JSON report (or plain CSV for the table
commands).  Big integers are emitted as decimal strings and rationals
as {"num": ..., "den": ...} string pairs so downstream consumers never
round.  Output is byte-identical across runs by default; timing data is
only included with --timing since it would break that.

Each handler only computes: it returns a RunReport, or the text of its
CSV table.  `main` alone reads the clock, writes reports and errors, and
maps outcomes to exit statuses: 0 for pass and for search outcomes
certificate/infeasible, 1 for a failed verification, 2 for usage or
input errors, 3 for an exhausted search budget, and 141 (as for a
process killed by SIGPIPE) when the reader closes stdout early.  A
report prints as json.dumps(report, indent=2) does.  A list in its
details may be Streamed, computed while `main` writes it, so neither the
stats table, the enumerated walks nor the q-table sit in memory whole;
`main` groups the text into writes of at least WRITE_SIZE characters.

Each handler imports the engine modules it runs, and the options that
read engine constants (`homomesy`, `verify`) are added only when their
subcommand is parsed, so a process loads only what its command uses.
"""

import argparse
import json
import os
import sys
import time
from functools import cache
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from .errors import OsctabError
from .partitions import format_partition, parse_partition, size
from .util import max_enumeration_size, normal_order_coefficient

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2
EXIT_BUDGET = 3
EXIT_BROKEN_PIPE = 141

WRITE_SIZE = 16 * 1024  # `main` writes in runs of at least this many characters
_HOLE = "\0"  # marks a value that RunReport.text fills in; no argv string holds a NUL


class Streamed:
    """A list in a report's details whose items are computed while `main` writes them:
    texts of one or more items, joined by ",\n" and indented as a list in details
    indents them (six spaces).  Not a tuple, which json.dumps encodes as a list."""

    def __init__(self, items: Iterable[str]):
        self.items = items

    def pieces(self, pad: str) -> Iterator[str]:
        """The list as json.dumps(..., indent=2) lays it out under a key indented by pad."""
        sep = "[\n"
        for item in self.items:
            yield sep + item
            sep = ",\n"
        yield "[]" if sep == "[\n" else "\n" + pad + "]"


class RunReport(NamedTuple):
    """Envelope for one command invocation."""

    command: str
    parameters: dict[str, Any]
    outcome: str  # pass | fail | infeasible | budget-exhausted
    details: Any  # JSON data, whose lists may be Streamed

    def text(self, elapsed: Callable[[], float] | None = None) -> Iterator[str]:
        """The report as json.dumps(report, indent=2) prints it, and a newline, in pieces.

        A Streamed list's items are computed as its pieces are taken.  With
        `elapsed`, the last key is "elapsed_seconds", read after every other piece.
        """
        report = self._asdict()
        if elapsed is not None:
            report["elapsed_seconds"] = elapsed
        holes: list[Any] = []

        def hole(value: Any) -> str:
            holes.append(value)
            return _HOLE

        texts = (json.dumps(report, indent=2, default=hole) + "\n").split(json.dumps(_HOLE))
        yield texts[0]
        for before, value, after in zip(texts, holes, texts[1:]):
            if isinstance(value, Streamed):  # the key's indent comes before its quote
                yield from value.pieces(before[before.rfind("\n") + 1:].split('"', 1)[0])
            else:
                yield json.dumps(value())
            yield after

    @property
    def exit_code(self) -> int:
        return {
            "pass": EXIT_PASS,
            "infeasible": EXIT_PASS,
            "fail": EXIT_FAIL,
            "budget-exhausted": EXIT_BUDGET,
        }[self.outcome]


def _runs(pieces: Iterable[str]) -> Iterator[str]:
    """The pieces joined into runs of at least WRITE_SIZE characters, then the rest."""
    run, length = [], 0
    for piece in pieces:
        run.append(piece)
        length += len(piece)
        if length >= WRITE_SIZE:
            yield "".join(run)
            run, length = [], 0
    if length:
        yield "".join(run)


def _frac(value) -> dict[str, str]:
    """A Fraction as its numerator and denominator strings."""
    return {"num": str(value.numerator), "den": str(value.denominator)}


def _tableau_json(tableau) -> list[list[int]]:
    return [list(step) for step in tableau]


def _check_rows_payload(rows) -> tuple[str, list[dict[str, str]]]:
    if not rows:
        raise OsctabError("no checks in range; a battery with no checks cannot pass")
    outcome = "pass" if all(row.passed for row in rows) else "fail"
    payload = [
        {"check": row.name, "passed": row.passed, "lhs": row.lhs, "rhs": row.rhs}
        for row in rows
    ]
    return outcome, payload


def cmd_count(args) -> RunReport:
    from . import tableaux

    shape = parse_partition(args.shape)
    formula = tableaux.walk_count((), shape, size(shape) + 2 * args.n)
    details: dict[str, Any] = {"formula": str(formula)}
    outcome = "pass"
    if formula <= max_enumeration_size() and not args.skip_enumeration:
        enumerated = tableaux.walk_totals((), shape, size(shape) + 2 * args.n)[0]
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
    from . import tableaux

    start = parse_partition(args.mu)
    shape = parse_partition(args.shape)
    count = tableaux.refuse_over_cap(start, shape, args.length)  # "count" comes before "walks"
    # each distinct partition is rendered once, indented as a walk's step in the report
    step_json = cache(lambda step: json.dumps(list(step), indent=2).replace("\n", "\n        "))
    walks = (
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
        {"count": str(count), "walks": Streamed(walks)},
    )


def cmd_avg_weight(args) -> RunReport:
    from . import tableaux

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
    details: dict[str, Any] = {"enumerated": _frac(enumerated), "length": length}
    outcome = "pass"
    if start == () and args.n is not None:
        formula = tableaux.average_weight_formula(size(shape), args.n)
        details["formula"] = _frac(formula)
        details["equal"] = enumerated == formula
        details["average_size"] = _frac(tableaux.average_size_formula(size(shape), args.n))
        outcome = "pass" if enumerated == formula else "fail"
    return RunReport(
        "avg-weight",
        {"mu": format_partition(start), "shape": format_partition(shape)},
        outcome,
        details,
    )


def cmd_gf(args) -> RunReport:
    from . import diffposet

    shape = parse_partition(args.shape)
    poly = diffposet.weight_generating_function(shape, args.length)
    return RunReport(
        "gf",
        {"shape": format_partition(shape), "length": args.length},
        "pass",
        {"weight_generating_function": poly.to_json_dict()},
    )


def cmd_q_table(args) -> RunReport:
    from . import diffposet

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
    from . import diffposet

    yield "i,l,b,c\n"
    # column 0 of level l holds i = l, l - 2, ..., every entry nonzero
    for l, level in enumerate(diffposet.q_levels(args.lmax, 0)):
        yield "".join(
            f"{i},{l},{normal_order_coefficient(i, 0, l)},{q.derivative_at_one()}\n"
            for (i, _), q in level.items()
        )


def cmd_verify_eq1(args) -> RunReport:
    from . import diffposet

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
                    "ratio": _frac(rep.ratio),
                    "closed_form": _frac(rep.closed_form),
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


def cmd_rs_forward(args) -> RunReport:
    from . import matchings, tableaux

    matching = matchings.parse_matching(args.matching)
    tableau = matchings.matching_to_tableau(matching)
    return RunReport(
        "rs forward",
        {"matching": matchings.format_matching(matching)},
        "pass",
        {
            "tableau": _tableau_json(tableau),
            "tableau_text": tableaux.format_tableau(tableau),
            "dyck": matchings.dyck_of_matching(matching),
            "weight": str(tableaux.weight(tableau)),
        },
    )


def cmd_rs_inverse(args) -> RunReport:
    from . import matchings, tableaux

    tableau = tableaux.parse_tableau(args.tableau)
    matching = matchings.tableau_to_matching(tableau)
    return RunReport(
        "rs inverse",
        {"tableau": tableaux.format_tableau(tableau)},
        "pass",
        {"matching": matchings.format_matching(matching)},
    )


def cmd_rs_roundtrip(args) -> RunReport:
    from . import verify

    rows = verify.run_suite("rs", nmax=args.n)
    outcome, payload = _check_rows_payload(rows)
    return RunReport("rs roundtrip", {"n": args.n}, outcome, {"checks": payload})


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


def cmd_skew_scan(args) -> RunReport:
    from . import skew

    report_data = skew.skew_denominator_scan(args.max_mu, args.max_shape, args.max_length)

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
    return RunReport(
        "skew-scan",
        {
            "max_mu": args.max_mu,
            "max_shape": args.max_shape,
            "max_length": args.max_length,
        },
        "pass",
        details,
    )


def cmd_verify(args) -> RunReport:
    from . import verify

    rows = verify.run_suite(args.suite, args.kmax, args.nmax)
    outcome, payload = _check_rows_payload(rows)
    return RunReport(
        "verify",
        {"suite": args.suite, "kmax": args.kmax, "nmax": args.nmax},
        outcome,
        {"checks": payload, "total": len(payload)},
    )


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


class _Parser(argparse.ArgumentParser):
    """A parser that can take `options`, a function that adds its arguments
    when the parser is first used, so that a subcommand whose options come
    from an engine module imports it only when that subcommand runs."""

    def __init__(self, *args, options=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._options = options

    def parse_known_args(self, args=None, namespace=None):
        options, self._options = self._options, None
        if options is not None:
            options(self)
        return super().parse_known_args(args, namespace)


def _homomesy_options(p: argparse.ArgumentParser) -> None:
    from . import homomesy

    p.add_argument("--target-set", choices=("matchings", "tableaux"), required=True)
    p.add_argument("--shape")
    p.add_argument("--n", type=NON_NEGATIVE_INT, required=True)
    p.add_argument("--budget-nodes", type=NON_NEGATIVE_INT, default=homomesy.DEFAULT_NODE_BUDGET)
    p.add_argument(
        "--budget-seconds", type=NON_NEGATIVE_FLOAT, default=homomesy.DEFAULT_TIME_BUDGET,
        help="clock limit in seconds (default %(default)s); "
        "--budget-seconds 0 turns off the clock limit",
    )
    p.add_argument("--conjugation-closed", action="store_true",
                   help="restrict to triples closed under conjugation")


def _verify_options(p: argparse.ArgumentParser) -> None:
    from . import verify

    p.add_argument(
        "--suite",
        choices=(*verify.SUITES, "all"),
        default="all",
    )
    for key, meaning in (("kmax", "largest shape size"), ("nmax", "largest n")):
        takers = [name for name, keys in verify.SUITE_OVERRIDES.items() if key in keys]
        p.add_argument(f"--{key}", type=NON_NEGATIVE_INT, default=None,
                       help=f"{meaning}; taken by suites {', '.join(takers)}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="osctab",
        description="Exact walk enumeration, matching statistics, and orbit search",
    )
    parser.add_argument("--timing", action="store_true", help="include elapsed times in output")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

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
    q.set_defaults(func=cmd_q_table)
    b = dsub.add_parser(
        "b-table", aliases=["c-table"], help="integer and weighted coefficients as CSV (i,l,b,c)"
    )
    b.add_argument("--lmax", type=NON_NEGATIVE_INT, default=12)
    b.set_defaults(func=cmd_b_table)
    v = dsub.add_parser("verify-eq1", help="coefficient-ratio identity check")
    v.add_argument("--kmax", type=NON_NEGATIVE_INT, default=6)
    v.add_argument("--nmax", type=NON_NEGATIVE_INT, default=5)
    v.set_defaults(func=cmd_verify_eq1)

    p = sub.add_parser("rs", help="matching <-> walk bijection")
    rsub = p.add_subparsers(dest="rs_command", required=True)
    f = rsub.add_parser("forward", help="matching to walk")
    f.add_argument("--matching", required=True, help='e.g. "1-4,2-3"')
    f.set_defaults(func=cmd_rs_forward)
    i = rsub.add_parser("inverse", help="walk to matching")
    i.add_argument("--tableau", required=True, help='e.g. --tableau="-|1|2|1|-"')
    i.set_defaults(func=cmd_rs_inverse)
    r = rsub.add_parser("roundtrip", help="bijection battery up to n")
    r.add_argument("--n", type=NON_NEGATIVE_INT, default=5)
    r.set_defaults(func=cmd_rs_roundtrip)

    p = sub.add_parser("stats", help="per-matching statistics table")
    p.add_argument("--n", type=NON_NEGATIVE_INT, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "homomesy", help="search for constant-sum triple partitions", options=_homomesy_options
    )
    p.set_defaults(func=cmd_homomesy)

    p = sub.add_parser("skew-scan", help="denominators of skew average weights")
    p.add_argument("--max-mu", type=NON_NEGATIVE_INT, default=3)
    p.add_argument("--max-shape", type=NON_NEGATIVE_INT, default=4)
    p.add_argument("--max-length", type=NON_NEGATIVE_INT, default=8)
    p.add_argument("--records", action="store_true", help="include every scanned case")
    p.set_defaults(func=cmd_skew_scan)

    p = sub.add_parser(
        "verify",
        help="run a verification battery",
        epilog="A named suite exits 2 on an override it does not take; with --suite all "
        "each override goes only to the suites that take it.",
        options=_verify_options,
    )
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        output = args.func(args)
        if isinstance(output, RunReport):
            status = output.exit_code
            elapsed = (lambda: round(time.monotonic() - started, 6)) if args.timing else None
            output = output.text(elapsed)
        else:  # the text of a CSV table
            status = EXIT_PASS
        for run in _runs(output):
            sys.stdout.write(run)
        sys.stdout.flush()
    except (OsctabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:
        # the reader is gone (`osctab stats --n 6 | head -1`): what is still
        # buffered goes to devnull, so the flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    return status


if __name__ == "__main__":
    sys.exit(main())
