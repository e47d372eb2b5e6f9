"""Command-line interface: the parser, and `main`, which runs one command.

Every command prints a JSON report (or plain CSV for the table
commands).  Big integers are emitted as decimal strings and rationals
as {"num": ..., "den": ...} string pairs so downstream consumers never
round.  Output is byte-identical across runs by default; timing data is
only included with --timing since it would break that.

The handlers live in five modules grouped by the engine they drive:
cli_walks, cli_diffposet, cli_matchings, cli_skew and cli_verify.  Each
handler only computes: it returns a report.RunReport, or the text of its
CSV table.  `main` imports only the handler module of the command it
runs; it alone reads the clock, writes reports and errors, and maps
outcomes to exit statuses (see report).  No handler module imports this
one: `python -m osctab.cli` runs it as __main__, and an import of
osctab.cli would compile and run it a second time.

A handler module imports the engines all its handlers run, and a handler
those only it runs; the options that read engine constants (`homomesy`,
`verify`) are added only when their subcommand is parsed.  So a process
loads only what its command uses.
"""

import argparse
import importlib
import os
import sys
import time
from types import ModuleType

from .errors import OsctabError
from .report import EXIT_BROKEN_PIPE, EXIT_ERROR, EXIT_PASS, RunReport, runs


def _handlers(module: str) -> ModuleType:
    """The handler module osctab.<module>, imported when its command runs."""
    return importlib.import_module(f"{__package__}.{module}")


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
    # each command's `handler` imports its handler module and returns the function

    p = sub.add_parser("count", help="walk count: closed form vs enumeration")
    p.add_argument("--shape", required=True)
    p.add_argument("--n", type=NON_NEGATIVE_INT, required=True)
    p.add_argument("--skip-enumeration", action="store_true")
    p.set_defaults(handler=lambda: _handlers("cli_walks").cmd_count)

    p = sub.add_parser("enumerate", help="list all walks as JSON")
    p.add_argument("--shape", required=True)
    p.add_argument("--mu", default="-", help="start partition (default empty)")
    p.add_argument("--length", type=NON_NEGATIVE_INT, required=True)
    p.set_defaults(handler=lambda: _handlers("cli_walks").cmd_enumerate)

    p = sub.add_parser("avg-weight", help="average walk weight, exact")
    p.add_argument("--shape", required=True)
    p.add_argument("--mu", default="-")
    p.add_argument("--n", type=NON_NEGATIVE_INT)
    p.add_argument("--length", type=NON_NEGATIVE_INT)
    p.set_defaults(handler=lambda: _handlers("cli_walks").cmd_avg_weight)

    p = sub.add_parser("gf", help="weight generating function of walks to a shape")
    p.add_argument("--shape", required=True)
    p.add_argument("--length", type=NON_NEGATIVE_INT, required=True)
    p.set_defaults(handler=lambda: _handlers("cli_diffposet").cmd_gf)

    p = sub.add_parser("diffposet", help="operator coefficient tables and identities")
    dsub = p.add_subparsers(dest="diffposet_command", required=True)
    q = dsub.add_parser("q-table", help="Laurent coefficient table as JSON")
    q.add_argument("--lmax", type=NON_NEGATIVE_INT, default=8)
    q.set_defaults(handler=lambda: _handlers("cli_diffposet").cmd_q_table)
    b = dsub.add_parser(
        "b-table", aliases=["c-table"], help="integer and weighted coefficients as CSV (i,l,b,c)"
    )
    b.add_argument("--lmax", type=NON_NEGATIVE_INT, default=12)
    b.set_defaults(handler=lambda: _handlers("cli_diffposet").cmd_b_table)
    v = dsub.add_parser("verify-eq1", help="coefficient-ratio identity check")
    v.add_argument("--kmax", type=NON_NEGATIVE_INT, default=6)
    v.add_argument("--nmax", type=NON_NEGATIVE_INT, default=5)
    v.set_defaults(handler=lambda: _handlers("cli_diffposet").cmd_verify_eq1)

    p = sub.add_parser("rs", help="matching <-> walk bijection")
    rsub = p.add_subparsers(dest="rs_command", required=True)
    f = rsub.add_parser("forward", help="matching to walk")
    f.add_argument("--matching", required=True, help='e.g. "1-4,2-3"')
    f.set_defaults(handler=lambda: _handlers("cli_matchings").cmd_rs_forward)
    i = rsub.add_parser("inverse", help="walk to matching")
    i.add_argument("--tableau", required=True, help='e.g. --tableau="-|1|2|1|-"')
    i.set_defaults(handler=lambda: _handlers("cli_matchings").cmd_rs_inverse)
    r = rsub.add_parser("roundtrip", help="bijection battery up to n")
    r.add_argument("--n", type=NON_NEGATIVE_INT, default=5)
    r.set_defaults(handler=lambda: _handlers("cli_verify").cmd_rs_roundtrip)

    p = sub.add_parser("stats", help="per-matching statistics table")
    p.add_argument("--n", type=NON_NEGATIVE_INT, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=lambda: _handlers("cli_matchings").cmd_stats)

    p = sub.add_parser(
        "homomesy", help="search for constant-sum triple partitions", options=_homomesy_options
    )
    p.set_defaults(handler=lambda: _handlers("cli_matchings").cmd_homomesy)

    p = sub.add_parser("skew-scan", help="denominators of skew average weights")
    p.add_argument("--max-mu", type=NON_NEGATIVE_INT, default=3)
    p.add_argument("--max-shape", type=NON_NEGATIVE_INT, default=4)
    p.add_argument("--max-length", type=NON_NEGATIVE_INT, default=8)
    p.add_argument("--records", action="store_true", help="include every scanned case")
    p.set_defaults(handler=lambda: _handlers("cli_skew").cmd_skew_scan)

    p = sub.add_parser(
        "verify",
        help="run a verification battery",
        epilog="A named suite exits 2 on an override it does not take; with --suite all "
        "each override goes only to the suites that take it.",
        options=_verify_options,
    )
    p.set_defaults(handler=lambda: _handlers("cli_verify").cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        output = args.handler()(args)
        if isinstance(output, RunReport):
            status = output.exit_code
            elapsed = (lambda: round(time.monotonic() - started, 6)) if args.timing else None
            output = output.text(elapsed)
        else:  # the text of a CSV table
            status = EXIT_PASS
        for run in runs(output):
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
