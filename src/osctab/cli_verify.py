"""The batteries `verify` and `rs roundtrip`, on verify."""

from . import verify
from .errors import OsctabError
from .report import RunReport


def _check_rows_payload(rows) -> tuple[str, list[dict[str, str]]]:
    if not rows:
        raise OsctabError("no checks in range; a battery with no checks cannot pass")
    outcome = "pass" if all(row.passed for row in rows) else "fail"
    payload = [
        {"check": row.name, "passed": row.passed, "lhs": row.lhs, "rhs": row.rhs}
        for row in rows
    ]
    return outcome, payload


def cmd_rs_roundtrip(args) -> RunReport:
    rows = verify.run_suite("rs", nmax=args.n)
    outcome, payload = _check_rows_payload(rows)
    return RunReport("rs roundtrip", {"n": args.n}, outcome, {"checks": payload})


def cmd_verify(args) -> RunReport:
    rows = verify.run_suite(args.suite, args.kmax, args.nmax)
    outcome, payload = _check_rows_payload(rows)
    return RunReport(
        "verify",
        {"suite": args.suite, "kmax": args.kmax, "nmax": args.nmax},
        outcome,
        {"checks": payload, "total": len(payload)},
    )
