"""The `skew-scan` command, on skew alone."""

from . import skew
from .report import RunReport, frac


def cmd_skew_scan(args) -> RunReport:
    report_data = skew.skew_denominator_scan(args.max_mu, args.max_shape, args.max_length)

    def case_json(case):
        if case is None:
            return None
        return {
            "mu": list(case.start),
            "shape": list(case.shape),
            "length": case.length,
            "count": str(case.count),
            "average": frac(case.average),
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
