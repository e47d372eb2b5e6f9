#!/usr/bin/env python3
"""Compare two results written by run.py (files under .perfbench/).

    python3 perfbench/compare.py BEFORE.json AFTER.json

Prints, for every workload and metric the two results share, both
medians with their sample counts and the ratio AFTER / BEFORE.  Refuses,
with exit status 2, to compare results whose kernel backends differ:
the compiled and pure kernels differ by up to two orders of magnitude,
so such a comparison says nothing about the change under test.
"""

import json
import sys


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (json.loads(open(path, encoding="utf-8").read()) for path in argv)
    backends = before["environment"]["backend"], after["environment"]["backend"]
    if backends[0] != backends[1]:
        print(f"error: refusing to compare backend {backends[0]!r} with {backends[1]!r}",
              file=sys.stderr)
        return 2
    for name, old in before["workloads"].items():
        new = after["workloads"].get(name)
        if new is None:
            continue
        for metric, a in old["metrics"].items():
            b = new["metrics"].get(metric)
            if b is None:
                continue
            change = f"{b['value'] / a['value']:.3f}x" if a["value"] else "n/a"
            print(f"{name:15} {metric:46} {a['value']:12.6g} (n={a['n']}) -> "
                  f"{b['value']:12.6g} (n={b['n']}) {a['unit']:8} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
