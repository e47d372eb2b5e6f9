"""The benchmark's workloads: osctab command lines and the checks on their output.

Every check compares a command's stdout and exit status with the
reference in reference.json, taken at the commit that introduced the
benchmark.  Node counts and --timing fields never enter a comparison:
search node counts are allowed to change.
"""

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from osctab.errors import CoverageError
from osctab.homomesy import TriplePartition, homomesy_verify, matching_items, tableau_items
from osctab.partitions import parse_partition

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())

# exit status the CLI must give for each search outcome
SEARCH_EXIT = {"certificate": 0, "infeasible": 0, "budget-exhausted": 3}


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Callable[[tuple[str, ...], bytes, int], Optional[str]]

    @property
    def is_search(self) -> bool:
        return self.argv[0] == "homomesy"


def check_verify(argv, stdout: bytes, status: int) -> Optional[str]:
    """Every check of the battery passes, and there are as many as in the reference."""
    if status != 0:
        return f"exit status {status}"
    doc = json.loads(stdout)
    checks = doc["details"]["checks"]
    expected = REFERENCE[" ".join(argv)]["checks"]
    failed = [row["check"] for row in checks if not row["passed"]]
    if doc["outcome"] != "pass" or failed:
        return f"outcome {doc['outcome']}, failed checks {failed[:3]}"
    if len(checks) != expected or doc["details"]["total"] != expected:
        return f"{len(checks)} checks, expected {expected}"
    return None


def check_digest(argv, stdout: bytes, status: int) -> Optional[str]:
    """Byte-identical stdout: SHA-256 and row count match the reference."""
    if status != 0:
        return f"exit status {status}"
    ref = REFERENCE[" ".join(argv)]
    rows = stdout.count(b"\n") - 1  # minus the CSV header
    if rows != ref["rows"]:
        return f"{rows} rows, expected {ref['rows']}"
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != ref["sha256"]:
        return f"stdout sha256 {digest} differs from the reference"
    return None


def check_details(argv, stdout: bytes, status: int) -> Optional[str]:
    """The report's `details` object equals the reference."""
    if status != 0:
        return f"exit status {status}"
    details = json.loads(stdout)["details"]
    if details != REFERENCE[" ".join(argv)]["details"]:
        return "details differ from the reference"
    return None


def _items(argv):
    opts = dict(zip(argv[1::2], argv[2::2]))
    n = int(opts["--n"])
    if opts["--target-set"] == "matchings":
        return matching_items(n)
    return tableau_items(parse_partition(opts["--shape"]), n)


def check_search(argv, stdout: bytes, status: int) -> Optional[str]:
    """Status in the allowed set, matching exit code, and every certificate verified.

    A certificate is re-checked with homomesy_verify against items the
    benchmark builds itself, never against anything the command printed.
    """
    ref = REFERENCE[" ".join(argv)]
    details = json.loads(stdout)["details"]
    outcome = details["status"]
    if outcome not in ref["allowed"]:
        return f"status {outcome}, allowed {ref['allowed']}"
    if status != SEARCH_EXIT[outcome]:
        return f"exit status {status} for {outcome}"
    if details["target"] != ref["target"] or details["item_count"] != ref["item_count"]:
        return f"target {details['target']} over {details['item_count']} items differs"
    if outcome != "certificate":
        return None
    triples = [tuple(triple) for triple in details.get("triples", [])]
    partition = TriplePartition(triples, int(ref["target"]))
    try:
        if not homomesy_verify(partition, _items(argv)):
            return "certificate triples do not share the target sum"
    except CoverageError:
        return "certificate triples do not partition the items"
    return None


# Why each workload exists is recorded in NOTES.md.  None uses
# `homomesy --parallel`, which starts a pool of os.cpu_count() workers.
WORKLOADS: dict[str, list[Command]] = {
    "verify-all": [Command(("verify", "--suite", "all"), check_verify)],
    "walk-profiles": [
        Command(("skew-scan", "--max-mu", "3", "--max-shape", "4", "--max-length", "9"),
                check_details),
    ],
    "matching-table": [Command(("stats", "--n", "7"), check_digest)],
    "orbit-search": [
        Command(("homomesy", "--target-set", "matchings", "--n", "5",
                 "--budget-nodes", "50000", "--budget-seconds", "0"), check_search),
        Command(("homomesy", "--target-set", "tableaux", "--shape", "2", "--n", "3",
                 "--budget-nodes", "200000", "--budget-seconds", "0"), check_search),
        Command(("homomesy", "--target-set", "matchings", "--n", "4",
                 "--budget-seconds", "0"), check_search),
        Command(("homomesy", "--target-set", "matchings", "--n", "5", "--conjugation-closed",
                 "--budget-seconds", "0"), check_search),
    ],
}


def plan(names: list[str], seed: int) -> list[tuple[str, list[Command]]]:
    """The workloads in seeded order, each with its commands in seeded order.

    The seed decides only the order; the commands themselves are fixed.
    """
    rng = random.Random(seed)
    names = list(names)
    rng.shuffle(names)
    out = []
    for name in names:
        commands = list(WORKLOADS[name])
        rng.shuffle(commands)
        out.append((name, commands))
    return out


def run_check(command: Command, stdout: bytes, status: int) -> Optional[str]:
    """The check's verdict; output that does not even parse is a failure too."""
    try:
        return command.check(command.argv, stdout, status)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
