"""The report envelope every command returns, and the exit statuses.

A handler returns a RunReport, or the text of its CSV table; `cli.main`
writes it in runs of at least WRITE_SIZE characters and maps its
outcome to an exit status: 0 for pass and for search outcomes
certificate/infeasible, 1 for a failed verification, 2 for usage or
input errors, 3 for an exhausted search budget, and 141 (as for a
process killed by SIGPIPE) when the reader closes stdout early.  A
report prints as json.dumps(report, indent=2) does.  A list in its
details may be Streamed, computed while `main` writes it, so neither the
stats table, the enumerated walks nor the q-table sit in memory whole.
Rationals print as {"num": ..., "den": ...} string pairs (frac).
"""

import json
from typing import Any, Callable, Iterable, Iterator, NamedTuple

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


def runs(pieces: Iterable[str]) -> Iterator[str]:
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


def frac(value) -> dict[str, str]:
    """A Fraction as its numerator and denominator strings."""
    return {"num": str(value.numerator), "den": str(value.denominator)}
