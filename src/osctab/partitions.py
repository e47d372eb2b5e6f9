"""Integer partitions and their lattice of diagram inclusions.

Partitions are plain tuples of weakly decreasing positive integers; the
empty partition is the empty tuple.  Tuples keep equality, hashing and
ordering canonical, so partitions can serve directly as dictionary keys
in the linear-operator code.
"""

from math import factorial
from typing import Iterator, Sequence

from .errors import PartitionParseError

Partition = tuple[int, ...]
OscillatingTableau = tuple[Partition, ...]  # a walk: consecutive entries one box apart

EMPTY: Partition = ()


def as_partition(parts: Sequence[int]) -> Partition:
    """Normalize a part sequence to a valid partition tuple.

    Trailing zeros are dropped; anything not weakly decreasing and
    positive raises PartitionParseError.
    """
    parts = tuple(parts)
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    for i, part in enumerate(parts):
        if part <= 0:
            raise PartitionParseError(f"parts must be positive, got {part}")
        if i > 0 and parts[i - 1] < part:
            raise PartitionParseError(f"parts must be weakly decreasing, got {parts}")
    return parts


def parse_partition(text: str) -> Partition:
    """Parse the comma-separated text form; "" and "-" denote the empty partition."""
    text = text.strip()
    if text in ("", "-"):
        return EMPTY
    try:
        parts = tuple(int(piece) for piece in text.split(","))
    except ValueError as exc:
        raise PartitionParseError(f"cannot parse partition from {text!r}") from exc
    return as_partition(parts)


def format_partition(partition: Partition) -> str:
    """Inverse of parse_partition; the empty partition prints as "-"."""
    if not partition:
        return "-"
    return ",".join(str(part) for part in partition)


def size(partition: Partition) -> int:
    return sum(partition)


def covers_up(partition: Partition) -> list[Partition]:
    """All partitions obtained by adding one box, in decreasing-lex order.

    A box can be added at row i exactly when row i-1 is strictly longer
    (or i = 0), plus one new row at the bottom; that is one position per
    distinct part value plus one.
    """
    result = []
    for i, part in enumerate(partition):
        if i == 0 or partition[i - 1] > part:
            result.append(partition[:i] + (part + 1,) + partition[i + 1 :])
    result.append(partition + (1,))
    return result


def covers_down(partition: Partition) -> list[Partition]:
    """All partitions obtained by removing one box, scanning rows top to bottom.

    A box is removable from row i exactly when row i+1 is strictly
    shorter (or i is the last row); one position per distinct part value.
    """
    result = []
    for i, part in enumerate(partition):
        if i + 1 == len(partition) or partition[i + 1] < part:
            if part == 1:
                result.append(partition[:i])
            else:
                result.append(partition[:i] + (part - 1,) + partition[i + 1 :])
    return result


def box_step(prev: Partition, cur: Partition) -> tuple[int, int] | None:
    """(row, 1) when cur is prev plus a box in that row, (row, -1) when minus one.

    prev must be a partition; the step is returned only when cur is one
    too: a box added to row r needs row r-1 to be at least as long
    afterwards, and a box removed from row r needs row r+1 to be no
    longer afterwards.  None for any other pair.
    """
    rows = len(prev)
    if len(cur) == rows + 1:
        return (rows, 1) if cur[-1] == 1 and cur[:-1] == prev else None
    if len(cur) == rows - 1:
        return (rows - 1, -1) if prev[-1] == 1 and prev[:-1] == cur else None
    if len(cur) != rows:
        return None
    for row, (p, c) in enumerate(zip(prev, cur)):
        if c != p:
            if cur[row + 1 :] != prev[row + 1 :]:
                return None
            if c == p + 1:
                return (row, 1) if row == 0 or prev[row - 1] >= c else None
            if c == p - 1:
                return (row, -1) if c >= (prev[row + 1] if row + 1 < rows else 1) else None
            return None
    return None


def conjugate(partition: Partition) -> Partition:
    """Transpose of the Young diagram."""
    if not partition:
        return EMPTY
    cols = [0] * partition[0]
    for part in partition:
        for j in range(part):
            cols[j] += 1
    return tuple(cols)


def meet(p: Partition, q: Partition) -> Partition:
    """Intersection of the two diagrams (cellwise minimum of rows)."""
    return tuple(min(a, b) for a, b in zip(p, q))


def cover_distance(p: Partition, q: Partition) -> int:
    """Minimum number of single-box steps from p to q in the lattice.

    Boxes outside the common sub-diagram must be removed and the missing
    ones added, so the distance is |p| + |q| - 2*|meet(p, q)|.
    """
    return size(p) + size(q) - 2 * size(meet(p, q))


def hook_product(partition: Partition) -> int:
    """Product of all hook lengths of the diagram."""
    conj = conjugate(partition)
    product = 1
    for i, part in enumerate(partition):
        for j in range(part):
            product *= (part - j) + (conj[j] - i) - 1
    return product


def num_syt(partition: Partition) -> int:
    """Number of standard fillings of the diagram, |partition|! / hook product.

    The division is always exact; a nonzero remainder indicates a bug and
    raises RuntimeError.
    """
    quotient, remainder = divmod(factorial(size(partition)), hook_product(partition))
    if remainder:
        raise RuntimeError(f"hook product does not divide {size(partition)}! for {partition}")
    return quotient


def skew_syt_counts(outer: Partition) -> dict[Partition, int]:
    """{inner: f^(outer/inner)} for every partition inner inside outer.

    f^(outer/inner), the number of standard fillings of the skew diagram,
    counts the chains that remove its boxes one at a time from outer down
    to inner.  One pass down from outer, a size at a time, adds each
    partition's count into every partition one box below it; outer maps
    to 1 and () to num_syt(outer).  Keys run from outer down by size.
    """
    counts = {outer: 1}
    level = counts
    while level:
        below: dict[Partition, int] = {}
        for partition, count in level.items():
            for smaller in covers_down(partition):
                below[smaller] = below.get(smaller, 0) + count
        counts.update(below)
        level = below
    return counts


def partitions_of_size(n: int) -> Iterator[Partition]:
    """All partitions of n, in decreasing-lex order."""
    if n == 0:
        yield EMPTY
        return

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]) -> Iterator[Partition]:
        if remaining == 0:
            yield prefix
            return
        for part in range(min(cap, remaining), 0, -1):
            yield from rec(remaining - part, part, prefix + (part,))

    yield from rec(n, n, ())


def partitions_up_to(max_size: int) -> Iterator[Partition]:
    """All partitions of every size from 0 to max_size inclusive."""
    for n in range(max_size + 1):
        yield from partitions_of_size(n)
