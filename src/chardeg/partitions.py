"""Integer partitions, Young-diagram hook lengths, and exact degrees.

The hook product H of a partition gives the exact degree n!/H of the
corresponding irreducible character of the symmetric group (the
Frame-Robinson-Thrall hook-length formula).  hook_product, the package's
one route to H, evaluates it as a product of falling factorials, one per
(row, corner) pair, without listing a single hook.  hooks lists the grid of
hook lengths, row by row; only the `hook` subcommand, which prints the
grid, needs it.  Partition is an immutable NamedTuple compared by value; it
checks its parts in __new__, so every instance is a partition.
"""

import math
import re
from typing import Iterator, NamedTuple

__all__ = [
    "Partition",
    "parse_partition",
    "hooks",
    "hook_product",
    "degree",
    "enumerate_gamma",
    "partitions_of",
]


class _PartitionFields(NamedTuple):
    parts: tuple[int, ...]


class Partition(_PartitionFields):
    """Weakly decreasing positive parts.  The empty partition is legal."""

    __slots__ = ()

    def __new__(cls, parts: tuple[int, ...]):
        prev = None
        for p in parts:
            if p < 1:
                raise ValueError("partition parts must be positive")
            if prev is not None and p > prev:
                raise ValueError("partition parts must be weakly decreasing")
            prev = p
        return super().__new__(cls, parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram (column lengths).

        Column j has one node per part greater than j; walking j upward, the
        count only drops, so the parts are each passed once: O(lam_1 + len)."""
        parts = self.parts
        count = len(parts)
        cols = []
        for j in range(parts[0] if parts else 0):
            while parts[count - 1] <= j:
                count -= 1
            cols.append(count)
        return Partition(tuple(cols))

    def is_self_conjugate(self) -> bool:
        return self.conjugate() == self

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)


_TERM_RE = re.compile(r"^([0-9]+)(?:\^([0-9]+))?$")

# parse_partition refuses larger partitions; at this size `hook --partition
# 100^100` prints 80 KB in 0.04 s (in-process, 2-CPU x86-64 box).
PARTITION_MAX_SIZE = 10_000


def parse_partition(text: str) -> Partition:
    """Parse "3,2,2" or the exponential form "3,2^2", where a^k stands for k
    parts equal to a; str of the result is the first form.  A partition of
    size above PARTITION_MAX_SIZE is refused before its parts are listed."""
    text = text.strip()
    if not text:
        return Partition(())
    parts: list[int] = []
    size = 0
    for chunk in text.split(","):
        m = _TERM_RE.match(chunk.strip())
        if not m:
            raise ValueError(f"bad partition term {chunk!r}")
        val = int(m.group(1))
        count = int(m.group(2)) if m.group(2) else 1
        if count < 1:
            raise ValueError(f"bad exponent in {chunk!r}")
        # A zero part is refused by Partition, but only once the list is built.
        size += max(val, 1) * count
        if size > PARTITION_MAX_SIZE:
            raise ValueError(f"partition size is above the maximum {PARTITION_MAX_SIZE}")
        parts.extend([val] * count)
    return Partition(tuple(parts))


def hooks(lam: Partition) -> tuple[tuple[int, ...], ...]:
    """The hook length of each node, row by row, via column counts of the
    conjugate: for the node (i, j), h = (arm) + (leg) + 1 =
    (lam_i - j) + (lam'_j - i) - 1 in 0-based terms."""
    conj = lam.conjugate().parts
    return tuple(
        tuple((part - j) + (conj[j] - i) - 1 for j in range(part))
        for i, part in enumerate(lam.parts)
    )


def hook_product(lam: Partition) -> int:
    """H, the product of all hook lengths, as falling factorials.

    A corner r is the last row of a run of equal parts, parts[r] > parts[r+1]
    (with parts[len] = 0).  The columns j in [parts[r+1], parts[r]) all have
    height r + 1, so in row i <= r their hooks parts[i] - j + r - i are
    parts[r] - parts[r+1] consecutive integers counting down from
    parts[i] - parts[r+1] + r - i: one math.perm per (row, corner) pair, and
    every node lies in exactly one such run.
    """
    parts = lam.parts
    return math.prod(
        math.perm(p - low + r - i, part - low)
        for r, (part, low) in enumerate(zip(parts, parts[1:] + (0,)))
        if part > low
        for i, p in enumerate(parts[: r + 1])
    )


def degree(lam: Partition) -> int:
    """Exact degree n!/H of the character indexed by lam; the division is
    asserted exact (a remainder would mean a hook-computation bug)."""
    h = hook_product(lam)
    q, r = divmod(math.factorial(lam.n), h)
    if r:
        raise ArithmeticError(f"hook product {h} does not divide {lam.n}!")
    return q


# enumerate_gamma refuses a larger index: at m = 50 `gamma` prints 200 KB and
# `lemma45` takes 0.4 s in-process (2-CPU x86-64 box, 1.0 s at m = 60); the
# output grows as m**3 and the time faster.  The witness search up to
# n = 2000 needs m <= 44.
GAMMA_MAX_M = 50


def enumerate_gamma(m: int, size: int | None = None) -> Iterator[Partition]:
    """All partitions with exactly m parts, each part in [m, m+2], or only
    those of the given size (none when size is outside [m*m, m*m + 2m]);
    1 <= m <= GAMMA_MAX_M.

    Yields groups of constant size |lam| in increasing order of size; within
    one size, partitions with more parts equal to m+2 come first.
    """
    if m < 1:
        raise ValueError("enumerate_gamma requires m >= 1")
    if m > GAMMA_MAX_M:
        raise ValueError(f"enumerate_gamma requires m <= {GAMMA_MAX_M}, got {m}")
    excesses = range(0, 2 * m + 1)  # |lam| = m*m + excess
    if size is not None:
        excesses = [size - m * m] if size - m * m in excesses else []
    for excess in excesses:
        for a in range(min(m, excess // 2), max(0, excess - m) - 1, -1):
            b = excess - 2 * a
            c = m - a - b
            if b < 0 or c < 0:
                continue
            yield Partition((m + 2,) * a + (m + 1,) * b + (m,) * c)


def partitions_of(n: int) -> Iterator[Partition]:
    """Every partition of n exactly once, in decreasing lexicographic order."""
    if n < 0:
        raise ValueError("partitions_of requires n >= 0")
    if n == 0:
        yield Partition(())
        return
    parts = [n]
    while True:
        yield Partition(tuple(parts))
        i = len(parts) - 1
        while i >= 0 and parts[i] == 1:
            i -= 1
        if i < 0:
            return
        rest = len(parts) - i  # the decremented unit plus all trailing 1s
        parts[i] -= 1
        cap = parts[i]
        del parts[i + 1 :]
        while rest > 0:
            take = min(cap, rest)
            parts.append(take)
            rest -= take
