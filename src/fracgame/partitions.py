"""Set partitions of the player set.

A partition is a tuple of disjoint covering coalition bitmasks, kept in
canonical order (ascending smallest member).  Enumeration follows
restricted-growth-string order, which yields canonical tuples directly.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .errors import CapExceeded, DimensionMismatch
from .games import check_partition, coalition_label, members, remap

Partition = tuple[int, ...]

DEFAULT_ENUM_CAP = 12


def bell_number(n: int) -> int:
    """Number of partitions of an n-set, by the Bell triangle."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def _canonical(blocks) -> Partition:
    return tuple(sorted(blocks, key=lambda m: m & -m))


def make_partition(blocks: Sequence[int], n: int) -> Partition:
    check_partition(n, blocks)
    return _canonical(blocks)


def singleton_partition(n: int) -> Partition:
    return tuple(1 << i for i in range(n))


def grand_partition(n: int) -> Partition:
    return ((1 << n) - 1,)


def enumerate_partitions(n: int, cap: int = DEFAULT_ENUM_CAP) -> Iterator[Partition]:
    """All partitions of {0..n-1} in restricted-growth-string order."""
    if n < 1:
        raise ValueError("need at least one player")
    if n > cap:
        raise CapExceeded(f"partition enumeration capped at {cap} players, got {n}")
    blocks: list[int] = []

    def rec(i: int) -> Iterator[Partition]:
        if i == n:
            yield tuple(blocks)
            return
        bit = 1 << i
        for j in range(len(blocks)):
            blocks[j] |= bit
            yield from rec(i + 1)
            blocks[j] &= ~bit
        blocks.append(bit)
        yield from rec(i + 1)
        blocks.pop()

    yield from rec(0)


def partition_label(partition: Sequence[int], players: Sequence[str]) -> str:
    return "|".join(coalition_label(b, players) for b in partition)


def fewest_blocks(partitions: Sequence[Partition], label) -> Partition | None:
    """The most consolidated of the partitions: the fewest blocks, ties to
    the least ``label(partition)``, labelled only among the fewest; None
    when there is none."""
    fewest = min(map(len, partitions), default=None)
    return min((p for p in partitions if len(p) == fewest), key=label, default=None)


def partition_from_label(text: str, players: Sequence[str]) -> Partition:
    from .games import coalition_from_label

    blocks = [coalition_from_label(part, players) for part in text.split("|")]
    return make_partition(blocks, len(players))


def fission_neighborhood(partition: Sequence[int]) -> set[Partition]:
    """Strict refinements: split one or more blocks; the partition itself is
    excluded.  Empty exactly for the all-singleton partition."""
    per_block: list[list[tuple[int, ...]]] = []
    for block in partition:
        mem = members(block)
        opts = [
            tuple(remap(m, mem) for m in local)
            for local in enumerate_partitions(len(mem))
        ]
        per_block.append(opts)
    out: set[Partition] = set()
    for combo in itertools.product(*per_block):
        out.add(_canonical(b for group in combo for b in group))
    out.discard(_canonical(partition))
    return out


def fusion_neighborhood(partition: Sequence[int]) -> set[Partition]:
    """Strict coarsenings: merge one or more groups of blocks; the partition
    itself is excluded.  Empty exactly for the one-block partition."""
    blocks = list(partition)
    p = len(blocks)
    out: set[Partition] = set()
    for grouping in enumerate_partitions(p):
        if len(grouping) == p:
            continue
        merged = []
        for g in grouping:
            u = 0
            for j in members(g):
                u |= blocks[j]
            merged.append(u)
        out.add(_canonical(merged))
    return out


def is_strict_refinement(p1: Sequence[int], p2: Sequence[int]) -> bool:
    """Whether every block of p1 sits inside a block of p2 and p1 != p2."""
    u1 = 0
    for b in p1:
        u1 |= b
    u2 = 0
    for b in p2:
        u2 |= b
    if u1 != u2:
        raise DimensionMismatch("partitions cover different player sets")
    c1, c2 = _canonical(p1), _canonical(p2)
    if c1 == c2:
        return False
    return all(any(b1 & ~b2 == 0 for b2 in c2) for b1 in c1)
