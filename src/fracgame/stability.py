"""Stability notions for fractional solutions.

Strong/weak core membership, resistance of a solution to block fission and
of a partition to block fusion, per-partition patched cores, and the report
that assembles the stable sets.

Weak-sense predicates rest on one structural fact used throughout: once an
allocation is individually rational inside a block, singleton sub-coalitions
can never be part of an all-blocking split, so only splits whose pieces all
have two or more members need to be examined.  In particular blocks of up to
three players can never be split weakly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from . import linfeas
from .errors import DimensionMismatch, InfeasibleSolution
from .games import (
    EXACT,
    Game,
    boundary_contains,
    boundary_sampler,
    check_partition,
    coalitions,
    draw_shares,
    geq,
    json_number,
    members,
    remap,
    solution_feasible,
    subgame,
    submasks,
)
from .partitions import (
    DEFAULT_ENUM_CAP,
    Partition,
    enumerate_partitions,
    fusion_neighborhood,
    partition_label,
)

STRONG = "strong"
WEAK = "weak"

NONEMPTY = "nonempty"
EMPTY = "empty"
UNKNOWN = "unknown"

DEFAULT_MAX_EXACT_WEAK_N = 4
DEFAULT_SAMPLES = 200


def _check_kind(kind: str) -> None:
    if kind not in (STRONG, WEAK):
        raise ValueError(f"kind must be {STRONG!r} or {WEAK!r}, got {kind!r}")


class ShareTable(tuple):
    """``(sums, scale)``, see ``share_table``.  ``rational`` records that
    the sums are integer numerators over ``scale`` taken under an exact
    game, so that game's feasibility can be read off them."""

    def __new__(cls, sums: list, scale: int, rational: bool):
        table = super().__new__(cls, (sums, scale))
        table.rational = rational
        return table


def share_terms(game: Game, shares: Sequence) -> tuple[Sequence, int, bool]:
    """The rescale step of ``share_table``: ``(terms, scale, rational)``
    with share i equal to ``terms[i] / scale``.  Exact games with rational
    shares (ints and Fractions both carry numerator/denominator) get integer
    numerators over the shares' common denominator; any other allocation
    keeps its shares as they are, over 1."""
    if game.mode == EXACT and not any(isinstance(x, float) for x in shares):
        scale = math.lcm(*(x.denominator for x in shares))
        return [x.numerator * (scale // x.denominator) for x in shares], scale, True
    return shares, 1, False


def share_table(game: Game, partition: Sequence[int], shares: Sequence) -> ShareTable:
    """The block share-sum table ``(sums, scale)`` of an allocation: for
    every submask ``c`` of a partition block, ``sums[c] / scale`` is the
    total share of ``c``, so a piece is covered by its block exactly when
    ``v(b) * sums[c] >= v(c) * scale``.  Masks outside the blocks stay 0.

    Exact games with rational shares carry the sums as integer numerators
    over the shares' common denominator ``scale``, which makes each coverage
    test an int comparison on int-valued games.  Otherwise ``scale`` is 1
    and the shares are added as they are, in the same order as always."""
    terms, scale, rational = share_terms(game, shares)
    sums = [0] * (1 << game.n)
    for block in partition:
        # ascending submasks, so ``mask ^ low`` is always filled first
        mask = block & -block
        while mask:
            low = mask & -mask
            sums[mask] = sums[mask ^ low] + terms[low.bit_length() - 1]
            mask = (mask - block) & block
    return ShareTable(sums, scale, rational)


def _covers(game: Game, block: int, piece: int, table) -> bool:
    """Whether the piece's in-block share covers its value."""
    sums, scale = table
    return geq(game.values[block] * sums[piece], game.values[piece] * scale, game.tol)


def block_feasible(game: Game, block: int, terms: Sequence, scale: int, rational: bool) -> bool:
    """``boundary_contains`` for one block's shares ``terms[j] / scale``.
    Rational terms (integers under an exact game) are read off without the
    shares: they sum to ``scale`` and each covers its member's lower bound
    (so none exceeds ``scale``)."""
    if not rational:
        return boundary_contains(game, block, draw_shares(terms, scale))
    v_b, values = game.values[block], game.values
    return sum(terms) == scale and all(
        v_b * t >= values[1 << i] * scale for i, t in zip(members(block), terms)
    )


def table_feasible(
    game: Game, partition: Sequence[int], shares: Sequence, table: ShareTable
) -> bool:
    """``solution_feasible`` for an allocation whose share table, built
    under this game, is at hand: rational tables are read off block by
    block, others run ``solution_feasible`` on the shares."""
    if not table.rational:
        return solution_feasible(game, partition, shares)
    sums, scale = table
    return all(
        block_feasible(game, b, [sums[1 << i] for i in members(b)], scale, True) for b in partition
    )


# ---------------------------------------------------------------------------
# membership predicates


def _has_blocking_split(game: Game, block: int, table) -> bool:
    """Whether the block splits into >=2-member pieces that all block, i.e.
    each piece's own value exceeds its scaled in-block share.  Assumes the
    shares are individually rational within the block."""
    if block.bit_count() <= 3:
        return False

    blocking = cache(lambda piece: not _covers(game, block, piece, table))

    @cache
    def splits(mask: int) -> bool:
        # every piece must contain the lowest member, have >=2 players, and
        # stay a proper part of the block
        if not mask:
            return True
        low = mask & -mask
        rest = sub = mask ^ low
        while sub:
            piece = sub | low
            if piece != block and blocking(piece) and splits(mask ^ piece):
                return True
            sub = (sub - 1) & rest
        return False

    return splits(block)


def core_contains(game: Game, shares: Sequence, kind: str = STRONG) -> bool:
    """Grand-coalition core membership.  Strong: every proper coalition's
    scaled share covers its value.  Weak: no partition of the players into
    proper coalitions consists entirely of blocking coalitions.  Infeasible
    share vectors simply fail."""
    _check_kind(kind)
    if len(shares) != game.n:
        raise DimensionMismatch(f"expected {game.n} shares, got {len(shares)}")
    grand = (game.grand,)
    table = share_table(game, grand, shares)
    return table_feasible(game, grand, shares, table) and fission_resistant_by_table(
        game, grand, table, kind
    )


def fission_resistant(game: Game, partition: Sequence[int], shares: Sequence, kind: str = STRONG) -> bool:
    """Whether no block of the partition wants to break apart.

    Strong: within every block, every proper sub-coalition's scaled share
    covers its value.  Weak: no block can be split into sub-coalitions that
    all improve on their in-block shares; equivalently, each block's local
    share vector lies in the weak core of that block's subgame.
    """
    _check_kind(kind)
    if not solution_feasible(game, partition, shares):
        raise InfeasibleSolution("allocation is not feasible for this partition")
    return fission_resistant_by_table(game, partition, share_table(game, partition, shares), kind)


def fission_resistant_by_table(game: Game, partition: Sequence[int], table, kind: str) -> bool:
    """``fission_resistant`` on a feasible allocation given by its share
    table; the table serves any game and either kind."""
    for block in partition:
        if block.bit_count() < 2:
            continue
        if kind == STRONG:
            pieces = submasks(block, proper=True)
            if not all(_covers(game, block, piece, table) for piece in pieces):
                return False
        elif _has_blocking_split(game, block, table):
            return False
    return True


def block_verdicts(games: Sequence[Game], block: int, terms, scale: int, rational: bool) -> list:
    """``table_feasible`` and ``fission_resistant_by_table`` on one block,
    for many allocations at once: row r of the object array ``terms`` holds
    one allocation's terms on the block's members, over ``scale`` (1 unless
    ``rational``).  The sums follow ``share_table`` and each element goes
    through the scalar predicates' Python operation.  Returns, per game, the
    bool arrays ``(feasible, {STRONG: ..., WEAK: ...})`` over the rows."""
    mem = members(block)
    count, full = len(terms), (1 << len(mem)) - 1
    sums, ones, judged = [0] * (full + 1), np.ones(count, bool), []
    for mask in range(1, full + 1):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + terms[:, low.bit_length() - 1]
    pieces = [(piece, remap(piece, mem)) for piece in range(1, full)]
    for game in games:
        values, v_b, tol, covered = game.values, game.values[block], game.tol, {}
        for piece, outer in pieces:
            lhs, rhs = v_b * sums[piece], values[outer] * scale
            covered[piece] = (
                np.fromiter((geq(x, rhs, tol) for x in lhs), bool, count) if tol else lhs >= rhs
            )
        if rational:  # the block sums to the scale and covers each member
            singles = [covered[1 << j] for j in range(len(mem))] if full > 1 else []
            feasible = reduce(np.logical_and, singles, sums[full] == scale)
        else:
            shares = terms.tolist()
            feasible = np.fromiter((boundary_contains(game, block, f) for f in shares), bool, count)

        @cache
        def splits(mask: int) -> np.ndarray:
            # _has_blocking_split's recursion, over bool arrays
            if not mask:
                return ones
            low = mask & -mask
            rest = sub = mask ^ low
            got = np.zeros(count, bool)
            while sub:
                if sub | low != full:
                    got |= ~covered[sub | low] & splits(mask ^ sub ^ low)
                sub = (sub - 1) & rest
            return got

        strong = reduce(np.logical_and, covered.values(), ones)
        weak = ~splits(full) if len(mem) > 3 else ones
        judged.append((feasible, {STRONG: strong, WEAK: weak}))
    return judged


def fusion_resistant(game: Game, partition: Sequence[int]) -> bool:
    """Whether no group of blocks gains by merging: for every union of two
    or more blocks, the blocks' stand-alone values already cover the merged
    value."""
    check_partition(game.n, partition)
    blocks = list(partition)
    tol = game.tol
    values = game.values
    for k in range(2, len(blocks) + 1):
        for combo in combinations(blocks, k):
            union = 0
            total = 0
            for b in combo:
                union |= b
                total += values[b]
            if not geq(total, values[union], tol):
                return False
    return True


def fusion_resistant_by_total(game: Game, partition: Sequence[int]) -> bool:
    """Equivalent formulation: the summed block value does not increase into
    any strict coarsening.  (Group differences telescope into single-merger
    differences, so this agrees with fusion_resistant.)"""
    check_partition(game.n, partition)
    values = game.values
    tol = game.tol
    total = sum(values[b] for b in partition)
    for coarser in fusion_neighborhood(tuple(partition)):
        if not geq(total, sum(values[b] for b in coarser), tol):
            return False
    return True


def is_stable(game: Game, partition: Sequence[int], shares: Sequence, kind: str = STRONG) -> bool:
    """Feasible, fission-resistant in the requested sense, and fusion-
    resistant.  Infeasible solutions are simply not stable."""
    _check_kind(kind)
    if not solution_feasible(game, partition, shares):
        return False
    table = share_table(game, partition, shares)
    return fission_resistant_by_table(game, partition, table, kind) and fusion_resistant(
        game, partition
    )


# ---------------------------------------------------------------------------
# core regions


@dataclass(frozen=True)
class CoreRegion:
    status: str
    witness: tuple | None = None
    method: str = ""


def _exact_lower_bounds(game: Game, block: int) -> list[Fraction]:
    v_b = Fraction(game.values[block])
    return [Fraction(game.values[1 << i]) / v_b for i in members(block)]


def boundary_system(game: Game, block: int) -> linfeas.LinearSystem:
    """The split simplex of a block as a linear system over local variables.
    Float values are converted exactly; no tolerance is baked in, so region
    verdicts are exact for the stored values."""
    mem = members(block)
    k = len(mem)
    lbs = _exact_lower_bounds(game, block)
    return linfeas.linear_system(k, lbs, ((1 << k) - 1,))


def core_system(game: Game, kind_masks=None) -> linfeas.LinearSystem:
    """Grand-coalition split simplex plus scaled-share halfspaces for the
    given coalitions (default: all proper ones, the strong core)."""
    n = game.n
    full = game.grand
    lbs = _exact_lower_bounds(game, full)
    v_n = Fraction(game.values[full])
    if kind_masks is None:
        kind_masks = [c for c in coalitions(n) if c != full]
    hs = [(1, c, Fraction(game.values[c]) / v_n) for c in kind_masks]
    return linfeas.linear_system(n, lbs, (full,), hs)


def split_vertices(game: Game, block: int) -> list[tuple]:
    """Vertices of a block's bare split simplex in closed form, sorted and
    without repeats as ``linfeas.vertices`` gives them: the lower bounds
    plus the whole leftover on one member.  Empty when the simplex is."""
    lbs = _exact_lower_bounds(game, block)
    s = 1 - sum(lbs)
    if s < 0:
        return []
    k = len(lbs)
    return sorted({tuple(lb + s if i == j else lb for i, lb in enumerate(lbs)) for j in range(k)})


def _centered_boundary_point(game: Game, block: int) -> tuple | None:
    """Max-slack point of a bare split simplex, computed in closed form:
    spread the leftover evenly.  None when the simplex is empty."""
    lbs = _exact_lower_bounds(game, block)
    s = 1 - sum(lbs)
    if s < 0:
        return None
    k = len(lbs)
    point = tuple(lb + Fraction(s, k) for lb in lbs)
    if game.mode == EXACT:
        return point
    return tuple(float(x) for x in point)


def _finish_witness(game: Game, point) -> tuple:
    if game.mode == EXACT:
        return tuple(point)
    return tuple(float(x) for x in point)


def core_region(
    game: Game,
    kind: str = STRONG,
    *,
    max_exact_weak_n: int = DEFAULT_MAX_EXACT_WEAK_N,
    samples: int = DEFAULT_SAMPLES,
    rng: random.Random | None = None,
    canonical_witness: bool = True,
    feasible: Callable[[linfeas.LinearSystem], tuple | None] | None = None,
) -> CoreRegion:
    """Decide (non)emptiness of the requested core and produce a witness.

    The strong core is a polytope, decided exactly by LP; its canonical
    witness maximizes the minimum constraint slack.  The weak core is a union
    of polytopes: up to ``max_exact_weak_n`` players it is resolved exactly
    by a search over satisfied-coalition sets, beyond that by the strong-core
    shortcut and random sampling, answering UNKNOWN rather than EMPTY when
    nothing is found.  ``feasible`` (default ``linfeas.feasible``) decides
    the strong-core system for both kinds, so a caller deciding both can
    solve it once.
    """
    _check_kind(kind)
    if feasible is None:
        feasible = linfeas.feasible
    n = game.n
    if n == 1:
        return CoreRegion(NONEMPTY, (1,) if game.mode == EXACT else (1.0,), "singleton")
    full = game.grand
    if kind == STRONG:
        if n == 2:
            point = _centered_boundary_point(game, full)
            if point is None:
                return CoreRegion(EMPTY, None, "boundary")
            return CoreRegion(NONEMPTY, point, "boundary")
        system = core_system(game)
        point = feasible(system)
        if point is None:
            return CoreRegion(EMPTY, None, "lp")
        if canonical_witness:
            point, _ = linfeas.max_slack_point(system)
        return CoreRegion(NONEMPTY, _finish_witness(game, point), "lp")
    # weak core
    if n <= 3:
        point = _centered_boundary_point(game, full)
        if point is None:
            return CoreRegion(EMPTY, None, "boundary")
        return CoreRegion(NONEMPTY, point, "boundary")
    point = feasible(core_system(game))
    if point is not None:
        return CoreRegion(NONEMPTY, _finish_witness(game, point), "strong-subset")
    if n <= max_exact_weak_n:
        return _weak_region_exact(game, canonical_witness)
    if rng is None:
        rng = random.Random(0)
    sample = boundary_sampler(game)
    for _ in range(samples):
        drawn = sample(full, rng)
        if drawn is None:
            return CoreRegion(EMPTY, None, "boundary")
        f = draw_shares(*drawn)
        if core_contains(game, f, WEAK):
            return CoreRegion(NONEMPTY, f, f"sampled({samples})")
    return CoreRegion(UNKNOWN, None, f"sampled({samples})")


def _weak_region_exact(game: Game, canonical_witness: bool) -> CoreRegion:
    """Exhaustive search over which block of each non-grand partition gets a
    satisfied constraint.  A branch commits a coalition's halfspace; pruning
    happens on infeasible commitments and on already-failed states."""
    n = game.n
    full = game.grand
    v_n = Fraction(game.values[full])
    ratio = {c: Fraction(game.values[c]) / v_n for c in coalitions(n) if c != full}
    base = boundary_system(game, full)
    start = linfeas.feasible(base)
    if start is None:
        return CoreRegion(EMPTY, None, "boundary")
    parts = [p for p in enumerate_partitions(n) if len(p) > 1]

    def point_satisfies(point, sums_cache, c):
        total = sums_cache.get(c)
        if total is None:
            total = sum(point[i] for i in members(c))
            sums_cache[c] = total
        return total >= ratio[c]

    def system_for(committed):
        hs = [(1, c, ratio[c]) for c in sorted(committed)]
        return linfeas.linear_system(n, base.lower, base.blocks, hs)

    failed: set[tuple[int, frozenset]] = set()

    def search(idx, committed, point, sums_cache):
        if idx == len(parts):
            return committed, point
        blocks = parts[idx]
        if any(b in committed for b in blocks):
            return search(idx + 1, committed, point, sums_cache)
        ordered = sorted(blocks, key=lambda b: not point_satisfies(point, sums_cache, b))
        for b in ordered:
            nxt = committed | {b}
            key = (idx + 1, nxt)
            if key in failed:
                continue
            if point_satisfies(point, sums_cache, b):
                result = search(idx + 1, nxt, point, sums_cache)
            else:
                fresh = linfeas.feasible(system_for(nxt))
                if fresh is None:
                    failed.add(key)
                    continue
                result = search(idx + 1, nxt, fresh, {})
            if result is not None:
                return result
            failed.add(key)
        return None

    result = search(0, frozenset(), start, {})
    if result is None:
        return CoreRegion(EMPTY, None, "exact-search")
    committed, point = result
    if canonical_witness:
        point, _ = linfeas.max_slack_point(system_for(committed))
    return CoreRegion(NONEMPTY, _finish_witness(game, point), "exact-search")


# ---------------------------------------------------------------------------
# patched cores and stable sets


@dataclass(frozen=True)
class PatchedCore:
    partition: Partition
    status: str
    witness: tuple | None
    block_regions: tuple[CoreRegion, ...]


class BlockTable(dict):
    """The core regions of one game's blocks, keyed by (block, kind).

    A block's region is decided on first use, by ``core_region`` on the
    block's subgame with this table's settings, and read back on every later
    use, so each block has one verdict and one witness however many
    partitions contain it.  Both kinds read one ``linfeas.feasible`` point
    of the block's strong-core system, solved when the first of them needs
    it.  ``rng`` is passed through unchanged: sampled blocks draw from it in
    first-visit order.
    """

    def __init__(
        self,
        game: Game,
        *,
        max_exact_weak_n: int = DEFAULT_MAX_EXACT_WEAK_N,
        samples: int = DEFAULT_SAMPLES,
        rng: random.Random | None = None,
        canonical_witness: bool = True,
    ):
        super().__init__()
        self.game = game
        self.settings = dict(
            max_exact_weak_n=max_exact_weak_n,
            samples=samples,
            rng=rng,
            canonical_witness=canonical_witness,
        )
        self.strong_points: dict[int, tuple | None] = {}

    def __missing__(self, key: tuple[int, str]) -> CoreRegion:
        block, kind = key

        def feasible(system: linfeas.LinearSystem) -> tuple | None:
            if block not in self.strong_points:
                self.strong_points[block] = linfeas.feasible(system)
            return self.strong_points[block]

        game = subgame(self.game, block)
        region = self[key] = core_region(game, kind, feasible=feasible, **self.settings)
        return region

    def patched(self, partition: Sequence[int], kind: str) -> PatchedCore:
        """Blockwise product of cores: each block's subgame must have a
        nonempty core of the requested kind.  Any empty block makes the
        whole product empty; otherwise any unresolved block makes it
        UNKNOWN.  Every block is decided, even after an empty one."""
        _check_kind(kind)
        check_partition(self.game.n, partition)
        partition = tuple(partition)
        regions = tuple(self[block, kind] for block in partition)
        statuses = {r.status for r in regions}
        if EMPTY in statuses:
            return PatchedCore(partition, EMPTY, None, regions)
        if UNKNOWN in statuses:
            return PatchedCore(partition, UNKNOWN, None, regions)
        shares: list = [None] * self.game.n
        for block, region in zip(partition, regions):
            for j, i in enumerate(members(block)):
                shares[i] = region.witness[j]
        return PatchedCore(partition, NONEMPTY, tuple(shares), regions)


def patched_core(
    game: Game,
    partition: Sequence[int],
    kind: str = STRONG,
    *,
    max_exact_weak_n: int = DEFAULT_MAX_EXACT_WEAK_N,
    samples: int = DEFAULT_SAMPLES,
    rng: random.Random | None = None,
    canonical_witness: bool = True,
) -> PatchedCore:
    """The patched core of one partition; see ``BlockTable.patched``."""
    table = BlockTable(
        game,
        max_exact_weak_n=max_exact_weak_n,
        samples=samples,
        rng=rng,
        canonical_witness=canonical_witness,
    )
    return table.patched(partition, kind)


@dataclass(frozen=True)
class PartitionRecord:
    partition: Partition
    strong: PatchedCore
    weak: PatchedCore
    fusion_resistant: bool


@dataclass(frozen=True)
class StabilityReport:
    n: int
    players: tuple[str, ...]
    digest: str
    records: tuple[PartitionRecord, ...]

    def partitions_with(self, kind: str, status: str = NONEMPTY) -> list[Partition]:
        side = {STRONG: lambda r: r.strong, WEAK: lambda r: r.weak}[kind]
        return [r.partition for r in self.records if side(r).status == status]

    def fusion_resistant_partitions(self) -> list[Partition]:
        return [r.partition for r in self.records if r.fusion_resistant]

    def stable(self, kind: str) -> list[tuple[Partition, tuple]]:
        """Partitions carrying a patched core of the requested kind that are
        also fusion-resistant, with their witnesses."""
        out = []
        for r in self.records:
            patched = r.strong if kind == STRONG else r.weak
            if r.fusion_resistant and patched.status == NONEMPTY:
                out.append((r.partition, patched.witness))
        return out

    def unknown(self, kind: str) -> list[Partition]:
        return self.partitions_with(kind, UNKNOWN)

    def most_consolidated(self, kind: str = WEAK) -> Partition | None:
        """Stable partition with the fewest blocks; ties broken by canonical
        label order."""
        best = None
        for partition, _ in self.stable(kind):
            key = (len(partition), partition_label(partition, self.players))
            if best is None or key < best[0]:
                best = (key, partition)
        return None if best is None else best[1]

    def to_dict(self) -> dict:
        label = lambda p: partition_label(p, self.players)

        def witness(w) -> list | None:
            return None if w is None else [json_number(x) for x in w]

        def region(r: CoreRegion) -> dict:
            return {"status": r.status, "method": r.method, "witness": witness(r.witness)}

        def patched(p: PatchedCore) -> dict:
            return {
                "status": p.status,
                "witness": witness(p.witness),
                "blocks": [region(b) for b in p.block_regions],
            }

        def stable(kind: str) -> list[dict]:
            return [{"partition": label(p), "witness": witness(w)} for p, w in self.stable(kind)]

        records = [
            {
                "partition": label(r.partition),
                "strong": patched(r.strong),
                "weak": patched(r.weak),
                "fusion_resistant": r.fusion_resistant,
            }
            for r in self.records
        ]
        most = self.most_consolidated(WEAK)
        return {
            "players": list(self.players),
            "game": self.digest,
            "partitions": records,
            "patched_strong_nonempty": [label(p) for p in self.partitions_with(STRONG)],
            "patched_weak_nonempty": [label(p) for p in self.partitions_with(WEAK)],
            "fusion_resistant": [label(p) for p in self.fusion_resistant_partitions()],
            "stable_strong": stable(STRONG),
            "stable_weak": stable(WEAK),
            "weak_unknown": [label(p) for p in self.unknown(WEAK)],
            "most_consolidated_weak": None if most is None else label(most),
        }

    def csv_rows(self) -> list[list]:
        header = [
            "partition",
            "blocks",
            "in_patched_strong",
            "in_patched_weak",
            "fusion_resistant",
            "stable_strong",
            "stable_weak",
            "weak_status",
            "witness_strong",
            "witness_weak",
        ]
        rows = [header]
        for r in self.records:
            strong_ok = r.strong.status == NONEMPTY
            weak_ok = r.weak.status == NONEMPTY
            wit = lambda w: "" if w is None else " ".join(str(x) for x in w)
            rows.append(
                [
                    partition_label(r.partition, self.players),
                    len(r.partition),
                    strong_ok,
                    weak_ok,
                    r.fusion_resistant,
                    strong_ok and r.fusion_resistant,
                    weak_ok and r.fusion_resistant,
                    r.weak.status,
                    wit(r.strong.witness),
                    wit(r.weak.witness),
                ]
            )
        return rows


def stable_sets(
    game: Game,
    *,
    cap: int = DEFAULT_ENUM_CAP,
    max_exact_weak_n: int = DEFAULT_MAX_EXACT_WEAK_N,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> StabilityReport:
    """Sweep every partition: patched strong/weak cores and fusion
    resistance.  Stable solutions pair a fusion-resistant partition with any
    point of its nonempty patched core.  All partitions read their blocks
    from one ``BlockTable``, so each block is decided once."""
    from .games import game_digest

    table = BlockTable(
        game, max_exact_weak_n=max_exact_weak_n, samples=samples, rng=random.Random(seed)
    )
    records = [
        PartitionRecord(
            partition,
            table.patched(partition, STRONG),
            table.patched(partition, WEAK),
            fusion_resistant(game, partition),
        )
        for partition in enumerate_partitions(game.n, cap)
    ]
    return StabilityReport(game.n, game.players, game_digest(game), tuple(records))
