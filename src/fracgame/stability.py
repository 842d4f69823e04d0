"""Stability notions for fractional solutions.

Strong/weak core membership, resistance of a solution to block fission and
of a partition to block fusion, per-partition patched cores, and the report
that assembles the stable sets.

Weak-sense predicates rest on one structural fact used throughout: once an
allocation is individually rational inside a block, singleton sub-coalitions
can never be part of an all-blocking split, so only splits whose pieces all
have two or more members need to be examined.  In particular blocks of up to
three players can never be split weakly.

Coverage (a piece's scaled share covers its value) is read off subset sums:
of one allocation per block in ``_coverage``, whose predicate ``_in_core``
judges in either sense, member bounds included, for the scalar predicates
and for the inclusion harnesses' sampled rows (one table per row, read by
both games under this one rule), and of the weak-core search's LP points in
``CoreRows.covered``.  The split set's closed forms live in ``games``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Sequence

from . import linfeas
from .errors import DimensionMismatch, InfeasibleSolution, InfeasibleSystem, NumericFailure
from .games import (
    EXACT,
    Game,
    check_partition,
    coalition_label,
    game_digest,
    geq,
    integer_terms,
    json_list,
    json_number,
    json_object,
    json_value,
    members,
    size_values,
    solution_feasible,
    split_point,
    split_terms,
    subgame,
    submasks,
    subset_sums,
)
from .partitions import (
    DEFAULT_ENUM_CAP,
    Partition,
    enumerate_partitions,
    fewest_blocks,
    partition_label,
)

STRONG = "strong"
WEAK = "weak"

NONEMPTY = "nonempty"
EMPTY = "empty"

_F1 = Fraction(1)


def _check_kind(kind: str) -> None:
    if kind not in (STRONG, WEAK):
        raise ValueError(f"kind must be {STRONG!r} or {WEAK!r}, got {kind!r}")


def share_terms(game: Game, shares: Sequence) -> tuple[Sequence, int]:
    """``(terms, scale)`` with share i equal to ``terms[i] / scale``, the
    terms the scalar predicates sum.  Exact games with rational shares (ints
    and Fractions both carry numerator/denominator) get integer numerators
    over the shares' common denominator; any other allocation keeps its
    shares as they are, over 1."""
    if game.mode == EXACT and not any(isinstance(x, float) for x in shares):
        return integer_terms(shares)
    return shares, 1


# ---------------------------------------------------------------------------
# membership predicates


def _blocking_split(block: int, blocking) -> tuple[int, ...] | None:
    """The pieces of the first split of the block into >=2-member pieces
    that all block (``blocking(piece)``: the piece's own value exceeds its
    scaled in-block share), or None when there is no such split.  Assumes
    the shares are individually rational within the block."""
    if block.bit_count() <= 3:
        return None
    return _split(block, block, blocking, {})


def _split(mask: int, block: int, blocking, memo: dict) -> tuple[int, ...] | None:
    """``_blocking_split`` on the players of ``mask``, memoized in ``memo``:
    every piece must contain the lowest member, have >=2 players, and stay
    a proper part of the block.  A module-level recursion, so that a call
    leaves no reference cycle for the garbage collector."""
    if not mask:
        return ()
    if mask in memo:
        return memo[mask]
    low = mask & -mask
    rest = sub = mask ^ low
    found = None
    while sub:
        piece = sub | low
        if piece != block and blocking(piece):
            tail = _split(mask ^ piece, block, blocking, memo)
            if tail is not None:
                found = (piece, *tail)
                break
        sub = (sub - 1) & rest
    memo[mask] = found
    return found


def core_contains(game: Game, shares: Sequence, kind: str = STRONG) -> bool:
    """Grand-coalition core membership.  Strong: every proper coalition's
    scaled share covers its value.  Weak: no partition of the players into
    proper coalitions consists entirely of blocking coalitions.  Infeasible
    share vectors simply fail."""
    _check_kind(kind)
    if len(shares) != game.n:
        raise DimensionMismatch(f"expected {game.n} shares, got {len(shares)}")
    grand = (game.grand,)
    if not solution_feasible(game, grand, shares):
        return False
    return _resists_fission(game, grand, *share_terms(game, shares), kind)


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
    return _resists_fission(game, partition, *share_terms(game, shares), kind)


def _resists_fission(game: Game, partition: Sequence[int], terms: Sequence, scale, kind: str) -> bool:
    """``fission_resistant`` on a feasible allocation whose share i is
    ``terms[i] / scale`` (see ``share_terms``): each block of two or more
    players judged by ``_in_core`` on its ``_coverage``, the blocks' subset
    sums filled into one table."""
    sums = [0] * (1 << game.n)
    return all(
        _in_core(block, _coverage(game, block, subset_sums(terms, block, sums), scale), kind)
        for block in partition
        if block.bit_count() > 1
    )


def _coverage(game: Game, block: int, sums: Sequence, scale):
    """Whether a piece ``c`` of the block is covered, as a predicate on c,
    for an allocation ``terms / scale`` whose subset sums over the block
    (``games.subset_sums``) are ``sums``: ``v(block) * sums[c] >= v(c) *
    scale`` (tolerant ``geq`` on float games).  Any game may read one
    table: only the values differ."""
    values, tol = game.values, game.tol
    v_b = values[block]
    return lambda piece: geq(v_b * sums[piece], values[piece] * scale, tol)


def _in_core(block: int, covers, kind: str) -> bool:
    """Whether an allocation whose pieces ``covers`` covers lies in the
    block's core of the kind: strong, every proper piece is covered; weak,
    every member is covered (its lower bound on a split) and no split into
    blocking pieces exists."""
    if kind == STRONG:
        return all(map(covers, submasks(block, proper=True)))
    lone = all(covers(1 << i) for i in members(block))
    return lone and _blocking_split(block, lambda piece: not covers(piece)) is None


def fusion_resistant(game: Game, partition: Sequence[int]) -> bool:
    """Whether no group of blocks gains by merging: for every union of two
    or more blocks, the blocks' stand-alone values already cover the merged
    value, judged on the stored values (``walk_partitions`` reads an exact
    game's ``terms``, which a game checked only here never builds)."""
    check_partition(game.n, partition)
    return _resists_fusion(game.values, partition, game.tol)


def _resists_fusion(values: Sequence, partition: Sequence[int], tol: float) -> bool:
    """``fusion_resistant`` on a checked partition: the values summed in a
    left fold in block order (float verdicts bit for bit) and ``geq``."""
    for k in range(2, len(partition) + 1):
        for combo in combinations(partition, k):
            total = 0
            for b in combo:
                total += values[b]
            if not geq(total, values[sum(combo)], tol):
                return False
    return True


def is_stable(game: Game, partition: Sequence[int], shares: Sequence, kind: str = STRONG) -> bool:
    """Feasible, fission-resistant in the requested sense, and fusion-
    resistant.  Infeasible solutions are simply not stable."""
    _check_kind(kind)
    if not solution_feasible(game, partition, shares):
        return False
    resists = _resists_fission(game, partition, *share_terms(game, shares), kind)
    return resists and _resists_fusion(game.values, partition, game.tol)


# ---------------------------------------------------------------------------
# core regions


@dataclass(frozen=True)
class CoreRegion:
    status: str
    witness: tuple | None = None
    method: str = ""
    rule: str = field(default="", compare=False, repr=False)  # the rule of ``_decide``


# the method each rule of ``_decide`` prints
_METHODS = {
    "singleton": "singleton", "boundary": "boundary", "empty-split": "boundary",
    "box": "lp", "equal-split": "lp", "cover": "lp", "priced-lp": "lp",
    "strong-subset": "strong-subset", "root-packing": "exact-search", "search": "exact-search",
}


class CoreRows:
    """The strong-core system of a game with its coalition rows given
    lazily: the grand split simplex ``base``, and the halfspace
    ``f(C) >= v(C) / v(N)`` of each proper coalition C, built only when
    asked for.  Rows are priced on the game's integer table ``values``
    (``Game.terms``), so a coalition's slack at a point with share sums
    F(C) / scale is proportional to ``values[N] * F(C) - values[C] *
    scale``.  Every solve gives the max-slack point of the rows it covers;
    ``core_region`` solves no system that ``Game.cover`` shows empty."""

    def __init__(self, game: Game):
        self.full = full = game.grand
        self.values = game.terms
        whole, lone = split_terms(game, full)
        self.base = linfeas.linear_system(game.n, [Fraction(a, whole) for a in lone])

    def halfspace(self, c: int) -> linfeas.Halfspace:
        return linfeas.Halfspace(_F1, c, Fraction(self.values[c], self.values[self.full]))

    def restricted(self, coalitions) -> linfeas.LinearSystem:
        """The split simplex plus the rows of the coalitions, ascending."""
        return replace(self.base, halfspaces=tuple(map(self.halfspace, sorted(coalitions))))

    def covered(self, point):
        """Whether a point covers coalition C's row, as a predicate on C,
        read off the point's integer subset-sum table as ``pricing`` is."""
        terms, scale = integer_terms(point)
        sums, values, v_n = subset_sums(terms, self.full), self.values, self.values[self.full]
        return lambda c: v_n * sums[c] >= values[c] * scale

    def pricing(self, candidates: Sequence[int]):
        """``linfeas.max_slack_point`` pricing over the candidate coalitions,
        ascending and keyed by coalition, off the subset-sum table of the
        point's integer terms: the order, and ties, of ``core_system``'s rows."""
        values, full = self.values, self.full
        v_n = values[full]

        def price(terms, scale, t):
            sums = subset_sums(terms, full)
            bar = v_n * t
            slacks = ((v_n * sums[c] - values[c] * scale, c) for c in candidates)
            worst = min((s for s in slacks if s[0] < bar), default=None)
            return None if worst is None else (worst[1], self.halfspace(worst[1]))

        return price

    def solve(self, candidates: Sequence[int]) -> tuple | None:
        """The max-slack point of the split simplex covering every
        candidate coalition, by ``linfeas.max_slack_point`` priced over the
        candidates, or None when there is none.  The driver re-checks the
        point on the split simplex; every candidate is re-checked here, on
        its own code path, with its own member sum."""
        try:
            point = linfeas.max_slack_point(self.base, self.pricing(candidates))[0]
        except InfeasibleSystem:
            return None
        self._check(*integer_terms(point), candidates)
        return point

    def solve_at_root(self, candidates: Sequence[int]) -> tuple:
        """``solve(candidates)`` when the candidates are every coalition the
        weak search's root covers (each share j > 0 at its lower bound l_j =
        v(j) / v(N), the leftover on member 0), in the root's coordinates.
        A covered C without member 0 has v(C) <= sum of v(i) over C, so its
        row holds at any slack t >= 0, and the root has slack 0: it is
        dropped.  C with member 0 is covered iff g(D) = v(N) - v(C) - sum
        of v(i) over D >= 0, for D = N - C (D = N - {0} is member 0's lower
        bound).  With x_j = f_j - l_j - t (j > 0), its row reads x(D) <=
        g(D) / v(N) - (|D| + 1) t, so t* = min of g(D) / ((|D| + 1) v(N))
        leaves x = 0 feasible, and minimizing f_0, f_1, ... is maximizing
        sum(x), then minimizing x_1, ...: ``linfeas.packing_point``, with
        caps on the integer scale k v(N) of t* = g / (k v(N)), priced off
        one subset-sum table of x.  Every candidate (the lower bounds among
        them) is re-checked on integers, as ``solve`` does."""
        values, full = self.values, self.full
        v_n, dim = values[full], full.bit_length() - 1
        lone = [values[1 << i] for i in range(dim + 1)]
        alone = subset_sums(lone, full)
        kept = [(d, g) for d in range(2, full, 2) if (g := v_n - values[full ^ d] - alone[d]) >= 0]
        g_t, k_t = kept[-1][1], dim + 1  # D = N - {0}, whose g is the root's leftover
        for d, g in kept:
            if g * k_t < g_t * (k := d.bit_count() + 1):
                g_t, k_t = g, k
        rows = [(d >> 1, k_t * g - (d.bit_count() + 1) * g_t) for d, g in kept]

        def price(terms, scale):
            sums, worst, row = subset_sums(terms, full >> 1), 0, None
            for s, cap in rows:
                if (over := sums[s] - scale * cap) > worst:
                    worst, row = over, (s, cap)
            return row

        terms, scale = linfeas.packing_point(dim, rows[-1][1], price)
        whole = scale * k_t * v_n
        shares = [scale * (k_t * a + g_t) + x for a, x in zip(lone[1:], terms)]
        shares.insert(0, whole - sum(shares))
        self._check(shares, whole, candidates)
        return tuple(Fraction(a, whole) for a in shares)

    def _check(self, terms, scale, candidates) -> None:
        """Re-check the point terms / scale on every candidate's row, on its
        own code path, with its own member sum."""
        values, v_n = self.values, self.values[self.full]
        if any(v_n * sum(terms[i] for i in members(c)) < values[c] * scale for c in candidates):
            raise NumericFailure("row generation returned a point violating the system")


def core_system(game: Game) -> linfeas.LinearSystem:
    """The strong-core system with every row listed: the grand split
    simplex plus the halfspace ``f(C) >= v(C) / v(N)`` of every proper
    coalition C, at index C - 1.  Float values are converted exactly; no
    tolerance is baked in, so region verdicts are exact for the stored
    values.  Regions do not build it: they take its rows lazily through
    ``CoreRows``, whose rows these are."""
    return CoreRows(game).restricted(range(1, game.grand))


def _finish_witness(game: Game, point) -> tuple:
    if game.mode == EXACT:
        return tuple(point)
    return tuple(float(x) for x in point)


def core_region(game: Game, kind: str = STRONG, *, strong: CoreRegion | None = None) -> CoreRegion:
    """The requested core's status and witness, decided by the first rule
    of ``_decide`` that applies.  ``strong`` is the game's strong region
    when the caller has already decided it."""
    _check_kind(kind)
    rule, status, point = _decide(game, kind, strong)
    witness = None if point is None else _finish_witness(game, point)
    return CoreRegion(status, witness, _METHODS[rule], rule)


def _decide(game: Game, kind: str, strong: CoreRegion | None) -> tuple[str, str, Sequence | None]:
    """``(rule, status, point)``: the first rule that applies to the game's
    core of the kind, with the core system's own verdict and canonical
    witness (its max-slack point; None when empty) in the game's
    coordinates.  Only ``priced-lp`` and the weak search solve an LP.
    - ``singleton``: one player, whose only split is the share 1.
    - ``boundary``: a strong core of 2 players, or a weak one of up to 3
      (see the module docstring), is the split simplex: its center.
    - ``box``: a 3-player strong core, a box cut by the simplex.
    - ``equal-split``: a size-symmetric strong core of 4+ players.
    - ``cover``: a strong core is empty when a partition of the players is
      worth more than v(N) (``Game.cover``), a balanced collection that no
      split covers (Bondareva 1963; Shapley 1967).
    - ``priced-lp``: any other strong core, by row generation (``CoreRows``).
    - ``strong-subset``: a nonempty strong core lends the weak core, which
      contains it, its verdict and witness.
    - ``empty-split``: a weak core whose split simplex is empty.
    - ``root-packing``, ``search``: any other weak core, by a search from
      phase 1's point (``split_point`` at member 0), ending there or below."""
    n = game.n
    if n == 1:
        return "singleton", NONEMPTY, (1,)
    if n <= (2 if kind == STRONG else 3):
        center = split_point(game, game.grand)
        return "boundary", EMPTY if center is None else NONEMPTY, center
    if kind == STRONG:
        if n == 3:
            return "box", *_box_region(game)
        by_size = size_values(game)
        if by_size is not None:
            return "equal-split", *_equal_split_region(game, by_size)
        if game.cover() > game.terms[game.grand]:
            return "cover", EMPTY, None
        point = CoreRows(game).solve(range(1, game.grand))
        return "priced-lp", EMPTY if point is None else NONEMPTY, point
    if strong is None:
        strong = core_region(game, STRONG)
    if strong.status == NONEMPTY:
        return "strong-subset", NONEMPTY, strong.witness
    root = split_point(game, game.grand, 0)
    if root is None:
        return "empty-split", EMPTY, None
    return _weak_region_exact(game, root)


def _box_region(game: Game) -> tuple[str, list | None]:
    """The strong ``(status, point)`` of a 3-player game.  Every proper
    coalition is a member k or the complement of one, so on the integer
    scale w = 6 v(N) of ``Game.terms`` its row bounds the share F_k of w
    below by lo_k = 6 v(k) or above by hi_k = 6 (v(N) - v(N - k)): the core
    is a box cut by the simplex sum(F) = w.  The largest slack t (in the
    LP's share units, times w) has lo + t <= F <= hi - t with sum(F) = w, so
    it is the least of (hi_k - lo_k) / 2, (w - sum(lo)) / 3 and (sum(hi) -
    w) / 3, each exact on this scale, and the core is empty iff t < 0.  The
    witness is the lexicographic minimum of that face, which
    ``CoreRows.solve``'s stages find: each share in turn at its least, given
    the bounds left to the later ones.  It is re-checked on integers, as
    ``solve`` does."""
    terms, full = game.terms, game.grand
    w = 6 * terms[full]
    lo = [6 * terms[1 << k] for k in range(3)]
    hi = [w - 6 * terms[full ^ 1 << k] for k in range(3)]
    t = min(min(h - a for a, h in zip(lo, hi)) // 2, (w - sum(lo)) // 3, (sum(hi) - w) // 3)
    if t < 0:
        return EMPTY, None
    f0 = max(lo[0] + t, w - hi[1] - hi[2] + 2 * t)
    f1 = max(lo[1] + t, w - f0 - hi[2] + t)
    point = (f0, f1, w - f0 - f1)
    if not all(a <= f <= h for a, f, h in zip(lo, point, hi)):
        raise NumericFailure("closed form returned a point violating the system")
    return NONEMPTY, [Fraction(f, w) for f in point]


def _equal_split_region(game: Game, by_size: tuple) -> tuple[str, tuple | None]:
    """The strong ``(status, point)`` of a size-symmetric game of four or
    more players, whose values by size are ``by_size``.  Its strong-core
    system is invariant under permuting the players, and the core is convex,
    so the core holds the average of any point's permutations, the equal
    split (the averaging argument for symmetric LPs; Bödi, Herr & Joswig
    2013).  The equal split covers a coalition of s players iff s*v(n) >=
    n*v(s), compared on the exactly converted values, as the LP compares
    them.  It is the only max-slack point: at any optimum, the coalitions of
    a size s attaining t* = min over s < n of s/n - v(s)/v(n) each hold at
    least s/n and average exactly s/n, so for 1 <= s <= n-1 every share is
    1/n."""
    n = game.n
    v = [Fraction(x) for x in by_size[1:]]
    if all(s * v[-1] >= n * v[s - 1] for s in range(1, n)):
        return NONEMPTY, (Fraction(1, n),) * n
    return EMPTY, None


def _weak_region_exact(game: Game, root: tuple) -> tuple[str, str, tuple | None]:
    """``_decide``'s weak rule for a game with an empty strong core and a
    nonempty split simplex: a search over sets of proper coalitions whose
    halfspaces ``v(N) * f(C) >= v(C)`` are imposed on the split simplex.  A
    set's LP point either has no all-blocking split, and is a weak-core
    point, or every weak-core point of the set's polytope covers a piece of
    the split ``_blocking_split`` finds there, so the search branches on
    the pieces.  Infeasible sets are kept as nogoods, their supersets
    skipped.  The root commits nothing and its point is ``root``; deeper
    sets are solved by ``linfeas.feasible``.  Coverage is read off
    ``CoreRows``' integer table.  The witness is the max-slack point of the
    polytope committing every coalition the found point covers, all in the
    weak core: ``CoreRows.solve_at_root`` at the root (``root-packing``),
    ``CoreRows.solve`` below it (``search``)."""
    full = game.grand
    rows = CoreRows(game)
    nogoods, stack = [], [frozenset()]
    while stack:
        committed = stack.pop()
        if any(bad <= committed for bad in nogoods):
            continue
        point = linfeas.feasible(rows.restricted(committed)) if committed else root
        if point is None:
            nogoods.append(committed)
            continue
        covered = rows.covered(point)
        pieces = _blocking_split(full, lambda piece: not covered(piece))
        if pieces is None:
            break
        stack += [committed | {piece} for piece in reversed(pieces)]
    else:
        return "search", EMPTY, None
    candidates = [c for c in range(1, full) if covered(c)]
    if committed:
        return "search", NONEMPTY, rows.solve(candidates)
    return "root-packing", NONEMPTY, rows.solve_at_root(candidates)


# ---------------------------------------------------------------------------
# patched cores and stable sets


@dataclass(frozen=True)
class PatchedCore:
    """The product of a partition's block cores, whose ``status`` is empty
    when any block's is (``_patched_status``; its builders pass it in).
    Its witness, built when read, puts each block's witness on its members."""

    partition: Partition
    block_regions: tuple[CoreRegion, ...]
    status: str

    @property
    def witness(self) -> tuple | None:
        if self.status == EMPTY:
            return None
        pairs = zip(self.partition, self.block_regions)
        placed = {i: x for block, r in pairs for i, x in zip(members(block), r.witness)}
        return tuple(placed[i] for i in range(len(placed)))


def _patched_status(regions: Sequence[CoreRegion]) -> str:
    return EMPTY if EMPTY in [r.status for r in regions] else NONEMPTY


class BlockTable(dict):
    """The core regions of one game's blocks, looked up by (block, kind).

    A block's region is decided on first use, by ``core_region`` on the
    block's subgame, and read back on every later use, so each block has
    one verdict and one witness however many partitions contain it.
    Regions are kept by the subgame's content, its ``terms`` (one scale per
    game) without player labels (one table serves one game, so mode and
    tolerance are fixed): blocks with equal subgames share one region,
    computed once in local coordinates, which a ``PatchedCore`` places on
    any of them.  The weak region of a block of
    four or more players reads the strong region of the same content, so
    its strong-core system is solved once."""

    def __init__(self, game: Game):
        super().__init__()
        self.game = game
        # each block's subgame and the index of its value table (so a table
        # is hashed once per block and the regions are keyed by int)
        self.subgames: dict[int, tuple[Game, int]] = {}
        self.contents: dict[tuple, int] = {}
        self.regions: dict[tuple[int, str], CoreRegion] = {}

    def __missing__(self, key: tuple[int, str]) -> CoreRegion:
        block, kind = key
        if block not in self.subgames:
            game = subgame(self.game, block)
            content = self.contents.setdefault(game.terms, len(self.contents))
            self.subgames[block] = game, content
        game, content = self.subgames[block]
        region = self.regions.get((content, kind))
        if region is None:
            strong = self[block, STRONG] if kind == WEAK and game.n > 3 else None
            region = core_region(game, kind, strong=strong)
            self.regions[content, kind] = region
        self[key] = region
        return region

    def patched(self, partition: Sequence[int], kind: str) -> PatchedCore:
        """Blockwise product of cores of the requested kind, on a partition
        checked here.  Every block is decided, even after an empty one."""
        _check_kind(kind)
        check_partition(self.game.n, partition)
        regions = tuple(self[block, kind] for block in partition)
        return PatchedCore(tuple(partition), regions, _patched_status(regions))


def patched_core(game: Game, partition: Sequence[int], kind: str = STRONG) -> PatchedCore:
    """The patched core of one partition; see ``BlockTable.patched``."""
    return BlockTable(game).patched(partition, kind)


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

    def _nonempty(self, kind: str) -> list[tuple[PartitionRecord, PatchedCore]]:
        """(record, core) per record whose ``kind`` field is a nonempty core."""
        _check_kind(kind)
        return [(r, p) for r in self.records if (p := getattr(r, kind)).status == NONEMPTY]

    def partitions_with(self, kind: str) -> list[Partition]:
        """Partitions whose patched core of the requested kind is nonempty."""
        return [r.partition for r, _ in self._nonempty(kind)]

    def fusion_resistant_partitions(self) -> list[Partition]:
        return [r.partition for r in self.records if r.fusion_resistant]

    def stable(self, kind: str) -> list[tuple[Partition, tuple]]:
        """Partitions carrying a patched core of the requested kind that are
        also fusion-resistant, with their witnesses."""
        return [(r.partition, p.witness) for r, p in self._nonempty(kind) if r.fusion_resistant]

    def most_consolidated(self, kind: str = WEAK) -> Partition | None:
        """Stable partition with the fewest blocks; ties broken by canonical
        label order (``partitions.fewest_blocks``)."""
        stable = [r.partition for r, _ in self._nonempty(kind) if r.fusion_resistant]
        return fewest_blocks(stable, lambda partition: partition_label(partition, self.players))

    def json_text(self) -> str:
        """The report as JSON: the bytes of ``games.json_text(d)`` for the
        report's dict ``d``, written from fragments kept for this call (see
        ``_Fragments``) into that writer's templates and arrays.  Each
        ``CoreRegion`` is encoded once, however many partitions share it."""
        parts = _Fragments(self.players, lambda s: json.dumps(s)[1:-1], _json_scalar)
        regions: dict[int, str] = {}

        def region(b: CoreRegion) -> str:
            text = regions.get(id(b))
            if text is None:
                witness = json_list(b.witness and parts.witness(b), 6)
                text = _REGION.format(_json_scalar(b.method), _json_scalar(b.status), witness)
                regions[id(b)] = text
            return text

        records, fused = [], []
        nonempty: dict[str, list] = {STRONG: [], WEAK: []}
        stable: dict[str, list] = {STRONG: [], WEAK: []}
        for r in self.records:
            label, sides = f'"{parts.partition(r.partition)}"', []
            for kind, p in ((STRONG, r.strong), (WEAK, r.weak)):
                items = parts.scatter(p) if p.status == NONEMPTY else None
                blocks = json_list([region(b) for b in p.block_regions], 4)
                sides.append(_PATCHED.format(blocks, f'"{p.status}"', json_list(items, 4)))
                if p.status == NONEMPTY:
                    nonempty[kind].append(label)
                    if r.fusion_resistant:
                        stable[kind].append(_STABLE.format(label, json_list(items, 3)))
            if r.fusion_resistant:
                fused.append(label)
            records.append(_RECORD.format(_json_scalar(r.fusion_resistant), label, *sides))
        most = self.most_consolidated(WEAK)
        return _REPORT.format(
            json_list(fused, 1),
            _json_scalar(self.digest),
            _json_scalar(most and partition_label(most, self.players)),
            json_list(records, 1),
            json_list(nonempty[STRONG], 1),
            json_list(nonempty[WEAK], 1),
            json_list([_json_scalar(name) for name in self.players], 1),
            json_list(stable[STRONG], 1),
            json_list(stable[WEAK], 1),
            "[]",  # every weak core is decided; weak_unknown stays in the schema
        )

    def to_dict(self) -> dict:
        """The report as the JSON value ``json_text`` writes."""
        return json.loads(self.json_text())

    def csv_rows(self) -> list[list]:
        """The report as CSV rows, a header first, labels and witnesses
        written from fragments kept for this call (see ``_Fragments``)."""
        header = [
            "partition", "blocks", "in_patched_strong", "in_patched_weak", "fusion_resistant",
            "stable_strong", "stable_weak", "weak_status", "witness_strong", "witness_weak",
        ]
        parts = _Fragments(self.players, str, str)
        wit = lambda p: " ".join(parts.scatter(p)) if p.status == NONEMPTY else ""
        rows = [header]
        for r in self.records:
            strong_ok, weak_ok, fused = (
                r.strong.status == NONEMPTY, r.weak.status == NONEMPTY, r.fusion_resistant
            )
            rows.append([
                parts.partition(r.partition), len(r.partition), strong_ok, weak_ok, fused,
                strong_ok and fused, weak_ok and fused, r.weak.status, wit(r.strong), wit(r.weak),
            ])
        return rows


def _json_scalar(x) -> str:
    """One number (as reports print it; see ``json_number``), str or None as JSON."""
    return json_value(json_number(x), 0)


# the objects of an analyze report, each at the one depth it sits at
_REPORT = json_object(
    (
        "fusion_resistant", "game", "most_consolidated_weak", "partitions",
        "patched_strong_nonempty", "patched_weak_nonempty", "players",
        "stable_strong", "stable_weak", "weak_unknown",
    ),
    0,
) + "\n"
_RECORD = json_object(("fusion_resistant", "partition", "strong", "weak"), 2)
_STABLE = json_object(("partition", "witness"), 2)
_PATCHED = json_object(("blocks", "status", "witness"), 3)
_REGION = json_object(("method", "status", "witness"), 5)


class _Fragments:
    """The texts one report encoding is written from, kept for one call:
    each block mask's label and member list, each ``CoreRegion``'s witness
    numbers, and each (block, region) pair's numbers by player.  Regions
    are keyed by the object (the report keeps it alive), never by value:
    hashing a region's Fractions costs more than encoding them.  ``label``
    encodes a block label, ``number`` a witness number."""

    def __init__(self, players: Sequence[str], label, number):
        self.players, self.label, self.number = players, label, number
        self.blocks: dict[int, tuple[str, list[int]]] = {}
        self.numbers: dict[int, list[str]] = {}
        self.placed: dict[tuple[int, int], tuple] = {}

    def block(self, mask: int) -> tuple[str, list[int]]:
        found = self.blocks.get(mask)
        if found is None:
            label = self.label(coalition_label(mask, self.players))
            found = self.blocks[mask] = label, members(mask)
        return found

    def partition(self, partition: Sequence[int]) -> str:
        """The partition's label, encoded blockwise (the separators need no
        escaping)."""
        return "|".join([self.block(b)[0] for b in partition])

    def witness(self, region: CoreRegion) -> list[str]:
        found = self.numbers.get(id(region))
        if found is None:
            found = self.numbers[id(region)] = list(map(self.number, region.witness))
        return found

    def scatter(self, patched: PatchedCore) -> list[str]:
        """A nonempty patched core's witness numbers, player by player, read
        from its blocks' regions."""
        out, placed = [""] * len(self.players), self.placed
        for block, region in zip(patched.partition, patched.block_regions):
            pairs = placed.get((block, id(region)))
            if pairs is None:
                pairs = tuple(zip(self.block(block)[1], self.witness(region)))
                placed[block, id(region)] = pairs
            for i, text in pairs:
                out[i] = text
        return out


def stable_sets(game: Game, *, cap: int = DEFAULT_ENUM_CAP) -> StabilityReport:
    """Every partition's record, read from ``walk_partitions``: patched
    strong/weak cores and fusion resistance.  Stable solutions pair a
    fusion-resistant partition with any point of its nonempty patched core."""
    records = tuple(
        PartitionRecord(partition, PatchedCore(partition, strong, s), PatchedCore(partition, weak, w), fused)
        for partition, strong, weak, s, w, fused in walk_partitions(game, cap=cap)
    )
    return StabilityReport(game.n, game.players, game_digest(game), records)


def walk_partitions(
    game: Game, *, cap: int = DEFAULT_ENUM_CAP
) -> Iterator[tuple[Partition, tuple, tuple, str, str, bool]]:
    """Every partition in enumeration order, with its strong and weak block
    regions, read from one ``BlockTable``, the statuses of the patched cores
    they make, and its fusion verdict, judged on an exact game's ``terms``
    and a float game's stored values.  No record or witness is built here.

    On a size-symmetric game (see ``games.size_values``) blocks of one size
    have equal subgames, so all of these depend only on the partition's
    sequence of block sizes in block order (the order in which the fusion
    test adds block values, so its verdict is every partition's own bit for
    bit): each sequence is decided once, on the first partition that has
    it.  On any other game each partition is decided on its own."""
    table = BlockTable(game)
    values = game.terms if game.mode == EXACT else game.values

    def decide(partition: Partition) -> tuple:
        strong = tuple([table[b, STRONG] for b in partition])
        weak = tuple([table[b, WEAK] for b in partition])
        fused = _resists_fusion(values, partition, game.tol)
        return strong, weak, _patched_status(strong), _patched_status(weak), fused

    seen: dict[tuple[int, ...], tuple] | None = {} if size_values(game) is not None else None
    for partition in enumerate_partitions(game.n, cap):
        if seen is None:
            yield partition, *decide(partition)
            continue
        sizes = tuple(b.bit_count() for b in partition)
        found = seen.get(sizes)
        if found is None:
            found = seen[sizes] = decide(partition)
        yield partition, *found
