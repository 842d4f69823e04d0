"""A partial order comparing how strongly games pull players together.

Game v1 precedes v2 when for every nested pair of coalitions C1 within C2
the value ratio v(C2)/v(C1) under v2 is at least the ratio under v1.  The
test is run in cross-multiplied, division-free form

    v1(C2) * v2(C1)  <=  v2(C2) * v1(C1),

which on strictly positive values is the ratio comparison verbatim and on
zero singleton values reproduces the conventions 0/0 = 1 and a/0 = +inf:
whenever a zero denominator makes the ratio comparison trivially true or
false, the cross product agrees (case check over the zero patterns).

An exact pair is decided on the covering pairs (C - {i}, C) of coalitions C
of two or more players alone, about n*2^(n-1) of the 3^n - 2^(n+1) + 1
nested pairs.  Values of two or more players are positive, so the ratio
v2/v1 that grows along each covering pair grows along every chain of them.
A singleton {i} inside C is reached through a pair {i, j} within C: if
v1(i) > 0, v2(i)/v1(i) is at most the pair's ratio, hence C's; if v1(i) =
0, the pair's check forces v2(i) = 0, and both products at C are 0.  A
float or mixed pair is not (a float game's exact terms cost more than a
scan, a mixed product rounds the exact value to float): a size-symmetric
pair is decided on pairs of sizes, any other up to its first violation
(``precedes``).  Only a failing pair lists every violation (``leq_cp``).

The order's consequences are checked by two verification harnesses: one for
the five inclusion claims between the ordered games' solution sets, one for
the core inclusions and the downward transfer of splintered stability.  Both
read ``leq_cp``'s violations once, as inner coalitions per outer block B.
With no singleton among them, g2's lower bounds sit at or below g1's and B's
split set is included; else it is decided exactly on its vertices.  On an
exact pair, a B with no violation is dominated: every g2 threshold
v2(C)/v2(B) sits at or below g1's, so g1's split set, strong core and weak
core lie in g2's, and B is decided constraint-wise with no draws.  Every
other block, on float or mixed pairs every block, goes through one sampled-
block check: its witnesses, then its draws (one rng, built at the first such
block), each row judged in order on one coverage table read by both games,
by one core judgement for both, member bounds and fission, as
``stability.core_contains`` runs it, up to the first failure.
The second game always judges at the pair's combined tolerance, as
``leq_cp`` does.  The theorem's claims 1, 2 and 4 take one pass over the
blocks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Iterator, Sequence

from . import linfeas
from .errors import DimensionMismatch
from .games import (
    EXACT,
    Game,
    boundary_contains,
    boundary_draws,
    boundary_empty,
    coalitions,
    combined_tol,
    draw_shares,
    geq,
    leq,
    make_game,
    members,
    size_values,
    split_vertices,
    subgame,
    submasks,
    subset_sums,
)
from .partitions import enumerate_partitions, make_partition, singleton_partition
from .stability import (
    NONEMPTY,
    STRONG,
    WEAK,
    BlockTable,
    _coverage,
    _in_core,
    _resists_fusion,
    core_region,
    core_system,
    fusion_resistant,
    share_terms,
)


@dataclass(frozen=True)
class OrderViolation:
    inner: int
    outer: int
    lhs: object
    rhs: object


@dataclass(frozen=True)
class OrderVerdict:
    holds: bool
    violations: tuple = ()  # OrderViolations, or risk's offending segments


def precedes(g1: Game, g2: Game) -> bool:
    """Whether g1 precedes g2, ``leq_cp``'s verdict: an exact pair decided
    on its covering pairs, a pair of size-symmetric games (see
    ``games.size_values``), whose products for a nested pair depend only on
    the two sizes, on each pair of sizes s < t, and any other pair up to its
    first violation."""
    if g1.n != g2.n:
        raise DimensionMismatch(f"games on {g1.n} and {g2.n} players")
    if g1.mode == g2.mode == EXACT:
        return _covering_pairs_hold(g1.terms, g2.terms)
    w1, w2 = size_values(g1), size_values(g2)
    if w1 is None or w2 is None:
        return next(_violations(g1, g2), None) is None
    tol = combined_tol(g1, g2)
    return all(leq(w1[t] * w2[s], w2[t] * w1[s], tol) for t in range(2, g1.n + 1) for s in range(1, t))


def leq_cp(g1: Game, g2: Game) -> OrderVerdict:
    """Whether g1 precedes g2: every nested coalition pair concentrates
    value at least as much under g2.  ``precedes`` decides; only a failing
    pair lists its violations, over every nested pair."""
    if precedes(g1, g2):
        return OrderVerdict(True)
    return OrderVerdict(False, tuple(_violations(g1, g2)))


def _violations(g1: Game, g2: Game) -> Iterator[OrderViolation]:
    """Every nested pair whose cross products break the order at the pair's
    tolerance, outer coalitions ascending, inner ones in submask order."""
    tol, v1, v2 = combined_tol(g1, g2), g1.values, g2.values
    for outer in coalitions(g1.n):
        for inner in submasks(outer, proper=True):
            lhs = v1[outer] * v2[inner]
            rhs = v2[outer] * v1[inner]
            if not leq(lhs, rhs, tol):
                yield OrderViolation(inner, outer, lhs, rhs)


def _covering_pairs_hold(t1: Sequence[int], t2: Sequence[int]) -> bool:
    """Whether ``t1[c] * t2[c - i] <= t2[c] * t1[c - i]`` for every coalition
    c of two or more players and member i, on two games' ``terms``, whose
    scales cancel: the order on an exact pair (see the module's doc)."""
    for outer in range(3, len(t1)):
        a, b, rest = t1[outer], t2[outer], outer
        while rest:
            low = rest & -rest
            rest ^= low
            inner = outer ^ low
            if inner and a * t2[inner] > b * t1[inner]:
                return False
    return True


def generate_ordered_pair(seed: int, n: int) -> tuple[Game, Game]:
    """Random exact game and a coarser companion obtained by scaling each
    coalition's value by a nondecreasing function of its size; such pairs
    are ordered by construction.  Singleton values may be zero."""
    rng = random.Random(seed)
    v1: dict[int, int] = {}
    for c in coalitions(n):
        v1[c] = rng.randint(0, 6) if c.bit_count() == 1 else rng.randint(1, 24)
    mult = [0] * (n + 1)
    mult[1] = rng.randint(1, 4)
    for s in range(2, n + 1):
        mult[s] = mult[s - 1] + rng.randint(0, 3)
    v2 = {c: v1[c] * mult[c.bit_count()] for c in coalitions(n)}
    return make_game(n, v1), make_game(n, v2)


# ---------------------------------------------------------------------------
# inclusion harnesses


@dataclass(frozen=True)
class ClaimResult:
    name: str
    passed: bool
    scope: str
    detail: str = ""


@dataclass(frozen=True)
class InclusionReport:
    suite: str
    order_holds: bool
    claims: tuple[ClaimResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "order_holds": self.order_holds,
            "passed": self.passed,
            "claims": [dict(vars(c)) for c in self.claims],
        }


def _fmt_point(point) -> str:
    return "(" + ", ".join(str(x) for x in point) + ")"


def _at_tol(game: Game, tol: float) -> Game:
    """The game with its predicates at tolerance ``tol``: a pair's claims
    judge the second game at the pair's combined tolerance."""
    return game if game.tol == tol else replace(game, tol=tol)


def _boundary_included(g1: Game, g2: Game, block: int, tol: float, inner: Sequence[int]):
    """Split-set inclusion for one block, exact: ``(scope, detail,
    vertex)``, where vertex is the first g1 vertex that g2 refuses, or None
    when the inclusion holds.  Fast path: ``inner``, the inner coalitions of
    the order's violations at the block, holds no singleton, so lower bounds
    under g2 sit below those under g1 (cross-multiplied).  Otherwise decide
    on the vertices of the g1 split set, which is a simplex-like polytope
    with at most dim vertices."""
    if block.bit_count() == 1:
        return "singleton", "", None
    if all(c.bit_count() > 1 for c in inner):
        return "thresholds", "", None
    if boundary_empty(g1, block):
        return "vacuous", "empty under the first game", None
    g2 = _at_tol(g2, tol)
    for vertex in split_vertices(g1, block):
        if not boundary_contains(g2, block, vertex):
            return "vertices", f"block {block:#x} vertex {_fmt_point(vertex)}", vertex
    return "vertices", "", None


def _padded(n: int, block: int, point) -> str:
    """A block's point as a solution prints it: the block with singletons
    around it, and the share 1 for every other player, whose one split
    passes under every game."""
    shares = [1] * n
    for i, x in zip(members(block), point):
        shares[i] = x
    partition = make_partition([block, *(1 << i for i in range(n) if not block >> i & 1)], n)
    return f"partition {partition} point {_fmt_point(shares)}"


def _sampled_block(g1: Game, g2: Game, block: int, witnesses, rng, samples: int, kinds):
    """One block's sampled inclusion of g1's cores in g2's, per kind: its
    witness points, then ``samples`` draws from the g1 split set, as rows
    ``(terms, scale)`` (see ``stability.share_terms``), judged one row at a
    time, in order, up to the first row that g1 puts in the kind's core and
    g2 refuses.  Each row fills one subset-sum table, which both games read
    (``stability._coverage``); a float g2 judges an exact g1's rows on their
    shares over 1.  A row, drawn nonnegative from the g1 split set, is a
    solution when its shares sum to 1 at g1's tolerance (a float row may
    miss by rounding), so also at the pair's, each at most 1.  Both games,
    g2 at the pair's tolerance, judge a solution by one rule, ``_in_core``:
    member bounds (the row's singleton pieces), then fission.  Returns per
    kind the rows g1 put in its core up to that row, and that row's point
    (None when there is none).  The draws always take ``samples`` rows of
    ``rng``, judged or not, so the blocks after this one see the same rng
    values."""
    first, second = subgame(g1, block), subgame(_at_tol(g2, combined_tol(g1, g2)), block)
    full, shares_only = first.grand, g1.mode == EXACT != g2.mode
    checked, refused = dict.fromkeys(kinds, 0), dict.fromkeys(kinds)
    rows = (share_terms(g1, f) for f in witnesses)
    for terms, scale in chain(rows, boundary_draws(g1, block, rng, samples) or ()):
        if None not in refused.values():
            continue  # every kind has failed
        if not (geq(total := sum(terms), scale, g1.tol) and leq(total, scale, g1.tol)):
            continue  # no g1 solution
        if shares_only:
            terms, scale = [Fraction(t, scale) for t in terms], 1
        sums = subset_sums(terms, full)
        covers, covers2 = _coverage(first, full, sums, scale), None
        for kind in kinds:
            if refused[kind] is not None or not _in_core(full, covers, kind):
                continue
            checked[kind] += 1
            covers2 = covers2 or _coverage(second, full, sums, scale)
            if not _in_core(full, covers2, kind):
                refused[kind] = draw_shares(terms, scale)
    return {kind: (checked[kind], refused[kind]) for kind in kinds}


def _checked_order(g1: Game, g2: Game, samples: int) -> tuple[OrderVerdict, dict[int, list[int]]]:
    """``leq_cp(g1, g2)`` and its violations' inner coalitions per outer
    one, for a harness that takes ``samples`` (ValueError when negative).
    On an exact pair, a block that is no key is dominated: no g2 threshold
    v2(C)/v2(B) tops g1's."""
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    order = leq_cp(g1, g2)
    inner: dict[int, list[int]] = {}
    for v in order.violations:
        inner.setdefault(v.outer, []).append(v.inner)
    return order, inner


@lru_cache(maxsize=4)
def _partition_table(n: int) -> tuple:
    """``enumerate_partitions(n)`` for claim 5, kept for the last four player
    counts, which a bundle of pairs shares.  Each table stays pinned: 52
    partitions at n=5, 14 MB at n=10, 92 MB at n=11 and about 0.6 GB for
    the 4.2M at the cap of 12 players."""
    return tuple(enumerate_partitions(n))


def verify_theorem1(
    g1: Game,
    g2: Game,
    *,
    samples: int = 200,
    seed: int = 0,
) -> InclusionReport:
    """Check the five inclusion claims for an ordered pair: grand split set,
    per-partition split products, feasible solutions, fission-resistant
    solutions (both senses), and the reversed inclusion of fusion-resistant
    partitions.  All but the fourth are exhaustive and exact; the fourth is
    decided per distinct block, constraint-wise on a block the order
    dominates, else on its witnesses plus random samples read in order up
    to the first failure.  Claims 1, 2 and 4 come from one pass over the
    blocks."""
    order, violated = _checked_order(g1, g2, samples)
    n, tol, exact = g1.n, combined_tol(g1, g2), g1.mode == g2.mode == EXACT
    claims = []

    # (1) the grand split set and (2) the split products, one check per
    # distinct block.  (4) fission-resistant solutions transfer.  A solution
    # resists fission iff each block's shares lie in that block's core, and
    # any block with singletons around it is a g1 solution, so the claim
    # fails iff some block's g1 core holds a point g2 refuses.  Each distinct
    # block of two or more players with a nonempty g1 split set is checked:
    # a dominated one passes as it stands, any other on its own region
    # witnesses (one per nonempty region, no repeats), then its draws, one
    # rng in mask order
    included = {}  # per block: its split-set scope, detail and refused vertex
    rng = table = None  # both built at the first undominated block
    checked = {STRONG: 0, WEAK: 0}
    dominated = sampled = 0
    failures = []
    for block in coalitions(n):
        included[block] = _boundary_included(g1, g2, block, tol, violated.get(block, ()))
        if block.bit_count() < 2 or boundary_empty(g1, block):
            continue
        if exact and block not in violated:
            dominated += 1
            continue
        sampled += 1
        if rng is None:
            rng, table = random.Random(seed), BlockTable(g1)
        regions = (table[block, kind] for kind in (STRONG, WEAK))
        points = dict.fromkeys(r.witness for r in regions if r.status == NONEMPTY)
        found = _sampled_block(g1, g2, block, points, rng, samples, (STRONG, WEAK))
        for kind, (got, point) in found.items():
            checked[kind] += got
            if point is not None:
                failures.append(f"{kind} {_padded(n, block, point)}")
    scope, detail, vertex = included[g1.grand]
    claims.append(ClaimResult("boundary", vertex is None, scope, detail))
    refused = [b for b, (_, _, vertex) in included.items() if vertex is not None]
    detail = "; ".join(included[b][1] for b in refused)
    claims.append(ClaimResult("partition-boundaries", not refused, "exhaustive-blocks", detail))

    # (3) feasible solutions transfer.  A feasible solution is a product of
    # per-block splits, so every one transfers iff every block's split set
    # does, which claim 2 decides.  The first failing block's refused vertex,
    # with the share 1 on each other player alone, is a g1-feasible solution
    # that g2 refuses
    detail = _padded(n, refused[0], included[refused[0]][2]) if refused else ""
    claims.append(ClaimResult("feasible-solutions", not refused, "exhaustive-blocks", detail))

    scope = f"witness+sampled(strong={checked[STRONG]},weak={checked[WEAK]})"
    if not sampled and exact:
        scope = "constraintwise-blocks"
    elif dominated:
        scope = f"constraintwise({dominated})+{scope}"
    claims.append(
        ClaimResult("fission-resistant-solutions", not failures, scope, "; ".join(failures[:3]))
    )

    # (5) fusion-resistant partitions, reversed, exhaustive, at each game's tolerance
    failures = []
    for partition in _partition_table(n):
        if _resists_fusion(g2, partition) and not _resists_fusion(g1, partition):
            failures.append(str(partition))
    scope, detail = "exhaustive-partitions", "; ".join(failures[:3])
    claims.append(ClaimResult("fusion-resistant-partitions", not failures, scope, detail))

    return InclusionReport("theorem-inclusions", order.holds, tuple(claims))


def _strong_core_included(g1: Game, g2: Game, inner: Sequence[int], tol: float):
    """Exact polytope inclusion of strong cores.  Fast path: every g2
    constraint threshold sits at or below the matching g1 threshold, so
    ``inner``, the inner coalitions of the order's violations at the grand
    block, is empty and the inclusion is constraint-wise.  Each of them, in
    ascending mask order, is settled by minimizing its left side over the
    g1 core (support-function test)."""
    if not inner:
        return True, "constraintwise", ""
    system, full = core_system(g1), g1.grand
    for c in sorted(inner):
        found = linfeas.minimize(system, [c >> i & 1 for i in range(g1.n)])
        if found is None:
            # the system is the same for every c, so only the first can fail
            return True, "vacuous", "strong core empty under the first game"
        value, point = found
        threshold = Fraction(g2.values[c]) / Fraction(g2.values[full])
        if not geq(value, threshold, tol):
            return False, "support-lp", f"coalition {c:#x} point {_fmt_point(point)}"
    return True, "support-lp", ""


def verify_corollary(
    g1: Game,
    g2: Game,
    *,
    samples: int = 200,
    seed: int = 0,
) -> InclusionReport:
    """Check that both grand-coalition cores grow along the order and that
    splintered stability transfers downward: if staying split is stable for
    the later game it already was for the earlier one.  Weak-core inclusion
    is decided constraint-wise when the order dominates the grand block,
    else judged on its witnesses plus random samples, as claim 4 of
    ``verify_theorem1`` judges each block."""
    order, violated = _checked_order(g1, g2, samples)
    n, tol = g1.n, combined_tol(g1, g2)
    claims = []

    ok, scope, detail = _strong_core_included(g1, g2, violated.get(g1.grand, ()), tol)
    claims.append(ClaimResult("strong-core-inclusion", ok, scope, detail))

    # weak core: included as it stands on a dominated grand block, else
    # judged as one block's sampled inclusion on every g1 point we can find
    if g1.mode == g2.mode == EXACT and g1.grand not in violated:
        claims.append(ClaimResult("weak-core-inclusion", True, "constraintwise"))
    else:
        points = split_vertices(g1, g1.grand)
        region = core_region(g1, WEAK)
        if region.status == NONEMPTY:
            points.append(region.witness)
        found = _sampled_block(g1, g2, g1.grand, points, random.Random(seed), samples, (WEAK,))
        ((checked, point),) = found.values()
        detail = "" if point is None else _fmt_point(point)
        claims.append(
            ClaimResult("weak-core-inclusion", point is None, f"witness+sampled({checked})", detail)
        )

    # the splintered solution, share 1 to each player alone, is feasible and
    # resists fission under every game, so it is stable in either sense iff
    # the singleton partition resists fusion
    splintered = singleton_partition(n)
    if fusion_resistant(g2, splintered):
        ok, scope = fusion_resistant(g1, splintered), "direct"
    else:
        ok, scope = True, "vacuous"
    for kind in (STRONG, WEAK):
        claims.append(ClaimResult(f"splintered-transfer-{kind}", ok, scope, ""))

    return InclusionReport("corollary-inclusions", order.holds, tuple(claims))
