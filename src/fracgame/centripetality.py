"""A partial order comparing how strongly games pull players together.

Game v1 precedes v2 when for every nested pair of coalitions C1 within C2
the value ratio v(C2)/v(C1) under v2 is at least the ratio under v1.  The
test is run in cross-multiplied, division-free form

    v1(C2) * v2(C1)  <=  v2(C2) * v1(C1),

which on strictly positive values is the ratio comparison verbatim and on
zero singleton values reproduces the conventions 0/0 = 1 and a/0 = +inf:
whenever a zero denominator makes the ratio comparison trivially true or
false, the cross product agrees (case check over the zero patterns).

The order's consequences are checked by two verification harnesses: one for
the five inclusion claims between the ordered games' solution sets, one for
the core inclusions and the downward transfer of splintered stability.  Their
sampled claims judge all candidates of a partition at once, as bool arrays
(``stability.block_verdicts``) read off in candidate order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linfeas
from .errors import DimensionMismatch
from .games import (
    EXACT,
    Game,
    boundary_contains,
    boundary_empty,
    boundary_sampler,
    coalitions,
    combined_tol,
    draw_shares,
    geq,
    leq,
    make_game,
    members,
    submasks,
)
from .partitions import enumerate_partitions, singleton_partition
from .stability import (
    NONEMPTY,
    STRONG,
    WEAK,
    BlockTable,
    block_feasible,
    block_verdicts,
    core_region,
    core_system,
    fusion_resistant,
    is_stable,
    share_terms,
    split_vertices,
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
    violations: tuple[OrderViolation, ...] = ()


def leq_cp(g1: Game, g2: Game) -> OrderVerdict:
    """Whether g1 precedes g2: every nested coalition pair concentrates
    value at least as much under g2."""
    if g1.n != g2.n:
        raise DimensionMismatch(f"games on {g1.n} and {g2.n} players")
    tol = combined_tol(g1, g2)
    v1 = g1.values
    v2 = g2.values
    violations = []
    for outer in coalitions(g1.n):
        for inner in submasks(outer, proper=True):
            lhs = v1[outer] * v2[inner]
            rhs = v2[outer] * v1[inner]
            if not leq(lhs, rhs, tol):
                violations.append(OrderViolation(inner, outer, lhs, rhs))
    return OrderVerdict(not violations, tuple(violations))


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
            "claims": [
                {"name": c.name, "passed": c.passed, "scope": c.scope, "detail": c.detail}
                for c in self.claims
            ],
        }


def _fmt_point(point) -> str:
    return "(" + ", ".join(str(x) for x in point) + ")"


def _boundary_included(g1: Game, g2: Game, block: int, tol: float):
    """Split-set inclusion for one block, exact.  Fast path: lower bounds
    under g2 sit below those under g1 (cross-multiplied).  Otherwise decide
    on the vertices of the g1 split set, which is a simplex-like polytope
    with at most dim vertices."""
    mem = members(block)
    if len(mem) == 1:
        return True, "singleton", ""
    v1b = g1.values[block]
    v2b = g2.values[block]
    if all(leq(g2.values[1 << i] * v1b, g1.values[1 << i] * v2b, tol) for i in mem):
        return True, "thresholds", ""
    if boundary_empty(g1, block):
        return True, "vacuous", "empty under the first game"
    for vertex in split_vertices(g1, block):
        if not boundary_contains(g2, block, vertex):
            return False, "vertices", f"block {block:#x} vertex {_fmt_point(vertex)}"
    return True, "vertices", ""


def _draw(sample, partition, rng) -> list | None:
    """One ``boundary_sampler`` draw ``(terms, scale)`` per block, or None."""
    drawn = []
    for block in partition:
        drawn.append(sample(block, rng))
        if drawn[-1] is None:
            return None
    return drawn


def _row_point(n: int, partition, row) -> tuple:
    """The allocation of a candidate row, as a report prints it."""
    shares = {i: x for b, d in zip(partition, row) for i, x in zip(members(b), draw_shares(*d))}
    return tuple(shares[i] for i in range(n))


def _judge_rows(g1: Game, g2: Game, partition, rows: list) -> list:
    """Verdicts on all candidate rows of one partition at once: ``rows[r][b]``
    is row r's ``(terms, scale)`` on block b under g1.  Per game, the AND
    over the blocks of ``block_verdicts`` on the rows lifted to one scale; a
    float g2 judges an exact g1's rows on their shares over 1."""
    shared = g1.mode == g2.mode or g1.mode != EXACT
    out = None
    for b, block in enumerate(partition):
        k, scale = block.bit_count(), math.lcm(*{row[b][1] for row in rows})
        lifted = [t * (scale // row[b][1]) for row in rows for t in row[b][0]]
        terms = np.array(lifted, dtype=object).reshape(len(rows), k)
        judged = block_verdicts((g1, g2) if shared else (g1,), block, terms, scale, g1.mode == EXACT)
        if not shared:
            shares = np.array([draw_shares(*row[b]) for row in rows], dtype=object)
            judged += block_verdicts((g2,), block, shares.reshape(len(rows), k), 1, False)
        out = judged if out is None else [
            (f & g, {kind: s[kind] & t[kind] for kind in s}) for (f, s), (g, t) in zip(out, judged)
        ]
    return out


def _first_failure(counted: np.ndarray, passed: np.ndarray) -> tuple[int, int | None]:
    """A claim read off over rows in order: the counted rows up to and
    including the first counted row that fails, and that row (or None)."""
    bad = np.flatnonzero(counted & ~passed)
    stop = int(bad[0]) + 1 if bad.size else len(counted)
    return int(np.count_nonzero(counted[:stop])), (int(bad[0]) if bad.size else None)


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
    partitions.  The first two and the last are exhaustive and exact; the
    middle two are checked on random samples, judged one by one until the
    first failure, then on witnesses plus samples judged per partition."""
    if g1.n != g2.n:
        raise DimensionMismatch(f"games on {g1.n} and {g2.n} players")
    n = g1.n
    order = leq_cp(g1, g2)
    tol = combined_tol(g1, g2)
    rng = random.Random(seed)
    parts = list(enumerate_partitions(n))
    claims = []

    # (1) grand-coalition split set
    ok, scope, detail = _boundary_included(g1, g2, g1.grand, tol)
    claims.append(ClaimResult("boundary", ok, scope, detail))

    # (2) split products, one check per distinct block
    failures = []
    scopes = set()
    for block in coalitions(n):
        if block.bit_count() < 2:
            continue
        ok, scope, detail = _boundary_included(g1, g2, block, tol)
        scopes.add(scope)
        if not ok:
            failures.append(detail)
    claims.append(
        ClaimResult(
            "partition-boundaries",
            not failures,
            "exhaustive-blocks",
            "; ".join(failures),
        )
    )

    # (3) feasible solutions transfer, sampled; each draw is judged under
    # g2 block by block, exact pairs straight from its integer terms
    sample = boundary_sampler(g1)
    rational = g1.mode == g2.mode == EXACT
    checked = 0
    failures = []
    for _ in range(samples):
        partition = parts[rng.randrange(len(parts))]
        drawn = _draw(sample, partition, rng)
        if drawn is None:
            continue
        checked += 1
        if not all(block_feasible(g2, b, *d, rational) for b, d in zip(partition, drawn)):
            point = _fmt_point(_row_point(n, partition, drawn))
            failures.append(f"partition {partition} point {point}")
            break
    claims.append(
        ClaimResult("feasible-solutions", not failures, f"sampled({checked})", "; ".join(failures))
    )

    # (4) fission-resistant solutions transfer, witnesses plus samples; all
    # candidates of a partition are judged at once, under both games and
    # both kinds, and each kind reads off its rows in order
    table = BlockTable(g1, max_exact_weak_n=n, canonical_witness=False)
    checked = {STRONG: 0, WEAK: 0}
    failures = []
    for partition in parts:
        if any(boundary_empty(g1, b) for b in partition):
            continue
        drawn = [_draw(sample, partition, rng) for _ in range(samples)]
        rows, pick = [], {}
        for kind in (STRONG, WEAK):
            patched = table.patched(partition, kind)
            pick[kind] = [len(rows)] if patched.status == NONEMPTY else []
            if pick[kind]:
                w = patched.witness
                rows.append([share_terms(g1, [w[i] for i in members(b)])[:2] for b in partition])
        first = len(rows)
        rows += [d for d in drawn if d is not None]
        (_, fission1), (feasible2, fission2) = _judge_rows(g1, g2, partition, rows)
        for kind in (STRONG, WEAK):
            at = pick[kind] + list(range(first, len(rows)))
            count, bad = _first_failure(fission1[kind][at], (feasible2 & fission2[kind])[at])
            checked[kind] += count
            if bad is not None:
                point = _fmt_point(_row_point(n, partition, rows[at[bad]]))
                failures.append(f"{kind} partition {partition} point {point}")
    claims.append(
        ClaimResult(
            "fission-resistant-solutions",
            not failures,
            f"witness+sampled(strong={checked[STRONG]},weak={checked[WEAK]})",
            "; ".join(failures[:3]),
        )
    )

    # (5) fusion-resistant partitions, reversed, exhaustive
    failures = []
    for partition in parts:
        if fusion_resistant(g2, partition) and not fusion_resistant(g1, partition):
            failures.append(str(partition))
    claims.append(
        ClaimResult(
            "fusion-resistant-partitions",
            not failures,
            "exhaustive-partitions",
            "; ".join(failures[:3]),
        )
    )

    return InclusionReport("theorem-inclusions", order.holds, tuple(claims))


def _strong_core_included(g1: Game, g2: Game, tol: float):
    """Exact polytope inclusion of strong cores.  Fast path: every g2
    constraint threshold sits at or below the matching g1 threshold, making
    the inclusion constraint-wise.  Residual constraints are settled by
    minimizing their left side over the g1 core (support-function test)."""
    n = g1.n
    full = g1.grand
    v1n = g1.values[full]
    v2n = g2.values[full]
    doubtful = [
        c
        for c in coalitions(n)
        if c != full and not leq(g2.values[c] * v1n, g1.values[c] * v2n, tol)
    ]
    if not doubtful:
        return True, "constraintwise", ""
    system = core_system(g1)
    for c in doubtful:
        cost = [0] * n
        for i in members(c):
            cost[i] = 1
        found = linfeas.minimize(system, cost)
        if found is None:
            # the system is the same for every c, so only the first can fail
            return True, "vacuous", "strong core empty under the first game"
        value, point = found
        threshold = Fraction(g2.values[c]) / Fraction(v2n)
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
    the later game it already was for the earlier one.  Weak-core membership
    is judged on all found points at once."""
    if g1.n != g2.n:
        raise DimensionMismatch(f"games on {g1.n} and {g2.n} players")
    n = g1.n
    order = leq_cp(g1, g2)
    tol = combined_tol(g1, g2)
    rng = random.Random(seed)
    claims = []

    ok, scope, detail = _strong_core_included(g1, g2, tol)
    claims.append(ClaimResult("strong-core-inclusion", ok, scope, detail))

    # weak core: membership transfer on every g1 weak-core point we can
    # find, all judged at once under both games
    grand = (g1.grand,)
    points = split_vertices(g1, g1.grand)
    region = core_region(g1, WEAK, max_exact_weak_n=n, canonical_witness=False)
    if region.status == NONEMPTY:
        points.append(region.witness)
    rows = [[share_terms(g1, f)[:2]] for f in points]
    sample = boundary_sampler(g1)
    for _ in range(samples):
        drawn = sample(g1.grand, rng)
        if drawn is not None:
            rows.append([drawn])
    (feasible1, fission1), (feasible2, fission2) = _judge_rows(g1, g2, grand, rows)
    checked, bad = _first_failure(feasible1 & fission1[WEAK], feasible2 & fission2[WEAK])
    failures = [] if bad is None else [_fmt_point(_row_point(n, grand, rows[bad]))]
    claims.append(
        ClaimResult(
            "weak-core-inclusion",
            not failures,
            f"witness+sampled({checked})",
            "; ".join(failures),
        )
    )

    ones = (1,) * n
    splintered = singleton_partition(n)
    for kind in (STRONG, WEAK):
        if is_stable(g2, splintered, ones, kind):
            ok = is_stable(g1, splintered, ones, kind)
            scope = "direct"
        else:
            ok, scope = True, "vacuous"
        claims.append(ClaimResult(f"splintered-transfer-{kind}", ok, scope, ""))

    return InclusionReport("corollary-inclusions", order.holds, tuple(claims))
