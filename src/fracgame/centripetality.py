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
the core inclusions and the downward transfer of splintered stability.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

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
    geq,
    leq,
    make_game,
    members,
    solution_feasible,
    submasks,
)
from .partitions import enumerate_partitions, singleton_partition
from .stability import (
    NONEMPTY,
    STRONG,
    WEAK,
    BlockTable,
    core_contains,
    core_region,
    core_system,
    fission_resistant_by_table,
    fusion_resistant,
    is_stable,
    share_table,
    split_vertices,
    table_feasible,
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


def _sample_solution(sample, n: int, partition, rng):
    """One ``boundary_sampler`` draw per block, scattered to n shares."""
    shares: list = [None] * n
    for block in partition:
        local = sample(block, rng)
        if local is None:
            return None
        for j, i in enumerate(members(block)):
            shares[i] = local[j]
    return tuple(shares)


class _Candidate:
    """A g1-feasible allocation of one partition in the fission claim: its
    share tables under both games (one table when the modes agree) and,
    decided on first use, whether it is also feasible under g2."""

    def __init__(self, g1: Game, g2: Game, partition, point):
        self.g2 = g2
        self.partition = partition
        self.point = point
        self.table1 = share_table(g1, partition, point)
        self.table2 = self.table1 if g1.mode == g2.mode else share_table(g2, partition, point)

    @cached_property
    def feasible2(self) -> bool:
        return table_feasible(self.g2, self.partition, self.point, self.table2)


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
    middle two are checked on witnesses plus random samples."""
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

    # (3) feasible solutions transfer, sampled; exact pairs read feasibility
    # off the sample's share table under g2
    sample = boundary_sampler(g1)
    exact = g1.mode == g2.mode == EXACT
    checked = 0
    failures = []
    for _ in range(samples):
        partition = parts[rng.randrange(len(parts))]
        f = _sample_solution(sample, n, partition, rng)
        if f is None:
            continue
        checked += 1
        if exact:
            feasible2 = table_feasible(g2, partition, f, share_table(g2, partition, f))
        else:
            feasible2 = solution_feasible(g2, partition, f)
        if not feasible2:
            failures.append(f"partition {partition} point {_fmt_point(f)}")
            break
    claims.append(
        ClaimResult("feasible-solutions", not failures, f"sampled({checked})", "; ".join(failures))
    )

    # (4) fission-resistant solutions transfer, witnesses plus samples; each
    # candidate's share table serves both games and both kinds
    table = BlockTable(g1, max_exact_weak_n=n, canonical_witness=False)
    checked = {STRONG: 0, WEAK: 0}
    failures = []
    for partition in parts:
        if any(boundary_empty(g1, b) for b in partition):
            continue
        drawn = [_sample_solution(sample, n, partition, rng) for _ in range(samples)]
        drawn = [_Candidate(g1, g2, partition, f) for f in drawn if f is not None]
        for kind in (STRONG, WEAK):
            patched = table.patched(partition, kind)
            candidates = drawn
            if patched.status == NONEMPTY:
                candidates = [_Candidate(g1, g2, partition, patched.witness), *drawn]
            for c in candidates:
                if not fission_resistant_by_table(g1, partition, c.table1, kind):
                    continue
                checked[kind] += 1
                if not (c.feasible2 and fission_resistant_by_table(g2, partition, c.table2, kind)):
                    failures.append(
                        f"{kind} partition {partition} point {_fmt_point(c.point)}"
                    )
                    break
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
    the later game it already was for the earlier one."""
    if g1.n != g2.n:
        raise DimensionMismatch(f"games on {g1.n} and {g2.n} players")
    n = g1.n
    order = leq_cp(g1, g2)
    tol = combined_tol(g1, g2)
    rng = random.Random(seed)
    claims = []

    ok, scope, detail = _strong_core_included(g1, g2, tol)
    claims.append(ClaimResult("strong-core-inclusion", ok, scope, detail))

    # weak core: membership transfer on every g1 weak-core point we can find
    candidates: list[tuple] = []
    candidates.extend(split_vertices(g1, g1.grand))
    region = core_region(g1, WEAK, max_exact_weak_n=n, canonical_witness=False)
    if region.status == NONEMPTY:
        candidates.append(region.witness)
    sample = boundary_sampler(g1)
    for _ in range(samples):
        f = sample(g1.grand, rng)
        if f is not None:
            candidates.append(f)
    checked = 0
    failures = []
    for f in candidates:
        if not core_contains(g1, f, WEAK):
            continue
        checked += 1
        if not core_contains(g2, f, WEAK):
            failures.append(_fmt_point(f))
            break
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
