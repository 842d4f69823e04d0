import bisect
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from fracgame import STRONG, boundary_contains, enumerate_partitions, make_game, members
from fracgame import linfeas, stability
from fracgame.errors import InfeasibleSystem, NumericFailure
from fracgame.games import boundary_empty, geq


@pytest.fixture
def additive3():
    """Every coalition worth the sum of its singletons."""
    return make_game(3, {1: 1, 2: 1, 4: 1, 3: 2, 5: 2, 6: 2, 7: 3})


@pytest.fixture
def superadditive3():
    """Singletons 1, pairs 3, grand 6: strictly superadditive."""
    return make_game(3, {1: 1, 2: 1, 4: 1, 3: 3, 5: 3, 6: 3, 7: 6})


@pytest.fixture
def pairy3():
    """Pairs are worth proportionally more than the grand coalition."""
    return make_game(3, {1: 2, 2: 2, 4: 2, 3: 3, 5: 3, 6: 3, 7: 4})


@pytest.fixture
def g4gap():
    """Pairs {a,b} and {c,d} jointly demand more than the whole: the
    all-constraints core is empty but the partition-wise core is not."""
    return make_game(
        4,
        {
            1: 0, 2: 0, 4: 0, 8: 0,
            3: 10, 5: 2, 9: 2, 6: 2, 10: 2, 12: 10,
            7: 3, 11: 3, 13: 3, 14: 3,
            15: 12,
        },
    )


def random_exact_game(rng: random.Random, n: int):
    """Arbitrary valid rational-valued game."""
    values = {}
    for mask in range(1, 1 << n):
        if mask.bit_count() == 1:
            values[mask] = Fraction(rng.randrange(0, 7), rng.randrange(1, 4))
        else:
            values[mask] = Fraction(rng.randrange(1, 25), rng.randrange(1, 4))
    return make_game(n, values)


def random_float_game(rng: random.Random, n: int):
    values = {}
    for mask in range(1, 1 << n):
        if mask.bit_count() == 1:
            values[mask] = rng.uniform(0.0, 2.0)
        else:
            values[mask] = rng.uniform(0.1, 8.0) * mask.bit_count()
    return make_game(n, values, mode="float", tol=1e-9)


# ---------------------------------------------------------------------------
# naive oracles shared by the stability and acceptance tests; these restate
# the definitions with literal quantifiers instead of the library's DP


def naive_weak_core_contains(game, shares):
    if not boundary_contains(game, game.grand, shares):
        return False
    sums = {c: sum(shares[i] for i in members(c)) for c in range(1, 1 << game.n)}
    v_n = game.values[game.grand]
    for partition in enumerate_partitions(game.n):
        if partition == (game.grand,):
            continue
        if all(not geq(v_n * sums[c], game.values[c], game.tol) for c in partition):
            return False
    return True


def remap_local(local_mask, mem):
    out = 0
    for j, i in enumerate(mem):
        if local_mask >> j & 1:
            out |= 1 << i
    return out


def naive_fission_resistant(game, partition, shares, kind):
    sums = {c: sum(shares[i] for i in members(c)) for c in range(1, 1 << game.n)}
    for block in partition:
        mem = members(block)
        if len(mem) < 2:
            continue
        v_b = game.values[block]

        def covered(piece):
            return geq(v_b * sums[piece], game.values[piece], game.tol)

        if kind == STRONG:
            for local in range(1, (1 << len(mem)) - 1):
                if not covered(remap_local(local, mem)):
                    return False
        else:
            for local_part in enumerate_partitions(len(mem)):
                pieces = [remap_local(q, mem) for q in local_part]
                if pieces == [block]:
                    continue
                if not any(covered(p) for p in pieces):
                    return False
    return True


def naive_sample_boundary(game, coalition, rng):
    """Reference for games.sample_boundary on exact games: lower bounds and
    leftover as Fractions, one Fraction sum and product per share."""
    mem = members(coalition)
    k = len(mem)
    if k == 1:
        return (1,)
    v_c = game.values[coalition]
    lbs = [Fraction(game.values[1 << i]) / Fraction(v_c) for i in mem]
    s = 1 - sum(lbs)
    if s < 0:
        return None
    grain = 1 << 20
    cuts = sorted(rng.randrange(grain + 1) for _ in range(k - 1))
    cuts = [0] + cuts + [grain]
    return tuple(lb + s * Fraction(cuts[j + 1] - cuts[j], grain) for j, lb in enumerate(lbs))


def naive_theorem_fission_claim(g1, g2, *, samples, seed):
    """Reference for claim 4 of centripetality.verify_theorem1: the same
    candidates (block-table witnesses, then samples drawn after replaying
    claim 3's draws), each kind judged on its own by solution_feasible and
    naive_fission_resistant, under g1 and then g2."""
    from fracgame.centripetality import ClaimResult, _fmt_point, _sample_solution
    from fracgame.games import solution_feasible

    n = g1.n
    rng = random.Random(seed)
    parts = list(enumerate_partitions(n))
    for _ in range(samples):
        partition = parts[rng.randrange(len(parts))]
        f = _sample_solution(g1, partition, rng)
        if f is not None and not solution_feasible(g2, partition, f):
            break
    table = stability.BlockTable(g1, max_exact_weak_n=n, canonical_witness=False)
    checked = {stability.STRONG: 0, stability.WEAK: 0}
    failures = []
    for partition in parts:
        if any(boundary_empty(g1, b) for b in partition):
            continue
        drawn = [_sample_solution(g1, partition, rng) for _ in range(samples)]
        for kind in (stability.STRONG, stability.WEAK):
            patched = table.patched(partition, kind)
            candidates = [patched.witness] if patched.status == stability.NONEMPTY else []
            candidates.extend(f for f in drawn if f is not None)
            for f in candidates:
                if not naive_fission_resistant(g1, partition, f, kind):
                    continue
                checked[kind] += 1
                if not (
                    solution_feasible(g2, partition, f)
                    and naive_fission_resistant(g2, partition, f, kind)
                ):
                    failures.append(f"{kind} partition {partition} point {_fmt_point(f)}")
                    break
    return ClaimResult(
        "fission-resistant-solutions",
        not failures,
        f"witness+sampled(strong={checked[stability.STRONG]},weak={checked[stability.WEAK]})",
        "; ".join(failures[:3]),
    )


def naive_stable_sets(game, *, max_exact_weak_n=stability.DEFAULT_MAX_EXACT_WEAK_N,
                      samples=stability.DEFAULT_SAMPLES, seed=0):
    """Per-partition reference for stability.stable_sets: every block of
    every partition decided afresh by core_region on its subgame, all
    drawing from one shared RNG, and the patched status aggregated block
    by block."""
    from fracgame.games import game_digest, subgame

    rng = random.Random(seed)

    def patched(partition, kind):
        regions = []
        shares = [None] * game.n
        status = stability.NONEMPTY
        for block in partition:
            region = stability.core_region(
                subgame(game, block), kind,
                max_exact_weak_n=max_exact_weak_n, samples=samples, rng=rng,
            )
            regions.append(region)
            if region.status == stability.EMPTY:
                status = stability.EMPTY
            elif region.status == stability.UNKNOWN and status != stability.EMPTY:
                status = stability.UNKNOWN
            elif region.witness is not None:
                for j, i in enumerate(members(block)):
                    shares[i] = region.witness[j]
        witness = tuple(shares) if status == stability.NONEMPTY else None
        return stability.PatchedCore(partition, status, witness, tuple(regions))

    records = tuple(
        stability.PartitionRecord(
            partition,
            patched(partition, stability.STRONG),
            patched(partition, stability.WEAK),
            stability.fusion_resistant(game, partition),
        )
        for partition in enumerate_partitions(game.n)
    )
    return stability.StabilityReport(game.n, game.players, game_digest(game), records)


def naive_max_slack_point(system):
    """Cold sequential reference for linfeas.max_slack_point: one full
    two-phase solve per lexicographic stage, each adding the previous
    stage's optimum as an equality row."""
    dim = system.dim
    nv, eqs, ges = linfeas._assemble(system, slack_var=True)
    cost = [Fraction(0)] * nv
    cost[dim] = Fraction(-1)
    status, x = linfeas._lp(nv, eqs, ges, cost)
    if status == "infeasible":
        raise InfeasibleSystem("system has no feasible point")
    if status == "unbounded":
        raise NumericFailure("slack unbounded; every variable needs a block")

    def unit_row(i):
        row = [Fraction(0)] * nv
        row[i] = Fraction(1)
        return row

    slack = x[dim]
    fixed = [(unit_row(dim), slack)]
    for i in range(dim):
        cost = [Fraction(0)] * nv
        cost[i] = Fraction(1)
        status, x = linfeas._lp(nv, eqs + fixed, ges, cost)
        assert status == "optimal"
        fixed.append((unit_row(i), x[i]))
    point = tuple(x[i] + system.lower[i] for i in range(dim))
    return point, slack


_raw_nodes, _raw_weights = np.polynomial.legendre.leggauss(32)
_GL_NODES = tuple(float(x) for x in _raw_nodes)
_GL_WEIGHTS = tuple(float(x) for x in _raw_weights)


def naive_interp(knots, x):
    knots_x = [a for a, _ in knots]
    knots_y = [v for _, v in knots]
    j = bisect.bisect_right(knots_x, x) - 1
    if j >= len(knots_x) - 1:
        return knots_y[-1]
    x0, x1 = knots_x[j], knots_x[j + 1]
    y0, y1 = knots_y[j], knots_y[j + 1]
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def naive_cvar(curve, alpha):
    x = 1.0 - alpha
    betas = [b for b, _ in curve.knots]
    vals = [v for _, v in curve.knots]
    prefix = [float(p) for p in curve.prefix]
    j = bisect.bisect_right(betas, x) - 1
    if j >= len(betas) - 1:
        return prefix[-1] / x
    dx = x - betas[j]
    slope = (vals[j + 1] - vals[j]) / (betas[j + 1] - betas[j])
    return (prefix[j] + vals[j] * dx + 0.5 * slope * dx * dx) / x


def naive_mixture_reward(curve, density):
    """Scalar reference for risk.mixture_reward: one Python float per
    quadrature node, summed left to right, evaluating the tail average and
    the density from the raw knot lists at every node."""
    points = {0.0, 1.0}
    points.update(1.0 - b for b, _ in curve.knots)
    points.update(a for a, _ in density.knots)
    grid = sorted(x for x in points if 0.0 <= x <= 1.0)
    total = 0.0
    for a, b in zip(grid, grid[1:]):
        width = b - a
        if width <= 0:
            continue
        panels = max(1, math.ceil(width / 0.0625))
        for p in range(panels):
            lo = a + width * p / panels
            hi = a + width * (p + 1) / panels
            mid = 0.5 * (lo + hi)
            half = 0.5 * (hi - lo)
            for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
                alpha = mid + half * node
                total += weight * half * naive_cvar(curve, alpha) * naive_interp(
                    density.knots, alpha
                )
    return float(total)
