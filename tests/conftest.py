import bisect
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from fracgame import STRONG, boundary_contains, enumerate_partitions, make_game, members
from fracgame import sample_boundary
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


def cut_game(rng: random.Random, n: int):
    """Exact game with denominators <= 3, shaped like the benchmark's:
    pairs and triples worth 2*s^2 plus 0, 1/3 or 2/3 (supermodular, with
    nonempty strong cores), larger coalitions worth their best two-block
    split minus 1/3, 2/3 or 1 (empty strong cores, nonempty split sets), so
    their weak cores go to the exact search or the sampler."""
    values = {}
    for mask in sorted(range(1, 1 << n), key=lambda m: (m.bit_count(), m)):
        s = mask.bit_count()
        if s <= 3:
            values[mask] = Fraction(6 * s * s + rng.randrange(3), 3)
        else:
            best = max(values[p] + values[mask ^ p] for p in range(1, mask) if p & mask == p)
            values[mask] = best - Fraction(1 + rng.randrange(3), 3)
    return make_game(n, values)


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
    """Reference for games.sample_boundary: on exact games lower bounds and
    leftover as Fractions, one Fraction sum and product per share; on float
    games the float formula, everything derived afresh on each call."""
    mem = members(coalition)
    k = len(mem)
    if k == 1:
        return (1,) if game.mode == "exact" else (1.0,)
    v_c = game.values[coalition]
    if game.mode != "exact":
        lbs = [game.values[1 << i] / v_c for i in mem]
        s = 1.0 - sum(lbs)
        if s < 0:
            return tuple(lbs) if geq(1.0, sum(lbs), game.tol) else None
        cuts = sorted(rng.random() for _ in range(k - 1))
        cuts = [0.0] + cuts + [1.0]
        return tuple(lb + s * (cuts[j + 1] - cuts[j]) for j, lb in enumerate(lbs))
    lbs = [Fraction(game.values[1 << i]) / Fraction(v_c) for i in mem]
    s = 1 - sum(lbs)
    if s < 0:
        return None
    grain = 1 << 20
    cuts = sorted(rng.randrange(grain + 1) for _ in range(k - 1))
    cuts = [0] + cuts + [grain]
    return tuple(lb + s * Fraction(cuts[j + 1] - cuts[j], grain) for j, lb in enumerate(lbs))


def naive_sample_solution(game, partition, rng):
    """One sample_boundary draw per block, scattered to the players."""
    shares = [None] * game.n
    for block in partition:
        local = sample_boundary(game, block, rng)
        if local is None:
            return None
        for j, i in enumerate(members(block)):
            shares[i] = local[j]
    return tuple(shares)


def naive_theorem_sampled_claims(g1, g2, *, samples, seed):
    """Reference for claims 3 and 4 of centripetality.verify_theorem1, in
    its rng order: claim 3 judges each sample by solution_feasible under g2;
    claim 4 takes the same candidates (block-table witnesses, then fresh
    samples), each kind judged on its own by solution_feasible and
    naive_fission_resistant, under g1 and then g2."""
    from fracgame.centripetality import ClaimResult, _fmt_point
    from fracgame.games import solution_feasible

    n = g1.n
    rng = random.Random(seed)
    parts = list(enumerate_partitions(n))
    checked = 0
    failures = []
    for _ in range(samples):
        partition = parts[rng.randrange(len(parts))]
        f = naive_sample_solution(g1, partition, rng)
        if f is None:
            continue
        checked += 1
        if not solution_feasible(g2, partition, f):
            failures.append(f"partition {partition} point {_fmt_point(f)}")
            break
    feasible_claim = ClaimResult(
        "feasible-solutions", not failures, f"sampled({checked})", "; ".join(failures)
    )
    table = stability.BlockTable(g1, max_exact_weak_n=n, canonical_witness=False)
    checked = {stability.STRONG: 0, stability.WEAK: 0}
    failures = []
    for partition in parts:
        if any(boundary_empty(g1, b) for b in partition):
            continue
        drawn = [naive_sample_solution(g1, partition, rng) for _ in range(samples)]
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
    fission_claim = ClaimResult(
        "fission-resistant-solutions",
        not failures,
        f"witness+sampled(strong={checked[stability.STRONG]},weak={checked[stability.WEAK]})",
        "; ".join(failures[:3]),
    )
    return feasible_claim, fission_claim


def naive_corollary_weak_claim(g1, g2, *, samples, seed):
    """Reference for the weak-core claim of centripetality.verify_corollary,
    in its rng order: the grand split set's vertices, the g1 weak-core
    witness and naive_sample_boundary draws, each point judged by
    boundary_contains and naive_weak_core_contains under g1 and then g2."""
    from fracgame.centripetality import ClaimResult, _fmt_point

    n = g1.n
    rng = random.Random(seed)
    candidates = list(stability.split_vertices(g1, g1.grand))
    region = stability.core_region(g1, stability.WEAK, max_exact_weak_n=n, canonical_witness=False)
    if region.status == stability.NONEMPTY:
        candidates.append(region.witness)
    for _ in range(samples):
        f = naive_sample_boundary(g1, g1.grand, rng)
        if f is not None:
            candidates.append(f)

    def in_weak_core(game, f):
        return boundary_contains(game, game.grand, f) and naive_weak_core_contains(game, f)

    checked = 0
    failures = []
    for f in candidates:
        if not in_weak_core(g1, f):
            continue
        checked += 1
        if not in_weak_core(g2, f):
            failures.append(_fmt_point(f))
            break
    return ClaimResult(
        "weak-core-inclusion", not failures, f"witness+sampled({checked})", "; ".join(failures)
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


# ---------------------------------------------------------------------------
# frozen Fraction simplex: the two-phase solver linfeas used before its
# tableau moved to integer rows, kept verbatim (helpers renamed) so the
# integer solver is checked against an independent implementation of the
# same pivot rule: standard form with one surplus column per inequality and
# one artificial column per row, most-negative entering column, ratio ties
# broken by basis index, Bland's rule after a pivot budget.

_F0 = Fraction(0)
_F1 = Fraction(1)


def _naive_pivot(tab, basis, row, col) -> None:
    prow = tab[row]
    piv = prow[col]
    if piv != 1:
        inv = 1 / piv
        tab[row] = prow = [v * inv for v in prow]
    for i, other in enumerate(tab):
        if i == row:
            continue
        factor = other[col]
        if factor:
            tab[i] = [a - factor * b for a, b in zip(other, prow)]
    basis[row] = col


def _naive_pivot_loop(tab, obj, basis, candidates) -> str:
    m = len(tab)
    iters = 0
    bland_after = 64 + 8 * (m + len(candidates))
    while True:
        iters += 1
        bland = iters > bland_after
        enter = -1
        best = _F0
        for j in candidates:
            rj = obj[j]
            if rj < 0:
                if bland:
                    enter = j
                    break
                if rj < best:
                    best = rj
                    enter = j
        if enter < 0:
            return "optimal"
        leave = -1
        best_ratio = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            return "unbounded"
        _naive_pivot(tab, basis, leave, enter)
        delta = obj[enter]
        if delta:
            prow = tab[leave]
            for j in range(len(obj)):
                obj[j] -= delta * prow[j]


def _naive_phase_one(a_rows, b_vals, n):
    """Phase 1 of the simplex on A x = b, x >= 0 over n columns.

    Returns (tab, basis): a tableau in a feasible basis of structural
    columns, with redundant rows and the artificial columns removed, so each
    row is n coefficients plus its right-hand side.  None when infeasible.
    """
    m = len(a_rows)
    tab = []
    for i in range(m):
        row = list(a_rows[i])
        rhs = b_vals[i]
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
        art = [_F0] * m
        art[i] = _F1
        tab.append(row + art + [rhs])
    basis = list(range(n, n + m))
    obj = [_F0] * (n + m + 1)
    for row in tab:
        for j in range(n):
            obj[j] -= row[j]
        obj[-1] -= row[-1]
    status = _naive_pivot_loop(tab, obj, basis, range(n + m))
    if status != "optimal":  # pragma: no cover - phase 1 is always bounded
        raise NumericFailure("phase-1 simplex reported unbounded")
    if -obj[-1] > 0:
        return None
    # drive zero-level artificials out of the basis; drop redundant rows
    for i in range(m - 1, -1, -1):
        if basis[i] < n:
            continue
        col = next((j for j in range(n) if tab[i][j] != 0), None)
        if col is None:
            del tab[i]
            del basis[i]
        else:
            _naive_pivot(tab, basis, i, col)
    return [row[:n] + row[-1:] for row in tab], basis


def _naive_phase_two(tab, basis, cost, candidates):
    """Minimize cost.x from the tableau's current feasible basis, entering
    only the given columns.  Pivots in place; returns (status, obj), where
    obj holds the final reduced costs."""
    obj = list(cost) + [_F0]
    for i, bi in enumerate(basis):
        cb = cost[bi]
        if cb:
            row = tab[i]
            for j in range(len(obj)):
                obj[j] -= cb * row[j]
    return _naive_pivot_loop(tab, obj, basis, candidates), obj


def _naive_basic_point(tab, basis, n):
    x = [_F0] * n
    for i, bi in enumerate(basis):
        x[bi] = tab[i][-1]
    return x


def naive_two_phase(a_rows, b_vals, cost):
    """Returns (status, x) with status 'optimal'|'infeasible'|'unbounded'."""
    n = len(cost)
    found = _naive_phase_one(a_rows, b_vals, n)
    if found is None:
        return "infeasible", None
    tab, basis = found
    status, _ = _naive_phase_two(tab, basis, cost, range(n))
    if status == "unbounded":
        return "unbounded", None
    return "optimal", _naive_basic_point(tab, basis, n)


# ---------------------------------------------------------------------------
# system-level solving (variables shifted to x = f - lower >= 0)


def _naive_assemble(system: linfeas.LinearSystem, slack_var: bool):
    """Equality/inequality rows over nv variables: the dim shifted shares,
    plus one trailing slack variable when requested."""
    dim = system.dim
    nv = dim + 1 if slack_var else dim
    eqs = []
    for b in system.blocks:
        row = [_F0] * nv
        shift = _F0
        for i in members(b):
            row[i] = _F1
            shift += system.lower[i]
        eqs.append((row, _F1 - shift))
    ges = []
    for h in system.halfspaces:
        row = [_F0] * nv
        shift = _F0
        for i in members(h.support):
            row[i] = h.coef
            shift += system.lower[i]
        if slack_var:
            row[dim] = -_F1
        ges.append((row, h.rhs - h.coef * shift))
    if slack_var:
        for i in range(dim):
            row = [_F0] * nv
            row[i] = _F1
            row[dim] = -_F1
            ges.append((row, _F0))
    return nv, eqs, ges


def _naive_standard_form(nv, eqs, ges):
    """Rows and right-hand sides of A x = b, x >= 0: one surplus column per
    inequality after the nv variables."""
    rows = []
    rhs = []
    ns = len(ges)
    for coefs, b in eqs:
        rows.append(list(coefs) + [_F0] * ns)
        rhs.append(b)
    for k, (coefs, b) in enumerate(ges):
        row = list(coefs) + [_F0] * ns
        row[nv + k] = -_F1
        rows.append(row)
        rhs.append(b)
    return rows, rhs


def _naive_lp(nv, eqs, ges, cost):
    rows, rhs = _naive_standard_form(nv, eqs, ges)
    status, x = naive_two_phase(rows, rhs, list(cost) + [_F0] * len(ges))
    if status == "optimal":
        return status, x[:nv]
    return status, None


def naive_feasible(system: linfeas.LinearSystem) -> tuple | None:
    """A feasible point (exact Fractions) or None.  Any returned point is
    re-checked against every constraint before being handed back."""
    nv, eqs, ges = _naive_assemble(system, slack_var=False)
    status, x = _naive_lp(nv, eqs, ges, [_F0] * nv)
    if status != "optimal":
        return None
    point = tuple(xi + lb for xi, lb in zip(x, system.lower))
    if not linfeas.satisfies(system, point):  # pragma: no cover - solver contract
        raise NumericFailure("simplex returned a point violating the system")
    return point


def naive_minimize(system: linfeas.LinearSystem, cost):
    """Minimize sum(cost[i]*f_i); returns (value, point) or None when the
    system is infeasible.  Raises on an unbounded objective."""
    if len(cost) != system.dim:
        raise ValueError("cost vector length must match dim")
    cvec = [linfeas._frac(c) for c in cost]
    nv, eqs, ges = _naive_assemble(system, slack_var=False)
    status, x = _naive_lp(nv, eqs, ges, cvec)
    if status == "infeasible":
        return None
    if status == "unbounded":
        raise NumericFailure("objective unbounded below")
    point = tuple(xi + lb for xi, lb in zip(x, system.lower))
    value = sum(c * f for c, f in zip(cvec, point))
    return value, point


def naive_warm_max_slack_point(system: linfeas.LinearSystem):
    """The feasible point maximizing the minimum constraint slack, with ties
    broken by lexicographic minimality; returns (point, slack).

    Slack of a lower bound is f_i - lb_i; slack of a halfspace is
    coef*sum - rhs.  Raises InfeasibleSystem when nothing is feasible.

    One phase 1, then dim+1 phase-2 stages on the same tableau: maximize the
    slack t, then minimize f_0, ..., f_{dim-1} in turn.  Each stage starts
    from the previous optimal basis.  A nonbasic column with positive reduced
    cost is zero on every optimal point of its stage, so dropping it from
    the entering candidates keeps exactly the optimal face.
    """
    dim = system.dim
    nv, eqs, ges = _naive_assemble(system, slack_var=True)
    rows, rhs = _naive_standard_form(nv, eqs, ges)
    ncols = nv + len(ges)
    found = _naive_phase_one(rows, rhs, ncols)
    if found is None:
        raise InfeasibleSystem("system has no feasible point")
    tab, basis = found
    candidates = list(range(ncols))
    for var, sign in [(dim, -_F1)] + [(i, _F1) for i in range(dim)]:
        cost = [_F0] * ncols
        cost[var] = sign
        status, obj = _naive_phase_two(tab, basis, cost, candidates)
        # only the slack stage can be unbounded: later stages minimize a
        # nonnegative variable
        if status == "unbounded":
            raise NumericFailure("slack unbounded; every variable needs a block")
        candidates = [j for j in candidates if obj[j] == 0]
    x = _naive_basic_point(tab, basis, ncols)
    point = tuple(x[i] + system.lower[i] for i in range(dim))
    if not linfeas.satisfies(system, point):  # pragma: no cover - solver contract
        raise NumericFailure("simplex returned a point violating the system")
    return point, x[dim]


def naive_max_slack_point(system):
    """Cold sequential reference for linfeas.max_slack_point: one full
    frozen two-phase solve per lexicographic stage, each adding the previous
    stage's optimum as an equality row."""
    dim = system.dim
    nv, eqs, ges = _naive_assemble(system, slack_var=True)
    cost = [Fraction(0)] * nv
    cost[dim] = Fraction(-1)
    status, x = _naive_lp(nv, eqs, ges, cost)
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
        status, x = _naive_lp(nv, eqs + fixed, ges, cost)
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
