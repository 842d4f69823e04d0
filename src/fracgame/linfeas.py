"""Exact linear feasibility for block share systems.

Variables are shares f_0..f_{dim-1}.  A system couples per-variable lower
bounds, one sum-to-one equality per variable block, and half-spaces

    coef * sum(f_i for i in support)  >=  rhs.

All arithmetic is rational; float inputs are converted exactly through
``Fraction``, so feasibility verdicts are never rounding artifacts.  A
two-phase simplex (most-negative entering column, switching to Bland's rule
to rule out cycling) decides feasibility and optimizes.  The max-slack
witness is a lexicographic optimum, solved as in the sequential LPs of the
nucleolus (Kopelowitz 1967): one phase 1, then one phase-2 stage per
objective on the same tableau, each restarting from the previous optimal
basis and restricted to its optimal face.  Vertices come from brute-force
active-set intersection, which is entirely adequate at the dimensions this
package targets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceeded, InfeasibleSystem, NumericFailure
from .games import geq, leq, members

VERTEX_DIM_CAP = 5

_F0 = Fraction(0)
_F1 = Fraction(1)


def _frac(x) -> Fraction:
    try:
        return Fraction(x)
    except (ValueError, OverflowError, TypeError) as exc:
        raise NumericFailure(f"cannot use {x!r} as an exact coefficient") from exc


@dataclass(frozen=True)
class Halfspace:
    coef: Fraction
    support: int
    rhs: Fraction


@dataclass(frozen=True)
class LinearSystem:
    dim: int
    lower: tuple[Fraction, ...]
    blocks: tuple[int, ...]
    halfspaces: tuple[Halfspace, ...] = ()


def linear_system(dim, lower, blocks, halfspaces=()) -> LinearSystem:
    """Validating constructor; accepts halfspaces as (coef, support, rhs)."""
    if dim < 1:
        raise ValueError("need at least one variable")
    lower = tuple(_frac(x) for x in lower)
    if len(lower) != dim:
        raise ValueError(f"expected {dim} lower bounds, got {len(lower)}")
    full = (1 << dim) - 1
    seen = 0
    blocks = tuple(int(b) for b in blocks)
    for b in blocks:
        if b == 0 or b & ~full or b & seen:
            raise ValueError("blocks must be nonempty, in range, and disjoint")
        seen |= b
    hs = []
    for h in halfspaces:
        coef, support, rhs = (h.coef, h.support, h.rhs) if isinstance(h, Halfspace) else h
        support = int(support)
        if support == 0 or support & ~full:
            raise ValueError("halfspace support must be a nonempty variable set")
        coef = _frac(coef)
        if coef <= 0:
            raise ValueError("halfspace coefficient must be positive")
        hs.append(Halfspace(coef, support, _frac(rhs)))
    return LinearSystem(dim, lower, blocks, tuple(hs))


def satisfies(system: LinearSystem, point, tol: float = 0.0) -> bool:
    """Exact (or tolerant) membership check of a point in the system."""
    if len(point) != system.dim:
        return False
    for x, lb in zip(point, system.lower):
        if not geq(x, lb, tol):
            return False
    for b in system.blocks:
        total = sum(point[i] for i in members(b))
        if not (geq(total, 1, tol) and leq(total, 1, tol)):
            return False
    for h in system.halfspaces:
        total = sum(point[i] for i in members(h.support))
        if not geq(h.coef * total, h.rhs, tol):
            return False
    return True


# ---------------------------------------------------------------------------
# simplex core: min c.x  s.t.  A x = b, x >= 0


def _pivot(tab, basis, row, col) -> None:
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


def _pivot_loop(tab, obj, basis, candidates) -> str:
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
        _pivot(tab, basis, leave, enter)
        delta = obj[enter]
        if delta:
            prow = tab[leave]
            for j in range(len(obj)):
                obj[j] -= delta * prow[j]


def _phase_one(a_rows, b_vals, n):
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
    status = _pivot_loop(tab, obj, basis, range(n + m))
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
            _pivot(tab, basis, i, col)
    return [row[:n] + row[-1:] for row in tab], basis


def _phase_two(tab, basis, cost, candidates):
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
    return _pivot_loop(tab, obj, basis, candidates), obj


def _basic_point(tab, basis, n):
    x = [_F0] * n
    for i, bi in enumerate(basis):
        x[bi] = tab[i][-1]
    return x


def _two_phase(a_rows, b_vals, cost):
    """Returns (status, x) with status 'optimal'|'infeasible'|'unbounded'."""
    n = len(cost)
    found = _phase_one(a_rows, b_vals, n)
    if found is None:
        return "infeasible", None
    tab, basis = found
    status, _ = _phase_two(tab, basis, cost, range(n))
    if status == "unbounded":
        return "unbounded", None
    return "optimal", _basic_point(tab, basis, n)


# ---------------------------------------------------------------------------
# system-level solving (variables shifted to x = f - lower >= 0)


def _assemble(system: LinearSystem, slack_var: bool):
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


def _standard_form(nv, eqs, ges):
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


def _lp(nv, eqs, ges, cost):
    rows, rhs = _standard_form(nv, eqs, ges)
    status, x = _two_phase(rows, rhs, list(cost) + [_F0] * len(ges))
    if status == "optimal":
        return status, x[:nv]
    return status, None


def feasible(system: LinearSystem) -> tuple | None:
    """A feasible point (exact Fractions) or None.  Any returned point is
    re-checked against every constraint before being handed back."""
    nv, eqs, ges = _assemble(system, slack_var=False)
    status, x = _lp(nv, eqs, ges, [_F0] * nv)
    if status != "optimal":
        return None
    point = tuple(xi + lb for xi, lb in zip(x, system.lower))
    if not satisfies(system, point):  # pragma: no cover - solver contract
        raise NumericFailure("simplex returned a point violating the system")
    return point


def minimize(system: LinearSystem, cost):
    """Minimize sum(cost[i]*f_i); returns (value, point) or None when the
    system is infeasible.  Raises on an unbounded objective."""
    if len(cost) != system.dim:
        raise ValueError("cost vector length must match dim")
    cvec = [_frac(c) for c in cost]
    nv, eqs, ges = _assemble(system, slack_var=False)
    status, x = _lp(nv, eqs, ges, cvec)
    if status == "infeasible":
        return None
    if status == "unbounded":
        raise NumericFailure("objective unbounded below")
    point = tuple(xi + lb for xi, lb in zip(x, system.lower))
    value = sum(c * f for c, f in zip(cvec, point))
    return value, point


def max_slack_point(system: LinearSystem):
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
    nv, eqs, ges = _assemble(system, slack_var=True)
    rows, rhs = _standard_form(nv, eqs, ges)
    ncols = nv + len(ges)
    found = _phase_one(rows, rhs, ncols)
    if found is None:
        raise InfeasibleSystem("system has no feasible point")
    tab, basis = found
    candidates = list(range(ncols))
    for var, sign in [(dim, -_F1)] + [(i, _F1) for i in range(dim)]:
        cost = [_F0] * ncols
        cost[var] = sign
        status, obj = _phase_two(tab, basis, cost, candidates)
        # only the slack stage can be unbounded: later stages minimize a
        # nonnegative variable
        if status == "unbounded":
            raise NumericFailure("slack unbounded; every variable needs a block")
        candidates = [j for j in candidates if obj[j] == 0]
    x = _basic_point(tab, basis, ncols)
    point = tuple(x[i] + system.lower[i] for i in range(dim))
    if not satisfies(system, point):  # pragma: no cover - solver contract
        raise NumericFailure("simplex returned a point violating the system")
    return point, x[dim]


# ---------------------------------------------------------------------------
# vertex enumeration


def _solve_square(rows):
    """Unique solution of a square rational system, or None."""
    n = len(rows)
    aug = [list(co) + [r] for co, r in rows]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return tuple(aug[r][-1] for r in range(n))


def vertices(system: LinearSystem, cap: int = VERTEX_DIM_CAP) -> list[tuple]:
    """All vertices of the system's polytope, sorted; exact but brute force,
    so capped by dimension."""
    dim = system.dim
    if dim > cap:
        raise CapExceeded(f"vertex enumeration capped at dimension {cap}, got {dim}")
    eq_rows = []
    for b in system.blocks:
        row = [_F0] * dim
        for i in members(b):
            row[i] = _F1
        eq_rows.append((row, _F1))
    ineqs = []
    for i in range(dim):
        row = [_F0] * dim
        row[i] = _F1
        ineqs.append((row, system.lower[i]))
    for h in system.halfspaces:
        row = [_F0] * dim
        for i in members(h.support):
            row[i] = h.coef
        ineqs.append((row, h.rhs))
    need = dim - len(eq_rows)
    if need < 0:
        return []
    found = set()
    for combo in itertools.combinations(range(len(ineqs)), need):
        rows = eq_rows + [ineqs[k] for k in combo]
        point = _solve_square(rows)
        if point is None:
            continue
        if all(
            sum(c * x for c, x in zip(row, point)) >= rhs for row, rhs in ineqs
        ):
            found.add(point)
    return sorted(found)
