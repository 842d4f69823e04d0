"""Exact linear feasibility for a split simplex cut by halfspaces.

Variables are shares f_0..f_{dim-1}.  A system couples per-variable lower
bounds, the split equality sum(f_i) = 1, and half-spaces

    coef * sum(f_i for i in support)  >=  rhs.

All arithmetic is exact; float inputs are converted exactly through
``Fraction``, so feasibility verdicts are never rounding artifacts.  A
two-phase simplex (most-negative entering column, switching to Bland's rule
to rule out cycling) optimizes; phase 1 alone decides feasibility.  Its
tableau rows are Python ints: each row is a positive multiple of its
rational row, divided by its gcd after every update (fraction-free
elimination, as in Bareiss 1968), and the ratio test cross-multiplies, so
the pivots are those of the rational tableau and only the returned point is
built from Fractions.  One lexicographic driver solves every LP, as in the
sequential LPs of the nucleolus (Kopelowitz 1967), behind three entries:
one phase 1, then one phase-2 stage per objective on the same tableau (none
for ``feasible``, one for ``minimize``, the slack and then each share for
``max_slack_point``), each restarting from the previous optimal basis and
restricted to its optimal face; every point it returns is re-checked.
``max_slack_point`` on a bare split simplex needs neither: its optimal
tableau is written in closed form (``split_center``).  Many halfspaces go
through row generation (Hallefjord, Helming & Jornsten 1995) in the same
driver, by ``max_slack_point`` with a caller's pricing, which names the row
of least slack at the max-slack point, read as integers over one scale, if
below the optimal slack.  The row is appended to the optimal tableau with a
surplus column of its own, its basic columns eliminated, and one artificial
on it driven to zero by phase 1 (a basis restart, as in Lemke 1954) before
the stages re-run from that basis.  Max-slack points are unique, so the
rounds end where cold solves would, on a point meeting every row, which the
caller re-checks.  A fourth entry, ``packing_point``, runs the same stages,
pricing and row intake beside that driver on a packing LP (rows x(S) <= cap
over x >= 0, nonnegative caps), from the origin, with no phase 1 and no
slack column.  Vertices come from brute-force active-set intersection,
which is entirely adequate at the dimensions this package targets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceeded, InfeasibleSystem, NumericFailure
from .games import integer_terms, members

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
    halfspaces: tuple[Halfspace, ...] = ()


def linear_system(dim, lower, halfspaces=()) -> LinearSystem:
    """Validating constructor; accepts halfspaces as (coef, support, rhs)."""
    if dim < 1:
        raise ValueError("need at least one variable")
    lower = tuple(_frac(x) for x in lower)
    if len(lower) != dim:
        raise ValueError(f"expected {dim} lower bounds, got {len(lower)}")
    full = (1 << dim) - 1
    hs = []
    for coef, support, rhs in halfspaces:
        support = int(support)
        if support == 0 or support & ~full:
            raise ValueError("halfspace support must be a nonempty variable set")
        coef = _frac(coef)
        if coef <= 0:
            raise ValueError("halfspace coefficient must be positive")
        hs.append(Halfspace(coef, support, _frac(rhs)))
    return LinearSystem(dim, lower, tuple(hs))


def satisfies(system: LinearSystem, point) -> bool:
    """Exact membership check of a point in the system, on integers: each
    coordinate is converted exactly to a Fraction, the point is
    ``terms[i] / scale`` over its common denominator, and each constraint
    is compared cross-multiplied, with its own sums."""
    if len(point) != system.dim:
        return False
    terms, scale = integer_terms(point)
    for t, lb in zip(terms, system.lower):
        if t * lb.denominator < lb.numerator * scale:
            return False
    if sum(terms) != scale:
        return False
    for h in system.halfspaces:
        # coef * total / scale >= rhs
        coef, rhs = h.coef, h.rhs
        total = sum(terms[i] for i in members(h.support))
        if coef.numerator * rhs.denominator * total < rhs.numerator * coef.denominator * scale:
            return False
    return True


# ---------------------------------------------------------------------------
# simplex core: min c.x  s.t.  A x = b, x >= 0, on integer rows
#
# Row i of the tableau holds s_i times its rational row, where s_i > 0 is
# the row's entry in its basic column; the objective row holds a positive
# multiple of the reduced costs.  Positive scaling keeps the order of the
# entries within a row, and the ratio test compares rhs_i/a_i by cross
# multiplication, so the pivots are exactly those of the rational tableau.
# Every updated row is divided by the gcd of its entries.


def _reduced(row: list) -> list:
    g = math.gcd(*row)
    return row if g < 2 else [v // g for v in row]


def _pivot(tab, basis, row, col) -> None:
    prow = tab[row]
    piv = prow[col]
    if piv < 0:  # only phase 1's drive-out pass pivots on a negative entry
        tab[row] = prow = [-v for v in prow]
        piv = -piv
    nonzero = [(j, b) for j, b in enumerate(prow) if b]
    for i, other in enumerate(tab):
        if i == row:
            continue
        factor = other[col]
        if factor:
            # piv*other - factor*prow; rows are never shared, so a unit
            # pivot updates the row in place
            if piv != 1:
                other = [piv * a for a in other]
            for j, b in nonzero:
                other[j] -= factor * b
            tab[i] = _reduced(other)
    basis[row] = col


def _pivot_loop(tab, obj, basis, candidates) -> str:
    m = len(tab)
    iters = 0
    bland_after = 64 + 8 * (m + len(candidates))
    while True:
        iters += 1
        bland = iters > bland_after
        enter = -1
        best = 0
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
        for i in range(m):
            row = tab[i]
            a = row[enter]
            if a > 0:
                if leave >= 0:
                    # rhs/a against the best ratio num/den, both denominators positive
                    lhs, rhs = row[-1] * den, num * a
                    if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                        continue
                leave, num, den = i, row[-1], a
        if leave < 0:
            return "unbounded"
        _pivot(tab, basis, leave, enter)
        delta = obj[enter]
        if delta:
            prow = tab[leave]
            piv = prow[enter]
            obj[:] = _reduced([piv * o - delta * p for o, p in zip(obj, prow)])


def _end_phase_one(tab, obj, basis, n, candidates):
    """Phase 1 from a basis with artificial columns (from n on) under the
    objective ``obj`` minimizing them: the pivot loop over the candidate
    columns, then, when it reached zero, each artificial still basic (at
    zero level) pivoted out onto the first nonzero column of its row.  There
    is always one: every row but the split equality has a surplus column of
    its own, so the rows are linearly independent.  Returns the rows without
    the artificial columns, or None when the system is infeasible."""
    status = _pivot_loop(tab, obj, basis, candidates)
    if status != "optimal":  # pragma: no cover - phase 1 is always bounded
        raise NumericFailure("phase-1 simplex reported unbounded")
    if -obj[-1] > 0:
        return None
    for i in range(len(tab) - 1, -1, -1):
        if basis[i] >= n:
            _pivot(tab, basis, i, next(j for j in range(n) if tab[i][j]))
    return [_reduced(row[:n] + row[-1:]) for row in tab]


def _phase_one(tab, n):
    """Phase 1 of the simplex on A x = b, x >= 0 over n columns, given the
    rows of ``_tableau`` (artificial columns n..n+m-1 already in place).

    Returns (tab, basis): a tableau in a feasible basis of structural
    columns, every row kept and the artificial columns removed, so each row
    is n coefficients plus its right-hand side.  None when infeasible.
    """
    m = len(tab)
    basis = list(range(n, n + m))
    # minimize the sum of the artificials: reduced cost -sum(rational rows)
    # outside the artificial columns, over the rows' common scale
    scale = math.lcm(*(row[n + i] for i, row in enumerate(tab)))
    obj = [0] * (n + m + 1)
    for i, row in enumerate(tab):
        k = scale // row[n + i]
        obj = [o - k * v for o, v in zip(obj, row)]
    obj[n : n + m] = [0] * m
    found = _end_phase_one(tab, _reduced(obj), basis, n, range(n + m))
    return None if found is None else (found, basis)


def _take_row(tab, basis, row):
    """Append one equality row to a tableau in a feasible basis and restore
    feasibility: phase 1 on that row alone.  ``row`` holds the row's
    integers over the tableau's columns and one new last column (its
    surplus), then its right-hand side.  The basic columns are eliminated
    from it, and an artificial column on it alone stands in as its basic
    variable, so every other row keeps its basic column; phase 1 then
    minimizes the artificial.  Returns the tableau with the row and without
    the artificial, or None when the row leaves the system infeasible."""
    n = len(row) - 1
    for other in tab:
        other[n - 1 : n - 1] = (0, 0)  # the new surplus, then the artificial
    row = row[:n] + [0] + row[-1:]
    for other, bi in zip(tab, basis):
        f = row[bi]
        if f:
            s = other[bi]
            row = _reduced([s * a - f * b for a, b in zip(row, other)])
    if row[-1] < 0:
        row = [-a for a in row]
    row[n] = 1
    tab.append(row)
    basis.append(n)
    # minimize the artificial: reduced cost -row outside its column
    obj = [-a for a in row]
    obj[n] = 0
    return _end_phase_one(tab, obj, basis, n, range(n))


def _basic_terms(tab, basis, nv, low, unit):
    """(terms, scale): the basic solution's first nv coordinates, terms[i] /
    scale each, the shares shifted back by their bounds low[i] / unit."""
    scale = math.lcm(unit, *(tab[i][bi] for i, bi in enumerate(basis) if bi < nv))
    terms = [a * (scale // unit) for a in low] + [0] * (nv - len(low))
    for row, bi in zip(tab, basis):
        if bi < nv:
            terms[bi] += row[-1] * (scale // row[bi])
    return terms, scale


# ---------------------------------------------------------------------------
# system-level solving (variables shifted to x = f - lower >= 0)


def _row(width, cols, a, minus, d, r, art=None):
    """The rational row a/d on ``cols``, -1 on ``minus`` (and on the column
    ``art``, if given, 1) with right-hand side r/d, as its primitive integer
    multiple, negated first if r is negative."""
    neg = -d
    if r < 0:
        a, neg, r = -a, d, -r
    g = math.gcd(a, d, r)
    row = [0] * width
    for j in cols:
        row[j] = a // g
    for j in minus:
        row[j] = neg // g
    if art is not None:
        row[art] = d // g
    row[-1] = r // g
    return row


def _halfspace_terms(h: Halfspace, low, unit):
    """(members, a, d, r): the halfspace in the shifted variables reads
    a/d * sum(x_i for the members) >= r/d, for lower bounds low[i] / unit."""
    mem = members(h.support)
    c, r = h.coef, h.rhs
    a = c.numerator * r.denominator
    d = c.denominator * r.denominator * unit
    return mem, a * unit, d, r.numerator * c.denominator * unit - a * sum(low[i] for i in mem)


def _tableau(system: LinearSystem, slack_var: bool):
    """Phase-1 integer rows of the system in standard form; returns (tab,
    n, low, unit), the lower bounds being low[i] / unit.

    Columns: the dim shifted shares (plus a trailing slack variable t when
    requested), one surplus column per inequality, then one artificial
    column per row, then the right-hand side; n counts the columns before
    the artificials.  Rows: the split equality, then each halfspace's
    coef*sum(x) [- t] - surplus = rhs - coef*sum(lower), then with the slack
    x_i - t - surplus = 0.  A row is the primitive integer multiple of its
    rational row (artificial entry 1), negated first if its right-hand side
    is negative."""
    dim = system.dim
    nv = dim + 1 if slack_var else dim
    nh = len(system.halfspaces)
    ns = nh + dim if slack_var else nh
    n = nv + ns
    width = n + 1 + ns + 1
    low, unit = integer_terms(system.lower)
    tab = [_row(width, range(dim), unit, (), unit, unit - sum(low), n)]
    slack = (dim,) if slack_var else ()
    for k, h in enumerate(system.halfspaces):
        mem, a, d, r = _halfspace_terms(h, low, unit)
        tab.append(_row(width, mem, a, slack + (nv + k,), d, r, n + len(tab)))
    if slack_var:
        for i in range(dim):
            tab.append(_row(width, (i,), 1, (dim, nv + nh + i), 1, 0, n + len(tab)))
    return tab, n, low, unit


def split_center(low, unit):
    """The max-slack point of the bare split simplex f_i >= low[i] / unit in
    closed form, the leftover rest = unit - sum(low) spread evenly: (terms,
    dim * unit), shares then slack, or None when rest < 0 (it is empty)."""
    dim, rest = len(low), unit - sum(low)
    return None if rest < 0 else ([dim * a + rest for a in low] + [rest], dim * unit)


def _split_start(low, unit):
    """``max_slack_point``'s optimal tableau on a bare split simplex, on
    ``_tableau``'s columns: basis x_0..x_{dim-1}, t, surpluses s nonbasic,
    rows dim*x_i + sum(s) - dim*s_i = dim*t + sum(s) = rest / unit (x_i = t
    + s_i).  The only optimal basis unless rest is 0; None when empty."""
    center = split_center(low, unit)
    if center is None:
        return None
    (*_, rest), scale = center
    dim = len(low)
    tab = [[0] * (dim + 1) + [unit] * dim + [rest] for _ in range(dim + 1)]
    for i, row in enumerate(tab[:dim]):
        row[i], row[dim + 1 + i] = scale, unit - scale
    tab[dim][dim] = scale
    return list(map(_reduced, tab)), list(range(dim + 1))


def _optimize(tab, basis, n, costs) -> None:
    """One phase-2 stage per cost (integer lists over the leading columns),
    each from the previous optimal basis, on a positive multiple of its
    reduced costs.  A nonbasic column with positive reduced cost is zero on
    every optimal point of its stage, so dropping it from the entering
    candidates keeps exactly the optimal face."""
    candidates = range(n)
    for cost in costs:
        obj = cost + [0] * (n + 1 - len(cost))
        for row, bi in zip(tab, basis):
            k = obj[bi]  # the basic column's cost, times the scale so far
            if k:
                s = row[bi]
                obj = [s * o - k * r for o, r in zip(obj, row)]
        obj = _reduced(obj)
        status = _pivot_loop(tab, obj, basis, candidates)
        if status != "optimal":  # pragma: no cover - the split simplex is bounded
            raise NumericFailure("phase-2 simplex reported unbounded")
        candidates = [j for j in candidates if obj[j] == 0]


def _lexmin(system: LinearSystem, costs, slack_var: bool = False, price=None):
    """The one LP solve behind ``feasible``, ``minimize`` and
    ``max_slack_point``: minimize the costs over the leading columns of
    ``_tableau`` in turn, by one phase 1, then ``_optimize``, re-run after
    each halfspace a ``price`` (see ``max_slack_point``) names at the
    optimum is taken in by ``_take_row``; a bare split simplex under the
    slack stages starts at its optimum instead (``_split_start``).  Returns
    (point, slack variable or None), re-checked against ``system``, or None
    when the rows taken in so far are infeasible."""
    dim = system.dim
    split = slack_var and not system.halfspaces
    if split:
        low, unit = integer_terms(system.lower)
        n, found = 2 * dim + 1, _split_start(low, unit)
    else:
        tab, n, low, unit = _tableau(system, slack_var)
        found = _phase_one(tab, n)
    if found is None:
        return None
    tab, basis = found
    if not split:
        _optimize(tab, basis, n, costs)
    while True:
        terms, scale = _basic_terms(tab, basis, dim + slack_var, low, unit)
        row = price(terms[:dim], scale, terms[dim]) if price else None
        if row is None:
            break
        # coef*sum(x) - t - surplus = rhs - coef*sum(lower), surplus last
        mem, a, d, r = _halfspace_terms(row[1], low, unit)
        n += 1
        tab = _take_row(tab, basis, _row(n + 1, mem, a, (dim, n - 1), d, r))
        if tab is None:
            return None
        _optimize(tab, basis, n, costs)
    point = tuple(Fraction(a, scale) for a in terms[:dim])
    if not satisfies(system, point):
        raise NumericFailure("simplex returned a point violating the system")
    return point, Fraction(terms[dim], scale) if slack_var else None


def feasible(system: LinearSystem) -> tuple | None:
    """A feasible point (exact Fractions) or None: the basic point phase 1
    ends on."""
    found = _lexmin(system, ())
    return None if found is None else found[0]


def minimize(system: LinearSystem, cost):
    """Minimize sum(cost[i]*f_i); returns (value, point) or None when the
    system is infeasible."""
    if len(cost) != system.dim:
        raise ValueError("cost vector length must match dim")
    cvec = [_frac(c) for c in cost]
    found = _lexmin(system, [integer_terms(cvec)[0]])
    if found is None:
        return None
    point = found[0]
    return sum(c * f for c, f in zip(cvec, point)), point


def max_slack_point(system: LinearSystem, price=None):
    """The feasible point maximizing the minimum constraint slack, with ties
    broken by lexicographic minimality; returns (point, slack).

    Slack of a lower bound is f_i - lb_i; slack of a halfspace is
    coef*sum - rhs.  The stages maximize the slack t, then minimize f_0,
    ..., f_{dim-1}, after phase 1; a bare split simplex (no halfspaces)
    starts at their optimum, in closed form (``split_center``).
    Raises InfeasibleSystem when nothing is feasible.

    With ``price``, halfspaces beyond ``system``'s are given lazily, by row
    generation: ``price(terms, scale, t)``, at the point terms / scale of
    slack t / scale, returns ``(key, halfspace)`` for the halfspace of least
    slack among those whose slack there is below t / scale, ties going to
    the lowest key, or None when there is none.  Each round appends the
    priced halfspace to the last round's optimal tableau, until there is
    none; the answer then meets every halfspace, so verdict and max-slack
    point are the whole system's.  The max-slack point of each restriction
    (``system`` plus the halfspaces taken in, in key order) is unique, so it
    is the one a cold solve finds.  The caller re-checks the answer against
    every priced halfspace.
    """
    dim = system.dim
    costs = [[0] * dim + [-1]] + [[0] * i + [1] for i in range(dim)]
    found = _lexmin(system, costs, True, price)
    if found is None:
        raise InfeasibleSystem("system has no feasible point")
    return found


def packing_point(dim: int, cap: int, price):
    """The lexicographic optimum of a packing LP over x >= 0 in dim
    coordinates: maximize sum(x), then minimize x_0, ..., x_{dim-2} in turn
    (dim stages in all, so the point is unique), under sum(x) <= cap and
    rows x(support) <= cap' given lazily.  Caps are nonnegative integers,
    so the origin is feasible: no phase 1 runs, and the tableau starts in
    the slack basis of the one row.  ``price(terms, scale)``, at the point
    terms / scale, returns (support, cap') for a row the point violates, or
    None; each round takes it in with a slack column of its own
    (``_take_row``) and re-runs the stages.  Returns (terms, scale) of the
    point meeting every row; the caller re-checks it."""
    n, tab, basis = dim + 1, [[1] * (dim + 1) + [cap]], [dim]
    costs = [[-1] * dim] + [[0] * i + [1] for i in range(dim - 1)]
    while True:
        _optimize(tab, basis, n, costs)
        terms, scale = _basic_terms(tab, basis, dim, (), 1)
        row = price(terms, scale)
        if row is None:
            return terms, scale
        support, cap = row
        row = [support >> j & 1 for j in range(dim)] + [0] * (n - dim) + [1, cap]
        n += 1
        tab = _take_row(tab, basis, row)
        if tab is None:  # pragma: no cover - the origin meets every row
            raise NumericFailure("a packing row with a nonnegative cap was infeasible")


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

    def row(support, coef):
        return [coef if support >> i & 1 else _F0 for i in range(dim)]

    split = ([_F1] * dim, _F1)
    ineqs = [(row(1 << i, _F1), lb) for i, lb in enumerate(system.lower)]
    ineqs += [(row(h.support, h.coef), h.rhs) for h in system.halfspaces]
    found = set()
    for combo in itertools.combinations(range(len(ineqs)), dim - 1):
        rows = [split] + [ineqs[k] for k in combo]
        point = _solve_square(rows)
        if point is None:
            continue
        if all(
            sum(c * x for c, x in zip(row, point)) >= rhs for row, rhs in ineqs
        ):
            found.add(point)
    return sorted(found)
