"""Games built from risky ventures.

Two constructions produce strictly positive games in float mode:

* mean-std: a coalition of s players earns s*mu - r*sqrt(s)*sigma, scaled by
  an optional per-coalition synergy factor; r is the risk-aversion weight and
  must stay in [0, mu/sigma) so every value is positive.

* tail-average mixtures: each coalition carries a nondecreasing piecewise
  linear reward-quantile curve; its value averages the lower-tail means
  (the average of k over the worst 1-alpha quantile mass) against a mixing
  density over alpha.  High alpha averages a small, bad tail, so densities
  leaning toward alpha = 1 price more conservatively.

The module also hosts the two monotonicity verifiers: rising risk aversion
in the mean-std family orders the games, and a likelihood-ratio shift of the
mixing density orders tail-average games whose curves have the dominating-
tail-ratio property.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import AlphaOutOfRange, RBarOutOfRange, ScenarioError
from .games import (
    DEFAULT_TOL,
    FLOAT,
    MAX_PLAYERS,
    Game,
    coalition_from_label,
    coalitions,
    default_players,
    leq,
    geq,
    make_game,
    submasks,
)
from .centripetality import OrderVerdict, leq_cp

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


# ---------------------------------------------------------------------------
# piecewise linear curves


def _column(xs) -> np.ndarray:
    col = np.array(xs, dtype=float)
    col.setflags(write=False)
    return col


def _segments(knots_x: np.ndarray, x):
    """Elementwise ``bisect_right(knots_x, x) - 1``, clipped to the last
    segment, plus the mask of points at or past the last knot."""
    j = np.searchsorted(knots_x, x, side="right") - 1
    last = j >= len(knots_x) - 1
    return np.minimum(j, len(knots_x) - 2), last


def _interp(knots_x: np.ndarray, knots_y: np.ndarray, x):
    """Piecewise linear interpolation at every point of x (a float or an
    array), held at the last knot's value from the last knot on."""
    j, last = _segments(knots_x, x)
    x0, x1 = knots_x[j], knots_x[j + 1]
    y0, y1 = knots_y[j], knots_y[j + 1]
    return np.where(last, knots_y[-1], y0 + (y1 - y0) * (x - x0) / (x1 - x0))


@dataclass(frozen=True)
class QuantileCurve:
    """Nondecreasing piecewise linear reward-quantile curve on [0, 1],
    nonnegative, strictly positive away from 0.  ``prefix[j]`` caches the
    integral from 0 to the j-th knot; ``betas`` and ``values`` are the knot
    columns.  The columns are read-only arrays; equality and hashing depend
    on ``knots`` alone."""

    knots: tuple[tuple[float, float], ...]
    prefix: np.ndarray = field(compare=False, repr=False)
    betas: np.ndarray = field(init=False, compare=False, repr=False)
    values: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "prefix", _column(self.prefix))
        object.__setattr__(self, "betas", _column([b for b, _ in self.knots]))
        object.__setattr__(self, "values", _column([v for _, v in self.knots]))

    def value(self, beta: float) -> float:
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"quantile argument {beta!r} outside [0, 1]")
        return float(_interp(self.betas, self.values, beta))

    def integral_to(self, x: float) -> float:
        """Integral of the curve from 0 to x."""
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"integration bound {x!r} outside [0, 1]")
        return float(self._integrals(x))

    def _integrals(self, x):
        """Integral from 0 to every point of x in [0, 1], closed form per
        segment."""
        betas, vals, prefix = self.betas, self.values, self.prefix
        j, last = _segments(betas, x)
        dx = x - betas[j]
        slope = (vals[j + 1] - vals[j]) / (betas[j + 1] - betas[j])
        return np.where(last, prefix[-1], prefix[j] + vals[j] * dx + 0.5 * slope * dx * dx)

    @property
    def mean(self) -> float:
        return float(self.prefix[-1])


def quantile_curve(knots: Sequence) -> QuantileCurve:
    pts = [(float(b), float(v)) for b, v in knots]
    if not all(math.isfinite(b) and math.isfinite(v) for b, v in pts):
        raise ValueError("curve knots must be finite")
    if len(pts) < 2 or pts[0][0] != 0.0 or pts[-1][0] != 1.0:
        raise ValueError("curve knots must run from beta=0 to beta=1")
    prev_b, prev_v = pts[0]
    if prev_v < 0:
        raise ValueError("curve values must be nonnegative")
    prefix = [0.0]
    for b, v in pts[1:]:
        if b <= prev_b:
            raise ValueError("curve knots must be strictly increasing in beta")
        if v < prev_v:
            raise ValueError("curve must be nondecreasing")
        if v <= 0:
            raise ValueError("curve must be strictly positive for beta > 0")
        prefix.append(prefix[-1] + 0.5 * (prev_v + v) * (b - prev_b))
        prev_b, prev_v = b, v
    return QuantileCurve(tuple(pts), tuple(prefix))


def uniform_curve(lo: float, hi: float) -> QuantileCurve:
    """Curve of a reward uniformly spread between lo and hi."""
    return quantile_curve([(0.0, lo), (1.0, hi)])


def empirical_curve(samples: Sequence, knot_count: int = 101) -> QuantileCurve:
    """Quantile curve estimated from raw reward draws.

    Evaluates the linearly interpolated empirical quantile function of the
    sample at knot_count evenly spaced levels.  Draws must be positive so
    the resulting curve is a valid reward curve.
    """
    if knot_count < 2:
        raise ScenarioError("need at least two knots")
    data = [float(x) for x in samples]
    if not data:
        raise ScenarioError("cannot build a curve from an empty sample")
    if not all(math.isfinite(x) for x in data):
        raise ScenarioError("sample draws must be finite")
    if min(data) <= 0:
        raise ScenarioError("sample draws must be positive")
    betas = [j / (knot_count - 1) for j in range(knot_count)]
    levels = np.quantile(np.array(data), betas)
    knots = []
    prev = None
    for b, q in zip(betas, levels):
        q = float(q)
        if prev is not None and q < prev:
            q = prev
        knots.append((b, q))
        prev = q
    return quantile_curve(knots)


@dataclass(frozen=True)
class Density:
    """Piecewise linear mixing density on [0, 1]: nonnegative, strictly
    positive strictly inside the interval, integrating to one.  ``alphas``
    and ``values`` are the knot columns, as read-only arrays; equality and
    hashing depend on ``knots`` alone."""

    knots: tuple[tuple[float, float], ...]
    alphas: np.ndarray = field(init=False, compare=False, repr=False)
    values: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "alphas", _column([a for a, _ in self.knots]))
        object.__setattr__(self, "values", _column([v for _, v in self.knots]))

    def value(self, alpha: float) -> float:
        if not 0.0 <= alpha <= 1.0:
            raise AlphaOutOfRange(f"density argument {alpha!r} outside [0, 1]")
        return float(_interp(self.alphas, self.values, alpha))


def density_curve(knots: Sequence, *, normalize: bool = False) -> Density:
    pts = [(float(a), float(v)) for a, v in knots]
    if not all(math.isfinite(a) and math.isfinite(v) for a, v in pts):
        raise ValueError("density knots must be finite")
    if len(pts) < 2 or pts[0][0] != 0.0 or pts[-1][0] != 1.0:
        raise ValueError("density knots must run from alpha=0 to alpha=1")
    total = 0.0
    prev_a, prev_v = pts[0]
    if prev_v < 0:
        raise ValueError("density values must be nonnegative")
    for a, v in pts[1:]:
        if a <= prev_a:
            raise ValueError("density knots must be strictly increasing in alpha")
        if v < 0 or (v == 0 and a < 1.0):
            raise ValueError("density must be strictly positive inside (0, 1)")
        total += 0.5 * (prev_v + v) * (a - prev_a)
        prev_a, prev_v = a, v
    if normalize:
        if total <= 0:
            raise ValueError("cannot normalize a zero density")
        pts = [(a, v / total) for a, v in pts]
    elif abs(total - 1.0) > 1e-9:
        raise ValueError(f"density integrates to {total!r}, not 1; pass normalize=True")
    return Density(tuple(pts))


def beta_density(a: float, knot_count: int = 101) -> Density:
    """Discretized density proportional to alpha**(a-1); a = 1 is uniform,
    larger a shifts mass toward alpha = 1 (more conservative mixing)."""
    if a < 1:
        raise ValueError("shape parameter must be at least 1")
    if knot_count < 2:
        raise ValueError("need at least two knots")
    alphas = [j / (knot_count - 1) for j in range(knot_count)]
    return density_curve([(x, x ** (a - 1)) for x in alphas], normalize=True)


# ---------------------------------------------------------------------------
# tail averages and mixtures


def cvar(curve: QuantileCurve, alpha: float) -> float:
    """Mean of the curve over its lowest 1-alpha mass: the strict tail
    average at level alpha.  alpha = 0 gives the plain mean."""
    return float(_tail_averages(curve, alpha))


def _tail_averages(curve: QuantileCurve, alpha) -> np.ndarray:
    """``cvar`` at every point of alpha (a float or an array).  Once alpha
    is in [0, 1), the integration bound 1 - alpha is in (0, 1]."""
    alpha = np.asarray(alpha, dtype=float)
    ok = (alpha >= 0.0) & (alpha < 1.0)
    if not ok.all():
        raise AlphaOutOfRange(f"tail level {float(alpha[~ok][0])!r} outside [0, 1)")
    x = 1.0 - alpha
    return curve._integrals(x) / x


def mixture_reward(curve: QuantileCurve, density: Density) -> float:
    """Tail averages of the curve mixed against the density, by composite
    Gauss-Legendre quadrature split at every kink of the integrand.

    The panel grid is built in Python: every interval between consecutive
    kinks (1 - beta at each curve knot, alpha at each density knot) is split
    into ceil(width / 0.0625) equal panels of 32 nodes.  All nodes of all
    panels are then evaluated in one numpy sweep: each node's term is
    weight * half-width * cvar * density, from the same array helpers that
    the scalar ``cvar`` and ``Density.value`` call, so every term is
    bit-for-bit the scalar term.

    The terms are summed left to right, panel-major and node-minor, with
    ``np.add.accumulate``.  The order is fixed because coalition values feed
    exact LPs and byte-compared reports: ``np.sum`` sums pairwise and the
    built-in ``sum`` compensates from Python 3.12, and either changes the
    last bits of the result.
    """
    points = {0.0, 1.0}
    points.update((1.0 - curve.betas).tolist())
    points.update(density.alphas.tolist())
    grid = sorted(x for x in points if 0.0 <= x <= 1.0)
    lo, hi = [], []
    for a, b in zip(grid, grid[1:]):
        width = b - a
        if width <= 0:
            continue
        panels = max(1, math.ceil(width / 0.0625))
        for p in range(panels):
            lo.append(a + width * p / panels)
            hi.append(a + width * (p + 1) / panels)
    lo = np.array(lo)[:, None]
    hi = np.array(hi)[:, None]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    alpha = (mid + half * _GL_NODES).ravel()
    tails = _tail_averages(curve, alpha)
    dens = _interp(density.alphas, density.values, alpha)
    terms = (_GL_WEIGHTS * half).ravel() * tails * dens
    return float(np.add.accumulate(terms)[-1])


# ---------------------------------------------------------------------------
# monotone ratio checks (division-free, segmentwise)


@dataclass(frozen=True)
class MonotoneVerdict:
    holds: bool
    violations: tuple = ()


def _ratio_monotone(f_knots, g_knots, nonincreasing: bool, tol: float):
    """Check that g/f is monotone on [0, 1] for piecewise linear f, g >= 0.

    On each common-refinement segment the numerator of (g/f)' is the linear
    function W = g'*f - g*f', so checking W's sign at segment endpoints is
    exact.  Returns the first offending segment or None.
    """
    xs = sorted({x for x, _ in f_knots} | {x for x, _ in g_knots})
    f_x, f_y = np.array(f_knots, dtype=float).T
    g_x, g_y = np.array(g_knots, dtype=float).T
    f = _interp(f_x, f_y, np.array(xs)).tolist()
    g = _interp(g_x, g_y, np.array(xs)).tolist()
    for i, (a, b) in enumerate(zip(xs, xs[1:])):
        if b <= a:
            continue
        fa, fb = f[i], f[i + 1]
        ga, gb = g[i], g[i + 1]
        mf = (fb - fa) / (b - a)
        mg = (gb - ga) / (b - a)
        for fx, gx in ((fa, ga), (fb, gb)):
            lhs = mg * fx
            rhs = gx * mf
            ok = leq(lhs, rhs, tol) if nonincreasing else geq(lhs, rhs, tol)
            if not ok:
                return (a, b)
    return None


def check_tail_dominance(
    curves: Mapping[int, QuantileCurve], tol: float = DEFAULT_TOL
) -> MonotoneVerdict:
    """Whether for every nested coalition pair the larger coalition's curve
    dominates in relative tails: the curve ratio outer/inner is nonincreasing
    in the quantile argument."""
    violations = []
    for outer in sorted(curves):
        for inner in submasks(outer, proper=True):
            if inner not in curves:
                continue
            bad = _ratio_monotone(
                curves[inner].knots, curves[outer].knots, nonincreasing=True, tol=tol
            )
            if bad is not None:
                violations.append((inner, outer) + bad)
    return MonotoneVerdict(not violations, tuple(violations))


def leq_lr(d1: Density, d2: Density, tol: float = DEFAULT_TOL) -> MonotoneVerdict:
    """Likelihood-ratio comparison of mixing densities: d2/d1 nondecreasing,
    meaning d2 leans toward high alpha (prices tails harder) than d1."""
    bad = _ratio_monotone(d1.knots, d2.knots, nonincreasing=False, tol=tol)
    if bad is None:
        return MonotoneVerdict(True)
    return MonotoneVerdict(False, (bad,))


# ---------------------------------------------------------------------------
# game constructions


@dataclass(frozen=True)
class MeanStdScenario:
    n: int
    mu: float
    sigma: float
    r: float
    phi: Mapping[int, float] | None = None


def _check_player_count(n: int) -> int:
    """Refuse a player count outside 1..MAX_PLAYERS before any of its 2^n
    coalitions is built."""
    if not 1 <= n <= MAX_PLAYERS:
        raise ScenarioError(f"n must be in 1..{MAX_PLAYERS}, got {n}")
    return n


def meanstd_value(size: int, mu: float, sigma: float, r: float) -> float:
    return size * mu - r * math.sqrt(size) * sigma


def build_meanstd_game(
    scenario: MeanStdScenario,
    *,
    players: Sequence[str] | None = None,
    tol: float = DEFAULT_TOL,
) -> Game:
    """Pooled-venture game: s pooled units earn s*mu with sqrt(s)*sigma
    spread, priced at aversion r; an optional synergy factor scales single
    coalitions.  r = 0 gives the additive game scaled by the synergy."""
    n, mu, sigma, r = scenario.n, scenario.mu, scenario.sigma, scenario.r
    _check_player_count(n)
    if mu <= 0 or sigma <= 0:
        raise ScenarioError("mu and sigma must be positive")
    if not 0 <= r < mu / sigma:
        raise RBarOutOfRange(f"risk aversion {r!r} outside [0, {mu / sigma!r})")
    phi = scenario.phi or {}
    for c, factor in phi.items():
        if factor <= 0:
            raise ScenarioError(f"synergy factor for {c:#x} must be positive")
    values = {}
    for c in coalitions(n):
        base = meanstd_value(c.bit_count(), mu, sigma, r)
        values[c] = phi.get(c, 1.0) * base
    return make_game(n, values, mode=FLOAT, tol=tol, players=players)


def build_cvar_game(
    curves: Mapping[int, QuantileCurve],
    density: Density,
    *,
    players: Sequence[str] | None = None,
    tol: float = DEFAULT_TOL,
) -> Game:
    """Game whose coalition values are the curves' tail averages mixed
    against the density.  The curve table must cover every coalition of the
    players (by default, of as many players as the largest mask spans);
    equal curves are integrated once."""
    if not curves:
        raise ScenarioError("no curves supplied")
    n = len(players) if players is not None else max(curves).bit_length()
    if not 1 <= n <= MAX_PLAYERS:
        raise ScenarioError(f"a cvar game needs 1..{MAX_PLAYERS} players, got {n}")
    if len(curves) != (1 << n) - 1 or any(c not in curves for c in coalitions(n)):
        raise ScenarioError(f"curve table must cover all coalitions of {n} players")
    rewards: dict[QuantileCurve, float] = {}
    values = {}
    for c in coalitions(n):
        curve = curves[c]
        if curve not in rewards:
            rewards[curve] = mixture_reward(curve, density)
        values[c] = rewards[curve]
    return make_game(n, values, mode=FLOAT, tol=tol, players=players)


def uniform_curve_family(
    n: int, lo: Callable[[int], float], hi: Callable[[int], float]
) -> dict[int, QuantileCurve]:
    """One uniform-spread curve per coalition, parameterized by size."""
    _check_player_count(n)
    out = {}
    for c in coalitions(n):
        s = c.bit_count()
        out[c] = uniform_curve(lo(s), hi(s))
    return out


def default_uniform_family(n: int) -> dict[int, QuantileCurve]:
    """Size-s coalitions rewarded uniformly between s and s + sqrt(s); the
    relative tail widens with size, so tail dominance holds."""
    return uniform_curve_family(n, lambda s: float(s), lambda s: s + math.sqrt(s))


# ---------------------------------------------------------------------------
# monotonicity verifiers


@dataclass(frozen=True)
class Prop1Report:
    r_grid: tuple[float, ...]
    order_pairs: int
    ratio_checks: int
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "r_grid": list(self.r_grid),
            "order_pairs": self.order_pairs,
            "ratio_checks": self.ratio_checks,
            "passed": self.passed,
            "violations": list(self.violations),
        }


def verify_prop1(
    n: int,
    mu: float,
    sigma: float,
    r_grid: Sequence[float],
    phi: Mapping[int, float] | None = None,
    *,
    tol: float = DEFAULT_TOL,
) -> Prop1Report:
    """Rising risk aversion orders mean-std games: for every grid pair
    r1 <= r2 the r1 game precedes the r2 game, and every size-pair value
    ratio grows with r.  The synergy factor cancels from all ratios."""
    grid = tuple(float(r) for r in r_grid)
    games = [
        build_meanstd_game(MeanStdScenario(n, mu, sigma, r, phi), tol=tol) for r in grid
    ]
    order_violations = []
    ratio_violations = []
    order_pairs = 0
    ratio_checks = 0
    for i in range(len(grid)):
        for j in range(len(grid)):
            if grid[i] > grid[j] or i == j:
                continue
            order_pairs += 1
            verdict = leq_cp(games[i], games[j])
            if not verdict.holds:
                order_violations.append(f"order fails between r={grid[i]} and r={grid[j]}")
            for s1 in range(1, n + 1):
                for s2 in range(s1, n + 1):
                    ratio_checks += 1
                    lhs = meanstd_value(s2, mu, sigma, grid[i]) * meanstd_value(
                        s1, mu, sigma, grid[j]
                    )
                    rhs = meanstd_value(s2, mu, sigma, grid[j]) * meanstd_value(
                        s1, mu, sigma, grid[i]
                    )
                    if not leq(lhs, rhs, tol):
                        ratio_violations.append(
                            f"ratio not monotone for sizes ({s1},{s2}) between "
                            f"r={grid[i]} and r={grid[j]}"
                        )
    violations = order_violations + ratio_violations
    return Prop1Report(grid, order_pairs, ratio_checks, tuple(violations))


@dataclass(frozen=True)
class Prop2Report:
    tail: MonotoneVerdict
    likelihood: MonotoneVerdict
    order: OrderVerdict
    one_unit_checks: int
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return (
            self.tail.holds
            and self.likelihood.holds
            and self.order.holds
            and not self.violations
        )

    def to_dict(self) -> dict:
        return {
            "tail_dominance": self.tail.holds,
            "likelihood_ratio": self.likelihood.holds,
            "order_holds": self.order.holds,
            "one_unit_checks": self.one_unit_checks,
            "passed": self.passed,
            "violations": list(self.violations),
        }


def verify_prop2(
    curves: Mapping[int, QuantileCurve],
    d1: Density,
    d2: Density,
    *,
    grid: int = 21,
    tol: float = DEFAULT_TOL,
) -> Prop2Report:
    """Given tail dominance of the curves, a likelihood-ratio shift of the
    mixing density toward high alpha orders the mixture games.  Also checks
    the pointwise one-unit form: each nested pair's tail-average ratio is
    nondecreasing in alpha on a grid."""
    tail = check_tail_dominance(curves, tol)
    likelihood = leq_lr(d1, d2, tol)
    g1 = build_cvar_game(curves, d1, tol=tol)
    g2 = build_cvar_game(curves, d2, tol=tol)
    order = leq_cp(g1, g2)
    alphas = [j / grid for j in range(grid)]
    table = {c: _tail_averages(k, alphas).tolist() for c, k in curves.items()}
    violations = []
    checks = 0
    for outer in sorted(curves):
        for inner in submasks(outer, proper=True):
            if inner not in curves:
                continue
            lo = table[inner]
            hi = table[outer]
            for t in range(len(alphas) - 1):
                checks += 1
                if not leq(hi[t] * lo[t + 1], hi[t + 1] * lo[t], tol):
                    violations.append(
                        f"tail-average ratio drops on ({inner:#x},{outer:#x}) "
                        f"at alpha={alphas[t]:.3f}"
                    )
    if not order.holds:
        violations.append("mixture games are not ordered")
    return Prop2Report(tail, likelihood, order, checks, tuple(violations))


# ---------------------------------------------------------------------------
# scenario files


def _field_map(raw, name: str) -> Mapping:
    if not isinstance(raw, Mapping):
        raise ScenarioError(f"{name} must be an object, got {raw!r}")
    return raw


def _field_list(raw, name: str) -> Sequence:
    if not isinstance(raw, (list, tuple)):
        raise ScenarioError(f"{name} must be a list, got {raw!r}")
    return raw


def _field_number(raw, name: str, kind=float):
    """raw as a float, or for kind=int as an integer; strings, booleans and
    non-integral values of an int field are rejected."""
    if isinstance(raw, bool) or not isinstance(raw, numbers.Real):
        raise ScenarioError(f"{name} must be a number, got {raw!r}")
    try:
        value = kind(raw)
    except (ValueError, OverflowError) as exc:
        raise ScenarioError(f"{name} must be a finite number, got {raw!r}") from exc
    if kind is int and value != raw:
        raise ScenarioError(f"{name} must be an integer, got {raw!r}")
    return value


def _field_bool(raw, name: str) -> bool:
    if not isinstance(raw, bool):
        raise ScenarioError(f"{name} must be true or false, got {raw!r}")
    return raw


def _field_knots(raw, name: str) -> list[tuple[float, float]]:
    pts = []
    for i, pt in enumerate(_field_list(raw, name)):
        if not isinstance(pt, (list, tuple)) or len(pt) != 2:
            raise ScenarioError(f"{name}[{i}] must be an [x, y] pair, got {pt!r}")
        pts.append(tuple(_field_number(x, f"{name}[{i}]") for x in pt))
    return pts


def _field_players(data: Mapping, default) -> tuple[str, ...]:
    if "players" not in data:
        return tuple(default)
    return tuple(str(p) for p in _field_list(data["players"], "players"))


def _field_player_count(raw) -> int:
    return _check_player_count(_field_number(raw, "n", int))


def _field_n_players(data: Mapping, n: int) -> tuple[str, ...]:
    players = _field_players(data, default_players(n))
    if len(players) != n:
        raise ScenarioError(f"expected {n} players, got {len(players)}")
    return players


def meanstd_from_dict(data: Mapping) -> tuple[MeanStdScenario, tuple[str, ...]]:
    _field_map(data, "mean-std scenario")
    missing = [key for key in ("n", "mu", "sigma", "r") if key not in data]
    if missing:
        raise ScenarioError(f"mean-std scenario needs n, mu, sigma, r: missing {', '.join(missing)}")
    n = _field_player_count(data["n"])
    mu = _field_number(data["mu"], "mu")
    sigma = _field_number(data["sigma"], "sigma")
    r = _field_number(data["r"], "r")
    players = _field_n_players(data, n)
    phi = None
    if "phi" in data:
        raw = dict(_field_map(data["phi"], "phi"))
        default = _field_number(raw.pop("default", 1.0), "phi.default")
        table = {c: default for c in coalitions(n)}
        for label, factor in raw.items():
            table[coalition_from_label(label, players)] = _field_number(factor, f"phi.{label}")
        phi = table
    return MeanStdScenario(n, mu, sigma, r, phi), players


def density_from_dict(data: Mapping) -> Density:
    _field_map(data, "density")
    if "beta_a" in data:
        return beta_density(
            _field_number(data["beta_a"], "density.beta_a"),
            _field_number(data.get("knot_count", 101), "density.knot_count", int),
        )
    if "knots" in data:
        return density_curve(
            _field_knots(data["knots"], "density.knots"),
            normalize=_field_bool(data.get("normalize", False), "density.normalize"),
        )
    raise ScenarioError("density needs either 'beta_a' or 'knots'")


def _curve_from_entry(entry, name: str) -> QuantileCurve:
    if isinstance(entry, Mapping):
        if "samples" in entry:
            samples = _field_list(entry["samples"], f"{name}.samples")
            return empirical_curve(
                [_field_number(x, f"{name}.samples") for x in samples],
                _field_number(entry.get("knot_count", 101), f"{name}.knot_count", int),
            )
        if "knots" in entry:
            return quantile_curve(_field_knots(entry["knots"], f"{name}.knots"))
        raise ScenarioError("curve entry needs 'knots' or 'samples'")
    return quantile_curve(_field_knots(entry, name))


def cvar_scenario_from_dict(
    data: Mapping,
) -> tuple[dict[int, QuantileCurve], Density, tuple[str, ...]]:
    _field_map(data, "cvar scenario")
    if "density" not in data:
        raise ScenarioError("scenario needs a 'density' entry")
    density = density_from_dict(data["density"])
    if "curves" in data:
        raw = _field_map(data["curves"], "curves")
        players = _field_players(data, sorted(label for label in raw if "," not in label))
        if not players:
            raise ScenarioError("cannot determine the player list")
        curves = {
            coalition_from_label(label, players): _curve_from_entry(entry, f"curves.{label}")
            for label, entry in raw.items()
        }
        return curves, density, players
    if "n" in data:
        n = _field_player_count(data["n"])
        players = _field_n_players(data, n)
        return default_uniform_family(n), density, players
    raise ScenarioError("scenario needs 'curves' or 'n'")
