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

Curves and mixtures are built in numpy, a group at a time, and every value is
bit for bit what the one-at-a-time build gives:

* a scenario file's sampled curves of one sample count and one knot count
  are built in one 2-D pass (``_empirical_curves``);
* the curves of a game on one knot column are integrated against every
  density on one density column over one quadrature layout, the panel grid
  and each node's lookups, built once; each curve's terms are folded into
  two node buffers of that layout in place (``_mixtures``).
"""

from __future__ import annotations

import contextlib
import functools
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
    _check_players,
    coalition_from_label,
    coalition_label,
    coalitions,
    default_players,
    leq,
    geq,
    make_game,
    submasks,
)
from .centripetality import OrderVerdict, leq_cp

# the 32-point Gauss-Legendre rule on [-1, 1], numpy.polynomial.legendre.leggauss(32)
# written out bit for bit, so that import pays for neither numpy.polynomial nor the solve
_GL_NODES = np.array([float.fromhex(x) for x in """
    -0x1.fe995e70409b6p-1 -0x1.f8a212714bcdcp-1 -0x1.edf5518053baap-1 -0x1.deac0259f7f42p-1
    -0x1.caea9b4574cb9p-1 -0x1.b2e04fd686a13p-1 -0x1.96c69481c4bc5p-1 -0x1.76e0931d693bap-1
    -0x1.537a89c487f8ap-1 -0x1.2ce9146962ca4p-1 -0x1.038862866b29dp-1 -0x1.af76b57c6f8f1p-2
    -0x1.53d55ce57bdf6p-2 -0x1.ea0f7e19c094bp-3 -0x1.27e0ea717f237p-3 -0x1.8bbc8488cc49ap-5
    0x1.8bbc8488cc49ap-5 0x1.27e0ea717f237p-3 0x1.ea0f7e19c094bp-3 0x1.53d55ce57bdf6p-2
    0x1.af76b57c6f8f1p-2 0x1.038862866b29dp-1 0x1.2ce9146962ca4p-1 0x1.537a89c487f8ap-1
    0x1.76e0931d693bap-1 0x1.96c69481c4bc5p-1 0x1.b2e04fd686a13p-1 0x1.caea9b4574cb9p-1
    0x1.deac0259f7f42p-1 0x1.edf5518053baap-1 0x1.f8a212714bcdcp-1 0x1.fe995e70409b6p-1
""".split()])
_GL_WEIGHTS = np.array([float.fromhex(x) for x in """
    0x1.cbf8bc743ce34p-8 0x1.0aa3c248696dep-6 0x1.a0060a8531ff0p-6 0x1.18c5800a35609p-5
    0x1.5ee963a3354abp-5 0x1.a1c6ae961fbeep-5 0x1.e0bd76c924984p-5 0x1.0d9b9a62cac04p-4
    0x1.2854103b35e00p-4 0x1.40483e126fd0ep-4 0x1.553ee25ebebc3p-4 0x1.6705e18e13ecfp-4
    0x1.7572bdb3f6e49p-4 0x1.8062fc0f6fef5p-4 0x1.87bc776f8c6ccp-4 0x1.8b6d9eaec77a3p-4
    0x1.8b6d9eaec77a3p-4 0x1.87bc776f8c6ccp-4 0x1.8062fc0f6fef5p-4 0x1.7572bdb3f6e49p-4
    0x1.6705e18e13ecfp-4 0x1.553ee25ebebc3p-4 0x1.40483e126fd0ep-4 0x1.2854103b35e00p-4
    0x1.0d9b9a62cac04p-4 0x1.e0bd76c924984p-5 0x1.a1c6ae961fbeep-5 0x1.5ee963a3354abp-5
    0x1.18c5800a35609p-5 0x1.a0060a8531ff0p-6 0x1.0aa3c248696dep-6 0x1.cbf8bc743ce34p-8
""".split()])
# a scenario file's knot_count above this is refused before its levels are built
MAX_KNOTS = 10_001


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


def _interp_lookup(knots_x: np.ndarray, x) -> tuple:
    """What ``_interp`` reads of the knot column at every point of x: the
    ``_segments`` (j, last), x's offset from its segment's start and the
    segment's width."""
    j, last = _segments(knots_x, x)
    x0 = knots_x[j]
    return j, last, x - x0, knots_x[j + 1] - x0


def _interp_at(lookup: tuple, knots_y: np.ndarray):
    """``_interp`` of the values knots_y on the column of an ``_interp_lookup``."""
    j, last, dx, width = lookup
    y0, y1 = knots_y[j], knots_y[j + 1]
    return np.where(last, knots_y[-1], y0 + (y1 - y0) * dx / width)


def _interp(knots_x: np.ndarray, knots_y: np.ndarray, x):
    """Piecewise linear interpolation at every point of x (a float or an
    array), held at the last knot's value from the last knot on."""
    return _interp_at(_interp_lookup(knots_x, x), knots_y)


@dataclass(frozen=True)
class _KnotTable:
    """Piecewise linear function on [0, 1] given by its knots.  ``xs`` and
    ``values`` are the knot columns and ``prefix[j]`` the integral from 0 to
    the j-th knot, all read-only arrays; equality and hashing depend on the
    two knot columns alone.  Each kind names its argument (``_argument``) and
    the error that ``value`` raises outside [0, 1] (``_out_of_range``)."""

    xs: np.ndarray = field(compare=False)
    values: np.ndarray = field(compare=False)
    prefix: np.ndarray = field(compare=False, repr=False)
    _key: bytes = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("xs", "values", "prefix"):
            object.__setattr__(self, name, _column(getattr(self, name)))
        # adding 0.0 turns -0.0 into 0.0: the key counts them as one value, as float equality does
        object.__setattr__(self, "_key", (self.xs + 0.0).tobytes() + (self.values + 0.0).tobytes())

    @property
    def knots(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.xs.tolist(), self.values.tolist()))

    def value(self, x: float) -> float:
        if not 0.0 <= x <= 1.0:
            raise self._out_of_range(f"{self._argument} argument {x!r} outside [0, 1]")
        return float(_interp(self.xs, self.values, x))


def _pairs(knots: Sequence) -> np.ndarray:
    """The x and value columns of a sequence of (x, value) knots, as floats."""
    return np.array([(float(x), float(v)) for x, v in knots], dtype=float).reshape(-1, 2).T


def _knot_rows(xs: np.ndarray, vs: np.ndarray, kind: str, arg: str, rules: Callable) -> tuple:
    """The prefix integrals of the piecewise linear functions through the knot
    column xs and each row of values vs, one row each, and per row the
    message of its first fault, or None.  The knots must be finite and run
    from 0 to 1, the first value must be nonnegative, and every knot after
    the first must increase strictly in x and then pass ``rules(x, v,
    previous v)``, a list of (failure mask, message) pairs: a row's first
    failing knot names the message of its first failing rule."""
    x, v, prev_x, prev_v = xs[1:], vs[:, 1:], xs[:-1], vs[:, :-1]
    increase = (x <= prev_x, f"{kind} knots must be strictly increasing in {arg}")
    fails = [increase, *rules(x, v, prev_v)]
    knot_bad = functools.reduce(np.logical_or, [mask for mask, _ in fails])
    finite, runs = np.isfinite(xs).all(), len(xs) >= 2 and xs[0] == 0.0 and xs[-1] == 1.0

    def fault(row: int) -> str | None:
        if not (finite and np.isfinite(vs[row]).all()):
            return f"{kind} knots must be finite"
        if not runs:
            return f"{kind} knots must run from {arg}=0 to {arg}=1"
        if vs[row, 0] < 0:
            return f"{kind} values must be nonnegative"
        if knot_bad[row].any():
            knot = knot_bad[row].argmax()
            return next(message for mask, message in fails if np.broadcast_to(mask, v.shape)[row, knot])
        return None

    # a left fold along each row (np.sum, pairwise, changes the last bits);
    # overflow is inf, as in float sums, and a faulty row's prefix is not read
    prefix = np.zeros(vs.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(0.5 * (prev_v + v), x - prev_x, out=prefix[:, 1:])
        np.add.accumulate(prefix, axis=1, out=prefix)
    # the rows are judged one by one only when some check fails
    clean = finite and runs and np.isfinite(vs).all() and (vs[:, 0] >= 0).all() and not knot_bad.any()
    return prefix, [None] * len(vs) if clean else [fault(row) for row in range(len(vs))]


def _knot_table(xs: np.ndarray, vs: np.ndarray, kind: str, arg: str, rules: Callable) -> tuple:
    """The knot columns of one function, validated by ``_knot_rows`` (its
    fault raised as a ValueError), and its prefix integrals."""
    (prefix,), (fault,) = _knot_rows(xs, vs[None], kind, arg, rules)
    if fault is not None:
        raise ValueError(fault)
    return xs, vs, prefix


@dataclass(frozen=True)
class QuantileCurve(_KnotTable):
    """Nondecreasing piecewise linear reward-quantile curve on [0, 1],
    nonnegative, strictly positive away from 0."""

    _argument = "quantile"
    _out_of_range = ValueError

    @property
    def mean(self) -> float:
        return float(self.prefix[-1])


def _nondecreasing_positive(beta, v, prev_v) -> list:
    return [
        (v < prev_v, "curve must be nondecreasing"),
        (v <= 0, "curve must be strictly positive for beta > 0"),
    ]


def quantile_curve(knots: Sequence) -> QuantileCurve:
    return QuantileCurve(*_knot_table(*_pairs(knots), "curve", "beta", _nondecreasing_positive))


def uniform_curve(lo: float, hi: float) -> QuantileCurve:
    """Curve of a reward uniformly spread between lo and hi."""
    return quantile_curve([(0.0, lo), (1.0, hi)])


def empirical_curve(samples: Sequence, knot_count: int = 101) -> QuantileCurve:
    """Quantile curve estimated from raw reward draws.

    Evaluates the linearly interpolated empirical quantile function of the
    sample at knot_count evenly spaced levels.  Draws must be positive so
    the resulting curve is a valid reward curve.  This is the one-row call
    of ``_empirical_curves``, which a scenario file's sampled curves are
    built by a group at a time.
    """
    (curve,) = _empirical_curves([(list(samples), knot_count)])
    if isinstance(curve, Exception):
        raise curve
    return curve


def _empirical_curves(rows: Sequence[tuple[Sequence, int]]) -> list:
    """``empirical_curve`` of each (draws, knot_count) row: its curve, or the
    error it raises.  The rows of one sample count and one knot count are
    built in one 2-D pass: one array, sorted along axis 1, then the levels,
    their running maximum, the knot rules and the prefix left fold, each
    along axis 1.  Every row's curve is bit for bit its own build's."""
    out: list = [None] * len(rows)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (draws, knot_count) in enumerate(rows):
        if knot_count < 2:
            out[i] = ScenarioError("need at least two knots")
        elif not len(draws):
            out[i] = ScenarioError("cannot build a curve from an empty sample")
        else:
            groups.setdefault((len(draws), knot_count), []).append(i)
    for (_, knot_count), members in groups.items():
        data = np.array([rows[i][0] for i in members], dtype=float)
        finite, positive = np.isfinite(data).all(axis=1), data.min(axis=1) > 0
        for i, f, p in zip(members, finite.tolist(), positive.tolist()):
            if not f:
                out[i] = ScenarioError("sample draws must be finite")
            elif not p:
                out[i] = ScenarioError("sample draws must be positive")
        kept = finite & positive
        if not kept.all():
            members, data = [i for i, k in zip(members, kept.tolist()) if k], data[kept]
        data.sort(axis=1)
        betas = np.arange(knot_count) / (knot_count - 1)
        # the running maximum irons out rounding dips between interpolated levels
        levels = np.maximum.accumulate(_quantiles(data, betas), axis=1)
        prefix, faults = _knot_rows(betas, levels, "curve", "beta", _nondecreasing_positive)
        for i, vs, ps, fault in zip(members, levels, prefix, faults):
            out[i] = QuantileCurve(betas, vs, ps) if fault is None else ValueError(fault)
    return out


def _quantiles(data: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """``np.quantile(data, betas, axis=-1)`` on data sorted along its last axis,
    by its own arithmetic for the linear rule (Hyndman & Fan's type 7),
    without its import of numpy.ma."""
    size = data.shape[-1]
    index = (size - 1) * betas
    below = np.floor(index)
    lo = below.astype(np.intp)
    a, b = data[..., lo], data[..., np.minimum(lo + 1, size - 1)]
    d, g = b - a, index - below
    return np.where(g >= 0.5, b - d * (1 - g), a + d * g)


@dataclass(frozen=True)
class Density(_KnotTable):
    """Piecewise linear mixing density on [0, 1]: nonnegative, strictly
    positive strictly inside the interval, integrating to one."""

    _argument = "density"
    _out_of_range = AlphaOutOfRange


def _positive_inside(alpha, v, prev_v) -> list:
    bad = (v < 0) | ((v == 0) & (alpha < 1.0))
    return [(bad, "density must be strictly positive inside (0, 1)")]


def density_curve(knots: Sequence, *, normalize: bool = False) -> Density:
    xs, vs, prefix = _knot_table(*_pairs(knots), "density", "alpha", _positive_inside)
    total = float(prefix[-1])
    if not math.isfinite(total):
        raise ValueError("density integral overflows the float range")
    if normalize:
        if total <= 0:
            raise ValueError("cannot normalize a zero density")
        with np.errstate(over="ignore"):
            vs, prefix = vs / total, prefix / total
        if not np.isfinite(vs).all():
            raise ValueError("normalized density overflows the float range")
    elif abs(total - 1.0) > 1e-9:
        raise ValueError(f"density integrates to {total!r}, not 1; pass normalize=True")
    return Density(xs, vs, prefix)


def beta_density(a: float, knot_count: int = 101) -> Density:
    """Discretized density proportional to alpha**(a-1); a = 1 is uniform,
    larger a shifts mass toward alpha = 1 (more conservative mixing)."""
    if a < 1:
        raise ValueError("shape parameter must be at least 1")
    if not math.isfinite(a):
        raise ValueError(f"shape parameter must be a finite number, got {a!r}")
    if knot_count < 2:
        raise ValueError("need at least two knots")
    alphas = [j / (knot_count - 1) for j in range(knot_count)]
    return density_curve([(x, x ** (a - 1)) for x in alphas], normalize=True)


# ---------------------------------------------------------------------------
# tail averages and mixtures


def cvar(curve: QuantileCurve, alpha: float) -> float:
    """Mean of the curve over its lowest 1-alpha mass: the strict tail
    average at level alpha.  alpha = 0 gives the plain mean."""
    return float(_tail_averages(curve, _tail_lookup(curve.xs, [alpha]))[0])


def _tail_lookup(knots_x: np.ndarray, alpha) -> tuple:
    """x = 1 - alpha at every point of the array alpha, in (0, 1] once alpha
    is in [0, 1), with ``_segments``' (j, last) on the column and x's offset
    dx; last is None when no point is at or past the last knot."""
    alpha = np.asarray(alpha, dtype=float)
    ok = (alpha >= 0.0) & (alpha < 1.0)
    if not ok.all():
        raise AlphaOutOfRange(f"tail level {float(alpha[~ok][0])!r} outside [0, 1)")
    x = 1.0 - alpha
    j, last = _segments(knots_x, x)
    return x, j, last if last.any() else None, x - knots_x[j]


def _tail_averages(curve: QuantileCurve, lookup: tuple, out=None, scratch=None) -> np.ndarray:
    """``cvar`` at every point of a ``_tail_lookup`` on the curve's column,
    per segment: (prefix[j] + vals[j] * dx + half_slope[j] * dx * dx) / x,
    the last prefix over x from the last knot on.  It is built in place in
    out, with scratch for the second term: node arrays, allocated when None."""
    x, j, last, dx = lookup
    vals, prefix, xs = curve.values, curve.prefix, curve.xs
    half_slope = 0.5 * ((vals[1:] - vals[:-1]) / (xs[1:] - xs[:-1]))
    # mode="wrap" reads as indexing does, where mode="raise" would buffer out
    out = prefix.take(j, out=out, mode="wrap")
    scratch = vals.take(j, out=scratch, mode="wrap")
    out += np.multiply(scratch, dx, out=scratch)
    half_slope.take(j, out=scratch, mode="wrap")
    scratch *= dx
    scratch *= dx
    out += scratch
    if last is not None:
        np.copyto(out, prefix[-1], where=last)
    out /= x
    return out


def _panel_nodes(knots_x: np.ndarray, density_xs: np.ndarray) -> tuple:
    """The quadrature's nodes alpha on the panel grid of a curve column and a
    density column (see ``mixture_reward``), and each panel's half-width."""
    # every point lies in [0, 1]; the sort puts equal ones side by side, and one of each stays
    grid = np.sort(np.concatenate(([0.0, 1.0], 1.0 - knots_x, density_xs)))
    grid = grid[np.concatenate(([True], grid[1:] != grid[:-1]))]
    a, width = grid[:-1], np.diff(grid)
    count = np.maximum(1.0, np.ceil(width / 0.0625))
    # panel p of a gap spans a + width * p / count to a + width * (p + 1) / count, as in a loop
    repeat = count.astype(np.intp)
    p = (np.arange(repeat.sum()) - np.repeat(np.cumsum(repeat) - repeat, repeat))[:, None]
    a, width, count = (np.repeat(x, repeat)[:, None] for x in (a, width, count))
    lo, hi = a + width * p / count, a + width * (p + 1) / count
    half = 0.5 * (hi - lo)
    return (0.5 * (lo + hi) + half * _GL_NODES).ravel(), half


def _mixtures(curves: Sequence[QuantileCurve], densities: Sequence[Density]) -> list[list[float]]:
    """``mixture_reward`` of every curve, all on one knot column, against every
    density: one row of values per density.  The densities on one knot
    column share one layout: the panel grid, each node's weight, density
    segment and ``_tail_lookup``, and two node buffers that each curve's
    terms are folded into in place."""
    knots_x = curves[0].xs
    columns: dict[bytes, list[int]] = {}
    for i, density in enumerate(densities):
        columns.setdefault(density.xs.tobytes(), []).append(i)
    table: list = [None] * len(densities)
    for members in columns.values():
        alpha, half = _panel_nodes(knots_x, densities[members[0]].xs)
        # the densities first, so their temporaries never sit beside the lookup's arrays
        segments = _interp_lookup(densities[members[0]].xs, alpha)
        dens = [_interp_at(segments, densities[i].values) for i in members]
        del segments
        w = (_GL_WEIGHTS * half).ravel()
        lookup = _tail_lookup(knots_x, alpha)
        del alpha
        terms, scratch = np.empty_like(w), np.empty_like(w)
        for i, d in zip(members, dens):
            row = table[i] = []
            for curve in curves:
                # each term is (w * cvar) * density, as IEEE products commute
                _tail_averages(curve, lookup, terms, scratch)
                terms *= w
                terms *= d
                row.append(float(np.add.accumulate(terms, out=scratch)[-1]))
    return table


def mixture_reward(curve: QuantileCurve, density: Density) -> float:
    """Tail averages of the curve mixed against the density, by composite
    Gauss-Legendre quadrature split at every kink of the integrand.

    The panel grid is built in numpy: every interval [a, a + width] between
    consecutive kinks (1 - beta at each curve knot, alpha at each density
    knot) is split into count = ceil(width / 0.0625) panels of 32 nodes, the
    p-th from a + width * p / count to a + width * (p + 1) / count.  All nodes
    are evaluated in one numpy sweep: each node's term is weight * half-width
    * cvar * density, from the array helpers of the scalar ``cvar`` and
    ``Density.value``, so every term is bit-for-bit the scalar term.

    The terms are summed left to right, panel-major and node-minor, with
    ``np.add.accumulate``: coalition values feed exact LPs and byte-compared
    reports, and ``np.sum`` (pairwise) or ``sum`` (compensated from Python
    3.12) changes the last bits of the result.

    This is the one-curve, one-density call of ``_mixtures``, which builds
    the grid and the node lookups once for every curve of a game on one
    knot column and every density on one density column, and folds each
    curve's terms into the layout's node buffers in place.
    """
    return _mixtures([curve], [density])[0][0]


# ---------------------------------------------------------------------------
# monotone ratio checks (division-free, segmentwise)


@dataclass(frozen=True)
class MonotoneVerdict:
    holds: bool
    violations: tuple = ()


def _ratio_monotone(f_table: _KnotTable, g_table: _KnotTable, nonincreasing: bool, tol: float):
    """Check that g/f is monotone on [0, 1] for piecewise linear f, g >= 0.

    On each common-refinement segment the numerator of (g/f)' is the linear
    function W = g'*f - g*f', so checking W's sign at segment endpoints is
    exact.  Returns the first offending segment or None.
    """
    xs = sorted(set(f_table.xs.tolist()) | set(g_table.xs.tolist()))
    f = _interp(f_table.xs, f_table.values, np.array(xs)).tolist()
    g = _interp(g_table.xs, g_table.values, np.array(xs)).tolist()
    for i, (a, b) in enumerate(zip(xs, xs[1:])):
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


def _nested_pairs(curves: Mapping[int, QuantileCurve]):
    """Every (inner, outer) pair of the table's coalitions with inner a
    proper submask of outer: outer ascending, inner in submask order."""
    for outer in sorted(curves):
        for inner in submasks(outer, proper=True):
            if inner in curves:
                yield inner, outer


def check_tail_dominance(
    curves: Mapping[int, QuantileCurve], tol: float = DEFAULT_TOL
) -> MonotoneVerdict:
    """Whether for every nested coalition pair the larger coalition's curve
    dominates in relative tails: the curve ratio outer/inner is nonincreasing
    in the quantile argument.  Each distinct pair of curves is judged once."""
    judge = functools.cache(lambda f, g: _ratio_monotone(f, g, nonincreasing=True, tol=tol))
    violations = []
    for inner, outer in _nested_pairs(curves):
        bad = judge(curves[inner], curves[outer])
        if bad is not None:
            violations.append((inner, outer) + bad)
    return MonotoneVerdict(not violations, tuple(violations))


def leq_lr(d1: Density, d2: Density, tol: float = DEFAULT_TOL) -> MonotoneVerdict:
    """Likelihood-ratio comparison of mixing densities: d2/d1 nondecreasing,
    meaning d2 leans toward high alpha (prices tails harder) than d1."""
    bad = _ratio_monotone(d1, d2, nonincreasing=False, tol=tol)
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
    for name, x in (("mu", mu), ("sigma", sigma)):
        if not math.isfinite(x):
            raise ScenarioError(f"{name} must be a finite number, got {x!r}")
    if not 0 <= r < mu / sigma:
        raise RBarOutOfRange(f"risk aversion {r!r} outside [0, {mu / sigma!r})")
    phi = scenario.phi or {}
    for c, factor in phi.items():
        if not 0 < factor < math.inf:
            raise ScenarioError(f"synergy factor for {c:#x} must be positive and finite")
    values = {}
    for c in coalitions(n):
        base = meanstd_value(c.bit_count(), mu, sigma, r)
        values[c] = phi.get(c, 1.0) * base
    if not all(map(math.isfinite, values.values())):
        c = next(c for c in coalitions(n) if not math.isfinite(values[c]))
        label = coalition_label(c, default_players(n) if players is None else players)
        field = "mu" if not math.isfinite(meanstd_value(c.bit_count(), mu, sigma, r)) else f"phi.{label}"
        raise ScenarioError(f"{field}: coalition {label} is worth {values[c]!r}, beyond the float range")
    return make_game(n, values, mode=FLOAT, tol=tol, players=players)


def build_cvar_games(
    curves: Mapping[int, QuantileCurve],
    densities: Sequence[Density],
    *,
    players: Sequence[str] | None = None,
    tol: float = DEFAULT_TOL,
) -> list[Game]:
    """``build_cvar_game`` for each density, in order.  Equal curves are
    integrated once per density, and the curves on one knot column against
    the densities on one density column over one quadrature layout."""
    if not curves:
        raise ScenarioError("no curves supplied")
    n = len(players) if players is not None else max(curves).bit_length()
    if not 1 <= n <= MAX_PLAYERS:
        raise ScenarioError(f"a cvar game needs 1..{MAX_PLAYERS} players, got {n}")
    if len(curves) != (1 << n) - 1 or any(c not in curves for c in coalitions(n)):
        raise ScenarioError(f"curve table must cover all coalitions of {n} players")
    columns: dict[bytes, list[QuantileCurve]] = {}
    for curve in dict.fromkeys(curves[c] for c in coalitions(n)):
        columns.setdefault(curve.xs.tobytes(), []).append(curve)
    rewards: list[dict] = [{} for _ in densities]
    for group in columns.values():
        for table, row in zip(rewards, _mixtures(group, densities)):
            table.update(zip(group, row))
    return [
        make_game(n, {c: table[curves[c]] for c in coalitions(n)}, mode=FLOAT, tol=tol, players=players)
        for table in rewards
    ]


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
    equal curves are integrated once, those on one knot column on one layout."""
    return build_cvar_games(curves, [density], players=players, tol=tol)[0]


def uniform_curve_family(
    n: int, lo: Callable[[int], float], hi: Callable[[int], float]
) -> dict[int, QuantileCurve]:
    """One uniform-spread curve per coalition, parameterized by size, one object per size."""
    _check_player_count(n)
    by_size = functools.cache(lambda s: uniform_curve(lo(s), hi(s)))
    return {c: by_size(c.bit_count()) for c in coalitions(n)}


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
    # sized[i][s]: the unscaled value of a size-s coalition at r = grid[i]
    sized = [[meanstd_value(s, mu, sigma, r) for s in range(n + 1)] for r in grid]
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
                    lhs = sized[i][s2] * sized[j][s1]
                    rhs = sized[j][s2] * sized[i][s1]
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


def verify_prop2_chain(
    curves: Mapping[int, QuantileCurve],
    densities: Sequence[Density],
    *,
    grid: int = 21,
    tol: float = DEFAULT_TOL,
) -> list[Prop2Report]:
    """``verify_prop2`` on each consecutive pair of densities, one report per link.
    The checks that read no density run once: tail dominance, and the one-unit
    form on the alphas j / grid, judged once per distinct (inner curve, outer
    curve) pair and counted per nested coalition pair.  Each density's game is
    built once, all of them by one ``build_cvar_games``, and a link runs only
    the likelihood-ratio and order checks."""
    if grid < 2:
        raise ValueError(f"the alpha grid needs at least two points, got {grid!r}")
    if len(densities) < 2:
        raise ValueError(f"a chain needs at least two densities, got {len(densities)}")
    tail = check_tail_dominance(curves, tol)
    alphas = [j / grid for j in range(grid)]
    table = {k: _tail_averages(k, _tail_lookup(k.xs, alphas)).tolist() for k in {*curves.values()}}
    pairs = list(_nested_pairs(curves))
    holds = {}  # per curve pair and grid step: the outer/inner tail-average ratio does not drop
    for f, g in {(curves[inner], curves[outer]) for inner, outer in pairs}:
        lo, hi = table[f], table[g]
        holds[f, g] = [leq(hi[t] * lo[t + 1], hi[t + 1] * lo[t], tol) for t in range(grid - 1)]
    checks = len(pairs) * (grid - 1)
    one_unit = [
        f"tail-average ratio drops on ({inner:#x},{outer:#x}) at alpha={alphas[t]:.3f}"
        for inner, outer in pairs
        for t, ok in enumerate(holds[curves[inner], curves[outer]]) if not ok
    ]
    games = build_cvar_games(curves, densities, tol=tol)
    reports = []
    for d1, d2, g1, g2 in zip(densities, densities[1:], games, games[1:]):
        order = leq_cp(g1, g2)
        violations = (*one_unit, *([] if order.holds else ["mixture games are not ordered"]))
        reports.append(Prop2Report(tail, leq_lr(d1, d2, tol), order, checks, violations))
    return reports


def verify_prop2(
    curves: Mapping[int, QuantileCurve],
    d1: Density,
    d2: Density,
    *,
    grid: int = 21,
    tol: float = DEFAULT_TOL,
) -> Prop2Report:
    """Given tail dominance of the curves, a likelihood-ratio shift of the
    mixing density toward high alpha orders the mixture games; also checks the
    one-unit form, each nested pair's tail-average ratio nondecreasing in
    alpha on ``grid`` >= 2 points.  One link of ``verify_prop2_chain``."""
    return verify_prop2_chain(curves, [d1, d2], grid=grid, tol=tol)[0]


# ---------------------------------------------------------------------------
# scenario files


# the shape a field of each non-number kind must have, and its name in messages
_SHAPES = {
    Mapping: (Mapping, "an object"),
    list: ((list, tuple), "a list"),
    bool: (bool, "true or false"),
}


def _field(raw, name: str, kind=float, most=None):
    """raw checked as kind: Mapping, list or bool give raw as it is; float
    gives raw as a float and int as an integer, rejecting strings, booleans,
    non-integral values of an int field and numbers above most."""
    if kind in _SHAPES:
        shape, what = _SHAPES[kind]
        if not isinstance(raw, shape):
            raise ScenarioError(f"{name} must be {what}, got {raw!r}")
        return raw
    if isinstance(raw, bool) or not isinstance(raw, numbers.Real):
        raise ScenarioError(f"{name} must be a number, got {raw!r}")
    try:
        value = kind(raw)
    except (ValueError, OverflowError) as exc:
        raise ScenarioError(f"{name} must be a finite number, got {raw!r}") from exc
    if kind is int and value != raw:
        raise ScenarioError(f"{name} must be an integer, got {raw!r}")
    if most is not None and value > most:
        raise ScenarioError(f"{name} must be at most {most}, got {raw!r}")
    return value


def _finite_field(raw, name: str) -> float:
    """``_field`` for a float field that has no use for inf or nan."""
    value = _field(raw, name)
    if not math.isfinite(value):
        raise ScenarioError(f"{name} must be a finite number, got {value!r}")
    return value


def _field_knots(raw, name: str) -> list[tuple[float, float]]:
    pts = []
    for i, pt in enumerate(_field(raw, name, list)):
        if not isinstance(pt, (list, tuple)) or len(pt) != 2:
            raise ScenarioError(f"{name}[{i}] must be an [x, y] pair, got {pt!r}")
        pts.append(tuple(_field(x, f"{name}[{i}]") for x in pt))
    return pts


def _field_samples(raw, name: str) -> list[float]:
    """Draws as floats, in one type pass if all are JSON numbers, else by ``_field``."""
    samples = _field(raw, name, list)
    kinds = set(map(type, samples))
    if kinds <= {float}:
        return samples
    if kinds <= {int, float}:
        with contextlib.suppress(OverflowError):
            return [float(x) for x in samples]
    return [_field(x, name) for x in samples]


def _field_players(data: Mapping, default=None) -> tuple[str, ...]:
    """The 'players' list, else default, held to the game files' name rule
    (``games._check_players``).  Without a default the list must hold
    data['n'] players, the first n letters unless given."""
    if default is None:
        n = _check_player_count(_field(data["n"], "n", int))
        players = _field_players(data, default_players(n))
        if len(players) != n:
            raise ScenarioError(f"expected {n} players, got {len(players)}")
        return players
    if "players" in data:
        default = [str(p) for p in _field(data["players"], "players", list)]
    try:
        return _check_players(default, len(default))
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None


def _field_coalitions(raw: Mapping, name: str, players) -> dict:
    """The entries of the object ``raw`` keyed by the coalitions their labels
    spell; an unknown or repeated player, or a coalition spelled twice, is a
    ScenarioError naming the field ``name.label``."""
    out, index = {}, {name: i for i, name in enumerate(players)}
    for label, entry in raw.items():
        try:
            mask = coalition_from_label(label, index)
        except ValueError as exc:
            raise ScenarioError(f"{name}.{label}: {exc}") from None
        if mask in out:
            raise ScenarioError(f"{name}.{label}: coalition listed twice")
        out[mask] = label, entry
    return out


def meanstd_from_dict(data: Mapping) -> tuple[MeanStdScenario, tuple[str, ...]]:
    _field(data, "mean-std scenario", Mapping)
    missing = [key for key in ("n", "mu", "sigma", "r") if key not in data]
    if missing:
        raise ScenarioError(f"mean-std scenario needs n, mu, sigma, r: missing {', '.join(missing)}")
    players = _field_players(data)
    n = len(players)
    mu = _field(data["mu"], "mu")
    sigma = _field(data["sigma"], "sigma")
    r = _field(data["r"], "r")
    phi = None
    if "phi" in data:
        raw = dict(_field(data["phi"], "phi", Mapping))
        default = _finite_field(raw.pop("default", 1.0), "phi.default")
        phi = {c: default for c in coalitions(n)}
        for c, (label, factor) in _field_coalitions(raw, "phi", players).items():
            phi[c] = _finite_field(factor, f"phi.{label}")
    return MeanStdScenario(n, mu, sigma, r, phi), players


def _built(name: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, a curve or density constructor on fields already
    read, with the values it refuses reported as a ScenarioError naming the
    field ``name``."""
    try:
        return build(*args, **kwargs)
    except (ValueError, ScenarioError) as exc:
        raise ScenarioError(f"{name}: {exc}") from None


def density_from_dict(data: Mapping) -> Density:
    _field(data, "density", Mapping)
    if "beta_a" in data:
        return _built(
            "density",
            beta_density,
            _field(data["beta_a"], "density.beta_a"),
            _field(data.get("knot_count", 101), "density.knot_count", int, MAX_KNOTS),
        )
    if "knots" in data:
        return _built(
            "density",
            density_curve,
            _field_knots(data["knots"], "density.knots"),
            normalize=_field(data.get("normalize", False), "density.normalize", bool),
        )
    raise ScenarioError("density needs either 'beta_a' or 'knots'")


def _sampled_curves(sampled: Mapping[int, tuple]) -> dict[int, QuantileCurve]:
    """The curves of the sampled entries, ``{coalition: (name, (draws,
    knot_count))}``, built together by ``_empirical_curves``; the first
    entry whose curve is refused is a ScenarioError naming it."""
    built = _empirical_curves([row for _, row in sampled.values()])
    for (name, _), curve in zip(sampled.values(), built):
        if isinstance(curve, Exception):
            raise ScenarioError(f"{name}: {curve}") from None
    return dict(zip(sampled, built))


def _curves_from_dict(raw: Mapping, players) -> dict[int, QuantileCurve]:
    """The curve of every entry of the object ``raw``, in its order.  The
    fields of each entry are read in order, and the sampled entries are
    built together at the end; a fault in another entry is raised once the
    sampled entries before it are built, so the first faulty entry of the
    file is the one reported."""
    entries = _field_coalitions(raw, "curves", players)
    curves, sampled = {}, {}
    try:
        for c, (label, entry) in entries.items():
            name = f"curves.{label}"
            if not isinstance(entry, Mapping):
                curves[c] = _built(name, quantile_curve, _field_knots(entry, name))
            elif "samples" in entry:
                draws = _field_samples(entry["samples"], f"{name}.samples")
                count = _field(entry.get("knot_count", 101), f"{name}.knot_count", int, MAX_KNOTS)
                sampled[c] = name, (draws, count)
            elif "knots" in entry:
                curves[c] = _built(name, quantile_curve, _field_knots(entry["knots"], f"{name}.knots"))
            else:
                raise ScenarioError("curve entry needs 'knots' or 'samples'")
    except ScenarioError:
        _sampled_curves(sampled)
        raise
    curves.update(_sampled_curves(sampled))
    return {c: curves[c] for c in entries}


def cvar_scenario_from_dict(
    data: Mapping,
) -> tuple[dict[int, QuantileCurve], Density, tuple[str, ...]]:
    _field(data, "cvar scenario", Mapping)
    if "density" not in data:
        raise ScenarioError("scenario needs a 'density' entry")
    density = density_from_dict(data["density"])
    if "curves" in data:
        raw = _field(data["curves"], "curves", Mapping)
        players = _field_players(data, sorted(label for label in raw if "," not in label))
        if not players:
            raise ScenarioError("cannot determine the player list")
        return _curves_from_dict(raw, players), density, players
    if "n" in data:
        players = _field_players(data)
        return default_uniform_family(len(players)), density, players
    raise ScenarioError("scenario needs 'curves' or 'n'")
