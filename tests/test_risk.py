import math
import random
import re
import warnings

import numpy as np
import pytest
from conftest import (
    naive_cvar,
    naive_empirical_knots,
    naive_interp,
    naive_mixture_reward,
    naive_verify_prop2,
)

from fracgame import (
    AlphaOutOfRange,
    RBarOutOfRange,
    ScenarioError,
    beta_density,
    build_cvar_game,
    build_cvar_games,
    build_meanstd_game,
    check_tail_dominance,
    cvar,
    density_curve,
    default_uniform_family,
    empirical_curve,
    leq_cp,
    leq_lr,
    mixture_reward,
    quantile_curve,
    uniform_curve,
    uniform_curve_family,
    verify_prop1,
    verify_prop2,
    verify_prop2_chain,
)
from fracgame import risk
from fracgame.games import DEFAULT_TOL, coalitions
from fracgame.risk import (
    MeanStdScenario,
    cvar_scenario_from_dict,
    density_from_dict,
    meanstd_from_dict,
    meanstd_value,
)


# ---------------------------------------------------------------------------
# curves and tail averages


def test_quantile_curve_validation():
    with pytest.raises(ValueError, match="curve knots must be finite"):
        quantile_curve([(0, 1), (0.5, math.nan), (1, 2)])
    with pytest.raises(ValueError, match="curve knots must run from beta=0 to beta=1"):
        quantile_curve([(0, 1)])  # needs both endpoints
    with pytest.raises(ValueError, match="curve knots must run from beta=0 to beta=1"):
        quantile_curve([(0, 1), (0.5, 1)])  # does not reach beta = 1
    with pytest.raises(ValueError, match="curve knots must be strictly increasing in beta"):
        quantile_curve([(0, 1), (0.5, 2), (0.5, 3), (1, 4)])
    with pytest.raises(ValueError, match="curve must be nondecreasing"):
        quantile_curve([(0, 2), (1, 1)])  # decreasing
    with pytest.raises(ValueError, match="curve values must be nonnegative"):
        quantile_curve([(0, -1), (1, 1)])
    with pytest.raises(ValueError, match="curve must be strictly positive for beta > 0"):
        quantile_curve([(0, 0), (0.5, 0), (1, 1)])  # flat at zero inside
    curve = quantile_curve([(0, 0), (1, 2)])  # zero only at the origin is fine
    assert curve.value(0.5) == 1.0
    with pytest.raises(ValueError, match="quantile argument 1.5 outside"):
        curve.value(1.5)


def test_cvar_closed_form_uniform():
    c = uniform_curve(1.0, 3.0)
    # average of the lowest (1 - alpha) mass of a uniform spread
    for alpha in (0.0, 0.25, 0.5, 0.9, 0.99):
        want = 1.0 + (3.0 - 1.0) * (1.0 - alpha) / 2.0
        assert math.isclose(cvar(c, alpha), want, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(c.mean, 2.0, abs_tol=1e-15)


def test_cvar_piecewise_and_bounds():
    c = quantile_curve([(0, 0), (1, 2)])
    for alpha in (0.0, 0.3, 0.7):
        assert math.isclose(cvar(c, alpha), 1.0 - alpha, abs_tol=1e-12)
    with pytest.raises(AlphaOutOfRange):
        cvar(c, 1.0)
    with pytest.raises(AlphaOutOfRange):
        cvar(c, -0.1)


def test_cvar_monotone_nonincreasing_in_alpha():
    rng = random.Random(12)
    for _ in range(50):
        knots = sorted(rng.random() for _ in range(3))
        values = sorted(rng.uniform(0.1, 5.0) for _ in range(5))
        pts = [(0.0, values[0])] + list(zip(knots, values[1:4])) + [(1.0, values[4])]
        pts = [(b, v) for b, v in pts]
        try:
            curve = quantile_curve(pts)
        except ValueError:
            continue
        levels = [i / 20 for i in range(20)]
        avgs = [cvar(curve, a) for a in levels]
        assert all(x >= y - 1e-12 for x, y in zip(avgs, avgs[1:]))


def test_density_validation_and_normalization():
    with pytest.raises(ValueError, match="density integrates to 2.0, not 1"):
        density_curve([(0, 1), (1, 3)])
    d = density_curve([(0, 1), (1, 3)], normalize=True)
    assert d.value(0.0) == 0.5 and d.value(1.0) == 1.5
    with pytest.raises(AlphaOutOfRange, match="density argument -0.5 outside"):
        d.value(-0.5)
    with pytest.raises(ValueError, match="density must be strictly positive inside"):
        density_curve([(0, 1), (0.5, 0), (1, 1)], normalize=True)  # interior zero
    with pytest.raises(ValueError, match="density knots must be finite"):
        density_curve([(0, 1), (1, math.inf)], normalize=True)
    with pytest.raises(ValueError, match="density knots must run from alpha=0 to alpha=1"):
        density_curve([(0.1, 1), (1, 1)], normalize=True)
    with pytest.raises(ValueError, match="density knots must be strictly increasing in alpha"):
        density_curve([(0, 1), (0.6, 1), (0.4, 1), (1, 1)], normalize=True)
    with pytest.raises(ValueError, match="density values must be nonnegative"):
        density_curve([(0, -1), (1, 3)], normalize=True)
    with pytest.raises(ValueError, match="cannot normalize a zero density"):
        density_curve([(0, 0), (1, 0)], normalize=True)
    # endpoint zeros are allowed
    density_curve([(0, 0), (0.5, 2), (1, 0)], normalize=True)


def test_beta_density_shapes():
    flat = beta_density(1.0)
    assert flat.value(0.1) == 1.0 and flat.value(0.9) == 1.0
    ramp = beta_density(2.0)
    for alpha in (0.0, 0.25, 0.5, 1.0):
        assert math.isclose(ramp.value(alpha), 2.0 * alpha, abs_tol=1e-12)
    with pytest.raises(ValueError):
        beta_density(0.5)


def test_gauss_legendre_literals_are_leggauss_32():
    # the rule is written out so that import skips numpy.polynomial; the
    # literals match leggauss(32) to the last bit here, and to within one
    # ulp wherever its eigenvalue solve rounds differently
    nodes, weights = np.polynomial.legendre.leggauss(32)
    for literal, reference in ((risk._GL_NODES, nodes), (risk._GL_WEIGHTS, weights)):
        assert literal.dtype == np.float64 and literal.shape == (32,)
        assert np.all(np.abs(literal - reference) <= np.spacing(np.abs(reference)))
    assert np.all(np.diff(risk._GL_NODES) > 0)
    assert risk._GL_NODES.tolist() == (-risk._GL_NODES[::-1]).tolist()
    assert risk._GL_WEIGHTS.tolist() == risk._GL_WEIGHTS[::-1].tolist()


def test_mixture_closed_forms():
    c = uniform_curve(1.0, 2.0)
    assert math.isclose(mixture_reward(c, beta_density(1.0)), 1.25, abs_tol=1e-10)
    assert math.isclose(mixture_reward(c, beta_density(2.0)), 1 + 1 / 6, abs_tol=1e-10)
    ramp = quantile_curve([(0, 0), (1, 2)])
    assert math.isclose(mixture_reward(ramp, beta_density(1.0)), 0.5, abs_tol=1e-10)


def test_mixture_against_dense_riemann_oracle():
    curve = quantile_curve([(0, 0.5), (0.25, 1.0), (1, 4.0)])
    density = density_curve([(0, 0.2), (0.6, 1.8), (1, 0.6)], normalize=True)
    steps = 200_000
    total = 0.0
    for j in range(steps):
        alpha = (j + 0.5) / steps
        total += cvar(curve, alpha) * density.value(alpha)
    total /= steps
    assert math.isclose(mixture_reward(curve, density), total, abs_tol=5e-9)


ORACLE_SHAPES = (1.0, 2.0, 1.357, 2.633, 3.878)


def _oracle_densities():
    explicit = density_curve([(0, 0.2), (0.3, 1.1), (0.55, 0.4), (1, 1.7)], normalize=True)
    return [beta_density(a) for a in ORACLE_SHAPES] + [explicit]


def test_mixture_bit_identical_to_scalar_loop_on_uniform_family():
    for density in _oracle_densities():
        for curve in set(default_uniform_family(7).values()):
            assert mixture_reward(curve, density) == naive_mixture_reward(curve, density)


def test_mixture_bit_identical_to_scalar_loop_on_empirical_curves():
    rng = random.Random(33)
    densities = _oracle_densities()
    for k in range(42):
        s = 1 + k % 5
        draws = [s + rng.gammavariate(2.0, 0.5 * math.sqrt(s)) for _ in range(200)]
        curve = empirical_curve(draws, rng.randint(51, 101))
        density = densities[k % len(densities)]
        value = mixture_reward(curve, density)
        assert type(value) is float
        assert value == naive_mixture_reward(curve, density)
        for alpha in (0.0, rng.random(), 0.5, 1 - 1e-9):
            assert cvar(curve, alpha) == naive_cvar(curve, alpha)
            assert density.value(alpha) == naive_interp(density.knots, alpha)
            assert curve.value(alpha) == naive_interp(curve.knots, alpha)


def test_mixture_panel_grid_bit_identical_on_edge_layouts():
    # the numpy panel grid against the scalar loop on layouts that stress it:
    # a -0.0 first density knot, a 1 - x that equals a density knot, wide
    # gaps split into many panels, and a 10,001-knot column
    signed = density_curve([(-0.0, 0.5), (0.3, 1.2), (1, 0.9)], normalize=True)
    assert math.copysign(1.0, signed.xs[0]) == -1.0
    shared = density_curve([(0, 1.0), (1 - 0.7, 0.6), (0.75, 1.4), (1, 1.0)], normalize=True)
    wide = density_curve([(0, 0.3), (0.7, 1.3), (1, 0.4)], normalize=True)
    curves = [
        quantile_curve([(0, 0.5), (0.25, 1.0), (0.7, 1.5), (1, 4.0)]),
        uniform_curve(1.0, 2.5),
        quantile_curve([(0, 1.0), (1 / 3, 1.1), (1, 3.0)]),
    ]
    for density in (signed, shared, wide, beta_density(1.7, 5)):
        for curve in curves:
            assert mixture_reward(curve, density) == naive_mixture_reward(curve, density)
    rng = random.Random(17)
    big = empirical_curve([1 + rng.expovariate(1.0) for _ in range(200)], risk.MAX_KNOTS)
    for density in (signed, beta_density(2.0)):
        assert mixture_reward(big, density) == naive_mixture_reward(big, density)
    # one build over densities of which three share a column, so they share
    # one layout, with the curves on three knot columns
    shared_column = [beta_density(a, 5) for a in (1.0, 1.7, 3.2)]
    densities = [shared_column[0], signed, *shared_column[1:], wide]
    assert len({d.xs.tobytes() for d in densities}) == 3
    table = {c: curves[c % len(curves)] for c in coalitions(3)}
    games = build_cvar_games(table, densities)
    assert len(games) == len(densities)
    for game, density in zip(games, densities):
        assert game == build_cvar_game(table, density)
        for c, curve in table.items():
            assert game.values[c] == naive_mixture_reward(curve, density)
    # a density knot at 1e-20: the first nodes have x = 1 - alpha == 1.0, at
    # the curves' last knot, so the layout takes the last-knot branch
    tiny = density_curve([(0, 1.0), (1e-20, 1.0), (1, 1.0)])
    for curve in curves:
        alpha, _ = risk._panel_nodes(curve.xs, tiny.xs)
        assert 1.0 - alpha[0] == 1.0 and risk._tail_lookup(curve.xs, alpha)[2] is not None
        assert mixture_reward(curve, tiny) == naive_mixture_reward(curve, tiny)
    assert risk._tail_lookup(curves[0].xs, risk._panel_nodes(curves[0].xs, wide.xs)[0])[2] is None


def test_empirical_knots_match_the_scalar_loop(monkeypatch):
    rng = random.Random(41)
    for k in range(80):
        pool = [1.0, 2.0, 0.1 + 0.2, 0.3, 1 + rng.random()]
        draws = [rng.choice(pool) * (1 + 1e-15 * rng.random()) for _ in range(rng.randint(1, 40))]
        count = rng.randint(2, 101)
        assert empirical_curve(draws, count).knots == naive_empirical_knots(draws, count)
    # a level that dips below the one before is held there (one row per curve)
    monkeypatch.setattr(risk, "_quantiles", lambda data, betas: np.array([[1.0, 2.0, 1.5, 3.0]]))
    want = ((0.0, 1.0), (1 / 3, 2.0), (2 / 3, 2.0), (1.0, 3.0))
    assert empirical_curve([1.0, 3.0], 4).knots == want


def _left_fold_prefix(knots):
    prefix = [0.0]
    for (prev_x, prev_v), (x, v) in zip(knots, knots[1:]):
        prefix.append(prefix[-1] + 0.5 * (prev_v + v) * (x - prev_x))
    return prefix


def test_empirical_levels_are_np_quantile_bit_for_bit():
    # the written-out type-7 quantile, after the running maximum, is
    # np.quantile's bit for bit, and the prefix is the knots' left fold
    rng = random.Random(57)
    cases = [([3.0], 2), ([2.0, 2.0, 2.0], 3), ([1e-300, 1e300], 10_001)]
    for k in range(120):
        scale = 10.0 ** rng.randint(-300, 299)
        pool = [scale * (1 + rng.random()) for _ in range(rng.randint(1, 6))]
        draws = [rng.choice(pool) if k % 2 else scale * rng.expovariate(1.0) + 1e-300
                 for _ in range(rng.randint(1, 300))]
        cases.append((draws, (2, 3, 10_001)[k % 3] if k % 4 == 0 else rng.randint(2, 400)))
    for draws, count in cases:
        betas = np.arange(count) / (count - 1)
        want = np.maximum.accumulate(np.quantile(np.array(draws), betas))
        curve = empirical_curve(draws, count)
        assert curve.values.tobytes() == want.tobytes()
        assert curve.xs.tolist() == [j / (count - 1) for j in range(count)]
        assert curve.prefix.tolist() == _left_fold_prefix(curve.knots)


def _sampled_entries(rng: random.Random) -> list:
    """Entries of a 4-player scenario: sampled curves at several sample and
    knot counts (some with no knot count, so 101), repeated draws, and
    entries given by their knots."""
    entries = []
    for k in range(15):
        if k % 5 == 4:
            top = 1 + rng.random()
            entries.append([[0, 0.5], [0.5, top], [1, top + rng.random()]])
            continue
        size = (1, 7, 30, 30)[k % 4]
        pool = [1 + rng.random() for _ in range(3)]
        draws = [rng.choice(pool) if k % 3 else 1 + rng.expovariate(1.0) for _ in range(size)]
        entry = {"samples": draws}
        if k % 3 != 1:
            entry["knot_count"] = rng.choice((2, 11, 26))
        entries.append(entry)
    return entries


def test_scenario_curves_match_their_own_build_bit_for_bit():
    # a scenario's sampled curves are built a group at a time, by sample
    # count and knot count; each must be its own empirical_curve's and the
    # scalar loop's, bit for bit
    rng = random.Random(29)
    for trial in range(4):
        entries = _sampled_entries(rng)
        labels = [",".join("abcd"[i] for i in range(4) if m >> i & 1) for m in range(1, 16)]
        rng.shuffle(labels)
        data = {"players": list("abcd"), "curves": dict(zip(labels, entries)), "density": {"beta_a": 2}}
        curves, _, _ = cvar_scenario_from_dict(data)
        assert len({(len(e["samples"]), e.get("knot_count")) for e in entries if "samples" in e}) > 3
        for label, entry in zip(labels, entries):
            curve = curves[risk.coalition_from_label(label, "abcd")]
            if isinstance(entry, list):
                assert curve == quantile_curve(entry)
                continue
            count = entry.get("knot_count", 101)
            own = empirical_curve(entry["samples"], count)
            for column in ("xs", "values", "prefix"):
                assert getattr(curve, column).tobytes() == getattr(own, column).tobytes()
            assert curve.knots == naive_empirical_knots(entry["samples"], count)


# a value fault (the curve refuses its draws or knots) and a field fault
# (a field of the wrong type) in two entries of one file
VALUE_THEN_FIELD = [
    (
        ({"samples": [1.0, 2.0, -1.0]}, "^curves.a: sample draws must be positive$"),
        ({"samples": [1.0, "x"]}, "^curves.b.samples must be a number, got 'x'$"),
    ),
    (
        ({"samples": [], "knot_count": 5}, "^curves.a: cannot build a curve from an empty sample$"),
        ({"samples": [1, 2], "knot_count": 9.5}, "^curves.b.knot_count must be an integer, got 9.5$"),
    ),
    (
        ({"samples": [0.0, 1.0]}, "^curves.a: sample draws must be positive$"),
        ([[0, 2], [1, 1]], "^curves.b: curve must be nondecreasing$"),
    ),
]


@pytest.mark.parametrize("first_a", [True, False])
@pytest.mark.parametrize("faults", VALUE_THEN_FIELD)
def test_scenario_reports_its_first_faulty_entry(faults, first_a):
    # sampled curves are built after the other entries are read, yet the
    # first faulty entry in the file is the one reported
    (a, a_message), (b, b_message) = faults
    good = {"samples": [1.0, 1.5, 3.0], "knot_count": 5}
    order = [("a", a), ("a,b", good), ("b", b)] if first_a else [("b", b), ("a,b", good), ("a", a)]
    data = {"players": ["a", "b"], "curves": dict(order), "density": {"beta_a": 2}}
    with pytest.raises(ScenarioError, match=a_message if first_a else b_message):
        cvar_scenario_from_dict(data)


def test_knot_errors_name_the_first_failing_knot_and_its_first_rule():
    cases = [
        # a later rule fails at an earlier knot than an earlier rule
        ([(0, 0), (0.5, 0), (0.7, -1), (1, 1)], "curve must be strictly positive for beta > 0"),
        ([(0, 2), (0.5, 1), (0.7, 0), (1, 3)], "curve must be nondecreasing"),
        # the increase check and a rule fail at the same knot
        ([(0, 1), (0.5, 2), (0.5, 1), (1, 3)], "curve knots must be strictly increasing in beta"),
        ([(0, 1), (0.5, 0), (0.4, 3), (1, 3)], "curve must be nondecreasing"),
        ([(0, 1), (0.5, 2), (0.4, 3), (0.6, 0), (1, 3)], "curve knots must be strictly increasing"),
    ]
    for knots, message in cases:
        with pytest.raises(ValueError, match=message):
            quantile_curve(knots)
    with pytest.raises(ValueError, match="density must be strictly positive inside"):
        density_curve([(0, 1), (0.5, 0), (0.4, 1), (1, 1)], normalize=True)
    with pytest.raises(ValueError, match="density knots must be strictly increasing in alpha"):
        density_curve([(0, 1), (0.5, 1), (0.4, 0), (1, 1)], normalize=True)


def _scalar_knot_table(knots, kind, arg, rules):
    """The message of ``risk._knot_table``'s first failure, else its prefix,
    by a per-knot scalar loop that calls the same rule builders on floats."""
    pts = [(float(x), float(v)) for x, v in knots]
    if not all(math.isfinite(x) and math.isfinite(v) for x, v in pts):
        return f"{kind} knots must be finite"
    if len(pts) < 2 or pts[0][0] != 0.0 or pts[-1][0] != 1.0:
        return f"{kind} knots must run from {arg}=0 to {arg}=1"
    if pts[0][1] < 0:
        return f"{kind} values must be nonnegative"
    for (prev_x, prev_v), (x, v) in zip(pts, pts[1:]):
        if x <= prev_x:
            return f"{kind} knots must be strictly increasing in {arg}"
        for bad, message in rules(x, v, prev_v):
            if bad:
                return message
    return _left_fold_prefix(pts)


def test_knot_table_matches_the_scalar_loop():
    rng = random.Random(61)
    special = [0.0, -0.0, 1.0, 2.0, -1.0, 1e308, 5e-324, math.inf, math.nan]
    kinds = [("curve", "beta", risk._nondecreasing_positive),
             ("density", "alpha", risk._positive_inside)]
    for _ in range(3000):
        xs = sorted(rng.random() for _ in range(rng.randint(0, 12)))
        if xs and rng.random() < 0.9:
            xs[0], xs[-1] = 0.0, 1.0
        for _ in range(rng.randint(0, 2)):
            if len(xs) > 2:
                i = rng.randrange(1, len(xs) - 1)
                xs[i] = rng.choice([xs[i - 1], xs[i + 1], rng.random()])
        vs = sorted(rng.choice(special) if rng.random() < 0.3 else rng.uniform(0, 5) for _ in xs)
        if rng.random() < 0.5:
            rng.shuffle(vs)
        knots = list(zip(xs, vs))
        for kind, arg, rules in kinds:
            want = _scalar_knot_table(knots, kind, arg, rules)
            try:
                got = risk._knot_table(*risk._pairs(knots), kind, arg, rules)[2].tolist()
            except ValueError as exc:
                got = str(exc)
            assert got == want


def test_overflowing_density_integral_is_refused():
    for normalize in (True, False):
        with pytest.raises(ValueError, match="^density integral overflows the float range$"):
            density_curve([(0, 1e308), (1, 1e308)], normalize=normalize)
    # a tiny integral can overflow a value once divided by it
    with pytest.raises(ValueError, match="^normalized density overflows the float range$"):
        density_curve([(0, 1), (5e-324, 1e-310), (1, 1e-310)], normalize=True)
    # a finite integral of huge values still normalizes
    d = density_curve([(0, 1e307), (1, 1e307)], normalize=True)
    assert d.values.tolist() == [1.0, 1.0] and d.prefix.tolist() == [0.0, 1.0]
    # a curve's mean overflows to inf, as the float sum does, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert quantile_curve([(0, 1e308), (1, 1e308)]).mean == math.inf


def test_uniform_family_builds_one_curve_per_size():
    fam = default_uniform_family(7)
    assert list(fam) == list(coalitions(7))
    assert len({id(k) for k in fam.values()}) == 7
    for c, k in fam.items():
        s = c.bit_count()
        assert k == uniform_curve(float(s), s + math.sqrt(s))


def test_cvar_game_integrates_each_distinct_curve_once(monkeypatch):
    # the default family's curves all run from beta 0 to beta 1, so one
    # layout serves its seven distinct curves
    fam = default_uniform_family(7)
    density = beta_density(2.633)
    want = {c: mixture_reward(k, density) for c, k in fam.items()}
    groups = []
    mixtures = risk._mixtures
    monkeypatch.setattr(risk, "_mixtures", lambda ks, d: groups.append(ks) or mixtures(ks, d))
    game = build_cvar_game(fam, density)
    assert len(groups) == 1 and len(groups[0]) == 7 and set(groups[0]) == set(fam.values())
    assert all(game.values[c] == want[c] for c in fam)


def test_cvar_game_matches_the_scalar_loop_across_knot_columns():
    # uniform curves, empirical curves at three knot counts, explicit knots
    # and repeated curves in one table: each knot column gets its own layout,
    # and every value is the scalar loop's bit for bit.  The spiked density
    # weighs the nodes below alpha = 2**-54, where 1 - alpha rounds to 1 and
    # the tail integral is the last prefix
    rng = random.Random(25)
    spike = density_curve([(0, 2.0**53), (2.0**-53, 1.0), (1, 1.0)], normalize=True)
    densities = _oracle_densities() + [spike]
    for trial in range(2 * len(densities)):
        pool = [uniform_curve(1 + rng.random(), 3 + rng.random()) for _ in range(2)]
        for count in (11, 26, 26, 51):
            pool.append(empirical_curve([1 + rng.expovariate(1.0) for _ in range(30)], count))
        top = 1 - 2.0**-53 if trial % 2 else rng.random()
        pool.append(quantile_curve([(0, 0.5), (0.5 * top, 1.5), (top, 2.0), (1, 3.0)]))
        masks = list(range(1, 16))
        rng.shuffle(masks)
        curves = {c: pool[i] if i < len(pool) else rng.choice(pool) for i, c in enumerate(masks)}
        density = densities[trial % len(densities)]
        game = build_cvar_game(curves, density)
        assert len({k.xs.tobytes() for k in curves.values()}) == 5
        for c, k in curves.items():
            assert game.values[c] == naive_mixture_reward(k, density)


def test_curves_compare_by_knots():
    a = quantile_curve([(0, 1), (0.5, 2), (1, 4)])
    b = quantile_curve([(0.0, 1.0), (0.5, 2.0), (1.0, 4.0)])
    assert a == b and hash(a) == hash(b)
    assert a.xs.tolist() == [0.0, 0.5, 1.0] and a.values.tolist() == [1.0, 2.0, 4.0]
    assert a.prefix.tolist() == [0.0, 0.75, 2.25] and not a.xs.flags.writeable
    assert a != quantile_curve([(0, 1), (0.5, 2), (1, 5)])
    d = density_curve([(0, 1), (1, 1)])
    assert d == density_curve([(0.0, 1.0), (1.0, 1.0)]) and d.xs.tolist() == [0.0, 1.0]
    # -0.0 and 0.0 are one value, as in float equality
    zero = quantile_curve([(0, 0.0), (1, 1)])
    assert zero == quantile_curve([(-0.0, -0.0), (1, 1)])
    assert hash(zero) == hash(quantile_curve([(-0.0, -0.0), (1, 1)]))
    # a curve never equals a density, even on equal columns
    assert quantile_curve([(0, 1), (1, 1)]) != d and d != quantile_curve([(0, 1), (1, 1)])
    assert a.knots == ((0.0, 1.0), (0.5, 2.0), (1.0, 4.0))


def test_non_finite_knots_and_draws_rejected():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            quantile_curve([(0, 1), (1, bad)])
        with pytest.raises(ValueError):
            density_curve([(0, bad), (1, 1)], normalize=True)
        with pytest.raises(ScenarioError):
            empirical_curve([1.0, bad, 2.0])


# ---------------------------------------------------------------------------
# monotone ratio checks


def test_tail_dominance_of_default_family(monkeypatch):
    fam = default_uniform_family(4)
    judged = []
    ratio = risk._ratio_monotone
    monkeypatch.setattr(
        risk, "_ratio_monotone", lambda f, g, **kw: judged.append((f, g)) or ratio(f, g, **kw)
    )
    assert check_tail_dominance(fam).holds
    # 50 nested coalition pairs, but only 6 distinct (inner, outer) curve pairs
    assert len(list(risk._nested_pairs(fam))) == 50
    assert len(judged) == len(set(judged)) == 6


def test_tail_dominance_violation_detected():
    fam = {
        1: uniform_curve(1, 2),
        2: uniform_curve(1, 2),
        3: uniform_curve(2, 6),  # outer/inner ratio increases
    }
    verdict = check_tail_dominance(fam)
    assert not verdict.holds
    # both coalition pairs share one curve pair, judged once, listed twice
    assert verdict.violations == ((2, 3, 0.0, 1.0), (1, 3, 0.0, 1.0))


def test_leq_lr_chain_and_reversal():
    d1, d2, d3 = beta_density(1.0), beta_density(2.0), beta_density(3.0)
    assert leq_lr(d1, d2).holds
    assert leq_lr(d2, d3).holds
    assert leq_lr(d1, d3).holds
    assert not leq_lr(d2, d1).holds
    assert leq_lr(d1, d1).holds


# ---------------------------------------------------------------------------
# mean-std games


def test_meanstd_values_and_bounds():
    g = build_meanstd_game(MeanStdScenario(3, 2.0, 1.0, 0.5))
    assert math.isclose(g.values[1], 2.0 - 0.5, abs_tol=1e-12)
    assert math.isclose(g.values[3], 4.0 - 0.5 * math.sqrt(2), abs_tol=1e-12)
    assert math.isclose(g.values[7], 6.0 - 0.5 * math.sqrt(3), abs_tol=1e-12)
    with pytest.raises(RBarOutOfRange):
        build_meanstd_game(MeanStdScenario(3, 2.0, 1.0, 2.0))
    with pytest.raises(RBarOutOfRange):
        build_meanstd_game(MeanStdScenario(3, 2.0, 1.0, -0.1))
    with pytest.raises(ScenarioError):
        build_meanstd_game(MeanStdScenario(3, 0.0, 1.0, 0.0))


@pytest.mark.parametrize("factor", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_meanstd_refuses_synergy_factors_outside_zero_to_infinity(factor):
    phi = {c: factor if c == 3 else 1.0 for c in range(1, 8)}
    with pytest.raises(ScenarioError, match="synergy factor for 0x3 must be positive and finite"):
        build_meanstd_game(MeanStdScenario(3, 2.0, 1.0, 0.5, phi))


def test_meanstd_zero_aversion_is_additive_scaled():
    phi = {c: 1.5 if c.bit_count() > 1 else 1.0 for c in range(1, 8)}
    g = build_meanstd_game(MeanStdScenario(3, 2.0, 0.5, 0.0, phi))
    assert math.isclose(g.values[7], 1.5 * 6.0, abs_tol=1e-12)
    assert math.isclose(g.values[3], 1.5 * 4.0, abs_tol=1e-12)
    assert math.isclose(g.values[1], 2.0, abs_tol=1e-12)


def test_meanstd_homogeneous_in_scale():
    a = build_meanstd_game(MeanStdScenario(4, 1.0, 0.5, 1.0))
    b = build_meanstd_game(MeanStdScenario(4, 3.0, 1.5, 1.0))
    for c in range(1, 16):
        assert math.isclose(b.values[c], 3.0 * a.values[c], rel_tol=1e-12)
    # same aversion, scaled units: the games order both ways
    assert leq_cp(a, b).holds and leq_cp(b, a).holds


def test_prop1_on_acceptance_grid():
    report = verify_prop1(4, 1.0, 0.5, [x / 4 for x in range(8)])
    assert report.passed
    assert report.order_pairs == 28


def test_prop1_ignores_common_synergy():
    rng = random.Random(6)
    phi = {c: rng.uniform(0.5, 2.0) for c in range(1, 16)}
    report = verify_prop1(4, 1.0, 0.5, [0.0, 0.7, 1.4], phi)
    assert report.passed
    base1 = build_meanstd_game(MeanStdScenario(4, 1.0, 0.5, 0.2))
    base2 = build_meanstd_game(MeanStdScenario(4, 1.0, 0.5, 1.2))
    with1 = build_meanstd_game(MeanStdScenario(4, 1.0, 0.5, 0.2, phi))
    with2 = build_meanstd_game(MeanStdScenario(4, 1.0, 0.5, 1.2, phi))
    assert leq_cp(base1, base2).holds == leq_cp(with1, with2).holds


def test_prop1_accepts_unsorted_grid():
    report = verify_prop1(3, 1.0, 0.5, [1.5, 0.0, 0.75])
    assert report.passed


def test_meanstd_ratio_pinned():
    g = build_meanstd_game(MeanStdScenario(4, 1.0, 0.5, 1.0))
    assert abs(g.values[3] / g.values[1] - 2.585786) < 1e-6
    assert meanstd_value(2, 1.0, 0.5, 1.0) == 2 - math.sqrt(2) * 0.5


# ---------------------------------------------------------------------------
# mixture games


def test_cvar_game_closed_forms():
    fam = default_uniform_family(4)
    g1 = build_cvar_game(fam, beta_density(1.0))
    g2 = build_cvar_game(fam, beta_density(2.0))
    for mask in range(1, 16):
        s = mask.bit_count()
        assert math.isclose(g1.values[mask], s + math.sqrt(s) / 4, abs_tol=1e-8)
        assert math.isclose(g2.values[mask], s + math.sqrt(s) / 6, abs_tol=1e-8)


def test_cvar_game_values_fall_as_mixing_hardens():
    fam = default_uniform_family(3)
    games = [build_cvar_game(fam, beta_density(a)) for a in (1.0, 2.0, 3.0)]
    for c in range(1, 8):
        vals = [g.values[c] for g in games]
        assert vals[0] > vals[1] > vals[2]


def test_cvar_game_requires_full_cover():
    fam = default_uniform_family(3)
    del fam[5]
    with pytest.raises(ScenarioError):
        build_cvar_game(fam, beta_density(1.0))


def test_cvar_game_cover_error_counts_players():
    # no curve for the grand coalition: the size comes from the player list,
    # or from the highest player a mask names, not from the largest mask
    curves, density, players = cvar_scenario_from_dict(
        {"curves": {"a": [[0, 1], [1, 2]], "b": [[0, 1], [1, 2]]}, "density": {"beta_a": 1}}
    )
    assert players == ("a", "b")
    for kwargs in ({"players": players}, {}):
        with pytest.raises(ScenarioError, match="coalitions of 2 players"):
            build_cvar_game(curves, density, **kwargs)


def test_cvar_game_rejects_player_count_before_iterating():
    # 40 players would mean 2^40 - 1 coalitions: the size check comes first
    curves = {1: uniform_curve(1.0, 2.0)}
    players = [f"p{i}" for i in range(40)]
    with pytest.raises(ScenarioError, match="1..16 players, got 40"):
        build_cvar_game(curves, beta_density(2.0), players=players)
    with pytest.raises(ScenarioError, match="got 40"):
        build_cvar_game({1 << 39: uniform_curve(1.0, 2.0)}, beta_density(2.0))


def test_prop2_chain_and_reversal():
    fam = default_uniform_family(4)
    d1, d2 = beta_density(1.0), beta_density(2.0)
    forward = verify_prop2(fam, d1, d2)
    assert forward.passed
    assert forward.tail.holds and forward.likelihood.holds and forward.order.holds
    backward = verify_prop2(fam, d2, d1)
    assert not backward.passed
    assert not backward.likelihood.holds


def test_prop2_catches_family_without_tail_dominance():
    fam = {
        1: uniform_curve(1, 2),
        2: uniform_curve(1, 2),
        3: uniform_curve(2, 6),
    }
    report = verify_prop2(fam, beta_density(1.0), beta_density(2.0))
    assert not report.tail.holds


@pytest.mark.parametrize("grid", [1, 0, -3])
def test_prop2_refuses_a_grid_of_fewer_than_two_points(grid):
    # one point has no step to compare: the one-unit form would pass vacuously
    fam, d1, d2 = default_uniform_family(3), beta_density(1.0), beta_density(2.0)
    with pytest.raises(ValueError, match="at least two points"):
        verify_prop2(fam, d1, d2, grid=grid)
    with pytest.raises(ValueError, match="at least two points"):
        verify_prop2_chain(fam, [d1, d2, d1], grid=grid)


def test_prop2_chain_refuses_fewer_than_two_densities():
    fam = default_uniform_family(3)
    for chain in ([], [beta_density(2.0)]):
        with pytest.raises(ValueError, match="at least two densities"):
            verify_prop2_chain(fam, chain)


def _empirical_family(seed: int, n: int, shared: bool) -> dict:
    """Curves from noisy draws, one per coalition or one per size: sampling
    noise breaks the one-unit form on some nested pairs."""
    rng = random.Random(seed)

    def draw(s):
        return empirical_curve([s + rng.gammavariate(2.0, 0.5 * math.sqrt(s)) for _ in range(60)], 11)
    by_size = {s: draw(s) for s in range(1, n + 1)}
    return {c: by_size[c.bit_count()] if shared else draw(c.bit_count()) for c in coalitions(n)}


def _prop2_families() -> dict:
    return {
        "uniform": default_uniform_family(4),
        "scaled": uniform_curve_family(3, lambda s: 2.0 * s, lambda s: 2.0 * (s + math.sqrt(s))),
        "empirical": _empirical_family(5, 3, shared=False),
        "empirical-shared": _empirical_family(9, 4, shared=True),
        "no-tail-dominance": {1: uniform_curve(1, 2), 2: uniform_curve(1, 2), 3: uniform_curve(2, 6)},
    }


def _prop2_chains() -> list:
    b1, b2, b3 = beta_density(1.0), beta_density(2.0), beta_density(3.2, 41)
    explicit = density_curve([(0, 0.2), (0.3, 1.1), (0.55, 0.4), (1, 1.7)], normalize=True)
    return [[b1, b2], [b2, b1], [b1, b2, b3], [b3, b2, b1, b1], [explicit, b2, b2, b1]]


@pytest.mark.parametrize("tol", [0.0, DEFAULT_TOL])
@pytest.mark.parametrize("name", list(_prop2_families()))
def test_prop2_chain_matches_the_pairwise_oracle_link_by_link(name, tol):
    fam = _prop2_families()[name]
    unordered = 0
    for chain in _prop2_chains():
        for grid in (2, 21):
            reports = verify_prop2_chain(fam, chain, grid=grid, tol=tol)
            assert len(reports) == len(chain) - 1
            for d1, d2, report in zip(chain, chain[1:], reports):
                assert report == naive_verify_prop2(fam, d1, d2, grid=grid, tol=tol)
                assert verify_prop2(fam, d1, d2, grid=grid, tol=tol) == report
                unordered += not report.order.holds
    # every family has a link whose games are not ordered (the chains reverse a shift)
    assert unordered
    if name.startswith("empirical"):
        # the draws break the one-unit form, so every message is compared
        drops = naive_verify_prop2(fam, *_prop2_chains()[0], tol=tol).violations
        assert any(v.startswith("tail-average ratio drops") for v in drops)


@pytest.mark.parametrize("tol", [0.0, DEFAULT_TOL])
def test_prop2_chain_is_reflexive(tol):
    # a link from a density to itself holds its likelihood and order claims
    densities = dict.fromkeys(d for chain in _prop2_chains() for d in chain)
    for fam in _prop2_families().values():
        for d in densities:
            (report,) = verify_prop2_chain(fam, [d, d], tol=tol)
            assert report.likelihood.holds and report.order.holds


def test_custom_family_scaling_cancels():
    # multiplying every curve by the same factor rescales values linearly
    fam = uniform_curve_family(3, lambda s: 2.0 * s, lambda s: 2.0 * (s + math.sqrt(s)))
    base = default_uniform_family(3)
    g_scaled = build_cvar_game(fam, beta_density(2.0))
    g_base = build_cvar_game(base, beta_density(2.0))
    for c in range(1, 8):
        assert math.isclose(g_scaled.values[c], 2.0 * g_base.values[c], rel_tol=1e-10)
    assert leq_cp(g_base, g_scaled).holds and leq_cp(g_scaled, g_base).holds


# ---------------------------------------------------------------------------
# scenario dictionaries


def test_meanstd_from_dict_expands_phi():
    scenario, players = meanstd_from_dict(
        {
            "n": 3,
            "mu": 1.0,
            "sigma": 0.5,
            "r": 0.25,
            "phi": {"default": 2.0, "a,b": 3.0},
        }
    )
    assert players == ("a", "b", "c")
    assert scenario.phi[3] == 3.0
    assert scenario.phi[7] == 2.0
    with pytest.raises(ScenarioError):
        meanstd_from_dict({"n": 3, "mu": 1.0})


def test_density_from_dict_variants():
    d = density_from_dict({"beta_a": 2})
    assert math.isclose(d.value(0.5), 1.0, abs_tol=1e-12)
    d = density_from_dict({"knots": [[0, 1], [1, 1]]})
    assert d.value(0.3) == 1.0
    with pytest.raises(ScenarioError):
        density_from_dict({})


def test_empirical_curve_interpolates_sample_quantiles():
    curve = empirical_curve([2.0, 1.0], knot_count=3)
    assert curve.knots == ((0.0, 1.0), (0.5, 1.5), (1.0, 2.0))

    draws = list(range(1, 101))
    random.Random(7).shuffle(draws)
    curve = empirical_curve(draws, knot_count=101)
    assert math.isclose(curve.value(0.0), 1.0, abs_tol=1e-12)
    assert math.isclose(curve.value(0.5), 50.5, abs_tol=1e-9)
    assert math.isclose(curve.value(1.0), 100.0, abs_tol=1e-12)
    assert math.isclose(curve.mean, 50.5, abs_tol=1e-6)


def test_empirical_curve_rejects_bad_samples():
    with pytest.raises(ScenarioError):
        empirical_curve([])
    with pytest.raises(ScenarioError):
        empirical_curve([1.0, 0.0])
    with pytest.raises(ScenarioError):
        empirical_curve([1.0, 2.0], knot_count=1)


def test_cvar_scenario_from_dict():
    curves, density, players = cvar_scenario_from_dict(
        {
            "players": ["x", "y"],
            "curves": {
                "x": [[0, 1], [1, 2]],
                "y": [[0, 1], [1, 2]],
                "x,y": [[0, 2.5], [1, 4.5]],
            },
            "density": {"knots": [[0, 1], [1, 1]]},
        }
    )
    assert players == ("x", "y")
    game = build_cvar_game(curves, density, players=players)
    assert math.isclose(game.values[3], 3.0, abs_tol=1e-10)
    with pytest.raises(ScenarioError):
        cvar_scenario_from_dict({"density": {"beta_a": 1}})


def test_cvar_scenario_accepts_sampled_curves():
    curves, density, players = cvar_scenario_from_dict(
        {
            "players": ["x", "y"],
            "curves": {
                "x": {"samples": [1.0, 2.0], "knot_count": 3},
                "y": {"knots": [[0, 1], [1, 2]]},
                "x,y": [[0, 2.5], [1, 4.5]],
            },
            "density": {"knots": [[0, 1], [1, 1]]},
        }
    )
    game = build_cvar_game(curves, density, players=players)
    assert math.isclose(game.values[1], 1.25, abs_tol=1e-10)
    assert math.isclose(game.values[2], 1.25, abs_tol=1e-10)
    with pytest.raises(ScenarioError):
        cvar_scenario_from_dict(
            {
                "players": ["x"],
                "curves": {"x": {"mean": 2.0}},
                "density": {"beta_a": 1},
            }
        )


@pytest.mark.parametrize(
    "reader, data, field",
    [
        (cvar_scenario_from_dict, {"n": 3, "density": 3}, "density"),
        (cvar_scenario_from_dict, {"curves": [1, 2], "density": {"beta_a": 2}}, "curves"),
        (cvar_scenario_from_dict, {"curves": {"a": 5}, "density": {"beta_a": 2}}, "curves.a"),
        (cvar_scenario_from_dict, {"n": 2, "density": {"knots": 5}}, "density.knots"),
        (cvar_scenario_from_dict, {"n": 2, "density": {"beta_a": [2]}}, "density.beta_a"),
        (
            cvar_scenario_from_dict,
            {"n": 2, "density": {"knots": [[0, 1], [1, 3]], "normalize": "false"}},
            "density.normalize",
        ),
        (
            cvar_scenario_from_dict,
            {"curves": {"a": {"samples": 5}}, "density": {"beta_a": 2}},
            "curves.a.samples",
        ),
        (cvar_scenario_from_dict, {"n": 2, "players": 3, "density": {"beta_a": 2}}, "players"),
        (cvar_scenario_from_dict, {"n": 2.5, "density": {"beta_a": 2}}, "n"),
        (cvar_scenario_from_dict, {"n": True, "density": {"beta_a": 2}}, "n"),
        (cvar_scenario_from_dict, {"n": 2, "density": {"beta_a": "2"}}, "density.beta_a"),
        (
            cvar_scenario_from_dict,
            {"n": 2, "density": {"beta_a": 2, "knot_count": "50"}},
            "density.knot_count",
        ),
        (
            cvar_scenario_from_dict,
            {"curves": {"a": {"samples": [1, 2], "knot_count": 9.5}}, "density": {"beta_a": 2}},
            "curves.a.knot_count",
        ),
        # a samples list with an item that is not a number, or a draw that
        # is not finite, after good draws
        *[
            (
                cvar_scenario_from_dict,
                {"curves": {"a": {"samples": [1, 2.5, bad]}}, "density": {"beta_a": 2}},
                f"^curves.a.samples must be a number, got {re.escape(repr(bad))}$",
            )
            for bad in (True, "1", None, [1])
        ],
        (
            cvar_scenario_from_dict,
            {"curves": {"a": {"samples": [1, 2.5, 10**400]}}, "density": {"beta_a": 2}},
            "^curves.a.samples must be a finite number, got 1000+$",
        ),
        (
            cvar_scenario_from_dict,
            {"curves": {"a": {"samples": [1, 2.5, math.nan]}}, "density": {"beta_a": 2}},
            "^curves.a: sample draws must be finite$",
        ),
        (
            cvar_scenario_from_dict,
            {"n": 2, "density": {"beta_a": 2, "knot_count": 10**9}},
            "density.knot_count must be at most 10001, got 1000000000",
        ),
        (
            cvar_scenario_from_dict,
            {"curves": {"a": {"samples": [1, 2], "knot_count": 10_002}}, "density": {"beta_a": 2}},
            "curves.a.knot_count must be at most 10001, got 10002",
        ),
        (meanstd_from_dict, {"n": 2.5, "mu": 1, "sigma": 0.5, "r": 0}, "n"),
        (meanstd_from_dict, {"n": 2, "mu": "1", "sigma": 0.5, "r": 0}, "mu"),
        (meanstd_from_dict, {"n": 2, "mu": 1, "sigma": 0.5}, "missing r"),
        (meanstd_from_dict, {"n": 2, "mu": 1, "sigma": 0.5, "r": 0, "phi": 3}, "phi"),
        (meanstd_from_dict, {"n": 2, "mu": 1, "sigma": 0.5, "r": 0, "players": 5}, "players"),
        (cvar_scenario_from_dict, {"n": 26, "density": {"beta_a": 2}}, "n must be in 1..16"),
        (cvar_scenario_from_dict, {"n": 0, "density": {"beta_a": 2}}, "n must be in 1..16"),
        (meanstd_from_dict, {"n": 26, "mu": 1, "sigma": 0.5, "r": 0}, "n must be in 1..16"),
        (meanstd_from_dict, {"n": -1, "mu": 1, "sigma": 0.5, "r": 0}, "n must be in 1..16"),
        (
            cvar_scenario_from_dict,
            {"n": 3, "players": ["x", "y"], "density": {"beta_a": 2}},
            "expected 3 players, got 2",
        ),
        # values the curve and density constructors refuse
        (
            cvar_scenario_from_dict,
            {"n": 2, "density": {"beta_a": 2, "knot_count": 1}},
            "^density: need at least two knots$",
        ),
        (
            cvar_scenario_from_dict,
            {"n": 2, "density": {"beta_a": 0.5}},
            "^density: shape parameter must be at least 1$",
        ),
        (
            cvar_scenario_from_dict,
            {"curves": {"a": [[0, 2], [1, 1]]}, "density": {"beta_a": 2}},
            "^curves.a: curve must be nondecreasing$",
        ),
        (
            cvar_scenario_from_dict,
            {"n": 2, "density": {"knots": [[0, 2], [1, 2]]}},
            r"^density: density integrates to 2.0, not 1; pass normalize=True$",
        ),
    ],
)
def test_scenario_readers_name_mistyped_fields(reader, data, field):
    with pytest.raises(ScenarioError, match=field):
        reader(data)
