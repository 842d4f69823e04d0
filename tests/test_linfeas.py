import math
import random
from dataclasses import replace
from fractions import Fraction
from functools import cache, partial

import pytest

from fracgame import (
    InfeasibleSystem,
    LinearSystem,
    MeanStdScenario,
    build_meanstd_game,
    NumericFailure,
    feasible,
    linear_system,
    max_slack_point,
    minimize,
    satisfies,
    vertices,
)
from fracgame import linfeas, stability
from fracgame.games import make_game, members, split_point, subgame
from fracgame.risk import (
    beta_density,
    build_cvar_game,
    default_uniform_family,
    uniform_curve_family,
)
from fracgame.stability import CoreRows, core_system
from conftest import (
    cut_game,
    naive_feasible,
    naive_generate_rows,
    naive_max_slack_point,
    naive_minimize,
    naive_packing_point,
    naive_satisfies,
    naive_warm_max_slack_point,
    outcome,
    random_exact_game,
    random_float_game,
)


def test_constructor_rejects_garbage():
    with pytest.raises(ValueError):
        linear_system(2, [0])
    with pytest.raises(ValueError):
        linear_system(2, [0, 0], [(0, 3, 1)])  # zero coefficient
    with pytest.raises(ValueError):
        linear_system(2, [0, 0], [(1, 4, 1)])  # support out of range
    with pytest.raises(NumericFailure):
        linear_system(2, [float("inf"), 0])


def test_plain_simplex_is_feasible():
    sys_ = linear_system(3, [0, 0, 0])
    point = feasible(sys_)
    assert point is not None and satisfies(sys_, point)


def test_tight_lower_bounds():
    # lower bounds already sum to 1: the single feasible point
    sys_ = linear_system(2, [Fraction(1, 4), Fraction(3, 4)])
    assert feasible(sys_) == (Fraction(1, 4), Fraction(3, 4))
    # bounds overshoot: infeasible
    assert feasible(linear_system(2, [Fraction(1, 2), Fraction(2, 3)])) is None


def test_halfspace_cuts():
    # f0 + f1 = 1, f0 >= 0, f1 >= 0, 2*f0 >= 3 is impossible (f0 <= 1)
    assert feasible(linear_system(2, [0, 0], [(2, 1, 3)])) is None
    # 2*f0 >= 1 is fine
    sys_ = linear_system(2, [0, 0], [(2, 1, 1)])
    point = feasible(sys_)
    assert point is not None and point[0] >= Fraction(1, 2)


def test_minimize_linear_objective():
    # min f0 subject to the simplex with f0 + f1 >= ... trivial: f0 -> 0
    sys_ = linear_system(3, [Fraction(1, 10), 0, 0])
    value, point = minimize(sys_, [1, 0, 0])
    assert value == Fraction(1, 10)
    assert satisfies(sys_, point)
    # maximize f0 via minimizing -f0: hits 1 minus other lower bounds
    value, point = minimize(sys_, [-1, 0, 0])
    assert value == -1
    value, point = minimize(linear_system(3, [Fraction(1, 10), Fraction(1, 5), 0]), [-1, 0, 0])
    assert value == Fraction(-4, 5)


def test_minimize_none_when_infeasible_and_slack_raises():
    bad = linear_system(2, [Fraction(3, 4), Fraction(1, 2)])
    assert minimize(bad, [1, 1]) is None
    with pytest.raises(InfeasibleSystem):
        max_slack_point(bad)


@pytest.mark.parametrize(
    "solve",
    [
        feasible,
        partial(minimize, cost=[1, 0, 0]),
        max_slack_point,
        # the row-generation rounds, with a pricing that names no row
        pytest.param(partial(max_slack_point, price=lambda terms, scale, t: None), id="max_slack_point-priced"),
    ],
)
def test_every_solver_rechecks_its_point(monkeypatch, solve):
    # a basic point off the system (every coordinate one higher) is
    # refused, never handed back
    basic_terms = linfeas._basic_terms

    def moved(*args):
        terms, scale = basic_terms(*args)
        return [a + scale for a in terms], scale

    monkeypatch.setattr(linfeas, "_basic_terms", moved)
    with pytest.raises(NumericFailure, match="violating the system"):
        solve(linear_system(3, [0, 0, 0]))


def test_max_slack_frozen_example():
    # simplex with lower bounds 0 plus the halfspace f0 + f1 >= 5/6 on four
    # variables; slack-maximizing point computed once by hand
    sys_ = linear_system(4, [0, 0, 0, 0], [(1, 0b0011, Fraction(5, 6))])
    point, slack = max_slack_point(sys_)
    assert slack == Fraction(1, 18)
    assert point == (Fraction(1, 18), Fraction(5, 6), Fraction(1, 18), Fraction(1, 18))
    assert satisfies(sys_, point)


def test_max_slack_bare_simplex_centroid():
    point, slack = max_slack_point(linear_system(3, [0, 0, 0]))
    assert point == (Fraction(1, 3),) * 3
    assert slack == Fraction(1, 3)


def test_max_slack_deterministic_and_canonical():
    sys_ = linear_system(3, [0, Fraction(1, 6), 0], [(2, 0b011, Fraction(1, 2))])
    first = max_slack_point(sys_)
    second = max_slack_point(sys_)
    assert first == second


def test_vertices_of_plain_simplex():
    got = vertices(linear_system(3, [0, 0, 0]))
    want = sorted(
        [(Fraction(1), Fraction(0), Fraction(0)),
         (Fraction(0), Fraction(1), Fraction(0)),
         (Fraction(0), Fraction(0), Fraction(1))]
    )
    assert got == want


def test_vertices_respect_halfspaces():
    sys_ = linear_system(2, [0, 0], [(2, 1, 1)])
    assert vertices(sys_) == [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1), Fraction(0))]


def test_vertices_all_satisfy_and_span():
    rng = random.Random(11)
    for _ in range(100):
        dim = rng.randint(2, 4)
        lower = [Fraction(rng.randrange(0, 3), 12) for _ in range(dim)]
        cuts = []
        for _ in range(rng.randrange(0, 3)):
            support = rng.randrange(1, 1 << dim)
            cuts.append((1, support, Fraction(rng.randrange(0, 10), 12)))
        sys_ = linear_system(dim, lower, cuts)
        verts = vertices(sys_)
        for v in verts:
            assert satisfies(sys_, v)
        point = feasible(sys_)
        if point is None:
            assert verts == []
        else:
            assert verts
            # random convex combinations stay feasible
            for _ in range(5):
                weights = [Fraction(rng.random()) for _ in verts]
                total = sum(weights)
                combo = tuple(
                    sum(w * v[i] for w, v in zip(weights, verts)) / total
                    for i in range(dim)
                )
                assert satisfies(sys_, combo)


def test_feasible_agrees_between_float_and_fraction_inputs():
    # dyadic floats convert exactly, so verdicts must coincide
    rng = random.Random(5)
    for _ in range(200):
        dim = rng.randint(2, 4)
        lower_f = [rng.randrange(0, 9) / 16 for _ in range(dim)]
        cut_support = rng.randrange(1, 1 << dim)
        cut_rhs = rng.randrange(0, 17) / 16
        sys_float = linear_system(dim, lower_f, [(1.0, cut_support, cut_rhs)])
        sys_frac = linear_system(
            dim,
            [Fraction(x) for x in lower_f],
            [(Fraction(1), cut_support, Fraction(cut_rhs))],
        )
        assert sys_float == sys_frac
        a = feasible(sys_float)
        b = feasible(sys_frac)
        assert (a is None) == (b is None)


def test_minimize_value_bounds_sampled_points():
    rng = random.Random(23)
    for _ in range(50):
        dim = rng.randint(2, 4)
        lower = [Fraction(rng.randrange(0, 2), 8) for _ in range(dim)]
        sys_ = linear_system(dim, lower, [(1, rng.randrange(1, 1 << dim), Fraction(1, 3))])
        if feasible(sys_) is None:
            continue
        cost = [Fraction(rng.randrange(-4, 5)) for _ in range(dim)]
        value, arg = minimize(sys_, cost)
        assert satisfies(sys_, arg)
        assert sum(c * x for c, x in zip(cost, arg)) == value
        for v in vertices(sys_):
            assert sum(c * x for c, x in zip(cost, v)) >= value


# the frozen solvers' outcomes, kept per system, so the driver's gates and
# the integer solver's pins share one solve of each system
_frozen_feasible = cache(naive_feasible)
_frozen_cold = cache(partial(outcome, naive_max_slack_point))
_frozen_warm = cache(partial(outcome, naive_warm_max_slack_point))


def _oracle_systems(rng):
    """Seeded systems for the warm-vs-cold comparison, labelled by the
    property they exercise."""
    out = []
    for k in range(300):
        dim = rng.randint(2, 6)
        full = (1 << dim) - 1
        den = rng.choice([6, 8, 12])
        if k % 4 < 2:
            # lower bounds filling the split exactly: a degenerate optimum
            weights = [rng.randint(1, 4) for _ in range(dim)]
            lower = [Fraction(w, sum(weights)) for w in weights]
            label = "tight"
        else:
            lower = [Fraction(rng.randrange(0, 4), den) for _ in range(dim)]
            label = "loose"
        cuts = [
            (rng.randint(1, 3), rng.randrange(1, full + 1), Fraction(rng.randrange(0, 2 * den), den))
            for _ in range(rng.randrange(0, 5))
        ]
        out.append((label, linear_system(dim, lower, cuts)))
    for n in (3, 4):
        for r in (0.0, 0.3, 0.7, 1.1):
            phi = {rng.randrange(1, (1 << n) - 1): rng.uniform(0.8, 1.3) for _ in range(2)}
            game = build_meanstd_game(MeanStdScenario(n, 1.3, 0.6, r, phi))
            out.append(("meanstd", core_system(game)))
    return out


def test_max_slack_point_matches_cold_sequential_reference():
    seen = {"infeasible": 0, "tight": 0, "meanstd": 0}
    den_bits = 0
    for label, sys_ in _oracle_systems(random.Random(2304)):
        want = _frozen_cold(sys_)
        assert outcome(max_slack_point, sys_) == want
        seen["infeasible"] += want is None
        seen[label] = seen.get(label, 0) + 1
        if label == "meanstd":
            den_bits = max(den_bits, *(h.rhs.denominator.bit_length() for h in sys_.halfspaces))
    assert min(seen["infeasible"], seen["tight"]) >= 20
    assert seen["meanstd"] == 8 and den_bits >= 50


def _recording_rows(record):
    """A stand-in for a priced ``linfeas.max_slack_point`` that hands
    ``record`` each restricted system the driver solves, in order, as it is
    formed: the base, then the base plus the rows taken in so far, in key
    order."""
    solve = linfeas.max_slack_point

    def wrapped(base, price):
        taken = {}

        def recording(terms, scale, t):
            row = price(terms, scale, t)
            if row is not None:
                taken[row[0]] = row[1]
                rows = tuple(taken[k] for k in sorted(taken))
                record(replace(base, halfspaces=base.halfspaces + rows))
            return row

        record(base)
        return solve(base, recording)

    return wrapped


def _committed_weak_systems(games):
    """The systems the exact weak-core search hands to the LP for these
    games (its base system, every committed extension and the canonical
    witness restrictions), after the strong-core restrictions that row
    generation solves on them.  The strong regions of these games are empty
    by their superadditive cover, so ``core_region`` solves none of those
    itself; they are solved here, directly.  A search that ends at its root
    writes its witness with ``linfeas.packing_point``, so the root's
    canonical restriction (every coalition the root covers) is solved here
    too, by row generation."""
    seen = []

    def record(system):
        if system not in seen:
            seen.append(system)

    def recording_feasible(system):
        record(system)
        return feasible(system)

    saved = linfeas.feasible, linfeas.max_slack_point
    linfeas.feasible, linfeas.max_slack_point = recording_feasible, _recording_rows(record)
    try:
        for game in games:
            rows = stability.CoreRows(game)
            rows.solve(range(1, game.grand))
            stability.core_region(game, stability.WEAK)
            covered = rows.covered(split_point(game, game.grand, 0))
            rows.solve([c for c in range(1, game.grand) if covered(c)])
    finally:
        linfeas.feasible, linfeas.max_slack_point = saved
    return seen


def _superlinear_family(n):
    return uniform_curve_family(n, lambda s: s**1.3, lambda s: s**1.3 + 1)


def _differential_games():
    """Labelled games whose strong-core systems the frozen Fraction solver
    checks: every kind of game the library builds, with cores empty and
    not.  The n=6 games are few and picked cheap for the frozen solver."""
    out = []
    for n in (3, 4, 5):
        for k in range(4):
            out.append(("exact-core", random_exact_game(random.Random(k), n)))
            out.append(("float-core", random_float_game(random.Random(k), n)))
    out.append(("exact-core", random_exact_game(random.Random(0), 6)))
    out.append(("float-core", random_float_game(random.Random(2), 6)))
    for n, r, phi in (
        (4, 0.3, {}), (4, 0.9, {3: 1.6}), (4, 1.4, {}),
        (5, 0.3, {3: 1.6}), (5, 1.4, {}), (6, 0.8, {}),
    ):
        out.append(("meanstd", build_meanstd_game(MeanStdScenario(n, 1.3, 0.6, r, phi))))
    # the default family's tails shrink per head with size (empty split
    # sets); a superlinear family has nonempty cores
    for n in (3, 4):
        for family in (default_uniform_family, _superlinear_family):
            for a in (1.0, 4.0):
                game = build_cvar_game(family(n), beta_density(a))
                out.extend(("cvar", subgame(game, b)) for b in (3, 7, game.grand))
    return out


def _differential_systems():
    """Labelled systems for the point-equality test against the frozen
    Fraction solver: every kind the library builds, feasible and not."""
    out = [(label, core_system(game)) for label, game in _differential_games()]
    rng = random.Random(77)
    weak_games = [cut_game(rng, n) for n in (4, 4, 5)]
    out.extend(("weak-committed", s) for s in _committed_weak_systems(weak_games))
    return out


def test_integer_simplex_returns_the_frozen_solvers_points(monkeypatch):
    systems = _differential_systems()
    # phase 1's rarer path: a negative pivot in the drive-out pass
    paths = {"negative": 0}
    pivot = linfeas._pivot

    def counting_pivot(tab, basis, row, col):
        paths["negative"] += tab[row][col] < 0
        pivot(tab, basis, row, col)

    monkeypatch.setattr(linfeas, "_pivot", counting_pivot)

    rng = random.Random(4)
    feasible_by_label = {}
    den_bits = 0
    for label, sys_ in systems:
        point = feasible(sys_)
        assert point == _frozen_feasible(sys_), label
        if sys_.dim < 6:
            cost = [Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)) for _ in range(sys_.dim)]
            assert minimize(sys_, cost) == naive_minimize(sys_, cost), label
        assert outcome(max_slack_point, sys_) == _frozen_warm(sys_), label
        feasible_by_label.setdefault(label, set()).add(point is not None)
        if label == "meanstd":
            den_bits = max(den_bits, *(h.rhs.denominator.bit_length() for h in sys_.halfspaces))
    # every kind is seen both feasible and infeasible
    assert len(feasible_by_label) == 5
    assert all(v == {True, False} for v in feasible_by_label.values()), feasible_by_label
    assert den_bits >= 50
    assert paths["negative"]


@cache
def _row_cases():
    """Seeded strong-core row sets for the row-generation gates, as (label,
    game, candidate coalitions): 240 games of three to six players in turn,
    random exact and float games, cut games, and pooled ventures whose
    coalitions of two or more carry a synergy factor within 20% of 1; each
    with every proper coalition, then with two seeded subsets of them, each
    coalition kept with probability 1/2 (the weak-core search solves such
    restrictions)."""
    rng, out = random.Random(2304), []
    for k in range(240):
        n = 3 + k % 4
        label = ("exact", "float", "cut", "pooled")[k // 4 % 4]
        if label == "exact":
            game = random_exact_game(rng, n)
        elif label == "float":
            game = random_float_game(rng, n)
        elif label == "cut":
            game = cut_game(rng, n)
        else:
            phi = {c: rng.uniform(0.8, 1.2) for c in range(3, 1 << n) if c.bit_count() > 1}
            game = build_meanstd_game(MeanStdScenario(n, 1.0, 0.5, rng.uniform(0.0, 1.5), phi))
        out.append((label, game, range(1, game.grand)))
        for _ in range(2):
            out.append((label, game, [c for c in range(1, game.grand) if rng.random() < 0.5]))
    return out


def _generated(game, candidates, solve=None):
    """The row-generation outcome over the candidates' rows, (point, slack)
    or None when infeasible: ``solve`` (default: ``linfeas.max_slack_point``)
    from ``CoreRows(game).base``, priced by ``CoreRows.pricing``, the
    pricing every strong region uses."""
    rows = CoreRows(game)
    price = rows.pricing(candidates)
    return outcome(partial(solve or linfeas.max_slack_point, price=price), rows.base)


def test_row_generation_matches_the_frozen_solvers():
    # every kind of game the library builds, whole systems of three to six
    # players, against the warm reference (meanstd values carry 54-bit
    # denominators), and the first 48 games' row sets of three and four
    # players against the cold one; CoreRows.solve hands back the same point
    den_bits = 0
    cases = [(label, game, range(1, game.grand)) for label, game in _differential_games()]
    cold = [case for case in _row_cases()[:144] if case[1].n <= 4]
    for k, (label, game, candidates) in enumerate(cases + cold):
        system = CoreRows(game).restricted(candidates)
        want = _frozen_warm(system) if k < len(cases) else _frozen_cold(system)
        got = _generated(game, candidates)
        assert got == want, label
        assert (got is None) == (_frozen_feasible(system) is None), label
        assert got is None or satisfies(system, got[0]), label
        assert CoreRows(game).solve(candidates) == (got and got[0]), label
        if label == "meanstd":
            den_bits = max(den_bits, *(h.rhs.denominator.bit_length() for h in system.halfspaces))
    assert den_bits >= 54


def test_row_generation_matches_the_cold_driver():
    # the max-slack rounds are warm: the same outcomes as cold rounds
    infeasible = 0
    for label, game, candidates in _row_cases():
        want = _generated(game, candidates, naive_generate_rows)
        assert _generated(game, candidates) == want, label
        infeasible += want is None
    assert infeasible >= 20


def test_max_slack_rounds_run_phase_one_only_off_the_split_simplex_and_every_warm_branch(monkeypatch):
    # a priced solve from the bare split simplex starts from its optimum in
    # closed form, with no phase 1; from a system listing one of the rows
    # it starts cold, by one phase 1; every later round is warm, and both
    # end on the same point.  An appended row proves infeasibility
    counts = {"phase one": 0, "rows": 0, "infeasible": 0}
    phase_one, take_row = linfeas._phase_one, linfeas._take_row

    def counting_phase_one(tab, n):
        counts["phase one"] += 1
        return phase_one(tab, n)

    def counting_take_row(tab, basis, row):
        found = take_row(tab, basis, row)
        counts["rows"] += 1
        counts["infeasible"] += found is None
        return found

    cases = _row_cases()
    monkeypatch.setattr(linfeas, "_phase_one", counting_phase_one)
    monkeypatch.setattr(linfeas, "_take_row", counting_take_row)
    listed = 0
    for _, game, candidates in cases:
        before = counts["phase one"]
        got = _generated(game, candidates)
        assert counts["phase one"] == before
        if candidates:
            rows = CoreRows(game)
            priced = partial(max_slack_point, price=rows.pricing(candidates))
            assert outcome(priced, rows.restricted(candidates[:1])) == got
            assert counts["phase one"] == before + 1
            listed += 1
    assert listed > len(cases) // 2
    assert counts["rows"] > len(cases) // 2
    assert counts["infeasible"] >= 20, counts


def test_no_phase_one_drops_a_row(monkeypatch):
    # every row but the split equality has a surplus column of its own, so
    # the rows are linearly independent: an artificial still basic at zero
    # level when phase 1 ends always has a nonzero entry to be driven out
    # on.  _tableau writes one row per constraint, and each phase 1 returns
    # every row it was given, plus the row taken in by _take_row; both kinds
    # of phase 1 end with some artificial driven out
    tableau, phase_one, take_row, pivot_loop = (
        linfeas._tableau, linfeas._phase_one, linfeas._take_row, linfeas._pivot_loop
    )
    ending, driven = [], {"phase one": 0, "take row": 0}

    def checked_tableau(system, slack_var):
        found = tableau(system, slack_var)
        assert len(found[0]) == 1 + len(system.halfspaces) + slack_var * system.dim
        return found

    def checked_phase_one(tab, n):
        rows = len(tab)
        ending.append(("phase one", n))
        found = phase_one(tab, n)
        ending.pop()
        assert found is None or len(found[0]) == rows
        return found

    def checked_take_row(tab, basis, row):
        rows = len(tab) + 1
        ending.append(("take row", len(row) - 1))
        found = take_row(tab, basis, row)
        ending.pop()
        assert found is None or len(found) == rows
        return found

    def watched_pivot_loop(tab, obj, basis, candidates):
        status = pivot_loop(tab, obj, basis, candidates)
        if ending and obj[-1] == 0:
            kind, n = ending[-1]
            driven[kind] += any(b >= n for b in basis)
        return status

    monkeypatch.setattr(linfeas, "_tableau", checked_tableau)
    monkeypatch.setattr(linfeas, "_phase_one", checked_phase_one)
    monkeypatch.setattr(linfeas, "_take_row", checked_take_row)
    monkeypatch.setattr(linfeas, "_pivot_loop", watched_pivot_loop)
    for _, system in _differential_systems():
        feasible(system)
        outcome(max_slack_point, system)
    for _, game, candidates in _row_cases():
        _generated(game, candidates)
    assert min(driven.values()) >= 1, driven


def _listed_pricing(rows):
    """A pricing over listed halfspaces keyed by their index, on one
    Fraction sum per row: the row of least slack below the slack, ties to
    the lowest index."""

    def price(terms, scale, t):
        point = [Fraction(a, scale) for a in terms]
        slacks = ((h.coef * sum(point[i] for i in members(h.support)) - h.rhs, k) for k, h in enumerate(rows))
        worst = min((s for s in slacks if s[0] < Fraction(t, scale)), default=None)
        return None if worst is None else (worst[1], rows[worst[1]])

    return price


def _split_simplex_cases():
    """Bare split simplices of two to eight variables, labelled by their
    leftover: loose (positive), tight (zero: the simplex is one point, a
    degenerate start), empty (negative), and float (a float game's grand
    split simplex, whose bounds carry denominators of 54 bits or more);
    each with seeded halfspaces for a pricing to name."""
    rng, out = random.Random(3303), []
    for dim in range(2, 9):
        full = (1 << dim) - 1
        for k in range(12):
            label = ("loose", "tight", "empty", "float")[k % 4]
            den = rng.choice([6, 12, 35])
            if label == "float":
                game = random_float_game(rng, dim)
                rows = CoreRows(game)
                out.append((label, rows.base, [rows.halfspace(rng.randrange(1, full)) for _ in range(4)]))
                continue
            if label == "loose":
                lower = [Fraction(rng.randrange(0, 4), den * dim) for _ in range(dim)]
            else:
                weights = [rng.randint(1, 4) for _ in range(dim)]
                grow = 1 if label == "tight" else Fraction(den + 1, den)
                lower = [grow * Fraction(w, sum(weights)) for w in weights]
            cuts = []
            for _ in range(rng.randrange(1, 6)):
                support = rng.randrange(1, full)
                share = Fraction(support.bit_count(), dim) * Fraction(rng.randrange(den, 2 * den), den)
                cuts.append((rng.randint(1, 3), support, share))
            system = linear_system(dim, lower, cuts)
            out.append((label, replace(system, halfspaces=()), list(system.halfspaces)))
    return out


def test_split_simplex_starts_from_the_frozen_solvers_optimum(monkeypatch):
    # a bare split simplex's max-slack point is written in closed form,
    # with no pivot (an empty one raises with no pivot either); priced
    # rounds from that tableau end on the frozen solvers' point of the
    # whole system, so a wrong entry anywhere in it shows
    pivots = []
    pivot = linfeas._pivot

    def counting_pivot(tab, basis, row, col):
        pivots.append(col)
        pivot(tab, basis, row, col)

    monkeypatch.setattr(linfeas, "_pivot", counting_pivot)
    seen, taken, den_bits = {}, 0, 0
    for label, base, rows in _split_simplex_cases():
        whole = replace(base, halfspaces=tuple(rows))
        pivots.clear()
        got = outcome(max_slack_point, base)
        assert not pivots, label
        # the cold reference only where it is cheap
        frozen = (_frozen_warm, _frozen_cold) if base.dim <= 4 else (_frozen_warm,)
        assert all(got == solve(base) for solve in frozen), label
        if label != "float":
            assert (got is None) == (label == "empty"), label
        if label == "tight":
            assert got == (base.lower, 0)
        price, named = _listed_pricing(rows), []

        def recording(*args):
            named.append(price(*args))
            return named[-1]

        priced = outcome(partial(max_slack_point, price=recording), base)
        assert all(priced == solve(whole) for solve in frozen), label
        if got is None:
            assert named == [] and not pivots, label
        taken += any(named)
        seen.setdefault(label, set()).add((base.dim, priced is None))
        if label == "float":
            den_bits = max(den_bits, *(lb.denominator.bit_length() for lb in base.lower))
    assert all(len({dim for dim, _ in seen[label]}) == 7 for label in seen), seen
    assert {none for _, none in seen["loose"] | seen["tight"] | seen["float"]} == {True, False}, seen
    assert taken >= 30 and den_bits >= 54


def test_row_generation_never_prices_a_row_twice(monkeypatch):
    # a row taken in keeps at least the optimal slack of every later
    # restriction, so the rounds end: no pricing names it again.  Each row
    # named is the candidate of least slack below t, ties to the lowest
    # coalition, by one Fraction sum per candidate
    pricing, taken, solving = CoreRows.pricing, [], []

    def pricing_once(self, candidates):
        price, priced, game = pricing(self, candidates), set(), solving[-1]
        ratio = {c: Fraction(game.values[c]) / Fraction(game.values[game.grand]) for c in candidates}

        def wrapped(terms, scale, t):
            row = price(terms, scale, t)
            point = [Fraction(a, scale) for a in terms]
            slacks = ((sum(point[i] for i in members(c)) - ratio[c], c) for c in candidates)
            worst = min((s for s in slacks if s[0] < Fraction(t, scale)), default=None)
            assert (row and row[0]) == (worst and worst[1])
            if row is not None:
                assert row[0] not in priced, "a row taken in was priced again"
                priced.add(row[0])
                taken.append(row[0])
            return row

        return wrapped

    cases = [(game, candidates) for _, game, candidates in _row_cases()]
    cases += [(game, range(1, game.grand)) for n in (4, 5, 6) for game in _core_games(n).values()]
    monkeypatch.setattr(CoreRows, "pricing", pricing_once)
    for game, candidates in cases:
        solving.append(game)
        CoreRows(game).solve(candidates)
    assert len(taken) > 100


def test_packing_point_matches_the_cold_staged_solves():
    # the packing LP's lexicographic optimum (maximize sum(x), then minimize
    # x_0, x_1, ... in turn) over rows priced in lazily, the most violated
    # first, is the frozen solver's over every row listed, staged cold: on
    # seeded random rows in one to six coordinates, caps 0 among them (the
    # origin degenerate), every round's point meeting x >= 0
    rng, taken = random.Random(40), []
    for k in range(180):
        dim = 1 + k % 6
        full = (1 << dim) - 1
        rows = [(full, rng.randrange(12))]
        rows += [
            (rng.randrange(1, full + 1), rng.choice((0, rng.randrange(1, 9))))
            for _ in range(rng.randrange(2 * dim + 2))
        ]

        def price(terms, scale):
            assert min(terms) >= 0 and scale > 0
            over, *row = max((sum(terms[j] for j in members(s)) - scale * cap, s, cap) for s, cap in rows)
            if over <= 0:
                return None
            taken.append(row)
            return row

        terms, scale = linfeas.packing_point(dim, rows[0][1], price)
        assert tuple(Fraction(a, scale) for a in terms) == naive_packing_point(dim, rows)
    assert len(taken) >= 100


def _core_games(n):
    """Strong-core systems of six to eight players: a pooled venture
    (float values), a supermodular exact game (nonempty core), and the
    cut and random exact games (empty cores)."""
    rng = random.Random(n)
    weights = [rng.randint(1, 5) for _ in range(n)]
    square = {m: sum(w for i, w in enumerate(weights) if m >> i & 1) ** 2 for m in range(1, 1 << n)}
    return {
        "pooled": build_meanstd_game(MeanStdScenario(n, 1.0, 0.5, 0.8)),
        "supermodular": make_game(n, square),
        "cut": cut_game(random.Random(3), n),
        "random-exact": random_exact_game(random.Random(3), n),
    }


@pytest.mark.parametrize("n", [6, 7, 8])
def test_row_generation_decides_core_systems_of_six_to_eight_players(monkeypatch, n):
    # the frozen solver cannot afford the whole system past six players, so
    # the last restriction the driver solved (its final row set) is handed
    # to it: the rows of a restriction are rows of the whole system, so an
    # infeasible one proves the whole system infeasible, and its max-slack
    # point is the whole system's when every row there keeps at least that
    # slack
    solved = []
    monkeypatch.setattr(linfeas, "max_slack_point", _recording_rows(solved.append))
    verdicts = {}
    for label, game in _core_games(n).items():
        system = core_system(game)
        solved.clear()
        got = _generated(game, range(1, game.grand))
        last = solved[-1]
        assert (last.dim, last.lower) == (system.dim, system.lower)
        assert set(last.halfspaces) < set(system.halfspaces), label
        assert CoreRows(game).solve(range(1, game.grand)) == (got and got[0]), label
        if got is None:
            assert naive_feasible(last) is None, label
        else:
            assert got == naive_max_slack_point(last), label
            point, slack = got
            assert satisfies(system, point), label
            assert min(x - lb for x, lb in zip(point, system.lower)) >= slack
            for h in system.halfspaces:
                total = sum(point[i] for i in range(n) if h.support >> i & 1)
                assert h.coef * total - h.rhs >= slack
        verdicts.setdefault(label, set()).add(got is None)
        if n == 6:
            assert verdicts[label] == {naive_feasible(system) is None}, label
        elif n == 7:
            # the integer solvers on the whole system; got is the max-slack outcome
            assert verdicts[label] == {feasible(system) is None}, label
            assert got == outcome(max_slack_point, system), label
    assert verdicts == {
        "pooled": {False}, "supermodular": {False}, "cut": {True}, "random-exact": {True}
    }


def _moved(point):
    """The point moved by one unit over its common denominator: each share
    up and down, and one unit from each share to each other one."""
    step = Fraction(1, math.lcm(*(x.denominator for x in point)))

    def move(deltas):
        return tuple(x + deltas.get(k, 0) for k, x in enumerate(point))

    dim = len(point)
    out = [move({i: sign * step}) for i in range(dim) for sign in (1, -1)]
    out += [move({i: step, j: -step}) for i in range(dim) for j in range(dim) if i != j]
    return out


def test_exact_satisfies_matches_the_fraction_check():
    # the integer check against one Fraction sum per constraint, on the
    # systems above: their LP points, which sit on the constraints they make
    # tight, those points moved off by one unit, and their nearest floats
    systems = [s for _, s in _oracle_systems(random.Random(2304))]
    systems += [s for _, s in _differential_systems()]
    seen = {True: 0, False: 0, "last-alone": 0}
    for system in systems:
        best = outcome(max_slack_point, system)
        points = [feasible(system), best and best[0]] if best else [tuple(system.lower)]
        allbut = LinearSystem(system.dim, system.lower, system.halfspaces[:-1])
        for point in points:
            for p in [point, *_moved(point), (Fraction(1),) * (system.dim + 1)]:
                want = naive_satisfies(system, p)
                assert satisfies(system, p) == want
                # floats are converted exactly
                near = [float(x) for x in p]
                assert satisfies(system, near) == naive_satisfies(system, list(map(Fraction, near)))
                seen[want] += 1
                seen["last-alone"] += not want and naive_satisfies(allbut, p)
    # every verdict occurs, and some points fail the last halfspace alone
    assert min(seen.values()) >= 20, seen
