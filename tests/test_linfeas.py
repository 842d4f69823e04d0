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
from fracgame.games import make_game, subgame
from fracgame.risk import (
    beta_density,
    build_cvar_game,
    default_uniform_family,
    uniform_curve_family,
)
from fracgame.linfeas import row_generation
from fracgame.stability import core_system
from conftest import (
    cut_game,
    naive_feasible,
    naive_max_slack_point,
    naive_minimize,
    naive_row_generation,
    naive_satisfies,
    naive_warm_max_slack_point,
    outcome,
    random_exact_game,
    random_float_game,
)


def simplex(dim, lower, halfspaces=()):
    return linear_system(dim, lower, [(1 << dim) - 1], halfspaces)


def test_constructor_rejects_garbage():
    with pytest.raises(ValueError):
        linear_system(2, [0], [3])
    with pytest.raises(ValueError):
        linear_system(2, [0, 0], [1, 3])  # overlapping blocks
    with pytest.raises(ValueError):
        linear_system(2, [0, 0], [3], [(0, 3, 1)])  # zero coefficient
    with pytest.raises(ValueError):
        linear_system(2, [0, 0], [3], [(1, 4, 1)])  # support out of range
    with pytest.raises(NumericFailure):
        linear_system(2, [float("inf"), 0], [3])


def test_plain_simplex_is_feasible():
    sys_ = simplex(3, [0, 0, 0])
    point = feasible(sys_)
    assert point is not None and satisfies(sys_, point)


def test_tight_lower_bounds():
    # lower bounds already sum to 1: the single feasible point
    sys_ = simplex(2, [Fraction(1, 4), Fraction(3, 4)])
    assert feasible(sys_) == (Fraction(1, 4), Fraction(3, 4))
    # bounds overshoot: infeasible
    assert feasible(simplex(2, [Fraction(1, 2), Fraction(2, 3)])) is None


def test_halfspace_cuts():
    # f0 + f1 = 1, f0 >= 0, f1 >= 0, 2*f0 >= 3 is impossible (f0 <= 1)
    assert feasible(simplex(2, [0, 0], [(2, 1, 3)])) is None
    # 2*f0 >= 1 is fine
    sys_ = simplex(2, [0, 0], [(2, 1, 1)])
    point = feasible(sys_)
    assert point is not None and point[0] >= Fraction(1, 2)


def test_multiple_blocks():
    sys_ = linear_system(4, [0, 0, 0, 0], [0b0011, 0b1100], [(1, 0b0101, Fraction(3, 2))])
    point = feasible(sys_)
    assert point is not None
    assert point[0] + point[1] == 1 and point[2] + point[3] == 1
    assert point[0] + point[2] >= Fraction(3, 2)


def test_minimize_linear_objective():
    # min f0 subject to the simplex with f0 + f1 >= ... trivial: f0 -> 0
    sys_ = simplex(3, [Fraction(1, 10), 0, 0])
    value, point = minimize(sys_, [1, 0, 0])
    assert value == Fraction(1, 10)
    assert satisfies(sys_, point)
    # maximize f0 via minimizing -f0: hits 1 minus other lower bounds
    value, point = minimize(sys_, [-1, 0, 0])
    assert value == -1
    value, point = minimize(simplex(3, [Fraction(1, 10), Fraction(1, 5), 0]), [-1, 0, 0])
    assert value == Fraction(-4, 5)


def test_minimize_none_when_infeasible_and_slack_raises():
    bad = simplex(2, [Fraction(3, 4), Fraction(1, 2)])
    assert minimize(bad, [1, 1]) is None
    with pytest.raises(InfeasibleSystem):
        max_slack_point(bad)


@pytest.mark.parametrize(
    "solve",
    [
        feasible,
        partial(minimize, cost=[1, 0, 0]),
        max_slack_point,
        row_generation,
    ],
)
def test_every_solver_rechecks_its_point(monkeypatch, solve):
    # a basic point off the system is refused, never handed back
    basic_point = linfeas._basic_point
    monkeypatch.setattr(linfeas, "_basic_point", lambda *a: [x + 1 for x in basic_point(*a)])
    with pytest.raises(NumericFailure, match="violating the system"):
        solve(simplex(3, [0, 0, 0]))


def test_max_slack_frozen_example():
    # simplex with lower bounds 0 plus the halfspace f0 + f1 >= 5/6 on four
    # variables; slack-maximizing point computed once by hand
    sys_ = simplex(4, [0, 0, 0, 0], [(1, 0b0011, Fraction(5, 6))])
    point, slack = max_slack_point(sys_)
    assert slack == Fraction(1, 18)
    assert point == (Fraction(1, 18), Fraction(5, 6), Fraction(1, 18), Fraction(1, 18))
    assert satisfies(sys_, point)


def test_max_slack_bare_simplex_centroid():
    point, slack = max_slack_point(simplex(3, [0, 0, 0]))
    assert point == (Fraction(1, 3),) * 3
    assert slack == Fraction(1, 3)


def test_max_slack_deterministic_and_canonical():
    sys_ = simplex(3, [0, Fraction(1, 6), 0], [(2, 0b011, Fraction(1, 2))])
    first = max_slack_point(sys_)
    second = max_slack_point(sys_)
    assert first == second


def test_vertices_of_plain_simplex():
    got = vertices(simplex(3, [0, 0, 0]))
    want = sorted(
        [(Fraction(1), Fraction(0), Fraction(0)),
         (Fraction(0), Fraction(1), Fraction(0)),
         (Fraction(0), Fraction(0), Fraction(1))]
    )
    assert got == want


def test_vertices_respect_halfspaces():
    sys_ = simplex(2, [0, 0], [(2, 1, 1)])
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
        sys_ = simplex(dim, lower, cuts)
        _assert_row_generation(sys_, _frozen_cold(sys_))
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
        sys_float = simplex(dim, lower_f, [(1.0, cut_support, cut_rhs)])
        sys_frac = simplex(
            dim,
            [Fraction(x) for x in lower_f],
            [(Fraction(1), cut_support, Fraction(cut_rhs))],
        )
        assert sys_float == sys_frac
        _assert_row_generation(sys_frac, _frozen_cold(sys_frac))
        a = feasible(sys_float)
        b = feasible(sys_frac)
        assert (a is None) == (b is None)


def test_minimize_value_bounds_sampled_points():
    rng = random.Random(23)
    for _ in range(50):
        dim = rng.randint(2, 4)
        lower = [Fraction(rng.randrange(0, 2), 8) for _ in range(dim)]
        sys_ = simplex(dim, lower, [(1, rng.randrange(1, 1 << dim), Fraction(1, 3))])
        _assert_row_generation(sys_, _frozen_cold(sys_))
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


def _assert_row_generation(system, frozen_best):
    """The row-generation driver on a whole system: its max-slack outcome is
    None iff the frozen solver finds the system infeasible, its point lies
    inside the system, and the outcome is the frozen max-slack one."""
    got = outcome(row_generation, system)
    assert (got is None) == (_frozen_feasible(system) is None)
    assert got is None or satisfies(system, got[0])
    assert got == frozen_best


def _oracle_systems(rng):
    """Seeded systems for the warm-vs-cold comparison, labelled by the
    property they exercise."""
    out = []
    for k in range(300):
        dim = rng.randint(2, 6)
        full = (1 << dim) - 1
        if dim >= 3 and k % 2:
            cut = (1 << rng.randint(1, dim - 1)) - 1
            blocks = [cut, full ^ cut]
        else:
            blocks = [full]
        den = rng.choice([6, 8, 12])
        if k % 4 < 2:
            # lower bounds filling each block exactly: a degenerate optimum
            lower = [Fraction(0)] * dim
            for b in blocks:
                mem = [i for i in range(dim) if b >> i & 1]
                weights = [rng.randint(1, 4) for _ in mem]
                for i, w in zip(mem, weights):
                    lower[i] = Fraction(w, sum(weights))
            label = "tight"
        else:
            lower = [Fraction(rng.randrange(0, 4), den) for _ in range(dim)]
            label = "loose"
        cuts = [
            (rng.randint(1, 3), rng.randrange(1, full + 1), Fraction(rng.randrange(0, 2 * den), den))
            for _ in range(rng.randrange(0, 5))
        ]
        out.append((label, len(blocks), linear_system(dim, lower, blocks, cuts)))
    for n in (3, 4):
        for r in (0.0, 0.3, 0.7, 1.1):
            phi = {rng.randrange(1, (1 << n) - 1): rng.uniform(0.8, 1.3) for _ in range(2)}
            game = build_meanstd_game(MeanStdScenario(n, 1.3, 0.6, r, phi))
            out.append(("meanstd", 1, core_system(game)))
    return out


def test_max_slack_point_matches_cold_sequential_reference():
    seen = {"infeasible": 0, "two-block": 0, "tight": 0, "meanstd": 0}
    den_bits = 0
    for label, nblocks, sys_ in _oracle_systems(random.Random(2304)):
        want = _frozen_cold(sys_)
        assert outcome(max_slack_point, sys_) == want
        seen["infeasible"] += want is None
        seen["two-block"] += nblocks == 2
        seen[label] = seen.get(label, 0) + 1
        if label == "meanstd":
            den_bits = max(den_bits, *(h.rhs.denominator.bit_length() for h in sys_.halfspaces))
    assert min(seen["infeasible"], seen["two-block"], seen["tight"]) >= 20
    assert seen["meanstd"] == 8 and den_bits >= 50


def _recording_rows(record):
    """A stand-in for ``linfeas.generate_rows`` that hands ``record`` each
    restricted system the driver solves, in order, as it is formed: the
    base, then the base plus the rows taken in so far, in key order."""
    generate_rows = linfeas.generate_rows

    def wrapped(base, price):
        taken = {}

        def recording(point, t):
            row = price(point, t)
            if row is not None:
                taken[row[0]] = row[1]
                rows = tuple(taken[k] for k in sorted(taken))
                record(replace(base, halfspaces=base.halfspaces + rows))
            return row

        record(base)
        return generate_rows(base, recording)

    return wrapped


def _committed_weak_systems(games):
    """The systems the exact weak-core search hands to the LP for these
    games: the strong-core restrictions it reads first, its base system,
    every committed extension and the canonical witness restrictions."""
    seen = []

    def record(system):
        if system not in seen:
            seen.append(system)

    def recording_feasible(system):
        record(system)
        return feasible(system)

    saved = linfeas.feasible, linfeas.generate_rows
    linfeas.feasible, linfeas.generate_rows = recording_feasible, _recording_rows(record)
    try:
        for game in games:
            stability.core_region(game, stability.WEAK)
    finally:
        linfeas.feasible, linfeas.generate_rows = saved
    return seen


def _superlinear_family(n):
    return uniform_curve_family(n, lambda s: s**1.3, lambda s: s**1.3 + 1)


def _differential_systems():
    """Labelled systems for the point-equality test against the frozen
    Fraction solver: every kind the library builds, feasible and not.  The
    n=6 systems are few and picked cheap for the frozen solver."""
    out = []
    for n in (3, 4, 5):
        for k in range(4):
            out.append(("exact-core", core_system(random_exact_game(random.Random(k), n))))
            out.append(("float-core", core_system(random_float_game(random.Random(k), n))))
    out.append(("exact-core", core_system(random_exact_game(random.Random(0), 6))))
    out.append(("float-core", core_system(random_float_game(random.Random(2), 6))))
    for n, r, phi in (
        (4, 0.3, {}), (4, 0.9, {3: 1.6}), (4, 1.4, {}),
        (5, 0.3, {3: 1.6}), (5, 1.4, {}), (6, 0.8, {}),
    ):
        game = build_meanstd_game(MeanStdScenario(n, 1.3, 0.6, r, phi))
        out.append(("meanstd", core_system(game)))
    # the default family's tails shrink per head with size (empty split
    # sets); a superlinear family has nonempty cores
    for n in (3, 4):
        for family in (default_uniform_family, _superlinear_family):
            for a in (1.0, 4.0):
                game = build_cvar_game(family(n), beta_density(a))
                out.extend(("cvar", core_system(subgame(game, b))) for b in (3, 7, game.grand))
    rng = random.Random(77)
    weak_games = [cut_game(rng, n) for n in (4, 4, 5)]
    out.extend(("weak-committed", s) for s in _committed_weak_systems(weak_games))
    for n in (3, 4):
        for k in range(6):
            base = core_system(random_exact_game(random.Random(k), n))
            # the grand block twice: one equality row is redundant
            twice = LinearSystem(n, base.lower, base.blocks * 2, base.halfspaces)
            out.append(("redundant-block", twice))
    return out


def test_integer_simplex_returns_the_frozen_solvers_points(monkeypatch):
    systems = _differential_systems()
    # phase 1's rarer paths: a redundant row deleted, a negative pivot in
    # the drive-out pass
    paths = {"deleted": 0, "negative": 0}
    phase_one, pivot = linfeas._phase_one, linfeas._pivot

    def counting_phase_one(tab, n):
        rows = len(tab)
        found = phase_one(tab, n)
        paths["deleted"] += found is not None and len(found[0]) < rows
        return found

    def counting_pivot(tab, basis, row, col):
        paths["negative"] += tab[row][col] < 0
        pivot(tab, basis, row, col)

    monkeypatch.setattr(linfeas, "_phase_one", counting_phase_one)
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
    assert len(feasible_by_label) == 6
    assert all(v == {True, False} for v in feasible_by_label.values()), feasible_by_label
    assert den_bits >= 50
    assert paths["deleted"] and paths["negative"]


def test_row_generation_matches_the_frozen_solvers():
    # the seeded oracle set against the cold reference, and every kind of
    # system the library builds against the warm one (the pair agree on
    # the oracle set); meanstd systems carry 54-bit denominators
    for _, _, sys_ in _oracle_systems(random.Random(2304)):
        _assert_row_generation(sys_, _frozen_cold(sys_))
    den_bits = 0
    for label, sys_ in _differential_systems():
        _assert_row_generation(sys_, _frozen_warm(sys_))
        if label == "meanstd":
            den_bits = max(den_bits, *(h.rhs.denominator.bit_length() for h in sys_.halfspaces))
    assert den_bits >= 54


def _row_generation_systems():
    return [s for _, _, s in _oracle_systems(random.Random(2304))] + [
        s for _, s in _differential_systems()
    ]


def test_row_generation_matches_the_cold_driver():
    # the max-slack rounds are warm: the same outcomes as cold rounds
    infeasible = 0
    for system in _row_generation_systems():
        want = outcome(naive_row_generation, system)
        assert outcome(row_generation, system) == want
        infeasible += want is None
    assert infeasible >= 20


def test_max_slack_rounds_run_one_phase_one_and_every_warm_branch(monkeypatch):
    # each call solves its first restriction cold and every later round
    # warm; an appended row proves infeasibility, and the artificial of an
    # appended row is driven out at zero level (its row always keeps its own
    # surplus column, so it is never deleted as redundant)
    counts = {"phase one": 0, "rows": 0, "infeasible": 0, "driven out": 0}
    phase_one, take_row, drive_out = linfeas._phase_one, linfeas._take_row, linfeas._drive_out
    warm = []

    def counting_phase_one(tab, n):
        counts["phase one"] += 1
        return phase_one(tab, n)

    def counting_take_row(tab, basis, row):
        warm.append(True)
        try:
            found = take_row(tab, basis, row)
        finally:
            warm.pop()
        counts["rows"] += 1
        counts["infeasible"] += found is None
        return found

    def counting_drive_out(tab, basis, n):
        if warm:
            counts["driven out"] += any(b >= n for b in basis)
            rows = len(tab)
            found = drive_out(tab, basis, n)
            assert len(found) == rows
            return found
        return drive_out(tab, basis, n)

    systems = _row_generation_systems()
    monkeypatch.setattr(linfeas, "_phase_one", counting_phase_one)
    monkeypatch.setattr(linfeas, "_take_row", counting_take_row)
    monkeypatch.setattr(linfeas, "_drive_out", counting_drive_out)
    for system in systems:
        before = counts["phase one"]
        outcome(row_generation, system)
        assert counts["phase one"] == before + 1
    assert counts["rows"] > len(systems) // 2
    assert counts["infeasible"] >= 20 and counts["driven out"] >= 1, counts


def test_row_generation_never_prices_a_row_twice(monkeypatch):
    # a row taken in keeps at least the optimal slack of every later
    # restriction, so the rounds end: no pricing names it again
    halfspace_pricing, taken = linfeas._halfspace_pricing, []

    def pricing_once(system):
        price, priced = halfspace_pricing(system), set()

        def wrapped(point, t):
            row = price(point, t)
            if row is not None:
                assert row[0] not in priced, "a row taken in was priced again"
                priced.add(row[0])
                taken.append(row[0])
            return row

        return wrapped

    systems = [s for _, _, s in _oracle_systems(random.Random(2304))]
    systems += [core_system(game) for n in (4, 5, 6) for game in _core_games(n).values()]
    monkeypatch.setattr(linfeas, "_halfspace_pricing", pricing_once)
    for system in systems:
        outcome(row_generation, system)
    assert len(taken) > 100


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
    monkeypatch.setattr(linfeas, "generate_rows", _recording_rows(solved.append))
    verdicts = {}
    for label, game in _core_games(n).items():
        system = core_system(game)
        solved.clear()
        got = outcome(row_generation, system)
        last = solved[-1]
        assert (last.dim, last.lower, last.blocks) == (system.dim, system.lower, system.blocks)
        assert set(last.halfspaces) < set(system.halfspaces), label
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
    systems = [s for _, _, s in _oracle_systems(random.Random(2304))]
    systems += [s for _, s in _differential_systems()]
    seen = {True: 0, False: 0, "last-alone": 0}
    for system in systems:
        best = outcome(max_slack_point, system)
        points = [feasible(system), best and best[0]] if best else [tuple(system.lower)]
        allbut = LinearSystem(system.dim, system.lower, system.blocks, system.halfspaces[:-1])
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
