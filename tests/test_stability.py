import itertools
import json
import math
import operator
import pathlib
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from fracgame import (
    EMPTY,
    NONEMPTY,
    STRONG,
    WEAK,
    BlockTable,
    CoreRegion,
    InfeasibleSolution,
    core_contains,
    core_region,
    enumerate_partitions,
    fission_resistant,
    fusion_resistant,
    grand_partition,
    is_stable,
    make_game,
    members,
    patched_core,
    sample_boundary,
    singleton_partition,
    stable_sets,
)
from fracgame import InfeasibleSystem, NumericFailure, linfeas, stability
from fracgame.games import (
    load_game,
    GRAIN,
    boundary_contains,
    boundary_draws,
    boundary_empty,
    size_values,
    solution_feasible,
    split_point,
    split_terms,
    split_vertices,
    subgame,
)
from fracgame.partitions import bell_number
from fracgame.risk import (
    MeanStdScenario,
    beta_density,
    build_cvar_game,
    build_meanstd_game,
    default_uniform_family,
)
from fracgame.centripetality import generate_ordered_pair, leq_cp, verify_corollary, verify_theorem1
from fracgame.stability import (
    core_system,
    share_terms,
    walk_partitions,
)
from conftest import (
    cut_game,
    fusion_resistant_by_total,
    naive_corollary_weak_sampled,
    naive_cover,
    naive_csv_rows,
    naive_feasible,
    naive_fission_resistant,
    naive_fusion_resistant,
    naive_generate_rows,
    naive_max_slack_point,
    naive_report_dict,
    naive_sample_boundary,
    naive_stable_sets,
    naive_weak_core_contains,
    naive_weak_region_exact,
    naive_warm_max_slack_point,
    random_exact_game,
    random_float_game,
)


# ---------------------------------------------------------------------------
# membership predicates


def test_weak_core_matches_naive_oracle():
    rng = random.Random(101)
    checked = 0
    for trial in range(300):
        n = rng.randint(2, 5)
        game = random_exact_game(rng, n) if trial % 2 else random_float_game(rng, n)
        shares = sample_boundary(game, game.grand, rng)
        if shares is None:
            continue
        checked += 1
        assert core_contains(game, shares, WEAK) == naive_weak_core_contains(game, shares)
    assert checked > 200


def test_weak_core_equals_boundary_up_to_three_players():
    rng = random.Random(5)
    for trial in range(100):
        n = rng.randint(1, 3)
        game = random_exact_game(rng, n)
        shares = sample_boundary(game, game.grand, rng)
        if shares is None:
            continue
        assert core_contains(game, shares, WEAK)


def test_strong_core_implies_weak(superadditive3, g4gap):
    for game in (superadditive3, g4gap):
        rng = random.Random(17)
        for _ in range(50):
            shares = sample_boundary(game, game.grand, rng)
            if core_contains(game, shares, STRONG):
                assert core_contains(game, shares, WEAK)


def test_infeasible_shares_are_not_members(superadditive3):
    assert not core_contains(superadditive3, (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)), STRONG)
    assert not core_contains(superadditive3, (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)), WEAK)


def test_g4gap_memberships(g4gap):
    quarter = (Fraction(1, 4),) * 4
    lopsided = (Fraction(5, 12), Fraction(5, 12), Fraction(1, 12), Fraction(1, 12))
    assert not core_contains(g4gap, quarter, WEAK)
    assert core_contains(g4gap, lopsided, WEAK)
    assert not core_contains(g4gap, lopsided, STRONG)


# ---------------------------------------------------------------------------
# fission / fusion resistance


def test_fission_resistance_matches_naive_oracle():
    rng = random.Random(31)
    checked = 0
    for trial in range(200):
        n = rng.randint(2, 5)
        game = random_exact_game(rng, n) if trial % 2 else random_float_game(rng, n)
        parts = list(enumerate_partitions(n))
        partition = parts[rng.randrange(len(parts))]
        locals_ = {}
        ok = True
        for block in partition:
            point = sample_boundary(game, block, rng)
            if point is None:
                ok = False
                break
            locals_[block] = point
        if not ok:
            continue
        shares = [None] * n
        for block, point in locals_.items():
            for i, x in zip(members(block), point):
                shares[i] = x
        shares = tuple(shares)
        checked += 1
        for kind in (STRONG, WEAK):
            assert fission_resistant(game, partition, shares, kind) == naive_fission_resistant(
                game, partition, shares, kind
            )
    assert checked > 120


def test_share_table_matches_naive_oracles():
    # the scalar coverage check, on exact and float games: fission verdicts
    # against the literal oracles, on valid samples and on samples with one
    # share moved to another player that are still feasible
    rng = random.Random(47)
    checked = infeasible = 0
    for trial in range(200):
        n = rng.randint(2, 5)
        game = random_exact_game(rng, n) if trial % 2 else random_float_game(rng, n)
        parts = list(enumerate_partitions(n))
        partition = parts[rng.randrange(len(parts))]
        shares = [None] * n
        for block in partition:
            point = sample_boundary(game, block, rng)
            if point is None:
                break
            for i, x in zip(members(block), point):
                shares[i] = x
        else:
            i, j = rng.randrange(n), rng.randrange(n)
            moved = list(shares)
            moved[i] -= Fraction(1, 2) * shares[i]
            moved[j] += Fraction(1, 2) * shares[i]
            for f in (tuple(shares), tuple(moved)):
                if not solution_feasible(game, partition, f):
                    infeasible += 1
                    continue
                checked += 1
                # exact games compare integer numerators over one scale
                terms, scale = share_terms(game, f)
                if trial % 2:
                    assert all(type(t) is int for t in terms)
                    assert [Fraction(t, scale) for t in terms] == list(f)
                else:
                    assert (tuple(terms), scale) == (f, 1)
                for kind in (STRONG, WEAK):
                    assert fission_resistant(game, partition, f, kind) == naive_fission_resistant(
                        game, partition, f, kind
                    )
                if partition == (game.grand,):
                    assert fission_resistant(game, partition, f, WEAK) == naive_weak_core_contains(
                        game, f
                    )
    assert checked > 150 and infeasible > 20


def test_fission_resistant_rejects_infeasible(superadditive3):
    with pytest.raises(InfeasibleSolution):
        fission_resistant(superadditive3, [7], (1, 0, 1), STRONG)


def test_strong_fission_implies_weak():
    rng = random.Random(77)
    for _ in range(100):
        n = rng.randint(2, 5)
        game = random_exact_game(rng, n)
        parts = list(enumerate_partitions(n))
        partition = parts[rng.randrange(len(parts))]
        shares = [None] * n
        ok = True
        for block in partition:
            point = sample_boundary(game, block, rng)
            if point is None:
                ok = False
                break
            for i, x in zip(members(block), point):
                shares[i] = x
        if not ok:
            continue
        if fission_resistant(game, partition, tuple(shares), STRONG):
            assert fission_resistant(game, partition, tuple(shares), WEAK)


def test_fusion_formulations_agree():
    rng = random.Random(41)
    for trial in range(60):
        n = rng.randint(2, 5)
        game = random_exact_game(rng, n) if trial % 2 else random_float_game(rng, n)
        for partition in enumerate_partitions(n):
            assert fusion_resistant(game, partition) == fusion_resistant_by_total(
                game, partition
            )


def test_fusion_hand_cases(superadditive3, additive3, pairy3):
    # merging always gains in the superadditive game, except nothing is
    # mergeable at the top
    assert fusion_resistant(superadditive3, grand_partition(3))
    assert not fusion_resistant(superadditive3, singleton_partition(3))
    assert not fusion_resistant(superadditive3, (3, 4))
    # additive: every merger is value-neutral, so all partitions resist
    for partition in enumerate_partitions(3):
        assert fusion_resistant(additive3, partition)
    # pairy: mergers always lose value
    for partition in enumerate_partitions(3):
        assert fusion_resistant(pairy3, partition)


def test_is_stable_worked_example(superadditive3):
    third = (Fraction(1, 3),) * 3
    assert is_stable(superadditive3, grand_partition(3), third, STRONG)
    assert is_stable(superadditive3, grand_partition(3), third, WEAK)
    assert not is_stable(superadditive3, (3, 4), (Fraction(1, 2), Fraction(1, 2), 1), STRONG)
    skew = (Fraction(2, 3), Fraction(1, 6), Fraction(1, 6))
    assert not is_stable(superadditive3, grand_partition(3), skew, STRONG)
    assert is_stable(superadditive3, grand_partition(3), skew, WEAK)


# ---------------------------------------------------------------------------
# core regions


def test_strong_region_additive_is_single_point(additive3):
    region = core_region(additive3, STRONG)
    assert region.status == NONEMPTY
    assert region.witness == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))


def test_regions_on_g4gap(g4gap):
    strong = core_region(g4gap, STRONG)
    assert strong.status == EMPTY and strong.witness is None
    weak = core_region(g4gap, WEAK)
    assert weak.status == NONEMPTY
    assert core_contains(g4gap, weak.witness, WEAK)


def test_empty_boundary_yields_empty_regions(pairy3):
    for kind in (STRONG, WEAK):
        assert core_region(pairy3, kind).status == EMPTY


def test_split_points_match_independent_oracles():
    # the split set's one owner, games.split_point and split_vertices,
    # against oracles that share none of its closed forms: the Fraction
    # formulas (lower bounds v(i)/v(B), leftover 1 - their sum), brute-force
    # linfeas.vertices on the bare split simplex (up to four members, where
    # it is cheap), the point linfeas.feasible's and the frozen
    # naive_feasible's phase 1 end on (member 0's point), and the frozen
    # naive_max_slack_point (the center of a grand block of up to three
    # players); on exact and float blocks, flat ones (no leftover), empty
    # ones, ones with zero singletons, and singleton blocks, whose one split
    # is the share 1
    rng = random.Random(73)
    games = [make(rng, n) for n in range(2, 7) for make in (random_exact_game, random_float_game) for _ in range(4)]
    games += [_additive_game(rng, n) for n in range(2, 7)]
    games += [make_game(n, {m: 0 if m.bit_count() == 1 else m.bit_count() for m in range(1, 1 << n)}) for n in (2, 4)]
    games += [make_game(3, {1: 1, 2: 2, 4: 3, 3: 3, 5: 4, 6: 5, 7: 6}), make_game(2, {1: 0.5, 2: 0.25, 3: 0.75})]
    games += [make_game(1, {1: value}) for value in (0, 2, 0.5)]
    seen = dict.fromkeys(("empty", "flat", "zero-lone", "float", "singleton", "center-lp"), 0)
    for game in games:
        for block in range(1, 1 << game.n):
            mem, vertices = members(block), split_vertices(game, block)
            if len(mem) == 1:
                assert split_point(game, block) == split_point(game, block, 0) == (1,)
                assert vertices == [(1,)] and boundary_contains(game, block, (1,))
                seen["singleton"] += 1
                continue
            lbs = [Fraction(game.values[1 << i]) / Fraction(game.values[block]) for i in mem]
            s, k = 1 - sum(lbs), len(mem)
            bare = stability.CoreRows(subgame(game, block)).base
            root, center = split_point(game, block, 0), split_point(game, block)
            if s < 0:
                assert vertices == [] and root is None and center is None
                assert linfeas.feasible(bare) is None and boundary_empty(game, block)
                seen["empty"] += 1
                continue
            points = [tuple(lb + s if i == j else lb for i, lb in enumerate(lbs)) for j in range(k)]
            assert [split_point(game, block, j) for j in range(k)] == points
            assert vertices == sorted(set(points))
            if k <= 4:
                assert vertices == linfeas.vertices(bare)
            assert root == linfeas.feasible(bare) == naive_feasible(bare)
            assert center == tuple(lb + s / k for lb in lbs)
            if block == game.grand and k <= 3:
                assert naive_max_slack_point(bare) == (center, s / k)
                seen["center-lp"] += 1
            assert all(boundary_contains(game, block, p) for p in (*vertices, center))
            seen["flat"] += s == 0
            seen["zero-lone"] += 0 in lbs
            seen["float"] += game.mode == "float"
    assert all(count >= 3 for count in seen.values()), seen


def test_split_simplex_functions_match_their_fraction_formulas():
    # every reader of games.split_terms but the split points (which
    # test_split_points_match_independent_oracles checks) against the
    # Fraction formulas of a block's split simplex: lower bounds v(i)/v(B)
    # and leftover 1 - their sum, on exact and float games, empty blocks and
    # blocks with nothing left over
    rng = random.Random(83)
    games = [random_exact_game(rng, rng.randint(2, 4)) for _ in range(30)]
    games += [random_float_game(rng, rng.randint(2, 4)) for _ in range(30)]
    games += [cut_game(random.Random(3), 4), build_meanstd_game(MeanStdScenario(4, 1.0, 0.5, 0.8))]
    games.append(make_game(3, {1: 1, 2: 2, 4: 3, 3: 3, 5: 4, 6: 5, 7: 6}))
    games.append(make_game(2, {1: 0.5, 2: 0.25, 3: 0.75}))
    seen = {"empty": 0, "flat": 0, "float": 0}
    for game in games:
        for block in range(1, 1 << game.n):
            if block.bit_count() < 2:
                continue
            mem = members(block)
            lbs = [Fraction(game.values[1 << i]) / Fraction(game.values[block]) for i in mem]
            s = 1 - sum(lbs)
            whole, lone = split_terms(game, block)
            assert all(type(x) is int for x in (whole, *lone))
            assert [Fraction(a, whole) for a in lone] == lbs
            assert Fraction(whole - sum(lone), whole) == s
            assert boundary_empty(game, block) == (s < 0)
            if game.mode == "exact":
                # a draw: int terms over v(B)*2^20, between the bounds and
                # the bounds plus the leftover, summing to 1
                draws = boundary_draws(game, block, random.Random(block), 1)
                assert (draws is None) == (s < 0)
                if draws is not None:
                    terms, scale = next(draws)
                    assert all(type(x) is int for x in (*terms, scale))
                    assert scale == whole * GRAIN and sum(terms) == scale
                    assert all(lb <= Fraction(t, scale) <= lb + s for t, lb in zip(terms, lbs))
            assert stability.CoreRows(subgame(game, block)).base.lower == tuple(lbs)
            seen["empty"] += s < 0
            seen["flat"] += s == 0
            seen["float"] += game.mode != "exact" and s >= 0
    assert all(count >= 3 for count in seen.values())


def test_core_rows_coverage_matches_fraction_member_sums():
    # at the LP point of a committed system, CoreRows.covered says of every
    # coalition C whether v(N) * (sum of its shares) >= v(C), as literal
    # Fraction member sums say it; the points sit on the rows they commit
    # and on lower bounds, so ties are checked too
    rng = random.Random(89)
    games = [random_exact_game(rng, rng.randint(3, 5)) for _ in range(8)]
    games += [random_float_game(rng, rng.randint(3, 5)) for _ in range(8)]
    games += [cut_game(random.Random(seed), n) for seed, n in ((1, 4), (2, 5), (3, 6))]
    games += [build_meanstd_game(MeanStdScenario(n, 1.0, 0.5, r)) for n, r in ((3, 0.4), (4, 1.2))]
    seen = {True: 0, False: 0, "tight": 0}
    for game in games:
        rows, full = stability.CoreRows(game), game.grand
        v_n = Fraction(game.values[full])
        proper = range(1, full)
        for trial in range(6):
            committed = rng.sample(proper, min(trial, len(proper)))
            point = linfeas.feasible(rows.restricted(committed))
            if point is None:
                continue
            covered = rows.covered(point)
            for c in proper:
                share = v_n * sum(point[i] for i in members(c))
                value = Fraction(game.values[c])
                assert covered(c) == (share >= value)
                seen[covered(c)] += 1
                seen["tight"] += share == value
    assert all(count >= 50 for count in seen.values())


def test_region_witness_always_revalidates():
    rng = random.Random(53)
    for trial in range(120):
        n = rng.randint(1, 4)
        game = random_exact_game(rng, n) if trial % 2 else random_float_game(rng, n)
        for kind in (STRONG, WEAK):
            region = core_region(game, kind)
            assert region.status in (NONEMPTY, EMPTY)
            if region.status == NONEMPTY:
                assert core_contains(game, region.witness, kind)
            elif kind == STRONG and game.mode == "exact":
                # spot-check emptiness against sampled points
                for _ in range(20):
                    point = sample_boundary(game, game.grand, rng)
                    if point is not None:
                        assert not core_contains(game, point, kind)


def test_weak_region_lends_the_strong_region_of_the_same_game():
    # a nonempty strong core answers the weak one with its own witness,
    # standalone and in a block table
    rng = random.Random(29)
    make = (random_float_game, random_exact_game)
    games = [make[k % 2](rng, 4 + k % 3) for k in range(30)]
    games += [build_meanstd_game(MeanStdScenario(n, 1.0, 0.5, r)) for n in (4, 5, 6) for r in (0, 0.8)]
    lent = 0
    for game in games:
        strong, weak = core_region(game, STRONG), core_region(game, WEAK)
        table = BlockTable(game)
        assert table[game.grand, WEAK] == weak and table[game.grand, STRONG] == strong
        assert (weak.method == "strong-subset") == (strong.status == NONEMPTY)
        if strong.status == NONEMPTY:
            assert weak.witness == strong.witness
            lent += 1
    assert lent >= 8 and lent < len(games)


def test_weak_region_exact_vs_sampled_consistency():
    # no draw from the grand split simplex may contradict the exact verdict:
    # 200 draws per game, judged by the literal weak-core predicate, stop at
    # the first weak-core point or at an empty simplex
    rng = random.Random(69)
    agree = 0
    for _ in range(36):
        values = {}
        for mask in range(1, 32):
            if mask.bit_count() == 1:
                values[mask] = Fraction(rng.randrange(0, 4), rng.randrange(1, 3))
            else:
                values[mask] = Fraction(rng.randrange(1, 30), rng.randrange(1, 3))
        values[31] = sum(values[1 << i] for i in range(5)) + rng.randrange(1, 25)
        game = make_game(5, values)
        exact = core_region(game, WEAK)
        assert exact.status in (NONEMPTY, EMPTY)
        draws = random.Random(3)
        for _ in range(200):
            f = naive_sample_boundary(game, game.grand, draws)
            if f is None:
                # only the exact empty-simplex shortcut may say empty here
                assert exact.status == EMPTY and exact.rule == "empty-split"
                break
            if naive_weak_core_contains(game, f):
                assert exact.status == NONEMPTY
                agree += 1
                break
    assert agree > 10


def _searched(game) -> CoreRegion:
    """The weak region ``core_region`` gives the game when its strong core
    is empty: the exact search's, or ``empty-split``'s."""
    return core_region(game, WEAK, strong=CoreRegion(EMPTY))


def _weak_search_games(n, seeds):
    for seed in seeds:
        yield random_exact_game(random.Random(seed), n)
        yield from generate_ordered_pair(seed, n)
        yield random_float_game(random.Random(seed), n)
        game = cut_game(random.Random(seed), n)
        yield game
        if n == 5:
            yield from (subgame(game, game.grand ^ 1 << i) for i in range(5))


@pytest.mark.parametrize("n, seeds", [(4, range(60)), (5, range(25))])
def test_weak_region_exact_matches_the_partition_walk(n, seeds):
    # the split-driven search against the Bell(n) partition walk it
    # replaced: same status on every game, and every canonical witness
    # re-validates under the library and the literal predicate
    statuses = set()
    for game in _weak_search_games(n, seeds):
        want = naive_weak_region_exact(game).status
        got = _searched(game)
        assert got.status == want
        if got.status == NONEMPTY:
            assert core_contains(game, got.witness, WEAK)
            assert naive_weak_core_contains(game, got.witness)
        statuses.add((game.mode, want))
    assert statuses == {(m, s) for m in ("exact", "float") for s in (EMPTY, NONEMPTY)}


def test_weak_region_exact_decides_eight_players():
    # the partition walk recursed once per partition (Bell(8) - 1 = 4139
    # levels) and overflowed the stack here
    game = cut_game(random.Random(8), 8)
    region = _searched(game)
    assert region.status in (NONEMPTY, EMPTY)
    if region.status == NONEMPTY:
        assert core_contains(game, region.witness, WEAK)


def _root_games():
    """Seeded labelled games of four to six players for the weak search's
    root witness: cut games, random Fraction and float games (float values
    convert to denominators near 2^52), Fraction games with zero
    singletons, and near-additive games (Fraction and float), whose
    leftover v(N) - sum of v(i) is often 0 (t* = 0) and whose coalitions
    often tie their members' values (g(D) = 0)."""
    rng, out = random.Random(3940), []
    for k in range(30):
        n, full = 4 + k % 3, (1 << (4 + k % 3)) - 1
        out.append(("cut", cut_game(rng, n)))
        out.append(("exact", random_exact_game(rng, n)))
        out.append(("float", random_float_game(rng, n)))
        values = random_exact_game(rng, n).values
        zeros = {1 << i for i in range(n) if rng.random() < 0.5}
        zeroed = {m: 0 if m in zeros else values[m] for m in range(1, full + 1)}
        out.append(("zero-singletons", make_game(n, zeroed)))
        w = [rng.randrange(4) for _ in range(n)]
        near = {}
        for m in range(1, full + 1):
            alone = sum(w[i] for i in members(m))
            if m.bit_count() > 1:
                alone = max(alone + rng.choice((0, 0, 0, -1, Fraction(1, 2), 1)), Fraction(1, 3))
            near[m] = alone
        near[full] = max(sum(w) + rng.choice((0, 0, Fraction(1, 5), 1)), 1)
        out.append(("near-additive", make_game(n, near)))
        floats = {m: float(v) for m, v in near.items()}
        out.append(("near-additive-float", make_game(n, floats, mode="float", tol=1e-9)))
    return out


def test_root_witness_is_the_canonical_restrictions_max_slack_point():
    # a weak search that ends at its root writes its witness in the root's
    # coordinates (``CoreRows.solve_at_root``): the max-slack point of the
    # restriction to every coalition the root covers, as row generation
    # (``CoreRows.solve``) and, at n = 4, the cold frozen solver find it;
    # where the search ends at its root (never on the random Fraction
    # games, whose roots are all blocked), the whole region is the one
    # those make
    seen = {"t* = 0": 0}
    for label, game in _root_games():
        rows, full = stability.CoreRows(game), game.grand
        root = split_point(game, game.grand, 0)
        if root is None:
            continue
        covered = rows.covered(root)
        candidates = [c for c in range(1, full) if covered(c)]
        point = rows.solve(candidates)
        assert rows.solve_at_root(candidates) == point, label
        if game.n == 4:
            want, slack = naive_max_slack_point(rows.restricted(candidates))
            assert want == point, label
            seen["t* = 0"] += slack == 0
        if stability._blocking_split(full, lambda c: not covered(c)) is None:
            region = CoreRegion(NONEMPTY, stability._finish_witness(game, point), "exact-search")
            got = _searched(game)
            assert (repr(got), got.rule) == (repr(region), "root-packing"), label
            seen[label] = seen.get(label, 0) + 1
    assert seen.pop("t* = 0") >= 5
    assert set(seen) == {"cut", "float", "zero-singletons", "near-additive", "near-additive-float"}


def test_weak_region_empty_where_sampling_cannot_decide():
    # every two-two pairing blocks any split of the unit, so the weak core
    # is empty; sampling alone cannot certify that, the exact search does
    game = make_game(4, {
        1: 0, 2: 0, 4: 0, 8: 0,
        3: 13, 5: 13, 9: 13, 6: 13, 10: 13, 12: 13,
        7: 1, 11: 1, 13: 1, 14: 1,
        15: 12,
    })
    assert core_region(game, WEAK) == CoreRegion(EMPTY, None, "exact-search")


def test_singleton_game_region():
    g = make_game(1, {1: 0})
    for kind in (STRONG, WEAK):
        region = core_region(g, kind)
        assert region.status == NONEMPTY and region.witness == (1,)


def _default_report_games(n):
    for r in (0, 0.8, 1.5):
        yield build_meanstd_game(MeanStdScenario(n, 1.0, 0.5, r))
    for seed in range(3):
        for make in (cut_game, random_exact_game, random_float_game):
            yield make(random.Random(seed), n)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_default_reports_decide_every_weak_core(n):
    # with default settings every weak block region is decided, never
    # sampled, and every witness is a weak-core point of its block's subgame
    # under the library's and the literal predicate; at n=5 the grand
    # verdict is the partition walk's
    methods = set()
    for game in _default_report_games(n):
        report = stable_sets(game)
        assert report.to_dict()["weak_unknown"] == []
        regions = {
            block: region
            for record in report.records
            for block, region in zip(record.partition, record.weak.block_regions)
        }
        for block, region in regions.items():
            assert region.status in (NONEMPTY, EMPTY)
            assert not region.method.startswith("sampled")
            methods.add(region.method)
            if region.witness is not None:
                sub = subgame(game, block)
                assert core_contains(sub, region.witness, WEAK)
                assert naive_weak_core_contains(sub, region.witness)
        if n == 5:
            want = naive_weak_region_exact(game)
            assert regions[game.grand].status == want.status
    assert "exact-search" in methods


# ---------------------------------------------------------------------------
# patched cores and stable sets


def test_patched_core_blockwise(g4gap):
    strong = patched_core(g4gap, (3, 12), STRONG)
    assert strong.status == NONEMPTY
    assert strong.witness == (Fraction(1, 2),) * 4
    grand = patched_core(g4gap, (15,), STRONG)
    assert grand.status == EMPTY and grand.witness is None


def test_patched_core_witness_is_feasible_and_resistant():
    rng = random.Random(87)
    for trial in range(80):
        n = rng.randint(2, 4)
        game = random_exact_game(rng, n) if trial % 2 else random_float_game(rng, n)
        parts = list(enumerate_partitions(n))
        partition = parts[rng.randrange(len(parts))]
        for kind in (STRONG, WEAK):
            patched = patched_core(game, partition, kind)
            if patched.status == NONEMPTY:
                assert fission_resistant(game, partition, patched.witness, kind)
            if patched.status == EMPTY and kind == STRONG:
                # some block really has an empty core
                assert any(r.status == EMPTY for r in patched.block_regions)


def test_stable_sets_superadditive(superadditive3):
    report = stable_sets(superadditive3)
    assert report.fusion_resistant_partitions() == [(7,)]
    strong = report.stable(STRONG)
    assert [p for p, _ in strong] == [(7,)]
    assert strong[0][1] == (Fraction(1, 3),) * 3
    assert report.stable(WEAK)[0][0] == (7,)
    assert report.most_consolidated(WEAK) == (7,)


@pytest.mark.parametrize("query", ["partitions_with", "stable", "most_consolidated"])
def test_report_queries_refuse_an_unknown_kind(superadditive3, query):
    with pytest.raises(ValueError, match="kind must be"):
        getattr(stable_sets(superadditive3), query)("bogus")


def test_report_writers_build_no_share_vector(monkeypatch):
    # the writers test each patched core's status and write its witness
    # from the block regions: no core's share vector is built, and the
    # text is the one the oracle writes from those vectors
    rng = random.Random(21)
    games = [random_exact_game(rng, 5), random_float_game(rng, 5), cut_game(rng, 5)]

    def refuse(self):
        raise AssertionError("a patched core's share vector was built")

    monkeypatch.setattr(stability.PatchedCore, "witness", property(refuse))
    reports = [stable_sets(game) for game in games]
    texts = [(report.json_text(), report.csv_rows()) for report in reports]
    monkeypatch.undo()
    for report, (text, rows) in zip(reports, texts):
        assert report.stable(WEAK) and any(r.strong.status == EMPTY for r in report.records)
        assert text == json.dumps(naive_report_dict(report), sort_keys=True, indent=2) + "\n"
        assert rows == naive_csv_rows(report)


def test_report_writers_build_no_patched_core(monkeypatch):
    # the writers read each record's statuses and block regions as the walk
    # gave them: no patched core is built for any partition, and a core is
    # built only when a record's strong or weak side is read
    game = random_exact_game(random.Random(6), 6)
    report = stable_sets(game)
    built = []
    init = stability.PatchedCore.__init__
    monkeypatch.setattr(stability.PatchedCore, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    text, rows = report.json_text(), report.csv_rows()
    assert built == []
    first = report.records[0]
    assert first.strong == stability.PatchedCore(first.partition, first.strong_regions, first.strong_status)
    assert len(built) == 2
    monkeypatch.undo()
    assert report.stable(WEAK) and json.loads(text)["most_consolidated_weak"] is not None
    assert text == json.dumps(naive_report_dict(report), sort_keys=True, indent=2) + "\n"
    assert rows == naive_csv_rows(report)


def _count_partition_checks(monkeypatch) -> list:
    checked = []
    original = stability.check_partition

    def counting(n, blocks):
        checked.append(blocks)
        return original(n, blocks)

    monkeypatch.setattr(stability, "check_partition", counting)
    return checked


def test_stable_sets_checks_no_enumerated_partition(monkeypatch):
    # stable_sets builds its cores and fusion verdicts from enumerated
    # partitions, which need no check, on exact and float games
    checked = _count_partition_checks(monkeypatch)
    stable_sets(random_exact_game(random.Random(13), 5))
    stable_sets(random_float_game(random.Random(13), 5))
    assert checked == []


def test_walk_partitions_decides_each_block_size_sequence_once(monkeypatch):
    # one memo, by the sequence of block sizes: each of the 2^(n-1)
    # sequences is decided, and judged by the fusion test, once; no
    # enumerated partition is checked
    checked, judged = _count_partition_checks(monkeypatch), []
    resists = stability._resists_fusion
    monkeypatch.setattr(
        stability, "_resists_fusion", lambda *args: judged.append(args[1]) or resists(*args)
    )
    walked = list(walk_partitions(build_meanstd_game(MeanStdScenario(6, 1, 0.5, 0.8))))
    sequences = {tuple(b.bit_count() for b in blocks) for blocks in judged}
    assert len(walked) == bell_number(6) and len(judged) == len(sequences) == 2**5
    assert checked == []


@pytest.mark.parametrize("family", ["meanstd-r0", "meanstd-r0.8", "cvar", "additive"])
def test_stable_sets_decides_each_block_size_sequence_once(monkeypatch, family):
    # stable_sets reads walk_partitions, so a size-symmetric game's report,
    # exact or float, judges fusion once per sequence of block sizes: 2^5
    # of the 203 partitions at n=6.  The report is the per-partition
    # oracle's, and its JSON and CSV are the dict and row oracles'
    game = {
        "meanstd-r0": lambda: build_meanstd_game(MeanStdScenario(6, 1, 0.5, 0.0)),
        "meanstd-r0.8": lambda: build_meanstd_game(MeanStdScenario(6, 1, 0.5, 0.8)),
        "cvar": lambda: build_cvar_game(default_uniform_family(6), beta_density(2.0)),
        "additive": lambda: make_game(6, {m: 3 * m.bit_count() for m in range(1, 1 << 6)}),
    }[family]()
    assert size_values(game) is not None
    judged, resists = [], stability._resists_fusion
    monkeypatch.setattr(
        stability, "_resists_fusion", lambda *args: judged.append(args[1]) or resists(*args)
    )
    report = stable_sets(game)
    assert len(judged) == 2**5 and len(report.records) == bell_number(6)
    monkeypatch.undo()
    assert report.to_dict() == naive_stable_sets(game).to_dict()
    _assert_report_text(report)


def test_is_stable_checks_its_partition_once(monkeypatch):
    # solution_feasible checks the partition; the fission and fusion tests
    # read it as checked.  On an additive game every block's equal split is
    # in its core, so every call reaches the fusion test
    from fracgame import games as games_module

    checked = []
    for module in (games_module, stability):
        original = module.check_partition
        monkeypatch.setattr(
            module, "check_partition", lambda n, b, f=original: checked.append(b) or f(n, b)
        )
    game = make_game(4, {m: m.bit_count() for m in range(1, 16)})
    for partition in enumerate_partitions(4):
        shares = [Fraction(1, b.bit_count()) for i in range(4) for b in partition if b >> i & 1]
        before = len(checked)
        assert is_stable(game, partition, shares, STRONG)
        assert len(checked) == before + 1


def test_stable_sets_pairy_splinters(pairy3):
    report = stable_sets(pairy3)
    stable_weak = report.stable(WEAK)
    assert ((1, 2, 4), (1, 1, 1)) in stable_weak
    # grand and pair partitions have empty patched cores
    assert report.partitions_with(STRONG) == [(1, 2, 4)]
    assert report.partitions_with(WEAK) == [(1, 2, 4)]
    assert len(report.fusion_resistant_partitions()) == 5


def test_stable_sets_g4gap(g4gap):
    report = stable_sets(g4gap)
    assert report.fusion_resistant_partitions() == [(15,), (3, 12)]
    strong_parts = [p for p, _ in report.stable(STRONG)]
    assert strong_parts == [(3, 12)]
    weak_parts = [p for p, _ in report.stable(WEAK)]
    assert weak_parts == [(15,), (3, 12)]
    assert report.most_consolidated(WEAK) == (15,)
    for partition, witness in report.stable(WEAK):
        assert is_stable(g4gap, partition, witness, WEAK)


def test_stable_witnesses_revalidate_randomly():
    rng = random.Random(3)
    for trial in range(40):
        n = rng.randint(2, 4)
        game = random_exact_game(rng, n) if trial % 2 else random_float_game(rng, n)
        report = stable_sets(game)
        for kind in (STRONG, WEAK):
            for partition, witness in report.stable(kind):
                assert is_stable(game, partition, witness, kind)


def test_report_serializes(superadditive3):
    report = stable_sets(superadditive3)
    payload = report.to_dict()
    json.dumps(payload)
    rows = report.csv_rows()
    assert rows[0][0] == "partition"
    assert len(rows) == 1 + 5


def _assert_report_text(report):
    # the writer prints the bytes json.dumps prints for the dict oracle,
    # to_dict reads them back, and the CSV rows match their oracle
    text = report.json_text()
    assert text == json.dumps(naive_report_dict(report), sort_keys=True, indent=2) + "\n"
    assert report.to_dict() == json.loads(text)
    assert report.csv_rows() == naive_csv_rows(report)
    return text


@pytest.mark.parametrize("n", range(1, 8))
def test_report_text_matches_the_dict_oracle(n):
    rng = random.Random(n)
    games = [
        random_exact_game(rng, n),
        random_float_game(rng, n),
        cut_game(rng, n),
        build_meanstd_game(MeanStdScenario(n, 1.0, 0.5, 0.8)),
    ]
    reports = [stable_sets(game) for game in games]
    for report in reports:
        _assert_report_text(report)
        # no fusion-resistant partition: empty lists and no consolidated one
        records = tuple(r._replace(fusion_resistant=False) for r in report.records)
        text = _assert_report_text(replace(report, records=records))
        assert '"most_consolidated_weak": null' in text
    # the cut game's blocks of four or more players have empty strong cores
    assert (n >= 4) == any(r.strong.status == EMPTY for r in reports[2].records)


@pytest.mark.parametrize("n", range(1, 8))
def test_report_text_escapes_player_names(n):
    names = ('"q', "b\\s", "\u00e9", "\u2603", "t\tx", "\x01c", "\U0001d11e")[:n]
    for game in (random_exact_game(random.Random(n), n), random_float_game(random.Random(n), n)):
        values = {m: game.values[m] for m in range(1, 1 << n)}
        report = stable_sets(make_game(n, values, mode=game.mode, tol=game.tol, players=names))
        assert json.loads(_assert_report_text(report))["players"] == list(names)


def test_report_text_prints_float_witnesses_with_exponents():
    # a lone player worth nearly the whole leaves the other shares near 0,
    # so their repr has an exponent
    values = {1: 1 - 1e-7, 2: 0.0, 4: 0.0, 3: 1.0, 5: 1.0, 6: 1.0, 7: 1.0}
    text = _assert_report_text(stable_sets(make_game(3, values, mode="float", tol=1e-9)))
    assert "e-08" in text


# ---------------------------------------------------------------------------
# the block table


@pytest.mark.parametrize("n, seed", [(4, 12), (5, 14), (5, 31), (5, 40)])
def test_stable_sets_match_per_partition_oracle(n, seed):
    # deciding each block once must reproduce the sweep that decides every
    # block of every partition afresh; the grand weak core of each of these
    # games is left to the exact search.  Each core takes its status from
    # the partition walk and derives its witness from its block regions:
    # both must be the ones the oracle aggregates block by block
    game = random_exact_game(random.Random(seed), n)
    oracle = {}
    want = naive_stable_sets(game, patched_out=oracle)
    got = stable_sets(game)
    assert got.to_dict() == want.to_dict()
    cores = {(r.partition, kind): getattr(r, kind) for r in got.records for kind in (STRONG, WEAK)}
    assert cores.keys() == oracle.keys()
    for record in want.records:
        for kind in (STRONG, WEAK):
            core = cores[record.partition, kind]
            assert core == getattr(record, kind)
            assert (core.status, core.witness) == oracle[record.partition, kind]
    assert want.records[0].weak.block_regions[0].method == "exact-search"


def test_stable_sets_match_per_partition_oracle_on_float_game():
    game = build_meanstd_game(MeanStdScenario(4, 1.0, 0.5, 0.8))
    assert stable_sets(game).to_dict() == naive_stable_sets(game).to_dict()


def _count_core_regions(monkeypatch) -> list:
    from fracgame import stability

    calls = []
    original = stability.core_region

    def counting(game, kind, **kwargs):
        calls.append((game.values, kind))
        return original(game, kind, **kwargs)

    monkeypatch.setattr(stability, "core_region", counting)
    return calls


def test_stable_sets_decides_each_block_once(monkeypatch):
    # one decision per distinct (block subgame, kind): blocks whose subgames
    # have equal value tables share it
    calls = _count_core_regions(monkeypatch)
    game = random_exact_game(random.Random(13), 5)
    stable_sets(game)
    contents = {(subgame(game, b).values, kind) for b in range(1, 32) for kind in (STRONG, WEAK)}
    assert len(calls) == len(set(calls)) and set(calls) == contents


def test_stable_sets_decides_each_block_size_once_on_a_pooled_game(monkeypatch):
    # a pooled venture's values depend only on coalition size: 6 distinct
    # subgames among the 63 blocks, each decided once per kind
    calls = _count_core_regions(monkeypatch)
    stable_sets(build_meanstd_game(MeanStdScenario(6, 1.0, 0.5, 0.8)))
    assert len(calls) == 12


def test_stable_sets_solves_each_feasibility_system_once(monkeypatch):
    # the weak region of a block of four or more players reads the strong
    # region's feasible point instead of solving the same system again
    systems = []
    original = linfeas.feasible

    def recording(system):
        systems.append(system)
        return original(system)

    monkeypatch.setattr(linfeas, "feasible", recording)
    stable_sets(random_exact_game(random.Random(13), 5))
    assert systems and len(systems) == len(set(systems))


def _size_game(n: int, by_size: dict):
    """A game whose values depend only on coalition size."""
    return make_game(n, {m: by_size[m.bit_count()] for m in range(1, 1 << n)})


# per capita, pairs get 3/2, 4-blocks 29/20 and 5-blocks 7/5, so a pair
# inside blocks the strong cores of 4- and 5-blocks; their weak cores are
# nonempty (give one member 1 and the others the rest evenly)
SIZE_VALUES = {1: 1, 2: 3, 3: Fraction(9, 2), 4: Fraction(29, 5), 5: 7, 6: Fraction(42, 5)}


@pytest.mark.parametrize(
    "game",
    [
        *[build_meanstd_game(MeanStdScenario(5, 1.0, 0.5, r)) for r in (0, 0.8, 1.5)],
        build_cvar_game(default_uniform_family(5), beta_density(2.0)),
        _size_game(4, SIZE_VALUES),
        _size_game(5, SIZE_VALUES),
    ],
    ids=["meanstd-r0", "meanstd-r0.8", "meanstd-r1.5", "cvar-beta2", "size-4", "size-5"],
)
def test_blocks_with_equal_subgames_match_the_per_partition_oracle(game):
    # every block of one size has the same subgame here; deciding it once
    # must reproduce the sweep that decides every block of every partition
    assert stable_sets(game).to_dict() == naive_stable_sets(game).to_dict()


@pytest.mark.parametrize(
    "game",
    [
        _size_game(6, SIZE_VALUES),
        _size_game(6, {s: float(v) for s, v in SIZE_VALUES.items()}),
    ],
    ids=["exact", "float"],
)
def test_sampled_blocks_with_equal_subgames_share_one_region(game):
    # the 4-, 5- and 6-player weak regions, once sampled, are decided by the
    # exact search; every block of one size gets the one region decided for
    # its subgame, and every witness is a core point of it
    report = stable_sets(game)
    seen = {}
    for record in report.records:
        for kind, patched in ((STRONG, record.strong), (WEAK, record.weak)):
            for block, region in zip(record.partition, patched.block_regions):
                sub = subgame(game, block)
                assert seen.setdefault((sub.values, kind), region) == region
                if region.witness is not None:
                    assert core_contains(sub, region.witness, kind)
    assert len(seen) == 2 * game.n
    searched = [r for r in seen.values() if r.method == "exact-search"]
    assert len(searched) == game.n - 3


def test_repeated_sampled_block_has_one_region():
    # 4-player blocks, once sampled, are searched exactly here and each
    # occurs in Bell(2) = 2 partitions; the report must give each block one
    # verdict and witness
    game = random_exact_game(random.Random(3), 6)
    report = stable_sets(game)
    seen = {}
    for record in report.records:
        for kind, patched in ((STRONG, record.strong), (WEAK, record.weak)):
            for block, region in zip(record.partition, patched.block_regions):
                assert seen.setdefault((block, kind), region) == region
    assert len(seen) == 2 * (2**6 - 1)
    assert any(r.method == "exact-search" and r.witness for r in seen.values())


def _frozen_max_slack_point(system, price=None):
    """``linfeas.max_slack_point`` with every round solved cold by the
    frozen warm solver."""
    if price is None:
        return naive_warm_max_slack_point(system)
    return naive_generate_rows(system, price, naive_warm_max_slack_point)


@pytest.mark.parametrize(
    "game",
    [
        cut_game(random.Random(1), 5),
        build_meanstd_game(MeanStdScenario(6, 1.0, 0.5, 0.8)),
        random_float_game(random.Random(2), 5),
    ],
    ids=["cut-exact-5", "pooled-float-6", "random-float-5"],
)
def test_report_equals_the_frozen_solvers_report(monkeypatch, game):
    # the integer simplex takes the frozen Fraction solver's pivots, and the
    # warm max-slack rounds end on the cold rounds' unique points, so every
    # verdict, witness and method string in the report comes out the same
    # when every round is solved cold by the frozen solvers
    got = stable_sets(game).to_dict()
    monkeypatch.setattr(linfeas, "feasible", naive_feasible)
    monkeypatch.setattr(linfeas, "max_slack_point", _frozen_max_slack_point)
    assert stable_sets(game).to_dict() == got


def test_row_generation_rechecks_every_coalition(monkeypatch):
    # a pricing that misses a violated coalition ends row generation on a
    # point outside the core; the final check over every coalition's own
    # member sum refuses it
    # supermodular: a nonempty core off the equal split
    weights = (1, 2, 3, 5)
    game = make_game(4, {m: sum(weights[i] for i in members(m)) ** 2 for m in range(1, 16)})
    rows, pricing = stability.CoreRows(game), stability.CoreRows.pricing
    taken = []

    def recording(self, candidates):
        price = pricing(self, candidates)

        def wrapped(terms, scale, t):
            row = price(terms, scale, t)
            if row is not None:
                taken.append(row[0])
            return row

        return wrapped

    monkeypatch.setattr(stability.CoreRows, "pricing", recording)
    assert rows.solve(range(1, 15)) is not None and taken

    def skipping(self, candidates):
        price = pricing(self, candidates)

        def wrapped(terms, scale, t):
            # the first coalition taken in is reported as no violation
            row = price(terms, scale, t)
            return None if row and row[0] == taken[0] else row

        return wrapped

    monkeypatch.setattr(stability.CoreRows, "pricing", skipping)
    with pytest.raises(NumericFailure, match="violating the system"):
        rows.solve(range(1, 15))


def test_regions_never_build_the_whole_core_system(monkeypatch):
    # regions price coalition rows lazily; the listed system is only for
    # the inclusion harness and the tests
    game = cut_game(random.Random(1), 5)
    want = stable_sets(game).to_dict()

    def refuse(game):
        raise AssertionError("core_system built")

    monkeypatch.setattr(stability, "core_system", refuse)
    assert stable_sets(game).to_dict() == want
    assert core_region(game, WEAK).status == NONEMPTY


# ---------------------------------------------------------------------------
# size-symmetric games: the equal split's closed form and the type walk


def _size_symmetric_games(n: int) -> list:
    """Labelled size-symmetric games of n players: pooled ventures (float,
    one rounded at r = 0), the cvar sweep's default family, and exact and
    float games by size with empty strong cores (some over nonempty split
    simplices, so the weak core goes to the exact search), nonempty ones,
    zero singletons, and ties s*v(n) = n*v(s) (additive games tie at every
    size, and lone-heavy ones at every size but 1)."""
    games = [
        (f"pooled-r{r}", build_meanstd_game(MeanStdScenario(n, 1.0, 0.5, r)))
        for r in (0.0, 0.8, 1.5)
    ]
    # empty from three players on, after rounding (see the r = 0 test below)
    games.append(("pooled-7/37", build_meanstd_game(MeanStdScenario(n, 7 / 37, 0.1, 0.0))))
    games += [
        (f"cvar-{a}", build_cvar_game(default_uniform_family(n), beta_density(a)))
        for a in (1.0, 3.0)
    ]
    # best two-block split minus 1/3: the split simplex is nonempty, the
    # strong core empty from three players on
    sizes = range(1, n + 1)
    cut = {1: Fraction(1), 2: Fraction(3)}
    for s in sizes[2:]:
        cut[s] = max(cut[a] + cut[s - a] for a in range(1, s)) - Fraction(1, 3)
    games += [
        ("cut", _size_game(n, cut)),
        ("square", _size_game(n, {s: s * s for s in sizes})),
        ("additive", _size_game(n, {s: s for s in sizes})),
        # a tie at n - 1 players, strict below it
        ("tie", _size_game(n, {s: s * s if s < n - 1 else (n - 1) * s * n for s in sizes})),
        ("lone-heavy", _size_game(n, {s: 2 * n if s == 1 else n * s for s in sizes})),
        ("zero-lone", _size_game(n, {s: 0 if s == 1 else s * s for s in sizes})),
        ("float-tie", _size_game(n, {s: float(s * s if s < n - 1 else (n - 1) * s * n) for s in sizes})),
        ("float-additive", _size_game(n, {s: 0.1 * s for s in sizes})),
    ]
    rng = random.Random(n)
    games += [
        ("random", _size_game(n, {s: Fraction(rng.randrange(1, 6 * s), 2) for s in sizes}))
        for _ in range(4)
    ]
    if n <= len(SIZE_VALUES):
        games.append(("size-values", _size_game(n, SIZE_VALUES)))
    return games


def _strong_region_problem(game) -> str | None:
    """How ``core_region(game, STRONG)`` differs from the strong-core
    system's own LP: the status and max-slack point ``CoreRows`` solves for,
    tagged ``lp``, the witness compared number by number as text.  None
    when they agree."""
    point = stability.CoreRows(game).solve(range(1, game.grand))
    if point is None:
        want = CoreRegion(EMPTY, None, "lp")
    else:
        want = CoreRegion(NONEMPTY, stability._finish_witness(game, point), "lp")
    got = core_region(game, STRONG)
    if got != want or repr(got.witness) != repr(want.witness):
        return f"{got} is not {want}"
    return None


def _asymmetric_games(n: int, mode: str) -> list:
    """Seeded games of n players in the mode that are not size-symmetric,
    though some of their blocks may be: random and cut games, or random
    games and pooled ventures with a few coalitions' synergy scaled."""
    rng = random.Random(50 + n)
    if mode == "exact":
        return [random_exact_game(rng, n), cut_game(rng, n)]
    phi = {rng.randrange(3, 1 << n): rng.uniform(1.05, 1.4) for _ in range(n)}
    return [
        random_float_game(rng, n),
        build_meanstd_game(MeanStdScenario(n, 1.0, 0.5, 0.8, phi)),
        build_meanstd_game(MeanStdScenario(n, 1.3, 0.6, 0.3, phi)),
    ]


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_size_symmetric_strong_regions_are_the_lps(n, mode):
    # the closed form decides every size-symmetric strong region, and it
    # is the LP's region: the same status and the same
    # max-slack point, byte for byte; the frozen solver agrees on the
    # status at n <= 5.  Up to six players, every block subgame of three
    # or more players of an asymmetric game, size-symmetric or not, is the
    # LP's region as well
    statuses = set()
    for label, game in _size_symmetric_games(n):
        if game.mode != mode:
            continue
        assert size_values(game) is not None, label
        region = core_region(game, STRONG)
        assert region.rule == ("box" if n == 3 else "equal-split"), label
        assert _strong_region_problem(game) is None, label
        statuses.add(region.status)
        if n <= 5:
            assert (region.status == NONEMPTY) == (naive_feasible(core_system(game)) is not None), label
        if label == "cut":
            weak = core_region(game, WEAK)
            assert (region.status, weak.method) == (EMPTY, "exact-search" if n > 3 else "boundary")
    assert statuses == {EMPTY, NONEMPTY}
    if n <= 6:
        for game in _asymmetric_games(n, mode):
            blocks = [b for b in range(1, game.grand + 1) if b.bit_count() > 2]
            subgames = {sub.values: sub for sub in (subgame(game, b) for b in blocks)}
            assert size_values(game) is None
            assert all(_strong_region_problem(sub) is None for sub in subgames.values())


def _closed_form(compare, first_size):
    """``stability._equal_split_region`` with its comparison and its
    smallest compared size as given."""

    def region(game, by_size):
        n, v = game.n, [Fraction(x) for x in by_size[1:]]
        if all(compare(s * v[-1], n * v[s - 1]) for s in range(first_size, n)):
            return NONEMPTY, (Fraction(1, n),) * n
        return EMPTY, None

    return region


def _vertex_region(game, by_size):
    """The closed form's verdict with a vertex of the core as its witness."""
    status, point = _closed_form(operator.ge, 1)(game, by_size)
    if status == EMPTY:
        return status, point
    return status, linfeas.minimize(core_system(game), (1,) + (0,) * (game.n - 1))[1]


@pytest.mark.parametrize(
    "closed_form, caught",
    [
        (_closed_form(operator.ge, 1), False),
        (_closed_form(operator.gt, 1), True),
        (_closed_form(operator.ge, 2), True),
        (_vertex_region, True),
    ],
    ids=["as-is", "strict", "without-singletons", "vertex"],
)
def test_size_symmetric_games_catch_a_wrong_closed_form(closed_form, caught, monkeypatch):
    # the families above tell the closed form apart from a strict
    # comparison (ties), from one that skips singletons (lone-heavy games)
    # and from one that returns another core point (a vertex); 3-player
    # strong regions are boxes (``_box_region``) and never reach it
    monkeypatch.setattr(stability, "_equal_split_region", closed_form)
    problems = [
        label
        for n in (4, 5)
        for label, game in _size_symmetric_games(n)
        if _strong_region_problem(game) is not None
    ]
    assert bool(problems) == caught, problems


def test_equal_split_region_matches_the_lp_on_pooled_games_without_aversion():
    # r = 0: every value is mu * s, rounded; the exact comparison of the
    # rounded values is what the LP decides, empty or not
    empty = 0
    for n in (3, 4):
        for k in range(1, 200):
            game = build_meanstd_game(MeanStdScenario(n, k / 37, 0.5, 0.0))
            assert _strong_region_problem(game) is None, (n, k)
            empty += core_region(game, STRONG).status == EMPTY
    assert empty == 121


def test_size_types_count_the_partitions_of_each_type():
    # n! / (prod sizes! * prod multiplicities!) partitions per multiset of
    # block sizes, one multiset per integer partition of n, Bell(n) in all;
    # the partitions of one multiset share their statuses
    for n in range(1, 9):
        game = build_meanstd_game(MeanStdScenario(n, 1, 0.5, 0.8))
        walked = list(walk_partitions(game))
        assert [p for p, *_ in walked] == list(enumerate_partitions(n))
        types = {}
        for partition, _, _, strong, weak, _ in walked:
            sizes = tuple(sorted(b.bit_count() for b in partition))
            types.setdefault(sizes, []).append((strong, weak))
        for sizes, statuses in types.items():
            want = math.factorial(n)
            for s in sizes:
                want //= math.factorial(s)
            for s in set(sizes):
                want //= math.factorial(sizes.count(s))
            assert len(statuses) == want and len(set(statuses)) == 1
        assert len(types) == [1, 2, 3, 5, 7, 11, 15, 22][n - 1]
        assert len(walked) == bell_number(n)


# ---------------------------------------------------------------------------
# the superadditive cover and the integer table


DATA = pathlib.Path(__file__).parent / "data"


def _additive_game(rng: random.Random, n: int):
    lone = [rng.randint(1, 4) for _ in range(n)]
    return make_game(n, {m: sum(lone[i] for i in members(m)) for m in range(1, 1 << n)})


def _cover_games() -> list:
    """Seeded games of every family at n <= 7, and one whose best partition
    of the players has a piece per player, although no split into two
    pieces is worth more than the whole: singletons 1, pairs 3/2, triples
    5/2, and 7/2 for all four."""
    rng = random.Random(41)
    games = [random_exact_game(rng, n) for n in (3, 4, 5, 6) for _ in range(2)]
    games += [random_float_game(rng, n) for n in (3, 4, 5, 6) for _ in range(2)]
    games += [cut_game(random.Random(seed), n) for seed, n in ((0, 4), (1, 5), (2, 6), (3, 7))]
    games += [build_meanstd_game(MeanStdScenario(n, 1.0, 0.5, r)) for n in (4, 6) for r in (0, 0.8)]
    games += [_additive_game(rng, n) for n in (3, 5, 6)]
    games.append(_size_game(4, {1: 1, 2: Fraction(3, 2), 3: Fraction(5, 2), 4: Fraction(7, 2)}))
    return games


def test_superadditive_cover_matches_partition_enumeration_and_the_lp():
    # every block's cover w(B) equals the best partition of B listed
    # literally, and a strong region the cover screens (w(B) > v(B)) is
    # empty, as CoreRows solved directly finds; every other strong region
    # agrees with the direct solve too.  Some block's best partition has
    # three or more pieces and beats every split into two
    screened = beyond_two = 0
    for game in _cover_games():
        for block in range(1, 1 << game.n):
            if block.bit_count() < 2:
                continue
            sub, (w, pieces) = subgame(game, block), naive_cover(game, block)
            v = Fraction(game.values[block])
            assert Fraction(sub.cover(), sub.terms[-1]) == w / v
            two = max(
                Fraction(game.values[a]) + Fraction(game.values[block ^ a])
                for a in range(1, block)
                if a & block == a
            )
            beyond_two += len(pieces) >= 3 and w > max(v, two)
            if block.bit_count() < 3:
                continue
            region = core_region(sub, STRONG)
            direct = stability.CoreRows(sub).solve(range(1, sub.grand))
            assert (region.status == EMPTY) == (direct is None)
            if w > v:
                assert region == stability.CoreRegion(EMPTY, None, "lp")
                screened += 1
    assert screened >= 100 and beyond_two


def test_screened_strong_regions_solve_no_lp():
    # on the n=6 golden game, the report's strong region of every block
    # whose partitions beat its value (w(B) > v(B), by the literal oracle)
    # is the cover's, and of every block of three players the box's (b,d,f
    # among them, the one size-symmetric block); every block of four or
    # more players is screened here, so no strong region is solved
    game = load_game(DATA / "cut_game_n6_seed0.json")
    rules = {
        block: region.rule
        for record in stable_sets(game).records
        for block, region in zip(record.partition, record.strong.block_regions)
        if block.bit_count() > 2
    }
    covered = {b for b in rules if naive_cover(game, b)[0] > Fraction(game.values[b])}
    symmetric = {b for b in rules if size_values(subgame(game, b)) is not None}
    assert len(rules) == 42 and len(covered) == 22 and symmetric == {0b101010}
    assert rules == {b: "box" if b.bit_count() == 3 else "cover" for b in rules}
    assert covered == {b for b in rules if b.bit_count() > 3}


def test_stable_sets_fusion_verdicts_match_a_fraction_oracle():
    # exact games judge fusion on their integer terms: the verdicts equal a
    # Fraction oracle's over every set of blocks, on additive games (every
    # merger ties, so every partition resists) and on games with ties
    # between a union and its blocks
    rng = random.Random(47)
    games = [random_exact_game(rng, n) for n in (3, 4, 5, 6)]
    # a coalition of three or more holding player a is worth one more than
    # its size, any other coalition its size
    tied = {m: m.bit_count() + (m.bit_count() > 2) * (m & 1) for m in range(1, 1 << 6)}
    games += [cut_game(random.Random(5), 7), make_game(6, tied), _additive_game(rng, 8)]
    resisting = []
    for game in games:
        verdicts = [r.fusion_resistant for r in stable_sets(game).records]
        assert verdicts == [naive_fusion_resistant(game, p) for p in enumerate_partitions(game.n)]
        resisting.append(Fraction(sum(verdicts), len(verdicts)))
    assert 0 < resisting[-2] < 1 and resisting[-1] == 1


def test_stable_sets_fusion_on_float_games_is_the_float_left_fold():
    # float games keep the left fold of their float values, compared by
    # tolerant geq, bit for bit: here 1 + b rounds up to v(a,b) in the fold
    # although the exact sum falls short of it
    b = 2.0**-53 + 2.0**-60
    game = make_game(2, {1: 1.0, 2: b, 3: 1.0 + 2.0**-52}, mode="float", tol=0.0)
    assert Fraction(1.0) + Fraction(b) < Fraction(game.values[3])
    assert [r.fusion_resistant for r in stable_sets(game).records] == [True, True]
    rng = random.Random(53)
    for game in [random_float_game(rng, n) for n in (3, 4, 5)]:
        for r in stable_sets(game).records:
            assert r.fusion_resistant == naive_fusion_resistant(game, r.partition)


def test_every_fusion_caller_gives_the_naive_verdict():
    # the walk, fusion_resistant, is_stable and claim 5 read one judge: an
    # exact game's values summed exactly, a float game's stored values in a
    # left fold in block order, at the game's tolerance.  Games: Fraction
    # and int values, floats at the default tolerance and at 0, and the
    # pooled n=6 game, whose verdicts at tolerance 0 depend on the order in
    # which its block values are summed
    rng = random.Random(71)
    games = []
    for n in (2, 3, 4, 5):
        ints = {m: rng.randint(0 if m.bit_count() == 1 else 1, 6 * m.bit_count()) for m in range(1, 1 << n)}
        floats = random_float_game(rng, n)
        games += [random_exact_game(rng, n), make_game(n, ints), floats, replace(floats, tol=0.0)]
    pooled = build_meanstd_game(MeanStdScenario(6, 0.1, 0.5, 0.0))
    games += [pooled, replace(pooled, tol=0.0)]
    seen = set()
    for game in games:
        partitions = list(enumerate_partitions(game.n))
        want = [naive_fusion_resistant(game, p) for p in partitions]
        assert [fused for *_, fused in walk_partitions(game)] == want
        assert [fusion_resistant(game, p) for p in partitions] == want
        for p, fused in zip(partitions, want):
            # each block's split-set center, a feasible solution when every
            # block's split set is nonempty
            centers = [split_point(game, b) for b in p]
            if None in centers:
                assert not is_stable(game, p, [0] * game.n)
                continue
            shares = [0] * game.n
            for b, center in zip(p, centers):
                for i, x in zip(members(b), center):
                    shares[i] = x
            for kind in (STRONG, WEAK):
                resists = fission_resistant(game, p, shares, kind)
                assert is_stable(game, p, shares, kind) == (resists and fused)
                seen.add((resists, fused))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
    # the pooled game at tolerance 0 tells the fold order apart: summed in
    # reverse block order, its blocks give other verdicts
    pooled = games[-1]
    assert [fused for *_, fused in walk_partitions(pooled)] != [
        naive_fusion_resistant(pooled, p[::-1]) for p in enumerate_partitions(6)]
    # claim 5 on pairs of games of one player count, each at its own tolerance
    verdicts = set()
    for g1, g2 in itertools.product(games, repeat=2):
        if g1.n != g2.n or g1.n > 4:
            continue
        partitions = enumerate_partitions(g1.n)
        failures = [str(p) for p in partitions if naive_fusion_resistant(g2, p) and not naive_fusion_resistant(g1, p)]
        claim = verify_theorem1(g1, g2, samples=0).claims[4]
        assert (claim.passed, claim.detail) == (not failures, "; ".join(failures[:3]))
        verdicts.add(claim.passed)
    assert verdicts == {True, False}


def test_walk_keeps_the_fold_order_on_a_size_symmetric_float_game():
    # at tolerance 0, (v1 + v1) + v2 rounds below v(N) while (v1 + v2) + v1
    # reaches it: partitions with one multiset of block sizes get different
    # fusion verdicts by the order of their blocks, so the walk's memo on a
    # size-symmetric game is keyed by the sequence of sizes
    x, y = 0.91, 0.94
    by_size = {1: x, 2: y, 3: x + y, 4: (x + y) + x}
    game = make_game(4, {m: by_size[m.bit_count()] for m in range(1, 16)}, mode="float", tol=0.0)
    assert size_values(game) is not None and (x + x) + y < by_size[4]
    walked = {partition: fused for partition, *_, fused in walk_partitions(game)}
    assert walked == {p: naive_fusion_resistant(game, p) for p in enumerate_partitions(4)}
    assert [r.fusion_resistant for r in stable_sets(game).records] == list(walked.values())
    by_multiset = {}
    for partition, fused in walked.items():
        by_multiset.setdefault(tuple(sorted(b.bit_count() for b in partition)), set()).add(fused)
    assert by_multiset[1, 1, 2] == {True, False}


# ---------------------------------------------------------------------------
# 3-player strong regions: a box cut by the simplex, in closed form


def _three_player_games() -> list:
    """Labelled 3-player games: int, Fraction and float values (floats of
    random draws and of thirds, with denominators near 2^52), cut, size-
    symmetric and additive games, zero singletons, and games whose largest
    slack t* is 0 by each bound of ``stability._box_region``: a member's
    pair bound meeting its own (t0-member), the singletons summing to v(N)
    (t0-lone), the pairs' upper bounds summing to it (t0-pairs)."""
    rng = random.Random(71)
    games = []
    for _ in range(25):
        ints = {m: rng.randrange(m.bit_count() > 1, 3 * m.bit_count() ** 2) for m in range(1, 8)}
        thirds = cut_game(rng, 3)
        games += [
            ("int", make_game(3, ints)),
            ("fraction", random_exact_game(rng, 3)),
            ("float", random_float_game(rng, 3)),
            ("float-thirds", make_game(3, {m: float(thirds.values[m]) for m in range(1, 8)}, mode="float")),
            ("cut", cut_game(rng, 3)),
            ("zero-lone", make_game(3, {m: 0 if m in (1, 2, 4) else ints[m] + 1 for m in range(1, 8)})),
        ]
    games += [(f"size-{label}", game) for label, game in _size_symmetric_games(3)]
    games += [("additive", _additive_game(rng, 3)) for _ in range(6)]
    lone = {1: 1, 2: 1, 4: 1}
    games += [
        ("t0-member", make_game(3, {**lone, 3: 2, 5: 2, 6: 4, 7: 5})),
        ("t0-lone", make_game(3, {**lone, 3: Fraction(3, 2), 5: Fraction(3, 2), 6: Fraction(3, 2), 7: 3})),
        ("t0-pairs", make_game(3, {1: 0.5, 2: 0.5, 4: 0.5, 3: 2.0, 5: 2.0, 6: 2.0, 7: 3.0}, mode="float")),
    ]
    return games


# ---------------------------------------------------------------------------
# every rule of core_region against the cold oracles


# the method a report prints for each rule of ``stability._decide``
RULE_METHODS = {
    "singleton": "singleton", "boundary": "boundary", "empty-split": "boundary",
    "box": "lp", "equal-split": "lp", "cover": "lp", "priced-lp": "lp",
    "strong-subset": "strong-subset", "root-packing": "exact-search", "search": "exact-search",
}
# the linfeas entries each rule may enter; the others enter none
RULE_ENTRIES = {
    "priced-lp": {"max_slack_point"},
    "root-packing": {"packing_point"},
    "search": {"feasible", "max_slack_point"},
}


def _rule_games() -> list:
    """Labelled seeded games of one to six players: singletons, random
    pairs, the 3-player families above, the float size-symmetric games of
    four players (pooled ventures and cvar games among them), two games whose strong cores no partition refutes although a
    balanced collection does (four (n-1)-player coalitions worth more than
    three quarters of v(N)), random Fraction, random float and cut games of
    four to six, and every block of four or five players of the pinned
    thirds game, whose weak searches end below their root with either
    verdict."""
    rng = random.Random(97)
    games = [("singleton", make_game(1, {1: v})) for v in (0, 2, Fraction(1, 3), 0.5, 1.5)]
    games += [("pair", make(rng, 2)) for make in (random_exact_game, random_float_game) for _ in range(8)]
    games += _three_player_games()
    games += [(f"size-{label}", g) for label, g in _size_symmetric_games(4) if g.mode == "float"]
    for top in (9, Fraction(91, 10)):
        by_size = {1: 1, 2: 2, 3: top}
        games.append(("balanced", make_game(4, {m: by_size.get(m.bit_count(), 12) + (m == 7) for m in range(1, 16)})))
    games += [
        (make.__name__, make(random.Random(seed), n))
        for n in (4, 5, 6)
        for seed in range(3)
        for make in (random_exact_game, random_float_game, cut_game)
    ]
    thirds = load_game(DATA / "thirds_game_n6_seed0.json")
    games += [("thirds", subgame(thirds, b)) for b in range(1, 64) if b.bit_count() in (4, 5)]
    return games


def _cold_point(system):
    """``(point, slack)`` of the frozen solver's staged max-slack solve, or
    None when the system is empty."""
    try:
        return naive_max_slack_point(system)
    except InfeasibleSystem:
        return None


def _cold_search(game, system):
    """The weak search replayed with the frozen solver from phase 1's point
    of the split simplex, coverage read off Fraction member sums: whether
    it ends at its root, and the restriction of the strong-core system to
    the coalitions its final point covers; None when it refutes every
    commitment set."""
    rows = {h.support: h for h in system.halfspaces}
    restrict = lambda coalitions: replace(system, halfspaces=tuple(rows[c] for c in sorted(coalitions)))
    nogoods, stack = [], [frozenset()]
    while stack:
        committed = stack.pop()
        if any(bad <= committed for bad in nogoods):
            continue
        point = naive_feasible(restrict(committed))
        if point is None:
            nogoods.append(committed)
            continue
        covered = {c for c, h in rows.items() if sum(point[i] for i in members(c)) >= h.rhs}
        pieces = stability._blocking_split(game.grand, lambda c: c not in covered)
        if pieces is None:
            return not committed, restrict(covered)
        stack += [committed | {piece} for piece in reversed(pieces)]
    return None


def _cold_region(game, kind, strong):
    """``(rule, system)`` for the game's core of the kind, read off the
    definitions with literal oracles, and the system whose cold max-slack
    point is the region: the strong-core system, the bare split simplex,
    or the restriction the weak search ends on.  ``strong`` is the game's
    strong status; a lent or refuted region has the system None."""
    n, full = game.n, game.grand
    if n == 1:
        return "singleton", None
    system = core_system(game)
    bare = replace(system, halfspaces=())
    if n <= (2 if kind == STRONG else 3):
        return "boundary", bare
    if kind == STRONG:
        if n == 3:
            return "box", system
        if len({(c.bit_count(), game.values[c]) for c in range(1, full + 1)}) == n:
            return "equal-split", system
        if naive_cover(game, full)[0] > Fraction(game.values[full]):
            return "cover", system
        return "priced-lp", system
    if strong == NONEMPTY:
        return "strong-subset", None
    if naive_feasible(bare) is None:
        return "empty-split", None
    end = _cold_search(game, system)
    if end is None:
        return "search", None
    return "root-packing" if end[0] else "search", end[1]


def test_every_rule_gives_the_cold_oracles_region(monkeypatch):
    # each region names the rule the definitions pick for it, prints that
    # rule's method, and equals by repr the region of the cold oracles:
    # strong, the frozen solver's max-slack point of the strong-core system;
    # weak, the partition walk's verdict (naive_weak_region_exact) and the
    # frozen solver's point of the restriction the search ends on (the bare
    # simplex up to three players), or the strong witness it lends.  The
    # frozen solver runs up to four players (a five-player region costs it
    # 0.1-0.9 s); at five and six, the rules, the entries and the weak
    # verdicts are checked.  Every rule is hit at least 5 times and gives
    # every verdict it can; a rule enters only its own linfeas entries,
    # every LP entering ``_lexmin`` through one of them, every max-slack
    # solve is priced, and the search solves no system that commits
    # nothing.  On the 3-player families, every random one has both
    # box verdicts (cut games and their float copies are supermodular, so
    # nonempty), and a largest slack of 0 is reached, nonempty, by each of
    # the box's bounds
    calls, stray, inside = [], [], []
    lexmin = linfeas._lexmin

    def entered(name, solve):
        def entry(*args):
            calls.append((name, args))
            inside.append(name)
            try:
                return solve(*args)
            finally:
                inside.pop()

        return entry

    def guarded_lexmin(*args):
        if not inside:
            stray.append(args[0])
        return lexmin(*args)

    monkeypatch.setattr(linfeas, "_lexmin", guarded_lexmin)
    for name in ("feasible", "max_slack_point", "packing_point", "minimize"):
        monkeypatch.setattr(linfeas, name, entered(name, getattr(linfeas, name)))
    hits, statuses, tight = {}, set(), set()
    for label, game in _rule_games():
        strong = None
        for kind in (STRONG, WEAK):
            calls.clear()
            region = core_region(game, kind, strong=strong)
            rule, system = _cold_region(game, kind, strong and strong.status)
            assert region.rule == rule, (label, kind, region.rule)
            assert {name for name, _ in calls} <= RULE_ENTRIES.get(rule, set()), (label, rule)
            assert not stray
            if rule in ("priced-lp", "root-packing"):
                assert len(calls) == 1, (label, rule)
            assert all(args[1] for name, args in calls if name == "max_slack_point"), label
            if rule == "search":
                assert all(args[0].halfspaces for name, args in calls if name == "feasible"), label
            if kind == WEAK and game.n > 1:
                assert region.status == naive_weak_region_exact(game).status, label
            if rule == "singleton":
                assert region == CoreRegion(NONEMPTY, (1,), "singleton"), label
            elif rule == "strong-subset":
                assert (region.status, region.witness) == (NONEMPTY, strong.witness), label
            elif system is None:
                assert region.status == EMPTY and region.witness is None, label
            elif game.n <= 4:
                cold = _cold_point(system)
                status = EMPTY if cold is None else NONEMPTY
                witness = cold and stability._finish_witness(game, cold[0])
                assert repr(region) == repr(CoreRegion(status, witness, RULE_METHODS[rule])), (label, rule)
                if rule == "box":
                    statuses.add((label, status))
                    if cold and cold[1] == 0:
                        tight.add(label)
            assert region.method == RULE_METHODS[rule]
            hits.setdefault(rule, []).append(region.status)
            strong = region
    assert all(len(hits[rule]) >= 5 for rule in RULE_METHODS), {r: len(h) for r, h in hits.items()}
    both = {"boundary", "box", "equal-split", "priced-lp", "search"}
    assert {rule for rule in RULE_METHODS if set(hits[rule]) == {EMPTY, NONEMPTY}} == both
    families = ("int", "fraction", "float", "zero-lone")
    assert {(f, s) for f in families for s in (EMPTY, NONEMPTY)} <= statuses
    assert {("cut", NONEMPTY), ("float-thirds", NONEMPTY)} <= statuses
    assert {"t0-member", "t0-lone", "t0-pairs", "additive", "size-additive"} <= tight


# ---------------------------------------------------------------------------
# metamorphic properties of the partition walk


def _metamorphic_games() -> list:
    """Labelled seeded games of three to six players: random Fraction and
    float games, cut games, thirds games (values |C| k / 3, k = 10..60, as
    the pinned one), square games (2|C|^2 plus 0, 1/3 or 2/3), pooled
    ventures with a few coalitions' synergy scaled, and dyadic Fraction
    games (values k / 4); one round each at three to five players, three
    at six."""
    rng, games = random.Random(151), []
    for n in (3, 4, 5, 6, 6, 6):
        masks = range(1, 1 << n)
        phi = {rng.randrange(3, 1 << n): rng.uniform(1.05, 1.4) for _ in range(n)}
        games += [
            ("exact", random_exact_game(rng, n)),
            ("float", random_float_game(rng, n)),
            ("cut", cut_game(rng, n)),
            ("thirds", make_game(n, {m: Fraction(m.bit_count() * rng.randint(10, 60), 3) for m in masks})),
            ("square", make_game(n, {m: 2 * m.bit_count() ** 2 + Fraction(rng.randrange(3), 3) for m in masks})),
            ("pooled", build_meanstd_game(MeanStdScenario(n, 1.0, 0.5, rng.choice((0.0, 0.8)), phi))),
            ("dyadic", make_game(n, {m: Fraction(rng.randrange(1, 8 * m.bit_count()), 4) for m in masks})),
        ]
    return games


def _walked(game) -> tuple[dict, dict]:
    """The walk's (strong, weak, fusion) verdicts by the set of a
    partition's blocks, and its regions by (block, kind)."""
    verdicts, regions = {}, {}
    for partition, strong, weak, s, w, fused in walk_partitions(game):
        verdicts[frozenset(partition)] = s, w, fused
        for kind, found in ((STRONG, strong), (WEAK, weak)):
            regions.update(((b, kind), r) for b, r in zip(partition, found))
    return verdicts, regions


def test_walk_verdicts_survive_scaling_relabelling_and_float_copies():
    # metamorphic oracles, which need no second implementation: scaling
    # every value (exact by 7/3, float by 2) keeps every region (status,
    # witness, method and rule) and every fusion verdict; relabelling the
    # players permutes every block's statuses and every partition's
    # verdicts; the float copy of a dyadic Fraction game (exact in float)
    # keeps every verdict and every region, its witness converted
    rng = random.Random(157)
    for label, game in _metamorphic_games():
        n, masks = game.n, range(1, game.grand + 1)
        verdicts, regions = _walked(game)
        factor = Fraction(7, 3) if game.mode == "exact" else 2.0
        scaled = _walked(make_game(n, {m: game.values[m] * factor for m in masks}, mode=game.mode, tol=game.tol))
        assert scaled[0] == verdicts, label
        assert {k: (repr(r), r.rule) for k, r in scaled[1].items()} == {
            k: (repr(r), r.rule) for k, r in regions.items()
        }, label
        order = rng.sample(range(n), n)
        move = lambda m: sum(1 << order[i] for i in members(m))
        moved = _walked(make_game(n, {move(m): game.values[m] for m in masks}, mode=game.mode, tol=game.tol))
        assert {p: moved[0][frozenset(map(move, p))] for p in verdicts} == verdicts, label
        assert {k: moved[1][move(k[0]), k[1]].status for k in regions} == {
            k: r.status for k, r in regions.items()
        }, label
        if label == "dyadic":
            floated = _walked(make_game(n, {m: float(game.values[m]) for m in masks}, mode="float"))
            assert floated[0] == verdicts
            assert {k: (r.status, r.witness, r.rule) for k, r in floated[1].items()} == {
                k: (r.status, r.witness and tuple(map(float, r.witness)), r.rule) for k, r in regions.items()
            }


def test_every_game_is_ordered_below_itself_and_passes_both_inclusion_reports():
    # self-pairs: g <= g, and Theorem 1's and the corollary's reports on
    # (g, g) pass, each game at its own tolerance
    for label, game in _metamorphic_games():
        assert leq_cp(game, game).holds, label
        assert verify_theorem1(game, game, samples=50).passed, label
        assert verify_corollary(game, game, samples=50).passed, label


def test_float_games_at_tolerance_zero_are_ordered_below_themselves_and_pass_both_reports():
    # self-pairs with no tolerance to absorb rounding: seeded float games of
    # 2-5 players, v(C) = uniform(0.5, 3) |C|^1.3.  A float value times a
    # Fraction share rounds, so a point of g's own split set can break a
    # member bound by rounding; both games of a pair judge a row's member
    # bounds by one rule, so g never refuses a row it accepts itself, and
    # the weak claim counts the rows the naive loop puts in g's weak core
    rng = random.Random(2026)
    for k in range(60):
        n = rng.randint(2, 5)
        game = make_game(n, {m: rng.uniform(0.5, 3) * m.bit_count() ** 1.3 for m in range(1, 1 << n)}, tol=0.0)
        assert game.mode == "float" and game.tol == 0, k
        assert leq_cp(game, game).holds, k
        assert verify_theorem1(game, game, samples=50, seed=k).passed, k
        weak = verify_corollary(game, game, samples=50, seed=k).claims[1]
        assert weak == naive_corollary_weak_sampled(game, game, samples=50, seed=k) and weak.passed, k
