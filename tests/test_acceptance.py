"""Acceptance criteria, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (visible with -s, and in the
-v listing through the test name) and enforces the criterion with asserts.
"""

import itertools
import random
import time
from fractions import Fraction

from fracgame import (
    EMPTY,
    NONEMPTY,
    STRONG,
    WEAK,
    beta_density,
    boundary_contains,
    build_cvar_game,
    build_meanstd_game,
    core_contains,
    core_region,
    default_uniform_family,
    enumerate_partitions,
    fusion_resistant,
    generate_ordered_pair,
    leq_cp,
    leq_lr,
    make_game,
    sample_boundary,
    stable_sets,
    verify_corollary,
    verify_prop2,
    verify_theorem1,
)
from fracgame.linfeas import vertices
from fracgame.risk import MeanStdScenario, mixture_reward

from fracgame.stability import core_system
from fracgame.cli import run
from conftest import (
    fusion_resistant_by_total,
    naive_weak_core_contains,
    random_exact_game,
    random_float_game,
)


def report(criterion: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_strong_core_contained_in_weak():
    rng = random.Random(1001)
    start = time.monotonic()
    violations = 0
    checked = 0
    for trial in range(500):
        n = rng.randint(2, 5)
        game = random_exact_game(rng, n) if trial % 2 else random_float_game(rng, n)
        for _ in range(100):
            shares = sample_boundary(game, game.grand, rng)
            if shares is None:
                break
            checked += 1
            if core_contains(game, shares, STRONG) and not core_contains(game, shares, WEAK):
                violations += 1
    elapsed = time.monotonic() - start
    ok = violations == 0 and elapsed < 120.0
    report(
        1,
        ok,
        f"strong-in-weak on {checked} allocations across 500 games, "
        f"{violations} violations, {elapsed:.1f}s",
    )


def _ordered_pairs(count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 5)
        pair_seed = rng.randrange(1 << 31)
        yield n, pair_seed, generate_ordered_pair(pair_seed, n)


def test_criterion_02_theorem_inclusions():
    failures = []
    for n, pair_seed, (g1, g2) in _ordered_pairs(200, 2002):
        rep = verify_theorem1(g1, g2, samples=200, seed=pair_seed)
        if not (rep.order_holds and rep.passed):
            failures.append((n, pair_seed, [c.name for c in rep.claims if not c.passed]))
    report(2, not failures, f"five inclusion claims on 200 ordered pairs; failures: {failures}")


def test_criterion_03_corollary_inclusions():
    failures = []
    for n, pair_seed, (g1, g2) in _ordered_pairs(200, 2002):
        rep = verify_corollary(g1, g2, samples=200, seed=pair_seed)
        if not (rep.order_holds and rep.passed):
            failures.append((n, pair_seed, [c.name for c in rep.claims if not c.passed]))
    report(3, not failures, f"core and stability transfer on 200 ordered pairs; failures: {failures}")


def test_criterion_04_weak_stable_set_never_empty():
    rng = random.Random(44)
    empty = []
    for trial in range(100):
        n = rng.randint(2, 4)
        game = random_exact_game(rng, n)
        rep = stable_sets(game)
        if not rep.stable(WEAK):
            empty.append(trial)
    report(4, not empty, f"weak stable set nonempty on 100 exact games (n<=4); empty: {empty}")


def test_criterion_05_fusion_formulations_coincide():
    rng = random.Random(55)
    mismatches = 0
    checked = 0
    for trial in range(200):
        n = rng.randint(2, 5)
        game = random_exact_game(rng, n) if trial % 2 else random_float_game(rng, n)
        for partition in enumerate_partitions(n):
            checked += 1
            if fusion_resistant(game, partition) != fusion_resistant_by_total(game, partition):
                mismatches += 1
    report(5, mismatches == 0, f"merger check vs total-value check on {checked} partitions, {mismatches} mismatches")


def test_criterion_06_weak_core_oracle_and_small_n_boundary():
    rng = random.Random(66)
    mismatches = 0
    checked = 0
    while checked < 1000:
        n = rng.randint(2, 5)
        game = random_exact_game(rng, n) if checked % 2 else random_float_game(rng, n)
        shares = sample_boundary(game, game.grand, rng)
        if shares is None:
            continue
        checked += 1
        if core_contains(game, shares, WEAK) != naive_weak_core_contains(game, shares):
            mismatches += 1
    grid_checked = 0
    grid_mismatches = 0
    for n in (1, 2, 3):
        for _ in range(6):
            game = random_exact_game(rng, n)
            denom = 20
            for cuts in itertools.combinations(range(denom + n - 1), n - 1):
                parts = []
                prev = -1
                for c in cuts:
                    parts.append(c - prev - 1)
                    prev = c
                parts.append(denom + n - 2 - prev)
                shares = tuple(Fraction(p, denom) for p in parts)
                grid_checked += 1
                inside = boundary_contains(game, game.grand, shares)
                if core_contains(game, shares, WEAK) != inside:
                    grid_mismatches += 1
    ok = mismatches == 0 and grid_mismatches == 0
    report(
        6,
        ok,
        f"DP vs naive on {checked} pairs ({mismatches} off); weak core == split set "
        f"on {grid_checked} grid points for n<=3 ({grid_mismatches} off)",
    )


def test_criterion_07_hand_fixtures():
    additive = make_game(3, {1: 1, 2: 1, 4: 1, 3: 2, 5: 2, 6: 2, 7: 3})
    verts = vertices(core_system(additive))
    third = (Fraction(1, 3),) * 3
    ok = verts == [third]
    g4 = make_game(4, {
        1: 0, 2: 0, 4: 0, 8: 0,
        3: 10, 5: 2, 9: 2, 6: 2, 10: 2, 12: 10,
        7: 3, 11: 3, 13: 3, 14: 3,
        15: 12,
    })
    strong = core_region(g4, STRONG)
    weak = core_region(g4, WEAK)
    lopsided = (Fraction(5, 12), Fraction(5, 12), Fraction(1, 12), Fraction(1, 12))
    quarter = (Fraction(1, 4),) * 4
    ok = (
        ok
        and strong.status == EMPTY
        and weak.status == NONEMPTY
        and core_contains(g4, lopsided, WEAK)
        and not core_contains(g4, quarter, WEAK)
    )
    report(7, ok, "additive core is exactly the equal split; four-player gap game behaves")


def test_criterion_08_rising_aversion_consolidates():
    grid = [x / 4 for x in range(8)]
    games = [build_meanstd_game(MeanStdScenario(4, 1.0, 0.5, r)) for r in grid]
    order_ok = all(
        leq_cp(games[i], games[j]).holds
        for i in range(len(grid))
        for j in range(i + 1, len(grid))
    )
    fusion_counts = []
    weak_counts = []
    for g in games:
        rep = stable_sets(g)
        fusion_counts.append(len(rep.fusion_resistant_partitions()))
        weak_counts.append(len(rep.partitions_with(WEAK)))
    monotone_ok = all(a >= b for a, b in zip(fusion_counts, fusion_counts[1:])) and all(
        a <= b for a, b in zip(weak_counts, weak_counts[1:])
    )
    g_r1 = games[grid.index(1.0)]
    ratio = g_r1.values[3] / g_r1.values[1]
    ratio_ok = abs(ratio - 2.585786) < 1e-6
    ok = order_ok and monotone_ok and ratio_ok
    report(
        8,
        ok,
        f"28 grid pairs ordered={order_ok}, fusion counts {fusion_counts} nonincreasing "
        f"and weak counts {weak_counts} nondecreasing={monotone_ok}, "
        f"pair/single at r=1 is {ratio:.6f}",
    )


def test_criterion_09_tail_mixture_chain():
    family = default_uniform_family(4)
    densities = {a: beta_density(float(a)) for a in (1, 2, 3)}
    games = {a: build_cvar_game(family, d) for a, d in densities.items()}
    lr_ok = leq_lr(densities[1], densities[2]).holds and leq_lr(densities[2], densities[3]).holds
    cp_ok = leq_cp(games[1], games[2]).holds and leq_cp(games[2], games[3]).holds
    v1 = mixture_reward(family[1], densities[1])
    v2 = mixture_reward(family[1], densities[2])
    closed_ok = abs(v1 - 1.25) <= 1e-8 and abs(v2 - 7 / 6) <= 1e-8
    one_unit_ok = True
    for a1, a2 in ((1, 2), (2, 3)):
        rep = verify_prop2(family, densities[a1], densities[a2], grid=21)
        one_unit_ok = one_unit_ok and rep.passed and rep.one_unit_checks > 0
    ok = lr_ok and cp_ok and closed_ok and one_unit_ok
    report(
        9,
        ok,
        f"lr chain={lr_ok}, cp chain={cp_ok}, v(1)={v1:.9f}/{v2:.9f} match closed forms={closed_ok}, "
        f"21-grid tail-average ratios monotone={one_unit_ok}",
    )


def test_criterion_10_verify_suite_deterministic(tmp_path, capsys):
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    argv = ["verify", "all", "--pairs", "6", "--seed", "314"]
    code1 = run(argv + ["--out", str(out1)])
    code2 = run(argv + ["--out", str(out2)])
    capsys.readouterr()
    names = sorted(p.name for p in out1.iterdir())
    same = names == sorted(p.name for p in out2.iterdir()) and all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes() for name in names
    )
    ok = code1 == 0 and code2 == 0 and same and len(names) == 5
    report(10, ok, f"two seeded verify runs wrote byte-identical {names}")
