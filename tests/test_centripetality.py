import dataclasses
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from fracgame import (
    DimensionMismatch,
    STRONG,
    WEAK,
    core_contains,
    core_region,
    generate_ordered_pair,
    leq_cp,
    make_game,
    submasks,
    verify_corollary,
    verify_theorem1,
)
from fracgame import centripetality, stability
from fracgame.games import boundary_sampler
from fracgame.stability import core_system
from fracgame.linfeas import vertices
from conftest import (
    cut_game,
    naive_corollary_weak_claim,
    naive_theorem_sampled_claims,
    random_exact_game,
)


def ratio_order_oracle(g1, g2):
    """Direct reading of the order: for every nested pair the value ratio
    grows, with x/0 treated as +inf and 0/0 as equal."""
    for outer in range(1, 1 << g1.n):
        for inner in submasks(outer, proper=True):
            a = Fraction(g1.values[outer])
            b = Fraction(g1.values[inner])
            c = Fraction(g2.values[outer])
            d = Fraction(g2.values[inner])
            if b > 0 and d > 0:
                if a / b > c / d:
                    return False
            elif b == 0 and d > 0:
                # left ratio infinite (or 0/0 when a == 0)
                if a > 0:
                    return False
            elif b == 0 and d == 0:
                continue
            # b > 0, d == 0: right ratio infinite, always fine
    return True


def test_matches_ratio_oracle_on_random_games():
    rng = random.Random(9)
    for _ in range(400):
        n = rng.randint(2, 4)
        g1 = random_exact_game(rng, n)
        g2 = random_exact_game(rng, n)
        assert leq_cp(g1, g2).holds == ratio_order_oracle(g1, g2)


def test_matches_ratio_oracle_on_zero_patterns():
    # exhaust two-player games whose singletons range over {0, 1, 2}
    grid = [0, 1, 2]
    for s1a, s1b, s2a, s2b in itertools.product(grid, repeat=4):
        g1 = make_game(2, {1: s1a, 2: s1b, 3: 3})
        g2 = make_game(2, {1: s2a, 2: s2b, 3: 5})
        assert leq_cp(g1, g2).holds == ratio_order_oracle(g1, g2)


def test_reflexive_and_scale_invariant():
    rng = random.Random(21)
    for _ in range(50):
        g = random_exact_game(rng, rng.randint(2, 4))
        assert leq_cp(g, g).holds
        scaled = make_game(
            g.n, {c: 7 * g.values[c] for c in range(1, 1 << g.n)}
        )
        assert leq_cp(g, scaled).holds and leq_cp(scaled, g).holds


def test_transitive_along_generated_chains():
    rng = random.Random(33)
    for _ in range(60):
        n = rng.randint(2, 4)
        g1, g2 = generate_ordered_pair(rng.randrange(1 << 30), n)
        mult = rng.randint(2, 4)
        g3 = make_game(
            n,
            {c: g2.values[c] * mult ** c.bit_count() for c in range(1, 1 << n)},
        )
        assert leq_cp(g1, g2).holds
        assert leq_cp(g2, g3).holds
        assert leq_cp(g1, g3).holds


def test_generated_pairs_always_ordered():
    rng = random.Random(55)
    for _ in range(500):
        n = rng.randint(2, 5)
        g1, g2 = generate_ordered_pair(rng.randrange(1 << 31), n)
        assert g1.n == n and g2.n == n
        assert leq_cp(g1, g2).holds


def test_violations_name_the_nested_pair():
    g1 = make_game(2, {1: 1, 2: 1, 3: 5})
    g2 = make_game(2, {1: 4, 2: 1, 3: 5})
    verdict = leq_cp(g1, g2)
    assert not verdict.holds
    v = verdict.violations[0]
    assert (v.inner, v.outer) == (1, 3)
    assert v.lhs > v.rhs


def test_dimension_mismatch():
    g1 = make_game(2, {1: 1, 2: 1, 3: 2})
    g2 = make_game(3, {1: 1, 2: 1, 4: 1, 3: 2, 5: 2, 6: 2, 7: 3})
    with pytest.raises(DimensionMismatch):
        leq_cp(g1, g2)


def test_float_exact_agreement_on_dyadic_values():
    rng = random.Random(8)
    for _ in range(100):
        n = rng.randint(2, 3)
        vals = {}
        for c in range(1, 1 << n):
            if c.bit_count() == 1:
                vals[c] = rng.randrange(0, 8) / 4
            else:
                vals[c] = rng.randrange(1, 32) / 4
        gf1 = make_game(n, vals, mode="float", tol=1e-12)
        vals2 = {c: rng.randrange(1, 5) * v if v else 0.0 for c, v in vals.items()}
        gf2 = make_game(n, vals2, mode="float", tol=1e-12)
        ge1 = make_game(n, {c: Fraction(v) for c, v in vals.items()})
        ge2 = make_game(n, {c: Fraction(v) for c, v in vals2.items()})
        assert leq_cp(gf1, gf2).holds == leq_cp(ge1, ge2).holds


# ---------------------------------------------------------------------------
# inclusion harnesses


def test_theorem_suite_on_ordered_pairs():
    rng = random.Random(2)
    for _ in range(12):
        n = rng.randint(2, 4)
        g1, g2 = generate_ordered_pair(rng.randrange(1 << 30), n)
        report = verify_theorem1(g1, g2, samples=60, seed=7)
        assert report.order_holds
        assert report.passed, [c for c in report.claims if not c.passed]
        names = [c.name for c in report.claims]
        assert names == [
            "boundary",
            "partition-boundaries",
            "feasible-solutions",
            "fission-resistant-solutions",
            "fusion-resistant-partitions",
        ]


def _float_copy(game):
    return make_game(game.n, {c: float(game.values[c]) for c in range(1, 1 << game.n)})


def _theorem_report_with_naive_sampled_claims(g1, g2, samples, seed):
    report = verify_theorem1(g1, g2, samples=samples, seed=seed)
    claims = list(report.claims)
    claims[2:4] = naive_theorem_sampled_claims(g1, g2, samples=samples, seed=seed)
    return dataclasses.replace(report, claims=tuple(claims)).to_dict()


def test_theorem_fission_claim_matches_naive_loop():
    # one share table per candidate must give the verdicts, counts and
    # details of judging each game and kind separately, and claim 3's
    # table read-off those of solution_feasible; exact pairs (int and
    # Fraction values, ordered and not), float copies of them and one pair
    # of each mixed kind
    rng = random.Random(29)
    pairs = []
    for n in (2, 3, 3, 4, 4):
        g1, g2 = generate_ordered_pair(rng.randrange(1 << 30), n)
        pairs += [(g1, g2), (_float_copy(g1), _float_copy(g2))]
    pairs += [(g1, _float_copy(g2)), (_float_copy(g1), g2)]
    for n in (2, 3, 4):
        g1, g2 = random_exact_game(rng, n), random_exact_game(rng, n)
        pairs += [(g1, g2), (_float_copy(g1), _float_copy(g2))]
    failed = {2: 0, 3: 0}
    for g1, g2 in pairs:
        got = verify_theorem1(g1, g2, samples=25, seed=3).to_dict()
        assert got == _theorem_report_with_naive_sampled_claims(g1, g2, 25, 3)
        for claim in failed:
            failed[claim] += not got["claims"][claim]["passed"] and g1.mode == g2.mode == "exact"
    assert failed[2] > 0 and failed[3] > 0


def test_theorem_fission_claim_needs_feasibility_under_the_second_game():
    # every split of the pair is weakly fission-resistant (two players never
    # split weakly) under both games, but none is feasible under g2, whose
    # singletons demand more than the pair is worth
    g1 = make_game(2, {1: 0, 2: 0, 3: 1})
    g2 = make_game(2, {1: 1, 2: 1, 3: 1})
    for pair in ((g1, g2), (_float_copy(g1), _float_copy(g2))):
        report = verify_theorem1(*pair, samples=5, seed=1)
        claim = report.claims[3]
        assert not claim.passed
        assert "weak partition (3,)" in claim.detail
        assert report.to_dict() == _theorem_report_with_naive_sampled_claims(*pair, 5, 1)


def _near_tie_pair():
    # g1's split set is the single point (1/2, 1/2); g2's first singleton
    # asks for 1e-10 more than that, which only the float tolerance forgives
    g1 = make_game(2, {1: 1, 2: 1, 3: 2})
    g2 = make_game(2, {1: 1.0000000001, 2: 1.0, 3: 2.0})
    return g1, g2


def test_theorem_claims_keep_the_float_tolerance_on_mixed_pairs():
    # an exact first game's integer draws are judged under a float second
    # game by its tolerant predicates, not by the exact integer read-off
    g1, g2 = _near_tie_pair()
    report = verify_theorem1(g1, g2, samples=10, seed=2)
    assert report.claims[2].passed and report.claims[3].passed
    assert report.to_dict() == _theorem_report_with_naive_sampled_claims(g1, g2, 10, 2)


def test_corollary_weak_claim_matches_naive_loop():
    # the weak-core claim judged on one grand share table per candidate must
    # give the verdicts, counts and details of boundary_contains plus the
    # naive weak-core predicate under each game: ordered and unordered exact
    # pairs, float copies, mixed pairs both ways, a pair whose second game
    # has an empty split set and one that only the tolerance lets pass
    rng = random.Random(147)
    pairs = []
    for n in (2, 3, 3, 4, 4):
        g1, g2 = generate_ordered_pair(rng.randrange(1 << 30), n)
        pairs += [(g1, g2), (_float_copy(g1), _float_copy(g2))]
    pairs += [(g1, _float_copy(g2)), (_float_copy(g1), g2)]
    for n in (2, 3, 4, 4):
        g1, g2 = random_exact_game(rng, n), random_exact_game(rng, n)
        pairs += [(g1, g2), (_float_copy(g1), _float_copy(g2)), (g1, _float_copy(g2))]
    pairs.append((make_game(2, {1: 0, 2: 0, 3: 1}), make_game(2, {1: 1, 2: 1, 3: 1})))
    pairs.append(_near_tie_pair())
    failed = 0
    for g1, g2 in pairs:
        report = verify_corollary(g1, g2, samples=25, seed=5)
        claims = list(report.claims)
        claims[1] = naive_corollary_weak_claim(g1, g2, samples=25, seed=5)
        assert report.to_dict() == dataclasses.replace(report, claims=tuple(claims)).to_dict()
        failed += not claims[1].passed
    assert failed >= 5


def _corollary_report_with_naive_weak_claim(g1, g2, samples, seed):
    report = verify_corollary(g1, g2, samples=samples, seed=seed)
    claims = list(report.claims)
    claims[1] = naive_corollary_weak_claim(g1, g2, samples=samples, seed=seed)
    return dataclasses.replace(report, claims=tuple(claims)).to_dict()


def _five_player_pairs():
    # cut_game gives 5-player blocks whose weak splits decide membership:
    # an ordered pair (values scaled by a nondecreasing factor of the
    # coalition size), its float copy, both mixed pairs, an unordered pair
    # and one generated pair
    rng = random.Random(61)
    g1 = cut_game(rng, 5)
    g2 = make_game(5, {c: g1.values[c] * (0, 1, 1, 2, 2, 3)[c.bit_count()] for c in range(1, 32)})
    pairs = [(g1, g2), (_float_copy(g1), _float_copy(g2)), (g1, _float_copy(g2))]
    pairs += [(_float_copy(g1), g2), (cut_game(rng, 5), cut_game(rng, 5))]
    return pairs + [generate_ordered_pair(548563996, 5)]


def test_sampled_claims_match_naive_loops_on_five_players():
    failed = 0
    for g1, g2 in _five_player_pairs():
        report = verify_theorem1(g1, g2, samples=25, seed=3).to_dict()
        assert report == _theorem_report_with_naive_sampled_claims(g1, g2, 25, 3)
        corollary = verify_corollary(g1, g2, samples=25, seed=3).to_dict()
        assert corollary == _corollary_report_with_naive_weak_claim(g1, g2, 25, 3)
        failed += (not report["claims"][3]["passed"]) + (not corollary["claims"][1]["passed"])
    assert failed >= 2


def test_sampled_claims_match_naive_loops_at_200_samples():
    rng = random.Random(200)
    pairs = [generate_ordered_pair(rng.randrange(1 << 30), n) for n in (3, 4)]
    pairs += [(_float_copy(g1), _float_copy(g2)) for g1, g2 in pairs]
    pairs.append((random_exact_game(rng, 4), random_exact_game(rng, 4)))
    for g1, g2 in pairs:
        got = verify_theorem1(g1, g2, samples=200, seed=8).to_dict()
        assert got == _theorem_report_with_naive_sampled_claims(g1, g2, 200, 8)
        got = verify_corollary(g1, g2, samples=200, seed=8).to_dict()
        assert got == _corollary_report_with_naive_weak_claim(g1, g2, 200, 8)


def test_claim_three_failing_early_hands_its_rng_to_claim_four():
    # claim 3 stops at its second sample, so claim 4 draws from the rng as
    # that break left it
    rng = random.Random(10)
    g1, g2 = random_exact_game(rng, 4), random_exact_game(rng, 4)
    got = verify_theorem1(g1, g2, samples=25, seed=3)
    assert (got.claims[2].passed, got.claims[2].scope) == (False, "sampled(2)")
    assert got.to_dict() == _theorem_report_with_naive_sampled_claims(g1, g2, 25, 3)


def test_fission_claim_fails_on_the_witness_row_alone():
    # g1's strong core is the single point (1/3, 1/3, 1/3), which no draw
    # hits; g2's first pair asks for more, so only the block table's
    # witness row fails, and the claim fails only if that row is judged
    g1 = make_game(3, {1: 0, 2: 0, 4: 0, 3: 2, 5: 2, 6: 2, 7: 3})
    g2 = make_game(3, {1: 0, 2: 0, 4: 0, 3: Fraction(21, 10), 5: 2, 6: 2, 7: 3})
    for pair in ((g1, g2), (_float_copy(g1), _float_copy(g2))):
        claim = verify_theorem1(*pair, samples=25, seed=3).claims[3]
        assert not claim.passed
        assert claim.detail.startswith("strong partition (7,) point (")
        assert verify_theorem1(*pair, samples=25, seed=3).to_dict() == (
            _theorem_report_with_naive_sampled_claims(*pair, 25, 3)
        )
    claim = verify_theorem1(g1, g2, samples=25, seed=3).claims[3]
    assert claim.detail == "strong partition (7,) point (1/3, 1/3, 1/3)"


def test_verdict_arrays_are_bool():
    # numpy's ``~`` on an object array of Python bools is bitwise, so every
    # verdict the harness combines must have bool dtype
    g1, g2 = generate_ordered_pair(5, 4)
    partitions = [(15,), (3, 12), (1, 2, 4, 8), (7, 8)]
    for pair in ((g1, g2), (_float_copy(g1), _float_copy(g2)), (g1, _float_copy(g2)),
                 (_float_copy(g1), g2)):
        sample = boundary_sampler(pair[0])
        rng = random.Random(4)
        for partition in partitions:
            rows = [centripetality._draw(sample, partition, rng) for _ in range(6)]
            rows = [row for row in rows if row is not None]
            for feasible, fission in centripetality._judge_rows(*pair, partition, rows):
                assert feasible.dtype == bool and len(feasible) == len(rows)
                assert all(v.dtype == bool and len(v) == len(rows) for v in fission.values())
    terms = np.array([[1, 2], [2, 1]], dtype=object)
    for feasible, fission in stability.block_verdicts((g1, g2), 3, terms, 3, True):
        assert feasible.dtype == bool and all(v.dtype == bool for v in fission.values())


def test_corollary_suite_on_ordered_pairs():
    rng = random.Random(4)
    for _ in range(12):
        n = rng.randint(2, 4)
        g1, g2 = generate_ordered_pair(rng.randrange(1 << 30), n)
        report = verify_corollary(g1, g2, samples=60, seed=7)
        assert report.order_holds
        assert report.passed, [c for c in report.claims if not c.passed]


def test_unordered_pair_reports_violations():
    g1 = make_game(2, {1: 1, 2: 1, 3: 5})
    g2 = make_game(2, {1: 4, 2: 1, 3: 5})
    report = verify_theorem1(g1, g2, samples=20, seed=1)
    assert not report.order_holds


def test_strong_core_inclusion_checked_directly():
    # re-derive the corollary's core claim from vertices, independently of
    # the harness plumbing
    rng = random.Random(91)
    checked = 0
    for _ in range(40):
        n = rng.randint(2, 4)
        g1, g2 = generate_ordered_pair(rng.randrange(1 << 30), n)
        verts = vertices(core_system(g1))
        for v in verts:
            checked += 1
            assert core_contains(g1, v, STRONG)
            assert core_contains(g2, v, STRONG)
    assert checked > 30


def test_strong_core_inclusion_vacuous_when_first_core_empty(pairy3):
    # pairy3's pairs demand 3/4 of the whole each, so its strong core is
    # empty; g2 raises the pair thresholds, so the fast path cannot decide
    g2 = make_game(3, {1: 2, 2: 2, 4: 2, 3: 4, 5: 4, 6: 4, 7: 4})
    assert core_region(pairy3, STRONG).status == "empty"
    claim = verify_corollary(pairy3, g2, samples=10, seed=1).claims[0]
    assert (claim.name, claim.passed, claim.scope) == ("strong-core-inclusion", True, "vacuous")


def test_weak_core_inclusion_spot_checked():
    rng = random.Random(14)
    for _ in range(30):
        n = rng.randint(2, 4)
        g1, g2 = generate_ordered_pair(rng.randrange(1 << 30), n)
        region = core_region(g1, WEAK)
        if region.status == "nonempty":
            assert core_contains(g2, region.witness, WEAK)
