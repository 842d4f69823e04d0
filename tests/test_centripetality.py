import ast
import dataclasses
import itertools
import json
import pathlib
import random
import re
import tracemalloc
from fractions import Fraction

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
from fracgame import centripetality, cli, stability
from fracgame.centripetality import order_matrix
from fracgame.risk import (
    MeanStdScenario,
    beta_density,
    build_cvar_game,
    build_meanstd_game,
    default_uniform_family,
)
from fracgame.games import (
    boundary_empty,
    combined_tol,
    json_text,
    leq,
    members,
    solution_feasible,
    split_vertices,
    subgame,
)
from fracgame.partitions import enumerate_partitions, singleton_partition
from fracgame.stability import core_system
from fracgame.linfeas import vertices
from conftest import (
    cut_game,
    naive_corollary_weak_claim,
    naive_corollary_weak_sampled,
    naive_dominated,
    naive_fission_resistant,
    naive_sampled_block,
    naive_theorem_fission_claim,
    random_exact_game,
    random_float_game,
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


def test_corollary_on_a_single_player_worth_nothing():
    # a singleton may be worth 0; its one split is still the share 1
    g1, g2 = make_game(1, {1: 0}), make_game(1, {1: 2})
    assert leq_cp(g1, g2)
    report = verify_corollary(g1, g2, samples=5, seed=0)
    assert report.passed and verify_theorem1(g1, g2, samples=5, seed=0).passed


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


def _float_copy(game, tol=None):
    return make_game(game.n, {c: float(game.values[c]) for c in range(1, 1 << game.n)}, tol=tol)


def _number(text):
    # a printed share: Fractions and ints exactly, floats by their repr
    return Fraction(text) if "/" in text or text.lstrip("-").isdigit() else float(text)


def _read_back_fission_failures(g1, g2, claim):
    """Every claim 4 failure, read back from its printed form: g1 accepts
    the partition and point (feasible and fission-resistant in the named
    sense), and g2 refuses them at the pair's combined tolerance.  The
    partition is one block of two or more players with singletons around
    it, whose shares are 1."""
    found = re.findall(r"(strong|weak) partition (\(.*?\)) point \((.*?)\)", claim.detail)
    assert len(found) == claim.detail.count("partition") and bool(found) == (not claim.passed)
    g2 = dataclasses.replace(g2, tol=combined_tol(g1, g2))
    for kind, partition, point in found:
        partition = ast.literal_eval(partition)
        point = [_number(x) for x in point.split(", ")]
        (block,) = [b for b in partition if b & (b - 1)]
        assert all(point[i] == 1 for i in range(g1.n) if not block >> i & 1)
        assert solution_feasible(g1, partition, point)
        assert naive_fission_resistant(g1, partition, point, kind)
        assert not (
            solution_feasible(g2, partition, point)
            and naive_fission_resistant(g2, partition, point, kind)
        )


def _theorem_report_with_naive_fission_claim(g1, g2, samples, seed):
    report = verify_theorem1(g1, g2, samples=samples, seed=seed)
    _read_back_fission_failures(g1, g2, report.claims[3])
    claims = list(report.claims)
    claims[3] = naive_theorem_fission_claim(g1, g2, samples=samples, seed=seed)
    return dataclasses.replace(report, claims=tuple(claims)).to_dict()


def test_theorem_fission_claim_matches_naive_loop():
    # one share table per candidate must give the verdicts, counts and
    # details of judging each game and kind separately; exact pairs (int
    # and Fraction values, ordered and not), float copies of them and one
    # pair of each mixed kind.  At tolerance 0 a float row can break a
    # member bound, or sum to other than 1, by rounding, so float pairs
    # there (copies, self-pairs, and games v(C) = uniform(0.5, 3) |C|^1.3)
    # compare the two where a rule for g2 alone would refuse g1's own rows
    rng = random.Random(29)
    pairs = []
    for n in (2, 3, 3, 4, 4):
        g1, g2 = generate_ordered_pair(rng.randrange(1 << 30), n)
        pairs += [(g1, g2), (_float_copy(g1), _float_copy(g2)), (_float_copy(g1, 0.0), _float_copy(g2, 0.0))]
    pairs += [(g1, _float_copy(g2)), (_float_copy(g1), g2), (g1, _float_copy(g2, 0.0))]
    for n in (2, 3, 4):
        g1, g2 = random_exact_game(rng, n), random_exact_game(rng, n)
        pairs += [(g1, g2), (_float_copy(g1), _float_copy(g2)), (_float_copy(g1, 0.0), _float_copy(g1, 0.0))]
    for n in (2, 3, 3, 4, 4):
        g1, g2 = (make_game(n, {m: rng.uniform(0.5, 3) * m.bit_count() ** 1.3 for m in range(1, 1 << n)}, tol=0.0)
                  for _ in range(2))
        pairs += [(g1, g1), (g1, g2)]
    failed = 0
    for g1, g2 in pairs:
        got = verify_theorem1(g1, g2, samples=25, seed=3).to_dict()
        assert got == _theorem_report_with_naive_fission_claim(g1, g2, 25, 3)
        failed += not got["claims"][3]["passed"] and g1.mode == g2.mode == "exact"
    assert failed > 0


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
        assert report.to_dict() == _theorem_report_with_naive_fission_claim(*pair, 5, 1)


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
    assert report.to_dict() == _theorem_report_with_naive_fission_claim(g1, g2, 10, 2)


def _rounded_mixed_pair():
    # ordered (leq_cp holds at the float tolerance of g1), but draws of g1
    # sum to 1 only up to rounding, which the exact g2 refuses at its own
    # tolerance 0
    g1 = make_game(2, {1: 1.0659163240289307, 2: 1.7096670861217336, 3: 7.2079832237469})
    g2 = make_game(2, {1: Fraction(1, 3), 2: 2, 3: Fraction(21, 2)})
    return g1, g2


def test_mixed_pairs_judge_the_second_game_at_the_combined_tolerance():
    # claims 1-2 and leq_cp compare at the pair's tolerance, so the sampled
    # claims judge g2 at it too: a float g1's rounding fails no claim
    g1, g2 = _rounded_mixed_pair()
    assert leq_cp(g1, g2).holds
    assert verify_theorem1(g1, g2, samples=200, seed=323).passed
    assert verify_corollary(g1, g2, samples=200, seed=323).passed
    _assert_matches_naive_loops(g1, g2, 200, 323)


def _refused_blocks(g1, g2):
    """Reference for claim 2: the blocks of two or more players whose g1
    split set is nonempty and holds a point g2 refuses.  The g1 split set
    is the simplex of shares at or above v1(i)/v1(B) summing to 1, so g2
    refuses one of its points iff some member's lower bound is higher under
    g2; decided in Fractions."""
    refused = []
    for block in range(3, 1 << g1.n):
        if block & (block - 1):
            lower = [
                [Fraction(g.values[1 << i]) / Fraction(g.values[block]) for i in members(block)]
                for g in (g1, g2)
            ]
            if sum(lower[0]) <= 1 and any(a < b for a, b in zip(*lower)):
                refused.append(block)
    return refused


@pytest.mark.parametrize("samples", [0, 40])
def test_claim_three_is_decided_by_claim_two(samples):
    # a feasible solution is a product of per-block splits, so claim 3
    # holds iff every block's split set is included, which claim 2 decides.
    # A failure prints the first refused block, with singletons around it,
    # and a g1 vertex of it that g2 refuses, with the share 1 elsewhere:
    # g1-feasible and g2-infeasible.  Generated pairs are ordered and
    # pass; swapped, they fail on some blocks; exact, float and mixed
    rng = random.Random(23)
    pairs = [_rounded_mixed_pair()]
    for n in (2, 3, 3, 4, 4, 5):
        g1, g2 = generate_ordered_pair(rng.randrange(1 << 30), n)
        pairs += _pair_modes(g1, g2) + _pair_modes(g2, g1)
    failed = set()
    for g1, g2 in pairs:
        two, three = verify_theorem1(g1, g2, samples=samples, seed=9).claims[1:3]
        refused = _refused_blocks(g1, g2)
        named = [int(b, 16) for b in re.findall(r"block (0x[0-9a-f]+)", two.detail)]
        assert named == refused and two.passed == (not refused)
        assert (three.name, three.passed, three.scope) == (
            "feasible-solutions",
            two.passed,
            "exhaustive-blocks",
        )
        if three.passed:
            assert three.detail == ""
            continue
        failed.update(refused)
        match = re.fullmatch(r"partition (\(.*?\)) point \((.*)\)", three.detail)
        partition = ast.literal_eval(match[1])
        point = [Fraction(x) for x in match[2].split(", ")]
        block = refused[0]
        others = [1 << i for i in range(g1.n) if not block >> i & 1]
        assert sorted(partition) == sorted([block, *others])
        assert all(point[i] == 1 for i in range(g1.n) if not block >> i & 1)
        assert tuple(point[i] for i in members(block)) in split_vertices(g1, block)
        assert solution_feasible(g1, partition, point)
        assert not solution_feasible(g2, partition, point)
    assert len(failed) > 10


def _checked_blocks(game):
    return [b for b in range(3, 1 << game.n) if b & (b - 1) and not boundary_empty(game, b)]


def test_dominated_blocks_refuse_no_sampled_point():
    # on a block the order dominates, every g2 threshold sits at or below
    # g1's, so g1's split set and cores lie in g2's: the one-candidate loops
    # at 200 samples find no refused point there, on 40 generated pairs
    # (every block dominated, so claim 4 and the corollary's weak claim
    # draw nothing) and on the dominated blocks of unordered exact pairs
    rng = random.Random(404)
    ordered = [generate_ordered_pair(rng.randrange(1 << 30), n)
               for n in [2] * 16 + [3] * 14 + [4] * 8 + [5] * 2]
    unordered = [(random_exact_game(rng, n), random_exact_game(rng, n)) for n in (3, 3, 4, 4)]
    checked = {STRONG: 0, WEAK: 0}
    for g1, g2 in ordered + unordered:
        table = stability.BlockTable(g1)
        for block in _checked_blocks(g1):
            if naive_dominated(g1, g2, block):
                found = naive_sampled_block(g1, g2, block, random.Random(block), 200, table)
                for kind, (count, refused) in found.items():
                    assert refused is None, refused
                    checked[kind] += count
        if naive_dominated(g1, g2, g1.grand):
            assert naive_corollary_weak_sampled(g1, g2, samples=200, seed=1).passed
    assert min(checked.values()) > 1000
    for g1, g2 in ordered:
        assert all(naive_dominated(g1, g2, b) for b in range(1, 1 << g1.n))
        claim = verify_theorem1(g1, g2, samples=200, seed=1).claims[3]
        assert (claim.passed, claim.scope, claim.detail) == (True, "constraintwise-blocks", "")
        claim = verify_corollary(g1, g2, samples=200, seed=1).claims[1]
        assert (claim.passed, claim.scope, claim.detail) == (True, "constraintwise", "")


def test_exact_pairs_sample_only_their_undominated_blocks():
    # doubling g2's value of the pair {a, b} leaves every block that holds
    # the pair undominated, and unordered exact pairs rarely dominate any
    # block: claim 4 counts the dominated blocks ahead of the sampled
    # counts, and the corollary samples exactly when its grand block is
    # undominated, as the references' own ratio rule says
    rng = random.Random(405)
    pairs = []
    for n in (3, 4, 4, 5):
        g1, g2 = generate_ordered_pair(rng.randrange(1 << 30), n)
        bumped = make_game(n, {c: g2.values[c] * (2 if c == 3 else 1) for c in range(1, 1 << n)})
        pairs += [(g1, g2), (g1, bumped)]
    pairs += [(random_exact_game(rng, n), random_exact_game(rng, n)) for n in (3, 4, 4)]
    scopes, weak_scopes = set(), set()
    for g1, g2 in pairs:
        report = verify_theorem1(g1, g2, samples=10, seed=2)
        assert report.claims[3] == naive_theorem_fission_claim(g1, g2, samples=10, seed=2)
        blocks = _checked_blocks(g1)
        dominated = sum(naive_dominated(g1, g2, b) for b in blocks)
        scope = report.claims[3].scope
        if dominated == len(blocks):
            assert scope == "constraintwise-blocks"
        elif dominated:
            assert scope.startswith(f"constraintwise({dominated})+witness+sampled(")
        else:
            assert scope.startswith("witness+sampled(")
        scopes.add(scope.split("(")[0])
        weak = verify_corollary(g1, g2, samples=10, seed=2).claims[1]
        assert (weak.scope == "constraintwise") == naive_dominated(g1, g2, g1.grand)
        weak_scopes.add(weak.scope.split("(")[0])
    assert scopes == {"constraintwise-blocks", "constraintwise", "witness+sampled"}
    assert weak_scopes == {"constraintwise", "witness+sampled"}


def test_pairs_with_no_undominated_block_build_no_rng_or_region_table(monkeypatch):
    # generated pairs leave every block dominated, so neither harness
    # draws: with the rng and the region table made to raise, both still
    # pass on them; the pair of CI's memory guard (g2's value of a,b,c,d
    # doubled) keeps its grand block undominated, raises under the patch,
    # and unpatched still samples with the scopes it always printed
    pairs = [generate_ordered_pair(s, n) for s in range(40) for n in range(2, 6)]
    rng = random.Random(0)
    n, seed = rng.randint(2, 5), rng.randrange(1 << 31)
    g1, g2 = generate_ordered_pair(seed, n)
    g2 = make_game(n, {c: g2.values[c] * (2 if c == 15 else 1) for c in range(1, 1 << n)})

    def refuse(*args, **kwargs):
        raise AssertionError("built for a pair that draws nothing")

    monkeypatch.setattr(centripetality.random, "Random", refuse)
    monkeypatch.setattr(centripetality, "BlockTable", refuse)
    for p1, p2 in pairs:
        assert verify_theorem1(p1, p2, samples=50, seed=1).passed
        assert verify_corollary(p1, p2, samples=50, seed=1).passed
    for harness in (verify_theorem1, verify_corollary):
        with pytest.raises(AssertionError, match="draws nothing"):
            harness(g1, g2, samples=50, seed=seed)
    monkeypatch.undo()
    assert verify_theorem1(g1, g2, samples=50, seed=seed).claims[3].scope == (
        "constraintwise(17)+witness+sampled(strong=0,weak=0)"
    )
    assert verify_corollary(g1, g2, samples=50, seed=seed).claims[1].scope == "witness+sampled(0)"


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
        assert report == _theorem_report_with_naive_fission_claim(g1, g2, 25, 3)
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
        assert got == _theorem_report_with_naive_fission_claim(g1, g2, 200, 8)
        got = verify_corollary(g1, g2, samples=200, seed=8).to_dict()
        assert got == _corollary_report_with_naive_weak_claim(g1, g2, 200, 8)


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
            _theorem_report_with_naive_fission_claim(*pair, 25, 3)
        )
    claim = verify_theorem1(g1, g2, samples=25, seed=3).claims[3]
    assert claim.detail == "strong partition (7,) point (1/3, 1/3, 1/3)"


def _pair_modes(g1, g2):
    """The pair, its float copy and both mixed pairs."""
    f1, f2 = _float_copy(g1), _float_copy(g2)
    return [(g1, g2), (f1, f2), (g1, f2), (f1, g2)]


def _assert_matches_naive_loops(g1, g2, samples, seed):
    got = verify_theorem1(g1, g2, samples=samples, seed=seed).to_dict()
    assert got == _theorem_report_with_naive_fission_claim(g1, g2, samples, seed)
    got = verify_corollary(g1, g2, samples=samples, seed=seed).to_dict()
    assert got == _corollary_report_with_naive_weak_claim(g1, g2, samples, seed)


@pytest.mark.parametrize("samples", [0, 1, 5, 50])
def test_per_block_matrices_match_naive_loops(samples):
    # each distinct block judged once per pair, against the references that
    # judge one candidate at a time: one to five players, ordered pairs
    # (whose split sets are often empty) and unordered ones, each exact,
    # float and mixed both ways
    rng = random.Random(1900 + samples)
    pairs = []
    for n in range(1, 6):
        pairs += _pair_modes(*generate_ordered_pair(rng.randrange(1 << 30), n))
        if n < 5:
            pairs += _pair_modes(random_exact_game(rng, n), random_exact_game(rng, n))
    for g1, g2 in pairs:
        _assert_matches_naive_loops(g1, g2, samples, 3)


def test_claim4_peak_memory_does_not_grow_with_samples():
    # claim 4 draws and judges one row at a time, and a row's judgment
    # leaves no reference cycle behind, so its traced peak on CI's guard
    # pair is the same at 2,000 and 20,000 samples.  The guard doubles g2's
    # value of a,b,c,d in the seed-0 pair, so only the grand block of five
    # players is sampled.  One untraced run first makes the one-time
    # allocations of the code it runs
    rng = random.Random(0)
    n, seed = rng.randint(2, 5), rng.randrange(1 << 31)
    g1, g2 = generate_ordered_pair(seed, n)
    g2 = make_game(n, {c: g2.values[c] * (2 if c == 15 else 1) for c in range(1, 1 << n)})
    verify_theorem1(g1, g2, samples=2000, seed=seed)
    peaks = []
    for samples in (2000, 20000):
        tracemalloc.start()
        try:
            claim = verify_theorem1(g1, g2, samples=samples, seed=seed).claims[3]
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert n == 5 and claim.scope.startswith("constraintwise(17)+witness+sampled("), claim
    assert peaks[1] <= peaks[0] + 4096, peaks


@pytest.mark.parametrize("factor", [1 << 21, 1 << 40])
def test_per_block_matrices_past_the_int64_range(factor):
    # scaling both games by one factor keeps every verdict; at 2^21 the
    # draws' products with the values pass 2^63, at 2^40 the terms
    # themselves do, and the exact comparisons stay exact
    rng = random.Random(factor)
    for n in (3, 4):
        for g1, g2 in (generate_ordered_pair(rng.randrange(1 << 30), n),
                       (random_exact_game(rng, n), random_exact_game(rng, n))):
            big = [make_game(n, {c: g.values[c] * factor for c in range(1, 1 << n)})
                   for g in (g1, g2)]
            _assert_matches_naive_loops(*big, 25, 3)
            scaled = verify_theorem1(*big, samples=25, seed=3).to_dict()
            assert scaled == verify_theorem1(g1, g2, samples=25, seed=3).to_dict()


def test_refused_blocks_still_take_their_draws():
    # a block that has refused both kinds still takes all its draws, so the
    # blocks after it see the rng values the one-candidate-at-a-time loop
    # gives them: block a,b refuses both kinds on its witness, ahead of its
    # 20 draws, and block a,c then refuses a draw
    r = random.Random(999917037)
    g1, g2 = random_exact_game(r, 3), random_exact_game(r, 3)
    claim = verify_theorem1(g1, g2, samples=20, seed=1).claims[3]
    assert claim.scope == "witness+sampled(strong=9,weak=9)"
    assert claim.detail == (
        "strong partition (3, 4) point (19/36, 17/36, 1); "
        "weak partition (3, 4) point (19/36, 17/36, 1); "
        "strong partition (5, 2) point (1229053/1507328, 1, 278275/1507328)"
    )
    _assert_matches_naive_loops(g1, g2, 20, 1)


def test_theorem_judges_feasibility_under_the_second_game_only(monkeypatch):
    # claim 4's candidates are g1 splits by construction; on a float g1
    # judging their feasibility anyway would run boundary_contains per row
    # and block.  The harness calls it on g2 and its blocks' subgames only,
    # and on no row: a g1 split lies in g2's split set iff it meets g2's
    # member bounds, read off the row's own share table.  Each row's
    # verdicts are those of the literal predicates on the block with
    # singletons (pair 16 has no empty split set, so every block draws)
    f1, f2 = (_float_copy(g) for g in generate_ordered_pair(16, 4))
    firsts = {f1.values, *(subgame(f1, b).values for b in range(1, 16) if b.bit_count() > 1)}
    seconds = {f2.values, *(subgame(f2, b).values for b in range(1, 16))}
    assert not firsts & seconds
    original, judged = centripetality.boundary_contains, []

    def second_game_only(game, coalition, shares):
        assert game.values in seconds
        judged.append(game.values)
        return original(game, coalition, shares)

    monkeypatch.setattr(centripetality, "boundary_contains", second_game_only)
    assert verify_theorem1(f1, f2, samples=25, seed=3).to_dict() == (
        _theorem_report_with_naive_fission_claim(f1, f2, 25, 3)
    )
    assert not judged


def test_splintered_stability_is_one_fusion_verdict():
    # the share-1 splintered solution is feasible and resists fission under
    # every game, so in either sense it is stable iff the singleton
    # partition resists fusion: the verdict the corollary reads once per game
    rng = random.Random(61)
    seen = set()
    for n in range(1, 6):
        splintered, ones = singleton_partition(n), (1,) * n
        games = [make_game(n, {c: c.bit_count() for c in range(1, 1 << n)}),
                 make_game(n, {c: 0.7 * c.bit_count() for c in range(1, 1 << n)})]
        for _ in range(6):
            games += [random_exact_game(rng, n), random_float_game(rng, n)]
            games += generate_ordered_pair(rng.randrange(1 << 30), n)
        for g in games:
            fused = stability.fusion_resistant(g, splintered)
            seen.add((g.mode, fused))
            for kind in (STRONG, WEAK):
                assert stability.is_stable(g, splintered, ones, kind) == fused
    assert len(seen) == 4


def test_claim_five_checks_no_enumerated_partition(monkeypatch):
    # claim 5 judges each enumerated partition's fusion under g2 and, where
    # g2's resists, under g1, each game at its own tolerance, and checks no
    # partition; its verdict is the public predicate's
    checks, judged = [], []
    check, resists = stability.check_partition, centripetality._resists_fusion
    monkeypatch.setattr(stability, "check_partition", lambda *a: checks.append(a) or check(*a))
    monkeypatch.setattr(
        centripetality, "_resists_fusion", lambda *a: judged.append(a) or resists(*a)
    )
    rng = random.Random(67)
    seen = set()
    for n in (2, 3, 4) * 4:
        g1, g2 = random_float_game(rng, n), random_float_game(rng, n)
        g2 = make_game(n, dict(enumerate(g2.values[1:], 1)), mode="float", tol=1e-6)
        checks.clear()
        judged.clear()
        claim = verify_theorem1(g1, g2, samples=0, seed=0).claims[4]
        assert not checks
        tols = {id(g.values): g.tol for g in (g1, g2)}
        assert judged and all(tols[id(values)] == tol for values, _, tol in judged)
        partitions = list(enumerate_partitions(n))
        assert [p for values, p, _ in judged if values is g2.values] == partitions
        want = not any(
            stability.fusion_resistant(g2, p) and not stability.fusion_resistant(g1, p)
            for p in partitions
        )
        assert claim.passed == want
        seen.add(want)
    assert seen == {True, False}


def test_claim_one_takes_thresholds_exactly_when_every_lower_bound_drops():
    # the grand split set's fast path reads only singleton violations: it
    # is taken iff every g2 lower bound v2(i)/v2(N) sits at or below g1's,
    # as Fraction ratios, whatever the larger coalitions do
    rng = random.Random(41)
    seen = set()
    for _ in range(200):
        n = rng.randint(2, 4)
        g1, g2 = random_exact_game(rng, n), random_exact_game(rng, n)
        full = g1.grand

        def bound(game, i):
            return Fraction(game.values[1 << i]) / game.values[full]

        want = all(bound(g2, i) <= bound(g1, i) for i in range(n))
        assert (verify_theorem1(g1, g2, samples=0).claims[0].scope == "thresholds") == want
        seen.add((want, full in {v.outer for v in leq_cp(g1, g2).violations}))
    assert (True, True) in seen and (False, True) in seen


def test_negative_samples_are_refused():
    # the CLI refuses them too; the library used to draw nothing instead
    g1, g2 = generate_ordered_pair(0, 3)
    for verify in (verify_theorem1, verify_corollary):
        with pytest.raises(ValueError, match="samples must be nonnegative, got -1"):
            verify(g1, g2, samples=-1)
        assert verify(g1, g2, samples=0).passed


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


def test_order_matrix_by_size_pairs_matches_leq_cp():
    # size-symmetric games (pooled ventures, the cvar family, exact games by
    # size) compared by size pairs; both verdicts occur
    for n in (1, 2, 3, 5, 6):
        games = [build_meanstd_game(MeanStdScenario(n, 1.0, 0.5, r)) for r in (0.0, 0.4, 1.2)]
        games += [build_meanstd_game(MeanStdScenario(n, 7 / 37, 0.1, 0.0))]
        games += [build_cvar_game(default_uniform_family(n), beta_density(a)) for a in (1.0, 3.0)]
        games += [make_game(n, {m: m.bit_count() ** k for m in range(1, 1 << n)}) for k in (1, 2)]
        want = [[leq_cp(gi, gj).holds for gj in games] for gi in games]
        assert order_matrix(games) == want
        if n > 2:
            assert {x for row in want for x in row} == {True, False}
            # a game that is not size-symmetric
            with pytest.raises(ValueError):
                order_matrix(games + [random_exact_game(random.Random(n), n)])
        # a game of another player count
        with pytest.raises(ValueError):
            order_matrix(games + [build_meanstd_game(MeanStdScenario(n + 1, 1.0, 0.5, 0.4))])


LIBRARY_GOLDEN = pathlib.Path(__file__).parent / "data" / "inclusion_reports_library.json"


def library_pairs():
    """``(label, g1, g2, seed)`` for 16 seeded pairs of up to four players:
    two of each kind (ordered exact, unordered exact, float/float, and an
    ordered pair with a float second game), each in both orders."""
    rng = random.Random(30)
    for kind in ("ordered", "unordered", "float", "mixed"):
        for _ in range(2):
            n = rng.randint(2, 4)
            if kind == "unordered":
                pair = random_exact_game(rng, n), random_exact_game(rng, n)
            elif kind == "float":
                pair = random_float_game(rng, n), random_float_game(rng, n)
            else:
                g1, g2 = generate_ordered_pair(rng.randrange(1 << 30), n)
                if kind == "mixed":
                    g2 = make_game(n, {c: float(g2.values[c]) for c in range(1, 1 << n)})
                pair = g1, g2
            seed = rng.randrange(1 << 30)
            for label, (g1, g2) in (("forward", pair), ("reversed", pair[::-1])):
                yield f"{kind} n={n} {label}", g1, g2, seed


def library_reports() -> str:
    """The ``to_dict()`` of both harnesses at 20 samples on the library
    pairs, as ``json.dumps(sort_keys=True, indent=2)``, so most blocks are
    sampled.  ``inclusion_reports_library.json`` holds what this printed
    before the harnesses were folded into one pass per block, but for two
    claim-4 weak counts of float n=4 pairs, which grew when claim 4 took
    each block's canonical weak witness in place of the search's stopping
    point."""
    entries = [
        {
            "pair": label,
            "theorem": verify_theorem1(g1, g2, samples=20, seed=seed).to_dict(),
            "corollary": verify_corollary(g1, g2, samples=20, seed=seed).to_dict(),
        }
        for label, g1, g2, seed in library_pairs()
    ]
    return json.dumps(entries, sort_keys=True, indent=2) + "\n"


def test_library_reports_match_committed_bytes():
    # sampled blocks, float and mixed pairs: no CLI golden reaches them,
    # since verify's generated pairs draw nothing
    assert library_reports().encode("utf-8") == LIBRARY_GOLDEN.read_bytes()


@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("suite, runner", [("theorem", verify_theorem1), ("corollary", verify_corollary)])
def test_verify_reports_are_json_text_of_their_dicts(monkeypatch, tmp_path, capsys, suite, runner, out):
    # the library pairs, unordered ones among them, as one verify bundle:
    # its report, on stdout or in its --out file, is json_text of the dict
    # built from each pair's to_dict, failing claims and their details too
    pairs = [(k, g1.n, seed, g1, g2) for k, (_, g1, g2, seed) in enumerate(library_pairs())]
    monkeypatch.setattr(cli, "_pair_stream", lambda count, seed: iter(pairs))
    reports = [
        {"pair": k, "n": n, "seed": seed, **runner(g1, g2, samples=20, seed=seed).to_dict()}
        for k, n, seed, g1, g2 in pairs
    ]
    assert any(c["detail"] and not c["passed"] for r in reports for c in r["claims"])
    passed = all(r["order_holds"] and r["passed"] for r in reports)
    expected = json_text({"suite": suite, "pairs": 16, "seed": 3, "passed": passed, "reports": reports})
    argv = ["verify", suite, "--pairs", "16", "--seed", "3", "--samples", "20"]
    assert cli.run(argv + (["--out", str(tmp_path)] if out else [])) == 1
    written = (tmp_path / f"verify-{suite}.json").read_text() if out else capsys.readouterr().out
    assert written == expected


def listed_order(g1, g2):
    """The order by listing both cross products of every nested pair, as
    ``leq_cp`` decided every pair before it read covering pairs."""
    tol, v1, v2 = combined_tol(g1, g2), g1.values, g2.values
    violations = tuple(
        centripetality.OrderViolation(inner, outer, v1[outer] * v2[inner], v2[outer] * v1[inner])
        for outer in range(1, 1 << g1.n)
        for inner in submasks(outer, proper=True)
        if not leq(v1[outer] * v2[inner], v2[outer] * v1[inner], tol)
    )
    return centripetality.OrderVerdict(not violations, violations)


# a mixed pair at tolerance 0, ordered on its exact values, whose 1/3s round
# to float before they multiply: float(5/3) rounds up, 5 * float(1/3) down
ROUNDED_MIXED = (
    make_game(2, {1: Fraction(1, 3), 2: Fraction(1, 3), 3: Fraction(5, 3)}),
    make_game(2, {1: 1.0, 2: 1.0, 3: 5.0}, tol=0),
)


def order_cases():
    """Exact, float and mixed pairs of up to eight players."""
    # a zero singleton fails only a singleton-inner pair, and the second
    # pair fails only where a joins b, a covering pair that does not add the
    # highest player
    yield make_game(2, {1: 0, 2: 1, 3: 2}), make_game(2, {1: 1, 2: 1, 3: 2})
    yield make_game(2, {1: 1, 2: 1, 3: 5}), make_game(2, {1: 1, 2: 4, 3: 5})
    yield ROUNDED_MIXED
    rng = random.Random(46)
    for _ in range(100):
        n = rng.choice((2, 3, 3, 4, 4, 5, 6, 7, 8))
        g1, g2 = generate_ordered_pair(rng.randrange(1 << 31), n)
        yield g1, g2
        # one coalition of the second game worth less (or its singleton 0)
        c = rng.randrange(1, 1 << n)
        factor = Fraction(rng.randint(0 if c.bit_count() == 1 else 1, 9), 10)
        g3 = make_game(n, {m: g2.values[m] * (factor if m == c else 1) for m in range(1, 1 << n)})
        yield g1, g3
        # arbitrary games with zero singletons, the same ones or others
        zeros = [rng.randrange(n) for _ in range(rng.randint(1, n))]
        h1, h2 = (random_exact_game(rng, n) for _ in range(2))
        zeroed = lambda g, z: make_game(n, {m: 0 if m in z else g.values[m] for m in range(1, 1 << n)})
        yield zeroed(h1, {1 << i for i in zeros}), zeroed(h1 if rng.random() < 0.5 else h2, {1 << zeros[0]})
        # float and mixed copies, at the default tolerance and at 0
        tol = rng.choice((0, 1e-9))
        as_float = lambda g: make_game(n, {m: float(g.values[m]) for m in range(1, 1 << n)}, tol=tol)
        yield as_float(g1), as_float(g3)
        yield g1, as_float(g2)
        yield as_float(g3), g1
    # the Prop 1 and Prop 2 pairs, float and as their exact values
    exact = lambda g: make_game(g.n, {m: Fraction(g.values[m]) for m in range(1, 1 << g.n)})
    for games in (
        [build_meanstd_game(MeanStdScenario(4, 1.0, 0.5, r)) for r in (0, 0.5, 1.0, 1.5)],
        [build_cvar_game(default_uniform_family(4), beta_density(a)) for a in (1.0, 2.0, 3.0)],
    ):
        for g1, g2 in itertools.permutations(games, 2):
            yield g1, g2
            yield exact(g1), exact(g2)


def test_covering_pairs_give_the_listed_order():
    # the covering check decides an exact pair, the listing every other
    # pair, and a failing pair lists what it always listed
    verdicts = []
    for g1, g2 in order_cases():
        verdict = leq_cp(g1, g2)
        assert verdict == listed_order(g1, g2), (g1, g2)
        verdicts.append((g1.mode == g2.mode == "exact", verdict.holds))
    assert {(True, True), (True, False), (False, True), (False, False)} <= set(verdicts)


def test_mixed_pair_at_tolerance_zero_keeps_the_listing():
    g1, g2 = ROUNDED_MIXED
    assert combined_tol(g1, g2) == 0 and not leq_cp(g1, g2).holds
    assert centripetality._covering_pairs_hold(g1.terms, g2.terms)
