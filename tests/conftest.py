import bisect
import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from fracgame import STRONG, boundary_contains, enumerate_partitions, make_game, members
from fracgame import leq_cp, linfeas, risk, stability
from fracgame.errors import InfeasibleSystem, NumericFailure
from fracgame.games import (
    DEFAULT_TOL,
    boundary_empty,
    check_partition,
    combined_tol,
    geq,
    leq,
    split_point,
    split_vertices,
    submasks,
)
from fracgame.partitions import fusion_neighborhood


@pytest.fixture
def additive3():
    """Every coalition worth the sum of its singletons."""
    return make_game(3, {1: 1, 2: 1, 4: 1, 3: 2, 5: 2, 6: 2, 7: 3})


@pytest.fixture
def superadditive3():
    """Singletons 1, pairs 3, grand 6: strictly superadditive."""
    return make_game(3, {1: 1, 2: 1, 4: 1, 3: 3, 5: 3, 6: 3, 7: 6})


@pytest.fixture
def pairy3():
    """Pairs are worth proportionally more than the grand coalition."""
    return make_game(3, {1: 2, 2: 2, 4: 2, 3: 3, 5: 3, 6: 3, 7: 4})


@pytest.fixture
def g4gap():
    """Pairs {a,b} and {c,d} jointly demand more than the whole: the
    all-constraints core is empty but the partition-wise core is not."""
    return make_game(
        4,
        {
            1: 0, 2: 0, 4: 0, 8: 0,
            3: 10, 5: 2, 9: 2, 6: 2, 10: 2, 12: 10,
            7: 3, 11: 3, 13: 3, 14: 3,
            15: 12,
        },
    )


def random_exact_game(rng: random.Random, n: int):
    """Arbitrary valid rational-valued game."""
    values = {}
    for mask in range(1, 1 << n):
        if mask.bit_count() == 1:
            values[mask] = Fraction(rng.randrange(0, 7), rng.randrange(1, 4))
        else:
            values[mask] = Fraction(rng.randrange(1, 25), rng.randrange(1, 4))
    return make_game(n, values)


def random_float_game(rng: random.Random, n: int):
    values = {}
    for mask in range(1, 1 << n):
        if mask.bit_count() == 1:
            values[mask] = rng.uniform(0.0, 2.0)
        else:
            values[mask] = rng.uniform(0.1, 8.0) * mask.bit_count()
    return make_game(n, values, mode="float", tol=1e-9)


def cut_game(rng: random.Random, n: int):
    """Exact game with denominators <= 3, shaped like the benchmark's:
    pairs and triples worth 2*s^2 plus 0, 1/3 or 2/3 (supermodular, with
    nonempty strong cores), larger coalitions worth their best two-block
    split minus 1/3, 2/3 or 1 (empty strong cores, nonempty split sets), so
    their weak cores go to the exact search."""
    thirds = {}
    for mask in sorted(range(1, 1 << n), key=lambda m: (m.bit_count(), m)):
        s = mask.bit_count()
        if s <= 3:
            thirds[mask] = 6 * s * s + rng.randrange(3)
        else:
            best = max(thirds[p] + thirds[mask ^ p] for p in submasks(mask, proper=True))
            thirds[mask] = best - 1 - rng.randrange(3)
    return make_game(n, {mask: Fraction(t, 3) for mask, t in thirds.items()})


# ---------------------------------------------------------------------------
# naive oracles shared by the stability and acceptance tests; these restate
# the definitions with literal quantifiers instead of the library's DP


def naive_weak_core_contains(game, shares):
    if not boundary_contains(game, game.grand, shares):
        return False
    sums = {c: sum(shares[i] for i in members(c)) for c in range(1, 1 << game.n)}
    v_n = game.values[game.grand]
    for partition in enumerate_partitions(game.n):
        if partition == (game.grand,):
            continue
        if all(not geq(v_n * sums[c], game.values[c], game.tol) for c in partition):
            return False
    return True


def fusion_resistant_by_total(game, partition):
    """Reference for stability.fusion_resistant: the summed block value
    does not increase into any strict coarsening.  (Group differences
    telescope into single-merger differences, so the two agree.)"""
    check_partition(game.n, partition)
    values = game.values
    tol = game.tol
    total = sum(values[b] for b in partition)
    for coarser in fusion_neighborhood(tuple(partition)):
        if not geq(total, sum(values[b] for b in coarser), tol):
            return False
    return True


def naive_set_partitions(items):
    """Every partition of a list, as lists of lists, by placing the first
    item alone or into a block of a partition of the rest."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for blocks in naive_set_partitions(rest):
        yield [[first], *blocks]
        for j in range(len(blocks)):
            yield [*blocks[:j], [first, *blocks[j]], *blocks[j + 1 :]]


def naive_cover(game, block):
    """Reference for the superadditive cover: ``(w, pieces)``, the largest
    total Fraction value of a partition of the block's members, by listing
    every partition, and the first partition (as masks) reaching it."""
    best = None
    for blocks in naive_set_partitions(members(block)):
        pieces = [sum(1 << i for i in piece) for piece in blocks]
        total = sum(Fraction(game.values[c]) for c in pieces)
        if best is None or total > best[0]:
            best = total, pieces
    return best


def naive_fusion_resistant(game, partition):
    """Reference for the fusion verdict of an exact game: for every set of
    two or more blocks, listed as a bitmask over the blocks, the blocks'
    Fraction values summed cover their union's value."""
    value = lambda c: Fraction(game.values[c])
    for chosen in range(1, 1 << len(partition)):
        picked = [b for j, b in enumerate(partition) if chosen >> j & 1]
        if len(picked) > 1 and sum(map(value, picked)) < value(sum(picked)):
            return False
    return True


def remap_local(local_mask, mem):
    out = 0
    for j, i in enumerate(mem):
        if local_mask >> j & 1:
            out |= 1 << i
    return out


def naive_fission_resistant(game, partition, shares, kind):
    sums = {c: sum(shares[i] for i in members(c)) for c in range(1, 1 << game.n)}
    for block in partition:
        mem = members(block)
        if len(mem) < 2:
            continue
        v_b = game.values[block]

        def covered(piece):
            return geq(v_b * sums[piece], game.values[piece], game.tol)

        if kind == STRONG:
            for local in range(1, (1 << len(mem)) - 1):
                if not covered(remap_local(local, mem)):
                    return False
        else:
            for local_part in enumerate_partitions(len(mem)):
                pieces = [remap_local(q, mem) for q in local_part]
                if pieces == [block]:
                    continue
                if not any(covered(p) for p in pieces):
                    return False
    return True


def naive_sample_boundary(game, coalition, rng):
    """Reference for games.sample_boundary: on exact games lower bounds and
    leftover as Fractions, one Fraction sum and product per share; on float
    games the float formula, everything derived afresh on each call."""
    mem = members(coalition)
    k = len(mem)
    if k == 1:
        return (1,) if game.mode == "exact" else (1.0,)
    v_c = game.values[coalition]
    if game.mode != "exact":
        lbs = [game.values[1 << i] / v_c for i in mem]
        s = 1.0 - sum(lbs)
        if s < 0:
            return tuple(lbs) if geq(1.0, sum(lbs), game.tol) else None
        cuts = sorted(rng.random() for _ in range(k - 1))
        cuts = [0.0] + cuts + [1.0]
        return tuple(lb + s * (cuts[j + 1] - cuts[j]) for j, lb in enumerate(lbs))
    lbs = [Fraction(game.values[1 << i]) / Fraction(v_c) for i in mem]
    s = 1 - sum(lbs)
    if s < 0:
        return None
    grain = 1 << 20
    cuts = sorted(rng.randrange(grain + 1) for _ in range(k - 1))
    cuts = [0] + cuts + [grain]
    return tuple(lb + s * Fraction(cuts[j + 1] - cuts[j], grain) for j, lb in enumerate(lbs))


def _at_pair_tol(g1, g2):
    """g2 with its predicates at the pair's combined tolerance."""
    return dataclasses.replace(g2, tol=combined_tol(g1, g2))


def naive_dominated(g1, g2, block):
    """Whether an exact pair settles the block without samples: for every
    nonempty proper part C of the block B, v2(C)/v2(B) <= v1(C)/v1(B) as
    Fraction ratios.  A block of one player has no part.  Float and mixed
    pairs settle no block."""
    if not g1.mode == g2.mode == "exact":
        return False

    def ratio(game, c):
        return Fraction(game.values[c]) / Fraction(game.values[block])

    return all(ratio(g2, c) <= ratio(g1, c) for c in range(1, block) if c & block == c)


def naive_sampled_block(g1, g2, block, rng, samples, table):
    """One block of claim 4 of centripetality.verify_theorem1 judged one
    candidate at a time: the witnesses of g1's block table ``table``
    (strong, then a different weak one), then naive_sample_boundary draws,
    each padded with the share 1 on every other player and judged on the
    block with singletons, each kind on its own, as claim 4 defines a
    solution of each game: by solution_feasible and naive_fission_resistant
    under g1, and then under g2 at the pair's combined tolerance.  Returns
    per kind the candidates g1 puts in its core up to the first one g2
    refuses, and that refusal's text (None when there is none)."""
    from fracgame.centripetality import _fmt_point
    from fracgame.games import solution_feasible
    from fracgame.partitions import make_partition

    n = g1.n
    g2 = _at_pair_tol(g1, g2)
    others = [1 << i for i in range(n) if not block >> i & 1]
    partition = make_partition([block, *others], n)
    local = []
    for kind in (stability.STRONG, stability.WEAK):
        region = table[block, kind]
        if region.status == stability.NONEMPTY and region.witness not in local:
            local.append(region.witness)
    local += [naive_sample_boundary(g1, block, rng) for _ in range(samples)]
    candidates = []
    for point in local:
        shares = [1] * n
        for i, x in zip(members(block), point):
            shares[i] = x
        candidates.append(shares)

    def in_core(game, f, kind):
        return solution_feasible(game, partition, f) and naive_fission_resistant(game, partition, f, kind)

    found = {}
    for kind in (stability.STRONG, stability.WEAK):
        checked, refused = 0, None
        for f in candidates:
            if not in_core(g1, f, kind):
                continue
            checked += 1
            if not in_core(g2, f, kind):
                refused = f"{kind} partition {partition} point {_fmt_point(f)}"
                break
        found[kind] = checked, refused
    return found


def naive_theorem_fission_claim(g1, g2, *, samples, seed):
    """Reference for claim 4 of centripetality.verify_theorem1, in its rng
    order: per block of two or more players with a nonempty g1 split set,
    in ascending mask order, a block naive_dominated settles is counted and
    skipped, and every other one is judged by naive_sampled_block.  The
    scope names the settled blocks: all of them on an exact pair that
    samples none, else their count ahead of the sampled counts."""
    from fracgame.centripetality import ClaimResult

    rng = random.Random(seed)
    table = stability.BlockTable(g1)
    checked = {stability.STRONG: 0, stability.WEAK: 0}
    dominated = sampled = 0
    failures = []
    for block in range(1, 1 << g1.n):
        if block.bit_count() < 2 or boundary_empty(g1, block):
            continue
        if naive_dominated(g1, g2, block):
            dominated += 1
            continue
        sampled += 1
        found = naive_sampled_block(g1, g2, block, rng, samples, table)
        for kind, (count, refused) in found.items():
            checked[kind] += count
            if refused is not None:
                failures.append(refused)
    scope = f"witness+sampled(strong={checked[stability.STRONG]},weak={checked[stability.WEAK]})"
    if g1.mode == g2.mode == "exact" and not sampled:
        scope = "constraintwise-blocks"
    elif dominated:
        scope = f"constraintwise({dominated})+{scope}"
    return ClaimResult("fission-resistant-solutions", not failures, scope, "; ".join(failures[:3]))


def naive_corollary_weak_sampled(g1, g2, *, samples, seed):
    """The weak-core claim of centripetality.verify_corollary judged on
    samples, in its rng order: the grand split set's vertices, the g1
    weak-core witness and naive_sample_boundary draws, each point judged by
    boundary_contains and naive_weak_core_contains under g1 and then under
    g2 at the pair's combined tolerance."""
    from fracgame.centripetality import ClaimResult, _fmt_point

    rng = random.Random(seed)
    g2 = _at_pair_tol(g1, g2)
    candidates = split_vertices(g1, g1.grand)
    region = stability.core_region(g1, stability.WEAK)
    if region.status == stability.NONEMPTY:
        candidates.append(region.witness)
    for _ in range(samples):
        f = naive_sample_boundary(g1, g1.grand, rng)
        if f is not None:
            candidates.append(f)

    def in_weak_core(game, f):
        return boundary_contains(game, game.grand, f) and naive_weak_core_contains(game, f)

    checked = 0
    failures = []
    for f in candidates:
        if not in_weak_core(g1, f):
            continue
        checked += 1
        if not in_weak_core(g2, f):
            failures.append(_fmt_point(f))
            break
    return ClaimResult(
        "weak-core-inclusion", not failures, f"witness+sampled({checked})", "; ".join(failures)
    )


def naive_corollary_weak_claim(g1, g2, *, samples, seed):
    """Reference for the weak-core claim of centripetality.verify_corollary:
    included as it stands when naive_dominated settles the grand block,
    else naive_corollary_weak_sampled."""
    from fracgame.centripetality import ClaimResult

    if naive_dominated(g1, g2, g1.grand):
        return ClaimResult("weak-core-inclusion", True, "constraintwise")
    return naive_corollary_weak_sampled(g1, g2, samples=samples, seed=seed)


def naive_stable_sets(game, *, patched_out=None):
    """Per-partition reference for stability.stable_sets: every block of
    every partition decided afresh by core_region on its subgame, and the
    patched status and witness aggregated block by block.  The records'
    cores carry the oracle's status but derive their own witness from the
    block regions, so the oracle's pair goes into ``patched_out``, when
    given, keyed by (partition, kind)."""
    from fracgame.games import game_digest, subgame

    def patched(partition, kind):
        regions = []
        shares = [None] * game.n
        status = stability.NONEMPTY
        for block in partition:
            region = stability.core_region(subgame(game, block), kind)
            regions.append(region)
            if region.status == stability.EMPTY:
                status = stability.EMPTY
            elif region.witness is not None:
                for j, i in enumerate(members(block)):
                    shares[i] = region.witness[j]
        witness = tuple(shares) if status == stability.NONEMPTY else None
        if patched_out is not None:
            patched_out[partition, kind] = status, witness
        return stability.PatchedCore(partition, tuple(regions), status)

    records = tuple(
        stability.PartitionRecord(
            partition,
            patched(partition, stability.STRONG),
            patched(partition, stability.WEAK),
            stability.fusion_resistant(game, partition),
        )
        for partition in enumerate_partitions(game.n)
    )
    return stability.StabilityReport(game.n, game.players, game_digest(game), records)


def naive_report_dict(report):
    """Reference for StabilityReport.json_text: the report's dict as it was
    built before the writer, field by field from the records, each witness
    encoded afresh.  ``json.dumps(naive_report_dict(r), sort_keys=True,
    indent=2) + "\\n"`` is the text the writer must produce."""
    from fracgame.games import json_number
    from fracgame.partitions import partition_label
    from fracgame.stability import STRONG, WEAK

    self = report  # the former method body, unchanged
    label = lambda p: partition_label(p, self.players)

    def witness(w) -> list | None:
        return None if w is None else [json_number(x) for x in w]

    def region(r) -> dict:
        return {"status": r.status, "method": r.method, "witness": witness(r.witness)}

    def patched(p) -> dict:
        return {
            "status": p.status,
            "witness": witness(p.witness),
            "blocks": [region(b) for b in p.block_regions],
        }

    def stable(kind: str) -> list[dict]:
        return [{"partition": label(p), "witness": witness(w)} for p, w in self.stable(kind)]

    records = [
        {
            "partition": label(r.partition),
            "strong": patched(r.strong),
            "weak": patched(r.weak),
            "fusion_resistant": r.fusion_resistant,
        }
        for r in self.records
    ]
    most = self.most_consolidated(WEAK)
    return {
        "players": list(self.players),
        "game": self.digest,
        "partitions": records,
        "patched_strong_nonempty": [label(p) for p in self.partitions_with(STRONG)],
        "patched_weak_nonempty": [label(p) for p in self.partitions_with(WEAK)],
        "fusion_resistant": [label(p) for p in self.fusion_resistant_partitions()],
        "stable_strong": stable(STRONG),
        "stable_weak": stable(WEAK),
        # every weak core is decided; the field stays in the schema
        "weak_unknown": [],
        "most_consolidated_weak": None if most is None else label(most),
    }


def naive_csv_rows(report):
    """Reference for StabilityReport.csv_rows: every label and witness of
    every partition stringified afresh."""
    from fracgame.partitions import partition_label
    from fracgame.stability import NONEMPTY

    self = report  # the former method body, unchanged
    header = [
        "partition",
        "blocks",
        "in_patched_strong",
        "in_patched_weak",
        "fusion_resistant",
        "stable_strong",
        "stable_weak",
        "weak_status",
        "witness_strong",
        "witness_weak",
    ]
    rows = [header]
    for r in self.records:
        strong_ok = r.strong.status == NONEMPTY
        weak_ok = r.weak.status == NONEMPTY
        wit = lambda w: "" if w is None else " ".join(str(x) for x in w)
        rows.append(
            [
                partition_label(r.partition, self.players),
                len(r.partition),
                strong_ok,
                weak_ok,
                r.fusion_resistant,
                strong_ok and r.fusion_resistant,
                weak_ok and r.fusion_resistant,
                r.weak.status,
                wit(r.strong.witness),
                wit(r.weak.witness),
            ]
        )
    return rows


def naive_sweep_point(args, label, game, extra):
    """Reference for cli._sweep_point: every partition judged on its own,
    with no type walk, block table or closed form.  A block's strong core
    is nonempty iff ``CoreRows`` solves its whole strong-core system (a
    lone player's always is), and its weak core iff its strong one is or
    the exact weak search finds a point, each decided once per block
    content; fusion is the public predicate's verdict."""
    from fracgame.games import game_digest, subgame
    from fracgame.partitions import partition_label
    from fracgame.stability import EMPTY, NONEMPTY, STRONG, WEAK

    decided = {}

    def block_statuses(block):
        sub = subgame(game, block)
        found = decided.get(sub.values)
        if found is None:
            strong = sub.n == 1 or stability.CoreRows(sub).solve(range(1, sub.grand)) is not None
            root = None if strong else split_point(sub, sub.grand, 0)
            weak = strong or root is not None and stability._weak_region_exact(sub, root)[1] == NONEMPTY
            found = decided[sub.values] = strong, weak
        return found

    counts = dict.fromkeys(("patched_strong", "patched_weak", "fusion_resistant"), 0)
    stable = {STRONG: [], WEAK: []}
    core = None
    for partition in enumerate_partitions(game.n, args.cap):
        by_block = [block_statuses(b) for b in partition]
        patched = {STRONG: all(s for s, _ in by_block), WEAK: all(w for _, w in by_block)}
        fused = stability.fusion_resistant(game, partition)
        if core is None:
            core = {kind: NONEMPTY if ok else EMPTY for kind, ok in patched.items()}
        counts["patched_strong"] += patched[STRONG]
        counts["patched_weak"] += patched[WEAK]
        counts["fusion_resistant"] += fused
        for kind, ok in patched.items():
            if ok and fused:
                stable[kind].append(partition)
    labels = {kind: [partition_label(p, game.players) for p in stable[kind]] for kind in stable}
    fewest = min(map(len, stable[WEAK]), default=None)
    consolidated = min(
        (lab for p, lab in zip(stable[WEAK], labels[WEAK]) if len(p) == fewest), default=None
    )
    counts.update(stable_strong=len(stable[STRONG]), stable_weak=len(stable[WEAK]), unknown_weak=0)
    point = {
        "label": label,
        "digest": game_digest(game),
        "counts": counts,
        "core": core,
        "stable_strong": labels[STRONG],
        "stable_weak": labels[WEAK],
        "most_consolidated": consolidated,
    }
    point.update(extra)
    return point


def naive_weak_region_exact(game):
    """Verdict oracle for stability._weak_region_exact: the partition walk
    it replaced, kept verbatim.  It walks all Bell(n)-1 non-grand partitions
    in enumeration order, commits one block of each, and recurses once per
    partition, so it is slow past n=4 and overflows the stack near n=8."""
    from fracgame.games import coalitions

    CoreRegion, EMPTY, NONEMPTY = stability.CoreRegion, stability.EMPTY, stability.NONEMPTY
    n = game.n
    full = game.grand
    v_n = Fraction(game.values[full])
    ratio = {c: Fraction(game.values[c]) / v_n for c in coalitions(n) if c != full}
    lower = [Fraction(game.values[1 << i]) / v_n for i in range(n)]
    base = linfeas.linear_system(n, lower)
    start = linfeas.feasible(base)
    if start is None:
        return CoreRegion(EMPTY, None, "boundary")
    parts = [p for p in enumerate_partitions(n) if len(p) > 1]

    def point_satisfies(point, sums_cache, c):
        total = sums_cache.get(c)
        if total is None:
            total = sum(point[i] for i in members(c))
            sums_cache[c] = total
        return total >= ratio[c]

    def system_for(committed):
        hs = [(1, c, ratio[c]) for c in sorted(committed)]
        return linfeas.linear_system(n, base.lower, hs)

    failed: set[tuple[int, frozenset]] = set()

    def search(idx, committed, point, sums_cache):
        if idx == len(parts):
            return committed, point
        blocks = parts[idx]
        if any(b in committed for b in blocks):
            return search(idx + 1, committed, point, sums_cache)
        ordered = sorted(blocks, key=lambda b: not point_satisfies(point, sums_cache, b))
        for b in ordered:
            nxt = committed | {b}
            key = (idx + 1, nxt)
            if key in failed:
                continue
            if point_satisfies(point, sums_cache, b):
                result = search(idx + 1, nxt, point, sums_cache)
            else:
                fresh = linfeas.feasible(system_for(nxt))
                if fresh is None:
                    failed.add(key)
                    continue
                result = search(idx + 1, nxt, fresh, {})
            if result is not None:
                return result
            failed.add(key)
        return None

    result = search(0, frozenset(), start, {})
    if result is None:
        return CoreRegion(EMPTY, None, "exact-search")
    return CoreRegion(NONEMPTY, stability._finish_witness(game, result[1]), "exact-search")


# ---------------------------------------------------------------------------
# frozen Fraction simplex: the two-phase solver linfeas used before its
# tableau moved to integer rows, kept verbatim (helpers renamed) so the
# integer solver is checked against an independent implementation of the
# same pivot rule: standard form with one surplus column per inequality and
# one artificial column per row, most-negative entering column, ratio ties
# broken by basis index, Bland's rule after a pivot budget.

_F0 = Fraction(0)
_F1 = Fraction(1)


def _naive_pivot(tab, basis, row, col) -> None:
    prow = tab[row]
    piv = prow[col]
    if piv != 1:
        inv = 1 / piv
        tab[row] = prow = [v * inv for v in prow]
    for i, other in enumerate(tab):
        if i == row:
            continue
        factor = other[col]
        if factor:
            tab[i] = [a - factor * b for a, b in zip(other, prow)]
    basis[row] = col


def _naive_pivot_loop(tab, obj, basis, candidates) -> str:
    m = len(tab)
    iters = 0
    bland_after = 64 + 8 * (m + len(candidates))
    while True:
        iters += 1
        bland = iters > bland_after
        enter = -1
        best = _F0
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
        best_ratio = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            return "unbounded"
        _naive_pivot(tab, basis, leave, enter)
        delta = obj[enter]
        if delta:
            prow = tab[leave]
            for j in range(len(obj)):
                obj[j] -= delta * prow[j]


def _naive_phase_one(a_rows, b_vals, n):
    """Phase 1 of the simplex on A x = b, x >= 0 over n columns.

    Returns (tab, basis): a tableau in a feasible basis of structural
    columns, with redundant rows and the artificial columns removed, so each
    row is n coefficients plus its right-hand side.  None when infeasible.
    """
    m = len(a_rows)
    tab = []
    for i in range(m):
        row = list(a_rows[i])
        rhs = b_vals[i]
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
        art = [_F0] * m
        art[i] = _F1
        tab.append(row + art + [rhs])
    basis = list(range(n, n + m))
    obj = [_F0] * (n + m + 1)
    for row in tab:
        for j in range(n):
            obj[j] -= row[j]
        obj[-1] -= row[-1]
    status = _naive_pivot_loop(tab, obj, basis, range(n + m))
    if status != "optimal":  # pragma: no cover - phase 1 is always bounded
        raise NumericFailure("phase-1 simplex reported unbounded")
    if -obj[-1] > 0:
        return None
    # drive zero-level artificials out of the basis; drop redundant rows
    for i in range(m - 1, -1, -1):
        if basis[i] < n:
            continue
        col = next((j for j in range(n) if tab[i][j] != 0), None)
        if col is None:
            del tab[i]
            del basis[i]
        else:
            _naive_pivot(tab, basis, i, col)
    return [row[:n] + row[-1:] for row in tab], basis


def _naive_phase_two(tab, basis, cost, candidates):
    """Minimize cost.x from the tableau's current feasible basis, entering
    only the given columns.  Pivots in place; returns (status, obj), where
    obj holds the final reduced costs."""
    obj = list(cost) + [_F0]
    for i, bi in enumerate(basis):
        cb = cost[bi]
        if cb:
            row = tab[i]
            for j in range(len(obj)):
                obj[j] -= cb * row[j]
    return _naive_pivot_loop(tab, obj, basis, candidates), obj


def _naive_basic_point(tab, basis, n):
    x = [_F0] * n
    for i, bi in enumerate(basis):
        x[bi] = tab[i][-1]
    return x


def naive_two_phase(a_rows, b_vals, cost):
    """Returns (status, x) with status 'optimal'|'infeasible'|'unbounded'."""
    n = len(cost)
    found = _naive_phase_one(a_rows, b_vals, n)
    if found is None:
        return "infeasible", None
    tab, basis = found
    status, _ = _naive_phase_two(tab, basis, cost, range(n))
    if status == "unbounded":
        return "unbounded", None
    return "optimal", _naive_basic_point(tab, basis, n)


# ---------------------------------------------------------------------------
# system-level solving (variables shifted to x = f - lower >= 0)


def _naive_assemble(system: linfeas.LinearSystem, slack_var: bool):
    """Equality/inequality rows over nv variables: the dim shifted shares,
    plus one trailing slack variable when requested.  The one equality is
    the split: the shifted shares sum to 1 - sum(lower)."""
    dim = system.dim
    nv = dim + 1 if slack_var else dim
    eqs = [([_F1] * dim + [_F0] * (nv - dim), _F1 - sum(system.lower))]
    ges = []
    for h in system.halfspaces:
        row = [_F0] * nv
        shift = _F0
        for i in members(h.support):
            row[i] = h.coef
            shift += system.lower[i]
        if slack_var:
            row[dim] = -_F1
        ges.append((row, h.rhs - h.coef * shift))
    if slack_var:
        for i in range(dim):
            row = [_F0] * nv
            row[i] = _F1
            row[dim] = -_F1
            ges.append((row, _F0))
    return nv, eqs, ges


def _naive_standard_form(nv, eqs, ges):
    """Rows and right-hand sides of A x = b, x >= 0: one surplus column per
    inequality after the nv variables."""
    rows = []
    rhs = []
    ns = len(ges)
    for coefs, b in eqs:
        rows.append(list(coefs) + [_F0] * ns)
        rhs.append(b)
    for k, (coefs, b) in enumerate(ges):
        row = list(coefs) + [_F0] * ns
        row[nv + k] = -_F1
        rows.append(row)
        rhs.append(b)
    return rows, rhs


def _naive_lp(nv, eqs, ges, cost):
    rows, rhs = _naive_standard_form(nv, eqs, ges)
    status, x = naive_two_phase(rows, rhs, list(cost) + [_F0] * len(ges))
    if status == "optimal":
        return status, x[:nv]
    return status, None


def naive_satisfies(system: linfeas.LinearSystem, point) -> bool:
    """Reference for linfeas.satisfies without tolerance: one Fraction sum
    for the split and one per halfspace, each constraint compared as it
    reads."""
    if len(point) != system.dim:
        return False
    if any(x < lb for x, lb in zip(point, system.lower)):
        return False
    if sum(point) != 1:
        return False
    return all(
        h.coef * sum(point[i] for i in members(h.support)) >= h.rhs for h in system.halfspaces
    )


def naive_feasible(system: linfeas.LinearSystem) -> tuple | None:
    """A feasible point (exact Fractions) or None.  Any returned point is
    re-checked against every constraint before being handed back."""
    nv, eqs, ges = _naive_assemble(system, slack_var=False)
    status, x = _naive_lp(nv, eqs, ges, [_F0] * nv)
    if status != "optimal":
        return None
    point = tuple(xi + lb for xi, lb in zip(x, system.lower))
    if not linfeas.satisfies(system, point):  # pragma: no cover - solver contract
        raise NumericFailure("simplex returned a point violating the system")
    return point


def naive_minimize(system: linfeas.LinearSystem, cost):
    """Minimize sum(cost[i]*f_i); returns (value, point) or None when the
    system is infeasible.  Raises on an unbounded objective."""
    if len(cost) != system.dim:
        raise ValueError("cost vector length must match dim")
    cvec = [linfeas._frac(c) for c in cost]
    nv, eqs, ges = _naive_assemble(system, slack_var=False)
    status, x = _naive_lp(nv, eqs, ges, cvec)
    if status == "infeasible":
        return None
    if status == "unbounded":
        raise NumericFailure("objective unbounded below")
    point = tuple(xi + lb for xi, lb in zip(x, system.lower))
    value = sum(c * f for c, f in zip(cvec, point))
    return value, point


def naive_warm_max_slack_point(system: linfeas.LinearSystem):
    """The feasible point maximizing the minimum constraint slack, with ties
    broken by lexicographic minimality; returns (point, slack).

    Slack of a lower bound is f_i - lb_i; slack of a halfspace is
    coef*sum - rhs.  Raises InfeasibleSystem when nothing is feasible.

    One phase 1, then dim+1 phase-2 stages on the same tableau: maximize the
    slack t, then minimize f_0, ..., f_{dim-1} in turn.  Each stage starts
    from the previous optimal basis.  A nonbasic column with positive reduced
    cost is zero on every optimal point of its stage, so dropping it from
    the entering candidates keeps exactly the optimal face.
    """
    dim = system.dim
    nv, eqs, ges = _naive_assemble(system, slack_var=True)
    rows, rhs = _naive_standard_form(nv, eqs, ges)
    ncols = nv + len(ges)
    found = _naive_phase_one(rows, rhs, ncols)
    if found is None:
        raise InfeasibleSystem("system has no feasible point")
    tab, basis = found
    candidates = list(range(ncols))
    for var, sign in [(dim, -_F1)] + [(i, _F1) for i in range(dim)]:
        cost = [_F0] * ncols
        cost[var] = sign
        status, obj = _naive_phase_two(tab, basis, cost, candidates)
        # only the slack stage can be unbounded: later stages minimize a
        # nonnegative variable
        if status == "unbounded":
            raise NumericFailure("slack unbounded; every variable needs a block")
        candidates = [j for j in candidates if obj[j] == 0]
    x = _naive_basic_point(tab, basis, ncols)
    point = tuple(x[i] + system.lower[i] for i in range(dim))
    if not linfeas.satisfies(system, point):  # pragma: no cover - solver contract
        raise NumericFailure("simplex returned a point violating the system")
    return point, x[dim]


def naive_max_slack_point(system):
    """Cold sequential reference for linfeas.max_slack_point: one full
    frozen two-phase solve per lexicographic stage, each adding the previous
    stage's optimum as an equality row."""
    dim = system.dim
    nv, eqs, ges = _naive_assemble(system, slack_var=True)
    cost = [Fraction(0)] * nv
    cost[dim] = Fraction(-1)
    status, x = _naive_lp(nv, eqs, ges, cost)
    if status == "infeasible":
        raise InfeasibleSystem("system has no feasible point")
    if status == "unbounded":
        raise NumericFailure("slack unbounded; every variable needs a block")

    def unit_row(i):
        row = [Fraction(0)] * nv
        row[i] = Fraction(1)
        return row

    slack = x[dim]
    fixed = [(unit_row(dim), slack)]
    for i in range(dim):
        cost = [Fraction(0)] * nv
        cost[i] = Fraction(1)
        status, x = _naive_lp(nv, eqs + fixed, ges, cost)
        assert status == "optimal"
        fixed.append((unit_row(i), x[i]))
    point = tuple(x[i] + system.lower[i] for i in range(dim))
    return point, slack


def naive_packing_point(dim, rows):
    """Cold sequential reference for linfeas.packing_point with every row
    (support, cap) listed: one full frozen two-phase solve per stage
    (maximize sum(x), then minimize x_0, ..., x_{dim-2}), each adding the
    previous stage's optimum as an equality row."""
    ges = [([-Fraction(s >> j & 1) for j in range(dim)], Fraction(-cap)) for s, cap in rows]
    costs = [[Fraction(-1)] * dim] + [[Fraction(j == i) for j in range(dim)] for i in range(dim - 1)]
    fixed = []
    for cost in costs:
        status, x = _naive_lp(dim, fixed, ges, cost)
        assert status == "optimal"
        fixed.append((cost, sum(c * v for c, v in zip(cost, x))))
    return tuple(x)


def naive_generate_rows(base: linfeas.LinearSystem, price, solve=None):
    """linfeas.max_slack_point priced by ``price``, with every round solved
    cold on its restricted system (``base`` plus the rows taken in, in key
    order) by the unpriced solver ``solve`` (default: the library's
    ``linfeas.max_slack_point``), so a test can hand every round to the
    frozen solvers.  ``price`` sees each round's Fraction point and slack
    as integer terms over their common denominator."""
    solve = solve or linfeas.max_slack_point
    taken = {}
    while True:
        rows = tuple(taken[k] for k in sorted(taken))
        restricted = linfeas.LinearSystem(base.dim, base.lower, base.halfspaces + rows)
        found = point, t = solve(restricted)
        scale = math.lcm(*(x.denominator for x in (*point, t)))
        terms = [x.numerator * scale // x.denominator for x in point]
        row = price(terms, scale, t.numerator * scale // t.denominator)
        if row is None:
            return found
        taken[row[0]] = row[1]


def outcome(solve, system):
    """What ``solve`` returns on the system, or None when it raises
    InfeasibleSystem."""
    try:
        return solve(system)
    except InfeasibleSystem:
        return None


_raw_nodes, _raw_weights = np.polynomial.legendre.leggauss(32)
_GL_NODES = tuple(float(x) for x in _raw_nodes)
_GL_WEIGHTS = tuple(float(x) for x in _raw_weights)


def _columns(knots):
    return [a for a, _ in knots], [v for _, v in knots]


def naive_interp(knots, x):
    return _interp_columns(*_columns(knots), x)


def _interp_columns(knots_x, knots_y, x):
    j = bisect.bisect_right(knots_x, x) - 1
    if j >= len(knots_x) - 1:
        return knots_y[-1]
    x0, x1 = knots_x[j], knots_x[j + 1]
    y0, y1 = knots_y[j], knots_y[j + 1]
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def naive_empirical_knots(samples, knot_count):
    """Knots of ``risk.empirical_curve`` by the scalar loop: the empirical
    quantile at each level, held at the previous level where it dips."""
    betas = [j / (knot_count - 1) for j in range(knot_count)]
    knots, prev = [], None
    for b, q in zip(betas, np.quantile(np.array([float(x) for x in samples]), betas)):
        q = float(q)
        if prev is not None and q < prev:
            q = prev
        knots.append((b, q))
        prev = q
    return tuple(knots)


def naive_cvar(curve, alpha):
    return _cvar_columns(*_columns(curve.knots), [float(p) for p in curve.prefix], alpha)


def _cvar_columns(betas, vals, prefix, alpha):
    x = 1.0 - alpha
    j = bisect.bisect_right(betas, x) - 1
    if j >= len(betas) - 1:
        return prefix[-1] / x
    dx = x - betas[j]
    slope = (vals[j + 1] - vals[j]) / (betas[j + 1] - betas[j])
    return (prefix[j] + vals[j] * dx + 0.5 * slope * dx * dx) / x


def naive_mixture_reward(curve, density):
    """Scalar reference for risk.mixture_reward: one Python float per
    quadrature node, summed left to right, evaluating the tail average and
    the density from knot lists read once per call at every node."""
    betas, vals = _columns(curve.knots)
    prefix = [float(p) for p in curve.prefix]
    density_x, density_y = _columns(density.knots)
    points = {0.0, 1.0}
    points.update(1.0 - b for b in betas)
    points.update(density_x)
    grid = sorted(x for x in points if 0.0 <= x <= 1.0)
    total = 0.0
    for a, b in zip(grid, grid[1:]):
        width = b - a
        if width <= 0:
            continue
        panels = max(1, math.ceil(width / 0.0625))
        for p in range(panels):
            lo = a + width * p / panels
            hi = a + width * (p + 1) / panels
            mid = 0.5 * (lo + hi)
            half = 0.5 * (hi - lo)
            for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
                alpha = mid + half * node
                total += weight * half * _cvar_columns(betas, vals, prefix, alpha) * _interp_columns(
                    density_x, density_y, alpha
                )
    return float(total)


def naive_verify_prop2(curves, d1, d2, *, grid=21, tol=DEFAULT_TOL):
    """Reference for one link of risk.verify_prop2_chain: the pairwise check
    as one loop.  Builds both games and orders them, then compares every
    nested coalition pair's scalar tail averages at every grid step, with
    nothing shared between pairs or links."""
    tail = risk.check_tail_dominance(curves, tol)
    likelihood = risk.leq_lr(d1, d2, tol)
    g1 = risk.build_cvar_game(curves, d1, tol=tol)
    g2 = risk.build_cvar_game(curves, d2, tol=tol)
    order = leq_cp(g1, g2)
    alphas = [j / grid for j in range(grid)]
    violations = []
    checks = 0
    for outer in sorted(curves):
        for inner in submasks(outer, proper=True):
            if inner not in curves:
                continue
            for t in range(grid - 1):
                checks += 1
                lo = [naive_cvar(curves[inner], a) for a in alphas[t : t + 2]]
                hi = [naive_cvar(curves[outer], a) for a in alphas[t : t + 2]]
                if not leq(hi[0] * lo[1], hi[1] * lo[0], tol):
                    violations.append(
                        f"tail-average ratio drops on ({inner:#x},{outer:#x}) "
                        f"at alpha={alphas[t]:.3f}"
                    )
    if not order.holds:
        violations.append("mixture games are not ordered")
    return risk.Prop2Report(tail, likelihood, order, checks, tuple(violations))
