"""Independent checks of what each benchmark op prints.

Every check re-derives its verdict from the inputs the benchmark generated,
with the code in this file only: exact ``Fraction`` arithmetic for exact
games, the game's stated tolerance for float games.  fracgame's own
predicates are never used as the oracle.

``check(op, code, out)`` returns a list of problems; an empty list means the
op's output is correct.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
from fractions import Fraction
from itertools import combinations

from workloads import PLAYERS, label

GAME_TOL = 1e-9  # the CLI's default tolerance for scenario-built games
CLOSED_FORM_TOL = 1e-8  # what ``verify prop2`` promises for its closed forms


# ---------------------------------------------------------------------------
# arithmetic and combinatorics


def geq(a, b, tol: float = 0.0) -> bool:
    """a >= b, slackened by tol*max(1, |a|, |b|): the float-mode rule."""
    if tol:
        return a >= b - tol * max(1.0, abs(a), abs(b))
    return a >= b


def mask_of(text: str, players) -> int:
    index = {p: i for i, p in enumerate(players)}
    mask = 0
    for name in text.split(","):
        mask |= 1 << index[name]
    return mask


def blocks_of(partition_label: str, players) -> list[int]:
    return [mask_of(part, players) for part in partition_label.split("|")]


def bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


_SET_PARTITIONS: dict[int, list] = {}


def set_partitions(k: int) -> list[list[list[int]]]:
    """Every partition of range(k), as lists of index lists."""
    if k not in _SET_PARTITIONS:
        if k == 0:
            out = [[]]
        else:
            out = []
            for part in set_partitions(k - 1):
                for j in range(len(part)):
                    out.append(part[:j] + [part[j] + [k - 1]] + part[j + 1:])
                out.append(part + [[k - 1]])
        _SET_PARTITIONS[k] = out
    return _SET_PARTITIONS[k]


def partitions_of(mask: int) -> list[list[int]]:
    mem = bits(mask)
    return [
        [sum(1 << mem[i] for i in piece) for piece in part]
        for part in set_partitions(len(mem))
    ]


# ---------------------------------------------------------------------------
# stability witnesses


def block_witness_problem(values, block: int, shares, kind: str, tol: float = 0.0):
    """None when ``shares`` (indexed by player) restricted to ``block`` lies
    in the block's strong or weak core, else a description."""
    mem = bits(block)
    v_b = values[block]
    total = sum(shares[i] for i in mem)
    if not (geq(total, 1, tol) and geq(1, total, tol)):
        return f"block {block:#x} shares sum to {total}"
    for i in mem:
        if not geq(v_b * shares[i], values[1 << i], tol):
            return f"block {block:#x} not individually rational for player {i}"
    if len(mem) == 1:
        return None

    def covered(piece: int) -> bool:
        return geq(v_b * sum(shares[i] for i in bits(piece)), values[piece], tol)

    if kind == "strong":
        for size in range(1, len(mem)):
            for piece in combinations(mem, size):
                mask = sum(1 << i for i in piece)
                if not covered(mask):
                    return f"block {block:#x}: coalition {mask:#x} is not covered"
        return None
    for pieces in partitions_of(block):
        if len(pieces) >= 2 and not any(covered(p) for p in pieces):
            return f"block {block:#x}: split {pieces} blocks entirely"
    return None


def fusion_resistant(values, blocks, tol: float = 0.0) -> bool:
    """No union of two or more blocks is worth more than its parts."""
    for k in range(2, len(blocks) + 1):
        for combo in combinations(blocks, k):
            if not geq(sum(values[b] for b in combo), values[sum(combo)], tol):
                return False
    return True


def _parse_num(x):
    return Fraction(str(x)) if isinstance(x, (int, str)) else x


# ---------------------------------------------------------------------------
# per-command checks


def bell(n: int) -> int:
    return len(set_partitions(n))


def strong_empty_proof(values, block: int, tol: float = 0.0) -> int | None:
    """A proper piece P of ``block`` with v(P) + v(B minus P) > v(B), or None.
    Such a split proves the strong core empty: the two pieces' shares sum to
    1, so at least one of them is not covered."""
    v_b = values[block]
    piece = (block - 1) & block
    while piece:
        if not geq(v_b, values[piece] + values[block ^ piece], tol):
            return piece
        piece = (piece - 1) & block
    return None


def boundary_empty(values, block: int, tol: float = 0.0) -> bool:
    """Individual rationality cannot hold: the members' stand-alone values
    exceed v(B).  Then no share vector exists and both cores are empty."""
    return not geq(values[block], sum(values[1 << i] for i in bits(block)), tol)


def empty_claim_problem(values, block: int, kind: str, tol: float = 0.0):
    """None when the checker can prove ``block``'s core of ``kind`` empty,
    else a description.  Strong: a superadditive split; weak: an empty
    individually rational boundary.  An emptiness claim the checker cannot
    prove fails the op."""
    if boundary_empty(values, block, tol):
        return None
    if kind == "strong" and strong_empty_proof(values, block, tol) is not None:
        return None
    return f"block {block:#x}: {kind} core reported empty without a proof of emptiness"


def check_analyze(op, rep) -> list[str]:
    """Every block verdict is backed: a nonempty one by a witness that
    re-validates, an empty one by a proof; 'unknown' is never accepted (on
    these games every weak core is nonempty).  All Bell(n) partitions must
    be present, and every summary list must follow from the records."""
    values = op.expect["values"]
    n = op.expect["n"]
    players = rep["players"]
    problems = []
    if players != list(PLAYERS[:n]):
        return [f"players {players}"]
    full = (1 << n) - 1
    seen = set()
    nonempty = {"strong": [], "weak": []}
    fusion_list, stable = [], {"strong": [], "weak": []}
    for rec in rep["partitions"]:
        blocks = blocks_of(rec["partition"], players)
        key = frozenset(blocks)
        if sum(blocks) != full or any(a & b for a, b in combinations(blocks, 2)):
            problems.append(f"{rec['partition']} is not a partition")
            continue
        if key in seen:
            problems.append(f"{rec['partition']} is listed twice")
        seen.add(key)
        fusion = fusion_resistant(values, blocks)
        if rec["fusion_resistant"] != fusion:
            problems.append(f"{rec['partition']}: fusion verdict {rec['fusion_resistant']}")
        if fusion:
            fusion_list.append(rec["partition"])
        for kind in ("strong", "weak"):
            side = rec[kind]
            statuses = [b["status"] for b in side["blocks"]]
            if len(statuses) != len(blocks) or not set(statuses) <= {"empty", "nonempty"}:
                problems.append(f"{rec['partition']} {kind}: block statuses {statuses}")
                continue
            expected = "empty" if "empty" in statuses else "nonempty"
            if side["status"] != expected:
                problems.append(f"{rec['partition']} {kind}: status {side['status']}")
                continue
            for block, region in zip(blocks, side["blocks"]):
                if region["status"] == "empty":
                    why = empty_claim_problem(values, block, kind)
                    if why:
                        problems.append(f"{rec['partition']}: {why}")
            if expected != "nonempty":
                continue
            nonempty[kind].append(rec["partition"])
            shares = [_parse_num(x) for x in side["witness"]]
            for block, region in zip(blocks, side["blocks"]):
                local = [_parse_num(x) for x in region["witness"]]
                if local != [shares[i] for i in bits(block)]:
                    problems.append(f"{rec['partition']} {kind}: block witness differs")
                why = block_witness_problem(values, block, shares, kind)
                if why:
                    problems.append(f"{rec['partition']} {kind}: {why}")
            if fusion:
                stable[kind].append({"partition": rec["partition"], "witness": side["witness"]})
    if len(seen) != bell(n) or len(rep["partitions"]) != bell(n):
        problems.append(f"{len(rep['partitions'])} partition records, expected Bell({n}) = {bell(n)}")
    for kind in ("strong", "weak"):
        if rep[f"stable_{kind}"] != stable[kind]:
            problems.append(f"stable_{kind} list differs from the records")
        if rep[f"patched_{kind}_nonempty"] != nonempty[kind]:
            problems.append(f"patched_{kind}_nonempty list differs from the records")
    if rep["fusion_resistant"] != fusion_list:
        problems.append("fusion_resistant list differs from the records")
    if rep["weak_unknown"]:
        problems.append(f"weak_unknown {rep['weak_unknown']}")
    if rep["most_consolidated_weak"] != most_consolidated([e["partition"] for e in stable["weak"]]):
        problems.append(f"most_consolidated_weak {rep['most_consolidated_weak']}")
    return problems


def most_consolidated(labels):
    """Fewest blocks, ties broken by label: the CLI's rule, on its labels."""
    return min(labels, key=lambda t: (t.count("|") + 1, t)) if labels else None


def meanstd_values(n: int, mu: float, sigma: float, r: float) -> dict[int, float]:
    """Pooled-venture values s*mu - r*sqrt(s)*sigma, evaluated in the same
    float operations as the scenario definition, so they are bit-exact."""
    return {m: m.bit_count() * mu - r * math.sqrt(m.bit_count()) * sigma for m in range(1, 1 << n)}


def float_game_digest(n: int, values) -> str:
    payload = {
        "players": list(PLAYERS[:n]),
        "mode": "float",
        "tolerance": GAME_TOL,
        "values": {label(m): values[m] for m in range(1, 1 << n)},
    }
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def leq_cp(v1, v2, n: int, tol: float) -> bool:
    """Centripetal order by cross-multiplication over all nested pairs."""
    for outer in range(1, 1 << n):
        inner = (outer - 1) & outer
        while inner:
            if not geq(v2[outer] * v1[inner], v1[outer] * v2[inner], tol):
                return False
            inner = (inner - 1) & outer
    return True


def symmetric_block_status(values, block: int, kind: str, tol: float):
    """'nonempty' or 'empty' for a block of a symmetric game (v depends on
    coalition size only), or None when undecided.  The strong core is
    convex and invariant under permuting the members, so it is nonempty iff
    it holds the equal split.  The weak core contains the strong core, and
    is empty when individual rationality cannot hold."""
    size = block.bit_count()
    equal = [1.0 / size] * block.bit_length()
    if block_witness_problem(values, block, equal, "strong", tol) is None:
        return "nonempty"
    if kind == "strong" or boundary_empty(values, block, tol):
        return "empty"
    return None


def expected_sweep_point(n: int, values, tol: float):
    """The full answer of one sweep point, from the checker's own code:
    per partition, patched cores and fusion resistance; then the stable
    lists, counts, grand-coalition cores and most consolidated partition.
    Partitions are frozensets of block masks.  Raises ValueError for a game
    the symmetric rule cannot decide (none in this benchmark)."""
    full = (1 << n) - 1
    status = {}
    for block in range(1, full + 1):
        for kind in ("strong", "weak"):
            status[block, kind] = symmetric_block_status(values, block, kind, tol)
            if status[block, kind] is None:
                raise ValueError(f"undecided {kind} core of block {block:#x}")
    parts = [frozenset(p) for p in partitions_of(full)]
    patched = {
        kind: {p for p in parts if all(status[b, kind] == "nonempty" for b in p)}
        for kind in ("strong", "weak")
    }
    fusion = {p for p in parts if fusion_resistant(values, sorted(p), tol)}
    return {
        "patched": patched,
        "fusion": fusion,
        "stable": {kind: patched[kind] & fusion for kind in patched},
        "core": {kind: status[full, kind] for kind in ("strong", "weak")},
    }


def _check_sweep(rep, n: int, games: list, labels: list, digests: bool) -> list[str]:
    problems = []
    players = list(PLAYERS[:n])
    if rep["n"] != n or rep["grid"] != labels or len(rep["points"]) != len(games):
        return [f"grid {rep['grid']} != {labels}"]
    for point, values in zip(rep["points"], games):
        where = point["label"]
        if digests and point["digest"] != float_game_digest(n, values):
            problems.append(f"{where}: digest {point['digest']} is not the scenario's game")
        try:
            want = expected_sweep_point(n, values, GAME_TOL)
        except ValueError as exc:
            problems.append(f"{where}: {exc}")
            continue
        counts = point["counts"]
        expected_counts = {
            "patched_strong": len(want["patched"]["strong"]),
            "patched_weak": len(want["patched"]["weak"]),
            "fusion_resistant": len(want["fusion"]),
            "stable_strong": len(want["stable"]["strong"]),
            "stable_weak": len(want["stable"]["weak"]),
            "unknown_weak": 0,
        }
        if counts != expected_counts:
            problems.append(f"{where}: counts {counts}, expected {expected_counts}")
        if point["core"] != want["core"]:
            problems.append(f"{where}: grand cores {point['core']}, expected {want['core']}")
        for kind in ("strong", "weak"):
            got = [frozenset(blocks_of(t, players)) for t in point[f"stable_{kind}"]]
            if len(set(got)) != len(got) or set(got) != want["stable"][kind]:
                problems.append(f"{where}: stable_{kind} {point[f'stable_{kind}']}")
        if point["most_consolidated"] != most_consolidated(point["stable_weak"]):
            problems.append(f"{where}: most consolidated {point['most_consolidated']}")
    for i, gi in enumerate(games):
        for j, gj in enumerate(games):
            holds = leq_cp(gi, gj, n, GAME_TOL)
            if rep["leq_cp_matrix"][i][j] != holds:
                problems.append(f"order matrix [{i}][{j}] is {rep['leq_cp_matrix'][i][j]}")
            elif i <= j and not holds:
                problems.append(f"grid points {i} <= {j} are not ordered")
    return problems


def check_sweep_meanstd(op, rep) -> list[str]:
    exp = op.expect
    rs = sorted(float(Fraction(r)) for r in exp["r"])
    games = [meanstd_values(exp["n"], exp["mu"], exp["sigma"], r) for r in rs]
    labels = [f"r={r:g}" for r in rs]
    problems = _check_sweep(rep, exp["n"], games, labels, digests=True)
    if [p["r"] for p in rep["points"]] != rs:
        problems.append("grid r values differ")
    return problems


# ---------------------------------------------------------------------------
# tail-average mixtures, integrated in closed form


def beta_density_knots(a: float, knot_count: int = 101) -> list[tuple[float, float]]:
    """Piecewise linear density proportional to alpha**(a-1), normalised by
    its trapezoid integral."""
    pts = [(j / (knot_count - 1), (j / (knot_count - 1)) ** (a - 1)) for j in range(knot_count)]
    total = sum(0.5 * (v0 + v1) * (a1 - a0) for (a0, v0), (a1, v1) in zip(pts, pts[1:]))
    return [(x, v / total) for x, v in pts]


def uniform_family_knots(size: int) -> list[tuple[float, float]]:
    return [(0.0, float(size)), (1.0, size + math.sqrt(size))]


def empirical_knots(samples, knot_count: int) -> list[tuple[float, float]]:
    """Linearly interpolated empirical quantiles at evenly spaced levels,
    kept nondecreasing."""
    data = sorted(float(x) for x in samples)
    knots = []
    prev = None
    for j in range(knot_count):
        beta = j / (knot_count - 1)
        pos = beta * (len(data) - 1)
        lo = math.floor(pos)
        hi = min(lo + 1, len(data) - 1)
        q = data[lo] + (data[hi] - data[lo]) * (pos - lo)
        if prev is not None and q < prev:
            q = prev
        knots.append((beta, q))
        prev = q
    return knots


def mixture_value(curve, density) -> float:
    """Integral over alpha of the lower-tail mean of ``curve`` at level alpha
    times ``density``.  With x = 1 - alpha the tail mean is I(x)/x, I the
    curve's running integral: quadratic in x on each curve segment.  So on
    each interval between breakpoints the integrand is
    (A/x + B + C x)(E + F x), integrated exactly (the 1/x term by a log)."""
    cb = [b for b, _ in curve]
    cv = [v for _, v in curve]
    prefix = [0.0]
    for j in range(len(cb) - 1):
        prefix.append(prefix[-1] + 0.5 * (cv[j] + cv[j + 1]) * (cb[j + 1] - cb[j]))
    da = [a for a, _ in density]
    dv = [v for _, v in density]
    cuts = sorted({*cb, *(1.0 - a for a in da)} | {0.0, 1.0})
    total = 0.0
    j = k = 0
    for xl, xh in zip(cuts, cuts[1:]):
        if xh <= xl:
            continue
        xm = 0.5 * (xl + xh)
        while cb[j + 1] < xm:
            j += 1
        am = 1.0 - xm
        k = min(max(bisect.bisect_right(da, am) - 1, 0), len(da) - 2)
        s = (cv[j + 1] - cv[j]) / (cb[j + 1] - cb[j])
        c = 0.5 * s
        b = cv[j] - s * cb[j]
        a = prefix[j] - cv[j] * cb[j] + 0.5 * s * cb[j] ** 2
        t = (dv[k + 1] - dv[k]) / (da[k + 1] - da[k])
        e = dv[k] + t * (1.0 - da[k])
        f = -t
        part = (a * f + b * e) * (xh - xl)
        part += (b * f + c * e) * (xh**2 - xl**2) / 2
        part += c * f * (xh**3 - xl**3) / 3
        if j > 0:
            part += a * e * math.log(xh / xl)
        total += part
    return total


def check_scenario_cvar(op, rep) -> list[str]:
    scen = op.expect["scenario"]
    density = beta_density_knots(scen["density"]["beta_a"])
    if "n" in scen:
        n = scen["n"]
        curves = {m: uniform_family_knots(m.bit_count()) for m in range(1, 1 << n)}
    else:
        n = len(scen["players"])
        curves = {
            mask_of(text, scen["players"]): empirical_knots(entry["samples"], entry["knot_count"])
            for text, entry in scen["curves"].items()
        }
    if rep.get("mode") != "float" or len(rep["values"]) != (1 << n) - 1:
        return ["output is not a full float game"]
    problems = [] if rep["tolerance"] == GAME_TOL else [f"tolerance {rep['tolerance']!r}"]
    for text, got in rep["values"].items():
        want = mixture_value(curves[mask_of(text, rep["players"])], density)
        if not (geq(got, want, GAME_TOL) and geq(want, got, GAME_TOL)):
            problems.append(f"value of {text}: {got!r}, expected {want!r}")
    return problems


def check_sweep_cvar(op, rep) -> list[str]:
    n = op.expect["n"]
    shapes = sorted(op.expect["shapes"])
    games = []
    for a in shapes:
        density = beta_density_knots(a)
        games.append({m: mixture_value(uniform_family_knots(m.bit_count()), density) for m in range(1, 1 << n)})
    return _check_sweep(rep, n, games, [f"a={a:g}" for a in shapes], digests=False)


def check_verify(op, rep) -> list[str]:
    problems = [] if rep.get("passed") is True else ["suite did not pass"]
    if rep.get("suite") == "prop2":
        for row in rep["closed_form"]:
            a = row["beta_a"]
            # size-1 curve of the default family: uniform on [1, 2]; under
            # the density a*alpha**(a-1) its mixture is 1 + 1/(2(a+1))
            want = 1 + 1 / (2 * (a + 1))
            if abs(row["value"] - want) > CLOSED_FORM_TOL:
                problems.append(f"closed form at a={a}: {row['value']!r}")
        return problems
    for r in rep["reports"]:
        if not (r["passed"] and r["order_holds"]) or not all(c["passed"] for c in r["claims"]):
            problems.append(f"pair {r['pair']} (n={r['n']}) failed")
    if len(rep["reports"]) != op.expect["pairs"]:
        problems.append(f"{len(rep['reports'])} pair reports, expected {op.expect['pairs']}")
    return problems


CHECKS = {
    "analyze": check_analyze,
    "sweep-meanstd": check_sweep_meanstd,
    "sweep-cvar": check_sweep_cvar,
    "scenario-cvar": check_scenario_cvar,
    "verify-theorem": check_verify,
    "verify-corollary": check_verify,
    "verify-prop2": check_verify,
}


def check(op, code: int, out: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    try:
        rep = json.loads(out)
        return CHECKS[op.kind](op, rep)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]
