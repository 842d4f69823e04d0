"""Seeded inputs for the four benchmark workloads.

A workload is a list of ops; an op is one argv for ``fracgame.cli.run``.
``prepare(workload, seed)`` makes the choices that cost the benchmark
itself a seed-dependent time (the search for pair seeds); it runs before
set-up is timed.  ``build(workload, seed, workdir, prepared)`` then writes
every game and scenario file the ops read into ``workdir`` and returns the
ops, each with the input properties later analyses split results by.  Only the standard library is
used, so the inputs do not depend on the code under test, and the same seed
always gives the same bytes.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("exact-analyze", "float-sweep", "ordered-pairs", "cvar-build")

PLAYERS = "abcdefgh"


@dataclass
class Op:
    kind: str
    argv: list
    props: dict = field(default_factory=dict)
    # data the checker needs that is not in the argv (game values, curves)
    expect: dict = field(default_factory=dict)


def label(mask: int, players=PLAYERS) -> str:
    return ",".join(players[i] for i in range(len(players)) if mask >> i & 1)


def _write_json(workdir: str, name: str, payload) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


def _encode(v: Fraction):
    return v.numerator if v.denominator == 1 else str(v)


# ---------------------------------------------------------------------------
# exact-analyze


def cut_game_values(rng: random.Random, n: int) -> dict[int, Fraction]:
    """Random exact game with denominators <= 3.

    Coalitions of up to three players are worth 2*s^2 plus a random 0, 1/3
    or 2/3; the second differences (4) exceed the noise spread, so small
    blocks are supermodular and have nonempty strong cores.  Larger
    coalitions are worth their best two-block split minus a random 1/3, 2/3
    or 1, so their strong cores are empty while their split sets are not:
    the weak core is then decided by the exact search or the sampler.  The
    structure fixes how many LP solves each game needs, so the cost of a
    game depends little on the seed.
    """
    values: dict[int, Fraction] = {}
    for mask in sorted(range(1, 1 << n), key=lambda m: (m.bit_count(), m)):
        s = mask.bit_count()
        if s <= 3:
            values[mask] = Fraction(6 * s * s + rng.randrange(3), 3)
        else:
            best = max(
                values[p] + values[mask ^ p] for p in range(1, mask) if p & mask == p
            )
            values[mask] = best - Fraction(1 + rng.randrange(3), 3)
    return values


def game_payload(values: dict[int, Fraction], n: int) -> dict:
    return {
        "players": list(PLAYERS[:n]),
        "values": {label(m): _encode(v) for m, v in sorted(values.items())},
    }


EXACT_FLAGS = ["--max-exact-weak-core-n", "5"]
# (n, extra argv) per op; the default-flag game takes the sampled weak path
# for the grand coalition, the others the exact weak search, which costs
# more and puts both the median and the slowest op among them.  There is no
# n=6 game: one takes 10-16 s here, which leaves no room to repeat it.
EXACT_ANALYZE_PLAN = ((5, []), (5, EXACT_FLAGS), (5, EXACT_FLAGS))


def _exact_analyze(rng: random.Random, workdir: str) -> list[Op]:
    ops = []
    for k, (n, flags) in enumerate(EXACT_ANALYZE_PLAN):
        values = cut_game_values(rng, n)
        path = _write_json(workdir, f"game{k}-n{n}.json", game_payload(values, n))
        den_bits = max(v.denominator.bit_length() for v in values.values())
        weak = "exact-search" if flags else "sampled"
        ops.append(
            Op(
                "analyze",
                ["analyze", path, *flags],
                {"n": n, "weak_path": weak, "den_bits": den_bits},
                {"values": values, "n": n},
            )
        )
    return ops


# ---------------------------------------------------------------------------
# float-sweep

# Each op is one sweep; r is given as shares of mu/sigma.  Since
# v(C) = mu * (s - share * sqrt(s)), the shares fix which cores are empty,
# and the seed's mu and sigma change every coefficient's bits without
# changing the amount of work.
# There is no n=5 point: one takes 7-11 s here, which leaves no room to
# repeat it.
SWEEP_PLAN = ((4, (0.1, 0.6)), (4, (0.3, 0.8)), (4, (0.5, 0.9)))


def _float_sweep(rng: random.Random, workdir: str) -> list[Op]:
    ops = []
    for n, shares in SWEEP_PLAN:
        mu = round(rng.uniform(0.8, 1.6), 3)
        sigma = round(rng.uniform(0.3, 0.7), 3)
        # every share is below 1, so r < mu/sigma and all values are positive
        grid = [f"{mu / sigma * share:.4f}" for share in shares]
        argv = [
            "sweep", "--scenario", "meanstd", "--n", str(n),
            "--mu", repr(mu), "--sigma", repr(sigma), "--r", ",".join(grid),
        ]
        ops.append(
            Op(
                "sweep-meanstd",
                argv,
                {"n": n, "points": len(grid), "mu": mu, "sigma": sigma},
                {"n": n, "mu": mu, "sigma": sigma, "r": grid},
            )
        )
    return ops


# ---------------------------------------------------------------------------
# ordered-pairs

# The cost of one ordered pair varies with the drawn games (an n=4 pair
# takes 0.1 s at 50 samples, give or take a third, and about one in a
# hundred spends 0.2 s more in the LP), so each op verifies a bundle of
# pairs whose player counts the seed search fixes, at 50 samples (the CLI
# default of 200 fits a quarter as many pairs in a run, and fewer pairs
# spread more).  Heavy bundles of ten pairs give the slowest ops (their
# theorem checks).  Small bundles of four n=2 pairs are the majority: their
# cost, 0.01-0.03 s, is mostly the CLI's own, and it too varies with the
# games, so there are 64 of them to pin down the median op.  The small
# theorem checks are the largest group of ops and hold the median; only
# half of the small bundles also run the corollary, whose small checks are
# faster, so the median falls inside that group rather than at its edge.
# There are no n=5 pairs: some run the exact weak-core search for minutes
# (``verify theorem --pairs 1 --seed 1022929911``), past the time a run has.
# (player counts of a bundle's pairs, bundles, suites)
HEAVY = (4, 4, 4, 4, 4, 4, 3, 3, 2, 2)
BOTH = ("theorem", "corollary")
PAIR_PLAN = ((HEAVY, 6, BOTH), ((2, 2, 2, 2), 32, BOTH), ((2, 2, 2, 2), 32, ("theorem",)))
PAIR_SAMPLES = "50"


def pair_stream_ns(seed: int, pairs: int) -> list[int]:
    """The player counts ``verify --pairs <pairs> --seed <seed>`` draws: per
    pair, one ``randint(2, 5)`` and one pair seed from
    ``random.Random(seed)``.  Used only to pick seeds; each op records the
    counts its report states."""
    rng = random.Random(seed)
    out = []
    for _ in range(pairs):
        out.append(rng.randint(2, 5))
        rng.randrange(1 << 31)
    return out


def _seed_with(rng: random.Random, ns) -> int:
    """A seed whose pairs have the player counts ``ns`` in some order."""
    want = sorted(ns)
    while True:
        s = rng.randrange(1 << 31)
        if sorted(pair_stream_ns(s, len(ns))) == want:
            return s


def pair_seeds(seed: int) -> list[list[int]]:
    """Per PAIR_PLAN row, one ``verify`` seed per bundle.  Each is found by
    a search whose length is random (about 830 tries for a heavy bundle),
    so it runs before set-up is timed."""
    rng = random.Random(f"ordered-pairs/{seed}")
    return [[_seed_with(rng, ns) for _ in range(bundles)] for ns, bundles, _ in PAIR_PLAN]


def _ordered_pairs(seeds: list[list[int]]) -> list[Op]:
    ops = []
    for (ns, _, suites), row in zip(PAIR_PLAN, seeds):
        for s in row:
            for suite in suites:
                ops.append(
                    Op(
                        f"verify-{suite}",
                        ["verify", suite, "--pairs", str(len(ns)), "--seed", str(s),
                         "--samples", PAIR_SAMPLES],
                        {"pair_n": pair_stream_ns(s, len(ns))},
                        {"pairs": len(ns)},
                    )
                )
    return ops


# ---------------------------------------------------------------------------
# cvar-build


def _beta_shape(rng: random.Random) -> float:
    return round(rng.uniform(1.0, 4.0), 3)


def _empirical_scenario(rng: random.Random, n: int, knot_count: int, a: float) -> dict:
    """Every coalition gets its own sample of positive draws: size plus a
    gamma spread growing with sqrt(size)."""
    curves = {}
    for mask in range(1, 1 << n):
        s = mask.bit_count()
        draws = [round(s + rng.gammavariate(2.0, 0.5 * math.sqrt(s)), 6) for _ in range(200)]
        curves[label(mask)] = {"samples": draws, "knot_count": knot_count}
    return {"players": list(PLAYERS[:n]), "curves": curves, "density": {"beta_a": a}}


def _cvar_build(rng: random.Random, workdir: str) -> list[Op]:
    ops = []
    for k, n in enumerate((7,)):
        a = _beta_shape(rng)
        scen = {"n": n, "density": {"beta_a": a}}
        path = _write_json(workdir, f"uniform{k}-n{n}.json", scen)
        ops.append(
            Op("scenario-cvar", ["scenario-cvar", path],
               {"n": n, "curves": "uniform", "knots": 2, "beta_a": a}, {"scenario": scen})
        )
    for k, n in enumerate((4, 5)):
        knots = rng.randint(51, 101)
        a = _beta_shape(rng)
        scen = _empirical_scenario(rng, n, knots, a)
        path = _write_json(workdir, f"empirical{k}-n{n}.json", scen)
        ops.append(
            Op("scenario-cvar", ["scenario-cvar", path],
               {"n": n, "curves": "empirical", "knots": knots, "beta_a": a}, {"scenario": scen})
        )
    ops.append(Op("verify-prop2", ["verify", "prop2"], {"n": 4}))
    shapes = sorted(_beta_shape(rng) for _ in range(3))
    ops.append(
        Op(
            "sweep-cvar",
            ["sweep", "--scenario", "cvar", "--n", "4", "--beta-a", ",".join(repr(a) for a in shapes)],
            {"n": 4, "points": 3},
            {"n": 4, "shapes": shapes},
        )
    )
    return ops


_BUILDERS = {
    "exact-analyze": _exact_analyze,
    "float-sweep": _float_sweep,
    "cvar-build": _cvar_build,
}


def prepare(workload: str, seed: int):
    """The untimed part of the inputs: pair seeds for ``ordered-pairs``,
    None for the other workloads."""
    return pair_seeds(seed) if workload == "ordered-pairs" else None


def build(workload: str, seed: int, workdir: str, prepared=None) -> list[Op]:
    """Write the workload's input files for ``seed`` and return its ops;
    ``prepared`` is ``prepare(workload, seed)``, computed here if omitted."""
    os.makedirs(workdir, exist_ok=True)
    if workload == "ordered-pairs":
        return _ordered_pairs(pair_seeds(seed) if prepared is None else prepared)
    return _BUILDERS[workload](random.Random(f"{workload}/{seed}"), workdir)
