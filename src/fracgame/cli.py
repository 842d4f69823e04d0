"""Command-line front end.

Subcommands load games or scenarios, run the stability and ordering
analyses, and emit deterministic JSON or CSV.  Exit codes: 0 for success or
a passing check, 1 for a failed validation or property, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import os
import random
import sys
from fractions import Fraction

from .centripetality import generate_ordered_pair, leq_cp, verify_corollary, verify_theorem1
from .errors import FracgameError, InvalidGameError, ScenarioError
from .games import (
    DEFAULT_TOL,
    EXACT,
    Game,
    coalition_label,
    game_digest,
    game_from_dict,
    game_to_dict,
    json_number,
)
from .partitions import DEFAULT_ENUM_CAP, grand_partition, partition_from_label, partition_label
from .risk import (
    MeanStdScenario,
    beta_density,
    build_cvar_game,
    build_meanstd_game,
    cvar_scenario_from_dict,
    default_uniform_family,
    meanstd_from_dict,
    mixture_reward,
    verify_prop1,
    verify_prop2,
)
from .stability import (
    DEFAULT_MAX_EXACT_WEAK_N,
    DEFAULT_SAMPLES,
    STRONG,
    WEAK,
    BlockTable,
    stable_sets,
)

PROP1_GRID = tuple(x / 4 for x in range(8))
PROP2_SHAPES = (1.0, 2.0, 3.0)
# every grid point runs a full stability analysis, so a range grid that
# would list more points than this is refused before it is built
MAX_GRID_POINTS = 10_000


# ---------------------------------------------------------------------------
# output plumbing


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _csv_text(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _emit(args, stem: str, payload, csv_rows=None) -> None:
    if args.format == "csv" and csv_rows is not None:
        text = _csv_text(csv_rows)
        suffix = ".csv"
    else:
        text = _json_text(payload)
        suffix = ".json"
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, stem + suffix), "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fail(message: str, code: int) -> int:
    sys.stderr.write(message.rstrip() + "\n")
    return code


def _load_game(args, path: str) -> Game:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    game = game_from_dict(data)
    if args.tolerance is not None and args.tolerance != game.tol:
        if game.mode == EXACT:
            raise ValueError("exact mode has no tolerance")
        game = dataclasses.replace(game, tol=float(args.tolerance))
    return game


# ---------------------------------------------------------------------------
# plain game commands


def cmd_validate(args) -> int:
    with open(args.game, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        game = game_from_dict(data)
    except InvalidGameError as exc:
        players = [str(p) for p in data.get("players", ())]
        payload = {
            "valid": False,
            "issues": [
                {"kind": issue.kind, "coalition": coalition_label(issue.coalition, players)}
                for issue in exc.report.issues
            ],
        }
        _emit(args, "validate", payload)
        return 1
    payload = {
        "valid": True,
        "players": list(game.players),
        "mode": game.mode,
        "digest": game_digest(game),
    }
    _emit(args, "validate", payload)
    return 0


def cmd_analyze(args) -> int:
    game = _load_game(args, args.game)
    report = stable_sets(
        game,
        cap=args.cap,
        max_exact_weak_n=args.max_exact_weak_core_n,
        samples=args.samples,
        seed=args.seed,
    )
    _emit(args, "analyze", report.to_dict(), report.csv_rows())
    return 0


def cmd_core(args) -> int:
    game = _load_game(args, args.game)
    if args.partition:
        part = partition_from_label(args.partition, game.players)
    else:
        part = grand_partition(game.n)
    table = BlockTable(
        game,
        max_exact_weak_n=args.max_exact_weak_core_n,
        samples=args.samples,
        rng=random.Random(args.seed),
    )
    payload = {"partition": partition_label(part, game.players)}
    for kind in (STRONG, WEAK):
        patched = table.patched(part, kind)
        payload[kind] = {
            "status": patched.status,
            "witness": None
            if patched.witness is None
            else [json_number(x) for x in patched.witness],
            "blocks": [
                {"status": r.status, "method": r.method} for r in patched.block_regions
            ],
        }
    _emit(args, "core", payload)
    return 0


def cmd_compare(args) -> int:
    g1 = _load_game(args, args.game1)
    g2 = _load_game(args, args.game2)
    verdict = leq_cp(g1, g2)
    payload = {
        "holds": verdict.holds,
        "violations": [
            {
                "inner": g1.coalition_label(v.inner),
                "outer": g1.coalition_label(v.outer),
                "lhs": json_number(v.lhs),
                "rhs": json_number(v.rhs),
            }
            for v in verdict.violations
        ],
    }
    _emit(args, "compare", payload)
    return 0 if verdict.holds else 1


# ---------------------------------------------------------------------------
# scenario commands


def cmd_scenario_meanstd(args) -> int:
    with open(args.scenario, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    scenario, players = meanstd_from_dict(data)
    tol = args.tolerance if args.tolerance is not None else DEFAULT_TOL
    game = build_meanstd_game(scenario, players=players, tol=tol)
    _emit(args, "meanstd-game", game_to_dict(game))
    return 0


def cmd_scenario_cvar(args) -> int:
    with open(args.scenario, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    curves, density, players = cvar_scenario_from_dict(data)
    tol = args.tolerance if args.tolerance is not None else DEFAULT_TOL
    game = build_cvar_game(curves, density, players=players, tol=tol)
    _emit(args, "cvar-game", game_to_dict(game))
    return 0


# ---------------------------------------------------------------------------
# sweeps


def _parse_grid(text: str) -> list[float]:
    """Accept either '0:1.5:0.5' (inclusive range) or '0,0.5,1'."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid {text!r} must be start:stop:step")
        start, stop, step = (Fraction(p) for p in parts)
        if step <= 0 or stop < start:
            raise ValueError(f"grid {text!r} must ascend with positive step")
        count = (stop - start) // step + 1
        if count > MAX_GRID_POINTS:
            raise ValueError(f"grid {text!r} has {count} points, more than {MAX_GRID_POINTS}")
        out = []
        x = start
        while x <= stop:
            out.append(float(x))
            x += step
        return out
    return sorted(float(Fraction(p)) for p in text.split(","))


def _sweep_point(args, label: str, game: Game, extra: dict) -> dict:
    report = stable_sets(
        game,
        cap=args.cap,
        max_exact_weak_n=args.max_exact_weak_core_n,
        samples=args.samples,
        seed=args.seed,
    )
    # partitions come grand first, so the first record holds the grand cores
    grand = report.records[0]
    stable_strong = [partition_label(p, game.players) for p, _ in report.stable(STRONG)]
    stable_weak = [partition_label(p, game.players) for p, _ in report.stable(WEAK)]
    consolidated = report.most_consolidated(WEAK)
    point = {
        "label": label,
        "digest": report.digest,
        "counts": {
            "patched_strong": len(report.partitions_with(STRONG)),
            "patched_weak": len(report.partitions_with(WEAK)),
            "fusion_resistant": len(report.fusion_resistant_partitions()),
            "stable_strong": len(stable_strong),
            "stable_weak": len(stable_weak),
            "unknown_weak": len(report.unknown(WEAK)),
        },
        "core": {"strong": grand.strong.status, "weak": grand.weak.status},
        "stable_strong": stable_strong,
        "stable_weak": stable_weak,
        "most_consolidated": None
        if consolidated is None
        else partition_label(consolidated, game.players),
    }
    point.update(extra)
    return point


def cmd_sweep(args) -> int:
    tol = args.tolerance if args.tolerance is not None else DEFAULT_TOL
    games: list[Game] = []
    points: list[dict] = []
    if args.scenario == "meanstd":
        grid = _parse_grid(args.r)
        for r in grid:
            scenario = MeanStdScenario(args.n, args.mu, args.sigma, r)
            game = build_meanstd_game(scenario, tol=tol)
            games.append(game)
            points.append(_sweep_point(args, f"r={r:g}", game, {"r": r}))
    else:
        shapes = _parse_grid(args.beta_a)
        family = default_uniform_family(args.n)
        for a in shapes:
            density = beta_density(a)
            game = build_cvar_game(family, density, tol=tol)
            games.append(game)
            points.append(_sweep_point(args, f"a={a:g}", game, {"beta_a": a}))
    labels = [p["label"] for p in points]
    matrix = [[leq_cp(gi, gj).holds for gj in games] for gi in games]
    payload = {
        "scenario": args.scenario,
        "n": args.n,
        "grid": labels,
        "points": points,
        "leq_cp_matrix": matrix,
    }
    header = [
        "label", "digest", "patched_strong", "patched_weak", "fusion_resistant",
        "stable_strong", "stable_weak", "unknown_weak", "core_strong", "core_weak",
        "most_consolidated",
    ]
    rows = [header]
    for p in points:
        rows.append(
            [
                p["label"], p["digest"],
                p["counts"]["patched_strong"], p["counts"]["patched_weak"],
                p["counts"]["fusion_resistant"], p["counts"]["stable_strong"],
                p["counts"]["stable_weak"], p["counts"]["unknown_weak"],
                p["core"]["strong"], p["core"]["weak"],
                p["most_consolidated"] or "",
            ]
        )
    _emit(args, "sweep", payload, rows)
    return 0


# ---------------------------------------------------------------------------
# verification suites


def _pair_stream(pairs: int, seed: int):
    rng = random.Random(seed)
    for k in range(pairs):
        n = rng.randint(2, 5)
        pair_seed = rng.randrange(1 << 31)
        yield k, n, pair_seed


def _verify_inclusions(kind: str, args) -> dict:
    runner = verify_theorem1 if kind == "theorem" else verify_corollary
    reports = []
    passed = True
    for k, n, pair_seed in _pair_stream(args.pairs, args.seed):
        g1, g2 = generate_ordered_pair(pair_seed, n)
        rep = runner(g1, g2, samples=args.samples, seed=pair_seed)
        ok = rep.order_holds and rep.passed
        passed = passed and ok
        reports.append({"pair": k, "n": n, "seed": pair_seed, **rep.to_dict()})
    return {
        "suite": kind,
        "pairs": args.pairs,
        "seed": args.seed,
        "passed": passed,
        "reports": reports,
    }


def _verify_prop1_suite(args) -> dict:
    report = verify_prop1(4, 1.0, 0.5, PROP1_GRID)
    return {"suite": "prop1", "n": 4, "mu": 1.0, "sigma": 0.5, **report.to_dict()}


def _verify_prop2_suite(args) -> dict:
    family = default_uniform_family(4)
    expected = {1.0: 1.25, 2.0: 7 / 6}
    closed_form = []
    for a in PROP2_SHAPES:
        if a not in expected:
            continue
        value = mixture_reward(family[1], beta_density(a))
        closed_form.append(
            {
                "beta_a": a,
                "value": value,
                "expected": expected[a],
                "ok": abs(value - expected[a]) <= 1e-8,
            }
        )
    chain = []
    for a1, a2 in zip(PROP2_SHAPES, PROP2_SHAPES[1:]):
        rep = verify_prop2(family, beta_density(a1), beta_density(a2))
        chain.append({"from_a": a1, "to_a": a2, **rep.to_dict()})
    passed = all(c["ok"] for c in closed_form) and all(c["passed"] for c in chain)
    return {
        "suite": "prop2",
        "n": 4,
        "passed": passed,
        "closed_form": closed_form,
        "chain": chain,
    }


def cmd_verify(args) -> int:
    suites = {
        "theorem": lambda: _verify_inclusions("theorem", args),
        "corollary": lambda: _verify_inclusions("corollary", args),
        "prop1": lambda: _verify_prop1_suite(args),
        "prop2": lambda: _verify_prop2_suite(args),
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    results = {}
    for name in names:
        payload = suites[name]()
        results[name] = payload
        if args.out:
            _emit(args, f"verify-{name}", payload)
    summary = {
        "seed": args.seed,
        "suites": {name: results[name]["passed"] for name in names},
        "passed": all(results[name]["passed"] for name in names),
    }
    if args.out:
        _emit(args, "verify-summary", summary)
        sys.stdout.write(_json_text(summary))
    elif len(names) == 1:
        sys.stdout.write(_json_text(results[names[0]]))
    else:
        sys.stdout.write(_json_text(summary))
    return 0 if summary["passed"] else 1


# ---------------------------------------------------------------------------
# parser


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {value}")
    return value


def nonnegative_float(text: str) -> float:
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite nonnegative number, got {text}")
    return value


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process.
    Each subcommand runs the module's ``cmd_<name>`` as bound at call time,
    so the parser holds no command function."""
    parser = argparse.ArgumentParser(
        prog="fracgame",
        description="Fractional coalition analysis: cores, stability, orderings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=0, help="seed for all sampling")
        sp.add_argument("--tolerance", type=nonnegative_float, default=None)
        sp.add_argument(
            "--max-exact-weak-core-n",
            dest="max_exact_weak_core_n",
            type=nonnegative_int,
            default=DEFAULT_MAX_EXACT_WEAK_N,
        )
        sp.add_argument("--samples", type=nonnegative_int, default=DEFAULT_SAMPLES)
        sp.add_argument("--cap", type=int, default=DEFAULT_ENUM_CAP)
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--out", default=None, metavar="DIR")

    sp = sub.add_parser("validate", help="check a game file")
    sp.add_argument("game")
    common(sp)

    sp = sub.add_parser("analyze", help="full partition/stability sweep")
    sp.add_argument("game")
    common(sp)

    sp = sub.add_parser("core", help="patched cores of one partition")
    sp.add_argument("game")
    sp.add_argument("--partition", default=None, help="e.g. 'a,b|c' (default grand)")
    common(sp)

    sp = sub.add_parser("compare", help="order two games")
    sp.add_argument("game1")
    sp.add_argument("game2")
    common(sp)

    sp = sub.add_parser("scenario-meanstd", help="build a pooled-venture game")
    sp.add_argument("scenario")
    common(sp)

    sp = sub.add_parser("scenario-cvar", help="build a tail-average mixture game")
    sp.add_argument("scenario")
    common(sp)

    sp = sub.add_parser("sweep", help="stability metrics along a parameter grid")
    sp.add_argument("--scenario", choices=("meanstd", "cvar"), required=True)
    sp.add_argument("--n", type=int, default=4)
    sp.add_argument("--mu", type=float, default=1.0)
    sp.add_argument("--sigma", type=float, default=0.5)
    sp.add_argument("--r", default="0:1.75:0.25", help="grid start:stop:step or list")
    sp.add_argument("--beta-a", dest="beta_a", default="1,2,3")
    common(sp)

    sp = sub.add_parser("verify", help="run the built-in verification suites")
    sp.add_argument("suite", choices=("theorem", "corollary", "prop1", "prop2", "all"))
    sp.add_argument("--pairs", type=nonnegative_int, default=20)
    common(sp)

    return parser


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except InvalidGameError as exc:
        return _fail(str(exc), 1)
    except ScenarioError as exc:
        return _fail(str(exc), 1)
    except FracgameError as exc:
        return _fail(str(exc), 2)
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        return _fail(str(exc), 2)
    except (RecursionError, MemoryError) as exc:
        return _fail(
            f"{type(exc).__name__}: the input is too large for this analysis "
            "(the exact weak-core search recurses once per partition); lower "
            "--max-exact-weak-core-n or use a smaller game",
            2,
        )


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
