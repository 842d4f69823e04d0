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

from .centripetality import (
    generate_ordered_pair,
    leq_cp,
    order_matrix,
    verify_corollary,
    verify_theorem1,
)
from .errors import FracgameError, InvalidGameError, ScenarioError
from .games import (
    DEFAULT_TOL,
    EXACT,
    Game,
    coalition_label,
    game_digest,
    game_from_dict,
    game_to_dict,
    json_list,
    json_number,
    json_object,
    json_text,
    json_value,
    load_game,
)
from .partitions import DEFAULT_ENUM_CAP, fewest_blocks, grand_partition, partition_from_label, partition_label
from .risk import (
    MeanStdScenario,
    beta_density,
    build_cvar_game,
    build_cvar_games,
    build_meanstd_game,
    cvar_scenario_from_dict,
    default_uniform_family,
    meanstd_from_dict,
    mixture_reward,
    verify_prop1,
    verify_prop2_chain,
)
from .stability import (
    NONEMPTY,
    STRONG,
    WEAK,
    BlockTable,
    stable_sets,
    walk_partitions,
)

PROP1_GRID = tuple(x / 4 for x in range(8))
PROP2_SHAPES = (1.0, 2.0, 3.0)
# every grid point runs a full stability analysis, so a range grid that
# would list more points than this is refused before it is built
MAX_GRID_POINTS = 10_000


# ---------------------------------------------------------------------------
# output plumbing


def _csv_text(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _write(args, name: str, text: str) -> None:
    """The text to the file ``name`` under ``--out``, else to stdout."""
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, stem: str, payload, csv_rows=None) -> None:
    if csv_rows is not None and args.format == "csv":
        _write(args, stem + ".csv", _csv_text(csv_rows))
    else:
        _write(args, stem + ".json", json_text(payload))


def _fail(message: str, code: int) -> int:
    sys.stderr.write(message.rstrip() + "\n")
    return code


def _load_game(args, path: str) -> Game:
    game = load_game(path)
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
    report = stable_sets(game, cap=args.cap)
    # encode only the format that is printed
    if args.format == "csv":
        _write(args, "analyze.csv", _csv_text(report.csv_rows()))
    else:
        _write(args, "analyze.json", report.json_text())
    return 0


def cmd_core(args) -> int:
    game = _load_game(args, args.game)
    if args.partition:
        part = partition_from_label(args.partition, game.players)
    else:
        part = grand_partition(game.n)
    table = BlockTable(game)
    payload = {"partition": partition_label(part, game.players)}
    for kind in (STRONG, WEAK):
        patched = table.patched(part, kind)
        payload[kind] = {
            "status": patched.status,
            "witness": list(map(json_number, patched.witness)) if patched.status == NONEMPTY else None,
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


def _grid_fraction(part: str, text: str) -> Fraction:
    try:
        return Fraction(part)
    except ZeroDivisionError:
        raise ValueError(f"grid {text!r} has a zero denominator") from None
    except ValueError:
        raise ValueError(f"grid {text!r} has a value that is not a number") from None


def _grid_point(x: Fraction, text: str) -> float:
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"grid {text!r} has a point beyond the float range") from None


def _parse_grid(text: str) -> list[float]:
    """Accept either '0:1.5:0.5' (inclusive range) or '0,0.5,1'."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid {text!r} must be start:stop:step")
        start, stop, step = (_grid_fraction(p, text) for p in parts)
        if step <= 0 or stop < start:
            raise ValueError(f"grid {text!r} must ascend with positive step")
        count = (stop - start) // step + 1
        if count > MAX_GRID_POINTS:
            raise ValueError(f"grid {text!r} has {count} points, more than {MAX_GRID_POINTS}")
        out = []
        x = start
        while x <= stop:
            out.append(_grid_point(x, text))
            x += step
        return out
    return sorted(_grid_point(_grid_fraction(p, text), text) for p in text.split(","))


def _sweep_point(args, label: str, game: Game, extra: dict) -> dict:
    # a sweep prints statuses only, read from the partition walk; no weak
    # core is left undecided, so unknown_weak stays 0 in the schema
    counted = ("patched_strong", "patched_weak", "fusion_resistant", "unknown_weak")
    counts = dict.fromkeys(counted, 0)
    stable: dict[str, list] = {STRONG: [], WEAK: []}
    core = None
    for partition, _, _, strong, weak, fused in walk_partitions(game, cap=args.cap):
        # partitions come grand first, so the first row holds the grand cores
        core = core or {"strong": strong, "weak": weak}
        counts["patched_strong"] += strong == NONEMPTY
        counts["patched_weak"] += weak == NONEMPTY
        counts["fusion_resistant"] += fused
        for kind, status in ((STRONG, strong), (WEAK, weak)):
            if fused and status == NONEMPTY:
                stable[kind].append(partition)
    # a label per block, shared by the many partitions that hold the block
    block_label = functools.cache(game.coalition_label)
    label_of = lambda partition: "|".join(map(block_label, partition))
    labels = {kind: list(map(label_of, stable[kind])) for kind in stable}
    counts.update(stable_strong=len(stable[STRONG]), stable_weak=len(stable[WEAK]))
    consolidated = fewest_blocks(stable[WEAK], label_of)
    point = {
        "label": label,
        "digest": game_digest(game),
        "counts": counts,
        "core": core,
        "stable_strong": labels[STRONG],
        "stable_weak": labels[WEAK],
        "most_consolidated": consolidated and label_of(consolidated),
    }
    point.update(extra)
    return point


def _shape_density(a: float):
    """``beta_density(a)``; a shape it refuses is a ScenarioError naming the
    shape, as a scenario file's is: exit 1."""
    try:
        return beta_density(a)
    except ValueError as exc:
        raise ScenarioError(f"beta_a={a:g}: {exc}") from None


def cmd_sweep(args) -> int:
    tol = args.tolerance if args.tolerance is not None else DEFAULT_TOL
    # (label, game, extra fields) per grid point
    if args.scenario == "meanstd":
        build = lambda r: build_meanstd_game(MeanStdScenario(args.n, args.mu, args.sigma, r), tol=tol)
        runs = [(f"r={r:g}", build(r), {"r": r}) for r in _parse_grid(args.r)]
    else:
        shapes = _parse_grid(args.beta_a)
        # every point's density on one column: the points share one quadrature layout
        games = build_cvar_games(default_uniform_family(args.n), [_shape_density(a) for a in shapes], tol=tol)
        runs = [(f"a={a:g}", game, {"beta_a": a}) for a, game in zip(shapes, games)]
    points = [_sweep_point(args, *run) for run in runs]
    payload = {
        "scenario": args.scenario,
        "n": args.n,
        "grid": [p["label"] for p in points],
        "points": points,
        "leq_cp_matrix": order_matrix([game for _, game, _ in runs]),
    }
    columns = (
        "label", "digest", "patched_strong", "patched_weak", "fusion_resistant",
        "stable_strong", "stable_weak", "unknown_weak", "core_strong", "core_weak",
        "most_consolidated",
    )
    # a point's fields flattened, its counts over the stable lists of the
    # same names and its core statuses as core_*; a None cell prints empty
    cells = lambda p: {**p, **p["counts"], **{f"core_{k}": s for k, s in p["core"].items()}}
    rows = [columns, *([row[c] for c in columns] for row in map(cells, points))]
    _emit(args, "sweep", payload, rows)
    return 0


# ---------------------------------------------------------------------------
# verification suites


def _pair_stream(pairs: int, seed: int):
    rng = random.Random(seed)
    for k in range(pairs):
        n = rng.randint(2, 5)
        pair_seed = rng.randrange(1 << 31)
        yield k, n, pair_seed, *generate_ordered_pair(pair_seed, n)


# a suite, its reports and their claims as json_text lays them out
_SUITE = json_object(("pairs", "passed", "reports", "seed", "suite"), 0)
_REPORT = json_object(("claims", "n", "order_holds", "pair", "passed", "seed", "suite"), 2)
_CLAIM = json_object(("detail", "name", "passed", "scope"), 4)


def _verify_inclusions(kind: str, args, pairs: list) -> tuple[bool, str]:
    """Whether every pair is ordered and passes, and the suite as JSON: the
    bytes of ``json_text`` on the suite's dict of the reports' ``to_dict``,
    each distinct claim encoded once."""
    runner = verify_theorem1 if kind == "theorem" else verify_corollary
    claim = functools.cache(lambda c: _CLAIM.format(*(json_value(x, 5) for x in (c.detail, c.name, c.passed, c.scope))))
    reports, passed = [], True
    for k, n, pair_seed, g1, g2 in pairs:
        rep = runner(g1, g2, samples=args.samples, seed=pair_seed)
        passed = passed and rep.order_holds and rep.passed
        fields = (n, rep.order_holds, k, rep.passed, pair_seed, rep.suite)
        items = json_list(list(map(claim, rep.claims)), 3)
        reports.append(_REPORT.format(items, *(json_value(x, 3) for x in fields)))
    pairs, seed, suite = (json_value(x, 1) for x in (args.pairs, args.seed, kind))
    return passed, _SUITE.format(pairs, json_value(passed, 1), json_list(reports, 1), seed, suite) + "\n"


def _verify_prop1_suite(args) -> dict:
    report = verify_prop1(4, 1.0, 0.5, PROP1_GRID)
    return {"suite": "prop1", "n": 4, "mu": 1.0, "sigma": 0.5, **report.to_dict()}


def _verify_prop2_suite(args) -> dict:
    family = default_uniform_family(4)
    densities = {a: beta_density(a) for a in PROP2_SHAPES}
    expected = {1.0: 1.25, 2.0: 7 / 6}
    closed_form = []
    for a in expected:  # the shapes of PROP2_SHAPES with a closed form, in order
        value = mixture_reward(family[1], densities[a])
        closed_form.append(
            {
                "beta_a": a,
                "value": value,
                "expected": expected[a],
                "ok": abs(value - expected[a]) <= 1e-8,
            }
        )
    reports = verify_prop2_chain(family, list(densities.values()))
    chain = [
        {"from_a": a1, "to_a": a2, **rep.to_dict()}
        for a1, a2, rep in zip(PROP2_SHAPES, PROP2_SHAPES[1:], reports)
    ]
    passed = all(c["ok"] for c in closed_form) and all(c["passed"] for c in chain)
    return {
        "suite": "prop2",
        "n": 4,
        "passed": passed,
        "closed_form": closed_form,
        "chain": chain,
    }


def cmd_verify(args) -> int:
    # generated on first use, and shared by both inclusion suites
    pairs = functools.cache(lambda: list(_pair_stream(args.pairs, args.seed)))
    encoded = lambda payload: (payload["passed"], json_text(payload))
    # per suite: whether it passed, and its JSON text
    suites = {
        "theorem": lambda: _verify_inclusions("theorem", args, pairs()),
        "corollary": lambda: _verify_inclusions("corollary", args, pairs()),
        "prop1": lambda: encoded(_verify_prop1_suite(args)),
        "prop2": lambda: encoded(_verify_prop2_suite(args)),
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    passed, texts = {}, {}
    for name in names:
        passed[name], texts[name] = suites[name]()
        if args.out:
            _write(args, f"verify-{name}.json", texts[name])
    summary = {"seed": args.seed, "suites": passed, "passed": all(passed.values())}
    if args.out:
        _emit(args, "verify-summary", summary)
    alone = len(names) == 1 and not args.out
    sys.stdout.write(texts[names[0]] if alone else json_text(summary))
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


# settings per argument name; a name not listed is a plain positional
_ARGUMENTS = {
    "--seed": dict(type=int, default=0, help="seed for verify's sampling"),
    "--samples": dict(type=nonnegative_int, default=200),
    "--tolerance": dict(type=nonnegative_float, default=None),
    "--cap": dict(type=int, default=DEFAULT_ENUM_CAP),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--out": dict(default=None, metavar="DIR"),
    # every weak core is decided exactly; analyze keeps the flag for old command lines
    "--max-exact-weak-core-n": dict(type=nonnegative_int, help=argparse.SUPPRESS),
    "--partition": dict(default=None, help="e.g. 'a,b|c' (default grand)"),
    "--scenario": dict(choices=("meanstd", "cvar"), required=True),
    "--n": dict(type=int, default=4),
    "--mu": dict(type=float, default=1.0),
    "--sigma": dict(type=float, default=0.5),
    "--r": dict(default="0:1.75:0.25", help="grid start:stop:step or list"),
    "--beta-a": dict(dest="beta_a", default="1,2,3"),
    "suite": dict(choices=("theorem", "corollary", "prop1", "prop2", "all")),
    "--pairs": dict(type=nonnegative_int, default=20),
}
# per command: its help line and its arguments in order, shared options first
_COMMANDS = {
    "validate": ("check a game file", ("--out", "game")),
    "analyze": (
        "full partition/stability sweep",
        ("--tolerance", "--max-exact-weak-core-n", "--cap", "--format", "--out", "game"),
    ),
    "core": ("patched cores of one partition", ("--tolerance", "--out", "game", "--partition")),
    "compare": ("order two games", ("--tolerance", "--out", "game1", "game2")),
    "scenario-meanstd": ("build a pooled-venture game", ("--tolerance", "--out", "scenario")),
    "scenario-cvar": ("build a tail-average mixture game", ("--tolerance", "--out", "scenario")),
    "sweep": (
        "stability metrics along a parameter grid",
        ("--tolerance", "--cap", "--format", "--out")
        + ("--scenario", "--n", "--mu", "--sigma", "--r", "--beta-a"),
    ),
    "verify": (
        "run the built-in verification suites",
        ("--seed", "--samples", "--out", "suite", "--pairs"),
    ),
}


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command; the full parser's subparser copies it."""
    parser = argparse.ArgumentParser(prog=f"fracgame {name}")
    for arg in _COMMANDS[name][1]:
        parser.add_argument(arg, **_ARGUMENTS.get(arg, {}))
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The full parser: the help, and the usage errors ``_parse`` hands it."""
    parser = argparse.ArgumentParser(
        prog="fracgame",
        description="Fractional coalition analysis: cores, stability, orderings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _) in _COMMANDS.items():
        sub.add_parser(name, help=text, parents=[_command_parser(name)], add_help=False)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """``_parser().parse_args(argv)``, read by the named command's parser
    alone unless the argv names no command or has arguments left over."""
    if argv and argv[0] in _COMMANDS:
        args, extras = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return _parser().parse_args(argv)


def run(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
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
            f"{type(exc).__name__}: the input is too large for this analysis; "
            "use a game with fewer players",
            2,
        )


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
