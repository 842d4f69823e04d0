import argparse
import ast
import dataclasses
import hashlib
import json
import math
import pathlib
import random
import subprocess
import sys

import pytest

from fracgame import DEFAULT_TOL, load_game, make_game, save_game, stable_sets
from fracgame import cli
from fracgame.cli import _sweep_point, run
from fracgame.stability import walk_partitions
from fracgame.risk import (
    MeanStdScenario,
    beta_density,
    build_cvar_game,
    build_meanstd_game,
    default_uniform_family,
)
from fracgame.games import size_values
import pins
from conftest import naive_sweep_point, random_exact_game, random_float_game

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture
def super3_path(tmp_path):
    g = make_game(3, {1: 1, 2: 1, 4: 1, 3: 3, 5: 3, 6: 3, 7: 6})
    path = tmp_path / "super3.json"
    save_game(g, path)
    return str(path)


@pytest.fixture
def scaled3_path(tmp_path):
    g = make_game(3, {1: 2, 2: 2, 4: 2, 3: 12, 5: 12, 6: 12, 7: 48})
    path = tmp_path / "scaled3.json"
    save_game(g, path)
    return str(path)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_validate_ok(super3_path, capsys):
    code, payload = run_json(capsys, ["validate", super3_path])
    assert code == 0
    assert payload["valid"] and payload["mode"] == "exact"


def test_validate_bad_game(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"players": ["a", "b"], "values": {"a": 1, "b": -1, "a,b": 2}}))
    code, payload = run_json(capsys, ["validate", str(path)])
    assert code == 1
    assert not payload["valid"]
    assert payload["issues"][0]["kind"] == "NegativeSingleton"
    assert payload["issues"][0]["coalition"] == "b"


def test_invalid_game_error_names_coalitions_by_label(tmp_path, capsys):
    # the pinned invalid file, loaded by compare: the message names its
    # coalitions by label, as validate's report does
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(pins.INVALID3))
    assert run(["compare", str(path), str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid game on 3 players: NegativeSingleton(a), MissingCoalition(b,c)\n"


def test_missing_file_is_usage_error(capsys):
    assert run(["validate", "/nonexistent/game.json"]) == 2
    assert capsys.readouterr().err


def test_no_arguments_is_usage_error(capsys):
    assert run([]) == 2
    assert run(["frobnicate"]) == 2


def test_analyze_superadditive(super3_path, capsys):
    code, payload = run_json(capsys, ["analyze", super3_path])
    assert code == 0
    assert payload["fusion_resistant"] == ["a,b,c"]
    grand = next(p for p in payload["partitions"] if p["partition"] == "a,b,c")
    assert grand["strong"]["witness"] == ["1/3", "1/3", "1/3"]


def test_tolerance_flag(super3_path, tmp_path, capsys):
    # exact games take no tolerance: same message and exit code as ever,
    # and a zero tolerance is no change
    assert run(["analyze", super3_path, "--tolerance", "1e-6"]) == 2
    assert capsys.readouterr().err == "exact mode has no tolerance\n"
    assert run(["analyze", super3_path, "--tolerance", "0"]) == 0
    capsys.readouterr()
    # a float game is analyzed at the given tolerance
    values = {1: 1.0, 2: 1.0, 4: 1.0, 3: 2.5, 5: 2.5, 6: 2.5, 7: 3.6}
    path = tmp_path / "float3.json"
    save_game(make_game(3, values), path)
    code, payload = run_json(capsys, ["analyze", str(path), "--tolerance", "0.05"])
    assert code == 0
    want = stable_sets(make_game(3, values, tol=0.05)).to_dict()
    assert payload == json.loads(json.dumps(want))
    assert payload != json.loads(json.dumps(stable_sets(make_game(3, values)).to_dict()))


def test_analyze_csv(super3_path, capsys):
    code = run(["analyze", super3_path, "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("partition,")
    assert len(lines) == 1 + 5


def test_analyze_decides_the_weak_core_sampling_cannot(tmp_path, capsys):
    # every two-two pairing blocks any split of the unit, so the grand weak
    # core is empty; the exact search says so, whatever the size flag says
    g = make_game(4, {
        1: 0, 2: 0, 4: 0, 8: 0,
        3: 13, 5: 13, 9: 13, 6: 13, 10: 13, 12: 13,
        7: 1, 11: 1, 13: 1, 14: 1,
        15: 12,
    })
    path = tmp_path / "blocky.json"
    save_game(g, path)
    code, payload = run_json(
        capsys, ["analyze", str(path), "--max-exact-weak-core-n", "3"]
    )
    assert code == 0
    grand = payload["partitions"][0]["weak"]
    assert grand["status"] == "empty" and grand["blocks"][0]["method"] == "exact-search"
    assert payload["weak_unknown"] == []
    assert "unknown" not in {p["weak"]["status"] for p in payload["partitions"]}


@pytest.mark.parametrize("command", ["analyze", "core"])
def test_max_exact_weak_core_n_has_no_effect(tmp_path, capsys, command):
    # an empty grand strong core, so the grand weak core is searched; only
    # analyze still takes the flag, which it ignores
    path = tmp_path / "g5.json"
    save_game(random_exact_game(random.Random(4), 5), path)
    assert run([command, str(path)]) == 0
    plain = capsys.readouterr().out
    code = run([command, str(path), "--max-exact-weak-core-n", "3"])
    captured = capsys.readouterr()
    if command == "analyze":
        assert code == 0 and captured.out == plain
    else:
        assert code == 2 and not captured.out
        assert "unrecognized arguments: --max-exact-weak-core-n 3" in captured.err
    payload = json.loads(plain)
    grand = payload["partitions"][0] if command == "analyze" else payload
    assert grand["strong"]["status"] == "empty"
    assert grand["weak"]["blocks"][0]["method"] == "exact-search"


def test_core_partition(super3_path, capsys):
    code, payload = run_json(capsys, ["core", super3_path, "--partition", "a,b|c"])
    assert code == 0
    assert payload["strong"]["status"] == "nonempty"
    assert payload["weak"]["status"] == "nonempty"


def test_core_bad_partition_label(super3_path, capsys):
    assert run(["core", super3_path, "--partition", "a|a"]) == 2


def test_compare_exit_codes(super3_path, scaled3_path, capsys):
    code, payload = run_json(capsys, ["compare", super3_path, scaled3_path])
    assert code == 0 and payload["holds"]
    code, payload = run_json(capsys, ["compare", scaled3_path, super3_path])
    assert code == 1 and not payload["holds"]
    assert payload["violations"]


def test_compare_dimension_mismatch(super3_path, tmp_path, capsys):
    g2 = make_game(2, {1: 1, 2: 1, 3: 2})
    other = tmp_path / "two.json"
    save_game(g2, other)
    assert run(["compare", super3_path, str(other)]) == 2


def test_scenario_meanstd_round_trip(tmp_path, capsys):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"n": 3, "mu": 1.0, "sigma": 0.5, "r": 0.5}))
    code = run(["scenario-meanstd", str(scen), "--out", str(tmp_path / "o")])
    assert code == 0
    game = load_game(tmp_path / "o" / "meanstd-game.json")
    assert game.n == 3 and game.mode == "float"


def test_scenario_meanstd_bad_r(tmp_path, capsys):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"n": 3, "mu": 1.0, "sigma": 0.5, "r": 9.0}))
    assert run(["scenario-meanstd", str(scen)]) == 1


def test_scenario_cvar(tmp_path, capsys):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"n": 3, "density": {"beta_a": 2}}))
    code, payload = run_json(capsys, ["scenario-cvar", str(scen)])
    assert code == 0
    assert payload["mode"] == "float"
    assert len(payload["values"]) == 7


def test_scenario_cvar_from_samples(tmp_path, capsys):
    scen = tmp_path / "scen.json"
    scen.write_text(
        json.dumps(
            {
                "players": ["x", "y"],
                "curves": {
                    "x": {"samples": [1.0, 2.0], "knot_count": 3},
                    "y": {"samples": [1.0, 2.0], "knot_count": 3},
                    "x,y": [[0, 2.5], [1, 4.5]],
                },
                "density": {"knots": [[0, 1], [1, 1]]},
            }
        )
    )
    code, payload = run_json(capsys, ["scenario-cvar", str(scen)])
    assert code == 0
    assert abs(float(payload["values"]["x"]) - 1.25) < 1e-10
    assert abs(float(payload["values"]["x,y"]) - 3.0) < 1e-10


@pytest.mark.parametrize("n", [1, 2])
def test_scenario_cvar_refuses_a_density_whose_integral_overflows(tmp_path, capsys, n):
    # the integral of 1e308 over [0, 1] overflows; dividing by it would zero the density
    scen = tmp_path / "scen.json"
    density = {"knots": [[0, 1e308], [1, 1e308]], "normalize": True}
    scen.write_text(json.dumps({"n": n, "density": density}))
    assert run(["scenario-cvar", str(scen)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "density: density integral overflows the float range\n"


def test_scenario_cvar_refuses_a_density_that_overflows_once_normalized(tmp_path):
    # the density integrates to about 1e-310, and 1 / 1e-310 overflows: the
    # density is refused with no numpy warning, not read as a nan game
    scen = tmp_path / "scen.json"
    density = {"knots": [[0, 1], [5e-324, 1e-310], [1, 1e-310]], "normalize": True}
    scen.write_text(json.dumps({"n": 1, "density": density}))
    proc = subprocess.run(
        [sys.executable, "-m", "fracgame.cli", "scenario-cvar", str(scen)],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "density: normalized density overflows the float range\n"


def test_only_risk_imports_numpy():
    # numpy serves the quadrature alone; every other module is plain Python
    importers = set()
    for path in sorted((pathlib.Path(cli.__file__).parent).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.partition(".")[0] == "numpy" for name in names):
                importers.add(path.name)
    assert importers == {"risk.py"}


def test_cvar_commands_never_import_numpy_ma():
    # np.quantile imports numpy.ma (through np.unique) on its first call
    script = f"""
import sys
from fracgame import cli
assert cli.run(["scenario-cvar", {str(DATA / "scenario_cvar_empirical_n3.json")!r}]) == 0
assert cli.run(["sweep", "--scenario", "cvar", "--n", "3", "--beta-a", "1,2"]) == 0
sys.exit("numpy.ma" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_scenario_cvar_missing_grand_curve_names_player_count(tmp_path, capsys):
    scen = tmp_path / "scen.json"
    scen.write_text(
        json.dumps({"curves": {"a": [[0, 1], [1, 2]], "b": [[0, 1], [1, 2]]}, "density": {"beta_a": 1}})
    )
    assert run(["scenario-cvar", str(scen)]) == 1
    assert "coalitions of 2 players" in capsys.readouterr().err


def test_sweep_meanstd(capsys):
    code, payload = run_json(
        capsys,
        ["sweep", "--scenario", "meanstd", "--n", "3", "--r", "0:1:0.5"],
    )
    assert code == 0
    assert payload["grid"] == ["r=0", "r=0.5", "r=1"]
    matrix = payload["leq_cp_matrix"]
    for i in range(3):
        for j in range(i, 3):
            assert matrix[i][j]
    counts = [p["counts"]["fusion_resistant"] for p in payload["points"]]
    assert counts == sorted(counts, reverse=True)


def test_sweep_cvar_csv(capsys):
    code = run(
        ["sweep", "--scenario", "cvar", "--n", "3", "--beta-a", "1,2", "--format", "csv"]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("label,")
    assert lines[1].startswith("a=1,") and lines[2].startswith("a=2,")


def test_verify_all_writes_reports_deterministically(tmp_path, capsys):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    argv = ["verify", "all", "--pairs", "2", "--samples", "30", "--seed", "9"]
    assert run(argv + ["--out", str(out1)]) == 0
    first_stdout = capsys.readouterr().out
    assert run(argv + ["--out", str(out2)]) == 0
    second_stdout = capsys.readouterr().out
    assert first_stdout == second_stdout
    names = sorted(p.name for p in out1.iterdir())
    assert names == [
        "verify-corollary.json",
        "verify-prop1.json",
        "verify-prop2.json",
        "verify-summary.json",
        "verify-theorem.json",
    ]
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_verify_all_generates_each_pair_once(monkeypatch, tmp_path, capsys):
    # both inclusion suites judge one generated list of pairs, and write
    # the reports each suite prints when it runs alone
    generated = []
    generate = cli.generate_ordered_pair

    def counting(seed, n):
        generated.append((seed, n))
        return generate(seed, n)

    monkeypatch.setattr(cli, "generate_ordered_pair", counting)
    argv = ["--pairs", "3", "--samples", "20", "--seed", "4"]
    assert run(["verify", "all", *argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert len(generated) == len(set(generated)) == 3
    for suite in ("theorem", "corollary"):
        generated.clear()
        assert run(["verify", suite, *argv]) == 0
        assert capsys.readouterr().out == (tmp_path / f"verify-{suite}.json").read_text()
        assert len(generated) == 3


def test_console_script_entry_point(super3_path):
    proc = subprocess.run(
        [sys.executable, "-m", "fracgame.cli", "validate", super3_path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["valid"]


def test_sweep_core_is_the_grand_record():
    from fracgame.stability import EMPTY, NONEMPTY, STRONG, WEAK, core_region

    # a size-symmetric exact game, as sweeps take: two players earn 3 but
    # the equal split gives them 12/5, so the grand strong core is empty
    # over a nonempty split simplex and the grand weak verdict is searched
    by_size = (None, 1, 3, 4, 5, 6)
    game = make_game(5, {m: by_size[m.bit_count()] for m in range(1, 32)})
    args = argparse.Namespace(cap=12)
    point = _sweep_point(args, "g", game, {})
    grand = stable_sets(game).records[0]
    assert grand.partition == (game.grand,)
    assert grand.weak.block_regions[0].method == "exact-search"
    assert point["core"] == {"strong": grand.strong.status, "weak": grand.weak.status}
    # the same verdicts as deciding the grand cores on their own
    fresh = [core_region(game, kind).status for kind in (STRONG, WEAK)]
    assert [point["core"]["strong"], point["core"]["weak"]] == fresh
    assert fresh[0] == EMPTY and fresh[1] in (EMPTY, NONEMPTY)


@pytest.mark.parametrize("error", [RecursionError, MemoryError])
def test_size_cliff_errors_exit_2(super3_path, monkeypatch, capsys, error):
    from fracgame import cli

    def too_big(args):
        raise error("simulated")

    monkeypatch.setattr(cli, "cmd_analyze", too_big)
    assert run(["analyze", super3_path]) == 2
    err = capsys.readouterr().err
    assert error.__name__ in err and "use a game with fewer players" in err
    assert "--max-exact-weak-core-n" not in err


@pytest.mark.parametrize(
    "command, scenario",
    [
        ("scenario-cvar", '{"n": 3, "density": 3}'),
        ("scenario-cvar", '{"curves": [1, 2], "density": {"beta_a": 2}}'),
        ("scenario-cvar", '{"curves": {"a": 5}, "density": {"beta_a": 2}}'),
        ("scenario-cvar", '{"n": 3, "density": {"knots": 5}}'),
        ("scenario-cvar", '{"curves": {"a": {"samples": 5}}, "density": {"beta_a": 2}}'),
        ("scenario-cvar", '{"n": 3, "players": 3, "density": {"beta_a": 2}}'),
        ("scenario-cvar", '{"curves": {"a": {"samples": [1, NaN]}}, "density": {"beta_a": 2}}'),
        ("scenario-cvar", '{"n": 2, "density": {"knots": [[0, Infinity], [1, 1]]}}'),
        ("scenario-meanstd", '{"n": 3, "mu": 1.0, "sigma": 0.5, "r": 0.5, "phi": 3}'),
        ("scenario-meanstd", '{"n": 3, "mu": 1.0, "sigma": 0.5, "r": 0.5, "players": 5}'),
        ("scenario-meanstd", '{"n": 1e400, "mu": 1.0, "sigma": 0.5, "r": 0.5}'),
        (
            "scenario-meanstd",
            '{"n": 2, "mu": 1.0, "sigma": 0.5, "r": 0.5, "players": [" a", "b"],'
            ' "phi": {"a": 1.1}}',
        ),
        ("scenario-meanstd", '{"n": 2, "mu": 1.0, "sigma": 0.5, "r": 0.5, "phi": {"z": 1.1}}'),
        ("scenario-cvar", '{"n": 26, "density": {"beta_a": 2}}'),
        ("scenario-meanstd", '{"n": 26, "mu": 1.0, "sigma": 0.5, "r": 0.5}'),
        ("scenario-cvar", '{"n": 2, "density": {"beta_a": 2, "knot_count": 1000000000}}'),
        (
            "scenario-cvar",
            '{"curves": {"a": {"samples": [1], "knot_count": 1000000000}}, "density": {"beta_a": 2}}',
        ),
        (
            "scenario-cvar",
            json.dumps(
                {
                    "curves": {"a": [[0, 1], [1, 2]]},
                    "players": [f"p{i}" for i in range(40)],
                    "density": {"beta_a": 2},
                }
            ),
        ),
    ],
)
def test_malformed_scenario_exits_without_traceback(tmp_path, capsys, command, scenario):
    scen = tmp_path / "scen.json"
    scen.write_text(scenario)
    assert run([command, str(scen)]) in (1, 2)
    err = capsys.readouterr().err
    assert err and "Traceback" not in err


@pytest.mark.parametrize(
    "scenario, message",
    [
        ({"n": 2, "density": {"beta_a": 2, "knot_count": 1}}, "density: need at least two knots"),
        ({"n": 2, "density": {"beta_a": 0.5}}, "density: shape parameter must be at least 1"),
        (
            {"curves": {"a": [[0, 2], [1, 1]]}, "density": {"beta_a": 2}},
            "curves.a: curve must be nondecreasing",
        ),
        (
            {"n": 2, "density": {"knots": [[0, 2], [1, 2]]}},
            "density: density integrates to 2.0, not 1; pass normalize=True",
        ),
        (
            {"curves": {"a": {"samples": [1, 2], "knot_count": 1}}, "density": {"beta_a": 2}},
            "curves.a: need at least two knots",
        ),
    ],
)
def test_refused_scenario_values_exit_like_mistyped_fields(tmp_path, capsys, scenario, message):
    # a value the curve or density constructor refuses is a malformed
    # scenario field: exit 1 with one line naming the field
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(scenario))
    assert run(["scenario-cvar", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == message + "\n" and not captured.out


_MEANSTD = {"n": 2, "mu": 1.0, "sigma": 0.5, "r": 0.5}
_CURVE = [[0, 1], [1, 2]]


@pytest.mark.parametrize(
    "command, scenario, message",
    [
        (
            "scenario-meanstd",
            {**_MEANSTD, "players": [" a", "b"], "phi": {"a": 1.1}},
            "player name ' a' may not be empty, contain ',' or '|', "
            "or start or end with whitespace",
        ),
        (
            "scenario-meanstd",
            {**_MEANSTD, "players": ["a", "a"]},
            "players must be n distinct names",
        ),
        ("scenario-meanstd", {**_MEANSTD, "phi": {"z": 1.1}}, "phi.z: unknown player 'z'"),
        (
            "scenario-meanstd",
            {**_MEANSTD, "phi": {"a,a": 1.1}},
            "phi.a,a: player 'a' repeated in coalition 'a,a'",
        ),
        (
            "scenario-meanstd",
            {**_MEANSTD, "phi": {"a,b": 1.1, "b,a": 1.2}},
            "phi.b,a: coalition listed twice",
        ),
        (
            "scenario-cvar",
            {"curves": {"a": _CURVE, "z,a": _CURVE}, "density": {"beta_a": 2}},
            "curves.z,a: unknown player 'z'",
        ),
        (
            "scenario-cvar",
            {"curves": {"a": _CURVE, "b": _CURVE, "a,b": _CURVE, "b,a": _CURVE},
             "density": {"beta_a": 2}},
            "curves.b,a: coalition listed twice",
        ),
        (
            "scenario-cvar",
            {"curves": {"a ": _CURVE}, "density": {"beta_a": 2}},
            "player name 'a ' may not be empty, contain ',' or '|', "
            "or start or end with whitespace",
        ),
    ],
)
def test_scenario_labels_are_malformed_fields(tmp_path, capsys, command, scenario, message):
    # player names follow the game files' rule before any label is decoded,
    # and a label naming no player, a player twice or a coalition twice is
    # a malformed field: exit 1 with one line naming it
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(scenario))
    assert run([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == message + "\n" and not captured.out


_SWEEP = ["sweep", "--scenario", "meanstd", "--n", "3", "--r", "0.1"]
_CVAR_SWEEP = ["sweep", "--scenario", "cvar", "--n", "2", "--beta-a"]


@pytest.mark.parametrize(
    "argv, scenario, message",
    [
        (["scenario-meanstd"], {**_MEANSTD, "mu": math.nan}, "mu must be a finite number, got nan"),
        (["scenario-meanstd"], {**_MEANSTD, "mu": math.inf}, "mu must be a finite number, got inf"),
        (
            ["scenario-meanstd"],
            {**_MEANSTD, "sigma": math.inf},
            "sigma must be a finite number, got inf",
        ),
        (
            ["scenario-meanstd"],
            {**_MEANSTD, "sigma": math.nan},
            "sigma must be a finite number, got nan",
        ),
        (
            ["scenario-cvar"],
            {"n": 2, "density": {"beta_a": math.inf}},
            "density: shape parameter must be a finite number, got inf",
        ),
        (
            ["scenario-cvar"],
            {"n": 2, "density": {"beta_a": math.nan}},
            "density: shape parameter must be a finite number, got nan",
        ),
        (
            ["scenario-meanstd"],
            {**_MEANSTD, "phi": {"default": math.inf}},
            "phi.default must be a finite number, got inf",
        ),
        (
            ["scenario-meanstd"],
            {**_MEANSTD, "phi": {"a,b": math.nan}},
            "phi.a,b must be a finite number, got nan",
        ),
        (
            ["scenario-meanstd"],
            {**_MEANSTD, "phi": {"default": 2.0, "a": -math.inf}},
            "phi.a must be a finite number, got -inf",
        ),
        (_SWEEP + ["--mu", "inf"], None, "mu must be a finite number, got inf"),
        # finite fields whose coalition values overflow name the field
        (
            ["scenario-meanstd"],
            {"n": 3, "mu": 1e308, "sigma": 1, "r": 0},
            "mu: coalition a,b is worth inf, beyond the float range",
        ),
        (
            ["scenario-meanstd"],
            {**_MEANSTD, "mu": 1e300, "phi": {"a,b": 1e10}},
            "phi.a,b: coalition a,b is worth inf, beyond the float range",
        ),
        (_SWEEP + ["--mu", "1e308"], None, "mu: coalition a,b is worth inf, beyond the float range"),
        (_SWEEP + ["--sigma", "nan"], None, "sigma must be a finite number, got nan"),
        # a sweep's shapes that beta_density refuses, like a scenario file's
        (_CVAR_SWEEP + ["0.5"], None, "beta_a=0.5: shape parameter must be at least 1"),
        (
            _CVAR_SWEEP + ["1e308"],
            None,
            "beta_a=1e+308: density must be strictly positive inside (0, 1)",
        ),
        # non-finite values that were already refused keep their messages
        (["scenario-meanstd"], {**_MEANSTD, "mu": -math.inf}, "mu and sigma must be positive"),
        (
            ["scenario-cvar"],
            {"n": 2, "density": {"beta_a": -math.inf}},
            "density: shape parameter must be at least 1",
        ),
        (
            ["scenario-meanstd"],
            {**_MEANSTD, "r": math.inf},
            "risk aversion inf outside [0, 2.0)",
        ),
    ],
)
def test_non_finite_risk_parameters_name_their_field(tmp_path, capsys, argv, scenario, message):
    # a non-finite mean, spread, synergy factor or shape is a malformed
    # scenario field: exit 1 with one line naming it, not a bound or value
    # error it leads to
    if scenario is not None:
        path = tmp_path / "scen.json"
        path.write_text(json.dumps(scenario))
        argv = argv + [str(path)]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == message + "\n" and not captured.out


@pytest.mark.parametrize("command", ["validate", "analyze", "core", "compare"])
@pytest.mark.parametrize(
    "text, message",
    [
        ('{"players": ["a", "b"], "values": {"a": 1, "b": 1, "a,b": "1/0"}}', "divides by zero"),
        ("[1, 2]", "game JSON must be an object"),
        ('{"players": 5, "values": {}}', "needs a nonempty 'players' list"),
        # a string or an object is not a players list, though both iterate
        ('{"players": "ab", "values": {"a": 1, "b": 1, "a,b": 3}}', "nonempty 'players' list"),
        (
            '{"players": {"a": 1, "b": 2}, "values": {"a": 1, "b": 1, "a,b": 3}}',
            "nonempty 'players' list",
        ),
        # names no label can spell are refused before any label is read
        ('{"players": [" a", "b"], "values": {"a": 1, "b": 1, "a,b": 3}}', "player name ' a'"),
        ('{"players": ["a,c", "b"], "values": {"a": 1, "b": 1}}', "player name 'a,c'"),
    ],
)
def test_malformed_game_file_exits_without_traceback(tmp_path, capsys, command, text, message):
    path = tmp_path / "game.json"
    path.write_text(text)
    argv = [command, str(path)] + ([str(path)] if command == "compare" else [])
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.err.count("\n") == 1 and not captured.out


def test_consecutive_runs_match_separate_processes(super3_path, monkeypatch, capsys):
    # the parsers are built once per process; a parse error must leave them
    # as fresh for the next call as a new interpreter's
    monkeypatch.setenv("COLUMNS", "80")
    argvs = [
        ["verify", "theorem", "--pairs", "x"],
        ["verify", "theorem", "--pairs", "1", "--samples", "5", "--seed", "3"],
        ["analyze", super3_path, "--samples", "-1"],
        ["validate", super3_path],
        ["core", "--help"],
        ["core", super3_path, "--partition", "a|b,c"],
    ]
    in_process = []
    for argv in argvs:
        code = run(argv)
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    separate = []
    for argv in argvs:
        proc = subprocess.run(
            [sys.executable, "-m", "fracgame.cli", *argv], capture_output=True, text=True
        )
        separate.append((proc.returncode, proc.stdout, proc.stderr))
    assert in_process == separate
    assert [code for code, _, _ in in_process] == [2, 0, 2, 0, 0, 0]


def _subparsers():
    """The full parser's subparser per command name."""
    actions = cli._parser()._actions
    return next(a for a in actions if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_command_parser_prints_the_full_parsers_help(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    command, sub = cli._command_parser(name), _subparsers()[name]
    assert command.format_help() == sub.format_help()
    assert command.format_usage() == sub.format_usage()


def test_full_parser_lists_every_command_in_order():
    assert list(_subparsers()) == list(cli._COMMANDS)


_VALID_ARGVS = [
    ["validate", "g.json", "--out", "o"],
    ["analyze", "g.json"],
    ["analyze", "g.json", "--max-exact-weak-core-n", "3", "--form", "csv", "--cap", "5"],
    ["analyze", "--tolerance", "0", "g.json", "--out", "o", "--format", "json"],
    ["core", "g.json", "--partition", "a,b|c", "--tolerance", "1e-6"],
    ["compare", "g1.json", "g2.json", "--out", "o"],
    ["scenario-meanstd", "s.json", "--tolerance", "1e-3"],
    ["scenario-cvar", "s.json"],
    ["sweep", "--scenario", "meanstd"],
    ["sweep", "--scenario", "cvar", "--n", "3", "--beta-a", "1,2", "--format", "csv"],
    ["sweep", "--scenario", "meanstd", "--mu", "2", "--sigma", "1", "--r", "0:1:0.5", "--cap", "9"],
    ["verify", "all"],
    ["verify", "theorem", "--pairs", "2", "--samples", "3", "--seed", "-4", "--out", "o"],
]


@pytest.mark.parametrize("argv", _VALID_ARGVS)
def test_command_parser_reads_what_the_full_parser_reads(argv):
    assert cli._parse(argv) == cli._parser().parse_args(argv)


def test_a_command_builds_only_its_own_parser(capsys):
    cli._parser.cache_clear()
    cli._command_parser.cache_clear()
    assert cli._parse(["verify", "prop1"]).suite == "prop1"
    assert cli._parse(["verify", "prop2", "--seed", "1"]).seed == 1
    assert (cli._parser.cache_info().currsize, cli._command_parser.cache_info().misses) == (0, 1)
    # arguments left over go to the full parser, which reports them
    assert run(["verify", "prop1", "extra"]) == 2
    assert cli._parser.cache_info().currsize == 1
    assert "fracgame: error: unrecognized arguments: extra" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["sweep", "--help"],
        ["frobnicate"],
        ["verify", "bogus"],
        ["analyze", "g.json", "--format", "xml"],
        ["analyze"],
        ["compare", "g1.json"],
        ["verify", "theorem", "--pairs", "x"],
        ["sweep", "--scenario", "meanstd", "--n", "1.5"],
        ["analyze", "g.json", "--bogus"],
        ["core", "g.json", "--samples", "5"],
        ["compare", "g1.json", "g2.json", "g3.json"],
        ["--tolerance", "1", "analyze", "x"],
        ["--", "analyze", "x"],
    ],
)
def test_usage_errors_match_the_full_parser(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    got = run(argv), *capsys.readouterr()
    monkeypatch.setattr(cli, "_parse", lambda argv: cli._parser().parse_args(argv))
    assert got == (run(argv), *capsys.readouterr())
    assert got[0] in (0, 2) and "Traceback" not in got[2]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "theorem", "--pairs", "-1"], "--pairs: must be a nonnegative integer, got -1"),
        (["verify", "theorem", "--samples", "-3"], "--samples: must be a nonnegative integer"),
        (["verify", "corollary", "--pairs", "-2", "--samples", "4"], "--pairs: must be a"),
    ],
)
def test_negative_counts_are_usage_errors(capsys, argv, message):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err and not captured.out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--scenario", "meanstd", "--n", "40"], "n must be in 1..16, got 40"),
        (["sweep", "--scenario", "cvar", "--n", "30"], "n must be in 1..16, got 30"),
        (["sweep", "--scenario", "meanstd", "--n", "0"], "n must be in 1..16, got 0"),
        (
            ["sweep", "--scenario", "meanstd", "--r", "0:1e9:1e-9"],
            "has 1000000000000000001 points, more than 10000",
        ),
        (["sweep", "--scenario", "meanstd", "--r", "1e400"], "grid '1e400' has a point beyond"),
        (["sweep", "--scenario", "meanstd", "--r", "0:1e400:1e399"], "beyond the float range"),
        (["sweep", "--scenario", "cvar", "--beta-a", "1e400"], "grid '1e400' has a point beyond"),
    ],
)
def test_sweep_refuses_oversized_inputs_before_building_them(capsys, argv, message):
    assert run(argv) in (1, 2)
    captured = capsys.readouterr()
    assert message in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["--scenario", "meanstd", "--r", "1/0"],
        ["--scenario", "meanstd", "--r", "0,1/0"],
        ["--scenario", "meanstd", "--r", "0:1/0:1"],
        ["--scenario", "meanstd", "--r", "0:1:1/0"],
        ["--scenario", "cvar", "--beta-a", "1/0"],
        ["--scenario", "meanstd", "--r", "nan"],
        ["--scenario", "meanstd", "--r", "0,,1"],
        ["--scenario", "meanstd", "--r", "abc"],
        ["--scenario", "cvar", "--beta-a", "inf"],
    ],
)
def test_sweep_refuses_zero_denominator_grids(capsys, argv):
    # and grids with a value that is not a number, named the same way
    problem = "a zero denominator" if "1/0" in argv[-1] else "a value that is not a number"
    assert run(["sweep", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"grid {argv[-1]!r} has {problem}\n" and not captured.out


@pytest.mark.parametrize("pin", [p for p in pins.PINS if not p.slow], ids=lambda p: p.name)
def test_pinned_run(tmp_path, pin):
    # each row of the table of pinned runs that is not slow, through cli.run
    # in this process; tests/pins.py runs every row in a child process
    assert pins.check(pin, tmp_path, pins.run_in_process) == ([], None)


def test_pinned_runner_fails_and_names_each_row_that_is_off(tmp_path, capsys):
    # a row passes on its digest, and the runner fails naming every row whose
    # digest is one byte off, whose golden is missing, whose exit code is
    # wrong or whose child's peak RSS or wall time reaches its bound
    true, flipped = tmp_path / "true.sha256", tmp_path / "flipped.sha256"
    digest = hashlib.sha256(b"pinned\n").hexdigest()
    true.write_text(f"{digest}  -\n")
    flipped.write_text(f"{'1' if digest[0] == '0' else '0'}{digest[1:]}  -\n")
    good = pins.Pin("good", ("-c", "print('pinned')"), {pins.STDOUT: str(true)})
    changes = {
        "flipped-digest": {"expect": {pins.STDOUT: str(flipped)}},
        "missing-golden": {"expect": {pins.STDOUT: "absent.json"}},
        "wrong-exit-code": {"code": 1},
        "rss-bound": {"max_rss_mb": 1},
        "time-bound": {"max_seconds": 0.001},
    }
    rows = [good, *(dataclasses.replace(good, name=name, **change) for name, change in changes.items())]
    assert pins.run_rows(rows) == 1
    out = capsys.readouterr().out.splitlines()
    fails = [line for line in out if line.startswith("FAIL")]
    assert fails[:3] == [
        f"FAIL flipped-digest: stdout does not match the digest {flipped}",
        "FAIL missing-golden: golden absent.json is missing",
        "FAIL wrong-exit-code: exit 0, not 1",
    ]
    assert len(fails) == 5 and fails[3].startswith("FAIL rss-bound: peak RSS ")
    assert fails[4].startswith("FAIL time-bound: took ") and fails[4].endswith(" s, bound 0.001 s")
    assert out[-1] == (
        "5 of 6 pinned runs failed: flipped-digest, missing-golden, wrong-exit-code, rss-bound, time-bound"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(
            ["analyze", "{game}", "--max-exact-weak-core-n", "-5"],
            "--max-exact-weak-core-n: must be a nonnegative integer",
            id="argv0",
        ),
        # only analyze takes the flag
        pytest.param(
            ["core", "{game}", "--max-exact-weak-core-n", "-1"],
            "unrecognized arguments: --max-exact-weak-core-n -1",
            id="argv1",
        ),
        pytest.param(
            ["verify", "theorem", "--pairs", "1", "--max-exact-weak-core-n", "-5"],
            "unrecognized arguments: --max-exact-weak-core-n -5",
            id="argv2",
        ),
    ],
)
def test_negative_exact_weak_core_n_is_a_usage_error(super3_path, capsys, argv, message):
    assert run([a.format(game=super3_path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert not captured.out


# a small input per subcommand, and the options every subcommand used to
# take, each with a value and the 21 (subcommand, option) pairs that read it
SUBCOMMAND_ARGV = {
    "validate": ["{game}"],
    "analyze": ["{game}"],
    "core": ["{game}"],
    "compare": ["{game}", "{game}"],
    "scenario-meanstd": ["{meanstd}"],
    "scenario-cvar": ["{cvar}"],
    "sweep": ["--scenario", "meanstd", "--n", "3", "--r", "0,0.5"],
    "verify": ["theorem", "--pairs", "0"],
}
SHARED_OPTIONS = {
    "--seed": ("3", {"verify"}),
    "--samples": ("5", {"verify"}),
    "--tolerance": ("0", set(SUBCOMMAND_ARGV) - {"validate", "verify"}),
    "--cap": ("12", {"analyze", "sweep"}),
    "--format": ("csv", {"analyze", "sweep"}),
    "--out": ("{out}", set(SUBCOMMAND_ARGV)),
    "--max-exact-weak-core-n": ("5", {"analyze"}),
}


@pytest.mark.parametrize("option", list(SHARED_OPTIONS))
@pytest.mark.parametrize("command", list(SUBCOMMAND_ARGV))
def test_subcommands_take_only_the_options_they_read(
    super3_path, tmp_path, capsys, command, option
):
    # an option a subcommand does not read is a usage error, not ignored
    meanstd, cvar = tmp_path / "meanstd.json", tmp_path / "cvar.json"
    meanstd.write_text(json.dumps({"n": 3, "mu": 1.0, "sigma": 0.5, "r": 0.5}))
    cvar.write_text(json.dumps({"n": 3, "density": {"beta_a": 2}}))
    paths = {"game": super3_path, "meanstd": meanstd, "cvar": cvar, "out": tmp_path / "o"}
    value, readers = SHARED_OPTIONS[option]
    value = value.format(**paths)
    code = run([command, *(a.format(**paths) for a in SUBCOMMAND_ARGV[command]), option, value])
    captured = capsys.readouterr()
    if command in readers:
        assert code == 0
    else:
        assert code == 2 and not captured.out
        assert f"unrecognized arguments: {option} {value}" in captured.err


@pytest.mark.parametrize("tolerance", ["true", "-0.5", "1e400", '"0.1"', "null"])
def test_game_file_tolerance_must_be_finite_and_nonnegative(tmp_path, capsys, tolerance):
    # null means the mode's default; the rest are refused like any other
    # malformed game file
    path = tmp_path / "float2.json"
    path.write_text(
        '{"players": ["a", "b"], "mode": "float", "tolerance": %s,'
        ' "values": {"a": 1.0, "b": 1.0, "a,b": 3.0}}' % tolerance
    )
    code = run(["core", str(path)])
    captured = capsys.readouterr()
    if tolerance == "null":
        assert code == 0 and captured.out
    else:
        assert code == 2 and not captured.out
        assert captured.err.startswith("tolerance must be a finite nonnegative number, got ")


@pytest.mark.parametrize("flag", ["nan", "inf", "-inf", "-0.5", "1e400"])
@pytest.mark.parametrize("command", ["core", "sweep"])
def test_tolerance_flag_must_be_finite_and_nonnegative(tmp_path, capsys, flag, command):
    path = tmp_path / "float2.json"
    save_game(make_game(2, {1: 1.0, 2: 1.0, 3: 3.0}), path)
    argv = ["core", str(path)] if command == "core" else ["sweep", "--scenario", "meanstd"]
    assert run(argv + [f"--tolerance={flag}"]) == 2
    captured = capsys.readouterr()
    assert "--tolerance: must be a finite nonnegative number" in captured.err
    assert not captured.out


def _sweep_games(n: int):
    """(label, game, extra) per grid point, built as ``sweep`` builds them:
    meanstd over several (mu, sigma) pairs and grids, including r = 0 with
    a mu whose rounded values leave some block sizes without a strong
    core, and cvar over several shapes."""
    for mu, sigma, grid in (
        (1.0, 0.5, (0.0, 0.5, 1.5)),
        (1.3, 0.6, (0.2, 2.1)),
        (7 / 37, 0.1, (0.0, 1.8)),
        (9 / 37, 0.3, (0.0,)),
    ):
        for r in grid:
            game = build_meanstd_game(MeanStdScenario(n, mu, sigma, r), tol=DEFAULT_TOL)
            yield f"r={r:g}", game, {"r": r}
    for a in (1.0, 2.0, 3.5):
        game = build_cvar_game(default_uniform_family(n), beta_density(a), tol=DEFAULT_TOL)
        yield f"a={a:g}", game, {"beta_a": a}


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_sweep_points_match_the_report_oracle(n):
    # the type walk against the point read off a full report; from four
    # players on, some game has two types with equally many blocks and
    # different statuses, so types cannot be told apart by block count
    args = argparse.Namespace(cap=12)
    apart = False
    for label, game, extra in _sweep_games(n):
        assert _sweep_point(args, label, game, extra) == naive_sweep_point(args, label, game, extra)
        by_count = {}
        for partition, _, _, strong, weak, _ in walk_partitions(game):
            by_count.setdefault(len(partition), set()).add((strong, weak))
        apart |= any(len(statuses) > 1 for statuses in by_count.values())
    assert apart == (n > 3)
    # the walk serves any game: asymmetric ones decide each partition alone
    if n <= 5:
        for game in (random_exact_game(random.Random(n), n), random_float_game(random.Random(n), n)):
            assert size_values(game) is None
            assert _sweep_point(args, "g", game, {}) == naive_sweep_point(args, "g", game, {})
