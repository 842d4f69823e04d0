import json
import pathlib
import subprocess
import sys

import pytest

from fracgame import load_game, make_game, save_game, stable_sets
from fracgame.cli import run

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


def test_analyze_surfaces_unknown(tmp_path, capsys):
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
    statuses = {p["weak"]["status"] for p in payload["partitions"]}
    assert "unknown" in statuses


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


def test_verify_prop_suites(capsys):
    code, payload = run_json(capsys, ["verify", "prop1"])
    assert code == 0 and payload["passed"]
    code, payload = run_json(capsys, ["verify", "prop2"])
    assert code == 0 and payload["passed"]
    assert all(entry["ok"] for entry in payload["closed_form"])


def test_verify_theorem_small(capsys):
    code, payload = run_json(capsys, ["verify", "theorem", "--pairs", "3", "--samples", "40"])
    assert code == 0 and payload["passed"]
    assert len(payload["reports"]) == 3


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


def test_console_script_entry_point(super3_path):
    proc = subprocess.run(
        [sys.executable, "-m", "fracgame.cli", "validate", super3_path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["valid"]


def test_sweep_core_is_the_grand_record():
    import argparse
    import random

    from conftest import random_exact_game
    from fracgame.cli import _sweep_point
    from fracgame.stability import EMPTY, STRONG, UNKNOWN, WEAK, core_region, stable_sets

    # with two samples the sampled weak verdict depends on the seed
    game = random_exact_game(random.Random(4), 5)
    args = argparse.Namespace(cap=12, max_exact_weak_core_n=4, samples=2, seed=1)
    point = _sweep_point(args, "g", game, {})
    grand = stable_sets(game, samples=2, seed=1).records[0]
    assert grand.partition == (game.grand,)
    assert grand.weak.block_regions[0].method == "sampled(2)"
    assert point["core"] == {"strong": grand.strong.status, "weak": grand.weak.status}
    # the same verdicts as deciding the grand cores on their own
    rng = random.Random(1)
    fresh = [core_region(game, kind, samples=2, rng=rng).status for kind in (STRONG, WEAK)]
    assert [point["core"]["strong"], point["core"]["weak"]] == fresh == [EMPTY, UNKNOWN]


@pytest.mark.parametrize("error", [RecursionError, MemoryError])
def test_size_cliff_errors_exit_2(super3_path, monkeypatch, capsys, error):
    from fracgame import cli

    def too_big(args):
        raise error("simulated")

    monkeypatch.setattr(cli, "cmd_analyze", too_big)
    assert run(["analyze", super3_path]) == 2
    err = capsys.readouterr().err
    assert error.__name__ in err and "--max-exact-weak-core-n" in err


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
        ("scenario-cvar", '{"n": 26, "density": {"beta_a": 2}}'),
        ("scenario-meanstd", '{"n": 26, "mu": 1.0, "sigma": 0.5, "r": 0.5}'),
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


def test_consecutive_runs_match_separate_processes(super3_path, monkeypatch, capsys):
    # the parser is built once per process; a parse error must leave it as
    # fresh for the next call as a new interpreter's
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
    ],
)
def test_sweep_refuses_oversized_inputs_before_building_them(capsys, argv, message):
    assert run(argv) in (1, 2)
    captured = capsys.readouterr()
    assert message in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("suite", ["theorem", "corollary"])
def test_verify_reports_match_committed_bytes(capsys, suite):
    # the reports as the harnesses wrote them before judging all sampled
    # candidates of a partition at once; any change to a count, a break
    # point or a printed point shows here
    argv = ["verify", suite, "--pairs", "20", "--samples", "50", "--seed", "1"]
    assert run(argv) == 0
    golden = DATA / f"verify_{suite}_pairs20_samples50_seed1.json"
    assert capsys.readouterr().out.encode("utf-8") == golden.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "{game}", "--max-exact-weak-core-n", "-5"],
        ["core", "{game}", "--max-exact-weak-core-n", "-1"],
        ["verify", "theorem", "--pairs", "1", "--max-exact-weak-core-n", "-5"],
    ],
)
def test_negative_exact_weak_core_n_is_a_usage_error(super3_path, capsys, argv):
    assert run([a.format(game=super3_path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert "--max-exact-weak-core-n: must be a nonnegative integer" in captured.err
    assert not captured.out


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
