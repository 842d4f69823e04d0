"""Tests of the benchmark itself: generators, checker and tracer.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import random
import signal
import sys
import time
from fractions import Fraction

import pytest

import checker
import run
import workloads
from run import fresh_cli
from tracer import Tracer

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = fresh_cli().run(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_byte_stable(tmp_path, workload):
    a = workloads.build(workload, 7, str(tmp_path / "a"))
    b = workloads.build(workload, 7, str(tmp_path / "b"))
    other = workloads.build(workload, 8, str(tmp_path / "c"))
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    strip = lambda ops, d: [[x.replace(str(tmp_path / d), "") for x in op.argv] for op in ops]
    assert strip(a, "a") == strip(b, "b")
    assert [op.props for op in a] == [op.props for op in b]
    assert (_files(tmp_path / "a"), [op.argv for op in a]) != (
        _files(tmp_path / "c"), [op.argv for op in other],
    )


def test_pair_seeds_give_the_planned_player_counts(tmp_path):
    ops = workloads.build("ordered-pairs", 3, str(tmp_path), workloads.prepare("ordered-pairs", 3))
    heavy = next(op for op in ops if op.kind == "verify-corollary")
    assert sorted(heavy.props["pair_n"]) == sorted(workloads.PAIR_PLAN[0][0])
    small = next(op for op in ops if op.props["pair_n"] == [2, 2, 2, 2])
    for op in (heavy, small):
        code, out = _cli(op.argv)
        assert code == 0
        assert [r["n"] for r in json.loads(out)["reports"]] == op.props["pair_n"]


def _small_analyze(tmp_path):
    values = workloads.cut_game_values(random.Random(5), 4)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(workloads.game_payload(values, 4)))
    op = workloads.Op("analyze", ["analyze", str(path)], {"n": 4}, {"values": values, "n": 4})
    code, out = _cli(op.argv)
    return op, code, out


def test_checker_accepts_real_analyze_and_rejects_a_perturbed_share(tmp_path):
    op, code, out = _small_analyze(tmp_path)
    assert checker.check(op, code, out) == []
    rep = json.loads(out)
    assert rep["stable_weak"], "fixture needs a stable witness"
    bad = copy.deepcopy(rep)
    entry = bad["stable_weak"][0]
    entry["witness"][0] = str(Fraction(str(entry["witness"][0])) + Fraction(1, 97))
    assert checker.check(op, 0, json.dumps(bad))
    assert checker.check(op, 1, out) == ["exit code 1"]


def test_checker_rejects_an_unproved_empty_block(tmp_path):
    op, code, out = _small_analyze(tmp_path)
    rep = json.loads(out)
    # flip one nonempty strong block of a small (supermodular) coalition to empty
    rec = next(r for r in rep["partitions"] if r["partition"].count("|") == 1
               and max(len(b.split(",")) for b in r["partition"].split("|")) == 3)
    rec["strong"]["blocks"][0]["status"] = "empty"
    rec["strong"]["status"] = "empty"
    rec["strong"]["witness"] = None
    problems = checker.check(op, code, json.dumps(rep))
    assert any("without a proof of emptiness" in p for p in problems)
    # dropping a partition record is caught too
    rep = json.loads(out)
    del rep["partitions"][3]
    assert any("Bell(4)" in p for p in checker.check(op, code, json.dumps(rep)))


def _meanstd_sweep_op():
    mu, sigma, grid = 1.2, 0.5, ["0.5", "1.5"]
    argv = ["sweep", "--scenario", "meanstd", "--n", "3", "--mu", repr(mu), "--sigma",
            repr(sigma), "--r", ",".join(grid)]
    return workloads.Op("sweep-meanstd", argv, {}, {"n": 3, "mu": mu, "sigma": sigma, "r": grid})


def test_checker_requires_complete_sweep_answers():
    op = _meanstd_sweep_op()
    code, out = _cli(op.argv)
    assert checker.check(op, code, out) == []
    rep = json.loads(out)
    assert rep["points"][0]["stable_weak"] == ["a,b,c"]
    for mutate in (
        lambda p: p.update(stable_strong=[], stable_weak=[], most_consolidated=None),
        lambda p: p["counts"].update(patched_weak=1),
        lambda p: p["core"].update(strong="empty"),
    ):
        bad = copy.deepcopy(rep)
        mutate(bad["points"][0])
        bad["points"][0]["counts"]["stable_weak"] = len(bad["points"][0]["stable_weak"])
        assert checker.check(op, code, json.dumps(bad))


def test_checker_fails_a_broken_lp(tmp_path, monkeypatch):
    analyze, _, _ = _small_analyze(tmp_path)
    sweep = _meanstd_sweep_op()
    cli = fresh_cli()
    from fracgame import linfeas

    monkeypatch.setattr(linfeas, "feasible", lambda system: None)
    for op in (analyze, sweep):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(op.argv)
        assert checker.check(op, code, out.getvalue())


def test_scenario_cvar_tolerance_is_fixed(tmp_path):
    ops = workloads.build("cvar-build", 3, str(tmp_path))
    op = next(o for o in ops if o.kind == "scenario-cvar" and o.props["curves"] == "empirical")
    code, out = _cli(op.argv)
    assert checker.check(op, code, out) == []
    rep = json.loads(out)
    rep["tolerance"] = 1.0
    assert checker.check(op, code, json.dumps(rep))


def test_witness_oracle_is_not_vacuous():
    # three players, every pair worth 3, the whole worth 3: no strong core
    values = {1: 0, 2: 0, 4: 0, 3: 3, 5: 3, 6: 3, 7: 3}
    third = [Fraction(1, 3)] * 3
    assert checker.block_witness_problem(values, 7, third, "strong")
    assert checker.block_witness_problem(values, 7, third, "weak") is None
    # four players: pairs {a,b} and {c,d} worth 10 each, whole worth 12
    values4 = {m: Fraction(0) if m.bit_count() == 1 else Fraction(2) for m in range(1, 16)}
    values4.update({3: 10, 12: 10, 15: 12})
    even = [Fraction(1, 4)] * 4
    assert "blocks entirely" in checker.block_witness_problem(values4, 15, even, "weak")
    lopsided = [Fraction(5, 12), Fraction(5, 12), Fraction(1, 12), Fraction(1, 12)]
    assert checker.block_witness_problem(values4, 15, lopsided, "weak") is None


def test_checker_rejects_a_flipped_verify_report(tmp_path):
    ops = workloads.build("ordered-pairs", 3, str(tmp_path))
    op = next(o for o in ops if o.kind == "verify-theorem" and o.props["pair_n"] == [2, 2, 2, 2])
    code, out = _cli(op.argv)
    assert checker.check(op, code, out) == []
    rep = json.loads(out)
    rep["passed"] = False
    assert checker.check(op, code, json.dumps(rep))
    rep = json.loads(out)
    rep["reports"][0]["claims"][0]["passed"] = False
    assert checker.check(op, code, json.dumps(rep))


def test_mixture_integrator_matches_closed_forms():
    curve = checker.uniform_family_knots(1)
    for a, want in ((1.0, 1.25), (2.0, 7 / 6)):
        assert abs(checker.mixture_value(curve, checker.beta_density_knots(a)) - want) < 1e-12


def test_speed_probe_restores_the_alarm_and_times_the_body():
    handler = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    with run.speed_probe() as timing:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    wall = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0.1 < timing["seconds"] <= wall
    assert timing["ref_seconds"] > 0


def test_tracer_counts_calls_through_imported_names():
    fresh_cli()
    from fracgame import centripetality, risk

    original = centripetality.core_region
    tracer = Tracer()
    tracer.install()
    try:
        assert centripetality.core_region is not original
        g1, g2 = centripetality.generate_ordered_pair(11, 4)
        centripetality.verify_corollary(g1, g2, samples=5, seed=1)
        family = risk.default_uniform_family(3)
        risk.build_cvar_game(family, risk.beta_density(2.0))
    finally:
        tracer.uninstall()
    assert centripetality.core_region is original
    assert tracer.calls["centripetality.verify_corollary"] == 1
    assert tracer.calls["stability.core_region"] >= 1  # bound in centripetality
    assert tracer.calls["risk.mixture_reward"] == 7  # bound in risk, called by build_cvar_game
    assert tracer.calls["risk.cvar"] > 7 * 32
    metrics = tracer.metrics()
    assert metrics["risk.build_cvar_game.calls"] == 1
    assert metrics["risk.mixture_reward.distinct_ratio"] == pytest.approx(3 / 7)
    assert 0 <= metrics["centripetality.verify_corollary.self_s"]


def test_traced_output_bytes_match_untraced(tmp_path):
    op, _, plain = _small_analyze(tmp_path)
    cli = fresh_cli()
    tracer = Tracer()
    tracer.install()
    try:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.run(op.argv) == 0
    finally:
        tracer.uninstall()
    assert out.getvalue() == plain
    m = tracer.metrics()
    assert m["stability.stable_sets.calls"] == 1
    assert m["partitions.enumerate_partitions.yielded"] >= 15
    assert m["stability.core_region.calls"] == sum(
        m["stability.core_region.method." + k] for k in ("lp", "boundary", "strong-subset", "exact-search", "sampled", "singleton")
    )
