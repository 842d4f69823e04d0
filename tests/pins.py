"""One table of pinned CLI runs, and one runner that checks every row.

    PYTHONPATH=src python tests/pins.py

runs each row in a child process, prints its seconds (and its peak RSS where
the row has a bound), and exits 1 naming each row whose bytes, digest, exit
code or bound is off, or whose golden is missing.  Tier-1 runs the rows that
are not slow in-process through ``cli.run`` (``test_cli.test_pinned_run``).
A new pin is one row of ``PINS``.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import hashlib
import io
import json
import pathlib
import random
import subprocess
import sys
import tempfile
import time
import warnings
from fractions import Fraction
from typing import Callable

from fracgame import cli, make_game
from fracgame.games import Game, save_game
from fracgame.risk import MeanStdScenario, beta_density, build_cvar_game, build_meanstd_game, default_uniform_family
from conftest import cut_game

DATA = pathlib.Path(__file__).parent / "data"
STDOUT = "-"
EMPTY = None  # the golden of an output that must be empty
TIMEOUT_S = 60


@dataclasses.dataclass(frozen=True)
class Pin:
    name: str
    # the CLI's argv, or ("-c", source) for a Python snippet; an argument
    # "{input}" is the built input, and "{out}" a fresh directory
    argv: tuple
    # output -> golden: an output is STDOUT or a file name under {out}; a
    # golden, a path relative to tests/data, holds the output's bytes, or its
    # digest if it ends in .sha256
    expect: dict = dataclasses.field(default_factory=dict)
    code: int = 0
    # the {input}: a Game, saved as a game file, or a dict, dumped as JSON
    build: Callable[[], Game | dict] | None = None
    absent: tuple = ("Traceback",)  # text stderr must not hold
    max_rss_mb: int | None = None  # the child fails at or above this peak
    max_seconds: float | None = None  # the child fails at or above this wall time
    slow: bool = False  # a second or more, or a bound: only the runner runs it


def _knots_scenario() -> dict:
    rng = random.Random(5)
    labels = [",".join("abcde"[i] for i in range(5) if m >> i & 1) for m in range(1, 32)]
    curves = {
        c: {"samples": [c.count(",") + 1 + rng.expovariate(1.0) for _ in range(200)], "knot_count": 10001}
        for c in labels
    }
    return {"players": list("abcde"), "curves": curves, "density": {"beta_a": 2.0}}


def _mixed_knots_scenario() -> dict:
    """31 sampled curves at three knot counts (51, 65, 101) and three sample
    counts (50, 120, 200), nine pairs of them in all."""
    rng = random.Random(11)
    labels = [",".join("abcde"[i] for i in range(5) if m >> i & 1) for m in range(1, 32)]
    curves = {
        c: {"samples": [c.count(",") + 1 + rng.expovariate(1.0) for _ in range((50, 120, 200)[k % 3])],
            "knot_count": (51, 65, 101)[k // 3 % 3]}
        for k, c in enumerate(labels)
    }
    return {"players": list("abcde"), "curves": curves, "density": {"beta_a": 2.5}}


def _square(n: int) -> Callable[[], Game]:
    """The n-player square game: v(C) = 2|C|^2 plus 0, 1/3 or 2/3, drawn
    per coalition in mask order from ``random.Random(0)``; it builds in well
    under a second at 16 players."""
    def build() -> Game:
        rng = random.Random(0)
        extra = (0, Fraction(1, 3), Fraction(2, 3))
        return make_game(n, {m: 2 * m.bit_count() ** 2 + rng.choice(extra) for m in range(1, 1 << n)})
    return build


def _cut3(n: int, kind=Fraction) -> Callable[[], Game]:
    """The n-player cut game of seed 3, its values of type ``kind``."""
    return lambda: make_game(n, {m: kind(v) for m, v in enumerate(cut_game(random.Random(3), n).values) if m})


# theorem claim 4 on an n=5 pair whose second game's value of a,b is doubled,
# so the blocks strictly containing a,b are undominated and sampled; it fails
# unless the claim's scope says it judged some sampled row
CLAIM4 = """
import random
from fracgame import generate_ordered_pair, make_game, verify_theorem1
rng = random.Random(0)
n, seed = rng.randint(2, 5), rng.randrange(1 << 31)
g1, g2 = generate_ordered_pair(seed, n)
g2 = make_game(n, {c: g2.values[c] * (2 if c == 3 else 1) for c in range(1, 1 << n)})
scope = verify_theorem1(g1, g2, samples=100000, seed=seed).claims[3].scope
judged = sum(int(part.split('=')[1]) for part in scope[:-1].split('(')[-1].split(','))
assert n == 5 and scope.startswith('constraintwise(') and judged > 0, scope
"""
CUT6, THIRDS6 = str(DATA / "cut_game_n6_seed0.json"), str(DATA / "thirds_game_n6_seed0.json")
SUITES = ("theorem", "corollary")
R_GRID, BETA_GRID = ("--r", "0:1.5:0.5"), ("--beta-a", "1,2,3")
POOLED8 = lambda: build_meanstd_game(MeanStdScenario(8, 1, 0.5, 0))
# a game file with a negative singleton (a) and a missing coalition (b,c)
INVALID3 = {"players": ["a", "b", "c"], "values": {"a": -1, "b": 1, "c": 0, "a,b": 2, "a,c": 2, "a,b,c": 3}}

PINS = [
    # generated pairs are ordered, so every claim passes; and exact, so every
    # block is dominated, nothing is drawn and --samples changes no byte
    Pin("verify-all-pairs5", ("verify", "all", "--pairs", "5", "--samples", "50", "--seed", "1")),
    *(
        Pin(f"verify-{s}-pairs5-samples{k}", ("verify", s, "--pairs", "5", "--seed", "1", "--samples", k),
            {STDOUT: f"verify_{s}_pairs5_seed1.sha256"})
        for s in SUITES for k in ("0", "50")
    ),
    # claim 4 judges each block's rows one at a time, so memory does not grow
    # with --samples: 32 MB measured on Python 3.11, numpy 2.4
    Pin("theorem-claim4-samples100000", ("-c", CLAIM4), max_rss_mb=48, slow=True),
    # a cvar game evaluates its 31 curves of 10,001 knots one at a time on one
    # quadrature layout per knot column: 70 MB measured on Python 3.11, numpy 2.4
    Pin("scenario-cvar-n5-knots10001", ("scenario-cvar", "{input}"),
        {STDOUT: "scenario_cvar_n5_knots10001_seed5.sha256"}, build=_knots_scenario, max_rss_mb=96, slow=True),
    # curves of one sample count and one knot count are built together
    Pin("scenario-cvar-n5-mixed-knots", ("scenario-cvar", "{input}"),
        {STDOUT: "scenario_cvar_n5_mixed_knots_seed11.sha256"}, build=_mixed_knots_scenario),
    Pin("verify-theorem-pairs3-samples40", ("verify", "theorem", "--pairs", "3", "--samples", "40")),
    # an n=5 pair whose weak blocks once took the exact search minutes; ten
    # pairs at 50 samples is the benchmark's shape
    Pin("verify-theorem-pairs1-seed1022929911", ("verify", "theorem", "--pairs", "1", "--seed", "1022929911"),
        {STDOUT: "verify_theorem_pairs1_seed1022929911.json"}),
    *(
        Pin(f"verify-{s}-pairs{n}-seed{seed}", ("verify", s, "--pairs", n, "--samples", "50", "--seed", seed),
            {STDOUT: f"verify_{s}_pairs{n}_samples50_seed{seed}.json"})
        for n, seed in (("20", "1"), ("10", "2058525530")) for s in SUITES
    ),
    Pin("verify-all-pairs20-out",
        ("verify", "all", "--pairs", "20", "--samples", "50", "--seed", "1", "--out", "{out}"),
        {**{f"verify-{s}.json": f"verify_{s}_pairs20_samples50_seed1.json" for s in SUITES},
         **{f"verify-{s}.json": f"verify_{s}.json" for s in ("prop1", "prop2")}}, slow=True),
    # the float bits of every quadrature, normalization and synergy factor
    *(Pin(f"verify-{s}", ("verify", s), {STDOUT: f"verify_{s}.json"}) for s in ("prop1", "prop2")),
    *(
        Pin(f"scenario-{kind}-{name.replace('_', '-')}",
            (f"scenario-{kind}", str(DATA / f"scenario_{kind}_{name}.json")), {STDOUT: f"{kind}_game_{name}.json"})
        for kind, name in (("cvar", "empirical_n3"), ("cvar", "empirical_n4_shared"), ("meanstd", "phi_n3"))
    ),
    # sweeps of 4 to 9 players; the 4,140 and 21,147 partitions per point at
    # n=8 and 9 are decided once per sequence of block sizes
    *(
        Pin(f"sweep-{scenario}-n{n}", ("sweep", "--scenario", scenario, "--n", n, *grid), {STDOUT: golden},
            slow=golden.endswith(".sha256"))
        for scenario, n, grid, golden in (
            ("meanstd", "5", R_GRID, "sweep_meanstd_n5_r0-1.5-0.5.json"),
            ("cvar", "4", BETA_GRID, "sweep_cvar_n4_beta1-2-3.json"),
            ("meanstd", "7", R_GRID, "sweep_meanstd_n7_r0-1.5-0.5.json"),
            ("cvar", "6", BETA_GRID, "sweep_cvar_n6_beta1-2-3.json"),
            *(("meanstd", n, R_GRID, f"sweep_meanstd_n{n}_r0-1.5-0.5.sha256") for n in "689"),
        )
    ),
    # an n=6 game whose weak regions of 4+ players and their canonical
    # witnesses all come from the exact search; the benchmark's flag is ignored
    Pin("analyze-cut-n6", ("analyze", CUT6), {STDOUT: "analyze_cut_game_n6_seed0.json"}),
    Pin("analyze-cut-n6-max-exact5", ("analyze", CUT6, "--max-exact-weak-core-n", "5"),
        {STDOUT: "analyze_cut_game_n6_seed0.json"}),
    Pin("analyze-cut-n6-csv", ("analyze", CUT6, "--format", "csv"), {STDOUT: "analyze_cut_game_n6_seed0.csv"}),
    Pin("analyze-cut-n6-max-exact5-out", ("analyze", CUT6, "--max-exact-weak-core-n", "5", "--out", "{out}"),
        {STDOUT: EMPTY, "analyze.json": "analyze_cut_game_n6_seed0.json"}, slow=True),
    *(
        Pin(f"analyze-cut-n6-{fmt}-out", ("analyze", CUT6, "--format", fmt, "--out", "{out}"),
            {STDOUT: EMPTY, f"analyze.{fmt}": f"analyze_cut_game_n6_seed0.{fmt}"})
        for fmt in ("json", "csv")
    ),
    Pin("core-cut-n6", ("core", CUT6), {STDOUT: "core_cut_game_n6_seed0.json"}),
    # validate's report of a valid and of an invalid game, and compare's
    # violations with Fraction sides (377 of them) and with float sides (9)
    Pin("validate-cut-n6", ("validate", CUT6), {STDOUT: "validate_cut_game_n6_seed0.json"}),
    Pin("validate-invalid-n3", ("validate", "{input}"), {STDOUT: "validate_invalid_game_n3.json"}, code=1,
        build=lambda: INVALID3),
    Pin("compare-invalid-n3", ("compare", "{input}", "{input}"), {STDOUT: EMPTY}, code=1, build=lambda: INVALID3),
    Pin("compare-cut-n6-self", ("compare", CUT6, CUT6), {STDOUT: "compare_cut_game_n6_seed0_self.json"}),
    Pin("compare-cut-thirds-n6", ("compare", CUT6, THIRDS6), {STDOUT: "compare_cut_thirds_n6_seed0.json"}, code=1),
    # an ordered pair at n=14 is decided on its covering pairs: 0.6 s against
    # 16 s for all 3^14 nested pairs, so the bound catches a return of that
    # listing; an ordered pair prints what the n=6 self-compare prints
    Pin("compare-square-n14-self", ("compare", "{input}", "{input}"), {STDOUT: "compare_cut_game_n6_seed0_self.json"},
        build=_square(14), max_seconds=5, slow=True),
    Pin("compare-meanstd-cvar-n3",
        ("compare", str(DATA / "meanstd_game_phi_n3.json"), str(DATA / "cvar_game_empirical_n3.json")),
        {STDOUT: "compare_meanstd_phi_cvar_empirical_n3.json"}, code=1),
    Pin("core-cut-n6-abc-def", ("core", CUT6, "--partition", "a,b,c|d,e,f"),
        {STDOUT: "core_cut_game_n6_seed0_abc-def.json"}),
    # an n=6 game whose blocks reach every rule of core_region but the equal
    # split: the priced LP, and weak searches below their root either way
    *(
        Pin(name, argv, {STDOUT: golden})
        for name, argv, golden in (
            ("analyze-thirds-n6", ("analyze", THIRDS6), "analyze_thirds_game_n6_seed0.sha256"),
            ("analyze-thirds-n6-csv", ("analyze", THIRDS6, "--format", "csv"),
             "analyze_thirds_game_n6_seed0_csv.sha256"),
            ("core-thirds-n6", ("core", THIRDS6), "core_thirds_game_n6_seed0.sha256"),
        )
    ),
    # built games: analyze at n=8 (162 weak searches with canonical witnesses)
    # and n=9 (382 strong cores empty by the cover, a 45 MB report), on the
    # float copy at n=7 (3-player boxes); core at n=10 and 12 (root witnesses,
    # packing LPs over 2^(n-1) - 1 rows); size-symmetric games in closed form
    *(
        Pin(name, (command, "{input}", *options), {STDOUT: golden}, build=build, slow=True)
        for name, command, options, golden, build in (
            ("analyze-cut-n8", "analyze", (), "analyze_cut_game_n8_seed3.sha256", _cut3(8)),
            ("analyze-cut-n8-csv", "analyze", ("--format", "csv"), "analyze_cut_game_n8_seed3_csv.sha256", _cut3(8)),
            ("analyze-cut-n9", "analyze", (), "analyze_cut_game_n9_seed3.sha256", _cut3(9)),
            ("analyze-cut-float-n7", "analyze", (), "analyze_cut_game_float_n7_seed3.sha256", _cut3(7, float)),
            ("core-cut-n10", "core", (), "core_cut_game_n10_seed3.sha256", _cut3(10)),
            ("core-cut-n12", "core", (), "core_cut_game_n12_seed3.sha256", _cut3(12)),
            ("core-meanstd-n14", "core", (), "core_meanstd_n14_r0.8.sha256",
             lambda: build_meanstd_game(MeanStdScenario(14, 1, 0.5, 0.8))),
            ("analyze-meanstd-n8", "analyze", (), "analyze_meanstd_n8_r0.sha256", POOLED8),
            ("analyze-meanstd-n8-csv", "analyze", ("--format", "csv"), "analyze_meanstd_n8_r0_csv.sha256", POOLED8),
            ("analyze-cvar-uniform-n7", "analyze", (), "analyze_cvar_uniform_n7_beta2.sha256",
             lambda: build_cvar_game(default_uniform_family(7), beta_density(2))),
        )
    ),
    # refusals: a malformed game file and a zero-denominator grid point are
    # usage errors, and a density that overflows once normalized is refused
    # without a numpy warning
    Pin("analyze-malformed-game", ("analyze", "{input}"), code=2,
        build=lambda: {"players": ["a", "b"], "values": {"a": 1, "b": 1, "a,b": "1/0"}}),
    Pin("sweep-zero-denominator", ("sweep", "--scenario", "meanstd", "--r", "1/0"), code=2),
    # a finite mu whose pooled values overflow is a scenario fault naming mu
    Pin("scenario-meanstd-overflowing-mu", ("scenario-meanstd", "{input}"), {STDOUT: EMPTY}, code=1,
        build=lambda: {"n": 3, "mu": 1e308, "sigma": 1, "r": 0}),
    Pin("sweep-meanstd-overflowing-mu", ("sweep", "--scenario", "meanstd", "--mu", "1e308", "--n", "3", "--r", "0"),
        {STDOUT: EMPTY}, code=1),
    Pin("scenario-cvar-overflowing-density", ("scenario-cvar", "{input}"), code=1,
        build=lambda: {"n": 1, "density": {"knots": [[0, 1], [5e-324, 1e-310], [1, 1e-310]], "normalize": True}},
        absent=("Traceback", "RuntimeWarning")),
    # usage errors read by a command's own parser (a bad choice) and handed to
    # the full parser (an unknown option after the command, an option before
    # it); help text differs between Python versions, so only the code is pinned
    Pin("analyze-unknown-option", ("analyze", CUT6, "--bogus"), code=2),
    Pin("sweep-bad-choice", ("sweep", "--scenario", "x"), code=2),
    Pin("option-before-command", ("--tolerance", "1", "analyze", "x"), code=2),
]

# runs argv[2:] under a fresh interpreter as its one child, which gets
# SIGALRM after TIMEOUT_S seconds, and writes the child's peak RSS in MB from
# os.wait4 to the file argv[1].  A child's peak counts the memory of the
# process it was forked from: a child of the runner would carry the runner's
# peak, and this one carries the few MB of this launcher
LAUNCH = f"""
import os, signal, sys
pid = os.fork()
if pid == 0:
    signal.alarm({TIMEOUT_S})
    os.execv(sys.executable, [sys.executable, *sys.argv[2:]])
_, status, usage = os.wait4(pid, 0)
with open(sys.argv[1], "w") as fh:
    fh.write(str(usage.ru_maxrss // 1024))
sys.exit(os.waitstatus_to_exitcode(status))
"""


def run_child(argv: list) -> tuple:
    """``(exit code, stdout bytes, stderr text, peak RSS in MB)`` of ``argv``
    run in a child process; a child killed by a signal exits 256 - signal."""
    args = argv if argv[0] == "-c" else ["-m", "fracgame.cli", *argv]
    with tempfile.TemporaryDirectory() as tmp:
        out, err, peak = (pathlib.Path(tmp) / name for name in ("out", "err", "peak"))
        with open(out, "wb") as stdout, open(err, "wb") as stderr:
            command = [sys.executable, "-S", "-c", LAUNCH, str(peak), *args]
            code = subprocess.run(command, stdout=stdout, stderr=stderr).returncode
        return code, out.read_bytes(), err.read_text(errors="replace"), int(peak.read_text())


def run_in_process(argv: list) -> tuple:
    """``run_child``'s tuple for ``cli.run(argv)`` in this process, with each
    warning it raises written to stderr as a child would print it; no peak."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            code = cli.run(argv)
    err.writelines(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return code, out.getvalue().encode("utf-8"), err.getvalue(), None


def check(pin: Pin, tmp: pathlib.Path, execute=run_child) -> tuple:
    """``(problems, peak)`` of one run of ``pin`` by ``execute`` in the
    scratch directory ``tmp``: a message per thing that is off, none when
    the row passes."""
    path, out = tmp / "input.json", tmp / "out"
    if pin.build is not None:
        built = pin.build()
        if isinstance(built, Game):
            save_game(built, path)
        else:
            path.write_text(json.dumps(built))
    places = {"{input}": str(path), "{out}": str(out)}
    start = time.perf_counter()
    code, stdout, stderr, peak = execute([places.get(a, a) for a in pin.argv])
    seconds = time.perf_counter() - start
    problems = [f"exit {code}, not {pin.code}"] if code != pin.code else []
    problems += [f"stderr holds {text!r}" for text in pin.absent if text in stderr]
    if pin.max_rss_mb is not None and peak >= pin.max_rss_mb:
        problems.append(f"peak RSS {peak} MB, bound {pin.max_rss_mb} MB")
    if pin.max_seconds is not None and seconds >= pin.max_seconds:
        problems.append(f"took {seconds:.2f} s, bound {pin.max_seconds} s")
    for output, golden in pin.expect.items():
        name, written = ("stdout", None) if output == STDOUT else (output, out / output)
        if written is not None and not written.is_file():
            problems.append(f"wrote no {name}")
            continue
        got = stdout if written is None else written.read_bytes()
        if golden is EMPTY:
            problems += [f"{name} is not empty"] if got else []
        elif not (DATA / golden).is_file():
            problems.append(f"golden {golden} is missing")
        elif golden.endswith(".sha256"):
            if f"{hashlib.sha256(got).hexdigest()}  -\n" != (DATA / golden).read_text():
                problems.append(f"{name} does not match the digest {golden}")
        elif got != (DATA / golden).read_bytes():
            problems.append(f"{name} differs from {golden}")
    return problems, peak


def _timed(pin: Pin) -> tuple:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        problems, peak = check(pin, pathlib.Path(tmp))
    return time.perf_counter() - start, problems, peak


def run_rows(pins: list) -> int:
    """Check each row in a child process, two rows at a time, printing its
    seconds, its peak RSS where it has a bound, and what is off; 1 when any
    row fails."""
    failed = []
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        for pin, (seconds, problems, peak) in zip(pins, pool.map(_timed, pins)):
            bound = f", peak RSS {peak} MB (bound {pin.max_rss_mb} MB)" if pin.max_rss_mb is not None else ""
            print(f"{pin.name}: {seconds:.2f} s{bound}", flush=True)
            for problem in problems:
                print(f"FAIL {pin.name}: {problem}", flush=True)
            failed += [pin.name] if problems else []
    if failed:
        print(f"{len(failed)} of {len(pins)} pinned runs failed: {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run_rows(PINS))
