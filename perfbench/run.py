"""fracgame benchmark: seeded CLI workloads, end-to-end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload exact-analyze --seed 1 --seconds 25 --trace 0

The seed drives a generator that writes the workload's game and scenario
files (see workloads.py); the library then sees only those files and the
argv of each op.  An op is one ``fracgame.cli.run(argv)`` call in this
process; a pass runs every op of the workload once, on a freshly imported
library.  A run makes PASSES passes, and the op lists are sized so it
takes about ``--seconds``; an op's time is the median over passes of its
seconds at a reference machine speed (see speed_probe), and every output is
checked by checker.py.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each op
untraced and then traced (tracer.py), requires the outputs to match
byte for byte, and reports the per-layer metrics.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics;
full per-op detail goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import checker
import workloads
from tracer import Tracer

SETUP_SAMPLES = 5  # this process plus four fresh ones
# Passes per run; an op's time is its median (with two, the mean) over them.
# Two suffice because speed_probe takes out the machine's speed changes.
PASSES = 2
PROBE_PERIOD_S = 0.05
# Seconds the probe loop takes at the reference speed: its time at the fast
# speed of a 2-CPU Python 3.11 VM.  Times are reported at that speed.
PROBE_REF_S = 0.00028
WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up: import the library and write the inputs


def fresh_cli():
    """Import fracgame anew, so no state survives from an earlier pass."""
    for name in [m for m in sys.modules if m == "fracgame" or m.startswith("fracgame.")]:
        del sys.modules[name]
    return importlib.import_module("fracgame.cli")


def probe_loop() -> float:
    """Seconds a fixed stdlib loop takes: how fast the machine runs Python
    right now."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(1, i)
    return time.perf_counter() - t0


@contextlib.contextmanager
def speed_probe():
    """Time the body, raw and at the reference speed.

    Shared 2-CPU VMs switch between speeds 1.5-2x apart, in spells both
    shorter and longer than an op.  So the probe loop runs right before and
    right after the body and, on a SIGALRM every PROBE_PERIOD_S, during it.
    The body's own seconds (the loops run inside it taken out) are scaled by
    PROBE_REF_S over the loops' mean time.  Yields a dict that receives
    ``seconds`` and ``ref_seconds`` when the body ends.
    """
    timing = {}
    samples = [probe_loop()]
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: samples.append(probe_loop()))
    signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
    t0 = time.perf_counter()
    try:
        yield timing
    finally:
        # disarm first: every loop that runs after this is inside the time
        signal.setitimer(signal.ITIMER_REAL, 0)
        secs = time.perf_counter() - t0 - sum(samples[1:])
        signal.signal(signal.SIGALRM, previous)
    samples.append(probe_loop())
    timing["seconds"] = secs
    timing["ref_seconds"] = secs * PROBE_REF_S / statistics.mean(samples)


def setup(workload: str, seed: int, workdir: str):
    """Import the library and write the inputs; returns the time taken at
    the reference speed, the CLI module and the ops.  The search for pair
    seeds (workloads.prepare) is the benchmark's own work and its length
    varies with the seed, so it is left out of the time."""
    prepared = workloads.prepare(workload, seed)
    with speed_probe() as timing:
        cli = fresh_cli()
        ops = workloads.build(workload, seed, workdir, prepared)
    return timing["ref_seconds"], cli, ops


def probe_setup(args, workdir: str, k: int) -> float:
    """Set-up time measured in a fresh interpreter, as a user pays it."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--setup-probe", os.path.join(workdir, f"probe{k}"),
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# passes


def run_pass(cli, ops):
    """One pass: per op (timing from speed_probe, exit code, stdout text)."""
    gc.collect()
    results = []
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), speed_probe() as timing:
            try:
                code = cli.run(list(op.argv))
            except Exception as exc:  # an uncaught library error fails the op
                code = f"raised {exc!r}"
        results.append((timing, code, out.getvalue()))
    return results


def check_pass(ops, results, reference=None) -> list[list[str]]:
    """Problems per op.  The first pass is checked by the checker; later
    ones must reproduce its output exactly."""
    problems = []
    for k, (op, (_, code, out)) in enumerate(zip(ops, results)):
        if reference is None:
            problems.append(checker.check(op, code, out))
        elif (code, out) != reference[k][1:]:
            problems.append(["output differs from the first pass"])
        else:
            problems.append([])
    return problems


def input_properties(ops, results) -> list[dict]:
    """Each op's input properties, plus what its report says about them."""
    rows = []
    for op, (_, code, out) in zip(ops, results):
        row = {"kind": op.kind, **op.props}
        if op.kind in ("verify-theorem", "verify-corollary") and code == 0:
            try:
                row["reported_n"] = [r["n"] for r in json.loads(out)["reports"]]
            except (ValueError, KeyError, TypeError):
                pass  # the checker has already failed this op
        rows.append(row)
    return rows


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(args, workdir):
    setup_times = []
    secs, cli, ops = setup(args.workload, args.seed, workdir)
    setup_times.append(secs)
    for k in range(1, SETUP_SAMPLES):
        setup_times.append(probe_setup(args, workdir, k))

    # a fixed number of passes, so every commit is timed over the same
    # count; a machine far slower than the op lists were sized for
    # (--seconds) gets fewer
    passes, problems = [], []
    start = time.perf_counter()
    while True:
        results = run_pass(cli, ops)
        problems += check_pass(ops, results, passes[0] if passes else None)
        passes.append(results)
        spent = time.perf_counter() - start
        if len(passes) == PASSES or spent > 2 * args.seconds:
            break
        cli = fresh_cli()

    per_op = [statistics.median(p[k][0]["ref_seconds"] for p in passes) for k in range(len(ops))]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (sum(per_op), "s"),
        "op_p50_s": (statistics.median(per_op), "s"),
        "op_max_s": (max(per_op), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    detail = {
        "passes": len(passes),
        "setup_samples_s": setup_times,
        "ops": [
            {**row, "argv": op.argv, "seconds": [p[k][0]["seconds"] for p in passes],
             "ref_seconds": [p[k][0]["ref_seconds"] for p in passes]}
            for k, (op, row) in enumerate(zip(ops, input_properties(ops, passes[0])))
        ],
    }
    return metrics, problems, detail


def measure_traced(args, workdir):
    _, cli, ops = setup(args.workload, args.seed, workdir)
    # each op runs untraced and then traced right after, so the two see the
    # same machine speed and their difference is the tracing cost
    tracer = Tracer()
    plain, traced = [], []
    for k, op in enumerate(ops):
        plain += run_pass(cli, [op])
        tracer.op = k
        tracer.install()
        try:
            traced += run_pass(cli, [op])
        finally:
            tracer.uninstall()
    problems = check_pass(ops, plain) + check_pass(ops, traced, plain)
    # at the reference speed, like wall_s: raw seconds follow the machine's
    # speed changes, which are as large as the tracing cost
    untraced_s = sum(r[0]["ref_seconds"] for r in plain)
    traced_s = sum(r[0]["ref_seconds"] for r in traced)
    metrics = {name: (value, _layer_unit(name)) for name, value in tracer.metrics().items()}
    metrics["tracing.overhead_s"] = (traced_s - untraced_s, "s")
    detail = {
        "untraced_wall_s": untraced_s,
        "traced_wall_s": traced_s,
        "layer_self_s": tracer.layer_self_s(),
        "spans": len(tracer.spans),
        "ops": input_properties(ops, plain),
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv")
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.write("span,op,name,parent,start_s,end_s\n")
        for sid, (op, name, parent, t0, t1) in enumerate(tracer.spans):
            fh.write(f"{sid},{op},{name},{parent},{t0:.9f},{t1:.9f}\n")
    return metrics, problems, detail


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "1"
    if name.endswith("den_bits_max"):
        return "bits"
    return "count"


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "fracgame", "__init__.py")):
        sys.stderr.write("perfbench: run from the repository root; src/fracgame is missing\n")
        return 2
    sys.path.insert(0, src)

    if args.setup_probe:
        secs, _, _ = setup(args.workload, args.seed, args.setup_probe)
        print(json.dumps({"setup_s": secs}))
        return 0

    workdir = os.path.join(WORK_DIR, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    try:
        if args.trace:
            metrics, problems, detail = measure_traced(args, workdir)
        else:
            metrics, problems, detail = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(problems)
    failed = sum(1 for p in problems if p)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    detail["problems"] = [p for p in problems if p][:20]
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({**detail, **result}, fh, indent=1)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:14s} {name:48s} {value:14.6g} {unit}")
    print(f"{args.workload:14s} {'fail_ratio':48s} {failed / attempted:14.6g} 1")
    for p in detail["problems"][:5]:
        print(f"{args.workload:14s} FAILED: {'; '.join(p[:3])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
