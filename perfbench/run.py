"""Benchmark of jordannum: one workload per run, closed loop, one thread.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload trotter --seed 1 --seconds 20 --trace 0

``--workload all`` runs the four workloads one after another, each in its
own child process, so that each reports its own set-up time and memory
peak. The program is imported from ``src/`` of the checkout.

With ``--trace 0`` the run times the program's import in several fresh
interpreters and the workload's set-up several times, keeping the medians,
then repeats whole rounds of the workload's experiments, one at a time,
until ``--seconds`` have passed, and reports the end-to-end metrics. Times
are at reference speed (see ``speed.py``); a comment line gives the wall
figures. With ``--trace 1`` it does the same untraced, then installs the
tracer, sets up once more and runs ``TRACED_ROUNDS`` traced rounds, writes
the spans under ``perfbench/spans/`` and reports the per-layer metrics and
the tracing overhead. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One experiment at a time on one thread: BLAS worker threads would spin on
# the second core and make the timings depend on what else runs there. Set
# before numpy is first imported, here and in every child interpreter.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
IMPORT_REPEATS = 5
SETUP_REPEATS = 3
TRACED_ROUNDS = 2
# the keys of workloads.SETUPS, named here so that the arguments are parsed
# before numpy is imported
WORKLOAD_NAMES = ("trotter", "calculus", "characters", "dense_scaling")
# the calibration loop of speed.Speed that each workload is timed with
SPEED_KIND = {"trotter": "small", "calculus": "small", "characters": "small",
              "dense_scaling": "stream"}
# run in a fresh interpreter that has imported numpy and scipy.linalg, the
# program's dependencies: prints the time at reference speed of importing
# the program itself
IMPORT_PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; "
    "import importlib, numpy, scipy.linalg; from speed import Speed; "
    "print(Speed().timed(lambda: importlib.import_module('jordannum.cli'))[2])")


def import_program():
    """Import jordannum from the checkout's src/."""
    if not (SRC / "jordannum" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import jordannum
    import jordannum.cli
    return jordannum


def import_seconds() -> float:
    """Median over ``IMPORT_REPEATS`` fresh interpreters of the program's
    import time at reference speed. numpy and scipy are imported before the
    clock starts: their import takes ten times as long as the program's, no
    change to the program can shorten it, and on this machine it varies by
    half from one minute to the next without following the calibration
    loops. A module of theirs that the program starts to import is still
    counted."""
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(BENCH_DIR)],
            capture_output=True, text=True, check=True)
        times.append(float(out.stdout))
    return statistics.median(times)


def _call(fn):
    """``(fn(), None)``, or ``(None, exc)`` when the program raises."""
    try:
        return fn(), None
    except Exception as exc:  # the program failed this experiment
        return None, exc


class Loop:
    """Closed-loop runner: experiments one at a time, whole rounds.

    ``latencies`` are at reference speed (see ``speed``), as are the rates;
    ``wall`` keeps the wall times."""

    def __init__(self, speed):
        self.speed = speed
        self.latencies = []
        self.wall = []
        self.round_rates = []  # experiments per second of each round
        self.attempted = 0
        self.failed = 0
        self.unexpected = []

    def run_round(self, experiments):
        first = len(self.latencies)
        for exp in experiments:
            (out, error), wall, scaled = self.speed.timed(
                lambda: _call(exp.run))
            self.wall.append(wall)
            self.latencies.append(scaled)
            self.attempted += 1
            if error is None:
                try:
                    ok = bool(exp.check(out))
                except Exception as exc:  # output malformed for its check
                    ok, error = False, exc
            if error is not None or not ok:
                self.failed += 1
                if not exp.fault:
                    self.unexpected.append(
                        f"{exp.kind}: {error!r}" if error else exp.kind)
        self.round_rates.append(len(experiments) / sum(self.latencies[first:]))

    def run_for(self, experiments, seconds):
        """Whole rounds, at least one, until ``seconds`` have passed."""
        start = perf_counter()
        self.run_round(experiments)
        while perf_counter() - start < seconds:
            self.run_round(experiments)


def clear_algebra_cache(jn):
    """Empty from_descriptor's cache, if it has one, so that set-up builds
    every algebra. Called with no tracer installed: its wrapper hides
    ``cache_clear``."""
    clear = getattr(jn.from_descriptor, "cache_clear", None)
    if clear is not None:
        clear()


def setup(jn, name, seed, speed):
    """The workload's round, and its set-up time at reference speed."""
    from workloads import SETUPS
    state, _, scaled = speed.timed(lambda: SETUPS[name](jn, seed))
    return state, scaled


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def measure(jn, name, seed, seconds):
    """The untraced run: set-ups, then rounds for ``seconds``."""
    from speed import Speed
    speed = Speed(SPEED_KIND[name])
    import_s = import_seconds()
    times = []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None  # let the previous algebras go before building again
        clear_algebra_cache(jn)
        state, took = setup(jn, name, seed, speed)
        times.append(took)
    loop = Loop(speed)
    loop.run_for(state.experiments, seconds)
    lat_ms = [1e3 * t for t in loop.latencies]
    deciles = statistics.quantiles(lat_ms, n=10)
    wall = loop.wall
    print(f"# {name} at wall speed: {len(wall) / sum(wall):.4g} experiments/s, "
          f"p50 {1e3 * statistics.median(wall):.4g} ms, machine speed "
          f"{sum(loop.latencies) / sum(wall):.3g} x reference")
    metrics = {
        "setup_s": (import_s + statistics.median(times), "s"),
        "experiments_per_s": (statistics.median(loop.round_rates), "1/s"),
        "experiment_ms.p50": (statistics.median(lat_ms), "ms"),
        "experiment_ms.p90": (deciles[8], "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return loop, metrics


def trace(jn, name, seed, seconds):
    """The untraced run of ``measure``, then a traced set-up and
    ``TRACED_ROUNDS`` traced rounds."""
    from spans import Tracer
    plain, _ = measure(jn, name, seed, seconds)
    tracer = Tracer()
    clear_algebra_cache(jn)
    tracer.install()
    try:
        state, _ = setup(jn, name, seed, plain.speed)
        loop = Loop(plain.speed)
        for _ in range(TRACED_ROUNDS):
            loop.run_round(state.experiments)
    finally:
        tracer.uninstall()
    out_dir = BENCH_DIR / "spans"
    out_dir.mkdir(exist_ok=True)
    tracer.save(out_dir / f"{name}-seed{seed}.npz")
    metrics = tracer.layer_metrics()
    metrics["algebra.structure_mb"] = (
        sum(a.structure.nbytes for a in state.algebras) / 1e6, "MB")
    # medians over rounds, so a cold first untraced round does not count
    metrics["tracing.overhead_pct"] = (100.0 * (
        statistics.median(plain.round_rates)
        / statistics.median(loop.round_rates) - 1.0), "%")
    loop.attempted += plain.attempted
    loop.failed += plain.failed
    loop.unexpected += plain.unexpected
    return loop, metrics


def run_workload(args):
    """Run ``args.workload`` in this process and print its result."""
    jn = import_program()
    name = args.workload
    run = trace if args.trace else measure
    loop, metrics = run(jn, name, args.seed, args.seconds)
    print(f"# workload {name}: seed {args.seed}, {loop.attempted} experiments, "
          f"{loop.failed} failed")
    for msg in sorted(set(loop.unexpected)):
        print(f"unexpected failure in {name}: {msg}", file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"{name} {key} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not loop.unexpected, "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def run_all(args):
    """Each workload in its own child process; metrics prefixed by name."""
    attempted = failed = 0
    correct = True
    metrics = {}
    for name in WORKLOAD_NAMES:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = out.stdout.splitlines()
        if out.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited {out.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
