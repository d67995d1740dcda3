"""Benchmark of the twobubble pipeline, driven through its public API.

    python3 bench/run.py --workload shoot-d1 --seed 0 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 50

One process, one thread of numerical work: the BLAS/OpenMP thread variables
are pinned to 1 before numpy loads (numpy's FFT is single-threaded).  The
run sets the package up several times (``setup_s`` is the median), then
repeats seeded ops for ``--seconds`` and checks every op's output.

``--trace 0`` reports the end-to-end metrics with no wrappers installed;
their times are scaled to the host's reference speed by the yardstick of
bench/yardstick.py, which runs after each set-up and op.
``--trace 1`` runs each drawn input untraced and then again with span
wrappers installed, and reports per-layer metrics per op plus the tracing
overhead on those matched pairs.  The last line of standard output is one
JSON object; ``--workload all`` runs every workload untraced in its own
process and prints a table.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import twobubble  # noqa: E402

if Path(twobubble.__file__).resolve().parent.parent != SRC:
    sys.exit(f"twobubble imported from {twobubble.__file__}, not from {SRC}")

from twobubble import groundstate, nls_core  # noqa: E402
from twobubble.errors import TwoBubbleError  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, OpOutcome  # noqa: E402
from yardstick import Gauge  # noqa: E402

SETUP_REPEATS = 5
OUT_DIR = ROOT / ".bench_out"

END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "s_per_wall_s": "s/s",
                    "peak_rss_mb": "MB"}

# One Strang step of nls_core._strang_chunk as array passes over n points
# (bytes read + written per point, complex128 field): |v| 24, ** 16,
# scalar * 24, exp 32, v * 48, fftn 32, linear factor * 48, ifftn 32.
STRANG_BYTES_PER_POINT = 256
STRANG_FFTS_PER_STEP = 2


@dataclass
class Context:
    """Set-up products shared by the ops of one run."""

    gs: object
    sc: object
    grid: object
    scratch: str


def setup(work, gauge: Gauge) -> tuple[Context, list[float], list[float]]:
    """solve_profile + structure_constants + make_grid, repeated; returns
    the wall times and the scaled times."""

    def once():
        gs = groundstate.solve_profile(work.p, work.d)
        return gs, groundstate.structure_constants(gs), nls_core.make_grid(*work.grid)

    walls, scaled = [], []
    for _ in range(SETUP_REPEATS):
        (gs, sc, grid), wall, wall_scaled = gauge.time(once)
        walls.append(wall)
        scaled.append(wall_scaled)
    OUT_DIR.mkdir(exist_ok=True)
    return Context(gs, sc, grid, str(OUT_DIR)), walls, scaled


def run_op(work, inp, ctx, gauge: Gauge) -> tuple[float, float, OpOutcome]:
    """One op and its output check; a TwoBubbleError is a failed op.
    Returns the op's wall time, its scaled time and the outcome."""

    def attempt():
        try:
            return work.run(inp, ctx), None
        except TwoBubbleError as exc:
            return None, exc

    (res, exc), wall, scaled = gauge.time(attempt)
    if exc is not None:
        outcome = OpOutcome(False, f"{type(exc).__name__}: {exc}", 0.0)
    else:
        outcome = work.check(inp, res, ctx)
    if not outcome.ok:
        print(f"op failed: {outcome.reason}", flush=True)
    return wall, scaled, outcome


def repeat(seconds: float, step) -> float:
    """Call step() while the next call should end nearer the time limit than
    stopping now would (at least once); returns the time used."""
    t0 = time.perf_counter()
    last = None
    while last is None or time.perf_counter() - t0 + 0.5 * last < seconds:
        t1 = time.perf_counter()
        step()
        last = time.perf_counter() - t1
    return time.perf_counter() - t0


def cache_sizes() -> dict:
    """L1d, L2 and L3 sizes in bytes from the C library (0 when unknown)."""
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.restype = ctypes.c_long
        libc.sysconf.argtypes = [ctypes.c_int]
        # glibc's _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE
        return {k: max(int(libc.sysconf(n)), 0)
                for k, n in (("L1d", 188), ("L2", 191), ("L3", 194))}
    except (OSError, AttributeError):
        return {"L1d": 0, "L2": 0, "L3": 0}


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_stamp() -> dict:
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "cache_bytes": cache_sizes()}


def end_to_end(work, seed: int, seconds: float) -> dict:
    """The timed metrics are medians of times scaled to the reference speed
    of bench/yardstick.py; the raw times are printed beside them."""
    gauge = Gauge()
    ctx, setup_walls, setup_scaled = setup(work, gauge)
    rng = np.random.default_rng(seed)
    walls, scaled, outcomes = [], [], []

    def step():
        wall, op_scaled, outcome = run_op(work, work.draw(rng), ctx, gauge)
        walls.append(wall)
        scaled.append(op_scaled)
        outcomes.append(outcome)

    wall_s = repeat(seconds, step)
    failed = sum(not o.ok for o in outcomes)
    rates = [o.covered / w for o, w in zip(outcomes, scaled)]
    metrics = {"setup_s": statistics.median(setup_scaled), "op_s": statistics.median(scaled),
               "s_per_wall_s": statistics.median(rates),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    print(f"wall_s {wall_s:.4f} s")
    print(f"setup_s raw median {statistics.median(setup_walls):.4f} s: "
          + " ".join(f"{w:.3f}" for w in setup_walls))
    print(f"op_s scaled, median of n={len(walls)} ops: " + " ".join(f"{w:.3f}" for w in scaled))
    print(f"op_s raw median {statistics.median(walls):.4f} s: "
          + " ".join(f"{w:.3f}" for w in walls))
    print(f"s_per_wall_s raw over the timed part {sum(o.covered for o in outcomes) / wall_s:.4f}")
    print(f"fail_frac {failed / len(walls):.4f} ({failed} of {len(walls)} ops)")
    return {"correct": failed == 0, "attempted": len(walls), "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                        for k, v in metrics.items()}}


def traced(work, seed: int, seconds: float) -> dict:
    """Each drawn input runs untraced, then again with the wrappers installed."""
    rec = tracing.Recorder()
    tr = tracing.install(rec)
    try:
        ctx, _, _ = setup(work, Gauge(share=0.0))
    finally:
        tr.uninstall()
    setup_spans = list(rec.spans)
    rec.spans.clear()
    rec.counters.clear()
    rng = np.random.default_rng(seed)
    plain, walls, outcomes = [], [], []
    gauge = Gauge(share=0.0)

    def step():
        inp = work.draw(rng)
        plain.append(run_op(work, inp, ctx, gauge)[0])
        rec.op = len(walls)
        tr = tracing.install(rec)
        try:
            wall, _, outcome = run_op(work, inp, ctx, gauge)
        finally:
            tr.uninstall()
        walls.append(wall)
        outcomes.append(outcome)

    repeat(seconds, step)
    failed = sum(not o.ok for o in outcomes)
    metrics = layer_metrics(rec, len(walls), setup_spans, outcomes, work)
    metrics["trace.overhead"] = (sum(walls) / sum(plain) - 1.0, "ratio")
    rec.dump(OUT_DIR / f"spans-{work.name}-{seed}.jsonl")
    return {"correct": failed == 0, "attempted": len(walls), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def layer_metrics(rec: tracing.Recorder, n_ops: int, setup_spans, outcomes,
                  work) -> dict:
    """Per-layer metrics per op (mean over the traced ops) with units."""
    spans = rec.spans
    selfs = tracing.self_times(spans)

    def named(name, parent=None):
        return [i for i, sp in enumerate(spans) if sp.name == name
                and (parent is None or rec.parent_name(sp) == parent)]

    def total(name, parent=None):
        return sum(spans[i].duration for i in named(name, parent))

    def calls(name, parent=None):
        return len(named(name, parent))

    def self_total(name):
        return sum(selfs[i] for i in named(name))

    def setup_mean(name):
        vals = [sp.duration for sp in setup_spans if sp.name == name]
        return sum(vals) / max(len(vals), 1)

    def attr_sum(name, key):
        return sum(spans[i].attrs.get(key, 0) for i in named(name))

    def per_op(x):
        return x / n_ops

    steps = attr_sum("nls_core.propagate", "steps")
    bytes_run = STRANG_BYTES_PER_POINT * sum(
        spans[i].attrs.get("steps", 0) * spans[i].attrs.get("points", 0)
        for i in named("nls_core.propagate"))
    fit_spans = [spans[i] for i in named("modulation_fit.decompose")]
    iters = [sp.attrs.get("newton_iters", 0) for sp in fit_spans]
    bisect_time = total("experiments.bisect_zeta")
    points = work.grid[1] ** work.d
    c = rec.counters
    return {
        "groundstate.solve_profile.s": (setup_mean("groundstate.solve_profile"), "s"),
        "groundstate.structure_constants.s":
            (setup_mean("groundstate.structure_constants"), "s"),
        "groundstate.profile_evals.calls":
            (per_op(c.get("groundstate.profile_evals.calls", 0)), "count"),
        "groundstate.profile_evals.points":
            (per_op(c.get("groundstate.profile_evals.points", 0)), "count"),
        "ansatz.interaction_force_H.s": (per_op(total("ansatz.interaction_force_H")), "s"),
        "ansatz.interaction_force_H.calls":
            (per_op(calls("ansatz.interaction_force_H")), "count"),
        "ansatz.build_two_bubble.s": (per_op(total("ansatz.build_two_bubble")), "s"),
        "reduced_dynamics.integrate_reduced.s":
            (per_op(total("reduced_dynamics.integrate_reduced")), "s"),
        "reduced_dynamics.integrate_reduced.self_s":
            (per_op(self_total("reduced_dynamics.integrate_reduced")), "s"),
        "reduced_dynamics.integrate_reduced.calls":
            (per_op(calls("reduced_dynamics.integrate_reduced")), "count"),
        "nls_core.propagate.s": (per_op(total("nls_core.propagate")), "s"),
        "nls_core.propagate.calls": (per_op(calls("nls_core.propagate")), "count"),
        "nls_core.strang_steps": (per_op(steps), "count"),
        "nls_core.us_per_step":
            (1e6 * total("nls_core.propagate") / steps if steps else 0.0, "us"),
        "nls_core.bytes_computed": (per_op(bytes_run), "B"),
        "nls_core.ffts_per_step.computed": (STRANG_FFTS_PER_STEP, "count"),
        "nls_core.bytes_per_step.computed": (STRANG_BYTES_PER_POINT * points, "B"),
        "nls_core.observables.s": (per_op(total("nls_core.observables")), "s"),
        "nls_core.snapshot_io.s": (per_op(total("nls_core.snapshot_io")), "s"),
        "nls_core.snapshot_io.bytes": (per_op(attr_sum("nls_core.snapshot_io", "bytes")), "B"),
        "modulation_fit.decompose.s": (per_op(total("modulation_fit.decompose")), "s"),
        "modulation_fit.decompose.calls": (per_op(len(fit_spans)), "count"),
        "modulation_fit.ms_per_fit":
            (1e3 * total("modulation_fit.decompose") / len(fit_spans)
             if fit_spans else 0.0, "ms"),
        "modulation_fit.newton_iters": (per_op(sum(iters)), "count"),
        "modulation_fit.newton_iters.max": (max(iters, default=0), "count"),
        "modulation_fit.fit_failures":
            (per_op(sum("error" in sp.attrs for sp in fit_spans)), "count"),
        "modulation_fit.energy_functional.s":
            (per_op(total("modulation_fit.energy_functional")), "s"),
        "experiments.bisect_zeta.s": (per_op(bisect_time), "s"),
        "experiments.force_table.s":
            (per_op(total("ansatz.interaction_force_H", "experiments.bisect_zeta")), "s"),
        "experiments.shots": (per_op(sum(o.shots for o in outcomes)), "count"),
        "experiments.samples":
            (per_op(calls("nls_core.observables", "experiments.bisect_zeta")), "count"),
        "experiments.self_frac":
            (self_total("experiments.bisect_zeta") / bisect_time if bisect_time else 0.0,
             "ratio"),
    }


def emit(result: dict, stamp: dict) -> None:
    print("env " + json.dumps(stamp, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, each in its own process, as one table."""
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__)), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", "0"], capture_output=True, text=True,
                              timeout=1800)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        wall = next(ln.split()[1] for ln in lines if ln.startswith("wall_s "))
        rows.append((name, res, wall))
    print(f"{'workload':10s} {'metric':14s} {'value':>12s} unit")
    for name, res, wall in rows:
        for metric, m in res["metrics"].items():
            print(f"{name:10s} {metric:14s} {m['value']:12.5g} {m['unit']}")
        print(f"{name:10s} {'wall_s':14s} {float(wall):12.5g} s")
        print(f"{name:10s} {'fail_frac':14s} {res['failed'] / res['attempted']:12.5g} "
              f"({res['failed']} of {res['attempted']} ops)")
    return 0 if all(res["correct"] for _, res, _ in rows) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    work = WORKLOADS[args.workload]
    stamp = env_stamp()
    if args.trace:
        result = traced(work, args.seed, args.seconds)
    else:
        result = end_to_end(work, args.seed, args.seconds)
    emit(result, stamp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
