"""Benchmark of derring: one workload per process, closed loop, one thread.

    python3 bench/run.py --workload dihedral-grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; derring is imported from its ``src``.
With ``--trace 0`` the run times several set-ups, each in a fresh
interpreter, sets up once more in its own process, then runs whole
passes over the workload's operation list until ``--seconds`` have
passed and at least the workload's minimum number of passes is done,
and prints the end-to-end metrics.  Every timing is rescaled by a
calibration kernel timed next to it (see ``KERNELS``).  With
``--trace 1`` it times untraced passes, then installs the tracer, sets
up once more and runs one traced pass, and prints the per-layer metrics
with the tracing overhead in wall time.  Every output is checked right
after its operation, outside the timed region, and then dropped.  The
last line of standard output is the JSON result; raw latencies and
spans go to ``bench/out``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

# one thread of work: keep numpy's native pools single-threaded
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5

# Host-speed calibration.  This host's speed drifts by up to 2x over
# stretches of seconds, in CPU time as in wall time, so raw timings of
# one 25 s run depend on the stretch it lands in.  A fixed kernel,
# independent of derring, is timed before every operation, and each
# operation's time is divided by the kernel's slowness there: its time
# over its reference time, which is its median on the reference machine.
# The reported times so read as milliseconds and seconds on that machine
# at its median speed.  Interpreted Python and numpy's vectorized loops
# slow down by different shares, so a workload names the kernel that
# does its kind of work (``Workload.kernel``).
#
# an operation is rescaled by the median slowness of the samples taken
# before it and before its CAL_WINDOW neighbours on each side
CAL_WINDOW = 4
SETUP_CAL_SAMPLES = 15
# untraced passes, the last ones before the traced pass, it is compared with
UNTRACED_PASSES_COMPARED = 3


def _python_kernel() -> int:
    """Dict, integer and Fraction work, the mix derring's inner loops do."""
    table, acc, frac = {}, 0, Fraction(1, 3)
    for i in range(1500):
        k = i % 61
        table[k] = (table.get(k, 0) * 7 + i) % 1000003
        acc += (i * 31) % 7
        if i % 50 == 0:
            frac = frac * Fraction(i + 1, 7) + Fraction(1, i + 2)
    return acc + len(table) + frac.denominator % 2


@functools.lru_cache(maxsize=None)
def _numpy_operands():
    import numpy as np  # after set-up, so that set-up still pays for the import
    rng = np.random.default_rng(0)
    return (np, rng.integers(0, 3, size=(8, 1, 24), dtype=np.int8),
            rng.integers(0, 3, size=(1, 1024, 24), dtype=np.int8))


def _numpy_kernel() -> int:
    """One block of codes._weight_counts' loop: int8 sums mod 3, weights, bincount."""
    np, prefix, suffix = _numpy_operands()
    weights = np.count_nonzero((prefix + suffix) % 3, axis=2)
    return int(np.bincount(weights.ravel(), minlength=25)[0])


# kernel name -> (kernel, its median seconds on the reference machine)
KERNELS = {"python": (_python_kernel, 0.75e-3), "numpy": (_numpy_kernel, 1.35e-3)}


def slowness(kernel: str = "python") -> float:
    """The kernel's time now over its reference time, with the collector held off."""
    run_kernel, reference_s = KERNELS[kernel]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        run_kernel()
        return (perf_counter() - t0) / reference_s
    finally:
        if was_enabled:
            gc.enable()


def rescale(latencies, cals):
    """Each latency divided by the slowness sampled around it."""
    return [x / statistics.median(cals[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1])
            for i, x in enumerate(latencies)]


def timed_setup(name: str, seed: int) -> float:
    """Seconds to import derring (numpy with it) and build the inputs.

    Divided by the Python kernel's slowness sampled just before and just
    after.
    """
    cals = [slowness() for _ in range(SETUP_CAL_SAMPLES)]
    t0 = perf_counter()
    workloads.build(name, workloads.import_derring(SRC), seed)
    elapsed = perf_counter() - t0
    cals += [slowness() for _ in range(SETUP_CAL_SAMPLES)]
    return elapsed / statistics.median(cals)


def setup_seconds(name: str, seed: int) -> float:
    """Median of SETUP_REPEATS set-ups, each in a fresh interpreter.

    Re-importing derring inside one process grew slower from repeat to
    repeat, so every repeat gets its own process; each is waited for.
    """
    code = (f"import sys; sys.path[:0] = [{str(HERE)!r}, {str(SRC)!r}]; import run; "
            f"print(run.timed_setup({name!r}, {seed}))")
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run([sys.executable, "-c", code], capture_output=True,
                               text=True, check=True, timeout=120)
        times.append(float(child.stdout.split()[-1]))
    return statistics.median(times)


def setup(name: str, seed: int):
    """Import derring and build the workload for the passes.

    The inputs are frozen out of the collector afterwards, so a full
    collection during the passes does not walk them.
    """
    mods = workloads.import_derring(SRC)
    workload = workloads.build(name, mods, seed)
    gc.collect()
    gc.freeze()
    return mods, workload


class Tally:
    """Verdicts over every output: failed, unexpected failures, problem lines."""

    def __init__(self, workload):
        self.workload = workload
        self.failed = self.unexpected = 0
        self.lines = []
        self._verdicts = {}

    def judge(self, i: int, out) -> None:
        op = self.workload.ops[i]
        if isinstance(out, Exception):
            problems = [f"raised {type(out).__name__}: {out}"]
        else:
            key = (i, op.plain(out))
            if key not in self._verdicts:
                self._verdicts[key] = op.check(key[1])
            problems = self._verdicts[key]
        if not problems:
            return
        self.failed += 1
        self.unexpected += op.known_fault is None
        line = f"{op.label}: {'; '.join(problems)}" + (
            f" [known fault: {op.known_fault}]" if op.known_fault else "")
        if line not in self.lines:
            self.lines.append(line)


def run_pass(workload, judge, latencies, cals, tracer=None) -> None:
    for i, op in enumerate(workload.ops):
        cals.append(slowness(workload.kernel))
        root = tracer.open("bench.op") if tracer else None
        t0 = perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failing operation is counted, not fatal
            out = exc
        latencies.append(perf_counter() - t0)
        if tracer:
            tracer.close(root)
        judge(i, out)


def nearest_rank(values, pct):
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(args, out_base):
    setup_s = setup_seconds(args.workload, args.seed)
    _, workload = setup(args.workload, args.seed)
    tally, latencies, cals = Tally(workload), [], []
    passes = 0
    t0 = perf_counter()
    while passes < workload.min_passes or perf_counter() - t0 < args.seconds:
        run_pass(workload, tally.judge, latencies, cals)
        passes += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scaled = rescale(latencies, cals)
    tail, beyond = nearest_rank(scaled, workload.tail_pct)
    ms = [x * 1000.0 for x in scaled]
    metrics = {
        "setup_s": (setup_s, "s"),
        # time inside the operations; the checks between them are not counted
        "ops_per_s": (len(scaled) / math.fsum(scaled), "1/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_tail": (tail * 1000.0, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    wall_ms = [x * 1000.0 for x in latencies]
    raw = {"workload": args.workload, "seed": args.seed, "passes": passes,
           "ops_per_pass": len(workload.ops), "tail_pct": workload.tail_pct,
           "ops_beyond_tail": beyond, "labels": [op.label for op in workload.ops],
           "latency_ms": ms, "wall_latency_ms": wall_ms,
           "slowness": cals, "problems": tally.lines}
    out_base.with_suffix(".json").write_text(json.dumps(raw))
    print(f"{args.workload}: {passes} passes x {len(workload.ops)} ops; "
          f"tail p{workload.tail_pct} with {beyond} ops beyond; unscaled: "
          f"{len(wall_ms) / math.fsum(wall_ms) * 1000.0:.4g} ops/s, "
          f"p50 {statistics.median(wall_ms):.4g} ms; median {workload.kernel} "
          f"kernel slowness {statistics.median(cals):.4g}")
    return len(latencies), tally, metrics


def traced(args, out_base):
    mods, workload = setup(args.workload, args.seed)
    tally, latencies, pass_times = Tally(workload), [], []
    t0 = perf_counter()
    while not pass_times or perf_counter() - t0 < args.seconds / 2.0:
        before = len(latencies)
        run_pass(workload, tally.judge, latencies, [])
        pass_times.append(math.fsum(latencies[before:]))
    # The overhead compares wall times of passes close together, since the
    # host's speed drifts: the traced pass against the last untraced ones.
    # The kernel cannot correct this comparison: its samples read 6-34%
    # slower while the tracer was installed, which would hide overhead.
    untraced_s = statistics.median(pass_times[-UNTRACED_PASSES_COMPARED:])

    tracer = tracing.Tracer()
    tracer.install()
    try:
        root = tracer.open("bench.setup")
        workload = workloads.build(args.workload, mods, args.seed)
        tracer.close(root)
        tracer.counts.clear()
        outputs, traced_latencies = [], []
        run_pass(workload, lambda i, out: outputs.append((i, out)), traced_latencies, [],
                 tracer)
    finally:
        tracer.uninstall()
    traced_s = math.fsum(traced_latencies)
    # judged after the wrappers are gone, since some checks call derring;
    # the rebuilt operations are the same list in the same order
    for i, out in outputs:
        tally.judge(i, out)
    metrics = {name: (value, "ms" if name.endswith("ms") else "count")
               for name, value in tracing.layer_metrics(
                   tracer, ("bench.op",), ("bench.setup",)).items()}
    metrics["linalg.rref.entries"] = (tracer.counts["linalg.rref.entries"], "count")
    metrics["linalg.sparse_rank.rows"] = (tracer.counts["linalg.sparse_rank.rows"], "count")
    metrics["trace.overhead_ms"] = ((traced_s - untraced_s) * 1000.0, "ms")
    metrics["trace.overhead_pct"] = (100.0 * (traced_s - untraced_s) / untraced_s, "%")
    tracer.dump(out_base.with_suffix(".spans.json.gz"))
    print(f"{args.workload}: untraced pass {untraced_s:.3f} s (median of the last "
          f"{min(len(pass_times), UNTRACED_PASSES_COMPARED)} of {len(pass_times)}), "
          f"traced pass {traced_s:.3f} s; {len(tracer.name)} spans")
    return len(latencies) + len(traced_latencies), tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CONSTRUCTORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "derring" / "__init__.py").is_file():
        print(f"error: no derring package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    out_base = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runner = traced if args.trace else end_to_end
    attempted, tally, metrics = runner(args, out_base)
    for line in tally.lines:
        print(f"  fail: {line}", file=sys.stderr)
    result = {"correct": tally.unexpected == 0, "attempted": attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
