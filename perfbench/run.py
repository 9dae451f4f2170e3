"""Benchmark of the modelspace library and its CLI.

Run from the repository root:

    python3 perfbench/run.py --workload trend --seed 3 --seconds 20 --trace 0

One process, one client, closed loop: each op starts when the previous one
has finished and been checked.  Op inputs come from the seed only.  A run
first performs one untimed warm-up op on a reference instance and compares
its outputs with ``perfbench/reference.json``; then it times ops for
``--seconds`` seconds and checks every op's outputs.

``--trace 0`` reports the end-to-end metrics: setup_s (median of fresh
interpreters importing modelspace and building the first op's inputs),
op_p50_s, ops_per_s and peak_rss_mb.  ``--trace 1`` runs each op input
twice, untraced and then with spans around modelspace's public functions,
and reports the per-layer metrics listed by ``spans.layer_metrics``.

The report goes to standard output; its last line is one JSON object with
the keys correct, attempted, failed and metrics.  Full details (op times,
failures, the per-span table, and the spans of a traced run) are written
to ``.perfbench_out/`` under the repository root.
"""

import os

# one client on one thread: pin the BLAS/OpenMP pools before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = BENCH / "reference.json"

SETUP_RUNS = 5
# traced ops whose calls and work counts are reported (fixed by the seed)
COUNT_OPS = {"trend": 2, "deep": 3, "batch": 20}
TAIL_LEVELS = (99.0, 95.0, 90.0, 75.0)

# a fresh interpreter: import modelspace (through workloads) and build the
# first op's inputs
_PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
          "workloads.make_instance(sys.argv[3], (int(sys.argv[4]), 0))")


def import_program():
    """Put the checkout's sources first on the path and import the workloads."""
    if not (SRC / "modelspace" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no modelspace sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import modelspace
    import workloads

    if Path(modelspace.__file__).resolve().parent != SRC / "modelspace":
        raise SystemExit(f"perfbench: imported modelspace from {modelspace.__file__}")
    return workloads


def _setup_seconds(workload: str, seed: int) -> float:
    start = perf_counter()
    subprocess.run(
        [sys.executable, "-c", _PROBE, str(SRC), str(BENCH), workload, str(seed)],
        check=True, stdout=subprocess.DEVNULL,
    )
    return perf_counter() - start


def _stamp() -> dict:
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "modelspace").glob("*.py")):
        digest.update(path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _tail(times: list[float]):
    """Highest of TAIL_LEVELS leaving at least ten samples above it (nearest rank)."""
    ordered = sorted(times)
    for level in TAIL_LEVELS:
        rank = math.ceil(level / 100.0 * len(ordered))
        if len(ordered) - rank >= 10:
            return level, ordered[rank - 1]
    return None


class Session:
    """Runs and checks ops of one workload; counts attempts and failures."""

    def __init__(self, workloads, workload: str, seed: int, workdir: Path):
        self.workloads = workloads
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failures = []

    def attempt(self, key, reference=None, tracer=None, op_id=0) -> float:
        """Run and check one op; return its wall time (failed ops included)."""
        wl = self.workloads
        inst = wl.make_instance(self.workload, key)
        self.attempted += 1
        start = perf_counter()
        try:
            if tracer is None:
                out, caught = wl.run_op(self.workload, inst, self.workdir)
            else:
                out, caught = tracer.run_op(op_id, wl.run_op, self.workload, inst, self.workdir)
        except Exception:
            elapsed = perf_counter() - start
            self.failures.append({"key": repr(key), "error": traceback.format_exc()})
            return elapsed
        elapsed = perf_counter() - start
        try:
            flat = wl.check(self.workload, inst, out, caught)
            if reference is not None:
                wl.compare(flat, reference)
        except Exception:
            self.failures.append({"key": repr(key), "error": traceback.format_exc()})
        return elapsed

    def loop(self, seconds: float, min_ops: int = 0, tracer=None):
        """Closed loop over op inputs (seed, i) for the given wall time
        (and at least min_ops inputs).  With a tracer, each input runs
        untraced and then traced, so the two passes are matched by input
        and by time.  Returns the op times of the untraced and traced passes.
        """
        untraced, traced = [], []
        start = perf_counter()
        while perf_counter() - start < seconds or len(untraced) < min_ops:
            i = len(untraced)
            untraced.append(self.attempt((self.seed, i)))
            if tracer is not None:
                traced.append(self.attempt((self.seed, i), tracer=tracer, op_id=i))
        return untraced, traced


def _run(args, workloads) -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)[args.workload]
    OUT.mkdir(exist_ok=True)
    report = {"metrics": {}, "units": {}}
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        session = Session(workloads, args.workload, args.seed, Path(tmp))
        ref_key = workloads.REFERENCE_SEEDS[args.seed % 2]
        session.attempt(ref_key, reference=reference[str(ref_key)])

        if args.trace == 0:
            times, _ = session.loop(args.seconds)
            report["op_times_s"] = times
            report["tail"] = _tail(times)
            report["metrics"] = {
                "op_p50_s": statistics.median(times),
                "ops_per_s": len(times) / sum(times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        else:
            tracer = spans.Tracer()
            tracer.install()
            count_ops = COUNT_OPS[args.workload]
            untraced, traced = session.loop(args.seconds, count_ops, tracer)
            metrics, table = tracer.summary(count_ops)
            metrics["bench.untraced_op_p50_s"] = statistics.median(untraced)
            metrics["bench.traced_op_p50_s"] = statistics.median(traced)
            metrics["bench.trace_overhead_s"] = statistics.median(
                t - u for u, t in zip(untraced, traced))
            report.update(metrics=metrics, span_table=table, spans=tracer.spans,
                          op_times_s={"untraced": untraced, "traced": traced})
            report["units"] = {k: u for k, (u, _) in spans.layer_metrics().items()}
    report["attempted"] = session.attempted
    report["failures"] = session.failures
    return report


def _print_report(args, report: dict) -> None:
    stamp = report["stamp"]
    print("perfbench " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    attempted, failed = report["attempted"], len(report["failures"])
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} attempted={attempted} failed={failed}")
    for failure in report["failures"][:3]:
        print(f"FAILED op {failure['key']}:\n{failure['error']}")
    metrics, units = report["metrics"], report["units"]
    if args.trace == 0:
        n = len(report["op_times_s"])
        print(f"  setup_s      {metrics['setup_s']:.6f} s  (median of {SETUP_RUNS} fresh interpreters)")
        print(f"  op_p50_s     {metrics['op_p50_s']:.6f} s  ({n} timed ops)")
        if report["tail"] is None:
            print(f"  op_tail_s    undefined: {n} ops leave fewer than 10 beyond p75")
        else:
            level, value = report["tail"]
            print(f"  op_tail_s    {value:.6f} s  (p{level:g} of {n} ops)")
        print(f"  ops_per_s    {metrics['ops_per_s']:.6f} 1/s")
        print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.3f} MB")
        print(f"  error_rate   {failed / attempted:.6f} ratio ({failed}/{attempted})")
        return
    traced = report["op_times_s"]["traced"]
    per_op = sum(traced) / len(traced)
    print(f"  traced ops: {len(traced)}, mean {per_op:.6f} s; self time per op by span:")
    rows = sorted(((name, metrics[name + ".self_s"]) for name in spans.SPAN_NAMES),
                  key=lambda kv: -kv[1])
    for name, value in rows[:12]:
        print(f"    {name:48s} {value:.6f} s  {100.0 * value / per_op:5.1f}%  "
              f"calls/op {metrics[name + '.calls']:g}")
    for name in ("bench.untraced_op_p50_s", "bench.traced_op_p50_s", "bench.trace_overhead_s"):
        print(f"  {name:30s} {metrics[name]:.6f} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["trend", "deep", "batch"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed nonnegative")

    workloads = import_program()
    setup = []
    if args.trace == 0:
        setup = [_setup_seconds(args.workload, args.seed) for _ in range(SETUP_RUNS)]
    report = _run(args, workloads)
    report["stamp"] = _stamp()
    report["args"] = {k: str(v) for k, v in vars(args).items()}
    if args.trace == 0:
        report["setup_runs_s"] = setup
        report["metrics"]["setup_s"] = statistics.median(setup)
        report["units"] = {"setup_s": "s", "op_p50_s": "s", "ops_per_s": "1/s",
                           "peak_rss_mb": "MB"}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    _print_report(args, report)
    result = {
        "correct": not report["failures"],
        "attempted": report["attempted"],
        "failed": len(report["failures"]),
        "metrics": {k: {"value": v, "unit": report["units"][k]}
                    for k, v in report["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
