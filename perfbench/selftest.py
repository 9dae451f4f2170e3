"""Self-test of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

Checks, with one-second runs of every workload:
  * a --trace 0 run prints every end-to-end metric of BENCHMARK.json with
    its unit, attempts at least one op and fails none;
  * two --trace 1 runs with the same seed print every per-layer metric with
    its unit, and their calls, errors and work counts repeat exactly;
  * the traced runs show the workload split: bmo_norm carries at least 90%
    of a trend op and is never called by deep or batch;
  * a corrupted reference makes the warm-up op fail (error rate above 0),
    with the benchmark run in this process and its reference path patched;
  * a directory holding only BENCHMARK.json and perfbench/ exits nonzero
    without printing a result.
Takes about two minutes on a two-core machine.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".perfbench_out" / "selftest"
COUNT_SUFFIXES = (".calls", ".errors")
COUNT_NAMES = spans.COUNTS + (spans.HIT_RATIO,)


def _run(workload, seed, trace, root=ROOT):
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    return done


def _result(done) -> dict:
    if done.returncode != 0:
        raise AssertionError(f"benchmark exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise AssertionError(message)
    print(f"ok  {message}")


def _units(result: dict) -> dict:
    return {k: v["unit"] for k, v in result["metrics"].items()}


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    layer = spans.layer_metrics()
    _expect(per_layer == {k: u for k, (u, _) in layer.items()},
            "BENCHMARK.json per_layer lists exactly the traced run's metrics")
    _expect(all(m["better"] == layer[m["name"]][1] for m in bench["per_layer"]),
            "BENCHMARK.json per_layer directions match the traced run's")
    SCRATCH.mkdir(parents=True, exist_ok=True)

    for workload in (w["name"] for w in bench["workloads"]):
        res = _result(_run(workload, 5, 0))
        _expect(_units(res) == end_to_end and res["failed"] == 0 and res["attempted"] >= 2,
                f"{workload}: --trace 0 prints every end-to-end metric, no op failed")

        first, second = (_result(_run(workload, 7, 1)) for _ in range(2))
        _expect(_units(first) == per_layer and first["failed"] == 0,
                f"{workload}: --trace 1 prints every per-layer metric, no op failed")
        counts = [k for k in per_layer if k.endswith(COUNT_SUFFIXES) or k in COUNT_NAMES]
        diff = [k for k in counts
                if first["metrics"][k]["value"] != second["metrics"][k]["value"]]
        _expect(not diff, f"{workload}: {len(counts)} calls/errors/work counts repeat exactly")

        m = {k: v["value"] for k, v in first["metrics"].items()}
        if workload == "trend":
            op_s = m["bench.op.self_s"] + sum(m[f"{x}.self_s"] for x in spans.MODULES)
            share = m["boundary.bmo_norm.self_s"] / op_s
            _expect(share >= 0.9, f"trend: bmo_norm carries {share:.1%} of an op")
        else:
            _expect(m["boundary.bmo_norm.calls"] == 0, f"{workload}: bmo_norm is never called")

    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    for outputs in reference["batch"].values():
        for name, value in outputs.items():
            if not isinstance(value, str):
                outputs[name] = value * (1.0 + 1e-6)
    corrupt = SCRATCH / "corrupt_reference.json"
    corrupt.write_text(json.dumps(reference), encoding="utf-8")
    run.REFERENCE = corrupt
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        run.main(["--workload", "batch", "--seed", "5", "--seconds", "1", "--trace", "0"])
    res = json.loads(stdout.getvalue().strip().splitlines()[-1])
    _expect(res["failed"] >= 1 and not res["correct"],
            f"corrupted reference: error rate {res['failed']}/{res['attempted']} > 0")

    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("batch", 5, 0, root=bare)
    _expect(done.returncode != 0 and not done.stdout.strip(),
            f"without the sources: exit status {done.returncode}, no result printed")
    shutil.rmtree(bare)
    return 0


if __name__ == "__main__":
    sys.exit(main())
