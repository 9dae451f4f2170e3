"""Record the reference outputs that every benchmark run checks against.

Run from the repository root, on the commit whose outputs are the
reference:

    python3 perfbench/record_reference.py

For each workload it runs one op on each reference instance (the
development seed and the held-out seed of ``workloads.REFERENCE_SEEDS``),
checks the outputs' invariants, and writes the checked numbers to
``perfbench/reference.json``.
"""

import json
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    workloads = run.import_program()
    run.OUT.mkdir(exist_ok=True)
    recorded = {}
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for workload in workloads.WORKLOADS:
            recorded[workload] = {}
            for key in workloads.REFERENCE_SEEDS:
                inst = workloads.make_instance(workload, key)
                out, caught = workloads.run_op(workload, inst, Path(tmp))
                recorded[workload][str(key)] = workloads.check(workload, inst, out, caught)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
