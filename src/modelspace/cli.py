"""Command-line interface.

Subcommands: diagnose, transform, interpolate, classify, experiment.
Each loads the zero sequence, runs its handler and writes one JSON
output.  Zero and value sequences travel as JSON files; boundary samples
as CSV rows t + offset, re, im.  See the README for examples.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import blaschke, core, experiments
from .blaschke import BlaschkeProduct
from .boundary import BoundaryGrid, membership_defect, write_csv
from .classify import classify_trace
from .core import SmoothnessDescriptor, ValueSequence, ZeroSequence, generate_sequence
from .interp import (
    InterpolantRepresentation,
    conjugate_sequence,
    kernel_interpolant,
    lagrange_interpolant,
)

# an interpolant is reported within_tolerance when its K2 defect is at most this
MEMBERSHIP_TOL = 1e-9


def _load_zeros(args) -> ZeroSequence:
    if args.zeros is not None:
        return ZeroSequence.from_json(args.zeros)
    if args.radial_q is not None:
        return generate_sequence(
            "rotated_radial", q=args.radial_q, n=args.n, angle_step=args.angle_step
        )
    raise SystemExit("provide --zeros FILE or --radial-q Q with --n N")


# subcommand handlers, run(zeros, args) -> the JSON-ready output
def _diagnose(zeros: ZeroSequence, args) -> dict:
    return blaschke.diagnose(zeros, grid_size=1 << args.grid_log2).to_dict()


def _transform(zeros: ZeroSequence, args) -> dict:
    return conjugate_sequence(zeros, ValueSequence.from_json(args.values)).to_dict()


def _interpolate(zeros: ZeroSequence, args) -> dict:
    values = ValueSequence.from_json(args.values)
    build = kernel_interpolant if args.form == "kernel" else lagrange_interpolant
    interp = build(zeros, values)
    grid = BoundaryGrid(args.grid_log2)
    sampled = interp.sample(grid)
    if args.boundary_csv:
        write_csv(sampled, args.boundary_csv)
    out = interp.to_dict()
    defect = membership_defect(sampled, "K2", BlaschkeProduct(zeros).sample(grid))
    out["membership_defect"] = defect
    out["within_tolerance"] = bool(defect <= MEMBERSHIP_TOL)
    return out


def _classify(zeros: ZeroSequence, args) -> dict:
    values = ValueSequence.from_json(args.values)
    try:
        desc = SmoothnessDescriptor(args.klass, alpha=args.alpha, p=args.p, s=args.s)
    except ValueError as exc:
        raise SystemExit(f"--class {args.klass}: {exc}") from None
    return classify_trace(zeros, values, desc).to_dict()


def _dichotomy(zeros: ZeroSequence, args) -> experiments.ExperimentResult:
    if args.values is None:
        values = ValueSequence(np.ones(len(zeros)))
    else:
        values = ValueSequence.from_json(args.values)
    return experiments.exp_dichotomy(zeros, values, m=args.grid_log2)


def _sublevel(zeros: ZeroSequence, args) -> experiments.ExperimentResult:
    # the mean of the reproducing kernels at the zeros, sampled on the grid
    n = len(zeros)
    kernel = InterpolantRepresentation(zeros, np.full(n, 1.0 / n), "kernel_basis")
    return experiments.exp_sublevel(
        zeros, kernel.sample(BoundaryGrid(args.grid_log2)),
        eps=args.epsilon, n_radial=args.density,
    )


# experiment name -> runner(zeros, args); runners look their pipeline up at
# call time, so rebinding it in the experiments module (as tests do) holds
EXPERIMENTS = {
    "nonduality": lambda zeros, args: experiments.exp_nonduality(zeros, m=args.grid_log2),
    "noninterpolation": lambda zeros, args: experiments.exp_noninterpolation(
        zeros, m=args.grid_log2
    ),
    "dichotomy": _dichotomy,
    "sublevel": _sublevel,
}


def _experiment(zeros: ZeroSequence, args) -> dict:
    result = EXPERIMENTS[args.name](zeros, args)
    if args.csv:
        result.write_csv(args.csv)
    return result.to_dict()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="modelspace",
        description="Blaschke products, boundary projections and trace classifiers",
    )
    parser.add_argument("--grid-log2", type=int, default=12, dest="grid_log2",
                        help="log2 of the boundary grid size (default 12)")
    # options every subcommand takes: the zero source and the output path
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--zeros", help="ZeroSequence JSON file")
    common.add_argument("--radial-q", type=float, dest="radial_q",
                        help="generate a radial sequence 1 - q**k instead")
    common.add_argument("--n", type=int, default=8, help="generated sequence length")
    common.add_argument("--angle-step", type=float, dest="angle_step", default=0.0,
                        help="rotation per index for generated sequences")
    common.add_argument("--out", help="output JSON path (default stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common], help=summary)
        p.set_defaults(run=run)
        return p

    command("diagnose", _diagnose, "product diagnostics for a zero sequence")

    p = command("transform", _transform, "conjugate sequence of trace values")
    p.add_argument("--values", required=True, help="ValueSequence JSON file")

    p = command("interpolate", _interpolate, "model-space interpolant of trace values")
    p.add_argument("--values", required=True, help="ValueSequence JSON file")
    p.add_argument("--form", choices=["lagrange", "kernel"], default="lagrange")
    p.add_argument("--boundary-csv", dest="boundary_csv",
                   help="also write boundary samples to this CSV")

    p = command("classify", _classify, "trace smoothness classification")
    p.add_argument("--values", required=True, help="ValueSequence JSON file")
    p.add_argument("--class", required=True, dest="klass", choices=core._DESCRIPTOR_KINDS)
    p.add_argument("--alpha", type=float)
    p.add_argument("--p", type=float)
    p.add_argument("--s", type=float)

    p = command("experiment", _experiment, "run one of the named pipelines")
    p.add_argument("--name", required=True, choices=list(EXPERIMENTS))
    p.add_argument("--values", help="ValueSequence JSON (dichotomy only)")
    p.add_argument("--epsilon", type=float, default=0.5, help="sublevel threshold")
    p.add_argument("--density", type=int, default=48, help="radial lattice density")
    p.add_argument("--csv", help="flat CSV of all series")

    args = parser.parse_args(argv)
    text = json.dumps(args.run(_load_zeros(args), args), indent=2)
    if args.out is None:
        print(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
