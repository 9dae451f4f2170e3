"""Command-line interface.

Subcommands: diagnose, transform, interpolate, classify, experiment.
Zero and value sequences travel as JSON files; boundary samples as CSV
rows t, re, im.  See the README for examples.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import blaschke, experiments
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


def _dump(data: dict, path: str | None) -> None:
    text = json.dumps(data, indent=2)
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _load_zeros(args) -> ZeroSequence:
    if args.zeros is not None:
        return ZeroSequence.from_json(args.zeros)
    if args.radial_q is not None:
        return generate_sequence(
            "rotated_radial", q=args.radial_q, n=args.n, angle_step=args.angle_step
        )
    raise SystemExit("provide --zeros FILE or --radial-q Q with --n N")


def _add_zero_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--zeros", help="ZeroSequence JSON file")
    parser.add_argument("--radial-q", type=float, dest="radial_q",
                        help="generate a radial sequence 1 - q**k instead")
    parser.add_argument("--n", type=int, default=8, help="generated sequence length")
    parser.add_argument("--angle-step", type=float, dest="angle_step", default=0.0,
                        help="rotation per index for generated sequences")


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="modelspace",
        description="Blaschke products, boundary projections and trace classifiers",
    )
    parser.add_argument("--grid-log2", type=int, default=12, dest="grid_log2",
                        help="log2 of the boundary grid size (default 12)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diagnose", help="product diagnostics for a zero sequence")
    _add_zero_source(p)
    p.add_argument("--out", help="output JSON path (default stdout)")

    p = sub.add_parser("transform", help="conjugate sequence of trace values")
    _add_zero_source(p)
    p.add_argument("--values", required=True, help="ValueSequence JSON file")
    p.add_argument("--out", help="output JSON path (default stdout)")

    p = sub.add_parser("interpolate", help="model-space interpolant of trace values")
    _add_zero_source(p)
    p.add_argument("--values", required=True, help="ValueSequence JSON file")
    p.add_argument("--form", choices=["lagrange", "kernel"], default="lagrange")
    p.add_argument("--boundary-csv", dest="boundary_csv",
                   help="also write boundary samples to this CSV")
    p.add_argument("--out", help="output JSON path (default stdout)")

    p = sub.add_parser("classify", help="trace smoothness classification")
    _add_zero_source(p)
    p.add_argument("--values", required=True, help="ValueSequence JSON file")
    p.add_argument("--class", required=True, dest="klass",
                   choices=["lipschitz", "bmo", "gevrey", "sobolev"])
    p.add_argument("--alpha", type=float)
    p.add_argument("--p", type=float)
    p.add_argument("--s", type=float)
    p.add_argument("--out", help="output JSON path (default stdout)")

    p = sub.add_parser("experiment", help="run one of the named pipelines")
    _add_zero_source(p)
    p.add_argument("--name", required=True, choices=list(EXPERIMENTS))
    p.add_argument("--values", help="ValueSequence JSON (dichotomy only)")
    p.add_argument("--epsilon", type=float, default=0.5, help="sublevel threshold")
    p.add_argument("--density", type=int, default=48, help="radial lattice density")
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.add_argument("--csv", help="flat CSV of all series")

    args = parser.parse_args(argv)

    if args.command == "diagnose":
        zeros = _load_zeros(args)
        report = blaschke.diagnose(zeros, grid_size=1 << args.grid_log2)
        _dump(report.to_dict(), args.out)
        return 0

    if args.command == "transform":
        zeros = _load_zeros(args)
        values = ValueSequence.from_json(args.values)
        _dump(conjugate_sequence(zeros, values).to_dict(), args.out)
        return 0

    if args.command == "interpolate":
        zeros = _load_zeros(args)
        values = ValueSequence.from_json(args.values)
        if args.form == "kernel":
            interp = kernel_interpolant(zeros, values)
        else:
            interp = lagrange_interpolant(zeros, values)
        grid = BoundaryGrid(args.grid_log2)
        sampled = interp.sample(grid)
        if args.boundary_csv:
            write_csv(sampled, args.boundary_csv)
        out = interp.to_dict()
        defect = membership_defect(sampled, "K2", BlaschkeProduct(zeros).sample(grid))
        out["membership_defect"] = defect
        out["within_tolerance"] = bool(defect <= MEMBERSHIP_TOL)
        _dump(out, args.out)
        return 0

    if args.command == "classify":
        zeros = _load_zeros(args)
        values = ValueSequence.from_json(args.values)
        try:
            desc = SmoothnessDescriptor(args.klass, alpha=args.alpha, p=args.p, s=args.s)
        except ValueError as exc:
            raise SystemExit(f"--class {args.klass}: {exc}") from None
        _dump(classify_trace(zeros, values, desc).to_dict(), args.out)
        return 0

    # experiment
    result = EXPERIMENTS[args.name](_load_zeros(args), args)
    if args.csv:
        result.write_csv(args.csv)
    _dump(result.to_dict(), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
