"""Spans around the calls into modelspace's public functions, from outside.

``Tracer.install`` wraps each traced function and rebinds it under every
name it has in the package: the package re-exports names, and
``experiments``, ``classify``, ``interp`` and ``cli`` import names directly
(``experiments.bmo_norm`` is ``boundary.bmo_norm``).  Class targets wrap a
method on the class, which every binding shares.  A span records its name,
start, end, parent span and op id; spans stay in memory until the run
writes them out.  A span's self time is its duration minus the durations
of its child spans.

Work counts are computed from each call's arguments (and, for the sublevel
lattice, its result), not measured inside the library.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("core", "blaschke", "boundary", "interp", "classify", "experiments", "cli")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _bmo_work(args, kwargs, result):
    M = _arg(args, kwargs, 0, "f").grid.size
    # one pass of M windows over each dyadic length L = 4, 8, ..., M
    return {"samples_scanned": M * (2 * M - 4)}


def _cauchy_work(args, kwargs, result):
    M = _arg(args, kwargs, 0, "f").grid.size
    points = np.size(_arg(args, kwargs, 1, "z"))
    return {"horner_steps": M // 2, "points": points}


def _product_work(args, kwargs, result):
    product = _arg(args, kwargs, 0, "product")
    return {"factor_evals": len(product) * np.size(_arg(args, kwargs, 1, "z"))}


def _fft_work(args, kwargs, result):
    return {"fft_points": args[0].grid.size}  # one forward FFT per construction


def _sample_work(args, kwargs, result):
    return {"points": _arg(args, kwargs, 1, "grid").size}


def _lattice_work(args, kwargs, result):
    p = result.parameters
    return {"lattice_hits": p["lattice_points_in_sublevel"],
            "lattice_points": p["n_radial"] * p["n_angular"]}


# (module, attribute, method or None, work counter or None).  A class with
# method __post_init__ is traced under the class name: construction is
# where its validation or FFT work happens.
TARGETS = (
    ("core", "ZeroSequence", "__post_init__", None),
    ("core", "ValueSequence", "__post_init__", None),
    ("core", "generate_sequence", None, None),
    ("blaschke", "eval_product", None, _product_work),
    ("blaschke", "all_derivatives", None, None),
    ("blaschke", "interpolation_delta", None, None),
    ("blaschke", "frostman_sup", None, None),
    ("blaschke", "sublevel_indicator", None, None),
    ("blaschke", "diagnose", None, None),
    ("boundary", "BoundaryGrid", "__post_init__", None),
    ("boundary", "BoundaryFunction", "__post_init__", _fft_work),
    ("boundary", "riesz_project", None, None),
    ("boundary", "model_project", None, None),
    ("boundary", "h2_defect", None, None),
    ("boundary", "lp_norm", None, None),
    ("boundary", "tilde", None, None),
    ("boundary", "membership_defect", None, None),
    ("boundary", "bmo_norm", None, _bmo_work),
    ("boundary", "write_csv", None, None),
    ("interp", "cauchy_eval", None, _cauchy_work),
    ("interp", "conjugate_matrix", None, None),
    ("interp", "conjugate_sequence", None, None),
    ("interp", "lagrange_interpolant", None, None),
    ("interp", "kernel_interpolant", None, None),
    ("interp", "InterpolantRepresentation", "sample", _sample_work),
    ("interp", "residue_identity_check", None, None),
    ("classify", "classify_trace", None, None),
    ("classify", "log_growth_check", None, None),
    ("experiments", "exp_nonduality", None, None),
    ("experiments", "exp_noninterpolation", None, None),
    ("experiments", "exp_dichotomy", None, None),
    ("experiments", "exp_sublevel", None, _lattice_work),
    ("experiments", "kernel_l1_quadrature", None, None),
    ("experiments", "log_samples", None, None),
    ("cli", "main", None, None),
)

# work counts reported per op, and the one ratio built from two of them
COUNTS = (
    "boundary.bmo_norm.samples_scanned",
    "interp.cauchy_eval.horner_steps",
    "interp.cauchy_eval.points",
    "blaschke.eval_product.factor_evals",
    "boundary.BoundaryFunction.fft_points",
    "interp.InterpolantRepresentation.sample.points",
)
HIT_RATIO = "experiments.exp_sublevel.lattice_hit_ratio"


def span_name(module: str, attr: str, method: str | None) -> str:
    parts = [module, attr] + ([method] if method and method != "__post_init__" else [])
    return ".".join(parts)


SPAN_NAMES = tuple(span_name(m, a, meth) for m, a, meth, _ in TARGETS)


def layer_metrics() -> dict:
    """Every per-layer metric the traced run reports: name -> (unit, better)."""
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = ("count/op", "lower")
        out[f"{name}.self_s"] = ("s/op", "lower")
        out[f"{name}.errors"] = ("count/op", "lower")
    for module in MODULES:
        out[f"{module}.self_s"] = ("s/op", "lower")
    for name in COUNTS:
        out[name] = ("count/op", "lower")
    out[HIT_RATIO] = ("ratio", "higher")
    out["bench.op.self_s"] = ("s/op", "lower")
    out["bench.untraced_op_p50_s"] = ("s", "lower")
    out["bench.traced_op_p50_s"] = ("s", "lower")
    out["bench.trace_overhead_s"] = ("s", "lower")
    return out


class Tracer:
    """In-memory span recorder; inactive (plain pass-through) outside ops."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index, op id, raised]
        self.counts = []    # (op id, counter name, value)
        self._stack = []
        self._op = None

    def install(self) -> None:
        package = importlib.import_module("modelspace")
        modules = [package] + [importlib.import_module(f"modelspace.{m}") for m in MODULES]
        for (module, attr, method, counter), name in zip(TARGETS, SPAN_NAMES):
            owner = getattr(importlib.import_module(f"modelspace.{module}"), attr)
            if method is not None:
                setattr(owner, method, self._wrap(name, owner.__dict__[method], counter))
                continue
            wrapped = self._wrap(name, owner, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is owner:
                        setattr(mod, key, wrapped)

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1], self._op, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts.append((self._op, f"{name}.{key}", value))
            return result

        return traced

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as op op_id under a root span named ``op``."""
        self._op = op_id
        self._stack.append(len(self.spans))
        span = ["op", perf_counter(), 0.0, None, op_id, False]
        self.spans.append(span)
        try:
            return fn(*args)
        except BaseException:
            span[5] = True
            raise
        finally:
            span[2] = perf_counter()
            self._stack.pop()
            self._op = None

    def summary(self, count_ops: int) -> tuple[dict, dict]:
        """Per-layer metrics, plus the full per-span table.

        Self times are means per traced op over every traced op.  Calls,
        errors and work counts are means per op over the first count_ops
        ops only, whose inputs are fixed by the seed, so they repeat
        exactly between runs with the same seed.
        """
        op_ids = sorted({s[4] for s in self.spans})
        counted = set(op_ids[:count_ops])
        n_ops, n_counted = len(op_ids), len(counted)
        covered = defaultdict(float)
        for s in self.spans:
            if s[3] is not None:
                covered[s[3]] += s[2] - s[1]
        table = {name: {"calls": 0, "self_s": 0.0, "errors": 0}
                 for name in ("op",) + SPAN_NAMES}
        for i, (name, start, end, _, op, raised) in enumerate(self.spans):
            row = table[name]
            row["self_s"] += end - start - covered[i]
            if op in counted:
                row["calls"] += 1
                row["errors"] += int(raised)
        work = defaultdict(float)
        for op, key, value in self.counts:
            if op in counted:
                work[key] += value

        metrics = {}
        for name in SPAN_NAMES:
            row = table[name]
            metrics[f"{name}.calls"] = row["calls"] / n_counted
            metrics[f"{name}.self_s"] = row["self_s"] / n_ops
            metrics[f"{name}.errors"] = row["errors"] / n_counted
        for module in MODULES:
            metrics[f"{module}.self_s"] = sum(
                table[name]["self_s"] for name in SPAN_NAMES
                if name.split(".", 1)[0] == module) / n_ops
        for name in COUNTS:
            metrics[name] = work[name] / n_counted
        points = work["experiments.exp_sublevel.lattice_points"]
        # no sublevel call in the counted ops: report 0, not 0/0
        metrics[HIT_RATIO] = work["experiments.exp_sublevel.lattice_hits"] / points if points else 0.0
        metrics["bench.op.self_s"] = table["op"]["self_s"] / n_ops
        return metrics, table
