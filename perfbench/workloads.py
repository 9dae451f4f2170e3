"""The three benchmark workloads: seeded inputs, one op each, output checks.

Every op runs against the public API or the in-process CLI
(``modelspace.cli.main``).  An op only computes; ``check`` then verifies
its outputs against invariants that need no reference and reduces them
to named numbers, which ``compare`` holds against the outputs recorded
in ``reference.json``.

Workloads
---------
trend  the CLI's nonduality, noninterpolation and sublevel experiments at
       the default grid (m = 12) on radial zeros q = 0.7, n = 12 with a
       seeded angle step: the oscillation-norm (``bmo_norm``) path.
deep   m = 17 (131,072 nodes), radial zeros q = 0.5, n = 12 (resolution
       margin exactly 32): dichotomy, residue identity, the nonduality
       projection route without any oscillation norm, and interpolant
       sampling.  Large-grid sampling, FFTs and the Horner loop.
batch  one small separated instance per op pushed through every CLI
       subcommand via JSON/CSV files: Python-overhead-bound small work.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from pathlib import Path

import numpy as np

import modelspace as ms
from modelspace import cli

WORKLOADS = ("trend", "deep", "batch")

# Reference instances: the development seed and the held-out seed.  A run
# compares its untimed warm-up op against the one picked by its seed parity.
REFERENCE_SEEDS = (0, 1)

# invariant bars (measured values at the seed commit in brackets)
TREND_VALUE_RESIDUAL = 1e-9     # nonduality value preservation  [1.5e-14]
TREND_KERNEL_L1_GAP = 1e-9      # grid vs quadrature kernel L1    [3.5e-15]
DEEP_VALUE_RESIDUAL = 1e-7      # ROADMAP item 3's bar            [3.5e-13]
DEEP_RESIDUE_GAP = 1e-9         # residue identity discrepancy    [2.9e-13]
K2_DEFECT = 1e-12               # relative negative-mode energy   [6.9e-18]
INTERP_AGREEMENT = 1e-9         # Lagrange vs kernel samples      [1.7e-11]

# reference tolerances: oscillation norms (series named *_bmo) at the
# ROADMAP's 1e-12 relative; every other recorded number at 1e-9 relative
BMO_RTOL = 1e-12
OTHER_RTOL = 1e-9

TREND_PIPELINES = ("nonduality", "noninterpolation", "sublevel")
DEEP_M = 17
DEEP_N = 12
DEEP_LADDER = (4, 6, 8, 10, 12)  # the nonduality pipeline's ladder for n = 12
BATCH_CLASSES = (
    ("lipschitz", ["--alpha", "1.0"]),
    ("bmo", []),
    ("gevrey", ["--alpha", "0.5"]),
    ("sobolev", ["--p", "2", "--s", "1"]),
)


class OpFailure(Exception):
    """An op's CLI call exited nonzero or its output failed a check."""


# ---------------------------------------------------------------------------
# inputs


def _separated_points(rng, n, max_modulus=0.9, min_separation=0.3):
    # the acceptance suite's recipe: rejection sampling in the square
    pts = []
    while len(pts) < n:
        z = complex(rng.uniform(-max_modulus, max_modulus),
                    rng.uniform(-max_modulus, max_modulus))
        if abs(z) > max_modulus:
            continue
        if all(ms.pseudohyperbolic_distance(z, p) >= min_separation for p in pts):
            pts.append(z)
    return np.array(pts)


def _normal_values(rng, n):
    return ms.ValueSequence(rng.normal(size=n) + 1j * rng.normal(size=n))


def make_instance(workload: str, key) -> dict:
    """Inputs of one op, drawn from ``numpy.random.default_rng(key)``.

    ``key`` is a reference seed (an int) or ``(run seed, op index)``.
    Reference key 0 and op 0 of run seed 0 of ``trend`` are the ROADMAP
    baseline input (angle step 0).
    """
    rng = np.random.default_rng(key)
    if workload == "trend":
        step = 0.0 if key in (0, (0, 0)) else float(rng.uniform(0.05, 0.5))
        return {"angle_step": step}
    if workload == "deep":
        step = float(rng.uniform(0.0, 0.5))
        zeros = ms.generate_sequence("rotated_radial", q=0.5, n=DEEP_N, angle_step=step)
        return {"angle_step": step, "zeros": zeros, "values": _normal_values(rng, DEEP_N)}
    if workload == "batch":
        n = int(rng.integers(2, 13))
        zeros = ms.ZeroSequence(_separated_points(rng, n))
        return {"zeros": zeros, "values": _normal_values(rng, n)}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# ops


def _cli(argv: list[str]) -> None:
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse and the CLI's own input errors
        code = exc.code
    if code != 0:
        raise OpFailure(f"modelspace {argv[0]} exited with status {code!r}")


def _trend_op(inst: dict, workdir: Path) -> dict:
    paths = {}
    for name in TREND_PIPELINES:
        paths[name] = workdir / f"{name}.json"
        _cli(["experiment", "--name", name, "--radial-q", "0.7", "--n", "12",
              "--angle-step", repr(inst["angle_step"]), "--out", str(paths[name])])
    return {"paths": paths}


def _sample_product(zeros, grid):
    product = ms.BlaschkeProduct(zeros)
    return ms.BoundaryFunction.from_callable(grid, lambda z: ms.eval_product(product, z))


def _deep_op(inst: dict, workdir: Path) -> dict:
    zeros, values = inst["zeros"], inst["values"]
    dichotomy = ms.exp_dichotomy(zeros, values, m=DEEP_M)
    residue = ms.residue_identity_check(zeros, values, m=DEEP_M)

    # the nonduality projection route, without any oscillation norm
    grid = ms.BoundaryGrid(DEEP_M, offset=0.5)
    phi = ms.log_samples(grid)
    g = ms.model_project(_sample_product(zeros, grid), phi)
    g_at = ms.cauchy_eval(g, zeros.points, tol=1e-2)
    phi_at = ms.cauchy_eval(phi, zeros.points)
    ladder = {}
    for n in DEEP_LADDER:
        theta_n = _sample_product(zeros.truncate(n), grid)
        ladder[n] = ms.lp_norm(ms.riesz_project(theta_n.conj() * phi, "-"), 2.0)

    plain = ms.BoundaryGrid(DEEP_M)
    theta = _sample_product(zeros, plain)
    kernel = ms.kernel_interpolant(zeros, values)
    kernel_samples = kernel.sample(plain)
    lagrange_samples = ms.lagrange_interpolant(zeros, values).sample(plain)
    return {
        "dichotomy": dichotomy,
        "residue": residue,
        "g_at": g_at,
        "phi_at": phi_at,
        "ladder": ladder,
        "kernel_condition": kernel.condition,
        "kernel_samples": kernel_samples.samples,
        "lagrange_samples": lagrange_samples.samples,
        "k2_defects": [ms.membership_defect(kernel_samples, "K2", theta),
                       ms.membership_defect(lagrange_samples, "K2", theta)],
    }


def _batch_op(inst: dict, workdir: Path) -> dict:
    zpath, wpath = workdir / "zeros.json", workdir / "values.json"
    inst["zeros"].to_json(zpath)
    inst["values"].to_json(wpath)
    data = ["--zeros", str(zpath), "--values", str(wpath)]
    paths = {name: workdir / f"{name}.json" for name in
             ("diagnose", "transform", "lagrange", "kernel", "dichotomy",
              *(f"classify_{k}" for k, _ in BATCH_CLASSES))}
    paths["kernel_csv"] = workdir / "kernel.csv"
    _cli(["diagnose", "--zeros", str(zpath), "--out", str(paths["diagnose"])])
    _cli(["transform", *data, "--out", str(paths["transform"])])
    _cli(["interpolate", *data, "--form", "lagrange", "--out", str(paths["lagrange"])])
    _cli(["interpolate", *data, "--form", "kernel", "--boundary-csv",
          str(paths["kernel_csv"]), "--out", str(paths["kernel"])])
    for klass, flags in BATCH_CLASSES:
        _cli(["classify", *data, "--class", klass, *flags,
              "--out", str(paths[f"classify_{klass}"])])
    _cli(["experiment", "--name", "dichotomy", *data, "--out", str(paths["dichotomy"])])
    return {"paths": paths}


OPS = {"trend": _trend_op, "deep": _deep_op, "batch": _batch_op}


def run_op(workload: str, inst: dict, workdir: Path) -> tuple[dict, list[str]]:
    """Run one op; return its outputs and the messages of any warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = OPS[workload](inst, workdir)
    return out, [str(w.message) for w in caught]


# ---------------------------------------------------------------------------
# checks


def _load(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _series(result: dict, label: str) -> list[float]:
    return [v for lab, _, v in result["series"] if lab == label]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise OpFailure(message)


def _rel_gap(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _check_trend(inst: dict, out: dict) -> dict:
    res = {name: _load(path) for name, path in out["paths"].items()}
    for name, r in res.items():
        _require(not r["warnings"], f"{name} warned: {r['warnings']}")
    residual = max(_series(res["nonduality"], "value_preservation_residual"))
    _require(residual <= TREND_VALUE_RESIDUAL,
             f"nonduality value-preservation residual {residual:.3e}")
    grid = np.array(_series(res["noninterpolation"], "kernel_l1_grid"))
    quad = np.array(_series(res["noninterpolation"], "kernel_l1_quadrature"))
    gap = float(np.max(np.abs(grid - quad) / quad))
    _require(gap <= TREND_KERNEL_L1_GAP, f"kernel L1 grid/quadrature gap {gap:.3e}")

    flat = {"sublevel.lattice_points_in_sublevel":
            res["sublevel"]["parameters"]["lattice_points_in_sublevel"]}
    for name, r in res.items():
        for lab, i, v in r["series"]:
            if not lab.endswith("residual"):
                flat[f"{name}.{lab}[{i}]"] = v
    verdict = res["noninterpolation"]["verdicts"][0]
    flat["noninterpolation.verdict"] = verdict["satisfied"]
    flat["noninterpolation.fitted_constant"] = verdict["fitted_constant"]
    return flat


def _check_deep(inst: dict, out: dict) -> dict:
    residual = float(np.max(np.abs(out["g_at"] - out["phi_at"])))
    _require(residual <= DEEP_VALUE_RESIDUAL, f"value-preservation residual {residual:.3e}")
    gap = out["residue"].scalars["max_discrepancy"]
    _require(gap <= DEEP_RESIDUE_GAP, f"residue discrepancy {gap:.3e}")
    worst = max(out["k2_defects"])
    _require(worst <= K2_DEFECT, f"K2 membership defect {worst:.3e}")
    agree = _rel_gap(out["kernel_samples"], out["lagrange_samples"])
    _require(agree <= INTERP_AGREEMENT, f"Lagrange/kernel samples differ by {agree:.3e}")

    flat = {f"dichotomy.{lab}[{i}]": v for lab, i, v in out["dichotomy"].series}
    for j, w in enumerate(out["residue"].series["conjugate_values"]):
        flat[f"residue.conjugate_value_abs[{j}]"] = abs(w)
    for j, w in enumerate(out["g_at"]):
        flat[f"projection.value_abs[{j}]"] = abs(w)
    for n, v in out["ladder"].items():
        flat[f"projection.coanalytic_l2[{n}]"] = v
    flat["kernel.condition"] = out["kernel_condition"]
    return flat


def _read_samples(path: Path) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as fh:
        return np.array([complex(float(re), float(im)) for _, re, im in csv.reader(fh)])


def _check_batch(inst: dict, out: dict) -> dict:
    paths = out["paths"]
    res = {name: _load(path) for name, path in paths.items() if name != "kernel_csv"}
    for form in ("lagrange", "kernel"):
        _require(res[form]["within_tolerance"] is True,
                 f"{form} interpolant K2 defect {res[form]['membership_defect']:.3e}")
    kernel = _read_samples(paths["kernel_csv"])
    m = int(math.log2(kernel.size))
    lagrange = ms.lagrange_interpolant(inst["zeros"], inst["values"]).sample(ms.BoundaryGrid(m))
    agree = _rel_gap(kernel, lagrange.samples)
    _require(agree <= INTERP_AGREEMENT, f"Lagrange/kernel samples differ by {agree:.3e}")
    n = len(inst["zeros"])
    _require(len(res["transform"]["values"]) == n, "transform returned the wrong length")

    flat = {f"diagnose.{k}": v for k, v in res["diagnose"]["scalars"].items()}
    for j, (re, im) in enumerate(res["transform"]["values"]):
        flat[f"transform.abs[{j}]"] = math.hypot(re, im)
    for j, (re, im) in enumerate(res["kernel"]["coefficients"]):
        flat[f"kernel.coefficient_abs[{j}]"] = math.hypot(re, im)
    flat["kernel.condition"] = res["kernel"]["condition"]
    for klass, _ in BATCH_CLASSES:
        r = res[f"classify_{klass}"]
        flat[f"classify_{klass}.verdict"] = r["satisfied"]
        flat[f"classify_{klass}.fitted_constant"] = r["fitted_constant"]
    for lab, i, v in res["dichotomy"]["series"]:
        flat[f"dichotomy.{lab}[{i}]"] = v
    return flat


CHECKS = {"trend": _check_trend, "deep": _check_deep, "batch": _check_batch}


def check(workload: str, inst: dict, out: dict, caught: list[str]) -> dict:
    """Verify an op's outputs; return them flattened for reference comparison.

    Raises OpFailure on the first violated invariant.  Any warning raised
    during the op is a failure: every workload is chosen to run cleanly.
    """
    _require(not caught, f"op raised warnings: {caught}")
    return CHECKS[workload](inst, out)


def compare(flat: dict, reference: dict) -> None:
    """Hold flattened outputs to a recorded reference; raise OpFailure on drift."""
    _require(set(flat) == set(reference),
             f"output names differ from the reference: {sorted(set(flat) ^ set(reference))}")
    for name, want in reference.items():
        got = flat[name]
        if got == want:
            continue
        if isinstance(want, str) or isinstance(got, str):
            _require(got == want, f"{name}: {got!r} != reference {want!r}")
            continue
        rtol = BMO_RTOL if "_bmo[" in name else OTHER_RTOL
        if not math.isfinite(got) or abs(got - want) > rtol * max(abs(got), abs(want)):
            raise OpFailure(f"{name}: {got!r} differs from reference {want!r} (rtol {rtol:g})")
