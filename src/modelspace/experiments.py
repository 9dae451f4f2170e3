"""End-to-end experiment pipelines over the other modules.

Each experiment assembles products, projections and transforms into a
reproducible run and returns an ExperimentResult whose series can be
dumped to CSV for plotting.  Statements that are asymptotic in nature
(an unbounded oscillation norm, failure of a trace characterization) are
rendered as growth trends over nested truncations of the zero sequence;
no finite run certifies the limit.
"""

from __future__ import annotations

import csv
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .blaschke import BlaschkeProduct, all_derivatives, sublevel_indicator
from .boundary import (
    BoundaryFunction,
    BoundaryGrid,
    bmo_norm,
    h2_defect,
    lp_norm,
    model_project,
    riesz_project,
)
from .classify import DecayVerdict, log_growth_check
from .core import ValueSequence, ZeroSequence
from .interp import _TABLE_ENTRIES, cauchy_eval, conjugate_sequence, lagrange_interpolant

# a product factor is treated as resolved when M (1 - |z_j|) is at least this
RESOLUTION_MARGIN = 32.0

# exp_sublevel's polar lattice: angles per circle, and the gap 1 - r of the
# circle nearest the boundary
SUBLEVEL_ANGLES = 256
SUBLEVEL_DEPTH = 1e-4


@dataclass
class ExperimentResult:
    """Named series produced by one experiment run."""

    name: str
    parameters: dict
    series: list = field(default_factory=list)   # (label, index, value) triples
    verdicts: list = field(default_factory=list)
    runtime: float = 0.0
    warnings: list = field(default_factory=list)

    def add(self, label: str, index, value) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"series entry {label}[{index}] is not finite")
        self.series.append((label, index, value))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "parameters": self.parameters,
            "series": [[lab, i, v] for lab, i, v in self.series],
            "verdicts": [
                v.to_dict() if isinstance(v, DecayVerdict) else v for v in self.verdicts
            ],
            "runtime": self.runtime,
            "warnings": list(self.warnings),
        }

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["label", "index", "value"])
            for lab, i, v in self.series:
                writer.writerow([lab, i, repr(v)])


def log_samples(grid: BoundaryGrid) -> BoundaryFunction:
    """Principal-branch log(1 - z) sampled on the grid.

    Needs an offset grid so that no node hits the singularity at angle 0.
    The returned function is the analytic part of the raw samples; the
    small negative-mode residue of sampling a log singularity is dropped
    here (exp_nonduality reports it as log_sampling_defect).
    """
    if grid.offset == 0.0:
        raise ValueError("log(1 - z) needs the half-offset grid (node at angle 0)")
    raw = BoundaryFunction(grid, np.log(1.0 - grid.nodes))
    return riesz_project(raw, "+")


def _truncation_ladder(n: int) -> list[int]:
    if n <= 4:
        return list(range(1, n + 1))
    return list(range(4, n + 1, 2)) if n % 2 == 0 else list(range(3, n + 1, 2))


def _log_projection(name: str, zeros: ZeroSequence, m: int):
    # set-up shared by the two pipelines of the logarithm: the result on the
    # half-offset grid (resolution checked), the raw samples of log(1 - z),
    # phi = P_+ log(1 - z), and g = model_project(B, phi) at the zeros
    grid = BoundaryGrid(m, offset=0.5)
    result = ExperimentResult(name=name, parameters={"grid_log2": m, "n_zeros": len(zeros)})
    margin = grid.size * (1.0 - float(zeros.moduli.max()))
    if margin < RESOLUTION_MARGIN:
        msg = (
            f"grid of size {grid.size} under-resolves the kernel nearest the boundary "
            f"(M (1 - max|z_j|) = {margin:.1f} < {RESOLUTION_MARGIN:g})"
        )
        warnings.warn(msg)
        result.warnings.append(msg)
    phi_raw = BoundaryFunction(grid, np.log(1.0 - grid.nodes))
    phi = riesz_project(phi_raw, "+")
    g = model_project(BlaschkeProduct(zeros).sample(grid), phi)
    return result, phi_raw, phi, cauchy_eval(g, zeros.points, tol=1e-2)


def exp_nonduality(zeros: ZeroSequence, m: int = 13) -> ExperimentResult:
    """Project the logarithm onto the model space and track its size.

    Series: value-preservation residuals at the zeros, the ratio of
    |g(z_j)| to the natural log-growth envelope, and the oscillation norm
    of the co-analytic part over nested truncations (its growth is the
    desk-scale shadow of the projection falling outside BMO).
    """
    start = time.perf_counter()
    result, phi_raw, phi, g_at = _log_projection("nonduality", zeros, m)
    result.parameters["log_sampling_defect"] = h2_defect(phi_raw)

    phi_at = cauchy_eval(phi, zeros.points)
    envelope = np.log(2.0 / (1.0 - zeros.moduli))
    for j in range(len(zeros)):
        result.add("value_preservation_residual", j, abs(g_at[j] - phi_at[j]))
        result.add("log_envelope_ratio", j, abs(g_at[j]) / envelope[j])

    for n in _truncation_ladder(len(zeros)):
        sub = zeros.truncate(n)
        theta_n = BlaschkeProduct(sub).sample(phi.grid)
        co_n = riesz_project(theta_n.conj() * phi, "-")
        result.add("coanalytic_bmo", n, bmo_norm(co_n))

    result.runtime = time.perf_counter() - start
    return result


def kernel_l1_quadrature(r: float) -> float:
    """Adaptive-quadrature value of the L1 norm of z -> 1/(1 - r z) on the circle.

    The norm has the closed form 2 K(k) / (pi (1 + r)), with K the complete
    elliptic integral of the first kind and modulus k = 2 sqrt(r) / (1 + r),
    and expands as (1/pi) log(8/(1 - r)) + O((1 - r) log(1/(1 - r))) as r -> 1.
    """
    if not 0.0 <= r < 1.0:
        raise ValueError("radius must lie in [0, 1)")
    val, _ = quad(
        lambda t: 1.0 / math.sqrt((1.0 - r) ** 2 + 4.0 * r * math.sin(t / 2.0) ** 2),
        0.0,
        math.pi,
        limit=400,
    )
    return val / math.pi


def exp_noninterpolation(zeros: ZeroSequence, m: int = 13) -> ExperimentResult:
    """Kernel-norm growth and the log-envelope trace that defeats interpolation.

    Series: the L1 norms of the reproducing kernels at the zeros by the
    grid route and by adaptive quadrature, their ratios to the log
    envelope, and the oscillation norm of the interpolant of the
    projected logarithm's trace over nested truncations.
    """
    start = time.perf_counter()
    result, _, phi, g_at = _log_projection("noninterpolation", zeros, m)
    grid = phi.grid

    envelope = np.log(2.0 / (1.0 - zeros.moduli))
    for j, zj in enumerate(zeros.points):
        kernel = BoundaryFunction(grid, 1.0 / (1.0 - np.conj(zj) * grid.nodes))
        grid_norm = lp_norm(kernel, 1.0)
        quad_norm = kernel_l1_quadrature(abs(zj))
        result.add("kernel_l1_grid", j, grid_norm)
        result.add("kernel_l1_quadrature", j, quad_norm)
        result.add("kernel_l1_ratio", j, quad_norm / envelope[j])

    values = ValueSequence(g_at)
    verdict = log_growth_check(zeros, values)
    result.verdicts.append(verdict)

    for n in _truncation_ladder(len(zeros)):
        interp = lagrange_interpolant(zeros.truncate(n), values.truncate(n))
        result.add("interpolant_bmo", n, bmo_norm(interp.sample(grid)))

    result.runtime = time.perf_counter() - start
    return result


def exp_dichotomy(
    zeros: ZeroSequence, values: ValueSequence, m: int = 12
) -> ExperimentResult:
    """Bounded-versus-growing conjugate sequences over nested truncations.

    For each truncation length the series record the largest conjugate
    value and the boundary sup norm of the interpolant.  Data traced from
    a fixed bounded function stays flat; data built to diverge grows.

    All rungs are sampled in one pass.  On the circle the Lagrange
    interpolant of the first n values is exactly
    B_n(zeta) sum_{j<n} w_j / (B_n'(z_j) (zeta - z_j)), with
    |zeta - z_j| >= 1 - |z_j| > 0 at every node, and |B_n(zeta)| = 1
    there, so its sup is that of the sum alone.  The rung coefficients
    w_j / B_n'(z_j) form one lower-triangular matrix; the Cauchy block
    1 / (zeta - z_j) is built over chunks of nodes of _TABLE_ENTRIES
    entries, each chunk costs one matrix product, and a running maximum
    per rung keeps the sups, so memory stays O(M) whatever the number of
    zeros.  The sups agree with those of
    lagrange_interpolant(...).sample(grid) to rounding.  That method keeps
    the stable running-sum form: interior points need it for the 0/0 at
    z_j, and on the circle the boundary form would move the oscillation
    norms exp_noninterpolation takes of its samples by about 1e-13
    relative.
    """
    if len(zeros) != len(values):
        raise ValueError("value/zero sequence lengths differ")
    start = time.perf_counter()
    grid = BoundaryGrid(m)
    result = ExperimentResult(
        name="dichotomy",
        parameters={"grid_log2": m, "n_zeros": len(zeros)},
    )
    count = len(zeros)
    rungs = np.zeros((count, count), dtype=complex)  # row n - 1: coefficients of rung n
    conjugate_max = []
    for n in range(1, count + 1):
        sub_z = zeros.truncate(n)
        sub_w = values.truncate(n)
        conjugate_max.append(float(np.abs(conjugate_sequence(sub_z, sub_w).values).max()))
        rungs[n - 1, :n] = sub_w.values / all_derivatives(BlaschkeProduct(sub_z))
    sups = np.zeros(count)
    step = max(1, _TABLE_ENTRIES // count)
    for lo in range(0, grid.size, step):
        block = grid.nodes[None, lo : lo + step] - zeros.points[:, None]
        np.divide(1.0, block, out=block)
        np.maximum(sups, np.abs(rungs @ block).max(axis=1), out=sups)
    for n in range(1, count + 1):
        result.add("max_conjugate_value", n, conjugate_max[n - 1])
        result.add("interpolant_sup", n, sups[n - 1])
    result.runtime = time.perf_counter() - start
    return result


def exp_sublevel(
    zeros: ZeroSequence,
    f: BoundaryFunction,
    eps: float = 0.5,
    n_radial: int = 48,
) -> ExperimentResult:
    """Compare the sup of |f| over a sublevel set with its boundary sup.

    Samples |f| on a polar lattice, geometrically refined toward the
    circle, restricted to the points where |B| < eps.  For f in the model
    space of B the interior sup tracks the boundary sup; the report also
    carries the oscillation norm of conj(B) f for the pairing study.
    """
    start = time.perf_counter()
    result = ExperimentResult(
        name="sublevel",
        parameters={
            "eps": eps,
            "n_radial": n_radial,
            "n_angular": SUBLEVEL_ANGLES,
            "depth": SUBLEVEL_DEPTH,
            "grid_log2": f.grid.m,
        },
    )
    product = BlaschkeProduct(zeros)
    gaps = np.geomspace(0.5, SUBLEVEL_DEPTH, n_radial)
    radii = 1.0 - gaps
    angles = 2.0 * math.pi * np.arange(SUBLEVEL_ANGLES) / SUBLEVEL_ANGLES
    lattice = (radii[:, None] * np.exp(1j * angles[None, :])).reshape(-1)
    mask = sublevel_indicator(product, eps, lattice)
    result.parameters["lattice_points_in_sublevel"] = int(np.count_nonzero(mask))
    if not np.any(mask):
        msg = f"polar lattice misses the sublevel set entirely (eps = {eps:g})"
        warnings.warn(msg)
        result.warnings.append(msg)
        sub_sup = 0.0
    else:
        inside = cauchy_eval(f, lattice[mask], tol=1e-2)
        sub_sup = float(np.abs(inside).max())
    boundary_sup = lp_norm(f, math.inf)

    theta = product.sample(f.grid)
    pairing = bmo_norm(theta.conj() * f)

    result.add("sublevel_sup", 0, sub_sup)
    result.add("boundary_sup", 0, boundary_sup)
    result.add("pairing_bmo", 0, pairing)
    result.runtime = time.perf_counter() - start
    return result
