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
from functools import lru_cache

import numpy as np

from .blaschke import BlaschkeProduct, _lagrange_ladder, _rung_derivatives, sublevel_indicator
from .boundary import BoundaryFunction, BoundaryGrid, bmo_norm, h2_defect, lp_norm, riesz_project
from .classify import DecayVerdict, log_growth_check
from .core import ValueSequence, ZeroSequence, _chunks, _require_paired
from .interp import _polar_lattice_eval, cauchy_eval

# a product factor is treated as resolved when M (1 - |z_j|) is at least this
RESOLUTION_MARGIN = 32.0

# exp_sublevel's polar lattice: angles per circle, and the gap 1 - r of the
# circle nearest the boundary
SUBLEVEL_ANGLES = 256
SUBLEVEL_DEPTH = 1e-4

# negative-mode energy admitted where a projection is evaluated in the disk: it
# holds the grid aliasing of sampled products and kernels (ROADMAP aim 4)
ALIASED_H2_TOL = 1e-2


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
    The result is the analytic part of the raw samples (exp_nonduality
    reports the dropped negative-mode residue as log_sampling_defect).  It
    is built once per grid exponent and shared, read-only, with its spectrum
    cached, so model_project and cauchy_eval of it make no transform of it.
    """
    if grid.offset == 0.0:
        raise ValueError("log(1 - z) needs the half-offset grid (node at angle 0)")
    return _log_parts(grid.m)[1]


@lru_cache(maxsize=4)
def _log_parts(m: int):
    # the H2 defect of the raw samples of log(1 - z) on the half-offset grid
    # of exponent m, and phi = P_+ log(1 - z)
    grid = BoundaryGrid(m, offset=0.5)
    raw = BoundaryFunction(grid, np.log(1.0 - grid.nodes))
    phi = riesz_project(raw, "+")
    phi.spectrum  # cached on the shared phi, whose readers then make no transform
    return h2_defect(raw), phi


def _truncation_ladder(n: int) -> list[int]:
    if n <= 4:
        return list(range(1, n + 1))
    return list(range(4, n + 1, 2)) if n % 2 == 0 else list(range(3, n + 1, 2))


def _log_projection(name: str, zeros: ZeroSequence, m: int):
    # set-up shared by the two pipelines of the logarithm: the result on the
    # half-offset grid (resolution checked), the H2 defect of the raw samples
    # of log(1 - z), phi = P_+ log(1 - z), and the envelope log(2 / (1 - |z_j|))
    defect, phi = _log_parts(m)
    result = ExperimentResult(name=name, parameters={"grid_log2": m, "n_zeros": len(zeros)})
    margin = phi.grid.size * (1.0 - float(zeros.moduli.max()))
    if margin < RESOLUTION_MARGIN:
        msg = (
            f"grid of size {phi.grid.size} under-resolves the kernel nearest the boundary "
            f"(M (1 - max|z_j|) = {margin:.1f} < {RESOLUTION_MARGIN:g})"
        )
        warnings.warn(msg)
        result.warnings.append(msg)
    return result, defect, phi, np.log(2.0 / (1.0 - zeros.moduli))


def exp_nonduality(zeros: ZeroSequence, m: int = 13) -> ExperimentResult:
    """Project the logarithm onto the model space and track its size.

    Series: value-preservation residuals at the zeros, the ratio of
    |g(z_j)| to the natural log-growth envelope, and the oscillation norm
    of the co-analytic part over nested truncations (its growth is the
    desk-scale shadow of the projection falling outside BMO).  Every B_n
    comes from one pass over the zeros, not one per rung, which holds the
    rung arrays at once; the last rung is B, whose co-analytic part gives
    g = model_project(B, phi) = B P_-(conj(B) phi) without a second projection.
    """
    start = time.perf_counter()
    result, defect, phi, envelope = _log_projection("nonduality", zeros, m)
    result.parameters["log_sampling_defect"] = defect
    ladder = _truncation_ladder(len(zeros))
    coanalytic = []
    for n, samples in zip(ladder, _lagrange_ladder(zeros.points, [], phi.grid.nodes, ladder)):
        theta = BoundaryFunction(phi.grid, samples)
        co_n = riesz_project(theta.conj() * phi, "-")
        coanalytic.append(("coanalytic_bmo", n, bmo_norm(co_n)))
    g_at = cauchy_eval(theta * co_n, zeros.points, tol=ALIASED_H2_TOL)

    residuals = np.abs(g_at - cauchy_eval(phi, zeros.points))
    for j in range(len(zeros)):
        result.add("value_preservation_residual", j, residuals[j])
        result.add("log_envelope_ratio", j, abs(g_at[j]) / envelope[j])
    for entry in coanalytic:
        result.add(*entry)

    result.runtime = time.perf_counter() - start
    return result


def kernel_l1_quadrature(r: float) -> float:
    """L1 norm of z -> 1/(1 - r z) on the circle, from its closed form.

    The norm is 2 K(k) / (pi (1 + r)), K the complete elliptic integral of
    the first kind with modulus k = 2 sqrt(r) / (1 + r); by Gauss's
    K(k) = pi / (2 AGM(1, k')), k' = (1 - r) / (1 + r), and the homogeneity
    of the AGM, that is 1 / AGM(1 + r, 1 - r): about ten mean steps even at
    r = 1 - 1e-12.  It expands as (1/pi) log(8/(1 - r)) + O((1 - r) log(1/(1 - r)))
    as r -> 1.  The tests keep adaptive quadrature of its integral as an oracle.
    """
    if not 0.0 <= r < 1.0:
        raise ValueError("radius must lie in [0, 1)")
    a, b = 1.0 + r, 1.0 - r
    while a - b > 4.0 * math.ulp(a):
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 2.0 / (a + b)


def exp_noninterpolation(zeros: ZeroSequence, m: int = 13) -> ExperimentResult:
    """Kernel-norm growth and the log-envelope trace that defeats interpolation.

    Series: the L1 norms of the reproducing kernels at the zeros by the
    grid route and by the closed form, their ratios to the log
    envelope, and the oscillation norm of the interpolant of the trace
    phi(z_j), phi = P_+ log(1 - z), over nested truncations: P_{K_B} keeps
    the values at the zeros (exp_nonduality's value_preservation_residual
    measures it), so no projection is made.  The B_n'(z_j) all come from one
    _rung_derivatives matrix, and the R rungs are sampled in one pass over
    the zeros (R rung arrays at once: 6 of 4 MB at q = 0.5, n = 13, m = 18).
    """
    start = time.perf_counter()
    result, _, phi, envelope = _log_projection("noninterpolation", zeros, m)
    grid = phi.grid
    g_at = cauchy_eval(phi, zeros.points)

    for j, zj in enumerate(zeros.points):
        kernel = BoundaryFunction(grid, 1.0 / (1.0 - np.conj(zj) * grid.nodes))
        grid_norm = lp_norm(kernel, 1.0)
        quad_norm = kernel_l1_quadrature(abs(zj))
        result.add("kernel_l1_grid", j, grid_norm)
        result.add("kernel_l1_quadrature", j, quad_norm)
        result.add("kernel_l1_ratio", j, quad_norm / envelope[j])

    result.verdicts.append(log_growth_check(zeros, ValueSequence(g_at)))

    derivatives = _rung_derivatives(zeros)
    ladder = _truncation_ladder(len(zeros))
    rows = [g_at[:n] / derivatives[:n, n - 1] for n in ladder]
    for n, samples in zip(ladder, _lagrange_ladder(zeros.points, rows, grid.nodes)):
        result.add("interpolant_bmo", n, bmo_norm(BoundaryFunction(grid, samples)))

    result.runtime = time.perf_counter() - start
    return result


def exp_dichotomy(
    zeros: ZeroSequence, values: ValueSequence, m: int = 12
) -> ExperimentResult:
    """Bounded-versus-growing conjugate sequences over nested truncations.

    For each truncation length the series record the largest conjugate
    value and the boundary sup norm of the interpolant.  Data traced from
    a fixed bounded function stays flat; data built to diverge grows.

    On the circle the Lagrange interpolant of the first n values is
    exactly B_n(zeta) sum_{j<n} w_j / (B_n'(z_j) (zeta - z_j)), with
    |zeta - z_j| >= 1 - |z_j| > 0 at every node, and |B_n(zeta)| = 1
    there, so its sup is that of the sum alone.  The rung coefficients
    w_j / B_n'(z_j), one masked division by the _rung_derivatives matrix,
    form one lower-triangular matrix; its product with the kernel matrix
    1 / (1 - z_j conj(z_k)) holds every rung's conjugate values, and its
    product with the Cauchy block 1 / (zeta - z_j), built over core._chunks
    of nodes, feeds a running maximum per rung, so memory
    stays O(M) whatever the number of zeros.  The sups agree with those of
    lagrange_interpolant(...).sample(grid) to rounding.  That method keeps
    the stable running-sum form: interior points need it for the 0/0 at
    z_j, and on the circle the boundary form would move the oscillation
    norms exp_noninterpolation takes of its samples by about 1e-13
    relative.
    """
    _require_paired(zeros, values)
    start = time.perf_counter()
    grid = BoundaryGrid(m)
    result = ExperimentResult(
        name="dichotomy",
        parameters={"grid_log2": m, "n_zeros": len(zeros)},
    )
    count = len(zeros)
    pts = zeros.points
    lower = np.tri(count, dtype=bool)  # row n - 1 holds rung n: entries j < n
    rungs = np.divide(values.values, _rung_derivatives(zeros).T, where=lower,
                      out=np.zeros((count, count), dtype=complex))
    conjugate = rungs @ (1.0 / (1.0 - pts[:, None] * np.conj(pts)[None, :]))
    conjugate_max = np.abs(conjugate).max(axis=1, initial=0.0, where=lower)
    sups = np.zeros(count)
    for nodes in _chunks(grid.size, count):
        block = grid.nodes[None, nodes] - pts[:, None]
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
    Each lattice circle is one inverse FFT of the spectrum weighted by r**n
    and folded modulo SUBLEVEL_ANGLES, evaluated whole before the masking.
    """
    if n_radial < 1:
        raise ValueError("n_radial must be at least 1")
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
        circles = _polar_lattice_eval(f, radii, SUBLEVEL_ANGLES, tol=ALIASED_H2_TOL)
        sub_sup = float(np.abs(circles.reshape(-1)[mask]).max())
    boundary_sup = lp_norm(f, math.inf)

    theta = product.sample(f.grid)
    pairing = bmo_norm(theta.conj() * f)

    result.add("sublevel_sup", 0, sub_sup)
    result.add("boundary_sup", 0, boundary_sup)
    result.add("pairing_bmo", 0, pairing)
    result.runtime = time.perf_counter() - start
    return result
