"""Trace interpolation in the star-invariant space of a Blaschke product.

Two independent constructions of the unique interpolant are provided: a
Lagrange-type series over the product's factors and a reproducing-kernel
basis solve.  They solve the same uniquely solvable problem and are
cross-validated against each other in the tests.  The conjugate-sequence
transform and its inverse connect trace values to the residue identity
checked by residue_identity_check.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import blaschke
from .blaschke import BlaschkeProduct, _at_points, _lagrange_ladder
from .boundary import DEFECT_TOL, BoundaryFunction, BoundaryGrid, _require_h2, tilde
from .core import (DiagnosticsReport, ValueSequence, ZeroSequence, _chunks, _require_paired,
                   _to_pairs)

# conjugate and Gram solves refuse matrices with a larger condition number
MAX_CONDITION = 1e12
# kernel_interpolant warns above this Gram condition number
WARN_CONDITION = 1e8


def _powers(x: np.ndarray, count: int) -> np.ndarray:
    # x**0, ..., x**(count - 1) for each entry of the column x, as running
    # products: x**n carries the n-step rounding of Horner's rule
    out = np.ones((x.shape[0], count), dtype=x.dtype)
    out[:, 1:] = x
    return np.cumprod(out, axis=1, out=out)


def cauchy_eval(f: BoundaryFunction, z, tol: float = DEFECT_TOL):
    """Evaluate an H2 boundary function in the closed disk.

    Spectral form of the Cauchy integral: sum of spectrum[n] z**n over the
    nonnegative modes n < M/2, in baby-step/giant-step blocks.  With
    K = 2**((m - 1) // 2) and n = a K + b, the inner sums over b < K are
    one matrix product of a table of z**b with
    spectrum[:M/2].reshape(-1, K).T, and the outer sum over a weights
    them by the powers (z**K)**a.  Powers are running products, so each
    term carries the same n-step rounding as Horner's rule.  Points are
    taken in core._chunks, which keep each table within CHUNK_ENTRIES entries.

    Raises if f has more than tol relative energy in negative modes, or if
    a point lies outside the closed disk (|z| > 1 beyond a few ulps of
    rounding, or NaN, as for every evaluator), where the truncated series is
    meaningless and its powers overflow.
    """
    spec = _require_h2(f, "cauchy_eval input", tol)  # modes 0 .. M/2 - 1
    K = 1 << ((f.grid.m - 1) // 2)
    blocks = spec.reshape(-1, K).T  # [b, a] = c[a K + b]
    G = blocks.shape[1]  # G >= K

    def series(flat):
        out = np.empty(flat.size, dtype=complex)
        for rows in _chunks(flat.size, G):
            zc = flat[rows, None]
            baby = _powers(zc, K)  # z**b
            giant = _powers(baby[:, -1:] * zc, G)  # (z**K)**a
            out[rows] = np.sum((baby @ blocks) * giant, axis=1)
        return out

    return _at_points(series, z)


def _polar_lattice_eval(f: BoundaryFunction, radii: np.ndarray, angles: int, tol: float):
    # cauchy_eval at radii[i] exp(2 pi i k / angles) for every k < angles, as
    # rows [i, k].  With n = b angles + a, row i is the unscaled inverse FFT
    # over a of r**a sum_b c[b angles + a] (r**angles)**b: one product with the
    # spectrum zero-padded to whole folds of `angles` modes, one FFT per circle
    spec = _require_h2(f, "cauchy_eval input", tol)
    folded = np.zeros(-(-spec.size // angles) * angles, dtype=complex)
    folded[: spec.size] = spec
    folded = folded.reshape(-1, angles)
    r = radii[:, None]
    baby = _powers(r, angles)  # r**a
    giant = _powers(baby[:, -1:] * r, folded.shape[0])  # (r**angles)**b
    return np.fft.ifft((giant @ folded) * baby, axis=1, norm="forward")


def trace(f, zeros: ZeroSequence) -> ValueSequence:
    """Values of f along the sequence; f is callable or a BoundaryFunction."""
    if isinstance(f, BoundaryFunction):
        vals = cauchy_eval(f, zeros.points)
    else:
        vals = np.asarray(f(zeros.points), dtype=complex)
    return ValueSequence(vals)


def conjugate_matrix(zeros: ZeroSequence) -> np.ndarray:
    """Matrix A[k, j] = 1 / (B'(z_j) (1 - z_j conj(z_k)))."""
    bp = blaschke.all_derivatives(BlaschkeProduct(zeros))
    pts = zeros.points
    return 1.0 / (bp[None, :] * (1.0 - pts[None, :] * np.conj(pts)[:, None]))


def conjugate_sequence(zeros: ZeroSequence, values: ValueSequence) -> ValueSequence:
    """Transform of the values by the conjugate-sequence kernel matrix."""
    _require_paired(zeros, values)
    return ValueSequence(conjugate_matrix(zeros) @ values.values)


def _refined_solve(matrix: np.ndarray, rhs: np.ndarray, what: str):
    # (solution, condition number); refuses a matrix whose condition number
    # exceeds MAX_CONDITION.  One step of iterative refinement recovers the
    # digits a mildly ill-conditioned solve loses; matrices here are small
    cond = float(np.linalg.cond(matrix))
    if cond > MAX_CONDITION:
        raise ValueError(f"{what} condition {cond:.3e} exceeds {MAX_CONDITION:g}")
    x = np.linalg.solve(matrix, rhs)
    return x + np.linalg.solve(matrix, rhs - matrix @ x), cond


def invert_conjugate(zeros: ZeroSequence, conjugate_values: ValueSequence) -> ValueSequence:
    """Solve for values whose conjugate sequence matches the target."""
    _require_paired(zeros, conjugate_values)
    solution, _ = _refined_solve(
        conjugate_matrix(zeros), conjugate_values.values, "conjugate matrix"
    )
    return ValueSequence(solution)


@dataclass(frozen=True, eq=False)
class InterpolantRepresentation:
    """An element of the product's star-invariant space, in one of two forms.

    form = "lagrange":     f(z) = sum_j c_j B(z) / (B'(z_j) (z - z_j))
                           with c_j the interpolated values themselves.
    form = "kernel_basis": f(z) = sum_j c_j / (1 - conj(z_j) z).

    Evaluation takes closed-disk points in blocks of blaschke.POINT_BLOCK and
    streams over the zeros inside each block, so sampling an n-zero
    interpolant on M nodes allocates the length-M output and a few
    block-length buffers that stay in cache, not O(n M).  The kernel form
    adds one kernel per zero into the block.  The Lagrange form keeps
    running numerator and denominator products of the factors
    (blaschke._lagrange_ladder), divides once per group of blaschke.GROUP
    = 16 zeros, whose comment bounds the products, and never divides by a
    factor, so it stays exact at the zeros themselves.  Against dividing by
    every factor its samples move by about 3e-15 of max|f| (tests: 1e-14),
    more only where the series cancels and either route's own rounding
    error is that large.
    """

    zeros: ZeroSequence
    coefficients: np.ndarray
    form: str
    condition: float = 1.0

    def __post_init__(self):
        if self.form not in ("lagrange", "kernel_basis"):
            raise ValueError(f"unknown form {self.form!r}")
        c = np.asarray(self.coefficients, dtype=complex).reshape(-1)
        if c.size != len(self.zeros):
            raise ValueError("coefficient count does not match the zeros")
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)

    def __call__(self, z):
        points, c = self.zeros.points, self.coefficients
        if self.form == "kernel_basis":
            return _at_points(lambda flat: _kernel_eval(points, c, flat), z)
        rows = [c / blaschke.all_derivatives(BlaschkeProduct(self.zeros))]
        return _at_points(lambda flat: _lagrange_ladder(points, rows, flat)[0], z)

    def sample(self, grid: BoundaryGrid) -> BoundaryFunction:
        return BoundaryFunction(grid, np.asarray(self(grid.nodes), dtype=complex))

    def to_dict(self) -> dict:
        return {
            "form": self.form,
            "coefficients": _to_pairs(self.coefficients),
            "zeros": _to_pairs(self.zeros.points),
            "condition": self.condition,
        }


def _kernel_eval(points: np.ndarray, coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    # sum of c_j / (1 - conj(z_j) z) at the flat points z, one kernel per zero
    # added into each block of the output; the term buffer has block length
    out = np.zeros(z.size, dtype=complex)
    for block, (term,) in blaschke._point_blocks(z.size, 1):
        ob = out[block]
        for zj, cj in zip(points, coeffs):
            np.multiply(np.conj(zj), z[block], out=term)
            np.subtract(1.0, term, out=term)
            ob += np.divide(cj, term, out=term)
    return out


def lagrange_interpolant(
    zeros: ZeroSequence, values: ValueSequence
) -> InterpolantRepresentation:
    """Interpolant through the Lagrange-type series over the product."""
    _require_paired(zeros, values)
    return InterpolantRepresentation(zeros, values.values.copy(), "lagrange")


def kernel_interpolant(zeros: ZeroSequence, values: ValueSequence) -> InterpolantRepresentation:
    """Interpolant as a combination of reproducing kernels at the zeros."""
    _require_paired(zeros, values)
    pts = zeros.points
    gram = 1.0 / (1.0 - np.conj(pts)[None, :] * pts[:, None])
    coeffs, cond = _refined_solve(gram, values.values, "kernel Gram")
    if cond > WARN_CONDITION:
        warnings.warn(f"kernel Gram matrix is poorly conditioned ({cond:.3e})")
    return InterpolantRepresentation(zeros, coeffs, "kernel_basis", condition=cond)


def residue_identity_check(
    zeros: ZeroSequence, values: ValueSequence, m: int = 12
) -> DiagnosticsReport:
    """Cross-check the conjugate sequence against the Cauchy route.

    Builds the interpolant f of the data, forms g = tilde(B, f) on a grid
    of size 2**m, evaluates g back inside the disk, and compares
    conj(g(z_k)) with the transform of the values.  Small discrepancies
    certify that the kernel-matrix transform and the boundary-integral
    computation agree.  f and B are sampled in one factor pass per zero,
    each bit for bit as its own sampler gives it.
    """
    _require_paired(zeros, values)
    grid = BoundaryGrid(m)
    rows = [values.values / blaschke.all_derivatives(BlaschkeProduct(zeros))]
    f, theta = _lagrange_ladder(zeros.points, rows, grid.nodes, [len(zeros)])
    g = tilde(BoundaryFunction(grid, theta), BoundaryFunction(grid, f))
    lhs = np.conj(cauchy_eval(g, zeros.points))
    rhs = conjugate_sequence(zeros, values).values
    gap = np.abs(lhs - rhs)
    return DiagnosticsReport(
        name="residue_identity",
        scalars={"max_discrepancy": float(gap.max()), "grid_log2": m},
        series={
            "discrepancy": gap.tolist(),
            "conjugate_values": rhs.tolist(),
        },
    )
