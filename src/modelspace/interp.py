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
from .blaschke import BlaschkeProduct
from .boundary import DEFECT_TOL, BoundaryFunction, BoundaryGrid, _require_h2, tilde
from .core import DiagnosticsReport, ValueSequence, ZeroSequence


# entries per power table in one chunk of cauchy_eval points (2 MB of complex)
_TABLE_ENTRIES = 1 << 17

# conjugate and Gram solves refuse matrices with a larger condition number
MAX_CONDITION = 1e12


def cauchy_eval(f: BoundaryFunction, z, tol: float = DEFECT_TOL):
    """Evaluate an H2 boundary function in the closed disk.

    Spectral form of the Cauchy integral: sum of spectrum[n] z**n over the
    nonnegative modes n < M/2, in baby-step/giant-step blocks.  With
    K = 2**((m - 1) // 2) and n = a K + b, the inner sums over b < K are
    one matrix product of a table of z**b with
    spectrum[:M/2].reshape(-1, K).T, and the outer sum over a weights
    them by the powers (z**K)**a.  Powers are running products, so each
    term carries the same n-step rounding as Horner's rule.  Points are
    taken in chunks that keep each table within _TABLE_ENTRIES entries.

    Raises if f has more than tol relative energy in negative modes, or if
    a point lies outside the closed disk (|z| > 1 beyond a few ulps of
    rounding), where the truncated series is meaningless and its powers
    overflow.
    """
    _require_h2(f, "cauchy_eval input", tol)
    z = np.asarray(z, dtype=complex)
    flat = z.reshape(-1)
    if not np.all(np.abs(flat) <= 1.0 + 4 * np.finfo(float).eps):
        raise ValueError("cauchy_eval points must lie in the closed unit disk")
    K = 1 << ((f.grid.m - 1) // 2)
    blocks = f.spectrum[: f.grid.size // 2].reshape(-1, K).T  # [b, a] = c[a K + b]
    G = blocks.shape[1]  # G >= K
    out = np.empty(flat.size, dtype=complex)
    step = max(1, _TABLE_ENTRIES // G)
    for lo in range(0, flat.size, step):
        zc = flat[lo : lo + step, None]
        baby = np.ones((zc.size, K), dtype=complex)
        baby[:, 1:] = zc
        np.cumprod(baby, axis=1, out=baby)  # z**b
        giant = np.ones((zc.size, G), dtype=complex)
        giant[:, 1:] = baby[:, -1:] * zc
        np.cumprod(giant, axis=1, out=giant)  # (z**K)**a
        out[lo : lo + step] = np.sum((baby @ blocks) * giant, axis=1)
    return out.reshape(z.shape) if z.shape else complex(out[0])


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
    if len(zeros) != len(values):
        raise ValueError("value/zero sequence lengths differ")
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
    if len(zeros) != len(conjugate_values):
        raise ValueError("value/zero sequence lengths differ")
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

    Evaluation streams over the zeros with a few buffers the size of the
    point array, so sampling an n-zero interpolant on M nodes takes O(M)
    memory, not O(n M).  The Lagrange form keeps a running sum and a
    running product of the factors, never divides by a factor, and so
    stays exact at the zeros themselves.
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
        if self.form == "kernel_basis":
            return _kernel_eval(self.zeros.points, self.coefficients, z)
        return _lagrange_eval(self.zeros, self.coefficients, z)

    def sample(self, grid: BoundaryGrid) -> BoundaryFunction:
        return BoundaryFunction(grid, np.asarray(self(grid.nodes), dtype=complex))

    def to_dict(self) -> dict:
        return {
            "form": self.form,
            "coefficients": [[c.real, c.imag] for c in self.coefficients],
            "zeros": self.zeros.to_dict()["zeros"],
            "condition": self.condition,
        }


def _kernel_eval(points: np.ndarray, coeffs: np.ndarray, z):
    # one kernel per zero added into the output: two length-M buffers
    z = np.asarray(z, dtype=complex)
    flat = z.reshape(-1)
    out = np.zeros(flat.size, dtype=complex)
    term = np.empty_like(out)
    for zj, cj in zip(points, coeffs):
        np.multiply(np.conj(zj), flat, out=term)
        np.subtract(1.0, term, out=term)
        np.divide(cj, term, out=term)
        out += term
    return out.reshape(z.shape) if z.shape else complex(out[0])


def _lagrange_eval(zeros: ZeroSequence, values: np.ndarray, z):
    # Stable running-sum form.  The j-th Lagrange term is
    #   c_j core_j(z) prod_{k != j} b_k(z),  c_j = w_j / B'(z_j),
    # and core_j(z) = b_j(z) / (z - z_j) = -u_j / (1 - conj(z_j) z) exactly,
    # which removes the 0/0 at z = z_j without any limit branch.  After
    # zero j, total holds the series over the first j + 1 zeros and prefix
    # their product:
    #   total <- total b_j + c_j core_j prefix,   prefix <- prefix b_j,
    # so no term divides by b_j, and five length-M buffers suffice.
    z = np.asarray(z, dtype=complex)
    flat = z.reshape(-1)
    coeffs = values / blaschke.all_derivatives(BlaschkeProduct(zeros))
    total = np.zeros(flat.size, dtype=complex)
    prefix = np.ones(flat.size, dtype=complex)
    fac, den, term = (np.empty_like(total) for _ in range(3))
    for zj, cj in zip(zeros.points, coeffs):
        blaschke._factor_into(zj, flat, fac, den)
        np.divide(-blaschke._unit(zj) * cj, den, out=term)
        term *= prefix
        total *= fac
        total += term
        prefix *= fac
    return total.reshape(z.shape) if z.shape else complex(total[0])


def lagrange_interpolant(
    zeros: ZeroSequence, values: ValueSequence
) -> InterpolantRepresentation:
    """Interpolant through the Lagrange-type series over the product."""
    return InterpolantRepresentation(zeros, values.values.copy(), "lagrange")


def kernel_interpolant(zeros: ZeroSequence, values: ValueSequence) -> InterpolantRepresentation:
    """Interpolant as a combination of reproducing kernels at the zeros."""
    if len(zeros) != len(values):
        raise ValueError("value/zero sequence lengths differ")
    pts = zeros.points
    gram = 1.0 / (1.0 - np.conj(pts)[None, :] * pts[:, None])
    coeffs, cond = _refined_solve(gram, values.values, "kernel Gram")
    if cond > 1e8:
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
    computation agree.
    """
    grid = BoundaryGrid(m)
    f = lagrange_interpolant(zeros, values).sample(grid)
    theta = BlaschkeProduct(zeros).sample(grid)
    g = tilde(theta, f)
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
