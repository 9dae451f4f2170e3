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
from .blaschke import BlaschkeProduct, eval_product
from .boundary import DEFECT_TOL, BoundaryFunction, BoundaryGrid, h2_defect, tilde
from .core import DiagnosticsReport, ValueSequence, ZeroSequence


# entries per power table in one chunk of cauchy_eval points (2 MB of complex)
_TABLE_ENTRIES = 1 << 17


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
    d = h2_defect(f)
    if d > tol:
        raise ValueError(f"cauchy_eval input is not in H2 (defect {d:.3e})")
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
    product = BlaschkeProduct(zeros)
    bp = blaschke.all_derivatives(product)
    pts = zeros.points
    return 1.0 / (bp[None, :] * (1.0 - pts[None, :] * np.conj(pts)[:, None]))


def conjugate_sequence(zeros: ZeroSequence, values: ValueSequence) -> ValueSequence:
    """Transform of the values by the conjugate-sequence kernel matrix."""
    if len(zeros) != len(values):
        raise ValueError("value/zero sequence lengths differ")
    return ValueSequence(conjugate_matrix(zeros) @ values.values)


def _refined_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    # one step of iterative refinement recovers the digits a mildly
    # ill-conditioned solve loses; matrices here are small
    x = np.linalg.solve(matrix, rhs)
    return x + np.linalg.solve(matrix, rhs - matrix @ x)


def invert_conjugate(
    zeros: ZeroSequence,
    conjugate_values: ValueSequence,
    max_condition: float = 1e12,
) -> ValueSequence:
    """Solve for values whose conjugate sequence matches the target."""
    if len(zeros) != len(conjugate_values):
        raise ValueError("value/zero sequence lengths differ")
    A = conjugate_matrix(zeros)
    cond = float(np.linalg.cond(A))
    if cond > max_condition:
        raise ValueError(f"conjugate matrix condition {cond:.3e} exceeds {max_condition:g}")
    return ValueSequence(_refined_solve(A, conjugate_values.values))


@dataclass(frozen=True, eq=False)
class InterpolantRepresentation:
    """An element of the product's star-invariant space, in one of two forms.

    form = "lagrange":     f(z) = sum_j c_j B(z) / (B'(z_j) (z - z_j))
                           with c_j the interpolated values themselves.
    form = "kernel_basis": f(z) = sum_j c_j / (1 - conj(z_j) z).
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
    z = np.asarray(z, dtype=complex)
    flat = z.reshape(-1)
    out = (1.0 / (1.0 - np.conj(points)[None, :] * flat[:, None])) @ coeffs
    return out.reshape(z.shape) if z.shape else complex(out[0])


def _lagrange_eval(zeros: ZeroSequence, values: np.ndarray, z):
    # Stable term-by-term form.  The j-th Lagrange term is
    #   w_j / B'(z_j) * b_j(z) / (z - z_j) * prod_{k != j} b_k(z),
    # and b_j(z)/(z - z_j) = -u_j / (1 - conj(z_j) z) exactly, which
    # removes the 0/0 at z = z_j without any limit branch.
    z = np.asarray(z, dtype=complex)
    flat = z.reshape(-1)
    pts = zeros.points
    n = len(zeros)
    factors = np.empty((n, flat.size), dtype=complex)
    for j, zj in enumerate(pts):
        factors[j] = blaschke.blaschke_factor(zj, flat)
    prefix = np.ones((n + 1, flat.size), dtype=complex)
    for j in range(n):
        prefix[j + 1] = prefix[j] * factors[j]
    suffix = np.ones((n + 1, flat.size), dtype=complex)
    for j in range(n - 1, -1, -1):
        suffix[j] = suffix[j + 1] * factors[j]
    bp = blaschke.all_derivatives(BlaschkeProduct(zeros))
    out = np.zeros(flat.size, dtype=complex)
    for j, zj in enumerate(pts):
        unit = blaschke._unit(zj)
        core = -unit / (1.0 - np.conj(zj) * flat)
        out += (values[j] / bp[j]) * core * prefix[j] * suffix[j + 1]
    return out.reshape(z.shape) if z.shape else complex(out[0])


def lagrange_interpolant(
    zeros: ZeroSequence, values: ValueSequence
) -> InterpolantRepresentation:
    """Interpolant through the Lagrange-type series over the product."""
    if len(zeros) != len(values):
        raise ValueError("value/zero sequence lengths differ")
    return InterpolantRepresentation(zeros, values.values.copy(), "lagrange")


def kernel_interpolant(
    zeros: ZeroSequence,
    values: ValueSequence,
    max_condition: float = 1e12,
) -> InterpolantRepresentation:
    """Interpolant as a combination of reproducing kernels at the zeros."""
    if len(zeros) != len(values):
        raise ValueError("value/zero sequence lengths differ")
    pts = zeros.points
    gram = 1.0 / (1.0 - np.conj(pts)[None, :] * pts[:, None])
    cond = float(np.linalg.cond(gram))
    if cond > max_condition:
        raise ValueError(f"kernel Gram condition {cond:.3e} exceeds {max_condition:g}")
    if cond > 1e8:
        warnings.warn(f"kernel Gram matrix is poorly conditioned ({cond:.3e})")
    coeffs = _refined_solve(gram, values.values)
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
    product = BlaschkeProduct(zeros)
    f = lagrange_interpolant(zeros, values).sample(grid)
    theta = BoundaryFunction.from_callable(grid, lambda nodes: eval_product(product, nodes))
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
