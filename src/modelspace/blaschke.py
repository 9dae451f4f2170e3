"""Finite Blaschke products and their diagnostics.

A product is determined by its zero sequence; each factor is normalized
so the product is positive at the origin when no zero sits there, with
the usual convention that a factor with zero at the origin is plain z.
All evaluations accept scalars or numpy arrays of points with |z| <= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryFunction, BoundaryGrid
from .core import DiagnosticsReport, ZeroSequence


def _unit(zj: complex) -> complex:
    # normalizing constant |z_j| / z_j, taken as -1 for z_j = 0
    return -1.0 + 0.0j if zj == 0 else abs(zj) / zj


def _factor_into(zj: complex, z: np.ndarray, out: np.ndarray, den: np.ndarray) -> np.ndarray:
    # b_j(z) into out and 1 - conj(z_j) z into den, both preallocated like z
    np.multiply(np.conj(zj), z, out=den)
    np.subtract(1.0, den, out=den)
    if np.any(den == 0):
        raise ZeroDivisionError("evaluation point is the reflected pole of the factor")
    np.subtract(zj, z, out=out)
    np.multiply(_unit(zj), out, out=out)
    np.divide(out, den, out=out)
    return out


def blaschke_factor(zj: complex, z) -> np.ndarray | complex:
    """Single factor (|z_j|/z_j) (z_j - z) / (1 - conj(z_j) z)."""
    z = np.asarray(z, dtype=complex)
    out = _factor_into(zj, z, np.empty_like(z), np.empty_like(z))
    return out if out.shape else complex(out)


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product, plus the Blaschke sum of any dropped tail.

    tail_bound is 0 for an exact finite product; a positive value records
    the mass sum(1 - |z_j|) of zeros omitted by truncation and feeds the
    multiplicative error bound of truncation_bound().
    """

    zeros: ZeroSequence
    tail_bound: float = 0.0

    def __post_init__(self):
        if self.tail_bound < 0:
            raise ValueError("tail_bound must be nonnegative")

    def __len__(self) -> int:
        return len(self.zeros)

    def __call__(self, z):
        return eval_product(self, z)

    def sample(self, grid: BoundaryGrid) -> BoundaryFunction:
        """The product on the grid's nodes."""
        return BoundaryFunction(grid, eval_product(self, grid.nodes))

    def truncation_bound(self, z) -> float:
        """Relative error bound for the dropped tail at an interior point."""
        r = float(np.max(np.abs(z)))
        if r >= 1.0:
            return math.inf if self.tail_bound > 0 else 0.0
        return float(math.expm1(2.0 * self.tail_bound / (1.0 - r)))


def eval_product(product: BlaschkeProduct, z):
    """Value of the product at z (scalar or array), |z| <= 1.

    Multiplies the factors in place into one running product, so an array
    of M points costs three length-M buffers whatever the number of zeros.
    """
    z = np.asarray(z, dtype=complex)
    out = np.ones(z.shape, dtype=complex)
    fac, den = np.empty_like(out), np.empty_like(out)
    for zj in product.zeros:
        out *= _factor_into(zj, z, fac, den)
    return out if out.shape else complex(out)


def _factor_matrix(points: np.ndarray) -> np.ndarray:
    # F[j, k] = b_k(z_j); diagonal entries are 0 and get replaced by callers
    num = points[None, :] - points[:, None]
    den = 1.0 - np.conj(points)[None, :] * points[:, None]
    units = np.array([_unit(zj) for zj in points])
    return units[None, :] * num / den


def all_derivatives(product: BlaschkeProduct) -> np.ndarray:
    """B'(z_j) for every zero, via the closed form of the product rule."""
    pts = product.zeros.points
    fac = _factor_matrix(pts)
    own = np.array([-_unit(zj) / (1.0 - abs(zj) ** 2) for zj in pts])
    np.fill_diagonal(fac, own)
    return np.prod(fac, axis=1)


def interpolation_delta(product: BlaschkeProduct) -> float:
    """inf over zeros of |B'(z_j)| (1 - |z_j|), the separation constant."""
    moduli = product.zeros.moduli
    return float(np.min(np.abs(all_derivatives(product)) * (1.0 - moduli)))


def frostman_sum(zeros: ZeroSequence, zeta: complex) -> float:
    """sum over j of (1 - |z_j|) / |zeta - z_j| at a boundary point zeta."""
    zeta = complex(zeta)
    if abs(abs(zeta) - 1.0) > 1e-9:
        raise ValueError("zeta must lie on the unit circle")
    dist = np.abs(zeta - zeros.points)
    if dist.min() < 1e-15:
        raise ValueError("zeta coincides with a zero's radial limit")
    return float(np.sum((1.0 - zeros.moduli) / dist))


def _golden_max(fun, lo: float, hi: float, iters: int = 80) -> float:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return max(fc, fd)


def frostman_sup(zeros: ZeroSequence, grid_size: int = 4096) -> float:
    """Approximate sup over the circle of frostman_sum.

    Scans a uniform grid of the stated size, then refines around the top
    grid maximizers with golden-section search on the neighbouring arcs.
    """
    if grid_size < 16:
        raise ValueError("grid_size must be at least 16")
    theta = 2.0 * np.pi * np.arange(grid_size) / grid_size
    nodes = np.exp(1j * theta)
    vals = np.sum(
        (1.0 - zeros.moduli)[None, :] / np.abs(nodes[:, None] - zeros.points[None, :]),
        axis=1,
    )
    spacing = 2.0 * np.pi / grid_size

    def fun(t: float) -> float:
        return frostman_sum(zeros, complex(np.exp(1j * t)))

    # refine the best few local maxima, not just the best node
    order = np.argsort(vals)[::-1][:4]
    best = float(vals.max())
    for i in order:
        t0 = theta[i]
        best = max(best, _golden_max(fun, t0 - spacing, t0 + spacing))
    return best


def sublevel_indicator(product: BlaschkeProduct, eps: float, z):
    """True where |B(z)| < eps, for 0 < eps < 1."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    val = np.abs(eval_product(product, z))
    out = val < eps
    return out if np.ndim(out) else bool(out)


def diagnose(zeros: ZeroSequence, grid_size: int = 4096) -> DiagnosticsReport:
    """Bundle the standard product diagnostics for a zero sequence."""
    product = BlaschkeProduct(zeros)
    return DiagnosticsReport(
        name="blaschke",
        scalars={
            "delta": interpolation_delta(product),
            "frostman_sup": frostman_sup(zeros, grid_size),
            "blaschke_sum": zeros.blaschke_sum(),
            "min_separation": zeros.min_separation(),
        },
        notes=["frostman_sup is a grid approximation; trend only for truncations"],
    )
