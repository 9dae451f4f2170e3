"""Finite Blaschke products and their diagnostics.

A product is determined by its zero sequence; each factor is normalized
so the product is positive at the origin when no zero sits there, with
the usual convention that a factor with zero at the origin is plain z.
All evaluations take scalars or arrays of points with |z| <= 1, else ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryFunction, BoundaryGrid
from .core import CHUNK_ENTRIES, DiagnosticsReport, ZeroSequence, _chunks

# points per block of the samplers: the widest pass keeps four block-length
# complex buffers, which share one working-set budget while every zero passes
POINT_BLOCK = CHUNK_ENTRIES >> 2
GOLDEN_ITERS = 80  # golden-section steps of the frostman_sup refinement

# zeros per group of _lagrange_ladder's running products of z_j - z and of
# D_j = 1 - conj(z_j) z, divided once per group.  Points lie in the closed disk
# (_at_points) and zeros within 1 - ETA_MIN of the origin, so |z_j - z| < 2 + 4 eps
# and |D_j| >= 1 - |z_j| |z| > ETA_MIN - 4 eps: a group's products stay within
# 2^17 and above 2^-320, and the rest of the range is left to the running
# product or sum that enters the group
GROUP = 16


def _at_points(fn, z):
    # fn at the flat points of z, given z's shape (a complex for a scalar z): the
    # one entry of every evaluator.  NaN, and any point beyond the closed disk by
    # more than a few ulps of rounding, raise ValueError
    z = np.asarray(z, dtype=complex)
    flat = z.reshape(-1)
    if not np.all(np.abs(flat) <= 1.0 + 4 * np.finfo(float).eps):
        raise ValueError("evaluation points must lie in the closed unit disk")
    out = fn(flat)
    return out.reshape(z.shape) if z.shape else complex(out[0])


def _point_blocks(n: int, buffers: int):
    # (slice, block-length complex buffers) for consecutive blocks of n points
    bufs = [np.empty(min(n, POINT_BLOCK), dtype=complex) for _ in range(buffers)]
    for lo in range(0, n, POINT_BLOCK):
        yield slice(lo, lo + POINT_BLOCK), [buf[: n - lo] for buf in bufs]


def _unit(zj: complex) -> complex:
    # normalizing constant |z_j| / z_j, taken as -1 for z_j = 0
    return -1.0 + 0.0j if zj == 0 else abs(zj) / zj


def _factor_parts(zj: complex, z: np.ndarray, num, den):
    # z_j - z into num and 1 - conj(z_j) z into den, both preallocated like z
    np.multiply(np.conj(zj), z, out=den)
    np.subtract(1.0, den, out=den)
    return np.subtract(zj, z, out=num), den


def blaschke_factor(zj: complex, z) -> np.ndarray | complex:
    """Single factor (|z_j|/z_j) (z_j - z) / (1 - conj(z_j) z): the one-zero product."""
    return eval_product(BlaschkeProduct(ZeroSequence([zj])), z)


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product with the given zeros."""

    zeros: ZeroSequence

    def __len__(self) -> int:
        return len(self.zeros)

    def sample(self, grid: BoundaryGrid) -> BoundaryFunction:
        """The product on the grid's nodes."""
        return BoundaryFunction(grid, eval_product(self, grid.nodes))


def _lagrange_ladder(points: np.ndarray, rows, z: np.ndarray, rungs=()) -> np.ndarray:
    # One pass over the zeros z_j in points for the flat points z, block by
    # block: a row per row of Lagrange series coefficients c_j = w_j / B'(z_j),
    # j < len(row), then one per rung n, the product B_n of the first n zeros.
    # With N_j = z_j - z and units u_j, b_j = u_j N_j / D_j, and the j-th term
    # is c_j core_j(z) prod_{k != j} b_k(z), core_j = b_j / (z - z_j) = -u_j / D_j.
    # In a group of zeros (GROUP), with C and D the products of its u_j and D_j
    # so far, the running product is C P / D and a row's total C S / D:
    #   S <- S N_j - c_j P,   P <- P N_j,   D <- D D_j,
    # and the group's end leaves C P / D in P and C S / D in S; a row or rung
    # ending inside a group takes its own.  N_j = 0 at z = z_j: exact at the
    # zeros, no 0/0.  Each output row gets the operations of its one-row pass in
    # the same order, so rung n is eval_product of n zeros bit for bit
    out = np.zeros((len(rows) + len(rungs), z.size), dtype=complex)
    count = max([*map(len, rows), *rungs], default=0)
    units = []  # C after each zero: the product of its group's units up to it
    for j, zj in enumerate(points[:count]):
        units.append(units[-1] * _unit(zj) if j % GROUP else _unit(zj))
    for block, (prefix, dens, num, den) in _point_blocks(z.size, 4):
        prefix.fill(1.0)
        for j, zj in enumerate(points[:count]):
            _factor_parts(zj, z[block], num, den if j % GROUP else dens)
            if j % GROUP:
                dens *= den
            end = (j + 1) % GROUP == 0
            for row, tot in zip(rows, out[:, block]):
                if j < len(row):
                    tot *= num
                    tot += np.multiply(prefix, -row[j], out=den)
                    if end or j + 1 == len(row):
                        np.divide(np.multiply(tot, units[j], out=tot), dens, out=tot)
            prefix *= num
            if end or j + 1 in rungs:
                closed = np.divide(np.multiply(prefix, units[j], out=num), dens, out=num)
                out[len(rows) + np.flatnonzero(np.equal(rungs, j + 1)), block] = closed
                if end:
                    prefix[:] = closed
    return out


def eval_product(product: BlaschkeProduct, z):
    """Value of the product at z (scalar or array) in the closed disk.

    NaN or |z| > 1 beyond a few ulps raises ValueError.  In blocks of
    POINT_BLOCK points, each zero multiplies z_j - z into the running
    product and 1 - conj(z_j) z into a running denominator D; every
    GROUP = 16 zeros the product takes C / D, C the group's units, and D
    starts over, so no step divides and nothing over- or underflows.
    Against the per-factor product b_1 b_2 ... values move by about 3e-15
    relative (tests: 1e-14).  The output is the only array as long as z.
    """
    points, rungs = product.zeros.points, [len(product)]
    return _at_points(lambda flat: _lagrange_ladder(points, [], flat, rungs)[0], z)


def _rung_derivatives(zeros: ZeroSequence, last: bool = False) -> np.ndarray:
    # D[j, n - 1] = B_n'(z_j) for every rung n > j (below the diagonal: B_n(z_j)),
    # the running product along row j of fac[j, k] = b_k(z_j), whose diagonal
    # holds b_j'(z_j): the closed form of the product rule.  fac is built in
    # core._chunks blocks of rows; with last, only the column of B is kept
    pts = zeros.points
    units = np.array([_unit(zj) for zj in pts])
    own = np.array([-_unit(zj) / (1.0 - abs(zj) ** 2) for zj in pts])
    conj = np.conj(pts)
    out = np.empty(pts.size if last else (pts.size, pts.size), dtype=complex)
    for rows in _chunks(pts.size, pts.size):
        z, j = pts[rows, None], np.arange(pts.size)[rows]
        fac, den = np.subtract(pts, z), np.multiply(conj, z)
        np.multiply(units, fac, out=fac)
        fac /= np.subtract(1.0, den, out=den)
        fac[j - rows.start, j] = own[rows]
        np.cumprod(fac, axis=1, out=fac)
        out[rows] = fac[:, -1] if last else fac
        del fac, den  # the next block's two buffers replace these, not join them
    return out


def all_derivatives(product: BlaschkeProduct) -> np.ndarray:
    """B'(z_j) for every zero: the last rung of _rung_derivatives, no n x n array."""
    return _rung_derivatives(product.zeros, last=True)


def interpolation_delta(product: BlaschkeProduct) -> float:
    """inf over zeros of |B'(z_j)| (1 - |z_j|), the separation constant."""
    moduli = product.zeros.moduli
    return float(np.min(np.abs(all_derivatives(product)) * (1.0 - moduli)))


def _frostman_sums(zeros: ZeroSequence, zeta: np.ndarray) -> np.ndarray:
    # sum over j of (1 - |z_j|) / |zeta - z_j| at each zeta, where |zeta - z_j| >= ETA_MIN - 1e-9
    gaps, out = 1.0 - zeros.moduli, np.empty(zeta.size)
    for rows in _chunks(zeta.size, len(zeros)):
        out[rows] = np.sum(gaps / np.abs(zeta[rows, None] - zeros.points), axis=1)
    return out


def frostman_sum(zeros: ZeroSequence, zeta: complex) -> float:
    """sum over j of (1 - |z_j|) / |zeta - z_j| at a boundary point zeta."""
    zeta = complex(zeta)
    if not abs(abs(zeta) - 1.0) <= 1e-9:  # NaN fails this too
        raise ValueError("zeta must lie on the unit circle")
    return float(_frostman_sums(zeros, np.array([zeta]))[0])


def _golden_max(fun, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    # golden-section search for a maximum of fun on every bracket [lo_i, hi_i]
    # at once; fun maps an array of points to their values
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(GOLDEN_ITERS):
        # left: keep [a, d] and probe a new c; otherwise keep [c, b] and probe a new d
        left = fc > fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        x = np.where(left, b - invphi * (b - a), a + invphi * (b - a))
        fx = fun(x)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
    return np.maximum(fc, fd)


def frostman_sup(zeros: ZeroSequence, grid_size: int = 4096) -> float:
    """Approximate sup over the circle of frostman_sum.

    Scans a uniform grid of the stated size, then refines with one
    vectorised golden-section search over two sets of brackets: the arcs
    next to the four top grid maximizers, and an arc of half-width
    min(spacing, 1 - |z_j|) around each zero's direction arg z_j, since a
    zero near the circle makes a peak narrower than the grid spacing that
    the top nodes, often all on one broad peak, miss.  Grid sums accumulate
    one zero at a time into length-M buffers and the refinement's distances
    come in core._chunks, so memory stays O(M + n) for n zeros.
    """
    if grid_size < 16:
        raise ValueError("grid_size must be at least 16")
    theta = 2.0 * np.pi * np.arange(grid_size) / grid_size
    nodes = np.exp(1j * theta)
    vals = np.zeros(grid_size)
    for zj, gap in zip(zeros.points, 1.0 - zeros.moduli):
        vals += gap / np.abs(nodes - zj)
    spacing = 2.0 * np.pi / grid_size
    t0 = np.concatenate([theta[np.argsort(vals)[::-1][:4]], np.angle(zeros.points)])
    half = np.concatenate([np.full(4, spacing), np.minimum(spacing, 1.0 - zeros.moduli)])
    refined = _golden_max(lambda t: _frostman_sums(zeros, np.exp(1j * t)),
                          t0 - half, t0 + half)
    return max(float(vals.max()), float(refined.max()))


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
