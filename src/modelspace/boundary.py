"""Boundary-grid function calculus on the unit circle.

Functions live on a power-of-two grid of circle nodes and carry their
discrete Fourier spectrum, normalized so that coefficient 0 is the mean
of the samples.  Mode-based operators (Riesz projections, shifts,
multipliers) act on the spectrum; pointwise operators (products, the
tilde involution) act on samples.  Grids may be offset by half a node
spacing, which keeps sampled functions with a singularity at angle 0
finite; the spectrum is phase-corrected so coefficients always mean the
same thing regardless of offset.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

DEFECT_TOL = 1e-8  # relative-energy threshold for "negligible" negative modes


@dataclass(frozen=True)
class BoundaryGrid:
    """Uniform circle grid with 2**m nodes exp(2 pi i (t + offset) / M).

    Grids compare equal when m and offset agree.
    """

    m: int
    offset: float = 0.0

    def __post_init__(self):
        if self.m < 4:
            raise ValueError("grid exponent m must be at least 4")
        if self.offset not in (0.0, 0.5):
            raise ValueError("offset must be 0.0 or 0.5 (in node spacings)")
        M = 1 << self.m
        t = np.arange(M)
        nodes = np.exp(2j * np.pi * (t + self.offset) / M)
        modes = np.fft.fftfreq(M, 1.0 / M).astype(int)
        phase = np.exp(-2j * np.pi * modes * self.offset / M)
        for name, arr in (("nodes", nodes), ("modes", modes), ("_phase", phase)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def size(self) -> int:
        return 1 << self.m


@dataclass(frozen=True, eq=False)
class BoundaryFunction:
    """Complex samples on a BoundaryGrid with cached Fourier spectrum.

    spectrum[i] is the coefficient of mode grid.modes[i]; synthesis of the
    cached spectrum reproduces the samples to machine precision.  The
    spectrum is computed on its first read and kept, read-only, so
    functions that only feed pointwise operations or norms never pay for
    the forward FFT.
    """

    grid: BoundaryGrid
    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex).reshape(-1)
        if s.size != self.grid.size:
            raise ValueError("sample count does not match the grid size")
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    @cached_property
    def spectrum(self) -> np.ndarray:
        spec = np.fft.fft(self.samples) / self.grid.size * self.grid._phase
        spec.setflags(write=False)
        return spec

    @classmethod
    def from_callable(cls, grid: BoundaryGrid, fn) -> "BoundaryFunction":
        return cls(grid, np.asarray(fn(grid.nodes), dtype=complex))

    @classmethod
    def from_spectrum(cls, grid: BoundaryGrid, spectrum) -> "BoundaryFunction":
        spec = np.asarray(spectrum, dtype=complex).reshape(-1)
        if spec.size != grid.size:
            raise ValueError("spectrum length does not match the grid size")
        samples = np.fft.ifft(spec / grid._phase * grid.size)
        return cls(grid, samples)

    @classmethod
    def constant(cls, grid: BoundaryGrid, c: complex) -> "BoundaryFunction":
        return cls(grid, np.full(grid.size, complex(c)))

    def coefficient(self, n: int) -> complex:
        M = self.grid.size
        if not -M // 2 <= n < M // 2:
            raise ValueError(f"mode {n} outside the grid band [-M/2, M/2)")
        return complex(self.spectrum[n % M])

    def conj(self) -> "BoundaryFunction":
        return BoundaryFunction(self.grid, np.conj(self.samples))

    def _binary(self, other, op):
        if isinstance(other, BoundaryFunction):
            if other.grid != self.grid:
                raise ValueError("operands live on different grids")
            other = other.samples
        return BoundaryFunction(self.grid, op(self.samples, other))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    def __rmul__(self, scalar):
        return BoundaryFunction(self.grid, scalar * self.samples)


def inner(f: BoundaryFunction, g: BoundaryFunction) -> complex:
    """Discrete L2 inner product int f conj(g) dm."""
    return complex(np.mean(f.samples * np.conj(g.samples)))


def lp_norm(f: BoundaryFunction, p: float) -> float:
    """Discrete L^p norm (mean |f|^p)^(1/p); max of |f| for p = inf."""
    a = np.abs(f.samples)
    if p == math.inf:
        return float(a.max())
    if p < 1:
        raise ValueError("p must be >= 1")
    return float(np.mean(a ** p) ** (1.0 / p))


def riesz_project(f: BoundaryFunction, sign: str) -> BoundaryFunction:
    """Mode truncation: '+' keeps modes n >= 0, '-' keeps modes n <= -1."""
    if sign == "+":
        keep = f.grid.modes >= 0
    elif sign == "-":
        keep = f.grid.modes < 0
    else:
        raise ValueError("sign must be '+' or '-'")
    spec = np.where(keep, f.spectrum, 0.0)
    return BoundaryFunction.from_spectrum(f.grid, spec)


def h2_defect(f: BoundaryFunction) -> float:
    """Fraction of spectral energy sitting in negative modes."""
    power = np.abs(f.spectrum) ** 2
    total = float(np.sum(power))
    if total == 0.0:
        return 0.0
    return float(np.sum(power[f.grid.size // 2 :])) / total  # modes -M/2 .. -1


def _require_h2(f: BoundaryFunction, what: str, tol: float = DEFECT_TOL) -> None:
    d = h2_defect(f)
    if d > tol:
        raise ValueError(f"{what} is not in H2 at tolerance {tol:g} (defect {d:.3e})")


def backward_shift(f: BoundaryFunction) -> BoundaryFunction:
    """(f - f(0)) / z on the spectrum: mode n picks up coefficient n + 1."""
    _require_h2(f, "backward shift input")
    M = f.grid.size
    spec = np.zeros(M, dtype=complex)
    # modes 0 .. M/2 - 2 receive coefficients 1 .. M/2 - 1
    spec[: M // 2 - 1] = f.spectrum[1 : M // 2]
    return BoundaryFunction.from_spectrum(f.grid, spec)


def _require_unimodular(theta: BoundaryFunction, tol: float = 1e-8) -> None:
    dev = float(np.max(np.abs(np.abs(theta.samples) - 1.0)))
    if dev > tol:
        raise ValueError(f"theta is not unimodular on the grid (deviation {dev:.3e})")


def tilde(theta: BoundaryFunction, f: BoundaryFunction) -> BoundaryFunction:
    """Antilinear involution f -> conj(z) conj(f) theta on the samples."""
    _require_unimodular(theta)
    if theta.grid != f.grid:
        raise ValueError("theta and f live on different grids")
    samples = np.conj(f.grid.nodes) * np.conj(f.samples) * theta.samples
    return BoundaryFunction(f.grid, samples)


def model_project(theta: BoundaryFunction, f: BoundaryFunction) -> BoundaryFunction:
    """Projection of f in H2 onto the star-invariant subspace of theta.

    Computes theta * P_-(conj(theta) f).  The output g satisfies f - g in
    theta H2, so g reproduces the values of f at the zeros of theta.
    """
    _require_unimodular(theta)
    _require_h2(f, "projection input")
    inner_part = riesz_project(theta.conj() * f, "-")
    return theta * inner_part


def membership_defect(
    f: BoundaryFunction, space: str = "H2", theta: BoundaryFunction | None = None
) -> float:
    """Relative-energy defect of membership in H2 or in K2 of theta.

    For H2 this is the negative-mode energy fraction; for K2 it is the
    larger of the H2 defects of f and of tilde(theta, f).
    """
    if space == "H2":
        return h2_defect(f)
    if space == "K2":
        if theta is None:
            raise ValueError("K2 membership needs theta")
        return max(h2_defect(f), h2_defect(tilde(theta, f)))
    raise ValueError(f"unknown space {space!r}")


def toeplitz_coanalytic(psi: BoundaryFunction, f: BoundaryFunction) -> BoundaryFunction:
    """Toeplitz operator with co-analytic symbol: P_+(conj(psi) f)."""
    _require_h2(psi, "Toeplitz symbol")
    _require_h2(f, "Toeplitz argument")
    return riesz_project(psi.conj() * f, "+")


# ---------------------------------------------------------------------------
# mean oscillation


def _arc_oscillation_max(samples: np.ndarray, length: int, chunk: int = 1024) -> float:
    # max over all offsets of the mean absolute deviation on arcs of a length
    M = samples.size
    ext = np.concatenate([samples, samples[: length - 1]])
    win = np.lib.stride_tricks.sliding_window_view(ext, length)
    best = 0.0
    for lo in range(0, M, chunk):
        w = win[lo : lo + chunk]
        mu = w.mean(axis=1)
        dev = np.abs(w - mu[:, None]).mean(axis=1)
        best = max(best, float(dev.max()))
    return best


def _arc_oscillation_at(ext: np.ndarray, length: int, offsets: np.ndarray) -> float:
    # max mean absolute deviation on the arcs of one length starting at the
    # offsets; the same expression as _arc_oscillation_max, in bounded chunks
    win = np.lib.stride_tricks.sliding_window_view(ext, length)
    step = max(1, (1 << 18) // length)
    best = 0.0
    for lo in range(0, offsets.size, step):
        w = win[offsets[lo : lo + step]]
        mu = w.mean(axis=1)
        dev = np.abs(w - mu[:, None]).mean(axis=1)
        best = max(best, float(dev.max()))
    return best


def bmo_norm(f: BoundaryFunction) -> float:
    """Mean-oscillation norm estimate |mean| + max over dyadic arcs.

    The supremum over arcs is approximated by arcs of dyadic lengths
    M, M/2, ..., 4 at every offset.  Any arc is contained in such an arc
    of comparable length, so the estimate is within a bounded factor of
    the all-arcs value (the exhaustive scan is available separately).

    The scan is exact and pruned: it returns the same value as computing
    the mean absolute deviation of every dyadic arc.  By Cauchy-Schwarz an
    arc's mean absolute deviation is at most its RMS deviation, which
    prefix sums of the centred samples c = s - mean(s) give for every arc
    in O(1).  Each arc's variance gets a rounding slack of
    16 eps (sum of |c|^2 over the doubled array / L + mean |c|^2) before
    the square root, so the bound stays above the deviation under
    cancellation.  Arcs of all lengths are evaluated exactly, largest
    bound first in batches of 1, 2, 4, ..., against one running maximum;
    the scan stops once no unvisited bound exceeds that maximum.
    """
    s = f.samples
    M = s.size
    mean = complex(np.mean(s))
    ext = np.concatenate([s, s])
    c = ext - mean
    p1 = np.concatenate([[0.0], np.cumsum(c)])
    p2 = np.concatenate([[0.0], np.cumsum(c.real**2 + c.imag**2)])
    lengths = 4 << np.arange(f.grid.m - 1)
    bound = np.empty((lengths.size, M))
    for row, length in zip(bound, lengths):
        mu = (p1[length : length + M] - p1[:M]) / length
        var = (p2[length : length + M] - p2[:M]) / length - (mu.real**2 + mu.imag**2)
        slack = 16 * np.finfo(float).eps * (p2[-1] / length + p2[M] / M)
        np.sqrt(np.maximum(var, 0.0) + slack, out=row)
    bound = bound.ravel()
    best, batch = 0.0, 1
    while True:
        top = np.argpartition(bound, -batch)[-batch:]
        top = top[bound[top] > best]
        if top.size == 0:
            return abs(mean) + best
        bound[top] = -np.inf  # visited
        rows, offsets = np.divmod(top, M)
        for r in np.unique(rows):
            best = max(best, _arc_oscillation_at(ext, int(lengths[r]), offsets[rows == r]))
        batch = min(2 * batch, bound.size)


def bmo_norm_exhaustive(f: BoundaryFunction) -> float:
    """All-arcs oscillation scan; quadratic cost, guarded to small grids."""
    M = f.grid.size
    if M > 512:
        raise ValueError("exhaustive arc scan is limited to grids of size <= 512")
    mean = complex(np.mean(f.samples))
    best = 0.0
    for length in range(2, M + 1):
        best = max(best, _arc_oscillation_max(f.samples, length))
    return abs(mean) + best


# ---------------------------------------------------------------------------
# file formats


def write_csv(f: BoundaryFunction, path) -> None:
    """Rows t + offset, re(sample), im(sample).

    The first column reads 0, 1, ... on a plain grid and 0.5, 1.5, ... on a
    half-offset grid, so the file names its own grid.
    """
    offset = f.grid.offset
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for t, v in enumerate(f.samples):
            position = t + offset if offset else t
            writer.writerow([position, repr(float(v.real)), repr(float(v.imag))])


def read_csv(path) -> BoundaryFunction:
    """Rebuild a BoundaryFunction from write_csv output, on the grid it names.

    The offset is read from the first column, which must be exactly t or
    exactly t + 0.5 for t = 0, ..., M - 1.
    """
    positions, rows = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        for t, re, im in csv.reader(fh):
            positions.append(float(t))
            rows.append(complex(float(re), float(im)))
    m = int(math.log2(len(rows))) if rows else 0
    if 1 << m != len(rows):
        raise ValueError("sample count in the file is not a power of two")
    offset = positions[0]
    if offset not in (0.0, 0.5) or not np.array_equal(positions, np.arange(len(rows)) + offset):
        raise ValueError("first column must be t or t + 0.5 for t = 0, 1, ..., M - 1")
    return BoundaryFunction(BoundaryGrid(m, offset), np.array(rows))
