"""Boundary-grid function calculus on the unit circle.

Functions live on a power-of-two grid of circle nodes and carry their
discrete Fourier spectrum, normalized so that coefficient 0 is the mean
of the samples.  Riesz projections mask the plain DFT (the grid phase is
diagonal); pointwise operators (products, the
tilde involution) act on samples.  Grids may be offset by half a node
spacing, which keeps sampled functions with a singularity at angle 0
finite; the spectrum is phase-corrected so coefficients always mean the
same thing regardless of offset.  Transforms of up to 2^16 points are np.fft's;
larger ones take radix-2 steps down to 2^16, within 4e-15 max|X| of np.fft.
H2 and K2 defects read the transform's halves; above 2^16 points these are
E + W O and E - W O, taken in place from the radix-2 parts E and W O, and
no M-point spectrum is built.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .core import _chunks

DEFECT_TOL = 1e-8  # relative-energy threshold for "negligible" negative modes
UNIMODULAR_TOL = 1e-8  # largest ||theta| - 1| accepted on the grid
_FFT_LEAF = 1 << 16  # largest transform handed to np.fft in one call


@lru_cache(maxsize=8)
def _grid_tables(m: int, offset: float):
    # nodes and FFT phase of one (m, offset), built once and shared.  The plain
    # grid's phase is exactly 1 at every mode, so it is a read-only stride-0
    # view; the half-offset phase builds its modes locally and drops them
    M = 1 << m
    nodes = np.exp(2j * np.pi * (np.arange(M) + offset) / M)
    nodes.setflags(write=False)
    if not offset:
        return nodes, np.broadcast_to(np.complex128(1.0), (M,))
    phase = np.exp(-2j * np.pi * np.fft.fftfreq(M, 1.0 / M).astype(int) * offset / M)
    phase.setflags(write=False)
    return nodes, phase


@lru_cache(maxsize=8)
def _modes(m: int) -> np.ndarray:
    # mode of each FFT-order spectrum entry, read-only and shared by both
    # offsets; built on its first read, since no transform needs it
    M = 1 << m
    modes = np.fft.fftfreq(M, 1.0 / M).astype(int)
    modes.setflags(write=False)
    return modes


@lru_cache(maxsize=8)
def _twiddles(size: int) -> np.ndarray:
    w = np.exp(-2j * np.pi * np.arange(size // 2) / size)  # read-only, shared
    w.setflags(write=False)
    return w


def _fft(x: np.ndarray, inverse: bool = False, out: np.ndarray | None = None) -> np.ndarray:
    # unnormalised DFT of x (exp(+2 pi i j k / M) if inverse) in out (may be x) or a new
    # array, by radix-2 steps above _FFT_LEAF: np.fft frees 4 MB of 2^17-point scratch per call
    if x.size <= _FFT_LEAF:
        return np.fft.ifft(x, norm="forward", out=out) if inverse else np.fft.fft(x, out=out)
    even, odd = _fft(x[0::2], inverse), _fft(x[1::2], inverse)
    if inverse:  # odd * conj(w) as conj(conj(odd) w), in place: the same bits, no table
        np.conjugate(odd, out=odd)
    odd *= _twiddles(x.size)
    if inverse:
        np.conjugate(odd, out=odd)
    out = np.empty(x.size, dtype=complex) if out is None else out
    np.add(even, odd, out=out[: even.size])
    np.subtract(even, odd, out=out[even.size :])
    return out


@dataclass(frozen=True)
class BoundaryGrid:
    """Uniform circle grid with 2**m nodes exp(2 pi i (t + offset) / M).

    Grids compare equal when m and offset agree, and equal grids share
    one read-only set of node and phase tables, so building a grid a
    second time costs no table work.  The plain grid's phase is a stride-0
    view of 1, which keeps no table.  The mode table is built on its
    first read and shared by both offsets of one m.
    """

    m: int
    offset: float = 0.0

    def __post_init__(self):
        if self.m < 4:
            raise ValueError("grid exponent m must be at least 4")
        if self.offset not in (0.0, 0.5):
            raise ValueError("offset must be 0.0 or 0.5 (in node spacings)")
        tables = _grid_tables(self.m, self.offset)
        for name, arr in zip(("nodes", "_phase"), tables):
            object.__setattr__(self, name, arr)

    @property
    def size(self) -> int:
        return 1 << self.m

    @property
    def modes(self) -> np.ndarray:
        return _modes(self.m)


@dataclass(frozen=True, eq=False)
class BoundaryFunction:
    """Complex samples on a BoundaryGrid with a Fourier spectrum on demand.

    spectrum[i] is the coefficient of mode grid.modes[i]; its synthesis gives
    the samples to machine precision.  .spectrum and coefficient() compute it
    on first read and cache it, read-only.  H2 checks and single-use readers
    (h2_defect, membership_defect, cauchy_eval) read the cached one if any,
    else a fresh transform they drop.  Pointwise work pays no FFT.
    """

    grid: BoundaryGrid
    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex).reshape(-1)
        if s.size != self.grid.size:
            raise ValueError("sample count does not match the grid size")
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    def _read_spectrum(self) -> np.ndarray:  # a fresh spectrum, read-only
        spec = _fft(self.samples)  # / M on the float view: numpy divides by M + 0j
        np.multiply(spec.view(float), 1.0 / self.grid.size, out=spec.view(float))
        spec *= self.grid._phase
        spec.setflags(write=False)
        return spec

    spectrum = cached_property(_read_spectrum)

    @classmethod
    def from_callable(cls, grid: BoundaryGrid, fn) -> "BoundaryFunction":
        return cls(grid, np.asarray(fn(grid.nodes), dtype=complex))

    @classmethod
    def from_spectrum(cls, grid: BoundaryGrid, spectrum) -> "BoundaryFunction":
        spec = np.asarray(spectrum, dtype=complex).reshape(-1)
        if spec.size != grid.size:
            raise ValueError("spectrum length does not match the grid size")
        return cls(grid, _fft(spec / grid._phase, inverse=True))  # spec is left as it was

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


def lp_norm(f: BoundaryFunction, p: float) -> float:
    """Discrete L^p norm (mean |f|^p)^(1/p); max of |f| for p = inf."""
    if not p >= 1:  # NaN fails this too
        raise ValueError("p must be >= 1")
    a = np.abs(f.samples)
    if p == math.inf:
        return float(a.max())
    return float(np.mean(a ** p) ** (1.0 / p))


def riesz_project(f: BoundaryFunction, sign: str) -> BoundaryFunction:
    """Mode truncation: '+' keeps modes n >= 0, '-' keeps modes n <= -1.

    The grid phase is diagonal and commutes with the mask, so the plain DFT (modes
    0 .. M/2 - 1 first) is masked, scaled by the exact 2^-m and inverted in place.
    """
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    spec, h = _fft(f.samples), f.grid.size // 2
    spec[slice(h, None) if sign == "+" else slice(h)] = 0.0
    np.multiply(spec.view(float), 1.0 / f.grid.size, out=spec.view(float))
    return BoundaryFunction(f.grid, _fft(spec, inverse=True, out=spec))


def _transform_halves(sample, size: int):
    # the DFT of the samples that sample(nodes) builds fresh, as its halves (modes
    # >= 0, modes < 0); above _FFT_LEAF each half of the samples is transformed in
    # place and the radix-2 step even +- W o odd is taken in place, chunk by chunk
    if size <= _FFT_LEAF:
        spec = sample(slice(None))
        _fft(spec, out=spec)
        return spec[: size // 2], spec[size // 2 :]
    even, odd = sample(slice(0, None, 2)), sample(slice(1, None, 2))
    _fft(even, out=even)
    _fft(odd, out=odd)
    odd *= _twiddles(size)
    for rows in _chunks(odd.size, 32):
        w_odd = odd[rows].copy()
        np.subtract(even[rows], w_odd, out=odd[rows])
        even[rows] += w_odd
        del w_odd  # one chunk lives at a time
    return even, odd


def _halves(f: BoundaryFunction):  # f's cached spectrum as its halves, else fresh ones
    spec = vars(f).get("spectrum")
    if spec is not None:
        return spec[: spec.size // 2], spec[spec.size // 2 :]
    return _transform_halves(lambda nodes: f.samples[nodes].copy(), f.grid.size)


def _defect(lo: np.ndarray, hi: np.ndarray) -> float:
    # share of hi in the energy of lo and hi, summed over |x| 2^-e, e the exponent
    # of the largest part, so the same at every power-of-two amplitude; chunk sums
    # add pairwise, so on a spectrum's halves they have np.sum's bits
    e = math.frexp(max(max(v.max(), -v.min()) for v in (lo.view(float), hi.view(float))))[1]
    scale = math.ldexp(1.0, -max(e, -1022))  # exact

    def power_sum(x):  # sum of (|x| 2^-e)^2
        power = np.abs(x)
        power *= scale
        return float(np.square(power, out=power).sum())

    def energy(half):  # one chunk lives at a time
        sums = [power_sum(half[rows]) for rows in _chunks(half.size, 16)]
        while len(sums) > 1:
            sums = [sum(sums[i : i + 2]) for i in range(0, len(sums), 2)]
        return sums[0]

    neg = energy(hi)
    total = energy(lo) + neg
    return neg / total if total else 0.0


def h2_defect(f: BoundaryFunction) -> float:
    """Fraction of spectral energy sitting in negative modes."""
    return _defect(*_halves(f))


def _require_h2(f: BoundaryFunction, what: str, tol: float = DEFECT_TOL) -> np.ndarray:
    # spectrum[: M/2], bit for bit, for the caller's series, if f passes
    lo, hi = _halves(f)
    d = _defect(lo, hi)
    if not d <= tol:  # NaN fails this too
        raise ValueError(f"{what} is not in H2 at tolerance {tol:g} (defect {d:.3e})")
    if "spectrum" in vars(f):
        return lo
    np.multiply(lo.view(float), 1.0 / f.grid.size, out=lo.view(float))
    lo *= f.grid._phase[: lo.size]
    lo.setflags(write=False)
    return lo


def _require_unimodular(theta: BoundaryFunction) -> None:
    dev = np.abs(theta.samples)
    dev -= 1.0
    dev = float(np.max(np.abs(dev, out=dev)))
    if not dev <= UNIMODULAR_TOL:  # NaN fails this too
        raise ValueError(f"theta is not unimodular on the grid (deviation {dev:.3e})")


def _require_tilde_operands(theta: BoundaryFunction, f: BoundaryFunction) -> None:
    _require_unimodular(theta)
    if theta.grid != f.grid:
        raise ValueError("theta and f live on different grids")


def _tilde_samples(theta: BoundaryFunction, f: BoundaryFunction, nodes: slice) -> np.ndarray:
    # conj(z) conj(f) is conj(z f) bit for bit
    samples = np.multiply(f.grid.nodes[nodes], f.samples[nodes])
    np.conjugate(samples, out=samples)
    samples *= theta.samples[nodes]
    return samples


def tilde(theta: BoundaryFunction, f: BoundaryFunction) -> BoundaryFunction:
    """Antilinear involution f -> conj(z) conj(f) theta on the samples."""
    _require_tilde_operands(theta, f)
    return BoundaryFunction(f.grid, _tilde_samples(theta, f, slice(None)))


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

    For H2 this is the negative-mode energy fraction; for K2, H2 intersected
    with theta conj(z) conj(H2), the larger of the H2 defects of f and of
    tilde(theta, f), which is built and transformed one half of the nodes at a time.
    """
    if space == "H2":
        return h2_defect(f)
    if space == "K2":
        if theta is None:
            raise ValueError("K2 membership needs theta")
        _require_tilde_operands(theta, f)
        d = h2_defect(f)
        halves = _transform_halves(lambda nodes: _tilde_samples(theta, f, nodes), f.grid.size)
        return float(np.maximum(d, _defect(*halves)))  # keeps NaN
    raise ValueError(f"unknown space {space!r}")


# ---------------------------------------------------------------------------
# mean oscillation


def _arc_oscillation_at(ext: np.ndarray, length: int, offsets: np.ndarray) -> float:
    # max mean absolute deviation on the arcs of one length starting at the
    # offsets, each gathered chunk centred in place; win is the read-only sliding
    # window of the contiguous ext (the buffer protocol refuses any other) without
    # sliding_window_view's checks, 0.1 ms of a 1.1 ms call
    win = np.ndarray((ext.size - length + 1, length), ext.dtype, ext, strides=2 * ext.strides)
    win.flags.writeable = False
    inv = 1.0 / length
    best = 0.0
    for rows in _chunks(offsets.size, length):
        w = win[offsets[rows]]
        w -= (w.sum(axis=1) * inv)[:, None]
        best = max(best, float(np.abs(w).sum(axis=1).max()) * inv)
    return best


def _sub_arc_bound(
    p1: np.ndarray, p2: np.ndarray, length: int, offsets: np.ndarray
) -> np.ndarray:
    # bmo_norm's second bound on the arcs of one length starting at the
    # offsets.  Each arc is split into k = min(32, L/4) sub-arcs of length
    # l = L/k, whose sums S_i and Q_i of c and |c|^2 are differences of the
    # prefix sums p1 and p2.  With m_i = S_i/l and the arc mean mu, Jensen on
    # each sub-arc gives MAD <= (1/k) sum_i sqrt(T_i), where
    # T_i = Q_i/l - |m_i|^2 + |m_i - mu|^2.
    # Slack: Q_i/l is a difference of two p2 values over l, so it is off by a
    # few ulps of p2[-1]/l, the way the RMS variance is off by a few ulps of
    # p2[-1]/L.  |m_i|^2 <= Q_i/l and |m_i - mu|^2 <= 2 Q_i/l + 2 |mu|^2 are off
    # by a few ulps of their bounds, and the centring term p2[M]/M = mean |c|^2
    # carries over.  So each T_i gets the RMS slack with l for L plus a term
    # in |mu|^2: 16 eps (p2[-1]/l + p2[M]/M + |mu|^2).
    k = min(32, length // 4)
    sub = length // k
    inv, inv_sub = 1.0 / length, 1.0 / sub
    M = (p2.size - 1) // 2
    span = sub * np.arange(k + 1)
    eps = np.finfo(float).eps
    out = np.empty(offsets.size)
    for rows in _chunks(offsets.size, k + 1):
        idx = offsets[rows, None] + span
        s1 = p1[idx]
        mu = (s1[:, -1] - s1[:, 0]) * inv
        mi = s1[:, 1:] - s1[:, :-1]
        mi *= inv_sub
        s2 = p2[idx]
        t = s2[:, 1:] - s2[:, :-1]
        t *= inv_sub
        t -= mi.real**2 + mi.imag**2
        np.maximum(t, 0.0, out=t)
        mi -= mu[:, None]
        t += mi.real**2 + mi.imag**2
        t += (16 * eps * (p2[-1] * inv_sub + p2[M] / M + (mu.real**2 + mu.imag**2)))[:, None]
        out[rows] = np.sqrt(t, out=t).mean(axis=1)
    return out


def _rms_bound_row(p1: np.ndarray, p2: np.ndarray, length: int) -> np.ndarray:
    # bmo_norm's first bound on the arcs of one length at every offset: the
    # RMS deviation from the prefix sums, plus its rounding slack.  Every arc
    # of length M is the whole circle, so that row is its offset 0 alone
    M = (p2.size - 1) // 2
    n = 1 if length == M else M
    inv = 1.0 / length
    mu = np.subtract(p1[length : length + n], p1[:n])
    mu *= inv
    row = np.subtract(p2[length : length + n], p2[:n])
    row *= inv
    np.square(mu.view(float), out=mu.view(float))  # mu.real**2 and mu.imag**2, in place
    row -= mu.real + mu.imag
    np.maximum(row, 0.0, out=row)
    row += 16 * np.finfo(float).eps * (p2[-1] * inv + p2[M] / M)
    return np.sqrt(row, out=row)


def bmo_norm(f: BoundaryFunction) -> float:
    """Mean-oscillation norm estimate |mean| + max over dyadic arcs.

    The supremum over arcs is approximated by arcs of dyadic lengths
    M, M/2, ..., 4 at every offset.  Any arc is contained in such an arc
    of comparable length, so the estimate is within a bounded factor of
    the all-arcs value (the exhaustive scan is available separately).

    The scan is exact and pruned by bounds: it returns the same value as
    computing the mean absolute deviation of every dyadic arc (the whole
    circle once, at offset 0), at every amplitude.  By Cauchy-Schwarz an arc's mean absolute deviation is at
    most its RMS deviation, which prefix sums of the centred samples
    c = s - mean(s) give for every arc in O(1).  The sums are taken of
    c 2^-e, e the binary exponent of max|c|, so |c|^2 neither underflows
    nor overflows; each bound is held against the running maximum scaled
    by the same exact 2^-e, and the exact arcs read the unscaled samples.
    A rounding slack of 16 eps (sum of |c|^2 over the doubled array / L +
    mean |c|^2) on each variance keeps the bound above the deviation under
    cancellation.  The RMS rows of the lengths L >= 128, and of L = M at
    offset 0 alone (the whole circle), are built first, and the running
    maximum starts at the exact deviation of the arc with the largest of
    their bounds, which its length's scan leaves out.  The lengths are then
    taken from the longest down.  A shorter row is built only if the
    enclosing-arc bound allows an arc above the running maximum: with
    L2 >= 2L the nearest built length, every arc of length L starting in
    [jL, (j+1)L) lies inside the dyadic arc of length L2 at jL, and the mean
    minimises the mean square, so its RMS deviation is at most sqrt(L2/L)
    times that arc's, and the largest of these over j (rounded up by 8 eps)
    bounds the whole row.  Scaled by L2/L >= 2, the variance slack of row L2
    is at least that of row L, whose rounding it covers.  On each length the
    offsets whose RMS bound exceeds the maximum are bounded again, from the
    same prefix sums, by Jensen on k = min(32, L/4) equal sub-arcs (see
    _sub_arc_bound).  By concavity of sqrt that bound is at most the RMS
    bound, up to the slacks, and it tends to the deviation where the
    samples are nearly constant on each sub-arc.  The offsets above both
    bounds are evaluated exactly best-first, largest sub-arc bound first in
    doubling chunks, until the next bound is at or below the running
    maximum.  An exact arc is centred on its own rounded mean, so its
    computed deviation may exceed the true one by (log2 L + 2) 4 eps max|s|,
    with max|s| <= |mean| + max|c|; every "running maximum" above is the
    maximum less that drift of the length at hand.  A skipped arc's computed
    deviation is then at most the result.  Arc means, here and in the
    helpers, multiply by 1/L and give the bits of dividing by L: numpy
    divides complex by real L as a product with 1/(L + 0*0), and every arc
    and sub-arc length is a power of two.
    """
    s = f.samples
    M = s.size
    mean = complex(np.mean(s))
    ext = np.concatenate([s, s])
    c = ext - mean
    top_c = float(np.abs(c[:M]).max())
    e = math.frexp(top_c)[1]
    np.ldexp(c.view(float), -e, out=c.view(float))  # exact: every |c| 2^-e < 1
    p1 = np.zeros(2 * M + 1, dtype=complex)
    np.cumsum(c, out=p1[1:])
    p2 = np.zeros(2 * M + 1)
    np.cumsum(c.real**2 + c.imag**2, out=p2[1:])
    drift = 4 * np.finfo(float).eps * (abs(mean) + top_c)

    def limit(length):  # the scaled bound an arc of this length must exceed
        margin = best - (length.bit_length() + 1) * drift
        return math.ldexp(margin, -e) if margin > 0 else -1.0  # bounds are >= 0

    lengths = [M >> k for k in range(f.grid.m - 1)]  # M, M/2, ..., 4
    rows = {L: _rms_bound_row(p1, p2, L) for L in lengths if L >= 128 or L == M}
    top = max(rows, key=lambda L: rows[L].max())
    seen = {top: rows[top].argmax()}  # offset of the arc that seeds the running maximum
    best = _arc_oscillation_at(ext, top, np.array([seen[top]]))
    round_up = 1.0 + 8 * np.finfo(float).eps
    for length in lengths:
        if length not in rows:
            outer = min(L for L in rows if L >= 2 * length)
            if rows[outer][::length].max() * math.sqrt(outer / length) * round_up <= limit(length):
                continue
            rows[length] = _rms_bound_row(p1, p2, length)
        offsets = np.flatnonzero(rows[length] > limit(length))
        offsets = offsets[offsets != seen.get(length, -1)]
        if not offsets.size:
            continue
        bound = _sub_arc_bound(p1, p2, length, offsets)
        order = np.argsort(-bound)
        offsets, bound = offsets[order], bound[order]
        done, size = 0, 8
        while done < (alive := int(np.count_nonzero(bound > limit(length)))):
            stop = min(done + size, alive)
            best = max(best, _arc_oscillation_at(ext, length, offsets[done:stop]))
            done, size = stop, 2 * size
    return abs(mean) + best


def bmo_norm_exhaustive(f: BoundaryFunction) -> float:
    """All-arcs oscillation scan on bmo_norm's exact-arc kernel, so never below
    bmo_norm; quadratic cost, guarded to small grids.
    """
    M = f.grid.size
    if M > 512:
        raise ValueError("exhaustive arc scan is limited to grids of size <= 512")
    ext = np.concatenate([f.samples, f.samples])
    best = max(_arc_oscillation_at(ext, L, np.arange(M)) for L in range(2, M + 1))
    return abs(complex(np.mean(f.samples))) + best


# ---------------------------------------------------------------------------
# file formats


def write_csv(f: BoundaryFunction, path) -> None:
    """Rows t + offset, re(sample), im(sample).

    The first column reads 0, 1, ... on a plain grid and 0.5, 1.5, ... on a
    half-offset grid, so the file names its own grid.  Samples are written
    as repr floats, which read back exactly, and lines end in CRLF, as the
    csv module writes them.
    """
    s, offset = f.samples, f.grid.offset
    positions = (np.arange(s.size) + offset).tolist() if offset else range(s.size)
    rows = zip(positions, s.real.tolist(), s.imag.tolist())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(f"{t},{re!r},{im!r}\r\n" for t, re, im in rows)


def read_csv(path) -> BoundaryFunction:
    """Rebuild a BoundaryFunction from write_csv output, on the grid it names.

    The offset is read from the first column, which must be exactly t or
    exactly t + 0.5 for t = 0, ..., M - 1.  Every sample must be finite.
    """
    with warnings.catch_warnings():  # an empty file is refused below, with no warning
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        data = np.loadtxt(path, delimiter=",", comments=None, ndmin=2, encoding="utf-8")
    count = len(data)
    m = int(math.log2(count)) if count else 0
    if 1 << m != count:
        raise ValueError("sample count in the file is not a power of two")
    positions, re, im = data.T
    offset = float(positions[0])
    if offset not in (0.0, 0.5) or not np.array_equal(positions, np.arange(count) + offset):
        raise ValueError("first column must be t or t + 0.5 for t = 0, 1, ..., M - 1")
    samples = np.empty(count, dtype=complex)
    samples.real, samples.imag = re, im
    if not np.isfinite(samples).all():
        raise ValueError("samples must be finite")
    return BoundaryFunction(BoundaryGrid(m, offset), samples)
