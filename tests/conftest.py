import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from modelspace import BoundaryFunction, ZeroSequence, pseudohyperbolic_distance


def separated_points(rng, n, max_modulus=0.9, min_separation=0.3):
    """Rejection-sample n points with pairwise pseudohyperbolic separation."""
    pts = []
    while len(pts) < n:
        z = complex(rng.uniform(-max_modulus, max_modulus),
                    rng.uniform(-max_modulus, max_modulus))
        if abs(z) > max_modulus:
            continue
        if all(pseudohyperbolic_distance(z, p) >= min_separation for p in pts):
            pts.append(z)
    return np.array(pts)


def random_zero_sequence(rng, n, max_modulus=0.9, min_separation=0.3):
    return ZeroSequence(separated_points(rng, n, max_modulus, min_separation))


def mp_rung_derivatives(points):
    """D[j][n - 1] = B_n'(z_j) for every rung n > j, as mpmath numbers at the
    working precision: the product rule b_j'(z_j) prod_{k < n, k != j} b_k(z_j)
    over the double inputs taken exactly (None below the diagonal)."""
    pts = [mpmath.mpc(complex(z)) for z in points]
    rows = []
    for j, zj in enumerate(pts):
        row, running = [None] * len(pts), mpmath.mpc(1)
        for k, zk in enumerate(pts):
            unit = mpmath.mpc(-1) if zk == 0 else abs(zk) / zk
            if k == j:
                running *= -unit / (1 - abs(zj) ** 2)
            else:
                running *= unit * (zk - zj) / (1 - mpmath.conj(zk) * zj)
            if k >= j:
                row[k] = running
        rows.append(row)
    return rows


def kernel_combination(grid, points, coeffs):
    """Samples of sum_j c_j / (1 - conj(z_j) z), an element of the model space."""
    points = np.asarray(points, dtype=complex)
    coeffs = np.asarray(coeffs, dtype=complex)
    samples = (1.0 / (1.0 - np.conj(points)[None, :] * grid.nodes[:, None])) @ coeffs
    return BoundaryFunction(grid, samples)


def arc_oscillation_divided(ext, length, offsets):
    """Largest mean absolute deviation on the arcs of one length at the
    offsets, with every mean a division by the length and in 2^18-entry
    chunks: the exact-arc form of bmo_norm before cache-sized chunks and
    reciprocal products."""
    win = np.lib.stride_tricks.sliding_window_view(ext, length)
    step = max(1, (1 << 18) // length)
    best = 0.0
    for lo in range(0, offsets.size, step):
        w = win[offsets[lo : lo + step]]
        mu = w.mean(axis=1)
        dev = np.abs(w - mu[:, None]).mean(axis=1)
        best = max(best, float(dev.max()))
    return best


def rms_pruned_bmo(f, exact):
    """bmo_norm before the sub-arc bound, in its division form: the RMS bound
    alone picks the arcs that exact(ext, length, offsets) evaluates.  With
    bmo_norm's rule, the prefix sums are of c 2^-e, e the binary exponent of
    max|c|, and an arc of length L is evaluated when its bound exceeds the
    running maximum less (log2 L + 2) 4 eps (|mean| + max|c|), both scaled
    by 2^-e."""
    s = f.samples
    M = s.size
    mean = complex(np.mean(s))
    ext = np.concatenate([s, s])
    top_c = float(np.abs(ext[:M] - mean).max())
    e = math.frexp(top_c)[1]
    c = np.ldexp((ext - mean).view(float), -e).view(complex)
    p1 = np.concatenate([[0.0], np.cumsum(c)])
    p2 = np.concatenate([[0.0], np.cumsum(c.real**2 + c.imag**2)])
    lengths = 4 << np.arange(f.grid.m - 1)
    bound = np.empty((lengths.size, M))
    for row, length in zip(bound, lengths):
        mu = (p1[length : length + M] - p1[:M]) / length
        var = (p2[length : length + M] - p2[:M]) / length - (mu.real**2 + mu.imag**2)
        slack = 16 * np.finfo(float).eps * (p2[-1] / length + p2[M] / M)
        np.sqrt(np.maximum(var, 0.0) + slack, out=row)
    drift = 4 * np.finfo(float).eps * (abs(mean) + top_c)
    top, offset = divmod(int(bound.argmax()), M)
    best = exact(ext, int(lengths[top]), np.array([offset]))
    for row, length in zip(bound, lengths):
        margin = best - (math.log2(length) + 2) * drift
        offsets = np.flatnonzero(row > (math.ldexp(margin, -e) if margin > 0 else -1.0))
        best = max(best, exact(ext, int(length), offsets))
    return abs(mean) + best


def division_form_bmo(f):
    """bmo_norm's value with every arc mean a division by the arc length."""
    return rms_pruned_bmo(f, arc_oscillation_divided)


def spectrum_defect(spec: np.ndarray) -> float:
    """h2_defect through a whole FFT-order spectrum: one M-float |X|^2 array,
    the energy of modes -M/2 .. -1 over the total (0.0 for a zero spectrum)."""
    power = np.abs(spec)
    np.square(power, out=power)
    total = float(np.sum(power))
    if total == 0.0:
        return 0.0
    return float(np.sum(power[spec.size // 2 :])) / total


# largest relative gap allowed between h2_defect and spectrum_defect of the same
# function's full spectrum: the full route rounds once more, in the grid phase,
# and at most 3.5 eps was measured over random, near-H2 and kernel-interpolant
# inputs at m = 4 .. 18 on both offsets
DEFECT_RTOL = 8 * np.finfo(float).eps


def formula_phase(grid) -> np.ndarray:
    """The grid's FFT phase exp(-2 pi i k offset / M) at every mode k, in FFT
    order, from its defining formula (1 + 0j at every mode of a plain grid)."""
    M = grid.size
    modes = np.fft.fftfreq(M, 1.0 / M).astype(int)
    return np.exp(-2j * np.pi * modes * grid.offset / M)


def formula_twiddles(size: int) -> np.ndarray:
    """The twiddles exp(-2 pi i k / size), k < size / 2, of a radix-2 step of
    size points, from their defining formula."""
    return np.exp(-2j * np.pi * np.arange(size // 2) / size)


def transient_peak(fn) -> int:
    """Bytes allocated at the peak of fn() beyond what was live when it started."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
