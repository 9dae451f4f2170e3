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
