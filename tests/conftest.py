import tracemalloc

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
