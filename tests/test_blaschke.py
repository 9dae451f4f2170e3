import numpy as np
import pytest

from conftest import transient_peak
from modelspace import (
    BlaschkeProduct,
    BoundaryFunction,
    BoundaryGrid,
    ZeroSequence,
    all_derivatives,
    blaschke_factor,
    diagnose,
    eval_product,
    frostman_sum,
    frostman_sup,
    generate_sequence,
    interpolation_delta,
    sublevel_indicator,
)


def _product(*points):
    return BlaschkeProduct(ZeroSequence(list(points)))


def test_factor_examples():
    assert blaschke_factor(0, 0.3) == pytest.approx(0.3, abs=1e-15)
    assert blaschke_factor(0.5, 0) == pytest.approx(0.5, abs=1e-15)
    zeta = np.exp(1j * np.linspace(0, 2 * np.pi, 17)[:-1])
    assert np.allclose(np.abs(blaschke_factor(0.5, zeta)), 1.0, atol=1e-14)


def test_eval_product_examples():
    assert eval_product(_product(0), 0.3) == pytest.approx(0.3, abs=1e-15)
    assert eval_product(_product(0.5), 0) == pytest.approx(0.5, abs=1e-15)
    grid = np.exp(2j * np.pi * np.arange(512) / 512)
    vals = eval_product(_product(0, 0.5), grid)
    assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-12


def test_eval_product_raises_at_reflected_pole():
    # 1 - conj(z_j) z is exactly 0 at z = 1 / conj(z_j) for these zeros
    product = _product(0.5, 0.25j)
    for pole in (2.0, 4.0j):
        with pytest.raises(ZeroDivisionError):
            eval_product(product, pole)
        with pytest.raises(ZeroDivisionError):
            eval_product(product, np.array([0.3, pole]))
    with pytest.raises(ZeroDivisionError):
        blaschke_factor(0.5, 2.0)


@pytest.mark.parametrize("m, offset", [(4, 0.0), (10, 0.5), (15, 0.0)])
def test_product_sample_matches_pointwise_evaluation(m, offset, rng):
    grid = BoundaryGrid(m, offset)
    product = BlaschkeProduct(generate_sequence("rotated_radial", q=0.6, n=9, angle_step=0.2))
    sampled = product.sample(grid)
    assert isinstance(sampled, BoundaryFunction) and sampled.grid is grid
    assert np.array_equal(sampled.samples, eval_product(product, grid.nodes))
    # the factors one at a time, out of place, give the same product to rounding
    direct = np.prod([blaschke_factor(zj, grid.nodes) for zj in product.zeros], axis=0)
    assert np.max(np.abs(sampled.samples - direct)) < 1e-14
    assert np.max(np.abs(np.abs(sampled.samples) - 1.0)) < 1e-13


def test_unimodularity_many_zeros(rng):
    pts = rng.uniform(0.05, 0.93, 64) * np.exp(2j * np.pi * rng.uniform(0, 1, 64))
    product = BlaschkeProduct(ZeroSequence(pts))
    grid = np.exp(2j * np.pi * np.arange(1024) / 1024)
    assert np.max(np.abs(np.abs(eval_product(product, grid)) - 1.0)) < 1e-11


def test_derivative_examples():
    assert all_derivatives(_product(0))[0] == pytest.approx(1.0, abs=1e-15)
    assert all_derivatives(_product(0.5))[0] == pytest.approx(-4.0 / 3.0, abs=1e-15)
    b = _product(0, 0.5)
    assert all_derivatives(b)[0] == pytest.approx(0.5, abs=1e-14)


def test_derivative_matches_finite_differences(rng):
    pts = [0.1 + 0.2j, -0.4, 0.3 - 0.5j, 0.6j]
    product = _product(*pts)
    h = 1e-6
    for zj, exact in zip(product.zeros.points, all_derivatives(product)):
        fd = (eval_product(product, zj + h) - eval_product(product, zj - h)) / (2 * h)
        assert abs(fd - exact) / abs(exact) < 1e-5


def test_delta_examples():
    assert interpolation_delta(_product(0)) == pytest.approx(1.0, abs=1e-15)
    assert interpolation_delta(_product(0.5)) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_delta_single_zero_closed_form(rng):
    for _ in range(20):
        z1 = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        got = interpolation_delta(_product(z1))
        assert got == pytest.approx(1.0 / (1.0 + abs(z1)), abs=1e-12)


def test_delta_radial_matches_bruteforce():
    zeros = generate_sequence("rotated_radial", q=0.5, n=10)
    product = BlaschkeProduct(zeros)
    # independent route: per-zero python loop over the remaining factors
    best = np.inf
    for j, zj in enumerate(zeros.points):
        rest = 1.0 + 0.0j
        for k, zk in enumerate(zeros.points):
            if k != j:
                rest *= blaschke_factor(zk, zj)
        own = -(abs(zj) / zj if zj != 0 else -1.0) / (1.0 - abs(zj) ** 2)
        best = min(best, abs(own * rest) * (1.0 - abs(zj)))
    got = interpolation_delta(product)
    assert got > 0
    assert got == pytest.approx(best, abs=1e-10)


def test_frostman_sum_examples():
    origin = ZeroSequence([0])
    for zeta in (1, -1, 1j, np.exp(0.3j)):
        assert frostman_sum(origin, zeta) == pytest.approx(1.0, abs=1e-12)
    half = ZeroSequence([0.5])
    assert frostman_sum(half, 1) == pytest.approx(1.0, abs=1e-15)
    assert frostman_sum(half, -1) == pytest.approx(1.0 / 3.0, abs=1e-15)
    with pytest.raises(ValueError):
        frostman_sum(half, 0.5)  # not on the circle


def test_frostman_sup_examples():
    origin = ZeroSequence([0])
    for grid_size in (16, 64, 1024):
        assert frostman_sup(origin, grid_size) == pytest.approx(1.0, abs=1e-9)
    half = ZeroSequence([0.5])
    assert frostman_sup(half, 1024) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        frostman_sup(half, 8)


def test_frostman_sup_radial_growth():
    # along the ray every term contributes 1 at zeta = 1
    sups = [frostman_sup(generate_sequence("rotated_radial", q=0.5, n=n), 1024)
            for n in (4, 8, 12)]
    assert sups[0] == pytest.approx(4.0, rel=1e-6)
    assert sups[2] == pytest.approx(12.0, rel=1e-6)
    assert sups[0] < sups[1] < sups[2]


def test_frostman_sup_grid_refinement_monotone(rng):
    zeros = generate_sequence("rotated_radial", q=0.6, n=7, angle_step=2.0)
    for grid_size in (64, 256, 1024):
        a = frostman_sup(zeros, grid_size)
        b = frostman_sup(zeros, 2 * grid_size)
        assert a <= b + 1e-9


def test_frostman_sup_memory_is_linear_in_grid_size():
    # M = 2**17 nodes, 48 zeros: eight length-M float arrays (8 MB) bound the
    # transient peak; a grid-by-zeros distance matrix alone would take 50 MB
    zeros = generate_sequence("rotated_radial", q=0.8, n=48, angle_step=0.37)
    grid_size = 1 << 17
    sup = []
    assert transient_peak(lambda: sup.append(frostman_sup(zeros, grid_size))) <= 8 * grid_size * 8
    assert sup[0] >= frostman_sum(zeros, 1.0) - 1e-9


def test_sublevel_examples():
    b0 = _product(0)
    assert sublevel_indicator(b0, 0.5, 0.3) is True
    assert sublevel_indicator(b0, 0.5, 0.7) is False
    assert sublevel_indicator(_product(0.5), 0.1, 0.5) is True
    with pytest.raises(ValueError):
        sublevel_indicator(b0, 1.5, 0.3)


def test_diagnose_report_keys():
    report = diagnose(generate_sequence("rotated_radial", q=0.5, n=5), grid_size=512)
    assert set(report.scalars) == {"delta", "frostman_sup", "blaschke_sum", "min_separation"}
    assert report.scalars["delta"] > 0
