import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import modelspace.experiments
import modelspace.interp
from conftest import kernel_combination, random_zero_sequence, transient_peak
from modelspace import (
    BlaschkeProduct,
    BoundaryFunction,
    BoundaryGrid,
    ValueSequence,
    ZeroSequence,
    cauchy_eval,
    conjugate_matrix,
    conjugate_sequence,
    eval_product,
    exp_dichotomy,
    exp_sublevel,
    generate_sequence,
    invert_conjugate,
    kernel_interpolant,
    lagrange_interpolant,
    log_samples,
    membership_defect,
    model_project,
    residue_identity_check,
    trace,
)
from modelspace.blaschke import all_derivatives


def _zeros(*points):
    return ZeroSequence(list(points))


def test_cauchy_eval_examples():
    grid = BoundaryGrid(12)
    c = BoundaryFunction.constant(grid, 2.5 - 1j)
    assert cauchy_eval(c, 0.3 + 0.4j) == pytest.approx(2.5 - 1j, abs=1e-12)

    z2 = BoundaryFunction.from_callable(grid, lambda z: z ** 2)
    assert cauchy_eval(z2, 0.5) == pytest.approx(0.25, abs=1e-13)

    kernel = BoundaryFunction.from_callable(grid, lambda z: 1.0 / (1 - 0.5 * z))
    assert cauchy_eval(kernel, 0.9) == pytest.approx(1.0 / (1 - 0.45), abs=1e-9)

    zbar = BoundaryFunction.from_callable(grid, np.conj)
    with pytest.raises(ValueError):
        cauchy_eval(zbar, 0.1)


def test_cauchy_eval_kernels_inside_disk(rng):
    grid = BoundaryGrid(12)
    for zj in (0.9, -0.6 + 0.3j, 0.8j):
        kernel = BoundaryFunction.from_callable(grid, lambda z: 1.0 / (1 - np.conj(zj) * z))
        for z in (0.95, -0.95j, 0.6 + 0.7j):
            assert abs(cauchy_eval(kernel, z) - 1.0 / (1 - np.conj(zj) * z)) < 1e-9


def _horner(f, z):
    # the M/2-step Horner loop cauchy_eval replaced, kept as its oracle
    z = np.asarray(z, dtype=complex)
    out = np.zeros(z.shape, dtype=complex)
    for c in f.spectrum[: f.grid.size // 2][::-1]:
        out = out * z + c
    return out


def _assert_matches_horner(f, z):
    got, expected = cauchy_eval(f, z, tol=1e-2), _horner(f, z)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def _analytic(m, seed):
    # random coefficients on the modes 0 .. M/2 - 1, none on the negative modes
    grid = BoundaryGrid(m)
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
    spec = np.where(grid.modes >= 0, coeffs, 0.0)
    return BoundaryFunction.from_spectrum(grid, spec)


def _disk_points(rng, count):
    # scattered interior points, a few within 1e-3 of the circle, and 4 on it
    r = np.concatenate([rng.uniform(0.0, 0.999, count), 1.0 - rng.uniform(0, 1e-3, 8)])
    pts = r * np.exp(2j * np.pi * rng.uniform(size=r.size))
    return np.concatenate([pts, np.exp(2j * np.pi * rng.uniform(size=4))])


def test_cauchy_eval_matches_horner_on_sublevel_lattice(monkeypatch):
    # the points exp_sublevel evaluates for q = 0.7, n = 12 at m = 12 (CLI defaults)
    calls = []

    def recording(f, z, tol):
        calls.append((f, z))
        return cauchy_eval(f, z, tol=tol)

    monkeypatch.setattr(modelspace.experiments, "cauchy_eval", recording)
    zeros = generate_sequence("rotated_radial", q=0.7, n=12, angle_step=0.0)
    f = kernel_combination(BoundaryGrid(12), zeros.points, np.full(12, 1.0 / 12))
    exp_sublevel(zeros, f)
    [(seen, lattice)] = calls
    assert seen is f and lattice.size > 1000
    _assert_matches_horner(f, lattice)


def test_cauchy_eval_matches_horner_deep_grid():
    # the q = 0.5, n = 12 zeros at m = 17, where M (1 - max|z_j|) = 32
    zeros = generate_sequence("rotated_radial", q=0.5, n=12, angle_step=0.0)
    grid = BoundaryGrid(17, offset=0.5)
    _assert_matches_horner(log_samples(grid), zeros.points)
    kernels = kernel_combination(grid, zeros.points[-3:], [1.0, -2.0j, 0.5])
    _assert_matches_horner(kernels, zeros.points)


@pytest.mark.parametrize("m", [4, 13])
def test_cauchy_eval_matches_horner_block_shapes(m, rng, monkeypatch):
    # m = 4 has baby blocks of K = 2; odd m = 13 has K = 64 and 64 giant steps
    f, pts = _analytic(m, m), _disk_points(rng, 200)
    _assert_matches_horner(f, pts)
    # chunks of 80 (m = 4) or 5 (m = 13) of the 212 points, the last one short
    monkeypatch.setattr(modelspace.interp, "_TABLE_ENTRIES", 320)
    _assert_matches_horner(f, pts)


def test_cauchy_eval_origin_and_shapes(rng):
    f = _analytic(12, 1)
    assert cauchy_eval(f, 0.0) == f.spectrum[0]
    assert isinstance(cauchy_eval(f, 0.5j), complex)
    pts = _disk_points(rng, 12).reshape(4, 6)
    got = cauchy_eval(f, pts)
    assert got.shape == (4, 6)
    assert np.array_equal(got.reshape(-1), cauchy_eval(f, pts.reshape(-1)))


def test_cauchy_eval_rejects_points_outside_disk():
    grid = BoundaryGrid(12)
    f = _analytic(12, 2)
    for bad in (1.0 + 1e-9, 2.0j, np.array([0.1, 0.5 + 0.9j]), np.nan):
        with pytest.raises(ValueError):
            cauchy_eval(f, bad)
    on_circle = cauchy_eval(f, grid.nodes[:64])  # |z| = 1 up to rounding stays legal
    assert np.allclose(on_circle, f.samples[:64], atol=1e-10)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(
    m=st.integers(4, 12),
    seed=st.integers(0, 2**32 - 1),
    radii=st.lists(st.floats(0.0, 0.999), min_size=1, max_size=16),
    angle=st.floats(0.0, 2 * np.pi),
)
def test_cauchy_eval_matches_horner_property(m, seed, radii, angle):
    pts = np.array(radii) * np.exp(1j * (angle + np.arange(len(radii))))
    _assert_matches_horner(_analytic(m, seed), pts)


def test_trace_examples():
    zeros = _zeros(0, 0.5)
    assert np.allclose(trace(lambda z: np.ones_like(z), zeros).values, 1.0)

    product = BlaschkeProduct(zeros)
    assert np.max(np.abs(trace(lambda z: eval_product(product, z), zeros).values)) < 1e-15

    got = trace(lambda z: 1.0 / (1 - 0.5 * z), zeros)
    assert np.allclose(got.values, [1.0, 4.0 / 3.0], atol=1e-14)


def test_trace_of_boundary_function():
    grid = BoundaryGrid(12)
    f = BoundaryFunction.from_callable(grid, lambda z: 1.0 / (1 - 0.5 * z))
    got = trace(f, _zeros(0, 0.5))
    assert np.allclose(got.values, [1.0, 4.0 / 3.0], atol=1e-10)


def test_conjugate_sequence_examples(rng):
    single = _zeros(0)
    w = ValueSequence([3.0 - 2.0j])
    assert np.allclose(conjugate_sequence(single, w).values, w.values, atol=1e-14)

    zeros = _zeros(0, 0.5)
    got = conjugate_sequence(zeros, ValueSequence([1, 0]))
    assert np.allclose(got.values, [2.0, 2.0], atol=1e-13)

    w1 = ValueSequence(rng.normal(size=2) + 1j * rng.normal(size=2))
    w2 = ValueSequence(rng.normal(size=2) + 1j * rng.normal(size=2))
    a, b = 1.3 - 0.2j, -0.7j
    lhs = conjugate_sequence(zeros, ValueSequence(a * w1.values + b * w2.values)).values
    rhs = a * conjugate_sequence(zeros, w1).values + b * conjugate_sequence(zeros, w2).values
    assert np.max(np.abs(lhs - rhs)) < 1e-12

    with pytest.raises(ValueError):
        conjugate_sequence(zeros, ValueSequence([1.0]))


def test_invert_conjugate_examples(rng):
    single = _zeros(0)
    w = ValueSequence([1.5 + 0.5j])
    assert np.allclose(invert_conjugate(single, w).values, w.values, atol=1e-14)

    zeros = _zeros(0, 0.5)
    got = invert_conjugate(zeros, ValueSequence([2, 2]))
    assert np.allclose(got.values, [1.0, 0.0], atol=1e-12)

    for n in (3, 8, 12):
        z = random_zero_sequence(rng, n)
        w = ValueSequence(rng.normal(size=n) + 1j * rng.normal(size=n))
        back = invert_conjugate(z, conjugate_sequence(z, w))
        assert np.max(np.abs(back.values - w.values)) < 1e-8


def test_invert_conjugate_ill_conditioning():
    zeros = _zeros(0.5, 0.5 + 1e-9)
    assert np.linalg.cond(conjugate_matrix(zeros)) > 1e12
    with pytest.raises(ValueError):
        invert_conjugate(zeros, ValueSequence([1.0, 2.0]))


def test_lagrange_examples():
    one = lagrange_interpolant(_zeros(0), ValueSequence([1.0]))
    pts = np.array([0.0, 0.3 - 0.2j, 0.8j])
    assert np.allclose(one(pts), 1.0, atol=1e-14)

    f = lagrange_interpolant(_zeros(0, 0.5), ValueSequence([0.0, 1.0]))
    zs = np.array([0.1, -0.5j, 0.6 + 0.2j, 0.9])
    closed = 1.5 * zs / (1 - 0.5 * zs)
    assert np.max(np.abs(f(zs) - closed)) < 1e-13
    assert f(0.0) == pytest.approx(0.0, abs=1e-15)
    assert f(0.5) == pytest.approx(1.0, abs=1e-14)


def test_lagrange_random_residuals(rng):
    for _ in range(10):
        n = int(rng.integers(2, 13))
        zeros = random_zero_sequence(rng, n)
        w = ValueSequence(rng.normal(size=n) + 1j * rng.normal(size=n))
        f = lagrange_interpolant(zeros, w)
        assert np.max(np.abs(f(zeros.points) - w.values)) < 1e-8
        # evaluation right next to a node is finite and close to the node value
        nudged = zeros.points[0] + 1e-10
        assert abs(f(nudged) - w.values[0]) < 1e-6


def test_lagrange_membership(rng):
    grid = BoundaryGrid(12)
    zeros = random_zero_sequence(rng, 6)
    w = ValueSequence(rng.normal(size=6))
    sampled = lagrange_interpolant(zeros, w).sample(grid)
    theta = BlaschkeProduct(zeros).sample(grid)
    assert membership_defect(sampled, "K2", theta) < 1e-9


def test_kernel_interpolant_examples(rng):
    rep = kernel_interpolant(_zeros(0), ValueSequence([1.0]))
    assert np.allclose(rep.coefficients, [1.0])
    assert rep(0.77) == pytest.approx(1.0, abs=1e-14)

    zeros = _zeros(0, 0.5)
    w = ValueSequence([1.0, 0.0])
    via_kernel = kernel_interpolant(zeros, w)
    via_lagrange = lagrange_interpolant(zeros, w)
    zs = np.array([0.2, 0.5j, -0.4 - 0.3j])
    assert np.max(np.abs(via_kernel(zs) - via_lagrange(zs))) < 1e-12


def test_two_routes_agree_on_boundary(rng):
    grid = BoundaryGrid(10)
    for _ in range(5):
        n = int(rng.integers(2, 11))
        zeros = random_zero_sequence(rng, n)
        w = ValueSequence(rng.normal(size=n) + 1j * rng.normal(size=n))
        a = lagrange_interpolant(zeros, w).sample(grid)
        b = kernel_interpolant(zeros, w).sample(grid)
        assert np.max(np.abs(a.samples - b.samples)) < 1e-7


def _prefix_suffix_lagrange(zeros, values, z):
    # the prefix/suffix-product Lagrange form the running sum replaced, kept
    # as its oracle: (n + 1) x M prefix and suffix products of the factors
    z = np.asarray(z, dtype=complex).reshape(-1)
    pts, n = zeros.points, len(zeros)
    units = np.array([abs(p) / p if p != 0 else -1.0 for p in pts])
    factors = np.array([u * (p - z) / (1.0 - np.conj(p) * z) for u, p in zip(units, pts)])
    prefix = np.ones((n + 1, z.size), dtype=complex)
    suffix = np.ones((n + 1, z.size), dtype=complex)
    for j in range(n):
        prefix[j + 1] = prefix[j] * factors[j]
        suffix[n - 1 - j] = suffix[n - j] * factors[n - 1 - j]
    bp = all_derivatives(BlaschkeProduct(zeros))
    core = -units[:, None] / (1.0 - np.conj(pts)[:, None] * z[None, :])
    return np.sum((values / bp)[:, None] * core * prefix[:-1] * suffix[1:], axis=0)


def _kernel_matrix_eval(points, coeffs, z):
    # the M x n kernel-matrix form the per-zero sum replaced, kept as its oracle
    z = np.asarray(z, dtype=complex).reshape(-1)
    return (1.0 / (1.0 - np.conj(points)[None, :] * z[:, None])) @ coeffs


def _assert_matches_oracles(zeros, values, z):
    lagrange = lagrange_interpolant(zeros, values)
    kernel = kernel_interpolant(zeros, values)
    for got, expected in (
        (lagrange(z), _prefix_suffix_lagrange(zeros, values.values, z)),
        (kernel(z), _kernel_matrix_eval(zeros.points, kernel.coefficients, z)),
    ):
        got = np.asarray(got).reshape(-1)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def _deep_instance(seed=0):
    # the q = 0.5, n = 12 zeros resolved at m = 17, with complex normal values
    rng = np.random.default_rng(seed)
    zeros = generate_sequence("rotated_radial", q=0.5, n=12, angle_step=0.2)
    return zeros, ValueSequence(rng.normal(size=12) + 1j * rng.normal(size=12))


@pytest.mark.parametrize("m", [4, 12, 17])
@pytest.mark.parametrize("offset", [0.0, 0.5])
def test_interpolant_samples_match_oracles(m, offset):
    zeros, values = _deep_instance(m)
    grid = BoundaryGrid(m, offset)
    _assert_matches_oracles(zeros, values, grid.nodes)
    for rep in (lagrange_interpolant(zeros, values), kernel_interpolant(zeros, values)):
        sampled = rep.sample(grid)
        assert sampled.grid is grid
        assert np.array_equal(sampled.samples, rep(grid.nodes))


def test_interpolant_interior_matches_oracles(rng):
    zeros, values = _deep_instance()
    r = np.sqrt(rng.uniform(0.0, 0.999**2, 500))
    inside = np.concatenate([zeros.points, r * np.exp(2j * np.pi * rng.uniform(size=r.size))])
    _assert_matches_oracles(zeros, values, inside)
    # the running sum is exact at the zeros: no factor is ever divided out
    at_zeros = lagrange_interpolant(zeros, values)(zeros.points)
    assert np.max(np.abs(at_zeros - values.values)) <= 1e-12 * np.max(np.abs(values.values))
    assert lagrange_interpolant(zeros, values)(zeros.points[3]) == pytest.approx(
        values.values[3], abs=1e-12
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    m=st.integers(4, 10),
    n=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
    radii=st.lists(st.floats(0.0, 0.999), min_size=1, max_size=8),
)
def test_interpolant_matches_oracles_property(m, n, seed, radii):
    rng = np.random.default_rng(seed)
    zeros = random_zero_sequence(rng, n)
    values = ValueSequence(rng.normal(size=n) + 1j * rng.normal(size=n))
    inside = np.array(radii) * np.exp(2j * np.pi * rng.uniform(size=len(radii)))
    grid = BoundaryGrid(m, 0.5 * (seed % 2))
    _assert_matches_oracles(zeros, values, np.concatenate([grid.nodes, inside, zeros.points]))


def test_lagrange_raises_at_reflected_pole():
    # 1 - conj(z_j) z is exactly 0 at z = 1 / conj(z_j) for these zeros
    zeros = _zeros(0.5, 0.25j)
    f = lagrange_interpolant(zeros, ValueSequence([1.0, 2.0j]))
    for pole in (2.0, 4.0j, np.array([0.1, 2.0])):
        with pytest.raises(ZeroDivisionError):
            f(pole)


def test_deep_sampling_memory_is_linear_in_grid_size():
    # m = 17, n = 12: eight length-M complex arrays (16 MB) bound each
    # transient peak; an n x M complex array alone would take 24 MB
    zeros, values = _deep_instance()
    grid = BoundaryGrid(17)
    bound = 8 * grid.size * 16
    lagrange = lagrange_interpolant(zeros, values)
    kernel = kernel_interpolant(zeros, values)
    assert transient_peak(lambda: lagrange.sample(grid)) <= bound
    assert transient_peak(lambda: kernel.sample(grid)) <= bound
    assert transient_peak(lambda: exp_dichotomy(zeros, values, m=17)) <= bound


def test_interpolant_orthogonal_to_shifted_product(rng):
    grid = BoundaryGrid(12)
    zeros = random_zero_sequence(rng, 8)
    w = ValueSequence(rng.normal(size=8))
    f = lagrange_interpolant(zeros, w).sample(grid)
    theta = BlaschkeProduct(zeros).sample(grid)
    pairing = f * theta.conj()
    modes = pairing.grid.modes
    sel = (modes >= 0) & (modes <= grid.size // 4)
    assert np.max(np.abs(pairing.spectrum[sel])) < 1e-8


def test_projection_consistency(rng):
    # projecting any interpolating extension reproduces the interpolant
    grid = BoundaryGrid(12)
    zeros = random_zero_sequence(rng, 5)
    w = ValueSequence(rng.normal(size=5))
    interp = lagrange_interpolant(zeros, w).sample(grid)
    theta = BlaschkeProduct(zeros).sample(grid)
    poly = BoundaryFunction.from_callable(grid, lambda z: 0.3 - 0.8 * z + 0.1 * z ** 4)
    extension = interp + theta * poly
    projected = model_project(theta, extension)
    assert np.max(np.abs(projected.samples - interp.samples)) < 1e-9


def test_transform_independent_of_route(rng):
    zeros = random_zero_sequence(rng, 6)
    w = ValueSequence(rng.normal(size=6) + 1j * rng.normal(size=6))
    direct = conjugate_sequence(zeros, w).values
    via_trace = conjugate_sequence(
        zeros, trace(kernel_interpolant(zeros, w), zeros)
    ).values
    assert np.max(np.abs(direct - via_trace)) < 1e-8


def test_representation_validation():
    zeros = _zeros(0, 0.5)
    with pytest.raises(ValueError):
        lagrange_interpolant(zeros, ValueSequence([1.0]))
    from modelspace import InterpolantRepresentation

    with pytest.raises(ValueError):
        InterpolantRepresentation(zeros, np.array([1.0, 2.0]), "fourier")
    rep = kernel_interpolant(zeros, ValueSequence([1.0, 2.0]))
    d = rep.to_dict()
    assert d["form"] == "kernel_basis"
    assert len(d["coefficients"]) == 2


def test_residue_identity_examples(rng):
    single = residue_identity_check(_zeros(0), ValueSequence([2.0 - 1.0j]), m=10)
    assert single.scalars["max_discrepancy"] < 1e-10

    hand = residue_identity_check(_zeros(0, 0.5), ValueSequence([1.0, 0.0]), m=12)
    assert hand.scalars["max_discrepancy"] < 1e-8
    assert np.allclose(np.asarray(hand.series["conjugate_values"]), [2.0, 2.0], atol=1e-12)

    for _ in range(5):
        n = int(rng.integers(2, 11))
        zeros = random_zero_sequence(rng, n)
        w = ValueSequence(rng.normal(size=n) + 1j * rng.normal(size=n))
        report = residue_identity_check(zeros, w, m=12)
        assert report.scalars["max_discrepancy"] < 1e-7
