import json

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import modelspace.blaschke
import modelspace.core
import modelspace.interp
from conftest import kernel_combination, mp_rung_derivatives, random_zero_sequence, transient_peak
from modelspace import (
    BlaschkeProduct,
    BoundaryFunction,
    BoundaryGrid,
    SmoothnessDescriptor,
    ValueSequence,
    ZeroSequence,
    blaschke_factor,
    cauchy_eval,
    classify_trace,
    conjugate_matrix,
    conjugate_sequence,
    eval_product,
    exp_dichotomy,
    generate_sequence,
    invert_conjugate,
    kernel_interpolant,
    lagrange_interpolant,
    log_growth_check,
    log_samples,
    membership_defect,
    model_project,
    residue_identity_check,
    tilde,
    trace,
)
from modelspace.blaschke import POINT_BLOCK, all_derivatives, sublevel_indicator
from modelspace.experiments import SUBLEVEL_ANGLES, SUBLEVEL_DEPTH
from modelspace.interp import WARN_CONDITION, _polar_lattice_eval


def _zeros(*points):
    return ZeroSequence(list(points))


def test_cauchy_eval_examples():
    grid = BoundaryGrid(12)
    c = BoundaryFunction(grid, np.full(grid.size, 2.5 - 1j))
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


def _sublevel_radii():
    # exp_sublevel's 48 default radii, geometrically refined toward the circle
    return 1.0 - np.geomspace(0.5, SUBLEVEL_DEPTH, 48)


def test_cauchy_eval_matches_horner_on_sublevel_lattice():
    # the masked polar lattice of exp_sublevel for q = 0.7, n = 12 at m = 12
    # (CLI defaults)
    angles = 2.0 * np.pi * np.arange(SUBLEVEL_ANGLES) / SUBLEVEL_ANGLES
    lattice = (_sublevel_radii()[:, None] * np.exp(1j * angles[None, :])).reshape(-1)
    zeros = generate_sequence("rotated_radial", q=0.7, n=12, angle_step=0.0)
    lattice = lattice[sublevel_indicator(BlaschkeProduct(zeros), 0.5, lattice)]
    f = kernel_combination(BoundaryGrid(12), zeros.points, np.full(12, 1.0 / 12))
    assert lattice.size > 1000
    _assert_matches_horner(f, lattice)


@pytest.mark.parametrize("offset", [0.0, 0.5])
@pytest.mark.parametrize("m", [8, 10, 12, 17])
def test_polar_lattice_eval_matches_horner(m, offset):
    # every point of exp_sublevel's lattice, for the inputs of the sublevel
    # and nonduality pipelines (the CLI's mean kernel, the projected log);
    # M/2 < SUBLEVEL_ANGLES at m = 8, where the spectrum is zero-padded to one
    # fold.  Random unit coefficients would not do: near the circle their sum
    # moves by 3e-12 relative under the rounding of the points exp(2 pi i k/A)
    grid, radii = BoundaryGrid(m, offset), _sublevel_radii()
    zeros = generate_sequence("rotated_radial", q=0.7, n=12, angle_step=0.0)
    if offset:
        f = log_samples(grid)
    else:
        f = kernel_combination(grid, zeros.points, np.full(12, 1.0 / 12))
    got = _polar_lattice_eval(f, radii, SUBLEVEL_ANGLES, tol=1e-2)
    k = np.arange(SUBLEVEL_ANGLES)
    expected = _horner(f, radii[:, None] * np.exp(2j * np.pi * k / SUBLEVEL_ANGLES))
    assert got.shape == expected.shape == (48, SUBLEVEL_ANGLES)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


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
    monkeypatch.setattr(modelspace.core, "CHUNK_ENTRIES", 320)
    _assert_matches_horner(f, pts)


def test_cauchy_eval_origin_and_shapes(rng):
    f = _analytic(12, 1)
    assert cauchy_eval(f, 0.0) == f.spectrum[0]
    assert isinstance(cauchy_eval(f, 0.5j), complex)
    pts = _disk_points(rng, 12).reshape(4, 6)
    got = cauchy_eval(f, pts)
    assert got.shape == (4, 6)
    assert np.array_equal(got.reshape(-1), cauchy_eval(f, pts.reshape(-1)))


def _evaluator(name):
    # one public evaluator of points, as a function of the points alone
    zeros, values = _zeros(0.5, 0.25j), ValueSequence([1.0, 2.0j])
    product, f = BlaschkeProduct(zeros), _analytic(12, 2)
    return {
        "eval_product": lambda z: eval_product(product, z),
        "blaschke_factor": lambda z: blaschke_factor(0.5, z),
        "lagrange": lagrange_interpolant(zeros, values),
        "kernel_basis": kernel_interpolant(zeros, values),
        "sublevel_indicator": lambda z: sublevel_indicator(product, 0.5, z),
        "cauchy_eval": lambda z: cauchy_eval(f, z),
    }[name]


EVALUATORS = ["eval_product", "blaschke_factor", "lagrange", "kernel_basis",
              "sublevel_indicator", "cauchy_eval"]


@pytest.mark.parametrize("name", EVALUATORS)
def test_every_evaluator_rejects_points_outside_disk(name, rng):
    # every evaluator takes the closed disk, up to 4 eps of rounding, and
    # nothing else: just outside, far out, the reflected poles 1 / conj(z_j)
    # of the zeros 0.5 and 0.25j, NaN, and one bad point in the second block
    evaluate = _evaluator(name)
    far = _disk_points(rng, POINT_BLOCK + 10)
    far[POINT_BLOCK + 3] = 1.0 + 1e-9
    bad = (1.0 + 1e-9, 2.0, 2.0j, 4.0j, np.array([0.1, 0.5 + 0.9j]), np.nan,
           complex(0.1, np.nan), np.array([0.3, np.nan]), far)
    for z in bad:
        with pytest.raises(ValueError, match="closed unit disk"):
            evaluate(z)
    nodes = BoundaryGrid(12).nodes[:64]
    eps = np.finfo(float).eps
    for z in (nodes, nodes * (1.0 + 2 * eps), nodes * (1.0 - 2 * eps)):
        got = evaluate(z)
        assert np.shape(got) == z.shape and np.all(np.isfinite(got))
    if name == "cauchy_eval":  # |z| = 1 up to rounding: the samples themselves
        assert np.allclose(evaluate(nodes), _analytic(12, 2).samples[:64], atol=1e-10)


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


@pytest.mark.parametrize("case", ["pair", "rotated_radial", "separated", "origin"])
def test_conjugate_matrix_matches_mpmath(case, rng):
    # A[k, j] = 1 / (B'(z_j) (1 - z_j conj(z_k))) against B'(z_j) from the
    # product rule and the kernel factor, both at 40 digits
    zeros = {
        "pair": lambda: _zeros(0.3 + 0.4j, -0.6 + 0.1j),
        "rotated_radial": lambda: generate_sequence("rotated_radial", q=0.7, n=12, angle_step=0.13),
        "separated": lambda: random_zero_sequence(rng, 10),
        "origin": lambda: _zeros(0, 0.99, -0.95j, 0.5 + 0.5j, -0.7 + 0.1j, 0.98j),
    }[case]()
    pts = zeros.points
    got = conjugate_matrix(zeros)
    with mpmath.workdps(40):
        derivative = [row[-1] for row in mp_rung_derivatives(pts)]
        mp_pts = [mpmath.mpc(complex(z)) for z in pts]
        want = np.array([[complex(1 / (derivative[j] * (1 - zj * mpmath.conj(zk))))
                          for j, zj in enumerate(mp_pts)] for zk in mp_pts])
    # B'(z_j) carries the bound of test_rung_derivatives_match_mpmath, and the
    # kernel factor its own cancellation, eps / |1 - z_j conj(z_k)| relative
    # (measured: at most 0.38 of eps times this sum, on "pair")
    derivative_cond = np.sum(1.0 + 1.0 / np.abs(1.0 - np.conj(pts)[None, :] * pts[:, None]), axis=1)
    kernel_cond = 1.0 + 1.0 / np.abs(1.0 - pts[None, :] * np.conj(pts)[:, None])
    err = np.abs(got - want) / np.abs(want)
    assert np.all(err <= 4.0 * np.finfo(float).eps * (derivative_cond[None, :] + kernel_cond))


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


@pytest.mark.parametrize("call", [
    conjugate_sequence,
    invert_conjugate,
    kernel_interpolant,
    lagrange_interpolant,
    residue_identity_check,
    exp_dichotomy,
    log_growth_check,
    lambda zeros, values: classify_trace(zeros, values, SmoothnessDescriptor("bmo")),
])
def test_pair_routines_refuse_differing_lengths(call):
    with pytest.raises(ValueError, match="lengths differ"):
        call(_zeros(0, 0.5), ValueSequence([1.0, 2.0, 3.0]))


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


def test_kernel_interpolant_warns_above_warn_condition():
    # two zeros 1e-4 apart: Gram condition about 4e8, between the warning
    # level and MAX_CONDITION, so the interpolant is built with a warning
    with pytest.warns(UserWarning, match="kernel Gram matrix is poorly conditioned") as caught:
        rep = kernel_interpolant(_zeros(0.0, 1e-4), ValueSequence([1.0, 2.0]))
    assert len(caught) == 1
    assert WARN_CONDITION < rep.condition < modelspace.interp.MAX_CONDITION


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
    # 1 - conj(z_j) z is exactly 0 at z = 1 / conj(z_j) for these zeros, a
    # point outside the closed disk: refused before any factor is formed
    zeros = _zeros(0.5, 0.25j)
    f = lagrange_interpolant(zeros, ValueSequence([1.0, 2.0j]))
    for pole in (2.0, 4.0j, np.array([0.1, 2.0])):
        with pytest.raises(ValueError, match="closed unit disk"):
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


def test_blocked_sampling_memory_stays_near_one_output():
    # m = 17, n = 12: the output is the only length-M array; each sampler's
    # block buffers add at most 4 * POINT_BLOCK complex values (M / 2 at
    # m = 17), so 1.75 length-M complex arrays bound each transient peak
    zeros, values = _deep_instance()
    grid = BoundaryGrid(17)
    bound = 1.75 * grid.size * 16
    lagrange = lagrange_interpolant(zeros, values)
    kernel = kernel_interpolant(zeros, values)
    product = BlaschkeProduct(zeros)
    assert transient_peak(lambda: lagrange.sample(grid)) < bound
    assert transient_peak(lambda: kernel.sample(grid)) < bound
    assert transient_peak(lambda: product.sample(grid)) < bound


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


def test_residue_identity_report_writes_complex_values_as_pairs():
    report = residue_identity_check(_zeros(0, 0.5), ValueSequence([1.0, 2.0j]), m=10)
    data = json.loads(json.dumps(report.to_dict()))
    want = report.series["conjugate_values"]
    assert data["series"]["conjugate_values"] == [[w.real, w.imag] for w in want]
    assert any(w.imag != 0 for w in want)


@pytest.mark.parametrize("q, m", [(0.7, 12), (0.5, 17)])
def test_residue_identity_samples_f_and_b_in_one_pass(monkeypatch, q, m):
    # one factor pass per zero and point block gives f and B together, each
    # == to its public sampler, so the report is the two-sampler route's
    zeros = generate_sequence("rotated_radial", q=q, n=12, angle_step=0.13)
    w = ValueSequence(np.linspace(1.0, 2.0, 12) + 0.5j)
    grid = BoundaryGrid(m)
    f = lagrange_interpolant(zeros, w).sample(grid)
    theta = BlaschkeProduct(zeros).sample(grid)
    lhs = np.conj(cauchy_eval(tilde(theta, f), zeros.points))
    gap = np.abs(lhs - conjugate_sequence(zeros, w).values)
    calls = []
    factor_parts = modelspace.blaschke._factor_parts

    def counted(*args):
        calls.append(args[0])
        return factor_parts(*args)

    monkeypatch.setattr(modelspace.blaschke, "_factor_parts", counted)
    report = residue_identity_check(zeros, w, m=m)
    assert calls == list(zeros.points) * max(1, grid.size // POINT_BLOCK)
    assert report.series["discrepancy"] == gap.tolist()
    with pytest.raises(ValueError, match="lengths differ"):
        residue_identity_check(zeros, ValueSequence([1.0]), m=m)
