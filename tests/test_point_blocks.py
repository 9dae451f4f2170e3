"""Blocked samplers, shared grid tables and in-place FFTs, bit for bit.

The samplers take points in blocks of POINT_BLOCK; the streaming forms
below run the same per-point arithmetic with every buffer as long as the
point array (for the product and the Lagrange form, running numerator and
denominator products with one division per group of zeros; for the kernel
form, one division per kernel), and the spectral expressions below
allocate a fresh array at every step.  Both are kept here as oracles: the
library must reproduce them exactly, not to a tolerance.  The one exception is a grid
above 2^16 nodes, whose transforms take a radix-2 step over np.fft and are
held to FFT_RTOL instead.  The per-factor streaming forms, which divide by
every factor, are the samplers' tolerance oracles (SAMPLER_RTOL).
"""

import tracemalloc

import numpy as np
import pytest

from modelspace import (
    BlaschkeProduct,
    BoundaryFunction,
    BoundaryGrid,
    InterpolantRepresentation,
    ValueSequence,
    ZeroSequence,
    eval_product,
    generate_sequence,
    kernel_interpolant,
    lagrange_interpolant,
    riesz_project,
)
from modelspace import boundary
from modelspace.blaschke import (
    GROUP,
    POINT_BLOCK,
    _factor_parts,
    _lagrange_ladder,
    _rung_derivatives,
    _unit,
    all_derivatives,
    blaschke_factor,
)
from modelspace.core import ETA_MIN

# transforms above 2^16 points against np.fft, relative to the transformed
# function's largest value (at most 3.1e-15 measured on the m = 17 cases below)
FFT_RTOL = 4e-15

# samplers against the per-factor route, relative to the largest output value
# (at most 3e-15 measured on the 12-zero cases below)
SAMPLER_RTOL = 1e-14


def _per_factor(zj, z, out, den):
    # b_j(z) = u_j (z_j - z) / (1 - conj(z_j) z) into out, dividing by the
    # factor, and 1 - conj(z_j) z into den
    _factor_parts(zj, z, out, den)
    return np.divide(np.multiply(_unit(zj), out, out=out), den, out=out)


def _streaming_product(product, z):
    z = np.asarray(z, dtype=complex)
    out = np.ones(z.shape, dtype=complex)
    fac, den = np.empty_like(out), np.empty_like(out)
    for zj in product.zeros:
        out *= _per_factor(zj, z, fac, den)
    return out if out.shape else complex(out)


def _streaming_kernel(points, coeffs, z):
    z = np.asarray(z, dtype=complex)
    flat = z.reshape(-1)
    out = np.zeros(flat.size, dtype=complex)
    term = np.empty_like(out)
    for zj, cj in zip(points, coeffs):
        np.multiply(np.conj(zj), flat, out=term)
        np.subtract(1.0, term, out=term)
        np.divide(cj, term, out=term)
        out += term
    return out.reshape(z.shape) if z.shape else complex(out[0])


def _streaming_lagrange(zeros, values, z):
    z = np.asarray(z, dtype=complex)
    flat = z.reshape(-1)
    coeffs = values / all_derivatives(BlaschkeProduct(zeros))
    total = np.zeros(flat.size, dtype=complex)
    prefix = np.ones(flat.size, dtype=complex)
    fac, den, term = (np.empty_like(total) for _ in range(3))
    for zj, cj in zip(zeros.points, coeffs):
        _per_factor(zj, flat, fac, den)
        np.divide(-_unit(zj) * cj, den, out=term)
        term *= prefix
        total *= fac
        total += term
        prefix *= fac
    return total.reshape(z.shape) if z.shape else complex(total[0])


def _group_units(points, j, size):
    # the product of the units of z_j's group of zeros up to z_j, in order
    units = _unit(points[j - j % size])
    for zk in points[j - j % size + 1 : j + 1]:
        units = units * _unit(zk)
    return units


def _streaming_grouped_product(product, z):
    z = np.asarray(z, dtype=complex)
    flat, pts, size = z.reshape(-1), product.zeros.points, GROUP
    out = np.ones(flat.size, dtype=complex)
    num, den, dens = (np.empty_like(out) for _ in range(3))
    for j, zj in enumerate(pts):
        if j % size:
            dens *= _factor_parts(zj, flat, num, den)[1]
        else:
            _factor_parts(zj, flat, num, dens)
        out *= num
        if (j + 1) % size == 0 or j + 1 == len(pts):
            np.divide(np.multiply(out, _group_units(pts, j, size), out=out), dens, out=out)
    return out.reshape(z.shape) if z.shape else complex(out[0])


def _streaming_grouped_lagrange(zeros, values, z):
    z = np.asarray(z, dtype=complex)
    flat, pts, size = z.reshape(-1), zeros.points, GROUP
    coeffs = values / all_derivatives(BlaschkeProduct(zeros))
    total = np.zeros(flat.size, dtype=complex)
    prefix = np.ones(flat.size, dtype=complex)
    num, den, dens, term = (np.empty_like(total) for _ in range(4))
    for j, (zj, cj) in enumerate(zip(pts, coeffs)):
        first = j % size == 0
        _factor_parts(zj, flat, num, dens if first else den)
        if not first:
            dens *= den
        np.multiply(prefix, -cj, out=term)
        total *= num
        total += term
        prefix *= num
        if (j + 1) % size == 0 or j + 1 == len(pts):
            total *= _group_units(pts, j, size)
            total /= dens
            prefix *= _group_units(pts, j, size)
            prefix /= dens
    return total.reshape(z.shape) if z.shape else complex(total[0])


def _old_spectrum(f):
    return np.fft.fft(f.samples) / f.grid.size * f.grid._phase


def _old_from_spectrum(grid, spec):
    return np.fft.ifft(spec / grid._phase * grid.size)


def _old_riesz(f, sign):
    # the mode mask on the plain DFT: the grid phase is diagonal and commutes with it
    keep = f.grid.modes >= 0 if sign == "+" else f.grid.modes < 0
    return np.fft.ifft(np.where(keep, np.fft.fft(f.samples), 0))


def _instance(seed=0):
    rng = np.random.default_rng(seed)
    zeros = generate_sequence("rotated_radial", q=0.5, n=12, angle_step=0.2)
    return zeros, ValueSequence(rng.normal(size=12) + 1j * rng.normal(size=12))


def _interior(rng, size):
    r = np.sqrt(rng.uniform(0.0, 0.999**2, size))
    return r * np.exp(2j * np.pi * rng.uniform(size=size))


def _assert_samplers_bitwise(zeros, values, z):
    kernel = kernel_interpolant(zeros, values)
    pairs = (
        (eval_product(BlaschkeProduct(zeros), z),
         _streaming_grouped_product(BlaschkeProduct(zeros), z)),
        (lagrange_interpolant(zeros, values)(z),
         _streaming_grouped_lagrange(zeros, values.values, z)),
        (kernel(z), _streaming_kernel(zeros.points, kernel.coefficients, z)),
    )
    for got, expected in pairs:
        assert np.shape(got) == np.shape(expected)
        assert type(got) is type(expected)
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("m", [4, 12, 17])
@pytest.mark.parametrize("offset", [0.0, 0.5])
def test_blocked_samplers_match_streaming_on_grids(m, offset):
    zeros, values = _instance(m)
    grid = BoundaryGrid(m, offset)
    _assert_samplers_bitwise(zeros, values, grid.nodes)
    assert np.array_equal(BlaschkeProduct(zeros).sample(grid).samples,
                          _streaming_grouped_product(BlaschkeProduct(zeros), grid.nodes))


@pytest.mark.parametrize("size", [2001, 2 * POINT_BLOCK + 2001])
def test_blocked_samplers_match_streaming_off_block_sizes(rng, size):
    zeros, values = _instance()
    inside = _interior(rng, size)
    _assert_samplers_bitwise(zeros, values, inside)
    _assert_samplers_bitwise(zeros, values, inside[:2001].reshape(3, 667))
    _assert_samplers_bitwise(zeros, values, complex(inside[0]))
    _assert_samplers_bitwise(zeros, values, np.empty(0, dtype=complex))


def test_blocked_lagrange_exact_at_zeros_in_every_block(rng):
    zeros, values = _instance()
    z = _interior(rng, 2 * POINT_BLOCK + 2001)
    slots = np.linspace(0, z.size - 1, len(zeros)).astype(int)  # zeros in all three blocks
    z[slots] = zeros.points
    _assert_samplers_bitwise(zeros, values, z)
    at_zeros = lagrange_interpolant(zeros, values)(z)[slots]
    assert np.max(np.abs(at_zeros - values.values)) <= 1e-12 * np.max(np.abs(values.values))


def _ladder_rows(zeros, values, lengths):
    # the rung coefficients w_j / B_n'(z_j), j < n, one row per length n
    derivatives = _rung_derivatives(zeros)
    return [values.values[:n] / derivatives[:n, n - 1] for n in lengths]


@pytest.mark.parametrize("lengths", [[4, 6, 8, 10, 12], [7, 3, 12, 1, 12]])
@pytest.mark.parametrize("m", [12, 15])
def test_lagrange_ladder_matches_per_row_eval(m, lengths):
    # every row of the one-pass ladder is its own one-row pass and the
    # streaming form of its truncation; m = 15 spans two point blocks
    zeros, values = _instance(m)
    z = BoundaryGrid(m, 0.5).nodes
    got = _lagrange_ladder(zeros.points, _ladder_rows(zeros, values, lengths), z)
    assert got.shape == (len(lengths), z.size)
    for n, row, total in zip(lengths, _ladder_rows(zeros, values, lengths), got):
        assert np.array_equal(total, _lagrange_ladder(zeros.points, [row], z)[0])
        assert np.array_equal(
            total, _streaming_grouped_lagrange(zeros.truncate(n), values.values[:n], z)
        )


def test_lagrange_ladder_exact_at_zeros(rng):
    zeros, values = _instance()
    z = _interior(rng, 2 * POINT_BLOCK + 2001)
    slots = np.linspace(0, z.size - 1, len(zeros)).astype(int)  # zeros in all three blocks
    z[slots] = zeros.points
    lengths = [12, 5, 9]
    got = _lagrange_ladder(zeros.points, _ladder_rows(zeros, values, lengths), z)
    assert np.all(np.isfinite(got))
    for n, row, total in zip(lengths, _ladder_rows(zeros, values, lengths), got):
        assert np.array_equal(total, _lagrange_ladder(zeros.points, [row], z)[0])
        gap = np.abs(total[slots[:n]] - values.values[:n])
        assert np.max(gap) <= 1e-12 * np.max(np.abs(values.values))


def _assert_near_per_factor_route(got, expected):
    assert np.max(np.abs(got - expected)) <= SAMPLER_RTOL * np.max(np.abs(expected))


def _assert_samplers_near_per_factor_route(zeros, values, z):
    kernel = kernel_interpolant(zeros, values)
    _assert_near_per_factor_route(eval_product(BlaschkeProduct(zeros), z),
                                  _streaming_product(BlaschkeProduct(zeros), z))
    _assert_near_per_factor_route(lagrange_interpolant(zeros, values)(z),
                                  _streaming_lagrange(zeros, values.values, z))
    _assert_near_per_factor_route(kernel(z),
                                  _streaming_kernel(zeros.points, kernel.coefficients, z))


@pytest.mark.parametrize("m", [12, 15, 17])
@pytest.mark.parametrize("offset", [0.0, 0.5])
def test_samplers_within_tolerance_of_per_factor_route(m, offset, rng):
    zeros, values = _instance(m)
    _assert_samplers_near_per_factor_route(zeros, values, BoundaryGrid(m, offset).nodes)
    _assert_samplers_near_per_factor_route(zeros, values, _interior(rng, 2001))


def _straddling_zeros(n):
    return generate_sequence("rotated_radial", q=0.8, n=n, angle_step=0.13)


def _straddling_ladder(n):
    # 3, 5, ..., n: the pass of rung 17 (and 33) closes a group of GROUP = 16
    # zeros and stops inside the next one, as does the last rung of n = 17
    return [*range(3, n, 2), n]


@pytest.mark.parametrize("n", [17, 40])
def test_rungs_across_groups_match_per_rung_rebuild(n):
    # m = 15 spans two point blocks, so each block keeps its own numerator and
    # denominator from one rung to the next
    zeros, z = _straddling_zeros(n), BoundaryGrid(15, 0.5).nodes
    ladder = _straddling_ladder(n)
    assert GROUP == 16 and 17 in ladder
    yielded = list(zip(ladder, _lagrange_ladder(zeros.points, [], z, ladder)))
    assert [k for k, _ in yielded] == ladder
    for k, vals in yielded:
        assert np.array_equal(vals, eval_product(BlaschkeProduct(zeros.truncate(k)), z))


@pytest.mark.parametrize("n", [17, 40])
def test_lagrange_ladder_across_groups_matches_per_row_eval(n):
    zeros, z = _straddling_zeros(n), BoundaryGrid(15, 0.5).nodes
    values = ValueSequence(np.linspace(1.0, 2.0, n) + 0.5j)
    lengths = _straddling_ladder(n)
    rows = _ladder_rows(zeros, values, lengths)
    for k, row, total in zip(lengths, rows, _lagrange_ladder(zeros.points, rows, z)):
        assert np.array_equal(total, _lagrange_ladder(zeros.points, [row], z)[0])
        assert np.array_equal(
            total, _streaming_grouped_lagrange(zeros.truncate(k), values.values[:k], z)
        )


@pytest.mark.parametrize("n", [17, 40])
def test_samplers_across_groups_match_streaming_forms(n):
    # more than one group of zeros over two point blocks: `==` to the streaming
    # forms; the product within SAMPLER_RTOL of the per-factor route.  The
    # Lagrange series of these clustered zeros cancels, and the two routes'
    # samples differ by up to 1.6e-13 of max|f| (n = 40)
    zeros, z = _straddling_zeros(n), BoundaryGrid(15, 0.5).nodes
    coeffs = np.linspace(1.0, 2.0, n) + 0.5j
    product = BlaschkeProduct(zeros)
    kernel = InterpolantRepresentation(zeros, coeffs, "kernel_basis")
    got = eval_product(product, z)
    assert np.array_equal(got, _streaming_grouped_product(product, z))
    _assert_near_per_factor_route(got, _streaming_product(product, z))
    assert np.array_equal(kernel(z), _streaming_kernel(zeros.points, coeffs, z))
    assert np.array_equal(lagrange_interpolant(zeros, ValueSequence(coeffs))(z),
                          _streaming_grouped_lagrange(zeros, coeffs, z))


def test_near_boundary_product_at_and_near_zeros(rng):
    # 300 zeros with 1 - |z_j| down to ETA_MIN, at golden-angle steps, and
    # points at the zeros, within 1e-12 of them and inside the disk
    n = 300
    gaps = np.geomspace(0.5, 1.001 * ETA_MIN, n)
    zeros = ZeroSequence((1.0 - gaps) * np.exp(2j * np.pi * 0.6180339887 * np.arange(n)))
    near = zeros.points + 1e-12 * np.exp(2j * np.pi * rng.uniform(size=n))
    z = np.concatenate([zeros.points, near, zeros.points * (1.0 - 1e-12), _interior(rng, 3000)])
    got = eval_product(BlaschkeProduct(zeros), z)
    assert np.all(np.isfinite(got))
    assert np.all(got[:n] == 0)
    assert np.max(np.abs(got)) <= 1.0 + 1e-14
    _assert_near_per_factor_route(got, _streaming_product(BlaschkeProduct(zeros), z))


@pytest.mark.parametrize("radius", [1e3, 1e30])
def test_points_far_outside_the_disk_are_rejected(rng, radius):
    # every sampler refuses points outside the closed disk, so no group size
    # or pole check has to cover them
    far = radius * np.exp(2j * np.pi * rng.uniform(size=1000))
    zeros, values = _instance()
    for product in (BlaschkeProduct(zeros), BlaschkeProduct(_straddling_zeros(40))):
        with pytest.raises(ValueError, match="closed unit disk"):
            eval_product(product, far)
    for interpolant in (lagrange_interpolant(zeros, values), kernel_interpolant(zeros, values)):
        with pytest.raises(ValueError, match="closed unit disk"):
            interpolant(far)


@pytest.mark.parametrize("index", [3, POINT_BLOCK + 7, 2 * POINT_BLOCK + 4])
def test_reflected_pole_raises_in_any_block(rng, index):
    # 1 - conj(0.5) 2 is exactly 0; the pole, outside the closed disk, sits in
    # the first, second or last block and is refused before any factor
    zeros = ZeroSequence([0.5, 0.25j])
    f = lagrange_interpolant(zeros, ValueSequence([1.0, 2.0j]))
    z = _interior(rng, 2 * POINT_BLOCK + 5)
    z[index] = 2.0
    with pytest.raises(ValueError, match="closed unit disk"):
        eval_product(BlaschkeProduct(zeros), z)
    with pytest.raises(ValueError, match="closed unit disk"):
        f(z)


@pytest.mark.parametrize("zj", [0.0, 0.5, -0.9j, 0.3 - 0.6j, 0.7 + 0.1j, (1 - 2e-6) * np.exp(2j)])
def test_blaschke_factor_is_the_one_zero_product(rng, zj):
    # the one-zero case of the product pass, with the product's shapes; within
    # 1e-15 of the plain expression at every point (4.0e-16 measured)
    z = np.concatenate([BoundaryGrid(12, 0.5).nodes, _interior(rng, 2001), [zj]])
    product = BlaschkeProduct(ZeroSequence([zj]))
    got = blaschke_factor(zj, z)
    assert np.array_equal(got, eval_product(product, z))
    assert got[-1] == 0
    unit = -1.0 if zj == 0 else abs(zj) / zj
    plain = unit * (zj - z) / (1.0 - np.conj(zj) * z)
    assert np.all(np.abs(got - plain) <= 1e-15 * np.abs(plain))
    for shaped in (complex(z[5]), z[:2001].reshape(3, 667), np.empty(0, dtype=complex)):
        got, expected = blaschke_factor(zj, shaped), eval_product(product, shaped)
        assert type(got) is type(expected) and np.shape(got) == np.shape(expected)
        assert np.array_equal(got, expected)


def test_pole_check_stays_for_a_zero_ulps_from_the_circle():
    # the pole 1 + 2^-52 of the zero 1 - 2^-52 lies within the 4 eps of
    # rounding the closed disk admits, and 1 - conj(z_j) (1 + 2^-52) rounds to
    # 0; the circle margin ETA_MIN refuses such a zero, so no pole is reached
    zj, pole = 1.0 - 2.0**-52, 1.0 + 2.0**-52
    assert 1.0 - np.conj(zj) * pole == 0
    z = BoundaryGrid(15).nodes.copy()
    z[POINT_BLOCK + 7] = pole
    with pytest.raises(ValueError, match="ETA_MIN"):
        blaschke_factor(zj, z)
    with pytest.raises(ValueError, match="ETA_MIN"):
        lagrange_interpolant(ZeroSequence([0.5, zj]), ValueSequence([1.0, 1.0]))
    # the point itself is admitted, and a zero at the margin keeps it finite
    at_margin = BlaschkeProduct(ZeroSequence([0.5, 1.0 - ETA_MIN]))
    assert np.all(np.isfinite(eval_product(at_margin, z)))


def test_pole_check_skipped_when_the_bound_rules_the_pole_out():
    # there is no pole check: for zeros within 1 - ETA_MIN of the origin and
    # points of the closed disk, |1 - conj(z_j) z| > ETA_MIN - 4 eps, the bound
    # of GROUP's comment, and the reflected pole 2 = 1 / 0.5 is refused as a
    # point outside the disk
    eps = np.finfo(float).eps
    zj = (1.0 - ETA_MIN) * np.exp(0.7j)
    z = np.concatenate([BoundaryGrid(12).nodes, [np.exp(0.7j) * (1.0 + 2 * eps)]])
    fac, den = np.empty_like(z), np.empty_like(z)
    _per_factor(zj, z, fac, den)
    assert np.abs(den).min() > ETA_MIN - 4 * eps
    assert np.all(np.isfinite(eval_product(BlaschkeProduct(ZeroSequence([zj])), z)))
    with pytest.raises(ValueError, match="closed unit disk"):
        eval_product(BlaschkeProduct(ZeroSequence([0.5])), np.array([0.3, 2.0]))


@pytest.mark.parametrize("m", [4, 12, 17])
@pytest.mark.parametrize("offset", [0.0, 0.5])
def test_spectral_routes_match_fresh_array_expressions(m, offset):
    # == up to 2^16 nodes; at m = 17 within FFT_RTOL of the largest value of
    # the spectrum (spectrum) or of f's samples (synthesis, Riesz projections)
    grid = BoundaryGrid(m, offset)
    f = BlaschkeProduct(_instance()[0]).sample(grid) * 0.5 + BoundaryFunction.from_callable(
        grid, lambda z: np.conj(z) ** 3
    )
    scale = np.max(np.abs(f.samples))
    pairs = [
        (f.spectrum, _old_spectrum(f), np.max(np.abs(f.spectrum))),
        (BoundaryFunction.from_spectrum(grid, f.spectrum).samples,
         _old_from_spectrum(grid, f.spectrum), scale),
        *((riesz_project(f, sign).samples, _old_riesz(f, sign), scale) for sign in "+-"),
    ]
    for got, expected, top in pairs:
        if grid.size <= 1 << 16:
            assert np.array_equal(got, expected)
        else:
            assert np.max(np.abs(got - expected)) <= FFT_RTOL * top


def test_from_spectrum_leaves_its_argument_unchanged(rng):
    grid = BoundaryGrid(10, 0.5)
    spec = rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
    kept = spec.copy()
    g = BoundaryFunction.from_spectrum(grid, spec)
    assert np.array_equal(spec, kept)
    assert spec.flags.writeable
    assert not np.shares_memory(g.samples, spec)


def test_equal_grids_share_read_only_tables():
    # nodes and phase are shared per (m, offset), modes per m by both offsets;
    # the plain grid's phase is a stride-0 view of 1
    a, b, c = BoundaryGrid(17), BoundaryGrid(17), BoundaryGrid(17, 0.5)
    assert a == b and a != c
    for name in ("nodes", "_phase"):
        assert getattr(a, name) is getattr(b, name)
        assert getattr(a, name) is not getattr(c, name)
    assert a.modes is b.modes is c.modes
    assert a._phase.strides == (0,)
    for arr in (a.nodes, a._phase, c.nodes, c._phase, a.modes):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    # the shared tables are the ones the grid formula gives
    for grid in (a, c):
        M, t = grid.size, np.arange(grid.size)
        modes = np.fft.fftfreq(M, 1.0 / M).astype(int)
        assert np.array_equal(grid.nodes, np.exp(2j * np.pi * (t + grid.offset) / M))
        assert np.array_equal(grid.modes, modes)
        assert np.array_equal(grid._phase, np.exp(-2j * np.pi * modes * grid.offset / M))


@pytest.mark.parametrize("m", [4, 12, 17])
def test_plain_grid_phase_view_matches_the_materialised_table(m):
    # every spectral route of a plain grid gives the bits of the same
    # arithmetic with the full table exp(-2 pi i modes 0 / M), 1 + 0j at
    # every mode, in place of the grid's stride-0 view
    grid = BoundaryGrid(m)
    M = grid.size
    table = np.exp(-2j * np.pi * grid.modes * 0.0 / M)
    f = BlaschkeProduct(_instance()[0]).sample(grid) * 0.5 + BoundaryFunction.from_callable(
        grid, lambda z: np.conj(z) ** 3
    )
    spec = boundary._fft(f.samples)
    spec /= M
    spec *= table
    pairs = [(f.spectrum, spec),
             (BoundaryFunction.from_spectrum(grid, spec).samples,
              boundary._fft(spec / table, inverse=True))]
    for sign, half in (("+", slice(None, M // 2)), ("-", slice(M // 2, None))):
        kept = np.zeros(M, dtype=complex)
        np.divide(spec[half], table[half], out=kept[half])
        pairs.append((riesz_project(f, sign).samples, boundary._fft(kept, inverse=True)))
    for got, expected in pairs:
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_grid_tables_keep_no_uninformative_memory():
    # an m = 17 grid pair keeps its two node tables and the half-offset phase
    # (3 x 2 MiB, plus 64 KiB for the array and cache objects); reading the
    # modes adds their one 1 MiB table, shared by both offsets.  A small grid
    # is built first, so that numpy's lazily imported fft module is not counted
    BoundaryGrid(4, 0.5).modes
    boundary._grid_tables.cache_clear()
    boundary._modes.cache_clear()
    tracemalloc.start()
    try:
        grids = BoundaryGrid(17), BoundaryGrid(17, 0.5)
        kept = tracemalloc.get_traced_memory()[0]
        assert grids[0].modes is grids[1].modes
        added = tracemalloc.get_traced_memory()[0] - kept
    finally:
        tracemalloc.stop()
    assert kept <= 3 * (2 << 20) + (64 << 10)
    assert added <= (1 << 20) + (64 << 10)
