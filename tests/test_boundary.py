import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import kernel_combination, random_zero_sequence
from modelspace import (
    BlaschkeProduct,
    BoundaryFunction,
    BoundaryGrid,
    SmoothnessDescriptor,
    ZeroSequence,
    backward_shift,
    bmo_norm,
    bmo_norm_exhaustive,
    cauchy_eval,
    generate_sequence,
    h2_defect,
    inner,
    kernel_l1_quadrature,
    log_samples,
    lp_norm,
    membership_defect,
    model_project,
    projection_decay_report,
    riesz_project,
    tilde,
    toeplitz_coanalytic,
)
from modelspace.boundary import _arc_oscillation_max


def _grid(m=8, offset=0.0):
    return BoundaryGrid(m, offset)


def _random_bandlimited(rng, grid, band=None):
    band = band or grid.size // 4
    spec = np.zeros(grid.size, dtype=complex)
    keep = np.abs(grid.modes) <= band
    spec[keep] = rng.normal(size=keep.sum()) + 1j * rng.normal(size=keep.sum())
    return BoundaryFunction.from_spectrum(grid, spec)


def _random_h2(rng, grid, band=None):
    f = _random_bandlimited(rng, grid, band)
    return riesz_project(f, "+")


def test_grid_validation():
    with pytest.raises(ValueError):
        BoundaryGrid(3)
    with pytest.raises(ValueError):
        BoundaryGrid(8, offset=0.25)
    g = BoundaryGrid(4)
    assert g.size == 16
    assert g.nodes[0] == pytest.approx(1.0)
    assert BoundaryGrid(4, offset=0.5).nodes[0] == pytest.approx(np.exp(2j * np.pi * 0.5 / 16))


def test_fourier_examples():
    grid = _grid()
    one = BoundaryFunction.constant(grid, 1.0)
    assert one.coefficient(0) == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(one.spectrum[1:])) < 1e-14

    zeta = BoundaryFunction.from_callable(grid, lambda z: z)
    assert zeta.coefficient(1) == pytest.approx(1.0, abs=1e-14)
    spec = zeta.spectrum.copy()
    spec[grid.modes == 1] = 0.0
    assert np.max(np.abs(spec)) < 1e-14


def test_round_trip_and_parseval(rng):
    grid = _grid(10)
    f = _random_bandlimited(rng, grid)
    back = BoundaryFunction.from_spectrum(grid, f.spectrum)
    assert np.max(np.abs(back.samples - f.samples)) < 1e-12
    lhs = np.sum(np.abs(f.spectrum) ** 2)
    rhs = np.mean(np.abs(f.samples) ** 2)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_offset_grid_spectrum_matches_true_coefficients():
    # same function sampled on both grids must report the same coefficients
    grid0 = BoundaryGrid(8)
    grid5 = BoundaryGrid(8, offset=0.5)
    fn = lambda z: 2.0 + 3.0 * z + 1j * np.conj(z) ** 2
    f0 = BoundaryFunction.from_callable(grid0, fn)
    f5 = BoundaryFunction.from_callable(grid5, fn)
    for n in (-2, 0, 1, 3):
        assert f0.coefficient(n) == pytest.approx(f5.coefficient(n), abs=1e-13)


@pytest.mark.parametrize("offset", [0.0, 0.5])
def test_spectrum_computed_on_first_read(offset, rng):
    grid = _grid(10, offset)
    f = BoundaryFunction(grid, rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size))
    theta = BoundaryFunction.from_callable(grid, lambda z: z ** 3)
    derived = [f.conj(), f * theta, tilde(theta, f)]
    lp_norm(f, 2.0)
    for g in (f, theta, *derived):
        assert "spectrum" not in vars(g)
    spec = f.spectrum
    expected = np.fft.fft(f.samples) / grid.size * grid._phase
    assert spec.tobytes() == expected.tobytes()
    assert f.spectrum is spec
    assert not spec.flags.writeable
    with pytest.raises(ValueError):
        spec[0] = 0.0
    with pytest.raises(AttributeError):
        f.spectrum = expected


def test_riesz_examples():
    grid = _grid()
    f = BoundaryFunction.from_callable(grid, lambda z: np.conj(z) + 2 + 3 * z)
    plus = riesz_project(f, "+")
    minus = riesz_project(f, "-")
    expect_plus = BoundaryFunction.from_callable(grid, lambda z: 2 + 3 * z)
    expect_minus = BoundaryFunction.from_callable(grid, np.conj)
    assert np.max(np.abs(plus.samples - expect_plus.samples)) < 1e-13
    assert np.max(np.abs(minus.samples - expect_minus.samples)) < 1e-13


def test_riesz_properties(rng):
    grid = _grid(10)
    for _ in range(5):
        f = _random_bandlimited(rng, grid)
        plus = riesz_project(f, "+")
        minus = riesz_project(f, "-")
        assert np.max(np.abs(plus.samples + minus.samples - f.samples)) < 1e-12
        again = riesz_project(plus, "+")
        assert np.max(np.abs(again.samples - plus.samples)) < 1e-10
        assert lp_norm(plus, 2) <= lp_norm(f, 2) + 1e-10
        assert h2_defect(plus) < 1e-28
    h2 = _random_h2(rng, grid)
    assert lp_norm(riesz_project(h2, "-"), 2) < 1e-12


@pytest.mark.parametrize("sign", [+1, -1, "x"])
def test_riesz_rejects_other_signs(sign):
    f = BoundaryFunction.constant(_grid(), 1.0)
    with pytest.raises(ValueError, match="sign must be"):
        riesz_project(f, sign)


def test_backward_shift_examples():
    grid = _grid()
    f = BoundaryFunction.from_callable(grid, lambda z: 2 + 3 * z)
    shifted = backward_shift(f)
    assert np.max(np.abs(shifted.samples - 3.0)) < 1e-12

    const = BoundaryFunction.constant(grid, 5.0)
    assert lp_norm(backward_shift(const), 2) < 1e-13

    for k in (1, 3, 7):
        zk = BoundaryFunction.from_callable(grid, lambda z: z ** k)
        expect = BoundaryFunction.from_callable(grid, lambda z: z ** (k - 1))
        assert np.max(np.abs(backward_shift(zk).samples - expect.samples)) < 1e-12

    bad = BoundaryFunction.from_callable(grid, np.conj)
    with pytest.raises(ValueError):
        backward_shift(bad)


def test_tilde_examples():
    grid = _grid()
    one = BoundaryFunction.constant(grid, 1.0)
    theta2 = BoundaryFunction.from_callable(grid, lambda z: z ** 2)
    assert np.max(np.abs(tilde(theta2, one).samples - grid.nodes)) < 1e-14
    theta1 = BoundaryFunction.from_callable(grid, lambda z: z)
    assert np.max(np.abs(tilde(theta1, one).samples - 1.0)) < 1e-14
    with pytest.raises(ValueError):
        tilde(BoundaryFunction.constant(grid, 0.5), one)


def test_tilde_involution_isometry(rng):
    grid = _grid(10)
    for _ in range(10):
        n = int(rng.integers(1, 17))
        zeros = random_zero_sequence(rng, n, min_separation=0.05)
        theta = BlaschkeProduct(zeros).sample(grid)
        f = kernel_combination(grid, zeros.points,
                               rng.normal(size=n) + 1j * rng.normal(size=n))
        tf = tilde(theta, f)
        ttf = tilde(theta, tf)
        assert lp_norm(ttf - f, 2) < 1e-10
        assert abs(lp_norm(tf, 2) - lp_norm(f, 2)) < 1e-10
        # tilde keeps the model space: the involution image is K2 again
        assert membership_defect(tf, "K2", theta) < 1e-12


def test_model_project_examples():
    grid = _grid()
    theta = BoundaryFunction.from_callable(grid, lambda z: z)
    f = BoundaryFunction.from_callable(grid, lambda z: 2 + 3 * z)
    g = model_project(theta, f)
    assert np.max(np.abs(g.samples - 2.0)) < 1e-13

    # anything in theta * H2 projects to zero
    zeros = ZeroSequence([0.5])
    b = BlaschkeProduct(zeros).sample(grid)
    h = BoundaryFunction.from_callable(grid, lambda z: 1 + z + 0.5 * z ** 3)
    assert lp_norm(model_project(b, b * h), 2) < 1e-13

    # projection of the constant onto the kernel span of one zero
    g = model_project(b, BoundaryFunction.constant(grid, 1.0))
    expect = BoundaryFunction.from_callable(grid, lambda z: 0.75 / (1 - 0.5 * z))
    assert np.max(np.abs(g.samples - expect.samples)) < 1e-12


def test_model_project_operator_properties(rng):
    grid = _grid(10)
    zeros = random_zero_sequence(rng, 6)
    theta = BlaschkeProduct(zeros).sample(grid)
    f = _random_h2(rng, grid)
    g = _random_h2(rng, grid)
    pf = model_project(theta, f)
    pg = model_project(theta, g)
    assert lp_norm(model_project(theta, pf) - pf, 2) < 1e-9
    assert abs(inner(pf, g) - inner(f, pg)) < 1e-9
    # the residual is orthogonal to sampled model-space elements
    residual = f - pf
    probe = kernel_combination(grid, zeros.points, rng.normal(size=len(zeros)))
    assert abs(inner(residual, probe)) < 1e-9
    assert membership_defect(pf, "K2", theta) < 1e-9
    # and the residual sits in theta * H2: dividing out theta lands in H2
    assert h2_defect(residual * theta.conj()) < 1e-12


def test_model_project_value_preservation(rng):
    from modelspace import cauchy_eval

    grid = BoundaryGrid(12)
    zeros = random_zero_sequence(rng, 10)
    theta = BlaschkeProduct(zeros).sample(grid)
    f = _random_h2(rng, grid)
    g = model_project(theta, f)
    got = cauchy_eval(g, zeros.points)
    expect = cauchy_eval(f, zeros.points)
    assert np.max(np.abs(got - expect)) < 1e-8


def test_lp_norm_examples(rng):
    grid = _grid(12)
    c = BoundaryFunction.constant(grid, -2.0 + 1.0j)
    for p in (1, 2, 4, math.inf):
        assert lp_norm(c, p) == pytest.approx(abs(-2.0 + 1.0j), rel=1e-14)
    zeta = BoundaryFunction.from_callable(grid, lambda z: z)
    assert lp_norm(zeta, 2) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        lp_norm(zeta, 0.5)

    kernel = BoundaryFunction.from_callable(grid, lambda z: 1.0 / (1 - 0.9 * z))
    assert lp_norm(kernel, 1) == pytest.approx(kernel_l1_quadrature(0.9), abs=1e-6)


def test_bmo_constant_exact():
    grid = _grid()
    c = BoundaryFunction.constant(grid, 3.0 - 4.0j)
    assert bmo_norm(c) == pytest.approx(5.0, abs=1e-12)
    assert bmo_norm_exhaustive(c) == pytest.approx(5.0, abs=1e-12)


def test_bmo_zeta_matches_exhaustive():
    grid = _grid(8)
    zeta = BoundaryFunction.from_callable(grid, lambda z: z)
    d = bmo_norm(zeta)
    e = bmo_norm_exhaustive(zeta)
    assert d == pytest.approx(e, abs=1e-9)
    assert d == pytest.approx(1.0, abs=1e-12)


def test_bmo_dyadic_below_exhaustive(rng):
    grid = _grid(7)
    for _ in range(5):
        f = BoundaryFunction(grid, rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size))
        d = bmo_norm(f)
        e = bmo_norm_exhaustive(f)
        assert d <= e + 1e-12
        assert e <= 2.0 * d
    with pytest.raises(ValueError):
        bmo_norm_exhaustive(BoundaryFunction.constant(BoundaryGrid(10), 1.0))


def test_bmo_coarse_upper_bound(rng):
    grid = _grid(8)
    f = BoundaryFunction(grid, rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size))
    mean = abs(np.mean(f.samples))
    assert bmo_norm(f) <= 2.0 * lp_norm(f, math.inf) + mean + 1e-12


def _dyadic_scan(f):
    # the unpruned dyadic scan: every offset of every length 4, 8, ..., M
    best = max(_arc_oscillation_max(f.samples, 1 << k) for k in range(2, f.grid.m + 1))
    return abs(complex(np.mean(f.samples))) + best


def _coanalytic_rung(angle_step, n):
    # exp_nonduality's co-analytic part at m = 12 for the first n radial zeros, q = 0.7
    zeros = generate_sequence("rotated_radial", q=0.7, n=12, angle_step=angle_step)
    grid = BoundaryGrid(12, offset=0.5)
    theta = BlaschkeProduct(zeros.truncate(n)).sample(grid)
    return riesz_project(theta.conj() * log_samples(grid), "-")


def _normal(m, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=1 << m) + 1j * rng.normal(size=1 << m)


def _oracle_inputs():
    cases = {
        f"coanalytic_step{step}_n{n}": lambda step=step, n=n: _coanalytic_rung(step, n)
        for step, n in ((0.0, 4), (0.0, 12), (0.13, 12), (0.37, 12))
    }
    for m in (4, 8, 12, 13):
        cases[f"normal_m{m}"] = lambda m=m: BoundaryFunction(BoundaryGrid(m), _normal(m, m))
    grid12, grid10 = BoundaryGrid(12), BoundaryGrid(10)
    cases["random_walk_1e6"] = lambda: BoundaryFunction(
        grid12, np.cumsum(_normal(12, 1).real) + 1e6
    )
    cases["offset_1e8_noise_1e-3"] = lambda: BoundaryFunction(
        grid12, 1e8 + 1e-3 * _normal(12, 2)
    )
    spike = 1e-6 * _normal(10, 3)
    spike[321] += 1e3
    cases["spike_1e3"] = lambda: BoundaryFunction(grid10, spike)
    cases["constant"] = lambda: BoundaryFunction.constant(grid10, 2.0 - 3.0j)
    cases["log_half_offset"] = lambda: BoundaryFunction.from_callable(
        BoundaryGrid(10, offset=0.5), lambda z: np.log(np.abs(1.0 - z))
    )
    return cases


_ORACLE_INPUTS = _oracle_inputs()


@pytest.mark.parametrize("name", list(_ORACLE_INPUTS))
def test_bmo_pruned_matches_dyadic_scan(name):
    f = _ORACLE_INPUTS[name]()
    expected = _dyadic_scan(f)
    assert abs(bmo_norm(f) - expected) <= 1e-12 * expected
    if name == "constant":
        assert bmo_norm(f) == abs(2.0 - 3.0j)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(
    data=st.data(),
    m=st.integers(4, 9),
    offset=st.complex_numbers(max_magnitude=1e8, allow_nan=False, allow_infinity=False),
    amplitude=st.floats(1e-6, 1e3),
)
def test_bmo_pruned_matches_dyadic_scan_property(data, m, offset, amplitude):
    unit = st.floats(-1.0, 1.0)
    re = data.draw(arrays(np.float64, 1 << m, elements=unit))
    im = data.draw(arrays(np.float64, 1 << m, elements=unit))
    f = BoundaryFunction(BoundaryGrid(m), offset + amplitude * (re + 1j * im))
    expected = _dyadic_scan(f)
    assert abs(bmo_norm(f) - expected) <= 1e-12 * expected


def test_membership_defect_examples():
    grid = _grid()
    zbar = BoundaryFunction.from_callable(grid, np.conj)
    assert membership_defect(zbar, "H2") == pytest.approx(1.0, abs=1e-14)

    n = 8
    theta = BoundaryFunction.from_callable(grid, lambda z: z ** n)
    poly = BoundaryFunction.from_callable(grid, lambda z: 1 + 2 * z + 3j * z ** (n - 1))
    assert membership_defect(poly, "K2", theta) < 1e-12

    outside = BoundaryFunction.from_callable(grid, lambda z: z ** (n + 1))
    assert membership_defect(outside, "K2", theta) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        membership_defect(poly, "K2")
    with pytest.raises(ValueError):
        membership_defect(poly, "L2")


def test_backward_shift_keeps_model_space(rng):
    grid = _grid(10)
    zeros = random_zero_sequence(rng, 5)
    theta = BlaschkeProduct(zeros).sample(grid)
    f = kernel_combination(grid, zeros.points, rng.normal(size=5))
    assert membership_defect(backward_shift(f), "K2", theta) < 1e-10


def test_toeplitz_examples():
    grid = _grid()
    psi = BoundaryFunction.from_callable(grid, lambda z: z)
    f = BoundaryFunction.from_callable(grid, lambda z: 1 + z)
    out = toeplitz_coanalytic(psi, f)
    assert np.max(np.abs(out.samples - 1.0)) < 1e-13

    one = BoundaryFunction.constant(grid, 1.0)
    g = BoundaryFunction.from_callable(grid, lambda z: 2 - z + z ** 3)
    assert np.max(np.abs(toeplitz_coanalytic(one, g).samples - g.samples)) < 1e-13


def test_toeplitz_against_convolution_oracle():
    grid = _grid(10)
    zeros = ZeroSequence([0.5])
    psi = BlaschkeProduct(zeros).sample(grid)
    f = BoundaryFunction.from_callable(grid, lambda z: 1.0 / (1 - 0.5 * z))
    out = toeplitz_coanalytic(psi, f)
    # brute-force coefficient convolution with the closed-form spectra
    nmax = 60
    psih = np.zeros(nmax)
    psih[0] = 0.5
    psih[1:] = -0.75 * 0.5 ** np.arange(nmax - 1)
    fh = 0.5 ** np.arange(nmax)
    for n in range(0, 30):
        oracle = np.sum(psih[: nmax - n] * fh[n:])
        assert out.coefficient(n) == pytest.approx(oracle, abs=1e-10)


def test_conjugate_mirror_moves_modes():
    grid = _grid()
    f = BoundaryFunction.from_callable(grid, lambda z: np.conj(z) + 2 * np.conj(z) ** 3)
    m = f.conj()
    assert h2_defect(m) < 1e-14
    assert m.coefficient(1) == pytest.approx(1.0, abs=1e-13)
    assert m.coefficient(3) == pytest.approx(2.0, abs=1e-13)
    assert np.max(np.abs(np.abs(m.samples) - np.abs(f.samples))) < 1e-14


def test_csv_round_trip(tmp_path):
    grid = _grid(6)
    f = BoundaryFunction.from_callable(grid, lambda z: z + 1j / (2 - z))
    path = tmp_path / "f.csv"
    from modelspace.boundary import read_csv, write_csv

    write_csv(f, path)
    back = read_csv(path)
    assert back.grid.size == grid.size
    assert np.max(np.abs(back.samples - f.samples)) < 1e-15


@pytest.mark.parametrize("m", [4, 17])
@pytest.mark.parametrize("offset", [0.0, 0.5])
def test_csv_round_trip_keeps_the_grid(tmp_path, m, offset):
    from modelspace.boundary import read_csv, write_csv

    grid = BoundaryGrid(m, offset)
    f = BoundaryFunction.from_callable(grid, lambda z: np.log(1.0 - 0.9 * z) + 1j * z ** 3)
    path = tmp_path / "f.csv"
    write_csv(f, path)
    first = [line.split(",")[0] for line in path.read_text().splitlines()]
    expect = [str(t) for t in range(grid.size)] if offset == 0.0 else [
        f"{t}.5" for t in range(grid.size)
    ]
    assert first == expect
    back = read_csv(path)
    assert back.grid == grid
    assert np.array_equal(back.samples, f.samples)


def test_csv_reads_the_integer_column_format(tmp_path):
    # rows t, re, im with t = 0, 1, ..., as files have always been written
    from modelspace.boundary import read_csv

    samples = np.exp(2j * np.pi * np.arange(16) / 7) / 3
    path = tmp_path / "old.csv"
    rows = (f"{t},{float(s.real)!r},{float(s.imag)!r}\r\n" for t, s in enumerate(samples))
    path.write_text("".join(rows))
    back = read_csv(path)
    assert back.grid == BoundaryGrid(4)
    assert np.array_equal(back.samples, samples)


@pytest.mark.parametrize("positions", [
    [t + 0.25 for t in range(16)],
    [1, 0] + list(range(2, 16)),
    [t + 0.5 for t in range(15)] + [16.5],
])
def test_csv_rejects_positions_off_the_grid(tmp_path, positions):
    from modelspace.boundary import read_csv

    path = tmp_path / "bad.csv"
    path.write_text("".join(f"{t},1.0,0.0\n" for t in positions))
    with pytest.raises(ValueError, match="first column"):
        read_csv(path)


@pytest.mark.parametrize("site", ["cauchy_eval", "model_project", "backward_shift",
                                  "toeplitz_coanalytic", "projection_decay_report"])
def test_every_h2_site_shares_one_guard(site):
    # z conj on m = 8 has all its energy in mode -1
    grid = _grid(8)
    zbar = BoundaryFunction(grid, np.conj(grid.nodes))
    product = BlaschkeProduct(ZeroSequence([0.5]))
    theta = product.sample(grid)
    calls = {
        "cauchy_eval": lambda: cauchy_eval(zbar, [0.0]),
        "model_project": lambda: model_project(theta, zbar),
        "backward_shift": lambda: backward_shift(zbar),
        "toeplitz_coanalytic": lambda: toeplitz_coanalytic(theta, zbar),
        "projection_decay_report": lambda: projection_decay_report(
            product, zbar, SmoothnessDescriptor("bmo")
        ),
    }
    with pytest.raises(ValueError, match="is not in H2 at tolerance"):
        calls[site]()


def test_mismatched_grids_rejected():
    f = BoundaryFunction.constant(BoundaryGrid(6), 1.0)
    g = BoundaryFunction.constant(BoundaryGrid(7), 1.0)
    with pytest.raises(ValueError):
        _ = f * g
    h = BoundaryFunction.constant(BoundaryGrid(6, offset=0.5), 1.0)
    with pytest.raises(ValueError):
        _ = f + h


@pytest.mark.parametrize("m, offset", [(8, 0.0), (12, 0.5), (17, 0.5)])
def test_h2_defect_bit_identical_to_two_pass_form(m, offset, rng):
    # one |spectrum|**2 array for both sums gives exactly the masked two-pass value
    grid = _grid(m, offset)
    cases = [
        _random_h2(rng, grid) + 1e-4 * _random_h2(rng, grid).conj(),
        BoundaryFunction(grid, rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)),
        log_samples(grid) if offset else BoundaryFunction(grid, np.conj(grid.nodes)),
    ]
    for f in cases:
        total = float(np.sum(np.abs(f.spectrum) ** 2))
        expected = float(np.sum(np.abs(f.spectrum[f.grid.modes < 0]) ** 2)) / total
        assert h2_defect(f) == expected
    assert h2_defect(BoundaryFunction.constant(grid, 0.0)) == 0.0
