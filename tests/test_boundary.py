import csv
import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    DEFECT_RTOL,
    arc_oscillation_divided,
    division_form_bmo,
    kernel_combination,
    random_zero_sequence,
    rms_pruned_bmo,
    spectrum_defect,
    transient_peak,
)
from modelspace import (
    BlaschkeProduct,
    BoundaryFunction,
    BoundaryGrid,
    InterpolantRepresentation,
    SmoothnessDescriptor,
    ZeroSequence,
    bmo_norm,
    bmo_norm_exhaustive,
    cauchy_eval,
    exp_nonduality,
    exp_noninterpolation,
    exp_sublevel,
    generate_sequence,
    h2_defect,
    kernel_l1_quadrature,
    log_samples,
    lp_norm,
    membership_defect,
    model_project,
    projection_decay_report,
    riesz_project,
    tilde,
)
from modelspace import boundary, core
from modelspace.boundary import DEFECT_TOL, _arc_oscillation_at
from modelspace.interp import _polar_lattice_eval


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
    one = BoundaryFunction(grid, np.full(grid.size, 1.0))
    assert one.coefficient(0) == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(one.spectrum[1:])) < 1e-14

    zeta = BoundaryFunction.from_callable(grid, lambda z: z)
    assert zeta.coefficient(1) == pytest.approx(1.0, abs=1e-14)
    spec = zeta.spectrum.copy()
    spec[grid.modes == 1] = 0.0
    assert np.max(np.abs(spec)) < 1e-14


def test_function_lengths_must_match_the_grid():
    grid = _grid()
    with pytest.raises(ValueError, match="sample count does not match"):
        BoundaryFunction(grid, np.ones(grid.size - 1))
    with pytest.raises(ValueError, match="spectrum length does not match"):
        BoundaryFunction.from_spectrum(grid, np.ones(grid.size + 1))


def test_coefficient_band_is_half_open():
    grid = _grid()
    zeta = BoundaryFunction.from_callable(grid, lambda z: z)
    half = grid.size // 2
    assert zeta.coefficient(-half) == pytest.approx(0.0, abs=1e-14)
    for n in (half, -half - 1):
        with pytest.raises(ValueError, match="outside the grid band"):
            zeta.coefficient(n)


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
    grid = _grid()
    f = BoundaryFunction(grid, np.full(grid.size, 1.0))
    with pytest.raises(ValueError, match="sign must be"):
        riesz_project(f, sign)


def test_tilde_examples():
    grid = _grid()
    one = BoundaryFunction(grid, np.full(grid.size, 1.0))
    theta2 = BoundaryFunction.from_callable(grid, lambda z: z ** 2)
    assert np.max(np.abs(tilde(theta2, one).samples - grid.nodes)) < 1e-14
    theta1 = BoundaryFunction.from_callable(grid, lambda z: z)
    assert np.max(np.abs(tilde(theta1, one).samples - 1.0)) < 1e-14
    with pytest.raises(ValueError):
        tilde(BoundaryFunction(grid, np.full(grid.size, 0.5)), one)


def test_tilde_refuses_two_grids():
    theta = BoundaryFunction.from_callable(_grid(8), lambda z: z)
    with pytest.raises(ValueError, match="different grids"):
        tilde(theta, BoundaryFunction(_grid(9), np.ones(512)))


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
    g = model_project(b, BoundaryFunction(grid, np.full(grid.size, 1.0)))
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
    # self-adjoint and orthogonal in the discrete L2 pairing mean(f conj(g))
    assert abs(np.mean(pf.samples * np.conj(g.samples))
               - np.mean(f.samples * np.conj(pg.samples))) < 1e-9
    # the residual is orthogonal to sampled model-space elements
    residual = f - pf
    probe = kernel_combination(grid, zeros.points, rng.normal(size=len(zeros)))
    assert abs(np.mean(residual.samples * np.conj(probe.samples))) < 1e-9
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
    c = BoundaryFunction(grid, np.full(grid.size, -2.0 + 1.0j))
    for p in (1, 2, 4, math.inf):
        assert lp_norm(c, p) == pytest.approx(abs(-2.0 + 1.0j), rel=1e-14)
    zeta = BoundaryFunction.from_callable(grid, lambda z: z)
    assert lp_norm(zeta, 2) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        lp_norm(zeta, 0.5)

    kernel = BoundaryFunction.from_callable(grid, lambda z: 1.0 / (1 - 0.9 * z))
    assert lp_norm(kernel, 1) == pytest.approx(kernel_l1_quadrature(0.9), abs=1e-6)


@pytest.mark.parametrize("p", [math.nan, -math.inf, 0.0, 0.5])
def test_lp_norm_rejects_p_below_one_or_nan(p):
    grid = _grid(8)
    for f in (BoundaryFunction(grid, np.full(grid.size, 3.0)),
              BoundaryFunction.from_callable(grid, lambda z: 1.0 / (1 - 0.5 * z))):
        with pytest.raises(ValueError, match="p must be >= 1"):
            lp_norm(f, p)


def test_bmo_constant_exact():
    grid = _grid()
    c = BoundaryFunction(grid, np.full(grid.size, 3.0 - 4.0j))
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
        bmo_norm_exhaustive(BoundaryFunction(BoundaryGrid(10), np.full(1 << 10, 1.0)))


def test_bmo_coarse_upper_bound(rng):
    grid = _grid(8)
    f = BoundaryFunction(grid, rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size))
    mean = abs(np.mean(f.samples))
    assert bmo_norm(f) <= 2.0 * lp_norm(f, math.inf) + mean + 1e-12


def _all_offsets(s, length):
    # the largest deviation on the arcs of one length at every offset, in the
    # division form of the conftest oracle
    return arc_oscillation_divided(np.concatenate([s, s]), length, np.arange(s.size))


def _dyadic_scan(f):
    # the unpruned dyadic scan: every offset of every length 4, 8, ..., M
    best = max(_all_offsets(f.samples, 1 << k) for k in range(2, f.grid.m + 1))
    return abs(complex(np.mean(f.samples))) + best


def test_bmo_exhaustive_on_the_exact_arc_kernel(rng):
    # the exhaustive scan shares bmo_norm's exact-arc kernel, so no dyadic arc
    # reads higher in one than in the other; against the division form of every
    # arc it moves by rounding only
    inputs = [BoundaryFunction(_grid(7), rng.normal(size=128) + 1j * rng.normal(size=128))
              for _ in range(5)]
    inputs += [BoundaryFunction.from_callable(_grid(8), lambda z: z),
               BoundaryFunction(_grid(6), 1e8 + 1e-3 * (-1.0) ** np.arange(64))]
    for f in inputs:
        e = bmo_norm_exhaustive(f)
        assert bmo_norm(f) <= e
        lengths = range(2, f.grid.size + 1)
        oracle = abs(complex(np.mean(f.samples))) + max(_all_offsets(f.samples, L) for L in lengths)
        assert abs(e - oracle) <= 1e-14 * oracle


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
    cases["constant"] = lambda: BoundaryFunction(grid10, np.full(grid10.size, 2.0 - 3.0j))
    # MAD equals RMS on nearly every arc, so nearly every arc survives the bound
    t = np.arange(grid10.size)
    cases["two_valued_1e8"] = lambda: BoundaryFunction(grid10, 1e8 + 1e-3 * (-1.0) ** t)
    cases["period4_1e8"] = lambda: BoundaryFunction(grid10, 1e8 + 1e-3 * 1j ** t)
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


@pytest.mark.parametrize("angle_step", [0.0, 0.13, 0.37, 0.5])
@pytest.mark.parametrize("n", [4, 12])
def test_bmo_evaluates_few_arcs(monkeypatch, angle_step, n):
    # the seeded scan evaluates exactly at most 1% of the 11 * 4096 dyadic arcs
    from modelspace import boundary

    f = _coanalytic_rung(angle_step, n)
    evaluated = []
    exact = boundary._arc_oscillation_at

    def counting(ext, length, offsets):
        evaluated.append(offsets.size)
        return exact(ext, length, offsets)

    monkeypatch.setattr(boundary, "_arc_oscillation_at", counting)
    bmo_norm(f)
    assert 0 < sum(evaluated) <= 0.01 * 11 * 4096


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
    assert bmo_norm(f) == division_form_bmo(f)


def test_bmo_rms_bound_keeps_its_rounding_slack():
    # MAD equals RMS on every arc of 1 + i^t, so rounding decides which arc
    # is largest: without the slack the bound skips it and gives 2.0000000000000004
    t = np.arange(1 << 10)
    f = BoundaryFunction(BoundaryGrid(10), 1.0 + 1j**t)
    assert bmo_norm(f) == _dyadic_scan(f) == 2.000000000000001


@pytest.mark.parametrize("value, expected", [
    (3.8108014959924693e-209, 3.8108014959924715e-209),
    (13420773.678855069 + 1000, 13421773.678855069),
])
def test_bmo_pruned_matches_dyadic_scan_on_constants(value, expected):
    # m = 6 constants the property test draws: np.mean's rounding leaves |c| at
    # the rounding level, where |c|^2 underflows (the first) or the exact arcs
    # round above their bounds (the second); an oracle that neither scales c nor
    # lowers its threshold by the drift reads 3.8108014959924704e-209 and
    # 13421773.678855067
    f = BoundaryFunction(BoundaryGrid(6), np.full(64, value, dtype=complex))
    assert bmo_norm(f) == division_form_bmo(f) == _dyadic_scan(f) == expected


def test_bmo_scales_exactly_at_every_amplitude():
    # |c|^2 underflows below about 1e-160 and overflows above about 1e154; the
    # bounds come from c 2^-e, so bmo_norm(2^k g) is 2^k bmo_norm(g), with no
    # warning, and at 1e-170 and 1e155 it is the dyadic scan
    g = BoundaryFunction(BoundaryGrid(6), _normal(6, 6))
    base = bmo_norm(g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(-900, 901):
            f = BoundaryFunction(g.grid, np.ldexp(g.samples.view(float), k).view(complex))
            assert bmo_norm(f) == math.ldexp(base, k), k
        for amplitude in (1e-170, 1e155):
            f = BoundaryFunction(BoundaryGrid(8), amplitude * _normal(8, 8))
            assert bmo_norm(f) == _dyadic_scan(f)
            assert bmo_norm(f) / amplitude == pytest.approx(2.0780734014449367, rel=1e-15)


def _near_constant_inputs(count):
    # seeded samples on m = 4 to 10 at the rounding level of their mean: a
    # complex offset of modulus about 1e-3 to 1e8 plus complex normal noise of
    # 1e-17 to 1e-12 of it
    rng = np.random.default_rng(2026)
    for _ in range(count):
        m = int(rng.integers(4, 11))
        offset = complex(rng.normal(), rng.normal()) * 10.0 ** rng.uniform(-3, 8)
        noise = 10.0 ** rng.uniform(-17, -12) * abs(offset)
        yield BoundaryFunction(BoundaryGrid(m), offset + noise * (
            rng.normal(size=1 << m) + 1j * rng.normal(size=1 << m)))


def test_bmo_matches_dyadic_scan_at_the_rounding_level():
    # an exact arc is centred on its own rounded mean, so here many computed
    # deviations exceed their RMS bounds by rounding, and each must still be
    # found.  Every arc of length M is the whole circle, which bmo_norm reads
    # once, at offset 0; its rotations round apart, so the all-offset scan
    # (_dyadic_scan) reads higher only where a rotation of the whole circle is
    # its maximum (1 to 2 ulp on 1 of these inputs, 3 of the first 1,200)
    for f in _near_constant_inputs(300):
        s = f.samples
        mean = abs(complex(np.mean(s)))
        per_length = [_all_offsets(s, 1 << k) for k in range(2, f.grid.m + 1)]
        whole = arc_oscillation_divided(np.concatenate([s, s]), s.size, np.array([0]))
        value = bmo_norm(f)
        assert value == mean + max(*per_length[:-1], whole)
        scan = mean + max(per_length)  # _dyadic_scan(f)
        assert value == scan or per_length[-1] > max(*per_length[:-1], whole)


@pytest.mark.parametrize("name", ["normal_m12", "offset_1e8_noise_1e-3"])
def test_arc_oscillation_chunks_bit_identical_to_unchunked_form(name):
    s = _ORACLE_INPUTS[name]().samples
    ext = np.concatenate([s, s])
    rng = np.random.default_rng(10)
    for k in range(2, 13):
        length = 1 << k
        step = max(1, core.CHUNK_ENTRIES // length)
        for count in (0, 1, step - 1, step, step + 1, 3 * step + 5):
            offsets = rng.integers(0, s.size, size=count)
            expected = arc_oscillation_divided(ext, length, offsets)
            assert _arc_oscillation_at(ext, length, offsets) == expected


def _noninterpolation_bmo_inputs(angle_step, q=0.7, m=12):
    # the interpolant samples exp_noninterpolation hands to bmo_norm for n = 12
    # radial zeros; the defaults are the perfbench trend input (q = 0.7 at
    # the CLI's m = 12)
    from modelspace import experiments

    captured = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "bmo_norm", lambda f: captured.append(f) or 0.0)
        zeros = generate_sequence("rotated_radial", q=q, n=12, angle_step=angle_step)
        exp_noninterpolation(zeros, m=m)
    return captured


@pytest.mark.parametrize("angle_step", [0.13, 0.45])
def test_bmo_bit_identical_to_unchunked_form(monkeypatch, angle_step):
    from modelspace import boundary

    inputs = _noninterpolation_bmo_inputs(angle_step)
    assert len(inputs) == 5
    values = [bmo_norm(f) for f in inputs]
    monkeypatch.setattr(boundary, "_arc_oscillation_at", arc_oscillation_divided)
    assert values == [bmo_norm(f) for f in inputs]


def test_bmo_transient_memory_is_cache_sized():
    # the n = 12 interpolant at angle step 0.45 keeps hundreds of arcs of
    # length M/4 and M/2 above the bound; 2^18-entry chunks peaked at 10.9 MB
    f = _noninterpolation_bmo_inputs(0.45)[-1]
    assert f.grid.m == 12
    assert transient_peak(lambda: bmo_norm(f)) <= 4 << 20


def _rms_pruned_bmo(f):
    # bmo_norm before the sub-arc bound: the RMS bound alone picks the arcs
    # that are evaluated exactly
    return rms_pruned_bmo(f, boundary._arc_oscillation_at)


@functools.cache
def _trend_bmo_inputs():
    # m = 12 inputs of the trend pipelines: three noninterpolation ladders
    # and the co-analytic rungs n = 4 and 12 at four angle steps
    inputs = [f for step in (0.0, 0.13, 0.45) for f in _noninterpolation_bmo_inputs(step)]
    inputs += [_coanalytic_rung(step, n) for step in (0.0, 0.13, 0.37, 0.5) for n in (4, 12)]
    return tuple(inputs)


def test_bmo_sub_arc_bound_keeps_the_trend_values():
    inputs = _trend_bmo_inputs()
    assert len(inputs) == 23
    assert [bmo_norm(f) for f in inputs] == [_rms_pruned_bmo(f) for f in inputs]


def test_bmo_sub_arc_bound_keeps_the_deep_values():
    # exp_noninterpolation's five interpolants at m = 17 (q = 0.5, n = 12),
    # where thousands of arcs of length M/4 survive the RMS bound
    inputs = _noninterpolation_bmo_inputs(0.0, q=0.5, m=17)
    assert [f.grid.m for f in inputs] == [17] * 5
    assert [bmo_norm(f) for f in inputs] == [_rms_pruned_bmo(f) for f in inputs]


def test_bmo_sub_arc_bound_cuts_exact_evaluations(monkeypatch):
    exact = boundary._arc_oscillation_at
    counts = []

    def counting(ext, length, offsets):
        counts[-1] += offsets.size
        return exact(ext, length, offsets)

    monkeypatch.setattr(boundary, "_arc_oscillation_at", counting)
    for estimate in (bmo_norm, _rms_pruned_bmo):
        counts.append(0)
        for f in _trend_bmo_inputs():
            estimate(f)
    with_sub_arcs, rms_only = counts
    assert 0 < 3 * with_sub_arcs <= rms_only


# angle steps of the trend workload's inputs: its baseline 0, the ends of
# its seeded range [0.05, 0.5], and three between
TREND_STEPS = (0.0, 0.05, 0.13, 0.37, 0.45, 0.5)


def _pipeline_bmo_inputs(angle_step, q=0.7, m=12):
    # every input bmo_norm gets from the nonduality and noninterpolation
    # ladders for n = 12 radial zeros and, at m = 12, from the sublevel
    # pairing of the CLI's mean kernel; the defaults are the trend op's
    from modelspace import experiments

    captured = []
    zeros = generate_sequence("rotated_radial", q=q, n=12, angle_step=angle_step)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "bmo_norm", lambda f: captured.append(f) or 0.0)
        exp_nonduality(zeros, m=m)
        exp_noninterpolation(zeros, m=m)
        if m == 12:
            kernel = InterpolantRepresentation(zeros, np.full(12, 1.0 / 12), "kernel_basis")
            exp_sublevel(zeros, kernel.sample(BoundaryGrid(m)))
    return captured


@pytest.mark.parametrize("angle_step", TREND_STEPS)
def test_bmo_reciprocal_means_keep_the_trend_values(angle_step):
    inputs = _pipeline_bmo_inputs(angle_step)
    assert len(inputs) == 11
    assert [bmo_norm(f) for f in inputs] == [division_form_bmo(f) for f in inputs]


def test_bmo_reciprocal_means_keep_the_deep_ladders():
    # the ten ladder inputs of q = 0.5, n = 12 at m = 17 (resolution margin 32)
    inputs = _pipeline_bmo_inputs(0.0, q=0.5, m=17)
    assert [f.grid.m for f in inputs] == [17] * 10
    assert [bmo_norm(f) for f in inputs] == [division_form_bmo(f) for f in inputs]


def _counting_rows(monkeypatch):
    # the lengths whose RMS rows bmo_norm builds, in the order it builds them
    built = []
    build = boundary._rms_bound_row

    def counting(p1, p2, length):
        built.append(length)
        return build(p1, p2, length)

    monkeypatch.setattr(boundary, "_rms_bound_row", counting)
    return built


@pytest.mark.parametrize("m", [6, 9, 12])
def test_bmo_short_arc_maximum_builds_every_row(monkeypatch, m):
    # one sharp spike on faint noise: the largest deviation sits on an arc of
    # length 4, and each enclosing-arc bound, about 1e3 / sqrt(L), is above
    # the running maximum, about 1e3 / L, when row L is decided
    s = 1e-6 * _normal(m, 3)
    s[5] += 1e3
    f = BoundaryFunction(BoundaryGrid(m), s)
    built = _counting_rows(monkeypatch)
    value = bmo_norm(f)
    assert sorted(built) == [4 << k for k in range(m - 1)]
    short = max(_all_offsets(s, length) for length in (4, 8, 16))
    assert value == abs(complex(np.mean(s))) + short
    assert value == division_form_bmo(f)
    if m <= 9:
        assert value == _dyadic_scan(f)


def test_bmo_skips_rows_on_the_trend_coanalytic_parts(monkeypatch):
    # the co-analytic rungs n = 4 and 12 at four angle steps: every input but
    # (step 0, n = 12) leaves 1 to 4 of its 11 rows unbuilt
    built = _counting_rows(monkeypatch)
    counts = []
    for step in (0.0, 0.13, 0.37, 0.5):
        for n in (4, 12):
            f = _coanalytic_rung(step, n)
            built.clear()
            assert bmo_norm(f) == division_form_bmo(f)
            assert 4096 in built and len(set(built)) == len(built)
            counts.append(len(built))
    assert counts == [8, 11, 7, 8, 7, 7, 7, 10]


@pytest.mark.parametrize("angle_step, parent_count", [(0.13, 478), (0.37, 501)])
def test_bmo_best_first_cuts_exact_evaluations(monkeypatch, angle_step, parent_count):
    # exact arcs over the five trend interpolants at one angle step; the scan
    # that evaluated every survivor of both bounds in offset order took
    # parent_count, and the best-first scan takes 76 and 212
    evaluated = []
    exact = boundary._arc_oscillation_at

    def counting(ext, length, offsets):
        evaluated.append(offsets.size)
        return exact(ext, length, offsets)

    inputs = _noninterpolation_bmo_inputs(angle_step)
    monkeypatch.setattr(boundary, "_arc_oscillation_at", counting)
    values = [bmo_norm(f) for f in inputs]
    assert 0 < sum(evaluated) < parent_count
    assert values == [division_form_bmo(f) for f in inputs]


@pytest.mark.parametrize("m", [12, 13])
def test_bmo_evaluates_the_whole_circle_once(monkeypatch, m):
    # f = z: every offset's bounds exceed the whole-circle maximum by their
    # slack, and the scan took all M arcs of length M (4,097 at m = 12 with
    # the seed); each is the whole circle, so only offset 0 is evaluated, by
    # the seed alone: the scan of length M leaves the seed's arc out.  The
    # value is that of another offset up to rounding
    lengths = []
    exact = boundary._arc_oscillation_at

    def counting(ext, length, offsets):
        lengths.extend([length] * offsets.size)
        return exact(ext, length, offsets)

    f = BoundaryFunction.from_callable(BoundaryGrid(m), lambda z: z)
    monkeypatch.setattr(boundary, "_arc_oscillation_at", counting)
    value = bmo_norm(f)
    assert lengths == [1 << m]
    expected = abs(complex(np.mean(f.samples))) + _all_offsets(f.samples, 1 << m)
    assert abs(value - expected) <= 1e-15 * expected


def test_bmo_keeps_the_deep_values_at_a_nonzero_angle_step():
    # rungs 4 and 12 of exp_noninterpolation at q = 0.5, n = 12, m = 17,
    # angle step 0.13, where thousands of arcs of length M/4 survive both bounds
    inputs = _noninterpolation_bmo_inputs(0.13, q=0.5, m=17)
    assert [f.grid.m for f in inputs] == [17] * 5
    for f in (inputs[0], inputs[-1]):
        assert bmo_norm(f) == _rms_pruned_bmo(f)


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


def test_nan_samples_fail_the_boundary_checks():
    # one NaN sample used to pass both checks (NaN > tol is False): the
    # projection and the Cauchy evaluation returned NaN, and the K2 defect
    # of a NaN theta read 0, a perfect member
    grid = _grid(6)
    theta = BlaschkeProduct(ZeroSequence([0.5])).sample(grid)
    f = kernel_combination(grid, [0.5], [1.0])
    hole = np.arange(grid.size) == 3
    theta_nan = BoundaryFunction(grid, np.where(hole, np.nan, theta.samples))
    f_nan = BoundaryFunction(grid, np.where(hole, np.nan, f.samples))
    with pytest.raises(ValueError, match="not unimodular"):
        model_project(theta_nan, f)
    with pytest.raises(ValueError, match="not in H2"):
        model_project(theta, f_nan)
    with pytest.raises(ValueError, match="not in H2"):
        cauchy_eval(f_nan, 0.1)
    with pytest.raises(ValueError, match="not unimodular"):
        membership_defect(f, "K2", theta_nan)
    assert math.isnan(membership_defect(f_nan, "K2", theta))


def test_backward_shift_keeps_model_space(rng):
    grid = _grid(10)
    zeros = random_zero_sequence(rng, 5)
    theta = BlaschkeProduct(zeros).sample(grid)
    f = kernel_combination(grid, zeros.points, rng.normal(size=5))
    # the backward shift S* f = (f - f(0)) / z: mode n takes coefficient n + 1
    spec = np.zeros(grid.size, dtype=complex)
    spec[: grid.size // 2 - 1] = f.spectrum[1 : grid.size // 2]
    shifted = BoundaryFunction.from_spectrum(grid, spec)
    assert h2_defect(f) < 1e-12 and lp_norm(shifted, 2) > 0.1 * lp_norm(f, 2)
    assert membership_defect(shifted, "K2", theta) < 1e-10


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


def _csv_writer_bytes(f, path):
    # write_csv's row-by-row csv.writer form, kept as the byte oracle
    offset = f.grid.offset
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for t, v in enumerate(f.samples):
            position = t + offset if offset else t
            writer.writerow([position, repr(float(v.real)), repr(float(v.imag))])
    return path.read_bytes()


@pytest.mark.parametrize("offset", [0.0, 0.5])
def test_csv_bytes_match_the_csv_writer_form(tmp_path, offset):
    from modelspace.boundary import write_csv

    grid = BoundaryGrid(10, offset)
    f = BoundaryFunction.from_callable(grid, lambda z: np.log(1.0 - 0.9 * z) + 1j * z ** 3)
    write_csv(f, tmp_path / "f.csv")
    assert (tmp_path / "f.csv").read_bytes() == _csv_writer_bytes(f, tmp_path / "oracle.csv")


def test_csv_round_trip_is_exact_at_the_float_extremes(tmp_path):
    from modelspace.boundary import read_csv, write_csv

    tiny = np.finfo(float).smallest_subnormal
    edge = [0.0, -0.0, tiny, -tiny, 3 * tiny, np.finfo(float).smallest_normal * 0.999,
            1e308, -1e308, np.finfo(float).max, 0.1, -1.0 / 3.0]
    rng = np.random.default_rng(11)
    parts = np.concatenate([edge, rng.permutation(edge)] * 2 + [rng.normal(size=20)])
    samples = np.empty(32, dtype=complex)
    samples.real, samples.imag = parts[:32], parts[32:]
    f = BoundaryFunction(BoundaryGrid(5, 0.5), samples)
    path = tmp_path / "f.csv"
    write_csv(f, path)
    back = read_csv(path)
    # bit for bit, so the signs of the zeros count
    assert back.grid == f.grid
    assert np.array_equal(back.samples.view(np.int64), f.samples.view(np.int64))


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


@pytest.mark.parametrize("count", [12, 17])
def test_csv_rejects_row_counts_off_a_power_of_two(tmp_path, count):
    from modelspace.boundary import read_csv

    path = tmp_path / "bad.csv"
    path.write_text("".join(f"{t},1.0,0.0\n" for t in range(count)))
    with pytest.raises(ValueError, match="not a power of two"):
        read_csv(path)


@pytest.mark.parametrize("text", ["", "\n\n"])
def test_csv_refuses_an_empty_file_without_a_warning(tmp_path, text):
    from modelspace.boundary import read_csv

    path = tmp_path / "empty.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's "input contained no data" would raise here
        with pytest.raises(ValueError, match="not a power of two"):
            read_csv(path)


@pytest.mark.parametrize("bad", ["nan,0.0", "0.0,inf", "-inf,1.0"])
def test_csv_rejects_non_finite_samples(tmp_path, bad):
    from modelspace.boundary import read_csv

    path = tmp_path / "bad.csv"
    rows = [f"{t},1.0,0.0\n" for t in range(16)]
    rows[3] = f"3,{bad}\n"
    path.write_text("".join(rows))
    with pytest.raises(ValueError, match="samples must be finite"):
        read_csv(path)


@pytest.mark.parametrize("site", ["cauchy_eval", "model_project", "projection_decay_report"])
def test_every_h2_site_shares_one_guard(site):
    # z conj on m = 8 has all its energy in mode -1
    grid = _grid(8)
    zbar = BoundaryFunction(grid, np.conj(grid.nodes))
    product = BlaschkeProduct(ZeroSequence([0.5]))
    theta = product.sample(grid)
    calls = {
        "cauchy_eval": lambda: cauchy_eval(zbar, [0.0]),
        "model_project": lambda: model_project(theta, zbar),
        "projection_decay_report": lambda: projection_decay_report(
            product, zbar, SmoothnessDescriptor("bmo")
        ),
    }
    with pytest.raises(ValueError, match="is not in H2 at tolerance"):
        calls[site]()


def _single_use_readers(f, theta):
    # name -> (call, transforms it makes once f's spectrum is cached)
    return {
        "h2_defect": (lambda: h2_defect(f), 0),
        "membership_defect": (lambda: membership_defect(f, "K2", theta), 1),
        "cauchy_eval": (lambda: cauchy_eval(f, [0.0, 0.5j, -0.9]), 0),
        "polar_lattice": (lambda: _polar_lattice_eval(f, np.array([0.5, 0.9]), 16, DEFECT_TOL), 0),
        "model_project": (lambda: model_project(theta, f), 2),
    }


@pytest.mark.parametrize("offset", [0.0, 0.5])
def test_checks_and_single_use_readers_keep_no_spectrum(offset, rng):
    # .spectrum and coefficient() cache the spectrum on the function; H2
    # checks and single-use readers compute a fresh one and drop it
    grid = _grid(10, offset)
    theta = BlaschkeProduct(ZeroSequence([0.5, -0.3j])).sample(grid)
    f = _random_h2(rng, grid)
    for name, (read, _) in _single_use_readers(f, theta).items():
        read()
        assert "spectrum" not in vars(f) and "spectrum" not in vars(theta), name
    f.coefficient(1)
    assert "spectrum" in vars(f)


def _bits(value):
    if isinstance(value, BoundaryFunction):
        value = value.samples
    return np.asarray(value).tobytes()


def test_single_use_readers_reuse_a_cached_spectrum(monkeypatch, rng):
    # a spectrum cached before the call is read, not recomputed.  The
    # evaluators and the projection give the bits of the fresh route; the
    # defects, which the fresh route reads without the grid phase, are both
    # held to the full-spectrum oracle at DEFECT_RTOL
    grid = _grid(10, 0.5)
    theta = BlaschkeProduct(ZeroSequence([0.5, -0.3j])).sample(grid)
    f = _random_h2(rng, grid)
    readers = _single_use_readers(f, theta)
    fresh = {name: read() for name, (read, _) in readers.items()}
    spec = f.spectrum
    oracle = {"h2_defect": spectrum_defect(spec)}
    oracle["membership_defect"] = max(oracle["h2_defect"], spectrum_defect(tilde(theta, f).spectrum))
    transforms = []
    fft = boundary._fft
    monkeypatch.setattr(
        boundary, "_fft",
        lambda x, inverse=False, out=None: transforms.append(x) or fft(x, inverse, out),
    )
    for name, (read, count) in readers.items():
        transforms.clear()
        value = read()
        if name in oracle:
            for got in (value, fresh[name]):
                assert got == pytest.approx(oracle[name], rel=DEFECT_RTOL, abs=0), name
        else:
            assert _bits(value) == _bits(fresh[name]), name
        assert len(transforms) == count, name
        assert not any(np.shares_memory(x, f.samples) for x in transforms), name
    assert f.spectrum is spec


def _phase_round_trip_riesz(f, sign):
    # the earlier route: the phase-corrected spectrum, its kept half divided by
    # the grid phase into a zeroed spectrum, then one inverse transform
    M, phase = f.grid.size, f.grid._phase
    spec = boundary._fft(f.samples)
    spec /= M
    spec *= phase
    kept = slice(None, M // 2) if sign == "+" else slice(M // 2, None)
    out = np.zeros(M, dtype=complex)
    np.divide(spec[kept], phase[kept], out=out[kept])
    return boundary._fft(out, inverse=True)


def _riesz_inputs(rng, grid):
    theta = BlaschkeProduct(ZeroSequence([0.5, -0.3j, 0.2 + 0.6j])).sample(grid)
    return [
        BoundaryFunction(grid, rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)),
        theta + BoundaryFunction(grid, np.conj(grid.nodes) ** 3),
        *([BoundaryFunction(grid, np.log(1.0 - grid.nodes))] if grid.offset else []),
    ]


@pytest.mark.parametrize("m", [4, 12, 16])
def test_riesz_project_on_plain_grids_is_the_phase_round_trip(m, rng):
    # the plain grid's phase is exactly 1 and 2^-m scales exactly
    grid = BoundaryGrid(m)
    for f in _riesz_inputs(rng, grid):
        for sign in "+-":
            assert np.array_equal(riesz_project(f, sign).samples, _phase_round_trip_riesz(f, sign))


@pytest.mark.parametrize("m", [4, 12, 17, 18])
def test_riesz_project_on_half_offset_grids_near_the_phase_round_trip(m, rng):
    # the round trip's phase multiply and divide round, the plain DFT's mask
    # does not: at most 1.8 eps max|f| measured at m = 4 .. 18
    grid = BoundaryGrid(m, 0.5)
    eps = np.finfo(float).eps
    for f in _riesz_inputs(rng, grid):
        top = np.max(np.abs(f.samples))
        for sign in "+-":
            gap = np.abs(riesz_project(f, sign).samples - _phase_round_trip_riesz(f, sign))
            assert np.max(gap) <= 8 * eps * top


@pytest.mark.parametrize("cached", [False, True])
def test_riesz_project_makes_two_transforms_and_reads_no_spectrum(cached, monkeypatch, rng):
    # a forward and an inverse transform of the samples, with or without a
    # cached spectrum, and no read of the spectrum or of the grid phase
    grid = BoundaryGrid(10, 0.5)
    f = _random_bandlimited(rng, grid)
    expected = {sign: _bits(riesz_project(f, sign)) for sign in "+-"}
    spec = f.spectrum if cached else None
    object.__setattr__(grid, "_phase", None)  # this grid object only
    monkeypatch.setattr(BoundaryFunction, "_read_spectrum", lambda self: pytest.fail("read"))
    transforms = []
    fft = boundary._fft
    monkeypatch.setattr(
        boundary, "_fft",
        lambda x, inverse=False, out=None: transforms.append(inverse) or fft(x, inverse, out),
    )
    for sign in "+-":
        transforms.clear()
        assert _bits(riesz_project(f, sign)) == expected[sign]
        assert transforms == [False, True]
    assert vars(f).get("spectrum") is spec


@pytest.mark.parametrize("m, offset", [(4, 0.0), (12, 0.5), (17, 0.0), (17, 0.5)])
def test_spectrum_scale_has_the_bits_of_the_complex_division(m, offset, rng):
    # 1/M on the float view gives the bits of spec /= M, which numpy runs as
    # a complex quotient by M + 0j, so the H2 checks hand the evaluators the
    # bits of that spectrum's nonnegative half; the defect, read from the
    # unscaled halves, is held to the full-spectrum oracle at DEFECT_RTOL
    grid = _grid(m, offset)
    for f in _riesz_inputs(rng, grid):
        spec = boundary._fft(f.samples)
        spec /= grid.size
        spec *= grid._phase
        assert _bits(f._read_spectrum()) == _bits(spec)
        assert _bits(boundary._require_h2(f, "f", tol=1.0)) == _bits(spec[: grid.size // 2])
        assert h2_defect(f) == pytest.approx(spectrum_defect(spec), rel=DEFECT_RTOL, abs=0)


@pytest.mark.parametrize("m, offset", [(4, 0.0), (12, 0.5), (17, 0.5)])
def test_tilde_bit_identical_to_the_three_array_product(m, offset, rng):
    # conj(z f) theta in one buffer: conj(a) conj(b) is conj(a b) bit for bit
    grid = _grid(m, offset)
    theta = BlaschkeProduct(ZeroSequence([0.5, -0.3j])).sample(grid)
    for f in _riesz_inputs(rng, grid):
        expected = np.conj(grid.nodes) * np.conj(f.samples) * theta.samples
        assert _bits(tilde(theta, f)) == _bits(expected)


def test_tilde_allocates_its_result_alone():
    # m = 17: the result is tilde's one 2 MiB array; the unimodularity check's
    # M-float deviation is freed before it is built
    zeros = ZeroSequence([0.5, -0.3j, 0.2 + 0.6j])
    grid = BoundaryGrid(17)
    theta = BlaschkeProduct(zeros).sample(grid)
    f = InterpolantRepresentation(zeros, np.ones(3), "kernel_basis").sample(grid)
    tilde(theta, f)  # builds the shared tables
    assert transient_peak(lambda: tilde(theta, f)) <= (2 << 20) + (64 << 10)


def test_k2_check_keeps_no_spectrum_memory():
    # m = 17, f and theta held by the caller: the check's transient peak is
    # one sample-sized array, the two half-length parts of f's transform and
    # then of tilde(theta, f)'s, and it leaves nothing behind
    zeros = ZeroSequence([0.5, -0.3j, 0.2 + 0.6j])
    grid = BoundaryGrid(17)
    theta = BlaschkeProduct(zeros).sample(grid)
    f = InterpolantRepresentation(zeros, np.ones(3), "kernel_basis").sample(grid)
    # a first check on an equal copy builds the shared tables and numpy's caches
    membership_defect(BoundaryFunction(grid, f.samples.copy()), "K2", theta)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        within = membership_defect(f, "K2", theta) <= 1e-12  # keeps no float
        now, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert within
    assert peak - base <= (2 << 20) + (64 << 10)
    assert now - base == 0
    assert "spectrum" not in vars(f) and "spectrum" not in vars(theta)


def test_mismatched_grids_rejected():
    f = BoundaryFunction(BoundaryGrid(6), np.full(1 << 6, 1.0))
    g = BoundaryFunction(BoundaryGrid(7), np.full(1 << 7, 1.0))
    with pytest.raises(ValueError):
        _ = f * g
    h = BoundaryFunction(BoundaryGrid(6, offset=0.5), np.full(1 << 6, 1.0))
    with pytest.raises(ValueError):
        _ = f + h


@pytest.mark.parametrize("m, offset", [(8, 0.0), (12, 0.5), (17, 0.5)])
def test_h2_defect_bit_identical_to_two_pass_form(m, offset, rng):
    # one |spectrum|**2 array for both sums gives exactly the masked two-pass
    # value and that of np.abs(spectrum) ** 2; squared in place, it is the one
    # M-float buffer the check allocates once the spectrum is cached
    grid = _grid(m, offset)
    cases = [
        _random_h2(rng, grid) + 1e-4 * _random_h2(rng, grid).conj(),
        BoundaryFunction(grid, rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)),
        log_samples(grid) if offset else BoundaryFunction(grid, np.conj(grid.nodes)),
    ]
    for f in cases:
        power = np.abs(f.spectrum) ** 2
        total = float(np.sum(power))
        expected = float(np.sum(np.abs(f.spectrum[f.grid.modes < 0]) ** 2)) / total
        assert h2_defect(f) == expected == float(np.sum(power[grid.size // 2 :])) / total
        assert transient_peak(lambda: h2_defect(f)) <= 8 * grid.size + (64 << 10)
    assert h2_defect(BoundaryFunction(grid, np.full(grid.size, 0.0))) == 0.0
