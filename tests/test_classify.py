import math
import warnings

import numpy as np
import pytest

from conftest import random_zero_sequence
from modelspace import boundary
from modelspace import (
    BlaschkeProduct,
    BoundaryFunction,
    BoundaryGrid,
    SmoothnessDescriptor,
    ValueSequence,
    ZeroSequence,
    classify_trace,
    generate_sequence,
    invert_conjugate,
    log_growth_check,
    measure_smoothness,
    projection_decay_report,
)
from modelspace.boundary import lp_norm
from modelspace.classify import (
    GEVREY_FLOOR,
    GROWTH_FACTOR,
    RATIO_SPREAD,
    _decide_bounded,
    _decide_lower_bounded,
    _terminal_geometric_run,
)


def _radial(n, q=0.5):
    return generate_sequence("rotated_radial", q=q, n=n)


def _with_conjugate_target(zeros, target):
    """Data whose conjugate sequence equals the target exactly (round trip)."""
    return invert_conjugate(zeros, ValueSequence(np.asarray(target, dtype=complex)))


def test_bmo_holds_on_random_data(rng):
    zeros = _radial(10)
    for _ in range(5):
        w = ValueSequence(rng.normal(size=10) + 1j * rng.normal(size=10))
        verdict = classify_trace(zeros, w, SmoothnessDescriptor("bmo"))
        assert verdict.verdict in ("holds", "inconclusive")
        assert verdict.fitted_constant > 0
        assert verdict.data_functional is not None


def test_bmo_linear_growth_exposed_not_certified():
    # a linearly growing conjugate sequence is indistinguishable, at one
    # truncation, from bounded data approaching its limit; the verdict is
    # the conservative one and the raw ratios carry the trend evidence
    zeros = _radial(12)
    w = _with_conjugate_target(zeros, np.arange(1.0, 13.0))
    verdict = classify_trace(zeros, w, SmoothnessDescriptor("bmo"))
    assert verdict.verdict == "holds"
    assert np.allclose(verdict.per_index_ratios, np.arange(1.0, 13.0), atol=1e-9)
    assert verdict.fitted_constant == pytest.approx(12.0, abs=1e-9)


def test_bmo_geometric_growth_fails():
    zeros = _radial(12)
    w = _with_conjugate_target(zeros, 2.0 ** np.arange(1, 13))
    verdict = classify_trace(zeros, w, SmoothnessDescriptor("bmo"))
    assert verdict.verdict == "fails"
    assert verdict.fitted_constant == pytest.approx(4096.0, rel=1e-9)


@pytest.mark.parametrize("count", [3, 4, 5, 6, 11, 12])
def test_bounded_rule_spread_edge_uses_numpy_median(rng, count):
    # the rule's median (the mean of the sorted middle one or two) has
    # np.median's bits: window maxima within a few ulps of RATIO_SPREAD times
    # the median fall on the side np.median puts them, and both sides occur
    window = rng.uniform(1.0, 2.0, size=count)
    med = np.median(window)
    top = RATIO_SPREAD * med
    seen = set()
    for _ in range(4):
        top = np.nextafter(top, 0.0)
    for _ in range(9):
        window[np.argmax(window)] = top  # the median keeps its operands
        expect = "holds" if top / np.median(window) <= RATIO_SPREAD else "inconclusive"
        got, _ = _decide_bounded(np.concatenate([np.full(count, np.nan), window]), count)
        assert got == expect
        seen.add(got)
        top = np.nextafter(top, np.inf)
    assert seen == {"holds", "inconclusive"}


def test_bounded_rule_edge_windows():
    # a window with no finite ratio decides nothing; an all-zero one is bounded
    assert _decide_bounded(np.array([1.0, 2.0, np.inf, np.nan]), 2)[0] == "inconclusive"
    assert _decide_bounded(np.array([np.inf, 1.0, 0.0, 0.0]), 2)[0] == "holds"


def test_lower_bounded_rule_below_the_floor():
    # a positive minimum under the floor fails only at the end of a decay run
    low = GEVREY_FLOOR / 10
    assert _decide_lower_bounded(np.array([1.0, 0.3, 0.09, low]), 0)[0] == "fails"
    assert _decide_lower_bounded(np.array([1.0, 1.0, 1.0, low]), 0)[0] == "inconclusive"


def _looped_run(win, decay=False):
    # the terminal run as a loop from the last index back, stopping at the first break
    count = 1
    for i in range(win.size - 1, 0, -1):
        a, b = win[i - 1], win[i]
        if not (np.isfinite(a) and np.isfinite(b)) or a <= 0 or b <= 0:
            break
        step = a / b if decay else b / a
        if step >= GROWTH_FACTOR:
            count += 1
        else:
            break
    return count


def test_terminal_run_matches_the_loop(rng):
    # windows of 0 to 8 growing, shrinking or random ratios with NaN, +-inf, 0,
    # negative, tiny and huge entries mixed in, in both directions, with no warning
    specials = np.array([np.nan, np.inf, -np.inf, 0.0, -1.0, 1e-300, 1e300, GROWTH_FACTOR])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for trial in range(3000):
            size = int(rng.integers(0, 9))
            steps = rng.uniform(0.3, 3.0, size) if trial % 3 else np.full(size, GROWTH_FACTOR)
            win = np.cumprod(steps) if trial % 2 else np.exp(rng.normal(0.0, 1.5, size))
            mask = rng.random(size) < 0.15
            win[mask] = rng.choice(specials, int(mask.sum()))
            for decay in (False, True):
                with np.errstate(all="ignore"):
                    want = _looped_run(win, decay)
                assert _terminal_geometric_run(win, decay) == want, (win, decay)


def test_bmo_scale_equivariance(rng):
    zeros = _radial(12)
    w = _with_conjugate_target(zeros, np.arange(1.0, 13.0))
    base = classify_trace(zeros, w, SmoothnessDescriptor("bmo"))
    lam = 37.5
    scaled = classify_trace(
        zeros, ValueSequence(lam * w.values), SmoothnessDescriptor("bmo")
    )
    assert scaled.verdict == base.verdict
    assert scaled.fitted_constant == pytest.approx(lam * base.fitted_constant, rel=1e-9)


def test_lipschitz_constructed_holds():
    zeros = _radial(12)
    gaps = 1.0 - zeros.moduli
    w = _with_conjugate_target(zeros, gaps)  # exact alpha = 1 decay
    verdict = classify_trace(zeros, w, SmoothnessDescriptor("lipschitz", alpha=1.0))
    assert verdict.verdict == "holds"
    assert np.allclose(verdict.per_index_ratios, 1.0, atol=1e-8)


def test_lipschitz_no_decay_fails():
    zeros = _radial(12)
    # no decay at all measured against alpha = 1: ratios gap**-1 double per index
    w = _with_conjugate_target(zeros, np.ones(12))
    verdict = classify_trace(zeros, w, SmoothnessDescriptor("lipschitz", alpha=1.0))
    assert verdict.verdict == "fails"


def test_gevrey_constructed_holds():
    zeros = _radial(10)
    gaps = 1.0 - zeros.moduli
    target = np.exp(-0.1 / np.sqrt(gaps))
    w = _with_conjugate_target(zeros, target)
    verdict = classify_trace(zeros, w, SmoothnessDescriptor("gevrey", alpha=0.5))
    assert verdict.verdict == "holds"
    assert verdict.fitted_constant == pytest.approx(0.1, rel=1e-6)


def test_gevrey_no_decay_fails():
    # constant target: the fitted rate constant decays geometrically to zero
    zeros = _radial(12)
    w = _with_conjugate_target(zeros, np.full(12, 0.999))
    verdict = classify_trace(zeros, w, SmoothnessDescriptor("gevrey", alpha=1.0))
    assert verdict.verdict == "fails"


def test_sobolev_convergent_holds():
    zeros = _radial(12)
    gaps = 1.0 - zeros.moduli
    w = _with_conjugate_target(zeros, gaps)  # terms gap**2 / gap = gap, summable
    verdict = classify_trace(zeros, w, SmoothnessDescriptor("sobolev", p=2.0, s=1.0))
    assert verdict.verdict == "holds"
    # ratios are the partial sums of the weighted series
    assert np.all(np.diff(verdict.per_index_ratios) > 0)
    assert verdict.per_index_ratios[-1] < 1.1


def test_sobolev_divergent_fails():
    zeros = _radial(12)
    w = _with_conjugate_target(zeros, np.ones(12))  # terms 1/gap, doubling
    verdict = classify_trace(zeros, w, SmoothnessDescriptor("sobolev", p=2.0, s=1.0))
    assert verdict.verdict == "fails"


def test_log_growth_examples():
    zeros = _radial(12)
    envelope = np.log(2.0 / (1.0 - zeros.moduli))
    v1 = log_growth_check(zeros, ValueSequence(envelope))
    assert v1.verdict == "holds"
    assert np.allclose(v1.per_index_ratios, 1.0, atol=1e-12)

    v2 = log_growth_check(zeros, ValueSequence(np.ones(12)))
    assert v2.verdict == "holds"
    assert v2.fitted_constant <= 1.0 / math.log(2.0) + 1e-12

    # growth a full power above the envelope diverges cleanly at desk scale
    v3 = log_growth_check(zeros, ValueSequence((1.0 - zeros.moduli) ** -1.0))
    assert v3.verdict == "fails"


def test_log_growth_shallow_excess_is_not_certified():
    # exponent -0.1 does diverge in the limit, but inside the ETA_MIN-bounded
    # range the ratio to the envelope is still non-monotone; the honest
    # desk-scale verdict is non-failing
    zeros = _radial(19)
    v = log_growth_check(zeros, ValueSequence((1.0 - zeros.moduli) ** -0.1))
    assert v.verdict in ("holds", "inconclusive")


def test_verdict_records_rule_inputs():
    zeros = _radial(8)
    v = classify_trace(zeros, ValueSequence(np.ones(8)), SmoothnessDescriptor("bmo"))
    assert v.rule["window_start"] == 4
    assert "growth_per_index" in v.rule
    d = v.to_dict()
    assert d["satisfied"] == v.verdict
    assert len(d["per_index_ratios"]) == 8


def test_measure_smoothness_constants():
    grid = BoundaryGrid(8)
    c = BoundaryFunction(grid, np.full(grid.size, 3.0 + 4.0j))
    assert measure_smoothness(c, SmoothnessDescriptor("lipschitz", alpha=0.7)) == 0.0
    assert measure_smoothness(c, SmoothnessDescriptor("sobolev", p=2.0, s=1.0)) == 0.0
    assert measure_smoothness(c, SmoothnessDescriptor("bmo")) == pytest.approx(5.0, abs=1e-12)


def test_measure_smoothness_sobolev_pure_modes():
    grid = BoundaryGrid(10)
    zeta = BoundaryFunction.from_callable(grid, lambda z: z)
    for s in (0.5, 1.0, 2.0):
        got = measure_smoothness(zeta, SmoothnessDescriptor("sobolev", p=2.0, s=s))
        assert got == pytest.approx(1.0, abs=1e-10)
    for n in (2, 5, 16):
        zn = BoundaryFunction.from_callable(grid, lambda z: z ** n)
        got = measure_smoothness(zn, SmoothnessDescriptor("sobolev", p=2.0, s=0.75))
        assert got == pytest.approx(n ** 0.75, abs=1e-10 * n)


def _hand_built_sobolev_norm(f, p, s):
    # the principal branch of (i n)**s written out by hand, mode 0 set to zero:
    # exp(s (log|n| + i pi/2 sign n)), the reference for numpy's power
    modes = f.grid.modes
    mult = np.zeros(f.grid.size, dtype=complex)
    nz = modes != 0
    mult[nz] = np.exp(s * (np.log(np.abs(modes[nz])) + 1j * (math.pi / 2.0) * np.sign(modes[nz])))
    return lp_norm(BoundaryFunction.from_spectrum(f.grid, f.spectrum * mult), p)


@pytest.mark.parametrize("m", [8, 12])
def test_measure_smoothness_sobolev_matches_hand_built_multiplier(m):
    # numpy's principal-branch power gives the same norms to within 1e-15
    # relative (measured: at most 2.7e-16 over these inputs)
    grid = BoundaryGrid(m)
    noise = np.random.default_rng(7).normal(size=(2, grid.size))
    fs = [
        BoundaryFunction.from_callable(grid, lambda z: 1.0 / (1 - 0.9 * z)),
        BoundaryFunction.from_callable(grid, lambda z: np.exp(z) + 0.3 * np.conj(z) ** 3),
        BoundaryFunction(grid, noise[0] + 1j * noise[1]),
    ]
    for f in fs:
        for s in (0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.7):
            for p in (1.5, 2.0, 3.0, 7.0):
                got = measure_smoothness(f, SmoothnessDescriptor("sobolev", p=p, s=s))
                assert got == pytest.approx(_hand_built_sobolev_norm(f, p, s), rel=1e-15, abs=0)


def test_measure_smoothness_lipschitz_zeta():
    grid = BoundaryGrid(10)
    zeta = BoundaryFunction.from_callable(grid, lambda z: z)
    # second differences of a single mode: |e^{ih} - 1|^2 / h, largest at h = pi
    got = measure_smoothness(zeta, SmoothnessDescriptor("lipschitz", alpha=1.0))
    assert got == pytest.approx(4.0 / math.pi, rel=1e-12)
    # and the small-step ratios vanish, so the sup sits at the coarse end
    m = grid.m
    h = 2.0 * math.pi * 4.0 / grid.size  # finest step used (ell = m - 2)
    fine_ratio = abs(np.exp(1j * h) - 1.0) ** 2 / h
    assert fine_ratio < got


def test_measure_smoothness_gevrey():
    grid = BoundaryGrid(8)
    zero = BoundaryFunction(grid, np.full(grid.size, 0.0))
    assert measure_smoothness(zero, SmoothnessDescriptor("gevrey", alpha=1.0)) == 0.0
    zeta = BoundaryFunction.from_callable(grid, lambda z: z)
    q = measure_smoothness(zeta, SmoothnessDescriptor("gevrey", alpha=1.0))
    assert 0.0 < q <= 1.0  # sup|f^{(k)}| = 1 for every k, so the estimate is <= 1


def test_projection_decay_report_annihilation(rng):
    # f in B * H2 has zero trace and zero co-analytic part
    grid = BoundaryGrid(10)
    zeros = random_zero_sequence(rng, 4)
    product = BlaschkeProduct(zeros)
    theta = product.sample(grid)
    h = BoundaryFunction.from_callable(grid, lambda z: 1 + 0.5 * z - 0.25 * z ** 2)
    report = projection_decay_report(product, theta * h, SmoothnessDescriptor("bmo"))
    assert report.scalars["smoothness"] < 1e-9
    assert report.scalars["trace_ratio_max"] < 1e-9


@pytest.mark.parametrize("kind, params, count", [
    ("bmo", {}, 3),
    ("lipschitz", {"alpha": 0.5}, 3),
    ("gevrey", {"alpha": 0.5}, 25),
    ("sobolev", {"p": 2.0, "s": 1.0}, 5),
])
def test_projection_decay_report_transform_count(monkeypatch, rng, kind, params, count):
    # f's spectrum once for the H2 check and the trace, the co-analytic part's
    # forward and inverse transforms, then the measure's own (gevrey: 1 + 21
    # derivatives; sobolev: 1 + 1)
    grid = BoundaryGrid(10)
    product = BlaschkeProduct(ZeroSequence([0.5, -0.4j, 0.3 + 0.2j]))
    noise = BoundaryFunction(grid, rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size))
    f = BoundaryFunction.from_spectrum(grid, np.where(grid.modes >= 0, noise.spectrum, 0.0))
    calls = []
    fft = boundary._fft
    monkeypatch.setattr(
        boundary, "_fft",
        lambda x, inverse=False, out=None: calls.append(inverse) or fft(x, inverse, out),
    )
    projection_decay_report(product, f, SmoothnessDescriptor(kind, **params))
    assert len(calls) == count


def test_projection_decay_report_keeps_no_spectrum_on_f():
    grid = BoundaryGrid(10)
    product = BlaschkeProduct(ZeroSequence([0.5, -0.4j]))
    f = boundary.riesz_project(BoundaryFunction.from_callable(grid, lambda z: np.exp(z)), "+")
    for kind, params in [("bmo", {}), ("sobolev", {"p": 2.0, "s": 1.0})]:
        projection_decay_report(product, f, SmoothnessDescriptor(kind, **params))
        assert "spectrum" not in vars(f)


def test_projection_decay_report_single_zero():
    grid = BoundaryGrid(10)
    zeros = ZeroSequence([0.5])
    product = BlaschkeProduct(zeros)
    one = BoundaryFunction(grid, np.full(grid.size, 1.0))
    report = projection_decay_report(product, one, SmoothnessDescriptor("bmo"))
    # the co-analytic part of conj(B) drops exactly one coefficient
    assert report.scalars["smoothness"] > 0
    assert report.scalars["trace_ratio_max"] == pytest.approx(1.0, abs=1e-12)
    assert report.series["trace_ratios"] == pytest.approx([1.0], abs=1e-12)


def test_projection_decay_report_two_routes(rng):
    grid = BoundaryGrid(12)
    zeros = generate_sequence("rotated_radial", q=0.5, n=8)
    product = BlaschkeProduct(zeros)
    f = BoundaryFunction.from_callable(grid, lambda z: 1.0 / (1 - 0.9 * z))
    report = projection_decay_report(product, f, SmoothnessDescriptor("bmo"))
    # trace ratios recomputed from the closed form agree with the report
    direct = np.abs(1.0 / (1 - 0.9 * zeros.points))
    order = np.argsort(-(1.0 - zeros.moduli), kind="stable")
    assert np.max(np.abs(np.asarray(report.series["trace_ratios"]) - direct[order])) < 1e-6
    assert math.isfinite(report.scalars["smoothness"])

    with pytest.raises(ValueError):
        projection_decay_report(
            product, BoundaryFunction.from_callable(grid, np.conj),
            SmoothnessDescriptor("bmo"),
        )
