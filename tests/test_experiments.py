import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

import modelspace.core
import modelspace.experiments
from conftest import division_form_bmo, mp_rung_derivatives, random_zero_sequence
from modelspace import blaschke, boundary
from modelspace.boundary import DEFECT_TOL
from modelspace import (
    BlaschkeProduct,
    BoundaryFunction,
    BoundaryGrid,
    InterpolantRepresentation,
    ValueSequence,
    ZeroSequence,
    bmo_norm,
    cauchy_eval,
    conjugate_sequence,
    exp_dichotomy,
    exp_nonduality,
    exp_noninterpolation,
    exp_sublevel,
    generate_sequence,
    h2_defect,
    invert_conjugate,
    kernel_interpolant,
    kernel_l1_quadrature,
    lagrange_interpolant,
    log_samples,
    lp_norm,
    model_project,
    riesz_project,
    sublevel_indicator,
)
from modelspace.experiments import (
    ExperimentResult,
    SUBLEVEL_ANGLES,
    SUBLEVEL_DEPTH,
    _truncation_ladder,
)


def _series(result, label):
    return [v for _, _, v in [(l, i, v) for l, i, v in result.series if l == label]]


def _projected_log_at(zeros, m):
    # phi = P_+ log(1 - z) and g = model_project(B, phi) at the zeros through
    # the public routes: the explicit form of both log pipelines' set-up
    grid = BoundaryGrid(m, offset=0.5)
    phi = log_samples(grid)
    g = model_project(BlaschkeProduct(zeros).sample(grid), phi)
    return phi, cauchy_eval(g, zeros.points, tol=1e-2)


def test_nonduality_rank_one_closed_form():
    zeros = ZeroSequence([0.5])
    result = exp_nonduality(zeros, m=13)
    residuals = _series(result, "value_preservation_residual")
    assert max(residuals) < 1e-10
    # discrete projection of the sampled logarithm approaches the closed
    # form at the sampling-error rate of the log singularity (~1/M)
    grid = BoundaryGrid(13, offset=0.5)
    phi = log_samples(grid)

    theta = BlaschkeProduct(zeros).sample(grid)
    g = model_project(theta, phi)
    closed = math.log(0.5) * 0.75 / (1.0 - 0.5 * grid.nodes)
    assert np.max(np.abs(g.samples - closed)) < 1e-3


def test_nonduality_radial():
    zeros = generate_sequence("rotated_radial", q=0.7, n=10)
    result = exp_nonduality(zeros, m=13)
    assert result.warnings == []
    assert max(_series(result, "value_preservation_residual")) < 1e-7
    ratios = _series(result, "log_envelope_ratio")
    assert max(ratios) < 2.0  # bounded against the log envelope
    bmo_ladder = _series(result, "coanalytic_bmo")
    assert all(b < a for b, a in zip(bmo_ladder, bmo_ladder[1:]))
    assert result.parameters["log_sampling_defect"] < 1e-3
    assert result.runtime > 0


def test_nonduality_warns_when_underresolved():
    zeros = generate_sequence("rotated_radial", q=0.5, n=12)
    with pytest.warns(UserWarning):
        result = exp_nonduality(zeros, m=12)
    assert result.warnings


def test_noninterpolation_kernel_norms():
    zeros = ZeroSequence([0, 0.5, 0.9, 0.99])
    result = exp_noninterpolation(zeros, m=13)
    grid_vals = _series(result, "kernel_l1_grid")
    quad_vals = _series(result, "kernel_l1_quadrature")
    # kernel at the origin is the constant 1
    assert grid_vals[0] == pytest.approx(1.0, abs=1e-12)
    assert quad_vals[0] == pytest.approx(1.0, abs=1e-12)
    ratios = _series(result, "kernel_l1_ratio")
    assert ratios[0] == pytest.approx(1.0 / math.log(2.0), abs=1e-9)
    # the two routes agree within the stated tolerance for moduli <= 0.99
    assert max(abs(g - q) for g, q in zip(grid_vals, quad_vals)) < 1e-5
    # the 0.99 kernel ratio falls in the stated bracket
    assert 0.25 <= ratios[-1] <= 0.45


def test_noninterpolation_trace_verdict_and_trend():
    zeros = generate_sequence("rotated_radial", q=0.7, n=10)
    result = exp_noninterpolation(zeros, m=12)
    verdict = result.verdicts[0]
    assert verdict.verdict == "holds"
    bmo_ladder = _series(result, "interpolant_bmo")
    assert bmo_ladder[-1] > bmo_ladder[0]


def test_deep_trends_are_resolved():
    # q = 0.5, n = 12 at m = 17: resolution margin M (1 - max|z_j|) exactly 32
    zeros = generate_sequence("rotated_radial", q=0.5, n=12)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        nonduality = exp_nonduality(zeros, m=17)
        noninterpolation = exp_noninterpolation(zeros, m=17)
    assert not [w for w in caught if "under-resolves" in str(w.message)]
    assert nonduality.warnings == noninterpolation.warnings == []
    assert max(_series(nonduality, "value_preservation_residual")) < 1e-7
    bmo_ladder = _series(nonduality, "coanalytic_bmo")
    assert len(bmo_ladder) == 5
    assert all(b > a for a, b in zip(bmo_ladder, bmo_ladder[1:]))


def test_deepest_trends_are_resolved():
    # q = 0.5, n = 13 at m = 18: resolution margin M (1 - max|z_j|) exactly 32
    # (measured: value-preservation residual 4.7e-12)
    zeros = generate_sequence("rotated_radial", q=0.5, n=13)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        nonduality = exp_nonduality(zeros, m=18)
        noninterpolation = exp_noninterpolation(zeros, m=18)
    assert not [w for w in caught if "under-resolves" in str(w.message)]
    assert nonduality.warnings == noninterpolation.warnings == []
    assert max(_series(nonduality, "value_preservation_residual")) <= 1e-7
    bmo_ladder = _series(nonduality, "coanalytic_bmo")
    assert len(bmo_ladder) == 6
    assert all(b > a for a, b in zip(bmo_ladder, bmo_ladder[1:]))


def _per_rung_coanalytic_bmo(zeros, m):
    # the ladder rebuilt anew on every rung, as exp_nonduality did
    # before its one running product: the test oracle of that ladder
    phi = log_samples(BoundaryGrid(m, offset=0.5))
    series = []
    for n in _truncation_ladder(len(zeros)):
        theta_n = BlaschkeProduct(zeros.truncate(n)).sample(phi.grid)
        series.append(("coanalytic_bmo", n, bmo_norm(riesz_project(theta_n.conj() * phi, "-"))))
    return series


@pytest.mark.parametrize("q, m, step", [(0.7, 12, 0.0), (0.7, 12, 0.13), (0.7, 12, 0.45),
                                        (0.5, 17, 0.0)])
def test_nonduality_ladder_matches_per_rung_rebuild(q, m, step):
    zeros = generate_sequence("rotated_radial", q=q, n=12, angle_step=step)
    got = [s for s in exp_nonduality(zeros, m=m).series if s[0] == "coanalytic_bmo"]
    assert got == _per_rung_coanalytic_bmo(zeros, m)


def _counted_factor_passes(monkeypatch):
    # the zero of every _factor_parts call (one per zero and pass), in call order
    calls = []
    factor_parts = blaschke._factor_parts

    def counted(*args):
        calls.append(args[0])
        return factor_parts(*args)

    monkeypatch.setattr(blaschke, "_factor_parts", counted)
    return calls


def test_nonduality_one_factor_pass_per_zero(monkeypatch):
    # m = 12 is one point block, so one call is one pass.  The ladder multiplies
    # each zero in once, and the projection takes the full product from its
    # last rung: n passes, one per zero in order (the per-rung rebuild took
    # 4 + 6 + ... + 12 + 12 = 52 for n = 12)
    zeros = generate_sequence("rotated_radial", q=0.7, n=12)
    calls = _counted_factor_passes(monkeypatch)
    exp_nonduality(zeros, m=12)
    assert calls == list(zeros.points)


def test_noninterpolation_factor_passes(monkeypatch):
    # exp_noninterpolation takes its trace from phi itself, with no sample of
    # the product, and samples every Lagrange rung in one pass: n passes, one
    # per zero in order (2n with the projection; the per-rung series took
    # 12 + 4 + 6 + 8 + 10 + 12 = 52 for n = 12)
    zeros = generate_sequence("rotated_radial", q=0.7, n=12, angle_step=0.13)
    calls = _counted_factor_passes(monkeypatch)
    exp_noninterpolation(zeros, m=12)
    assert calls == list(zeros.points)


@pytest.mark.parametrize("n", [1, 2])
def test_pipelines_on_the_shortest_sequences(n):
    # the ladder of n <= 4 zeros is 1, ..., n, so its last rung is the full
    # product, and value preservation reads the same g as a fresh sample of B;
    # the interpolants are those of the trace of phi, one per rung
    zeros = generate_sequence("rotated_radial", q=0.7, n=n, angle_step=0.13)
    dual = exp_nonduality(zeros, m=10)
    interp = exp_noninterpolation(zeros, m=10)
    assert [s[1] for s in dual.series if s[0] == "coanalytic_bmo"] == list(range(1, n + 1))
    assert [s for s in interp.series if s[0] == "interpolant_bmo"] == (
        _per_rung_interpolant_bmo(zeros, 10))
    phi, g_at = _projected_log_at(zeros, 10)
    residuals = np.abs(g_at - cauchy_eval(phi, zeros.points))
    assert _series(dual, "value_preservation_residual") == list(residuals)


def _counted_riesz_projections(monkeypatch):
    # every riesz_project call of the pipelines, model_project's included
    calls = []
    project = boundary.riesz_project

    def counted(f, sign):
        calls.append(sign)
        return project(f, sign)

    monkeypatch.setattr(boundary, "riesz_project", counted)
    monkeypatch.setattr(modelspace.experiments, "riesz_project", counted)
    return calls


@pytest.mark.parametrize("q, n, m", [(0.7, 1, 10), (0.7, 2, 10), (0.7, 12, 10), (0.7, 1, 12),
                                     (0.7, 2, 12), (0.7, 12, 12), (0.5, 12, 17)])
def test_nonduality_projects_once_per_rung(monkeypatch, q, n, m):
    # g = model_project(B, phi) is B times the last rung's co-analytic part, so
    # the projection of the last rung is not made twice; the series match the
    # explicit route through a fresh sample of B
    zeros = generate_sequence("rotated_radial", q=q, n=n, angle_step=0.13)
    phi, g_at = _projected_log_at(zeros, m)  # also fills the cache of phi
    calls = _counted_riesz_projections(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # q = 0.7, n = 12 under-resolves m = 10
        result = exp_nonduality(zeros, m=m)
    assert calls == ["-"] * len(_truncation_ladder(n))
    envelope = np.log(2.0 / (1.0 - zeros.moduli))
    residuals = np.abs(g_at - cauchy_eval(phi, zeros.points))
    assert _series(result, "value_preservation_residual") == list(residuals)
    assert _series(result, "log_envelope_ratio") == [abs(v) / e for v, e in zip(g_at, envelope)]


@pytest.mark.parametrize("q, n, m, step, measured", [(0.7, 12, 12, 0.13, 9.2e-13),
                                                     (0.7, 8, 12, 0.45, 6.1e-14),
                                                     (0.5, 12, 17, 0.13, 5.7e-8)])
def test_nonduality_projection_matches_kernel_interpolant(monkeypatch, q, n, m, step, measured):
    # Cross-route oracle: the g that exp_nonduality evaluates at the zeros
    # against the Gram-solve interpolant of its values g(z_j).  Both lie in the
    # model space and agree at the zeros, so they differ by the grid aliasing
    # of the sampled B, about (max|z_j|)^(M/2) (4e-13 at q = 0.7, m = 12 and
    # 1.1e-7 at q = 0.5, m = 17), or by rounding amplified by the Gram solve
    # where that is smaller.  The bound is 4x the measured gap relative to
    # max|g|: room for rounding that moves with the BLAS, while a wrong rung or
    # a missing projection is off by O(1).  The step-0 baseline is left out:
    # its Gram condition (1.5e9) trips kernel_interpolant's 1e8 warning
    zeros = generate_sequence("rotated_radial", q=q, n=n, angle_step=step)
    captured = []
    evaluate = modelspace.experiments.cauchy_eval

    def capturing(f, z, tol=DEFECT_TOL):
        captured.append((f, evaluate(f, z, tol=tol)))
        return captured[-1][1]

    monkeypatch.setattr(modelspace.experiments, "cauchy_eval", capturing)
    exp_nonduality(zeros, m=m)
    (g, g_at), (phi, _) = captured  # g at the zeros, then phi there
    assert phi is log_samples(g.grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kernel = kernel_interpolant(zeros, ValueSequence(g_at)).sample(g.grid)
    gap = np.abs(g.samples - kernel.samples).max() / np.abs(g.samples).max()
    assert gap <= 4 * measured


def test_dichotomy_bounded_side():
    zeros = generate_sequence("rotated_radial", q=0.5, n=10)
    result = exp_dichotomy(zeros, ValueSequence(np.ones(10)), m=10)
    maxima = _series(result, "max_conjugate_value")[3:]  # N >= 4
    assert max(maxima) <= 2.0 * maxima[0]
    sups = _series(result, "interpolant_sup")
    assert max(sups) <= 2.0 * min(sups) + 2.0


def test_dichotomy_divergent_side():
    zeros = generate_sequence("rotated_radial", q=0.5, n=12)
    target = ValueSequence(np.arange(1.0, 13.0))
    values = invert_conjugate(zeros, target)
    result = exp_dichotomy(zeros, values, m=10)
    maxima = _series(result, "max_conjugate_value")
    sups = _series(result, "interpolant_sup")
    # both series grow across the nested truncations
    assert maxima[-1] > 5.0 * maxima[3]
    assert sups[-1] > sups[3]
    assert maxima[-1] == pytest.approx(12.0, abs=1e-8)


def test_dichotomy_single_point():
    zeros = ZeroSequence([0])
    w = ValueSequence([3.0 + 1.0j])
    result = exp_dichotomy(zeros, w, m=10)
    assert _series(result, "max_conjugate_value") == pytest.approx([abs(w.values[0])])


def _per_rung_sups(zeros, values, m):
    # the per-rung Lagrange sampling exp_dichotomy replaced, kept as its oracle
    grid = BoundaryGrid(m)
    sups = []
    for n in range(1, len(zeros) + 1):
        interp = lagrange_interpolant(zeros.truncate(n), ValueSequence(values.values[:n]))
        sups.append(lp_norm(interp.sample(grid), math.inf))
    return sups


@pytest.mark.parametrize("case", ["clustered_radial", "separated"])
def test_dichotomy_one_pass_matches_per_rung(case, rng):
    if case == "clustered_radial":
        zeros = generate_sequence("rotated_radial", q=0.7, n=12, angle_step=0.0)
        values, m = ValueSequence(np.ones(12)), 12
    else:
        zeros = random_zero_sequence(rng, 10)
        values, m = ValueSequence(rng.normal(size=10) + 1j * rng.normal(size=10)), 10
    got = np.array(_series(exp_dichotomy(zeros, values, m=m), "interpolant_sup"))
    expected = np.array(_per_rung_sups(zeros, values, m))
    assert np.all(np.abs(got - expected) <= 1e-10 * expected)


@pytest.mark.parametrize("case", ["rotated_radial", "separated"])
def test_dichotomy_chunked_grid_matches_per_rung(case, rng, monkeypatch):
    if case == "rotated_radial":
        # turned by -0.05 rad so the first rung peaks in the short last chunk
        radial = generate_sequence("rotated_radial", q=0.7, n=12, angle_step=0.0)
        zeros = ZeroSequence(radial.points * np.exp(-0.05j))
        values, m = ValueSequence(np.ones(12)), 12
    else:
        zeros = random_zero_sequence(rng, 10)
        values, m = ValueSequence(rng.normal(size=10) + 1j * rng.normal(size=10)), 10
    entries = 3000
    monkeypatch.setattr(modelspace.core, "CHUNK_ENTRIES", entries)
    step = entries // len(zeros)  # 250 or 300 nodes per chunk
    assert 2 * step < 2**m and 2**m % step != 0  # several chunks, the last one short
    got = np.array(_series(exp_dichotomy(zeros, values, m=m), "interpolant_sup"))
    expected = np.array(_per_rung_sups(zeros, values, m))
    assert np.all(np.abs(got - expected) <= 1e-10 * expected)


def _mp_conjugate_max(zeros, values):
    # max over k < n of |sum_{j<n} w_j / (B_n'(z_j) (1 - z_j conj(z_k)))|, per
    # rung n, summed at 40 digits
    with mpmath.workdps(40):
        pts = [mpmath.mpc(complex(z)) for z in zeros.points]
        w = [mpmath.mpc(complex(v)) for v in values.values]
        derivatives = mp_rung_derivatives(zeros.points)
        maxima = []
        for n in range(1, len(pts) + 1):
            sums = [mpmath.fsum(w[j] / (derivatives[j][n - 1] * (1 - pts[j] * mpmath.conj(pts[k])))
                                for j in range(n))
                    for k in range(n)]
            maxima.append(float(max(abs(c) for c in sums)))
        return maxima


@pytest.mark.parametrize("case", ["clustered_radial", "separated"])
def test_dichotomy_conjugate_values_match_per_rung_and_mpmath(case, rng):
    if case == "clustered_radial":
        zeros = generate_sequence("rotated_radial", q=0.7, n=12)
        values = ValueSequence(np.ones(12))
    else:
        zeros = random_zero_sequence(rng, 10)
        values = ValueSequence(rng.normal(size=10) + 1j * rng.normal(size=10))
    got = np.array(_series(exp_dichotomy(zeros, values, m=10), "max_conjugate_value"))
    # the per-rung transform exp_dichotomy replaced, kept as its oracle
    per_rung = np.array([
        np.abs(conjugate_sequence(zeros.truncate(n), ValueSequence(values.values[:n])).values).max()
        for n in range(1, len(zeros) + 1)
    ])
    assert np.all(np.abs(got - per_rung) <= 1e-10 * per_rung)
    exact = np.array(_mp_conjugate_max(zeros, values))
    assert np.all(np.abs(got - exact) <= 1e-10 * exact)


def _per_rung_interpolant_bmo(zeros, m):
    # the per-rung Lagrange interpolants of the trace of phi = P_+ log(1 - z)
    # that exp_noninterpolation sampled before its derivative ladder, kept as
    # its oracle
    phi = log_samples(BoundaryGrid(m, offset=0.5))
    trace_at = cauchy_eval(phi, zeros.points)
    series = []
    for n in _truncation_ladder(len(zeros)):
        interp = lagrange_interpolant(zeros.truncate(n), ValueSequence(trace_at[:n]))
        series.append(("interpolant_bmo", n, bmo_norm(interp.sample(phi.grid))))
    return series


@pytest.mark.parametrize("q, m, step", [(0.7, 12, 0.0), (0.7, 12, 0.13), (0.7, 12, 0.45),
                                        (0.5, 17, 0.0)])
def test_noninterpolation_ladder_matches_per_rung_rebuild(q, m, step):
    zeros = generate_sequence("rotated_radial", q=q, n=12, angle_step=step)
    got = [s for s in exp_noninterpolation(zeros, m=m).series if s[0] == "interpolant_bmo"]
    assert got == _per_rung_interpolant_bmo(zeros, m)


def test_pipelines_build_no_sequence_per_rung(monkeypatch):
    # every rung comes from one derivative matrix: the per-rung rebuilds took
    # 12 ZeroSequences in exp_dichotomy and 5 in exp_noninterpolation
    zeros = generate_sequence("rotated_radial", q=0.7, n=12)
    values = ValueSequence(np.ones(12))
    built = []
    post_init = ZeroSequence.__post_init__

    def counted(self):
        built.append(len(self.points))
        post_init(self)

    monkeypatch.setattr(ZeroSequence, "__post_init__", counted)
    exp_dichotomy(zeros, values, m=10)
    exp_noninterpolation(zeros, m=12)
    assert built == []


def test_sublevel_constant():
    zeros = ZeroSequence([0])
    grid = BoundaryGrid(10)
    f = BoundaryFunction(grid, np.full(grid.size, 2.0 - 1.0j))
    result = exp_sublevel(zeros, f, eps=0.5)
    sub = _series(result, "sublevel_sup")[0]
    bnd = _series(result, "boundary_sup")[0]
    assert sub == pytest.approx(abs(2.0 - 1.0j), rel=1e-6)
    assert bnd == pytest.approx(abs(2.0 - 1.0j), rel=1e-12)


def test_sublevel_kernel_tracks_boundary():
    zeros = ZeroSequence([0.5])
    grid = BoundaryGrid(10)
    f = BoundaryFunction.from_callable(grid, lambda z: 0.75 / (1 - 0.5 * z))
    result = exp_sublevel(zeros, f, eps=0.5)
    sub = _series(result, "sublevel_sup")[0]
    bnd = _series(result, "boundary_sup")[0]
    assert sub <= bnd * (1.0 + 1e-9)
    assert sub == pytest.approx(1.25, rel=1e-2)
    assert _series(result, "pairing_bmo")[0] > 0


def test_sublevel_log_growth_trend():
    grid = BoundaryGrid(12, offset=0.5)
    phi = log_samples(grid)
    sups = []
    for n in (4, 8, 12):
        zeros = generate_sequence("rotated_radial", q=0.7, n=n)
        result = exp_sublevel(zeros, phi, eps=0.5)
        sups.append(_series(result, "sublevel_sup")[0])
    assert sups[0] < sups[1] < sups[2]


def test_sublevel_warns_when_lattice_misses():
    zeros = ZeroSequence([0])
    grid = BoundaryGrid(10)
    f = BoundaryFunction(grid, np.full(grid.size, 1.0))
    with pytest.warns(UserWarning):
        result = exp_sublevel(zeros, f, eps=1e-6)
    assert result.warnings


def test_sublevel_rejects_input_outside_h2():
    # conj(z) + 0.1 z carries 99% of its energy on mode -1; the polar lattice
    # meets |B| < 0.5 around the zero, so the H2 check at 1e-2 runs
    grid = BoundaryGrid(10)
    f = BoundaryFunction.from_callable(grid, lambda z: np.conj(z) + 0.1 * z)
    with pytest.raises(ValueError, match="cauchy_eval input is not in H2 at tolerance 0.01"):
        exp_sublevel(ZeroSequence([0.5]), f)


# lattice points in {|B| < 0.5} for the trend op's sublevel input (q = 0.7,
# n = 12 radial zeros at m = 12) at each angle step, as cauchy_eval counted them
_TREND_SUBLEVEL_HITS = {0.0: 1787, 0.05: 1846, 0.13: 2045, 0.37: 2482, 0.45: 2573, 0.5: 2664}


@pytest.mark.parametrize("angle_step", list(_TREND_SUBLEVEL_HITS))
def test_sublevel_lattice_route_keeps_the_trend_values(angle_step):
    # against the pointwise route: cauchy_eval on the masked lattice, and the
    # pairing norm in bmo_norm's division form
    zeros = generate_sequence("rotated_radial", q=0.7, n=12, angle_step=angle_step)
    product, grid = BlaschkeProduct(zeros), BoundaryGrid(12)
    f = InterpolantRepresentation(zeros, np.full(12, 1.0 / 12), "kernel_basis").sample(grid)
    result = exp_sublevel(zeros, f)
    gaps = np.geomspace(0.5, SUBLEVEL_DEPTH, 48)
    angles = 2.0 * math.pi * np.arange(SUBLEVEL_ANGLES) / SUBLEVEL_ANGLES
    lattice = ((1.0 - gaps)[:, None] * np.exp(1j * angles[None, :])).reshape(-1)
    inside = lattice[sublevel_indicator(product, 0.5, lattice)]
    expected_sup = float(np.abs(cauchy_eval(f, inside, tol=1e-2)).max())
    assert result.parameters["lattice_points_in_sublevel"] == inside.size
    assert inside.size == _TREND_SUBLEVEL_HITS[angle_step]
    assert abs(_series(result, "sublevel_sup")[0] - expected_sup) <= 1e-13 * expected_sup
    assert _series(result, "pairing_bmo") == [division_form_bmo(product.sample(grid).conj() * f)]


@pytest.mark.parametrize("n_radial", [0, -1])
def test_sublevel_rejects_empty_lattice(n_radial):
    grid = BoundaryGrid(10)
    f = BoundaryFunction(grid, np.full(grid.size, 1.0))
    with pytest.raises(ValueError, match="n_radial"):
        exp_sublevel(ZeroSequence([0.5]), f, n_radial=n_radial)


def test_quadrature_oracle_validation():
    assert kernel_l1_quadrature(0.0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        kernel_l1_quadrature(1.0)


@pytest.mark.parametrize("r", [0.0, 0.3, 0.5, 0.9, 0.99, 0.999, 0.9999])
def test_quadrature_matches_mpmath_closed_form(r):
    # 2 K(k) / (pi (1 + r)) with k = 2 sqrt(r) / (1 + r), at 40 digits from
    # the double r taken exactly (measured: at most 1.4e-16 relative, at r = 0.3)
    with mpmath.workdps(40):
        rr = mpmath.mpf(r)
        k = 2 * mpmath.sqrt(rr) / (1 + rr)
        want = 2 * mpmath.ellipk(k**2) / (mpmath.pi * (1 + rr))
        err = abs((kernel_l1_quadrature(r) - want) / want)
    assert err <= 1e-10


@pytest.mark.parametrize(
    "r", [0.0, 0.3, 0.9, 0.99, 1 - 0.7**12, 1 - 0.5**13, 1 - 2.0**-18, 1 - 1e-12]
)
def test_closed_form_matches_kernel_integral(r):
    # the integral (1/pi) int_0^pi dt / sqrt((1 - r)^2 + 4 r sin^2(t/2)) that
    # kernel_l1_quadrature used to integrate adaptively, by that scipy call
    # verbatim and by mpmath.quad at 30 digits; measured worst cases 3.5e-15
    # (scipy, at r = 1 - 0.7**12, the trend workload's outermost zero) and
    # 1.4e-16 (mpmath, at r = 0.3) relative
    val, _ = quad(
        lambda t: 1.0 / math.sqrt((1.0 - r) ** 2 + 4.0 * r * math.sin(t / 2.0) ** 2),
        0.0,
        math.pi,
        limit=400,
    )
    closed = kernel_l1_quadrature(r)
    assert abs(val / math.pi - closed) <= 1e-13 * closed
    with mpmath.workdps(30):
        rr = mpmath.mpf(r)
        want = mpmath.quad(
            lambda t: 1 / mpmath.sqrt((1 - rr) ** 2 + 4 * rr * mpmath.sin(t / 2) ** 2),
            [0, mpmath.pi],
        ) / mpmath.pi
        assert abs((closed - want) / want) <= 1e-14


def test_log_samples_requires_offset():
    with pytest.raises(ValueError):
        log_samples(BoundaryGrid(10))


def test_log_samples_readers_make_no_transform_of_it(monkeypatch):
    # the shared phi caches its spectrum when it is built, so projecting it
    # and evaluating it transform only conj(theta) phi (forward, then inverse)
    grid = BoundaryGrid(11, offset=0.5)
    phi = log_samples(grid)
    theta = BlaschkeProduct(ZeroSequence([0.5, -0.3j])).sample(grid)
    transforms = []
    fft = boundary._fft
    monkeypatch.setattr(
        boundary, "_fft",
        lambda x, inverse=False, out=None: transforms.append(x) or fft(x, inverse, out),
    )
    model_project(theta, log_samples(grid))
    cauchy_eval(log_samples(grid), [0.0, 0.5j])
    assert len(transforms) == 2
    assert not any(np.shares_memory(x, phi.samples) for x in transforms)
    assert "spectrum" in vars(phi)


def test_log_samples_shared_read_only():
    grid = BoundaryGrid(11, offset=0.5)
    phi = log_samples(grid)
    assert log_samples(BoundaryGrid(11, offset=0.5)) is phi
    assert not phi.samples.flags.writeable
    assert not phi.spectrum.flags.writeable
    raw = BoundaryFunction(grid, np.log(1.0 - grid.nodes))
    fresh = riesz_project(raw, "+")
    assert np.array_equal(phi.samples, fresh.samples)
    assert np.array_equal(phi.spectrum, fresh.spectrum)
    zeros = generate_sequence("rotated_radial", q=0.7, n=6)
    assert exp_nonduality(zeros, m=11).parameters["log_sampling_defect"] == h2_defect(raw)
    # the cache is keyed by the exponent: the plain grid of a cached one still raises
    with pytest.raises(ValueError):
        log_samples(BoundaryGrid(11))


def test_experiment_determinism_and_export(tmp_path):
    zeros = generate_sequence("rotated_radial", q=0.7, n=6)
    a = exp_dichotomy(zeros, ValueSequence(np.ones(6)), m=10)
    b = exp_dichotomy(zeros, ValueSequence(np.ones(6)), m=10)
    assert a.series == b.series
    d = a.to_dict()
    assert d["name"] == "dichotomy"
    path = tmp_path / "series.csv"
    a.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "label,index,value"
    assert len(lines) == 1 + len(a.series)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_experiment_series_refuse_non_finite_entries(bad):
    result = ExperimentResult("probe", {})
    result.add("ok", 0, 1.5)
    with pytest.raises(ValueError, match=r"series entry x\[3\] is not finite"):
        result.add("x", 3, bad)
    assert result.series == [("ok", 0, 1.5)]
