import math

import numpy as np
import pytest

import modelspace.experiments
from conftest import random_zero_sequence
from modelspace import (
    BoundaryFunction,
    BoundaryGrid,
    ValueSequence,
    ZeroSequence,
    exp_dichotomy,
    exp_nonduality,
    exp_noninterpolation,
    exp_sublevel,
    generate_sequence,
    invert_conjugate,
    kernel_l1_quadrature,
    lagrange_interpolant,
    log_samples,
    lp_norm,
)


def _series(result, label):
    return [v for _, _, v in [(l, i, v) for l, i, v in result.series if l == label]]


def test_nonduality_rank_one_closed_form():
    zeros = ZeroSequence([0.5])
    result = exp_nonduality(zeros, m=13)
    residuals = _series(result, "value_preservation_residual")
    assert max(residuals) < 1e-10
    # discrete projection of the sampled logarithm approaches the closed
    # form at the sampling-error rate of the log singularity (~1/M)
    grid = BoundaryGrid(13, offset=0.5)
    phi = log_samples(grid)
    from modelspace import model_project, BlaschkeProduct

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
        interp = lagrange_interpolant(zeros.truncate(n), values.truncate(n))
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
    monkeypatch.setattr(modelspace.experiments, "_TABLE_ENTRIES", entries)
    step = entries // len(zeros)  # 250 or 300 nodes per chunk
    assert 2 * step < 2**m and 2**m % step != 0  # several chunks, the last one short
    got = np.array(_series(exp_dichotomy(zeros, values, m=m), "interpolant_sup"))
    expected = np.array(_per_rung_sups(zeros, values, m))
    assert np.all(np.abs(got - expected) <= 1e-10 * expected)


def test_sublevel_constant():
    zeros = ZeroSequence([0])
    grid = BoundaryGrid(10)
    f = BoundaryFunction.constant(grid, 2.0 - 1.0j)
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
    f = BoundaryFunction.constant(grid, 1.0)
    with pytest.warns(UserWarning):
        result = exp_sublevel(zeros, f, eps=1e-6)
    assert result.warnings


def test_quadrature_oracle_validation():
    assert kernel_l1_quadrature(0.0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        kernel_l1_quadrature(1.0)


def test_log_samples_requires_offset():
    with pytest.raises(ValueError):
        log_samples(BoundaryGrid(10))


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
