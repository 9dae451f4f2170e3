import mpmath
import numpy as np
import pytest

from conftest import mp_rung_derivatives, random_zero_sequence, transient_peak
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
from modelspace import core
from modelspace.blaschke import (
    GOLDEN_ITERS,
    POINT_BLOCK,
    _lagrange_ladder,
    _rung_derivatives,
    _unit,
)
from modelspace.core import CHUNK_ENTRIES
from modelspace.experiments import _truncation_ladder


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
    # 1 - conj(z_j) z is exactly 0 at z = 1 / conj(z_j) for these zeros, a
    # point outside the closed disk: refused before any factor is formed
    product = _product(0.5, 0.25j)
    for pole in (2.0, 4.0j):
        with pytest.raises(ValueError, match="closed unit disk"):
            eval_product(product, pole)
        with pytest.raises(ValueError, match="closed unit disk"):
            eval_product(product, np.array([0.3, pole]))
    with pytest.raises(ValueError, match="closed unit disk"):
        blaschke_factor(0.5, 2.0)


def test_eval_product_rejects_nan_points():
    # a NaN point is no point of the disk: refused, not passed through as NaN
    product = _product(0.5, 0.25j)
    for bad in (complex(np.nan), np.array([0.3, np.nan, 0.1j])):
        with pytest.raises(ValueError, match="closed unit disk"):
            eval_product(product, bad)
    with pytest.raises(ValueError, match="closed unit disk"):
        blaschke_factor(0.5, complex(np.nan, 0.3))


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


@pytest.mark.parametrize("m", [12, 15, 17])
@pytest.mark.parametrize("offset", [0.0, 0.5])
def test_rung_products_match_per_rung_rebuild(m, offset):
    # m >= 15 spans more than one POINT_BLOCK, so rungs cross block boundaries
    grid = BoundaryGrid(m, offset)
    assert (grid.size > POINT_BLOCK) == (m >= 15)
    for n in (3, 4, 12, 13):
        zeros = generate_sequence("rotated_radial", q=0.7, n=n, angle_step=0.13)
        ladder = _truncation_ladder(n)
        oracle = {k: BlaschkeProduct(zeros.truncate(k)).sample(grid).samples for k in ladder}
        yielded = []
        for k, vals in zip(ladder, _lagrange_ladder(zeros.points, [], grid.nodes, ladder)):
            assert np.array_equal(vals, oracle[k])
            yielded.append((k, vals))
        # every rung's array is the consumer's: the running product moved on
        # after the rung was closed, and it must not have moved the array with it
        assert [k for k, _ in yielded] == ladder
        for k, vals in yielded:
            assert np.array_equal(vals, oracle[k])


def _mp_product(points, z):
    # B_1(z), ..., B_n(z) at 40 digits, from the double inputs taken exactly
    z = mpmath.mpc(z)
    out, running = [], mpmath.mpc(1)
    for zj in points:
        zj = mpmath.mpc(zj)
        unit = mpmath.mpc(-1) if zj == 0 else abs(zj) / zj
        running *= unit * (zj - z) / (1 - mpmath.conj(zj) * z)
        out.append(complex(running))
    return out


@pytest.mark.parametrize("case", ["rotated_radial", "separated", "origin", "near_boundary"])
def test_eval_product_matches_mpmath(case, rng):
    zeros = {
        "rotated_radial": lambda: generate_sequence("rotated_radial", q=0.7, n=12, angle_step=0.13),
        "separated": lambda: random_zero_sequence(rng, 10),
        "origin": lambda: ZeroSequence([0, 0.99, -0.95j, 0.5 + 0.5j, -0.7 + 0.1j, 0.98j]),
        "near_boundary": lambda: ZeroSequence([0, 0.999, -0.99j, 0.995 * np.exp(2.0j)]),
    }[case]()
    nodes = BoundaryGrid(8, 0.5).nodes
    radii = np.sqrt(rng.uniform(0.0, 0.998**2, 64))
    interior = radii * np.exp(2j * np.pi * rng.uniform(0, 1, 64))
    points = np.concatenate([nodes, interior, zeros.points[:2]])
    with mpmath.workdps(40):
        expected = np.array([_mp_product(zeros.points, z) for z in points]).T
    # each factor carries a few roundings plus the cancellation in 1 - conj(z_j) z,
    # about eps / |1 - conj(z_j) z| relative (measured: at most 0.89 of eps * cond);
    # near_boundary's zeros sit so close to grid nodes (0.012 from z = 0.999) that
    # this reaches 1.6e-14, while the other sequences stay within 1e-14 everywhere
    cond = np.cumsum(1.0 + 1.0 / np.abs(1.0 - np.conj(zeros.points)[:, None] * points), axis=0)
    for n in range(1, len(zeros) + 1):
        err = np.abs(eval_product(BlaschkeProduct(zeros.truncate(n)), points) - expected[n - 1])
        assert np.all(err <= 4.0 * np.finfo(float).eps * cond[n - 1])
        assert case == "near_boundary" or err.max() < 1e-14


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


@pytest.mark.parametrize("case", ["pair", "rotated_radial", "separated", "origin"])
def test_rung_derivatives_match_mpmath(case, rng):
    # every rung's column, B_n'(z_j) for j < n, against the product rule at 40
    # digits; "pair" is the 2-zero case, where numpy's prod and the running
    # product of the ladder multiply in a different operand order
    zeros = {
        "pair": lambda: ZeroSequence([0.3 + 0.4j, -0.6 + 0.1j]),
        "rotated_radial": lambda: generate_sequence("rotated_radial", q=0.7, n=12, angle_step=0.13),
        "separated": lambda: random_zero_sequence(rng, 10),
        "origin": lambda: ZeroSequence([0, 0.99, -0.95j, 0.5 + 0.5j, -0.7 + 0.1j, 0.98j]),
    }[case]()
    pts = zeros.points
    derivatives = _rung_derivatives(zeros)
    assert np.array_equal(all_derivatives(BlaschkeProduct(zeros)), derivatives[:, -1])
    with mpmath.workdps(40):
        expected = mp_rung_derivatives(pts)
    # each factor carries a few roundings plus the cancellation in
    # 1 - conj(z_k) z_j, which for k = j is the 1 - |z_j|^2 of b_j'(z_j)
    cond = np.cumsum(1.0 + 1.0 / np.abs(1.0 - np.conj(pts)[None, :] * pts[:, None]), axis=1)
    for n in range(1, len(zeros) + 1):
        for j in range(n):
            want = complex(expected[j][n - 1])
            err = abs(derivatives[j, n - 1] - want) / abs(want)
            assert err <= 4.0 * np.finfo(float).eps * cond[j, n - 1], (n, j, err)


def _whole_matrix_derivatives(pts):
    # the n x n route: every factor at once, then one running product per row
    num = pts[None, :] - pts[:, None]
    den = 1.0 - np.conj(pts)[None, :] * pts[:, None]
    units = np.array([_unit(zj) for zj in pts])
    fac = units[None, :] * num / den
    np.fill_diagonal(fac, [-_unit(zj) / (1.0 - abs(zj) ** 2) for zj in pts])
    return np.cumprod(fac, axis=1)


@pytest.mark.parametrize("entries", [1000, CHUNK_ENTRIES])
@pytest.mark.parametrize("n", [1, 2, 12, 60, 200])
def test_row_blocks_give_the_whole_matrix_bits(n, entries, monkeypatch, rng):
    # 1000 entries cut 200 zeros into blocks of 5 rows; n = 2 is where np.prod
    # and the running product round apart, so the blocks keep the running product
    monkeypatch.setattr(core, "CHUNK_ENTRIES", entries)
    zeros = random_zero_sequence(rng, n, min_separation=0.05) if n > 2 else generate_sequence(
        "rotated_radial", q=0.6, n=n, angle_step=0.3)
    expected = _whole_matrix_derivatives(zeros.points)
    assert _rung_derivatives(zeros).tobytes() == expected.tobytes()
    assert all_derivatives(BlaschkeProduct(zeros)).tobytes() == expected[:, -1].tobytes()


def test_interpolation_delta_holds_two_row_blocks(rng):
    # 2,000 zeros: a block of factors and its denominators, each one chunk,
    # plus the length-n vectors (the n x n route peaked at 244 MiB)
    r = np.sqrt(rng.uniform(0.0, 0.95**2, 2000))
    product = BlaschkeProduct(ZeroSequence(r * np.exp(2j * np.pi * rng.uniform(size=2000))))
    interpolation_delta(product)
    peak = transient_peak(lambda: interpolation_delta(product))
    assert peak <= 2 * 16 * CHUNK_ENTRIES + (512 << 10)


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


@pytest.mark.parametrize("zeta", [np.nan, complex(np.nan, 0.0), complex(1.0, np.nan), np.inf])
def test_frostman_sum_refuses_non_finite_points(zeta):
    # NaN compares False with the circle tolerance, so it is refused, not summed to nan
    with pytest.raises(ValueError, match="unit circle"):
        frostman_sum(ZeroSequence([0.5]), zeta)


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


def _scalar_frostman_sum(zeros, t):
    # the 1-D form of frostman_sum at exp(i t)
    dist = np.abs(complex(np.exp(1j * t)) - zeros.points)
    assert dist.min() >= 1e-15
    return float(np.sum((1.0 - zeros.moduli) / dist))


def _scalar_golden_max(fun, lo, hi):
    # one bracket at a time, one scalar evaluation per step: the form the
    # vectorised search of frostman_sup replaced
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(GOLDEN_ITERS):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return max(fc, fd)


def _scalar_frostman_sup(zeros, grid_size):
    theta = 2.0 * np.pi * np.arange(grid_size) / grid_size
    nodes = np.exp(1j * theta)
    vals = np.zeros(grid_size)
    for zj, gap in zip(zeros.points, 1.0 - zeros.moduli):
        vals += gap / np.abs(nodes - zj)
    spacing = 2.0 * np.pi / grid_size
    best = float(vals.max())
    # the four top nodes, then each zero's direction at half-width min(spacing, 1 - |z_j|)
    brackets = [(theta[i], spacing) for i in np.argsort(vals)[::-1][:4]]
    brackets += zip(np.angle(zeros.points), np.minimum(spacing, 1.0 - zeros.moduli))
    for t0, half in brackets:
        best = max(best, _scalar_golden_max(
            lambda t: _scalar_frostman_sum(zeros, t), t0 - half, t0 + half))
    return best


@pytest.mark.parametrize("grid_size", [16, 256, 1024, 4096])
def test_frostman_sup_equals_scalar_search(grid_size):
    # 80 random sequences per grid size, n from 1 to 29, moduli up to 0.99
    rng = np.random.default_rng(grid_size)
    for _ in range(80):
        n = int(rng.integers(1, 30))
        zeros = ZeroSequence(rng.uniform(0.0, 0.99, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n)))
        assert frostman_sup(zeros, grid_size) == _scalar_frostman_sup(zeros, grid_size)
        t = rng.uniform(0.0, 2.0 * np.pi)
        assert frostman_sum(zeros, np.exp(1j * t)) == _scalar_frostman_sum(zeros, t)


@pytest.mark.parametrize("q", [0.5, 0.7])
def test_frostman_sup_equals_scalar_search_on_radial_ladders(q):
    for n in (1, 4, 8, 12):
        for step in (0.0, 0.13, 0.45):
            zeros = generate_sequence("rotated_radial", q=q, n=n, angle_step=step)
            for grid_size in (16, 1024, 4096):
                assert frostman_sup(zeros, grid_size) == _scalar_frostman_sup(zeros, grid_size)


def test_frostman_sup_finds_a_peak_between_grid_nodes():
    # a zero 1e-4 from the circle whose direction lies half-way between two of
    # 4096 nodes: its peak is narrower than the node spacing, and the four top
    # nodes, on the broad peak of -0.5 and beside the sharp one, read 1.000069
    zeros = ZeroSequence([(1 - 1e-4) * np.exp(2j * np.pi * 1000.5 / 4096), -0.5])
    peak = frostman_sum(zeros, zeros.points[0] / zeros.moduli[0])
    assert peak == pytest.approx(1.440903, abs=1e-6)
    assert frostman_sup(zeros, 4096) >= peak * (1.0 - 1e-9)


@pytest.mark.parametrize("grid_size", [256, 4096])
def test_frostman_sup_bounds_the_sum_at_every_zero_direction(grid_size):
    # 100 sequences of 2 to 12 zeros with 1 - |z_j| log-uniform in [1e-6, 0.32]
    rng = np.random.default_rng(grid_size)
    for _ in range(100):
        n = int(rng.integers(2, 13))
        gaps = np.exp(rng.uniform(np.log(1e-6), np.log(0.32), n))
        zeros = ZeroSequence((1.0 - gaps) * np.exp(2j * np.pi * rng.uniform(size=n)))
        at_zeros = max(frostman_sum(zeros, zj / abs(zj)) for zj in zeros.points)
        assert frostman_sup(zeros, grid_size) >= at_zeros * (1.0 - 1e-9)


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
