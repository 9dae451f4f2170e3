"""H2 and K2 defects read from the two halves of the transform.

The defects are held to closed forms, to the full-spectrum route
(conftest.spectrum_defect) at DEFECT_RTOL, and to the same value at every
power-of-two amplitude; at m = 17 they build no M-point spectrum and stay
within one sample-sized array of tracemalloc peak.
"""

from pathlib import Path

import numpy as np
import pytest

from conftest import DEFECT_RTOL, spectrum_defect, transient_peak
from modelspace import (
    BlaschkeProduct,
    BoundaryFunction,
    BoundaryGrid,
    InterpolantRepresentation,
    ZeroSequence,
    cauchy_eval,
    h2_defect,
    membership_defect,
    tilde,
)
from modelspace import boundary
from modelspace.interp import _polar_lattice_eval

SRC = Path(__file__).resolve().parents[1] / "src" / "modelspace"
ZEROS = ZeroSequence([0.5, -0.3j, 0.2 + 0.6j])


def _full_spectrum(f):
    # the spectrum the cache would hold, built on an equal function
    return BoundaryFunction(f.grid, f.samples).spectrum


def _mode(grid, k):
    # z^k at the nodes, with its phase 2 pi k (t + offset) / M reduced exactly
    twice = (2 * np.arange(grid.size) + int(2 * grid.offset)) * k % (2 * grid.size)
    return np.exp(1j * np.pi * twice / grid.size)


def _scaled(f, k):
    # 2^k f, exactly
    return BoundaryFunction(f.grid, np.ldexp(f.samples.view(float), k).view(complex))


@pytest.mark.parametrize("m", [4, 12, 17, 18])
@pytest.mark.parametrize("offset", [0.0, 0.5])
def test_h2_defect_of_two_modes_is_their_energy_share(m, offset, rng):
    # h2_defect(a z^k + b conj(z)^j) = |b|^2 / (|a|^2 + |b|^2) for modes in the
    # band, the Nyquist mode -M/2 included
    grid = BoundaryGrid(m, offset)
    half = grid.size // 2
    for k, j in [(0, 1), (3, 2), (half - 1, half)]:
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        f = BoundaryFunction(grid, a * _mode(grid, k) + b * _mode(grid, -j))
        share = abs(b) ** 2 / (abs(a) ** 2 + abs(b) ** 2)
        assert h2_defect(f) == pytest.approx(share, rel=1e-13), (k, j)


@pytest.mark.parametrize("m", [4, 12, 17])
@pytest.mark.parametrize("offset", [0.0, 0.5])
def test_k2_defect_of_theta_is_one(m, offset):
    # tilde(theta, theta) = conj(z) |theta|^2 = conj(z), all in mode -1
    theta = BlaschkeProduct(ZEROS).sample(BoundaryGrid(m, offset))
    assert membership_defect(theta, "K2", theta) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("m", [4, 10, 17])
@pytest.mark.parametrize("offset", [0.0, 0.5])
def test_defects_match_the_full_spectrum_route(m, offset, rng):
    # random, near-H2 and kernel-interpolant inputs; K2 against the larger of
    # the full-spectrum defects of f and of tilde(theta, f)
    grid = BoundaryGrid(m, offset)
    M = grid.size
    theta = BlaschkeProduct(ZEROS).sample(grid)
    analytic = np.zeros(M, dtype=complex)
    analytic[:8] = rng.normal(size=8) + 1j * rng.normal(size=8)
    noise = BoundaryFunction(grid, rng.normal(size=M))
    cases = [
        BoundaryFunction(grid, rng.normal(size=M) + 1j * rng.normal(size=M)),
        BoundaryFunction.from_spectrum(grid, analytic) + 1e-6 * noise,
        InterpolantRepresentation(ZEROS, [1.0, -2.0j, 0.5], "kernel_basis").sample(grid),
    ]
    for f in cases:
        h2 = spectrum_defect(_full_spectrum(f))
        k2 = max(h2, spectrum_defect(_full_spectrum(tilde(theta, f))))
        assert h2_defect(f) == pytest.approx(h2, rel=DEFECT_RTOL, abs=0)
        assert membership_defect(f, "H2") == h2_defect(f)
        assert membership_defect(f, "K2", theta) == pytest.approx(k2, rel=DEFECT_RTOL, abs=0)


@pytest.mark.filterwarnings("error")
def test_defects_are_the_same_at_every_power_of_two_amplitude():
    # f = 2 z^3 + 0.5 conj(z)^2 has defect 0.25 / 4.25; 2^k f neither
    # underflows to 0 nor overflows to NaN, from 2^-900 to 2^900
    grid = BoundaryGrid(10)
    theta = BlaschkeProduct(ZEROS).sample(grid)
    f = BoundaryFunction(grid, 2 * grid.nodes**3 + 0.5 * np.conj(grid.nodes) ** 2)
    h2, k2 = h2_defect(f), membership_defect(f, "K2", theta)
    assert h2 == pytest.approx(0.25 / 4.25, rel=1e-14)
    for k in range(-900, 901):
        g = _scaled(f, k)
        assert h2_defect(g) == membership_defect(g, "H2") == h2, k
        assert membership_defect(g, "K2", theta) == k2, k


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("offset", [0.0, 0.5])
def test_defects_from_the_radix2_parts_are_the_same_at_every_amplitude(offset):
    # m = 17, where the defects are read from E and W o O
    grid = BoundaryGrid(17, offset)
    theta = BlaschkeProduct(ZEROS).sample(grid)
    f = InterpolantRepresentation(ZEROS, [1.0, -2.0j, 0.5], "kernel_basis").sample(grid)
    f = f + 1e-3 * BoundaryFunction(grid, np.conj(grid.nodes))
    h2, k2 = h2_defect(f), membership_defect(f, "K2", theta)
    assert h2 > 1e-8
    for k in (-900, -600, -1, 1, 520, 900):
        g = _scaled(f, k)
        assert h2_defect(g) == h2 and membership_defect(g, "K2", theta) == k2, k


def test_tiny_coanalytic_input_is_refused():
    # 1e-170 conj(z)^2 has defect 1, which |X|^2 would underflow to 0
    grid = BoundaryGrid(10)
    f = BoundaryFunction(grid, 1e-170 * np.conj(grid.nodes) ** 2)
    assert h2_defect(f) == 1.0
    with pytest.raises(ValueError, match="is not in H2"):
        cauchy_eval(f, [0.0])


@pytest.mark.parametrize("m", [4, 12, 17, 18])
def test_evaluators_read_the_bits_of_the_cached_spectrum(m, rng):
    # the nonnegative half the H2 check hands them has the bits of the
    # full spectrum's, so fresh and cached calls agree exactly
    for offset in (0.0, 0.5):
        grid = BoundaryGrid(m, offset)
        analytic = np.zeros(grid.size, dtype=complex)
        analytic[:8] = rng.normal(size=8) + 1j * rng.normal(size=8)
        fresh = BoundaryFunction.from_spectrum(grid, analytic)
        cached = BoundaryFunction(grid, fresh.samples)
        cached.spectrum
        for read in (lambda f: cauchy_eval(f, [0.0, 0.5j, -0.9, 0.3 + 0.3j, 1.0]),
                     lambda f: _polar_lattice_eval(f, np.array([0.5, 0.9]), 16, 1e-8)):
            assert read(fresh).tobytes() == read(cached).tobytes()
        assert "spectrum" not in vars(fresh)


@pytest.mark.parametrize("offset", [0.0, 0.5])
def test_readers_build_no_full_length_transform(offset, monkeypatch):
    # m = 17 with no cached spectrum: every transform is of half the samples
    grid = BoundaryGrid(17, offset)
    theta = BlaschkeProduct(ZEROS).sample(grid)
    f = InterpolantRepresentation(ZEROS, [1.0, -2.0j, 0.5], "kernel_basis").sample(grid)
    sizes = []
    fft = boundary._fft

    def counted(x, inverse=False, out=None):
        result = fft(x, inverse, out)
        sizes.append(result.size)
        return result

    monkeypatch.setattr(boundary, "_fft", counted)
    readers = {
        "h2_defect": lambda: h2_defect(f),
        "membership_defect": lambda: membership_defect(f, "K2", theta),
        "cauchy_eval": lambda: cauchy_eval(f, [0.0, 0.5j]),
        "polar_lattice": lambda: _polar_lattice_eval(f, np.array([0.5]), 16, 1e-8),
    }
    for name, read in readers.items():
        sizes.clear()
        read()
        assert sizes and max(sizes) == grid.size // 2, name
    assert "spectrum" not in vars(f)


def test_h2_defect_peaks_at_one_sample_sized_array():
    # m = 17 with no cached spectrum: the parts E and W o O, 1 MiB each, and
    # chunks of modes
    grid = BoundaryGrid(17, 0.5)
    f = InterpolantRepresentation(ZEROS, [1.0, -2.0j, 0.5], "kernel_basis").sample(grid)
    h2_defect(BoundaryFunction(grid, f.samples.copy()))  # builds the shared tables
    assert transient_peak(lambda: h2_defect(f)) <= (2 << 20) + (64 << 10)


def test_one_energy_route_in_src():
    # the full-spectrum defect lives in the tests as the oracle alone
    for path in SRC.glob("*.py"):
        assert "_spectrum_defect" not in path.read_text(encoding="utf-8"), path.name
