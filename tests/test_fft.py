"""The transform route of BoundaryFunction: np.fft up to 2^16 points, bit
for bit, and one radix-2 step per doubling above, to a stated tolerance.
The radix-2 twiddles and the half-offset phase are read from the grids'
node tables, and every route gives the bits of the same arithmetic on the
tables built from their defining formulas."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import formula_phase, formula_twiddles
from modelspace import BoundaryFunction, BoundaryGrid, riesz_project
from modelspace import boundary
from modelspace.boundary import _FFT_LEAF, _fft

# |_fft(x) - np.fft| <= FFT_RTOL max|X| above 2^16 points, forward and inverse
# (at most 6.1e-16 measured at m in {17, 18, 19} on normal, spiky and tone inputs)
FFT_RTOL = 4e-15


def _signal(rng, M):
    return rng.normal(size=M) + 1j * rng.normal(size=M)


def _unnormalised_ifft(x):
    return np.fft.ifft(x) * x.size


@pytest.mark.parametrize("m", [4, 12, 16])
def test_fft_is_np_fft_up_to_the_leaf(rng, m):
    x = _signal(rng, 1 << m)
    assert x.size <= _FFT_LEAF
    assert np.array_equal(_fft(x), np.fft.fft(x))
    assert np.array_equal(_fft(x, inverse=True), _unnormalised_ifft(x))
    assert np.array_equal(_fft(x, inverse=True), np.fft.ifft(x, norm="forward"))


@pytest.mark.parametrize("m", [17, 18])
def test_fft_within_tolerance_of_np_fft_above_the_leaf(rng, m):
    x = _signal(rng, 1 << m)
    kept = x.copy()
    for got, expected in ((_fft(x), np.fft.fft(x)),
                          (_fft(x, inverse=True), _unnormalised_ifft(x))):
        assert got.shape == x.shape and got.dtype == complex
        assert np.max(np.abs(got - expected)) <= FFT_RTOL * np.max(np.abs(expected))
    assert np.array_equal(x, kept)


def _table_fft(x, inverse=False):
    # the radix-2 route with a conjugated twiddle table for the inverse steps
    if x.size <= _FFT_LEAF:
        return np.fft.ifft(x, norm="forward") if inverse else np.fft.fft(x)
    even, odd = _table_fft(x[0::2], inverse), _table_fft(x[1::2], inverse)
    odd *= np.conj(formula_twiddles(x.size)) if inverse else formula_twiddles(x.size)
    out = np.empty(x.size, dtype=complex)
    np.add(even, odd, out=out[: even.size])
    np.subtract(even, odd, out=out[even.size :])
    return out


@pytest.mark.parametrize("m", [17, 18, 19])
def test_inverse_steps_match_a_conjugated_twiddle_table(rng, m):
    # odd * conj(w) taken as conj(conj(odd) w) in place gives the table's bits
    x = _signal(rng, 1 << m)
    for inverse in (False, True):
        assert _fft(x, inverse).tobytes() == _table_fft(x, inverse).tobytes()


def test_fft_matches_direct_sums_at_sampled_modes(rng):
    # X_k = sum_j x_j exp(-2 pi i j k / M), each sum in math.fsum over twiddles
    # from the exact residue j k mod M, taken in (-M/2, M/2] to keep angles small;
    # the direct sums differ from np.fft by 2.0e-16 max|X|, from _fft by 2.7e-16
    M = 1 << 17
    x = _signal(rng, M)
    j = np.arange(M, dtype=np.int64)
    modes = [0, 1, 2, 3, M // 4, M // 2 - 1, M // 2, M // 2 + 1, M - 1,
             *rng.integers(0, M, size=7).tolist()]
    forward, inverse = _fft(x), _fft(x, inverse=True)
    top = max(np.max(np.abs(forward)), np.max(np.abs(inverse)))
    for k in modes:
        residue = (j * k) % M
        residue[residue > M // 2] -= M
        for sign, got in ((-1, forward), (1, inverse)):
            terms = x * np.exp(sign * 2j * np.pi * residue / M)
            direct = complex(math.fsum(terms.real), math.fsum(terms.imag))
            assert abs(got[k] - direct) <= FFT_RTOL * top


def test_fft_round_trip_at_m18(rng):
    x = _signal(rng, 1 << 18)
    back = _fft(_fft(x), inverse=True) / x.size  # 4.7e-16 max|x| measured
    assert np.max(np.abs(back - x)) <= FFT_RTOL * np.max(np.abs(x))


def test_radix2_steps_read_the_shared_plain_nodes(rng):
    # the twiddles of a 2^17-point step come from the m = 17 plain grid's node
    # table, which the transforms share and leave as it was
    M = 1 << 17
    x = _signal(rng, M)
    _fft(x)
    table = BoundaryGrid(17).nodes
    kept = table.copy()
    _fft(x, inverse=True)
    _fft(x)
    assert boundary._grid_tables(17, 0.0) is table
    assert np.array_equal(table, kept) and not table.flags.writeable
    assert not hasattr(boundary, "_twiddles")


@pytest.mark.parametrize("m", [4, 12, 17, 18, 19])
def test_node_read_tables_are_the_formula_tables_bit_for_bit(m):
    # Cooley-Tukey: the half-offset phase and the twiddles are conjugated nodes
    # (the nodes themselves at the negative modes), bit for bit, but for entry 0,
    # where the formulas give 1 + 0j and conj(1 + 0j) is 1 - 0j.  The phase is
    # read by multiplying ones, (1 + 0j) t = t exactly for every entry t here
    M = 1 << m
    for grid in (BoundaryGrid(m, 0.5), BoundaryGrid(m)):
        phase, lower = np.ones(M, dtype=complex), np.ones(M // 2, dtype=complex)
        boundary._rephase(phase, grid)
        boundary._rephase(lower, grid)
        expected = formula_phase(grid)
        assert np.array_equal(phase.view(np.uint64), expected.view(np.uint64))
        assert np.array_equal(lower.view(np.uint64), expected[: M // 2].view(np.uint64))
    # the radix-2 step of E = 0 and O = 1 gives E + W o O = W: 0 + t = t here too
    twiddles, minus = np.empty(M // 2, dtype=complex), np.empty(M // 2, dtype=complex)
    boundary._butterfly(np.zeros(M // 2, dtype=complex), np.ones(M // 2, dtype=complex),
                        twiddles, minus)
    assert np.array_equal(twiddles.view(np.uint64), formula_twiddles(M).view(np.uint64))
    assert not np.signbit(phase[0].imag) and not np.signbit(twiddles[0].imag)


def _formula_fft(x, inverse=False, out=None):
    # _fft's radix-2 route on the formula twiddle table, each step in its in-place
    # form: odd *= w, and odd * conj(w) as conj(conj(odd) w) if inverse
    if x.size <= _FFT_LEAF:
        return np.fft.ifft(x, norm="forward", out=out) if inverse else np.fft.fft(x, out=out)
    even, odd = _formula_fft(x[0::2], inverse), _formula_fft(x[1::2], inverse)
    if inverse:
        np.conjugate(odd, out=odd)
    odd *= formula_twiddles(x.size)
    if inverse:
        np.conjugate(odd, out=odd)
    out = np.empty(x.size, dtype=complex) if out is None else out
    np.add(even, odd, out=out[: even.size])
    np.subtract(even, odd, out=out[even.size :])
    return out


def _formula_routes(grid, x):
    # spectrum, from_spectrum, both Riesz halves and both transforms of x, each
    # in its route's arithmetic on the formula phase and twiddle tables
    M, phase = grid.size, formula_phase(grid)
    spec = _formula_fft(x)
    np.multiply(spec.view(float), 1.0 / M, out=spec.view(float))
    spec *= phase
    routes = {"spectrum": spec, "from_spectrum": _formula_fft(x / phase, inverse=True)}
    for sign, dropped in (("+", slice(M // 2, None)), ("-", slice(M // 2))):
        kept = _formula_fft(x)
        kept[dropped] = 0.0
        np.multiply(kept.view(float), 1.0 / M, out=kept.view(float))
        routes[sign] = _formula_fft(kept, inverse=True, out=kept)
    routes["fft"], routes["ifft"] = _formula_fft(x), _formula_fft(x, inverse=True)
    return routes


def _pinned_inputs(grid):
    M, t = grid.size, np.arange(grid.size) + grid.offset
    impulse = np.zeros(M, dtype=complex)
    impulse[0] = 1.0
    return {
        "negative zeros": np.full(M, complex(-0.0, -0.0)),
        "real even": np.cos(2 * np.pi * 5 * t / M) + 0j,
        "impulse": impulse,
        "conj(z)^3": np.conj(grid.nodes) ** 3,
    }


@pytest.mark.parametrize("offset", [0.0, 0.5])
@pytest.mark.parametrize("m", [4, 12, 17, 18])
def test_routes_pin_the_bytes_of_the_formula_tables(m, offset):
    # signed zeros included: the node-read tables change no bit of any route
    grid = BoundaryGrid(m, offset)
    for name, x in _pinned_inputs(grid).items():
        f = BoundaryFunction(grid, x)
        got = {
            "spectrum": f.spectrum,
            "from_spectrum": BoundaryFunction.from_spectrum(grid, x).samples,
            "+": riesz_project(f, "+").samples,
            "-": riesz_project(f, "-").samples,
            "fft": _fft(x),
            "ifft": _fft(x, inverse=True),
        }
        expected = _formula_routes(grid, x)
        for route, value in got.items():
            assert value.tobytes() == expected[route].tobytes(), (name, route)
