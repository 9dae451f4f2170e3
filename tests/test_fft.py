"""The transform route of BoundaryFunction: np.fft up to 2^16 points, bit
for bit, and one radix-2 step per doubling above, to a stated tolerance."""

import math

import numpy as np
import pytest

from modelspace.boundary import _FFT_LEAF, _fft, _twiddles

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
    odd *= np.conj(_twiddles(x.size)) if inverse else _twiddles(x.size)
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


def test_twiddle_table_is_read_only_and_shared(rng):
    M = 1 << 17
    x = _signal(rng, M)
    _fft(x)
    table = _twiddles(M)
    kept = table.copy()
    _fft(x, inverse=True)
    _fft(x)
    assert _twiddles(M) is table
    assert np.array_equal(table, kept)
    assert table.shape == (M // 2,) and not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 0
    assert np.array_equal(table, np.exp(-2j * np.pi * np.arange(M // 2) / M))
