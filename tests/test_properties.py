"""Algebraic properties of the boundary calculus, to rounding.

tilde is an isometric involution, the Riesz projections are idempotent and
split f, and model_project keeps f's values at the zeros of theta.  Each
bound is a few times the largest gap measured over 20 seeded draws per
grid (5 at m = 17) on both offsets; each test takes 3 (1 at m = 17).
"""

import numpy as np
import pytest

from modelspace import (
    BlaschkeProduct,
    BoundaryFunction,
    BoundaryGrid,
    ZeroSequence,
    cauchy_eval,
    lp_norm,
    model_project,
    riesz_project,
    tilde,
)

EPS = np.finfo(float).eps
CASES = [(m, offset) for m in (4, 12, 17) for offset in (0.0, 0.5)]


def _draws(rng, grid):
    # (zeros, theta, f): three zeros, small at m = 4 so that 16 nodes resolve
    # theta; f complex normal noise
    reach = 0.1 if grid.m == 4 else 0.7
    for _ in range(1 if grid.m == 17 else 3):
        points = rng.uniform(0.0, reach, 3) * np.exp(2j * np.pi * rng.uniform(size=3))
        zeros = ZeroSequence(points)
        noise = rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
        yield zeros, BlaschkeProduct(zeros).sample(grid), BoundaryFunction(grid, noise)


@pytest.mark.parametrize("m, offset", CASES)
def test_tilde_is_an_isometric_involution(m, offset, rng):
    # tilde(theta, tilde(theta, f)) = |z|^2 |theta|^2 f; measured at most 9.5 eps
    # max|f| and 2.2 eps relative in the L2 norm
    grid = BoundaryGrid(m, offset)
    for _, theta, f in _draws(rng, grid):
        top = np.max(np.abs(f.samples))
        once = tilde(theta, f)
        assert np.max(np.abs(tilde(theta, once).samples - f.samples)) <= 32 * EPS * top
        assert lp_norm(once, 2.0) == pytest.approx(lp_norm(f, 2.0), rel=8 * EPS, abs=0)


@pytest.mark.parametrize("m, offset", CASES)
def test_riesz_projections_are_idempotent_and_split_f(m, offset, rng):
    # measured at most 2.2 eps max|f| for P(P f) - P f and 2.8 eps for the split
    grid = BoundaryGrid(m, offset)
    for _, _, f in _draws(rng, grid):
        bound = 8 * EPS * np.max(np.abs(f.samples))
        plus, minus = riesz_project(f, "+"), riesz_project(f, "-")
        assert np.max(np.abs(riesz_project(plus, "+").samples - plus.samples)) <= bound
        assert np.max(np.abs(riesz_project(minus, "-").samples - minus.samples)) <= bound
        assert np.max(np.abs((plus + minus).samples - f.samples)) <= bound


@pytest.mark.parametrize("m, offset", CASES)
def test_model_project_keeps_the_values_at_the_zeros(m, offset, rng):
    # f - model_project(theta, f) lies in theta H2; read through cauchy_eval the
    # values agree to 4.2e-12 of max|f(z_j)| at m = 4 (the grid's aliasing of
    # theta) and 1.4e-15 at m >= 12
    grid = BoundaryGrid(m, offset)
    tol = 1e-10 if m == 4 else 1e-13
    for zeros, theta, _ in _draws(rng, grid):
        spec = np.zeros(grid.size, dtype=complex)
        spec[:8] = rng.normal(size=8) + 1j * rng.normal(size=8)
        f = BoundaryFunction.from_spectrum(grid, spec)
        want = cauchy_eval(f, zeros.points)
        got = cauchy_eval(model_project(theta, f), zeros.points)
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))
