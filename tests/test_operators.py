import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import CubicSpline

from nskrt.operators import (FourierGrid, Grid, cubic_spline, dy_onesided, lumped_mass,
                             running_trapezoid)


def _padded(f, parity):
    """The ghost-padded form the parity stencils stand for."""
    return np.concatenate([parity * f[..., 1:2], f, parity * f[..., -2:-1]], axis=-1)


@pytest.mark.parametrize("parity", [+1, -1, np.array([[1.0], [-1.0]])])
def test_parity_stencils_match_padded_form(parity):
    g = Grid(8, 16, 1.0, 1.0)
    f = np.random.default_rng(0).standard_normal((8, 2, 17) if np.ndim(parity) else (8, 17))
    p = _padded(f, parity)
    assert np.array_equal(g.dy(f, parity), (p[..., 2:] - p[..., :-2]) / (2.0 * g.dyy))
    assert np.array_equal(g.d2y(f, parity), (p[..., 2:] - 2.0 * f + p[..., :-2]) / g.dyy**2)


@st.composite
def increasing_grids(draw):
    """(x, rng): 3-64 increasing nodes with steps within a factor 10."""
    n = draw(st.integers(3, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = draw(st.floats(-5.0, 5.0)) + np.concatenate(
        [[0.0], np.cumsum(rng.uniform(0.1, 1.0, n - 1))]) * draw(st.floats(0.01, 100.0))
    return x, rng


@given(increasing_grids())
def test_running_trapezoid_is_scipys(grid):
    x, rng = grid
    f = rng.standard_normal(x.size)
    assert np.array_equal(running_trapezoid(f, x), cumulative_trapezoid(f, x, initial=0.0))


@given(increasing_grids(), st.floats(-8.0, 8.0))
@example((np.array([0.0, 0.3, 1.0]), np.random.default_rng(1)), 0.0)
@example((np.array([0.0, 0.3, 0.5, 1.0]), np.random.default_rng(2)), 0.0)
def test_cubic_spline_matches_scipy_not_a_knot(grid, log_scale):
    x, rng = grid
    y = rng.standard_normal(x.size) * 10.0**log_scale
    xs = np.concatenate([x, rng.uniform(x[0], x[-1], 200)])
    scale = np.max(np.abs(y))
    assert np.max(np.abs(cubic_spline(x, y, xs) - CubicSpline(x, y)(xs))) <= 1e-13 * scale
    # a cubic (a parabola on 3 nodes) is reproduced to round-off
    c = rng.standard_normal(4) * 10.0**log_scale
    if x.size == 3:
        c[0] = 0.0
    u = (x - x[0]) / (x[-1] - x[0])
    us = (xs - x[0]) / (x[-1] - x[0])
    exact = np.polyval(c, us)
    scale = np.max(np.abs(c))
    assert np.max(np.abs(cubic_spline(x, np.polyval(c, u), xs) - exact)) <= 1e-12 * scale


@st.composite
def twin_grids(draw):
    """(Grid, FourierGrid, f, h): two random real fields with mode-0 and
    Nyquist content on one geometry, Ny even or odd."""
    Nx = draw(st.sampled_from([4, 8, 16, 32]))
    Ny = draw(st.integers(16, 41))
    L, h = draw(st.floats(0.25, 4.0)), draw(st.floats(0.25, 4.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0**draw(st.floats(-6.0, 6.0))

    def field():
        nyquist = (-1.0)**np.arange(Nx)[:, None] * rng.standard_normal(Ny + 1)
        return scale * (rng.standard_normal((Nx, Ny + 1)) + rng.standard_normal(Ny + 1)
                        + nyquist)
    return Grid(Nx, Ny, L, h), FourierGrid(Nx, Ny, L, h), field(), field()


@given(twin_grids())
def test_fourier_grid_is_grid_on_rfft_coefficients(twins):
    g, fg, f, h = twins
    fh, hh = g.rfft(f), g.rfft(h)
    pairs = [(g.dx1(f), fg.dx1(fh)),
             (g.dealias_field(f), fg.dealias_field(fh)),
             (dy_onesided(f, g.dyy), dy_onesided(fh, fg.dyy)),
             (g.add_mean_x(f, g.mean_x(h)), fg.add_mean_x(fh, fg.mean_x(hh))),
             (g.add_mean_x(f, -g.mean_x(f)), fg.add_mean_x(fh, -fg.mean_x(fh)))]
    for parity in (+1, -1):
        pairs += [(g.dy(f, parity), fg.dy(fh, parity)),
                  (g.d2y(f, parity), fg.d2y(fh, parity))]
    for physical, fourier in pairs:
        expected = g.rfft(physical)
        assert fourier.shape == expected.shape
        tol = 1e-13 * max(np.max(np.abs(expected)), np.max(np.abs(fh)))
        assert np.max(np.abs(fourier - expected)) <= tol
    # the mean itself: mode 0 over Nx
    assert np.max(np.abs(fg.mean_x(fh) - g.mean_x(f))) <= 1e-13 * np.max(np.abs(f))
    # the transforms are identities: no copy
    assert fg.rfft(fh) is fh and fg.irfft(fh) is fh


@given(st.integers(3, 300), st.floats(1e-4, 1.0), st.integers(0, 2**32 - 1))
def test_lumped_mass_rows_are_the_padded_diagonal(n, dy, seed):
    c = np.random.default_rng(seed).standard_normal(n)
    padded = np.pad(dy * c[None, 1:-1], ((2, 0), (0, 0)))
    assert lumped_mass(c, dy).tobytes() == padded.tobytes()
