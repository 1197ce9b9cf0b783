import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import CubicSpline

from nskrt.operators import Grid, cubic_spline, running_trapezoid


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
