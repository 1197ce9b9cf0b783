"""Shared discrete calculus.

Three families of helpers live here:

* 1-D quadratic-form assembly on a uniform vertical grid with homogeneous
  Dirichlet ends eliminated (interior unknowns only).  These feed the
  threshold and growth-rate eigensolvers: lumped (trapezoid) mass forms,
  midpoint-coefficient stiffness forms for integrals of c*(phi')^2, and
  the squared-second-difference form for integrals of (phi'')^2 whose
  discrete minimizers satisfy the natural condition phi'' = 0 at the walls
  (simply-supported closure).  Each symmetric form is held in the three
  LAPACK upper band rows of a pentadiagonal: row 2 - j, column i + j holds
  entry (i, i + j), and the rest is zero.

* Running trapezoid integrals and not-a-knot cubic splines of 1-D samples.

* 2-D grid calculus on the Fourier x uniform-vertical simulation grid:
  spectral x1 derivatives, ghost-cell vertical derivatives with even/odd
  wall parity or one-sided wall rows (``dy_onesided``, which also serves
  1-D columns), the 2/3 dealias mask, horizontal means, and
  trapezoid-x-spectral quadrature; ``FourierGrid`` is the same grid on
  the rfft coefficients (axis 0 then holds the Nx/2 + 1 modes).

Field arrays are laid out (Nx, Ny+1): axis 0 is the periodic horizontal
direction, axis 1 the wall-bounded vertical direction.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_banded

__all__ = [
    "lumped_mass",
    "stiffness",
    "second_difference_form",
    "band_matvec",
    "trapezoid_weights",
    "running_trapezoid",
    "cubic_spline",
    "dy_onesided",
    "Grid",
    "FourierGrid",
]


# ---------------------------------------------------------------------------
# 1-D forms on interior nodes (phi(0) = phi(h) = 0 eliminated)
# ---------------------------------------------------------------------------

def trapezoid_weights(n_nodes: int, dy: float) -> np.ndarray:
    w = np.full(n_nodes, dy)
    w[0] = w[-1] = 0.5 * dy
    return w


def lumped_mass(coef: np.ndarray, dy: float) -> np.ndarray:
    """Band rows of the diagonal form int c*phi^2 on interior nodes.

    Trapezoid quadrature; the wall nodes carry phi = 0 so only interior
    weights (all equal to dy) survive.
    """
    c = np.asarray(coef, dtype=float)
    F = np.zeros((3, c.size - 2))
    F[2] = dy * c[1:-1]
    return F


def stiffness(coef: np.ndarray, dy: float) -> np.ndarray:
    """Band rows of the tridiagonal form int c*(phi')^2 on interior nodes.

    The coefficient is averaged onto interval midpoints, which keeps the
    form symmetric positive definite for c > 0 and second-order accurate.
    """
    c = np.asarray(coef, dtype=float)
    cm = 0.5 * (c[:-1] + c[1:])          # one value per interval
    F = np.zeros((3, c.size - 2))
    F[1, 1:] = -cm[1:-1] / dy
    F[2] = (cm[:-1] + cm[1:]) / dy
    return F


def second_difference_form(n_interior: int, dy: float) -> np.ndarray:
    """Band rows of the form int (phi'')^2 on interior nodes.

    phi'' is sampled by the compact second difference at interior nodes
    (wall values of phi are zero) and squared against weight dy.  The
    resulting pentadiagonal form is the simply-supported discrete
    biharmonic: its minimizers satisfy phi = 0 and phi'' = 0 at the walls,
    i.e. the wall condition enters naturally rather than being imposed.
    Written out, dy * D2^T D2 with D2 = tridiag(1, -2, 1)/dy^2 is
    (1, -4, 6, -4, 1)/dy^3, less 1 on the diagonal of each wall row.
    """
    F = np.zeros((3, n_interior))
    F[0, 2:] = 1.0
    F[1, 1:] = -4.0
    F[2] = 6.0
    F[2, [0, -1]] = 5.0
    return F / dy**3


def band_matvec(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Product of the symmetric matrix held in band rows ab with x."""
    y = ab[2] * x
    for j in (1, 2):
        y[:-j] += ab[2 - j, j:] * x[j:]
        y[j:] += ab[2 - j, j:] * x[:-j]
    return y


# ---------------------------------------------------------------------------
# 1-D sampled functions on any increasing grid
# ---------------------------------------------------------------------------

def running_trapezoid(f: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Trapezoid integral of f from x[0] to each node of x."""
    return np.concatenate([[0.0], np.cumsum(np.diff(x) * (f[1:] + f[:-1]) / 2.0)])


def cubic_spline(x: np.ndarray, y: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Not-a-knot cubic spline through (x, y), evaluated at xs.

    The node slopes solve one tridiagonal system; each interval is then the
    cubic Hermite piece.  Three nodes give the parabola through them.
    """
    n = x.size
    dx = np.diff(x)
    m = np.diff(y) / dx
    ab = np.zeros((3, n))
    b = np.empty(n)
    ab[0, 2:] = dx[:-1]
    ab[1, 1:-1] = 2.0 * (dx[:-1] + dx[1:])
    ab[2, :-2] = dx[1:]
    b[1:-1] = 3.0 * (dx[1:] * m[:-1] + dx[:-1] * m[1:])
    if n == 3:                  # parabola: s0 + s1 = 2 m0, s1 + s2 = 2 m1
        ab[1, 0] = ab[0, 1] = ab[1, -1] = ab[2, -2] = 1.0
        b[0], b[-1] = 2.0 * m[0], 2.0 * m[-1]
    else:                       # third derivative continuous at x[1] and x[-2]
        d0, d1 = x[2] - x[0], x[-1] - x[-3]
        ab[1, 0], ab[0, 1], ab[1, -1], ab[2, -2] = dx[1], d0, dx[-2], d1
        b[0] = ((dx[0] + 2.0 * d0) * dx[1] * m[0] + dx[0]**2 * m[1]) / d0
        b[-1] = (dx[-1]**2 * m[-2] + (2.0 * d1 + dx[-1]) * dx[-2] * m[-1]) / d1
    s = solve_banded((1, 1), ab, b, check_finite=False)
    i = np.clip(np.searchsorted(x, xs, side="right") - 1, 0, n - 2)
    t = xs - x[i]
    c = (s[i] + s[i + 1] - 2.0 * m[i]) / dx[i]
    return ((c / dx[i] * t + ((m[i] - s[i]) / dx[i] - c)) * t + s[i]) * t + y[i]


# ---------------------------------------------------------------------------
# 2-D simulation grid
# ---------------------------------------------------------------------------

def dy_onesided(f: np.ndarray, dy: float) -> np.ndarray:
    """Centered first derivative along the last axis, with second-order
    one-sided rows at both ends (no wall condition imposed)."""
    out = np.empty_like(f)
    out[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (2.0 * dy)
    out[..., 0] = (-3.0 * f[..., 0] + 4.0 * f[..., 1] - f[..., 2]) / (2.0 * dy)
    out[..., -1] = (3.0 * f[..., -1] - 4.0 * f[..., -2] + f[..., -3]) / (2.0 * dy)
    return out


class Grid:
    """Fourier x collocated-vertical grid with parity ghost cells.

    Vertical derivative stencils close with one ghost node past each wall,
    filled by even reflection (fields with zero normal derivative: v1, rho
    perturbation, pressure) or odd reflection (fields vanishing at the
    wall: v2).  Even ghosts make the wide centered first derivative exactly
    zero at the wall; odd ghosts make the wall value itself zero.
    """

    def __init__(self, Nx: int, Ny: int, L: float, h: float):
        self.Nx = int(Nx)
        self.Ny = int(Ny)
        self.L = float(L)
        self.h = float(h)
        self.dx = 2.0 * np.pi * L / Nx
        self.dyy = h / Ny
        self.x = np.arange(Nx) * self.dx
        self.y = np.linspace(0.0, h, Ny + 1)
        # rfft wavenumbers: mode m has horizontal wavenumber m / L
        m = np.arange(Nx // 2 + 1)
        self.xi = (m / L).reshape(-1, 1)
        self.ixi = 1j * self.xi
        self.ixi[-1] = 0.0  # Nyquist derivative is not representable
        self.mask = (m <= Nx // 3).reshape(-1, 1)  # 2/3 rule
        self.wy = trapezoid_weights(Ny + 1, self.dyy)

    # -- spectral x1 ---------------------------------------------------

    def rfft(self, f: np.ndarray) -> np.ndarray:
        return np.fft.rfft(f, axis=0)

    def irfft(self, fh: np.ndarray) -> np.ndarray:
        return np.fft.irfft(fh, n=self.Nx, axis=0)

    def dx1(self, f: np.ndarray) -> np.ndarray:
        fh = self.rfft(f)
        fh *= self.ixi
        return self.irfft(fh)

    def dealias_field(self, f: np.ndarray) -> np.ndarray:
        return self.irfft(self.rfft(f) * self.mask)

    # -- vertical parity stencils ---------------------------------------

    def dy(self, f: np.ndarray, parity) -> np.ndarray:
        """Wide centered d/dy2 with parity ghosts (+1 even, -1 odd; an
        array of parities broadcasts against the leading axes).  The ghost
        past each wall is parity times the node next to it."""
        out = np.empty_like(f)
        out[..., 1:-1] = f[..., 2:] - f[..., :-2]
        out[..., :1] = f[..., 1:2] - parity * f[..., 1:2]
        out[..., -1:] = parity * f[..., -2:-1] - f[..., -2:-1]
        out /= 2.0 * self.dyy
        return out

    def d2y(self, f: np.ndarray, parity) -> np.ndarray:
        """Compact second difference with parity ghosts (as in ``dy``)."""
        out = np.empty_like(f)
        out[..., 1:-1] = f[..., 2:] - 2.0 * f[..., 1:-1] + f[..., :-2]
        out[..., :1] = f[..., 1:2] - 2.0 * f[..., :1] + parity * f[..., 1:2]
        out[..., -1:] = parity * f[..., -2:-1] - 2.0 * f[..., -1:] + f[..., -2:-1]
        out /= self.dyy**2
        return out

    # -- horizontal means: a (1, Ny+1) row, and f plus an x1-independent m

    def mean_x(self, f: np.ndarray) -> np.ndarray:
        return np.mean(f, axis=0, keepdims=True)

    def add_mean_x(self, f: np.ndarray, m: np.ndarray) -> np.ndarray:
        return f + m

    # -- quadrature and norms --------------------------------------------

    def integrate(self, f: np.ndarray) -> float:
        """Cell integral: uniform (spectral) in x1, trapezoid in y2."""
        return float(self.dx * np.sum(f @ self.wy))

    def l2(self, *fields: np.ndarray) -> float:
        return float(np.sqrt(sum(self.integrate(f * f) for f in fields)))


class FourierGrid(Grid):
    """The same grid on rfft coefficients: identity transforms make dx1 and
    dealias_field products, the vertical stencils serve complex fields as
    they are, and the means act on mode 0 (Nx times the mean).  Quadrature
    and norms stay physical-space operations."""

    def rfft(self, f: np.ndarray) -> np.ndarray:
        return f

    def irfft(self, fh: np.ndarray) -> np.ndarray:
        return fh

    def dx1(self, f: np.ndarray) -> np.ndarray:   # Grid.dx1 would multiply f in place
        return f * self.ixi

    def mean_x(self, fh: np.ndarray) -> np.ndarray:
        return fh[:1] / self.Nx

    def add_mean_x(self, fh: np.ndarray, m: np.ndarray) -> np.ndarray:
        return np.concatenate([fh[:1] + self.Nx * m, fh[1:]])
