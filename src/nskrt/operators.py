"""Shared discrete calculus.

Two families of helpers live here:

* 1-D quadratic-form assembly on a uniform vertical grid with homogeneous
  Dirichlet ends eliminated (interior unknowns only).  These feed the
  threshold and growth-rate eigensolvers: lumped (trapezoid) mass matrices,
  midpoint-coefficient stiffness matrices for integrals of c*(phi')^2, and
  the squared-second-difference form for integrals of (phi'')^2 whose
  discrete minimizers satisfy the natural condition phi'' = 0 at the walls
  (simply-supported closure).

* 2-D grid calculus on the Fourier x uniform-vertical simulation grid:
  spectral x1 derivatives, ghost-cell vertical derivatives with even/odd
  wall parity or one-sided wall rows (``dy_onesided``, which also serves
  1-D columns), the 2/3 dealias mask, and trapezoid-x-spectral quadrature.

Field arrays are laid out (Nx, Ny+1): axis 0 is the periodic horizontal
direction, axis 1 the wall-bounded vertical direction.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "lumped_mass",
    "stiffness",
    "second_difference_form",
    "trapezoid_weights",
    "dy_onesided",
    "Grid",
]


# ---------------------------------------------------------------------------
# 1-D forms on interior nodes (phi(0) = phi(h) = 0 eliminated)
# ---------------------------------------------------------------------------

def trapezoid_weights(n_nodes: int, dy: float) -> np.ndarray:
    w = np.full(n_nodes, dy)
    w[0] = w[-1] = 0.5 * dy
    return w


def lumped_mass(coef: np.ndarray, dy: float) -> np.ndarray:
    """Diagonal matrix of the form int c*phi^2 on interior nodes.

    Trapezoid quadrature; the wall nodes carry phi = 0 so only interior
    weights (all equal to dy) survive.
    """
    c = np.asarray(coef, dtype=float)
    return np.diag(dy * c[1:-1])


def stiffness(coef: np.ndarray, dy: float) -> np.ndarray:
    """Tridiagonal matrix of the form int c*(phi')^2 on interior nodes.

    The coefficient is averaged onto interval midpoints, which keeps the
    form symmetric positive definite for c > 0 and second-order accurate.
    """
    c = np.asarray(coef, dtype=float)
    cm = 0.5 * (c[:-1] + c[1:])          # one value per interval
    n = c.size - 2
    K = np.zeros((n, n))
    idx = np.arange(n)
    K[idx, idx] = (cm[:-1] + cm[1:]) / dy
    K[idx[:-1], idx[:-1] + 1] = -cm[1:-1] / dy
    K[idx[1:], idx[1:] - 1] = -cm[1:-1] / dy
    return K


def second_difference_form(n_interior: int, dy: float) -> np.ndarray:
    """Matrix of the form int (phi'')^2 on interior nodes.

    phi'' is sampled by the compact second difference at interior nodes
    (wall values of phi are zero) and squared against weight dy.  The
    resulting pentadiagonal form is the simply-supported discrete
    biharmonic: its minimizers satisfy phi = 0 and phi'' = 0 at the walls,
    i.e. the wall condition enters naturally rather than being imposed.
    """
    n = n_interior
    D2 = np.zeros((n, n))
    idx = np.arange(n)
    D2[idx, idx] = -2.0 / dy**2
    D2[idx[:-1], idx[:-1] + 1] = 1.0 / dy**2
    D2[idx[1:], idx[1:] - 1] = 1.0 / dy**2
    return dy * (D2.T @ D2)


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

    def __init__(self, Nx: int, Ny: int, L: float, h: float, dealias: bool = True):
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
        keep = m <= Nx // 3 if dealias else m < Nx // 2  # Nyquist always dropped
        self.mask = keep.reshape(-1, 1)
        self.wy = trapezoid_weights(Ny + 1, self.dyy)

    # -- spectral x1 ---------------------------------------------------

    def rfft(self, f: np.ndarray) -> np.ndarray:
        return np.fft.rfft(f, axis=0)

    def irfft(self, fh: np.ndarray) -> np.ndarray:
        return np.fft.irfft(fh, n=self.Nx, axis=0)

    def dx1(self, f: np.ndarray) -> np.ndarray:
        fh = self.rfft(f)
        fh *= 1j * self.xi
        fh[-1] = 0.0  # Nyquist derivative is not representable
        return self.irfft(fh)

    def dealias_field(self, f: np.ndarray) -> np.ndarray:
        return self.irfft(self.rfft(f) * self.mask)

    # -- vertical ghosts -----------------------------------------------

    def _pad(self, f: np.ndarray, parity: int) -> np.ndarray:
        """Append one reflected ghost node on each side of axis 1."""
        lo = parity * f[:, 1:2]
        hi = parity * f[:, -2:-1]
        return np.concatenate([lo, f, hi], axis=1)

    def dy(self, f: np.ndarray, parity: int) -> np.ndarray:
        """Wide centered d/dy2 with parity ghosts (+1 even, -1 odd)."""
        g = self._pad(f, parity)
        return (g[:, 2:] - g[:, :-2]) / (2.0 * self.dyy)

    def d2y(self, f: np.ndarray, parity: int) -> np.ndarray:
        """Compact second difference with parity ghosts."""
        g = self._pad(f, parity)
        return (g[:, 2:] - 2.0 * f + g[:, :-2]) / self.dyy**2

    # -- quadrature and norms --------------------------------------------

    def integrate(self, f: np.ndarray) -> float:
        """Cell integral: uniform (spectral) in x1, trapezoid in y2."""
        return float(self.dx * np.sum(f @ self.wy))

    def l2(self, *fields: np.ndarray) -> float:
        return float(np.sqrt(sum(self.integrate(f * f) for f in fields)))

    def l2_fourier(self, f: np.ndarray) -> float:
        """Same L2 norm evaluated from rfft coefficients (Parseval)."""
        fh = self.rfft(f)
        w = np.full(fh.shape[0], 2.0)
        w[0] = 1.0
        if self.Nx % 2 == 0:
            w[-1] = 1.0
        col = (np.abs(fh) ** 2 * w.reshape(-1, 1)) @ self.wy
        return float(np.sqrt(self.dx * np.sum(col) / self.Nx))
