"""Slab geometry and equilibrium density profiles.

The fluid occupies a horizontally periodic slab of width 2*pi*L and height
h.  An equilibrium is a density profile rho_bar(y2) at rest; the pressure
follows from the hydrostatic balance

    P_bar' = kappa * rho_bar * rho_bar''' - g * rho_bar,

integrated here with the trapezoid rule and normalized to P_bar(0) = 0
(pressure is a Lagrange multiplier of the incompressible system, so only
P_bar' matters).

A profile is Rayleigh-Taylor unstable material when rho_bar' > 0 somewhere
(heavier fluid above lighter), and satisfies the *stabilizing condition*
when inf |rho_bar'| > 0 across the whole slab; the latter is what makes the
capillarity threshold finite.  Profiles whose gradient vanishes at the
walls ("boundary flat") are admitted only because the nonlinear energy law
closes without a capillary boundary flux exactly for them; the threshold
solver refuses them.

Profiles are sampled on a uniform vertical grid of N+1 nodes.  Analytic
kinds carry closed-form samplers for rho_bar and its first three
derivatives so they can be resampled exactly at any resolution; tabulated
kinds fall back on 4th-order finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import CubicSpline

from .errors import ConfigError, VacuumError

__all__ = [
    "SlabConfig",
    "DensityProfile",
    "AdmissibilityReport",
    "make_linear_profile",
    "make_tanh_profile",
    "make_boundary_flat_profile",
    "make_cubic_profile",
    "make_fourier_profile",
    "random_stabilizing_profile",
    "make_tabulated_profile",
    "load_profile",
    "save_profile",
    "check_admissibility",
    "equilibrium_pressure",
]

PROFILE_HEADER = "# profile v1"


@dataclass(frozen=True)
class SlabConfig:
    """Physical and geometric parameters shared by every solver.

    g : gravitational acceleration (> 0)
    mu : shear viscosity (> 0)
    kappa : capillarity coefficient (>= 0)
    L : horizontal period parameter; the periodic cell has width 2*pi*L
    h : slab height (> 0)
    """

    g: float
    mu: float
    kappa: float
    L: float
    h: float

    def __post_init__(self):
        for name in ("g", "mu", "L", "h"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"SlabConfig.{name} must be > 0, got {getattr(self, name)}")
        if not self.kappa >= 0.0:
            raise ConfigError(f"SlabConfig.kappa must be >= 0, got {self.kappa}")

    @property
    def width(self) -> float:
        return 2.0 * np.pi * self.L

    def xi(self, k: int) -> float:
        """Horizontal wavenumber of the k-th Fourier mode."""
        return k / self.L


@dataclass(frozen=True)
class _Sampler:
    """Closed-form samplers for an analytic profile (rho and d/dy derivatives)."""

    rho: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray]
    d3: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class DensityProfile:
    """Equilibrium density rho_bar sampled on a uniform vertical grid.

    nodes : y2 grid, N+1 uniformly spaced points covering [0, h]
    rho, d1, d2, d3 : samples of rho_bar and its first three derivatives
    kind : 'linear', an analytic family tag, or 'tabulated'

    Instances are immutable and compared/hashed by identity, which lets
    solvers cache per-profile workspaces.
    """

    nodes: np.ndarray
    rho: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray
    kind: str
    sampler: _Sampler | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        for name in ("nodes", "rho", "d1", "d2", "d3"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            arr.setflags(write=False)
            if arr.shape != self.nodes.shape:
                raise ConfigError(f"DensityProfile.{name} shape mismatch")
        if self.nodes.size < 3:
            raise ConfigError("DensityProfile needs at least 3 nodes")
        dy = np.diff(self.nodes)
        if not np.allclose(dy, dy[0], rtol=1e-12, atol=1e-14 * abs(dy[0])):
            raise ConfigError("DensityProfile grid must be uniform")
        if np.min(self.rho) <= 0.0:
            raise VacuumError(
                f"density profile touches zero (min rho = {np.min(self.rho):g})"
            )

    @property
    def N(self) -> int:
        return self.nodes.size - 1

    @property
    def dy(self) -> float:
        return float(self.nodes[1] - self.nodes[0])

    @property
    def h(self) -> float:
        return float(self.nodes[-1])

    def resample(self, N: int) -> "DensityProfile":
        """Return the same profile sampled on N+1 nodes.

        Analytic kinds re-evaluate their closed forms; tabulated kinds use a
        cubic spline for rho and finite differences for the derivatives.
        """
        if N == self.N:
            return self
        y = np.linspace(0.0, self.h, N + 1)
        if self.sampler is not None:
            s = self.sampler
            return DensityProfile(y, s.rho(y), s.d1(y), s.d2(y), s.d3(y),
                                  kind=self.kind, sampler=s)
        spline = CubicSpline(self.nodes, self.rho)
        return _profile_from_samples(y, spline(y), kind="tabulated")


@dataclass(frozen=True)
class AdmissibilityReport:
    """Admissibility flags for a density profile.

    rt_condition : heavier-above region exists (rho_bar' > 0 somewhere)
    stabilizing : inf |rho_bar'| > 0, required for a finite threshold
    min_abs_d1 : the attained infimum of |rho_bar'| over the grid
    boundary_flat : rho_bar' vanishes (to tolerance) at both walls
    """

    rt_condition: bool
    stabilizing: bool
    min_abs_d1: float
    boundary_flat: bool
    tol: float


def _analytic_profile(config_h: float, N: int, sampler: _Sampler, kind: str) -> DensityProfile:
    y = np.linspace(0.0, config_h, N + 1)
    return DensityProfile(y, sampler.rho(y), sampler.d1(y), sampler.d2(y),
                          sampler.d3(y), kind=kind, sampler=sampler)


def make_linear_profile(rho0: float, slope: float, config: SlabConfig, N: int = 256) -> DensityProfile:
    """Linear profile rho_bar = rho0 + slope * y2 (so rho_bar' is constant)."""
    s = _Sampler(
        rho=lambda y: rho0 + slope * y,
        d1=lambda y: np.full_like(y, slope),
        d2=lambda y: np.zeros_like(y),
        d3=lambda y: np.zeros_like(y),
    )
    return _analytic_profile(config.h, N, s, kind="linear")


def make_tanh_profile(config: SlabConfig, N: int = 256, base: float = 2.0,
                      amp: float = 1.0, steepness: float = 10.0,
                      center: float | None = None, reg_slope: float = 0.0) -> DensityProfile:
    """Smooth density step rho_bar = base + amp*tanh(s*(y2-c)) + reg_slope*y2.

    A small positive reg_slope keeps min |rho_bar'| safely away from zero
    (tanh alone is stabilizing but with an exponentially small wall gradient).
    """
    c = 0.5 * config.h if center is None else center
    a, st = amp, steepness

    def sech2(y):
        return 1.0 / np.cosh(st * (y - c)) ** 2

    s = _Sampler(
        rho=lambda y: base + a * np.tanh(st * (y - c)) + reg_slope * y,
        d1=lambda y: a * st * sech2(y) + reg_slope,
        d2=lambda y: -2.0 * a * st**2 * sech2(y) * np.tanh(st * (y - c)),
        d3=lambda y: a * st**3 * sech2(y) * (4.0 * np.tanh(st * (y - c)) ** 2 - 2.0 * sech2(y)),
    )
    return _analytic_profile(config.h, N, s, kind="tanh")


def make_boundary_flat_profile(config: SlabConfig, N: int = 256,
                               rho0: float = 2.0, amp: float = 1.0) -> DensityProfile:
    """Profile with rho_bar' = amp * sin^2(pi*y2/h): RT region inside, flat walls.

    This is the energy-law test bed: rho_bar'(0) = rho_bar'(h) = 0 makes the
    capillary boundary flux vanish identically.  Not stabilizing.
    """
    h = config.h
    w = np.pi / h
    s = _Sampler(
        rho=lambda y: rho0 + amp * (y / 2.0 - np.sin(2.0 * w * y) / (4.0 * w)),
        d1=lambda y: amp * np.sin(w * y) ** 2,
        d2=lambda y: amp * w * np.sin(2.0 * w * y),
        d3=lambda y: 2.0 * amp * w**2 * np.cos(2.0 * w * y),
    )
    return _analytic_profile(h, N, s, kind="boundary_flat")


def make_cubic_profile(config: SlabConfig, N: int, c0: float, c1: float,
                       c2: float, c3: float) -> DensityProfile:
    """Cubic polynomial profile, handy because rho_bar''' is the constant 6*c3."""
    s = _Sampler(
        rho=lambda y: c0 + c1 * y + c2 * y**2 + c3 * y**3,
        d1=lambda y: c1 + 2.0 * c2 * y + 3.0 * c3 * y**2,
        d2=lambda y: 2.0 * c2 + 6.0 * c3 * y,
        d3=lambda y: np.full_like(y, 6.0 * c3),
    )
    return _analytic_profile(config.h, N, s, kind="cubic")


def make_fourier_profile(config: SlabConfig, N: int, rho0: float, base_slope: float,
                         coeffs: list[tuple[int, float]]) -> DensityProfile:
    """Profile with rho_bar' = base_slope + sum_k a_k cos(k*pi*y2/h).

    Stabilizing whenever base_slope > sum |a_k|; used to generate randomized
    stabilizing profiles with exact derivatives.
    """
    h = config.h
    ks = np.array([k for k, _ in coeffs], dtype=float)
    axs = np.array([a for _, a in coeffs], dtype=float)
    w = ks * np.pi / h

    def rho(y):
        out = rho0 + base_slope * y
        for wk, ak in zip(w, axs):
            out = out + ak * np.sin(wk * y) / wk
        return out

    def d1(y):
        out = np.full_like(y, base_slope)
        for wk, ak in zip(w, axs):
            out = out + ak * np.cos(wk * y)
        return out

    def d2(y):
        out = np.zeros_like(y)
        for wk, ak in zip(w, axs):
            out = out - ak * wk * np.sin(wk * y)
        return out

    def d3(y):
        out = np.zeros_like(y)
        for wk, ak in zip(w, axs):
            out = out - ak * wk**2 * np.cos(wk * y)
        return out

    return _analytic_profile(h, N, _Sampler(rho, d1, d2, d3), kind="fourier")


def random_stabilizing_profile(config: SlabConfig, N: int, rng: np.random.Generator,
                               n_modes: int = 4) -> DensityProfile:
    """Random smooth profile with rho_bar' > 0 everywhere (strictly stabilizing)."""
    base = rng.uniform(0.5, 2.0)
    raw = rng.uniform(-1.0, 1.0, size=n_modes)
    # cap the oscillation so min rho' stays above 20% of the base slope
    raw *= 0.8 * base / max(np.sum(np.abs(raw)), 1e-30)
    coeffs = [(k + 1, float(a)) for k, a in enumerate(raw)]
    rho0 = rng.uniform(1.0, 3.0)
    return make_fourier_profile(config, N, rho0, base, coeffs)


def _fd_derivative(f: np.ndarray, dy: float) -> np.ndarray:
    """4th-order centered first derivative with one-sided stencils at walls."""
    n = f.size
    out = np.empty_like(f)
    if n >= 5:
        out[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * dy)
        edge = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12.0 * dy)
        out[0] = edge @ f[:5]
        out[1] = edge @ f[1:6] if n >= 6 else (f[2] - f[0]) / (2 * dy)
        out[-1] = -(edge @ f[-5:][::-1])
        out[-2] = -(edge @ f[-6:-1][::-1]) if n >= 6 else (f[-1] - f[-3]) / (2 * dy)
    else:
        out[1:-1] = (f[2:] - f[:-2]) / (2.0 * dy)
        out[0] = (f[1] - f[0]) / dy
        out[-1] = (f[-1] - f[-2]) / dy
    return out


def _profile_from_samples(y: np.ndarray, rho: np.ndarray, kind: str) -> DensityProfile:
    dy = y[1] - y[0]
    d1 = _fd_derivative(rho, dy)
    d2 = _fd_derivative(d1, dy)
    d3 = _fd_derivative(d2, dy)
    return DensityProfile(y, rho, d1, d2, d3, kind=kind)


def make_tabulated_profile(y: np.ndarray, rho: np.ndarray) -> DensityProfile:
    """Build a tabulated profile from (y2, rho) samples.

    Non-uniform input grids are resampled onto a uniform grid with the same
    node count via a cubic spline; derivatives come from finite differences.
    """
    y = np.asarray(y, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if y.ndim != 1 or y.shape != rho.shape or y.size < 3:
        raise ConfigError("tabulated profile needs matching 1-D y2 and rho columns")
    if not np.all(np.diff(y) > 0):
        raise ConfigError("tabulated profile requires strictly increasing y2")
    if not np.all(np.isfinite(rho)):
        raise ConfigError("tabulated profile has non-finite rho values")
    dy = np.diff(y)
    if np.allclose(dy, dy[0], rtol=1e-10, atol=0.0):
        return _profile_from_samples(y, rho, kind="tabulated")
    yu = np.linspace(y[0], y[-1], y.size)
    return _profile_from_samples(yu, CubicSpline(y, rho)(yu), kind="tabulated")


def load_profile(path: str | Path) -> DensityProfile:
    """Read a two-column whitespace-separated (y2, rho) file.

    The first line must be the header '# profile v1'.
    """
    path = Path(path)
    with open(path) as fh:
        header = fh.readline().strip()
        if header != PROFILE_HEADER:
            raise ConfigError(
                f"{path}: expected header {PROFILE_HEADER!r}, got {header!r}")
        data = np.loadtxt(fh)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ConfigError(f"{path}: expected two columns (y2, rho)")
    return make_tabulated_profile(data[:, 0], data[:, 1])


def save_profile(p: DensityProfile, path: str | Path) -> None:
    with open(path, "w") as fh:
        fh.write(PROFILE_HEADER + "\n")
        for y, r in zip(p.nodes, p.rho):
            fh.write(f"{y:.17g} {r:.17g}\n")


def check_admissibility(p: DensityProfile, tol: float | None = None) -> AdmissibilityReport:
    """Classify a profile: RT condition, stabilizing condition, flat walls.

    The default tolerance 1e-12 * max|rho_bar'| detects exact zeros of the
    gradient without flagging roundoff.
    """
    scale = float(np.max(np.abs(p.d1)))
    if tol is None:
        tol = 1e-12 * scale
    min_abs = float(np.min(np.abs(p.d1)))
    return AdmissibilityReport(
        rt_condition=bool(np.max(p.d1) > tol),
        stabilizing=bool(min_abs > tol),
        min_abs_d1=min_abs,
        boundary_flat=bool(abs(p.d1[0]) <= tol and abs(p.d1[-1]) <= tol),
        tol=float(tol),
    )


def equilibrium_pressure(p: DensityProfile, config: SlabConfig) -> np.ndarray:
    """Hydrostatic pressure P_bar with P_bar(0) = 0.

    Integrates P_bar' = kappa*rho_bar*rho_bar''' - g*rho_bar by the
    trapezoid rule on the profile grid.
    """
    integrand = config.kappa * p.rho * p.d3 - config.g * p.rho
    return cumulative_trapezoid(integrand, p.nodes, initial=0.0)
