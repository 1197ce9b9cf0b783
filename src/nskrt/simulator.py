"""Time-domain solver for the incompressible NSK perturbation system.

State variables are the deviations (rho_pert, v, beta) from the hydrostatic
equilibrium (rho_bar, 0, P_bar), so the equilibrium is an exact fixed point
of the discrete scheme:

    d/dt rho_pert + v . grad(rho_pert + rho_bar) = 0
    rho (d/dt v + v . grad v) + grad beta - mu lap v
        = kappa div(grad rho_bar x grad rho_bar - grad rho x grad rho)
          - rho_pert g e2,          rho = rho_bar + rho_pert
    div v = 0,   (v2, d2 v1) = 0 on the walls.

The third-order part of the capillary stress is a pure gradient absorbed
into beta, which is why only first derivatives of rho appear above.

Discretization: pseudo-spectral in x1 (rfft, optional 2/3 dealiasing),
second-order centered differences on a collocated uniform grid in y2 with
parity ghost cells (v1 and pressure even, v2 odd; the Navier-slip wall
conditions make those reflections exact).  No Eulerian wall condition for
rho is implied by the wall conditions themselves, so the vertical density
gradient inside the capillary stress defaults to an interior-consistent
one-sided stencil; even (Neumann) and odd ghost closures are switchable
because an imposed closure is a modeling choice whose effect on growth
rates should be measured, not assumed (it is an O(dy) wall-layer
perturbation of the capillary operator).

Time stepping is one IMEX step per call: Strang-split Crank-Nicolson
viscous half-steps (per-Fourier-mode tridiagonal solves with the y2-only
base coefficient mu/rho_bar; the x1-dependent remainder of mu/rho is
folded in implicitly by deferred correction) around an explicit SSP-RK3
sweep of transport, advection, gravity and the capillary stress, each
explicit substep followed by a variable-density projection

    div( (1/rho) grad phi ) = div(v*) / dt,    d2 phi = 0 at the walls,

solved by per-mode banded solves with the y2-only base coefficient
1/rho_bar and deferred correction of the (1/rho - 1/rho_bar) remainder
until the discrete divergence is at rounding level.  Each substep first
predicts the pressure from the instantaneous force balance (the same
elliptic solve applied to div of the acceleration), so the corrector only
removes an O(dt^2) divergence and the projection's kinetic-energy
splitting error is O(dt^2) per unit time while the pressure stays a pure
function of the state (checkpoints remain (t, rho, v)).  The k = 0 mode
is projected exactly: a horizontally averaged vertical velocity that is
discretely divergence-free and vanishes at the walls is identically zero.

The capillary stress is explicit; its stiffness is advective-like here
(restoring frequency ~ sqrt(kappa/rho) |rho_bar'| xi), but the adaptive
step keeps the more conservative surface-tension-style bound
cfl_cap * min(dx,dy)^(3/2) / sqrt(kappa max|rho_bar'| / min rho_bar)
alongside the advective CFL and a buoyancy guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import CubicSpline

from .errors import CflError, ConfigError, SimulationError, VacuumError
from .operators import Grid, dy_onesided
from .profiles import DensityProfile, SlabConfig, check_admissibility

__all__ = [
    "Init",
    "RunConfig",
    "FieldState",
    "init_state",
    "make_state",
    "step",
    "suggest_dt",
    "run",
    "escape_time",
    "write_checkpoint",
    "read_checkpoint",
]

CHECKPOINT_HEADER = b"nsk-ckpt v1\n"


@dataclass(frozen=True)
class Init:
    """Initial-condition selector.

    kind: 'zero', 'eigenfunction' (delta * unstable mode, density slaved by
    the linearized transport relation), 'random_smooth' (seeded smooth
    streamfunction modes up to `cutoff`), or 'file' (checkpoint restart).
    """

    kind: str = "zero"
    delta: float = 0.0
    cutoff: int = 4
    path: str | None = None

    def __post_init__(self):
        if self.kind not in ("zero", "eigenfunction", "random_smooth", "file"):
            raise ConfigError(f"unknown init kind {self.kind!r}")
        if self.delta < 0:
            raise ConfigError("init.delta must be >= 0")
        if self.kind == "file" and not self.path:
            raise ConfigError("init kind 'file' needs a path")


@dataclass(frozen=True)
class RunConfig:
    """Simulation run parameters."""

    Nx: int
    Ny: int
    t_end: float
    dt_mode: str = "fixed"        # 'fixed' or 'adaptive'
    dt: float | None = None
    cfl_adv: float = 0.5
    cfl_cap: float = 0.3
    linearized: bool = False
    dealias: bool = True
    seed: int = 0
    init: Init = field(default_factory=Init)
    output_every: int = 10
    checkpoint_every: int | None = None
    checkpoint_dir: str | None = None
    escape_eps: float | None = None
    projection_tol: float = 1e-10
    rho_ghost: str = "free"       # wall closure for rho_pert in the capillary stress

    def __post_init__(self):
        if self.Nx < 4 or self.Nx & (self.Nx - 1):
            raise ConfigError(f"Nx must be a power of two >= 4, got {self.Nx}")
        if self.Ny < 16:
            raise ConfigError(f"Ny must be >= 16, got {self.Ny}")
        if self.dt_mode not in ("fixed", "adaptive"):
            raise ConfigError(f"dt_mode must be 'fixed' or 'adaptive', got {self.dt_mode!r}")
        if self.dt_mode == "fixed" and not (self.dt and self.dt > 0):
            raise ConfigError("fixed dt_mode requires dt > 0")
        if self.rho_ghost not in ("free", "even", "odd"):
            raise ConfigError("rho_ghost must be 'free', 'even' or 'odd'")
        if self.output_every < 1:
            raise ConfigError("output_every must be >= 1")


@dataclass
class FieldState:
    """Perturbation fields on the (Nx, Ny+1) grid, stored in physical space.

    s2 is the accumulated vertical displacement proxy (d/dt s2 = v2),
    maintained in linearized runs for the energy-identity diagnostics.
    """

    t: float
    rho_pert: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    pressure: np.ndarray
    step_index: int = 0
    s2: np.ndarray | None = None

    def copy(self) -> "FieldState":
        return FieldState(self.t, self.rho_pert.copy(), self.v1.copy(),
                          self.v2.copy(), self.pressure.copy(), self.step_index,
                          None if self.s2 is None else self.s2.copy())


class _Workspace:
    """Grid, equilibrium columns and cached banded factorizations."""

    def __init__(self, rc: RunConfig, p: DensityProfile, config: SlabConfig):
        self.grid = Grid(rc.Nx, rc.Ny, config.L, config.h, dealias=rc.dealias)
        pN = p.resample(rc.Ny)
        self.profile = pN
        self.rho_b = pN.rho.reshape(1, -1)
        self.d1 = pN.d1.reshape(1, -1)
        self.c_base = 1.0 / self.rho_b                 # 1/rho_bar(y2)
        self.nu_base = config.mu * self.c_base         # CN viscosity coefficient
        self.rho_ghost = rc.rho_ghost
        self._proj_factor = None
        self._cn_factors: dict[float, "_TriFactor"] = {}

    def dy_rho(self, f: np.ndarray) -> np.ndarray:
        """Vertical derivative of the density perturbation.

        'free' (default) imposes no wall condition (one-sided wall rows,
        second order everywhere); 'even'/'odd' apply ghost reflections so
        the sensitivity to an imposed wall closure can be measured.  A
        ghost closure shifts the capillary operator by O(dy) in a wall
        layer, which biases growth rates at first order in the grid.
        """
        if self.rho_ghost == "free":
            return dy_onesided(f, self.grid.dyy)
        return self.grid.dy(f, +1 if self.rho_ghost == "even" else -1)


@lru_cache(maxsize=8)
def _workspace(rc: RunConfig, p: DensityProfile, config: SlabConfig) -> _Workspace:
    return _Workspace(rc, p, config)


# ---------------------------------------------------------------------------
# banded solves, vectorized over Fourier modes
# ---------------------------------------------------------------------------

class _TriFactor:
    """Eliminated tridiagonal systems, batched over the first axis.

    sub[..., i] multiplies x[..., i-1] in row i (sub[..., 0] unused), and
    sup[..., i] multiplies x[..., i+1] (sup[..., -1] unused).  Forward
    elimination happens once; repeated right-hand sides reuse it.
    """

    def __init__(self, sub: np.ndarray, diag: np.ndarray, sup: np.ndarray):
        n = diag.shape[-1]
        d = diag.copy()
        w = np.zeros_like(diag)
        for i in range(1, n):
            w[..., i] = sub[..., i] / d[..., i - 1]
            d[..., i] = d[..., i] - w[..., i] * sup[..., i - 1]
        self.w = w
        self.d = d
        self.sup = sup

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        n = rhs.shape[-1]
        w, d, sup = self.w, self.d, self.sup
        b = rhs.copy()
        for i in range(1, n):
            b[..., i] -= w[..., i] * b[..., i - 1]
        x = np.empty_like(b)
        x[..., -1] = b[..., -1] / d[..., -1]
        for i in range(n - 2, -1, -1):
            x[..., i] = (b[..., i] - sup[..., i] * x[..., i + 1]) / d[..., i]
        return x


def _cn_factor(ws: _Workspace, dt: float) -> _TriFactor:
    """Factor of (I - dt/2 nu_base (D2y - xi^2)) for both velocity rows.

    v1 wall rows use the even-ghost mirror Laplacian, v2 wall rows are
    pinned to zero (Dirichlet); the two banded systems sit in one batch
    (v1 block first).  Cached per step size.
    """
    cached = ws._cn_factors.get(dt)
    if cached is not None:
        return cached
    g = ws.grid
    xi2 = g.xi**2
    M = xi2.shape[0]
    n = g.Ny + 1
    dyy = g.dyy
    a = 0.5 * dt * ws.nu_base[0]               # (n,) coefficient column
    sub = np.empty((2 * M, n)); sup = np.empty((2 * M, n)); diag = np.empty((2 * M, n))
    sub[:] = -a / dyy**2
    sup[:] = -a / dyy**2
    diag[:] = 1.0 + a * (2.0 / dyy**2 + np.vstack([xi2, xi2]))
    sup[:M, 0] = -2.0 * a[0] / dyy**2          # v1 mirror rows
    sub[:M, -1] = -2.0 * a[-1] / dyy**2
    diag[M:, 0] = 1.0;  sup[M:, 0] = 0.0       # v2 Dirichlet rows
    diag[M:, -1] = 1.0; sub[M:, -1] = 0.0
    factor = _TriFactor(sub, diag, sup)
    if len(ws._cn_factors) > 16:               # adaptive runs: bounded cache
        ws._cn_factors.clear()
    ws._cn_factors[dt] = factor
    return factor


def _cn_solve_pair(rhs1_hat: np.ndarray, rhs2_hat: np.ndarray, ws: _Workspace,
                   dt: float):
    M = rhs1_hat.shape[0]
    rhs = np.concatenate([rhs1_hat, rhs2_hat], axis=0)
    rhs[M:, 0] = 0.0
    rhs[M:, -1] = 0.0
    sol = _cn_factor(ws, dt).solve(rhs)
    return sol[:M], sol[M:]


def _projection_factor(ws: _Workspace):
    """Factor of the per-mode operator [Dy(c0 Dy .) - xi^2 c0] (Neumann ghosts).

    The wide centered operator decouples even and odd vertical node chains,
    each a tridiagonal system in the stride-2 variable; wall closures come
    from the even ghost reflection of phi.  The two chains (and all modes)
    are batched into one factorization, built once per workspace; mode 0
    rows are trivial identities, masked by the caller.
    """
    if ws._proj_factor is not None:
        return ws._proj_factor
    g = ws.grid
    c = ws.c_base[0]
    n = g.Ny + 1
    xi2 = (g.xi**2).reshape(-1)
    M = xi2.size
    s = 1.0 / (4.0 * g.dyy**2)
    idx0 = np.arange(0, n, 2)
    idx1 = np.arange(1, n, 2)
    width = idx0.size                          # >= idx1.size, differs by <= 1
    sub = np.zeros((2 * M, width)); sup = np.zeros((2 * M, width))
    diag = np.ones((2 * M, width))
    for row, idx in ((0, idx0), (M, idx1)):
        m = idx.size
        blk = slice(row, row + M)
        inner = idx[1:-1]
        sub[blk, 1:m - 1] = c[inner - 1] * s
        sup[blk, 1:m - 1] = c[inner + 1] * s
        diag[blk, 1:m - 1] = -(c[inner - 1] + c[inner + 1]) * s - xi2[:, None] * c[inner]
        j0, jl = idx[0], idx[-1]
        f0 = 2.0 if j0 == 0 else 1.0           # even-ghost reflection factor
        fl = 2.0 if jl == n - 1 else 1.0
        sup[blk, 0] = f0 * c[j0 + 1] * s
        diag[blk, 0] = -f0 * c[j0 + 1] * s - xi2 * c[j0]
        sub[blk, m - 1] = fl * c[jl - 1] * s
        diag[blk, m - 1] = -fl * c[jl - 1] * s - xi2 * c[jl]
        if m < width:                          # padded trailing identity row
            sub[blk, m:] = 0.0
            diag[blk, m:] = 1.0
        # mode 0 is handled by the caller; keep its rows trivially regular
        diag[row, :] = 1.0
        sub[row, :] = 0.0
        sup[row, :] = 0.0
    ws._proj_factor = (_TriFactor(sub, diag, sup), idx0, idx1, width)
    return ws._proj_factor


def _projection_solve(r_hat: np.ndarray, ws: _Workspace) -> np.ndarray:
    factor, idx0, idx1, width = _projection_factor(ws)
    M, n = r_hat.shape
    rhs = np.zeros((2 * M, width), dtype=r_hat.dtype)
    rhs[:M, :idx0.size] = r_hat[:, idx0]
    rhs[M:, :idx1.size] = r_hat[:, idx1]
    sol = factor.solve(rhs)
    phi = np.zeros_like(r_hat)
    phi[:, idx0] = sol[:M, :idx0.size]
    phi[:, idx1] = sol[M:, :idx1.size]
    phi[0] = 0.0
    return phi


# ---------------------------------------------------------------------------
# explicit tendencies
# ---------------------------------------------------------------------------

def _fv_transport_div(v2: np.ndarray, q: np.ndarray, dyy: float) -> np.ndarray:
    """Vertical flux divergence of q by v2 in finite-volume form.

    Node control volumes (half width at the walls) with midpoint fluxes and
    zero wall flux (v2 vanishes there): the discrete total mass telescopes
    to rounding error.
    """
    flux = 0.25 * (v2[:, :-1] + v2[:, 1:]) * (q[:, :-1] + q[:, 1:])
    out = np.empty_like(q)
    out[:, 1:-1] = (flux[:, 1:] - flux[:, :-1]) / dyy
    out[:, 0] = flux[:, 0] / (0.5 * dyy)
    out[:, -1] = -flux[:, -1] / (0.5 * dyy)
    return out


def _explicit_rhs(s: FieldState, ws: _Workspace, rc: RunConfig, config: SlabConfig):
    g = ws.grid
    kap = config.kappa
    rho_p, v1, v2 = s.rho_pert, s.v1, s.v2
    rx = g.dx1(rho_p)
    ry = ws.dy_rho(rho_p)

    if rc.linearized:
        r_rho = -v2 * ws.d1
        t12 = -kap * ws.d1 * rx
        t22 = -2.0 * kap * ws.d1 * ry
        f1 = dy_onesided(t12, g.dyy)
        f2 = g.dx1(t12) + dy_onesided(t22, g.dyy)
        r_v1 = ws.c_base * f1
        r_v2 = ws.c_base * (f2 - config.g * rho_p)
    else:
        rho = ws.rho_b + rho_p
        c = 1.0 / rho
        r_rho = -(g.dx1(v1 * rho_p) + _fv_transport_div(v2, rho_p, g.dyy) + v2 * ws.d1)
        gy = ws.d1 + ry                       # full vertical density gradient
        t11 = -kap * rx * rx
        t12 = -kap * rx * gy
        t22 = -kap * (2.0 * ws.d1 * ry + ry * ry)
        f1 = g.dx1(t11) + dy_onesided(t12, g.dyy)
        f2 = g.dx1(t12) + dy_onesided(t22, g.dyy)
        adv1 = v1 * g.dx1(v1) + v2 * g.dy(v1, +1)
        adv2 = v1 * g.dx1(v2) + v2 * g.dy(v2, -1)
        r_v1 = -adv1 + c * f1
        r_v2 = -adv2 + c * (f2 - config.g * rho_p)

    if rc.dealias:
        r_rho = g.dealias_field(r_rho)
        r_v1 = g.dealias_field(r_v1)
        r_v2 = g.dealias_field(r_v2)
    r_v2[:, 0] = 0.0
    r_v2[:, -1] = 0.0
    return r_rho, r_v1, r_v2


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def _var_poisson(rhs: np.ndarray, c: np.ndarray, ws: _Workspace, rc: RunConfig,
                 ref_scale: float, what: str) -> np.ndarray:
    """Solve div(c grad phi) = rhs on the k >= 1 modes (mode 0 untouched).

    Per-mode banded solves with the y2-only base coefficient 1/rho_bar;
    the (c - 1/rho_bar) remainder is folded in by deferred correction
    until the residual falls below projection_tol * ref_scale.
    """
    g = ws.grid
    c0 = ws.c_base
    r_hat = g.rfft(rhs)
    r_hat[0] = 0.0
    phi_hat = _projection_solve(r_hat, ws)
    if c is c0:
        return g.irfft(phi_hat)
    tol = rc.projection_tol * max(ref_scale, 1e-300)
    for _ in range(60):
        phi = g.irfft(phi_hat)
        gx = c * g.dx1(phi)
        gy = c * g.dy(phi, +1)
        resid = rhs - (g.dx1(gx) + g.dy(gy, -1))
        res_hat = g.rfft(resid)
        res_hat[0] = 0.0
        if float(np.max(np.abs(g.irfft(res_hat)))) <= tol:
            return phi
        phi_hat = phi_hat + _projection_solve(res_hat, ws)
    raise SimulationError(
        f"{what} solve failed to reach tolerance {tol:.3g} in 60 iterations")


def _predict_pressure(a1: np.ndarray, a2: np.ndarray, c: np.ndarray,
                      ws: _Workspace, rc: RunConfig) -> np.ndarray:
    """Pressure balancing the instantaneous acceleration (a1, a2).

    Solving div(c grad beta) = div(a) from the current state keeps the
    pressure a pure function of the state (checkpoints stay (t, rho, v))
    while reducing the projection's kinetic-energy splitting error from
    O(dt) to O(dt^2) per unit time.  The k = 0 mode is the hydrostatic
    balance c * d2(beta) = mean(a2), integrated directly.
    """
    g = ws.grid
    rhs = g.dx1(a1) + g.dy(a2, -1)
    scale = float(max(np.max(np.abs(rhs)), 1e-300))
    beta = _var_poisson(rhs, c, ws, rc, scale, "pressure prediction")
    a2bar = np.mean(a2, axis=0)
    beta0 = cumulative_trapezoid(a2bar / ws.c_base[0], g.y, initial=0.0)
    return beta + beta0.reshape(1, -1)


def _project(v1: np.ndarray, v2: np.ndarray, rho_p: np.ndarray, dt: float,
             ws: _Workspace, rc: RunConfig):
    """Make (v1, v2) discretely divergence-free; returns fields and multiplier."""
    g = ws.grid
    c = ws.c_base if rc.linearized else 1.0 / (ws.rho_b + rho_p)
    vbar2_star = np.mean(v2, axis=0, keepdims=True)
    div = g.dx1(v1) + g.dy(v2, -1)
    vscale = max(np.max(np.abs(v1)), np.max(np.abs(v2)), 1e-300)
    phi = _var_poisson(div / dt, c, ws, rc, vscale / dt, "projection")
    v1 = v1 - dt * c * g.dx1(phi)
    v2 = v2 - dt * c * g.dy(phi, +1)
    # k = 0 mode: the only divergence-free horizontal mean of v2 vanishing
    # at the walls is zero; the matching mean multiplier balances the
    # starred mean vertical velocity hydrostatically.
    v2 = v2 - np.mean(v2, axis=0, keepdims=True)
    v2[:, 0] = 0.0
    v2[:, -1] = 0.0
    phi0 = cumulative_trapezoid((vbar2_star / ws.c_base)[0], g.y, initial=0.0) / dt
    return v1, v2, phi + phi0.reshape(1, -1)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def _explicit_substep(s: FieldState, dt: float, ws: _Workspace, rc: RunConfig,
                      config: SlabConfig, beta: np.ndarray,
                      rhs=None) -> FieldState:
    """Forward-Euler building block: explicit forces, predicted pressure,
    divergence corrector.  Viscosity is handled outside (Strang halves);
    beta is the step's predicted pressure (held fixed across the SSP
    stages, which leaves only an O(dt^2) divergence for the corrector)."""
    g = ws.grid
    r_rho, r_v1, r_v2 = rhs if rhs is not None else _explicit_rhs(s, ws, rc, config)
    rho_new = s.rho_pert + dt * r_rho
    c_old = ws.c_base if rc.linearized else 1.0 / (ws.rho_b + s.rho_pert)
    v1 = s.v1 + dt * (r_v1 - c_old * g.dx1(beta))
    v2 = s.v2 + dt * (r_v2 - c_old * g.dy(beta, +1))
    v1, v2, corr = _project(v1, v2, rho_new, dt, ws, rc)
    s2 = None if s.s2 is None else s.s2 + dt * s.v2
    return FieldState(s.t + dt, rho_new, v1, v2, beta + corr, s.step_index, s2)


def _viscous_half(s: FieldState, half: float, ws: _Workspace, rc: RunConfig,
                  project: bool) -> FieldState:
    """Crank-Nicolson half-step for the viscosity (mu/rho) lap v.

    The y2-only base coefficient mu/rho_bar is the banded implicit solve;
    the x1-dependent remainder is folded in by deferred correction so the
    full variable coefficient is treated implicitly.  An explicit
    remainder would be anti-diffusive wherever rho > rho_bar, and the
    Crank-Nicolson halves are not L-stable, so grid-scale vertical modes
    would amplify; implicit treatment removes that failure mode entirely.
    """
    g = ws.grid

    def lap(f1, f2):
        return (g.d2y(f1, +1) - g.irfft(g.xi**2 * g.rfft(f1)),
                g.d2y(f2, -1) - g.irfft(g.xi**2 * g.rfft(f2)))

    xi2 = g.xi**2
    a = 0.5 * half
    lap1_old, lap2_old = lap(s.v1, s.v2)
    if rc.linearized:
        rhs1 = g.rfft(s.v1 + a * ws.nu_base * lap1_old)
        rhs2 = g.rfft(s.v2 + a * ws.nu_base * lap2_old)
        s1, s2 = _cn_solve_pair(rhs1, rhs2, ws, half)
        v1, v2 = g.irfft(s1), g.irfft(s2)
    else:
        nu_full = _full_nu(ws, s.rho_pert)
        base1 = s.v1 + a * nu_full * lap1_old
        base2 = s.v2 + a * nu_full * lap2_old
        v1, v2 = s.v1, s.v2
        vscale = max(float(np.max(np.abs(s.v1))), float(np.max(np.abs(s.v2))), 1e-300)
        tol = rc.projection_tol * vscale
        for _ in range(40):
            lap1_new, lap2_new = lap(v1, v2)
            rhs1 = g.rfft(base1 + a * (nu_full - ws.nu_base) * lap1_new)
            rhs2 = g.rfft(base2 + a * (nu_full - ws.nu_base) * lap2_new)
            s1, s2 = _cn_solve_pair(rhs1, rhs2, ws, half)
            n1, n2 = g.irfft(s1), g.irfft(s2)
            delta = max(float(np.max(np.abs(n1 - v1))), float(np.max(np.abs(n2 - v2))))
            v1, v2 = n1, n2
            if delta <= tol:
                break
        else:
            raise SimulationError(
                f"implicit viscous solve failed to reach {tol:.3g} in 40 iterations")
    pressure = s.pressure
    if project:
        # the per-mode viscous solves do not commute with the discrete
        # divergence in the wall rows; clean the O(dt*nu) remainder
        v1, v2, _ = _project(v1, v2, s.rho_pert, half, ws, rc)
    else:
        # the variable-coefficient correction can leave a tiny horizontal
        # mean in v2; the divergence-free subspace has none, and the
        # transport term would convert it into a mass drift
        v2 = v2 - np.mean(v2, axis=0, keepdims=True)
        v2[:, 0] = 0.0
        v2[:, -1] = 0.0
    return FieldState(s.t, s.rho_pert, v1, v2, pressure, s.step_index, s.s2)


def _full_nu(ws: _Workspace, rho_p: np.ndarray) -> np.ndarray:
    return ws.nu_base * ws.rho_b / (ws.rho_b + rho_p)


def _combine(a: float, sa: FieldState, b: float, sb: FieldState) -> FieldState:
    s2 = None if sa.s2 is None else a * sa.s2 + b * sb.s2
    return FieldState(a * sa.t + b * sb.t,
                      a * sa.rho_pert + b * sb.rho_pert,
                      a * sa.v1 + b * sb.v1,
                      a * sa.v2 + b * sb.v2,
                      sb.pressure,
                      sa.step_index, s2)


def suggest_dt(s: FieldState, rc: RunConfig, p: DensityProfile, config: SlabConfig) -> float:
    """Adaptive step: advective and capillary CFL plus stability guards."""
    ws = _workspace(rc, p, config)
    g = ws.grid
    dmin = min(g.dx, g.dyy)
    vmax = max(float(np.max(np.abs(s.v1))), float(np.max(np.abs(s.v2))))
    d1max = float(np.max(np.abs(ws.d1)))
    rho_min = float(np.min(ws.rho_b))
    cands = [math.inf]
    if vmax > 0:
        cands.append(rc.cfl_adv * dmin / vmax)
    if config.kappa > 0 and d1max > 0:
        cands.append(rc.cfl_cap * dmin**1.5 / math.sqrt(config.kappa * d1max / rho_min))
    if d1max > 0:
        cands.append(0.25 * math.sqrt(rho_min / (config.g * d1max)))
    return min(cands)


def step(s: FieldState, rc: RunConfig, p: DensityProfile, config: SlabConfig,
         dt: float | None = None) -> FieldState:
    """Advance one IMEX step: Strang-split Crank-Nicolson viscous halves
    around an explicit SSP-RK3 sweep of transport, advection, gravity and
    capillarity, with a pressure prediction and a divergence corrector in
    every explicit substep; dt defaults to the configured policy."""
    ws = _workspace(rc, p, config)
    if dt is None:
        dt = rc.dt if rc.dt_mode == "fixed" else suggest_dt(s, rc, p, config)
    if not (dt and dt > 0 and math.isfinite(dt)):
        raise SimulationError(f"cannot step with dt={dt}")
    vmax_old = max(float(np.max(np.abs(s.v1))), float(np.max(np.abs(s.v2))))

    sv = _viscous_half(s, 0.5 * dt, ws, rc, project=False)
    rhs0 = _explicit_rhs(sv, ws, rc, config)
    c_sv = ws.c_base if rc.linearized else 1.0 / (ws.rho_b + sv.rho_pert)
    beta = _predict_pressure(rhs0[1], rhs0[2], c_sv, ws, rc)
    u1 = _explicit_substep(sv, dt, ws, rc, config, beta, rhs=rhs0)
    u2 = _combine(0.75, sv, 0.25, _explicit_substep(u1, dt, ws, rc, config, beta))
    u3 = _combine(1.0 / 3.0, sv, 2.0 / 3.0, _explicit_substep(u2, dt, ws, rc, config, beta))
    out = _viscous_half(u3, 0.5 * dt, ws, rc, project=True)
    out.t = s.t + dt
    out.step_index = s.step_index + 1

    vmax_new = max(float(np.max(np.abs(out.v1))), float(np.max(np.abs(out.v2))))
    if rc.dt_mode == "fixed" and vmax_old > 1e-14 and vmax_new > 10.0 * vmax_old:
        raise CflError(
            f"velocity grew by {vmax_new / vmax_old:.1f}x in one step at "
            f"t={out.t:.6g}; fixed dt={dt:g} violates a stability limit")
    if float(np.min(ws.rho_b + out.rho_pert)) <= 0.0:
        raise VacuumError(f"total density reached zero at t={out.t:.6g}")
    return out


# ---------------------------------------------------------------------------
# initial states
# ---------------------------------------------------------------------------

def make_state(rc: RunConfig, p: DensityProfile, config: SlabConfig,
               rho_pert: np.ndarray, v1: np.ndarray, v2: np.ndarray,
               t: float = 0.0, project: bool = True) -> FieldState:
    """Assemble a valid state from raw fields (projects, imposes walls)."""
    ws = _workspace(rc, p, config)
    shape = (rc.Nx, rc.Ny + 1)
    for name, arr in (("rho_pert", rho_pert), ("v1", v1), ("v2", v2)):
        if arr.shape != shape:
            raise ConfigError(f"{name} must have shape {shape}, got {arr.shape}")
    if float(np.min(ws.rho_b + rho_pert)) <= 0.0:
        raise VacuumError("perturbation drives the density to zero (delta too large)")
    v2 = v2.copy()
    v2[:, 0] = 0.0
    v2[:, -1] = 0.0
    pressure = np.zeros(shape)
    if project:
        nonzero = max(np.max(np.abs(v1)), np.max(np.abs(v2))) > 0
        if nonzero:
            v1, v2, pressure = _project(v1.astype(float), v2, rho_pert, 1.0, ws, rc)
    s2 = np.zeros(shape) if rc.linearized else None
    st = FieldState(t, rho_pert.astype(float), np.asarray(v1, float),
                    np.asarray(v2, float), pressure, 0, s2)
    return st


def init_state(rc: RunConfig, p: DensityProfile, config: SlabConfig,
               gr=None) -> FieldState:
    """Build the configured initial state.

    Eigenfunction initialization scales the dominant unstable mode so the
    peak speed is delta and slaves the density to the linearized transport
    relation rho_pert = -rho_bar' * v2 / Lambda.
    """
    init = rc.init
    shape = (rc.Nx, rc.Ny + 1)
    ws = _workspace(rc, p, config)
    g = ws.grid

    if init.kind == "file":
        st = read_checkpoint(init.path, rc)
        if rc.linearized and st.s2 is None:
            rep = check_admissibility(ws.profile)
            st.s2 = (-st.rho_pert / ws.d1 if rep.stabilizing else np.zeros(shape))
        return st

    if init.kind == "zero" or init.delta == 0.0:
        return FieldState(0.0, np.zeros(shape), np.zeros(shape), np.zeros(shape),
                          np.zeros(shape), 0, np.zeros(shape) if rc.linearized else None)

    if init.kind == "eigenfunction":
        if gr is None or gr.Lambda <= 0.0 or gr.w2 is None:
            raise ConfigError("eigenfunction init needs a GrowthResult with Lambda > 0")
        xi = gr.k_star / config.L
        phi = CubicSpline(gr.nodes, gr.w2)(g.y)
        w1v = CubicSpline(gr.nodes, gr.w1)(g.y)
        sx = np.sin(xi * g.x).reshape(-1, 1)
        cx = np.cos(xi * g.x).reshape(-1, 1)
        v2 = sx * phi.reshape(1, -1)
        v1 = cx * w1v.reshape(1, -1)
        amp = float(np.max(np.sqrt(v1**2 + v2**2)))
        v1 *= init.delta / amp
        v2 *= init.delta / amp
        rho_pert = -ws.d1 * v2 / gr.Lambda
        st = make_state(rc, p, config, rho_pert, v1, v2)
        if rc.linearized:
            st.s2 = st.v2 / gr.Lambda
        return st

    # random_smooth: seeded streamfunction modes, then projected
    rng = np.random.default_rng(rc.seed)
    kmax = max(1, min(init.cutoff, rc.Nx // 3))
    nmax = max(1, min(init.cutoff, rc.Ny // 2))
    v1 = np.zeros(shape)
    v2 = np.zeros(shape)
    rho_pert = np.zeros(shape)
    for m in range(1, kmax + 1):
        xi = m / config.L
        for n in range(1, nmax + 1):
            wn = n * np.pi / config.h
            a = rng.normal() / (m * n)
            ph = rng.uniform(0.0, 2.0 * np.pi)
            b = rng.normal() / (m * n)
            ph2 = rng.uniform(0.0, 2.0 * np.pi)
            cxp = np.cos(xi * g.x + ph).reshape(-1, 1)
            sxp = np.sin(xi * g.x + ph).reshape(-1, 1)
            v1 += a * wn * cxp * np.cos(wn * g.y).reshape(1, -1)
            v2 += a * xi * sxp * np.sin(wn * g.y).reshape(1, -1)
            rho_pert += b * np.cos(xi * g.x + ph2).reshape(-1, 1) * np.cos(wn * g.y).reshape(1, -1)
    vmax = float(np.max(np.sqrt(v1**2 + v2**2)))
    v1 *= init.delta / vmax
    v2 *= init.delta / vmax
    rmax = float(np.max(np.abs(rho_pert)))
    if rmax > 0:
        rho_pert *= init.delta / rmax
    return make_state(rc, p, config, rho_pert, v1, v2)


# ---------------------------------------------------------------------------
# whole runs
# ---------------------------------------------------------------------------

def _l1_speed(state: FieldState, g: Grid) -> float:
    return g.integrate(np.sqrt(state.v1**2 + state.v2**2))


def run(rc: RunConfig, p: DensityProfile, config: SlabConfig, gr=None):
    """Advance to t_end (or escape), emitting an EnergyRecord time series.

    Returns (final_state, records).  Records are taken at step 0, every
    output_every steps, and at the final step; when escape_eps is set the
    run stops at the first step whose L1 speed reaches the threshold.
    """
    from .diagnostics import record

    state = init_state(rc, p, config, gr=gr)
    ws = _workspace(rc, p, config)
    records = [record(state, p, config)]
    while state.t < rc.t_end - 1e-14:
        if rc.dt_mode == "fixed":
            dt = rc.dt
        else:
            dt = suggest_dt(state, rc, p, config)
            if not math.isfinite(dt):
                dt = rc.t_end - state.t
        dt = min(dt, rc.t_end - state.t)
        state = step(state, rc, p, config, dt=dt)
        if state.step_index % rc.output_every == 0:
            records.append(record(state, p, config))
        if rc.checkpoint_every and rc.checkpoint_dir and \
                state.step_index % rc.checkpoint_every == 0:
            path = Path(rc.checkpoint_dir) / f"ckpt_{state.step_index:08d}.bin"
            write_checkpoint(state, path)
        if rc.escape_eps is not None and _l1_speed(state, ws.grid) >= rc.escape_eps:
            break
    if records[-1].t != state.t:
        records.append(record(state, p, config))
    return state, records


def escape_time(rc: RunConfig, p: DensityProfile, config: SlabConfig,
                deltas, eps: float, gr=None):
    """First times the L1 speed reaches eps, for each initial amplitude.

    Returns [(delta, T_escape or None)] with None marking runs censored at
    t_end.  The crossing is interpolated in log amplitude between steps.
    """
    from .growth import compute_growth

    if gr is None:
        gr = compute_growth(p, config)
    if gr.Lambda <= 0.0:
        return [(float(d), None) for d in deltas]
    out = []
    for delta in deltas:
        rc_d = replace(rc, init=replace(rc.init, kind="eigenfunction", delta=float(delta)),
                       escape_eps=None)
        state = init_state(rc_d, p, config, gr=gr)
        ws = _Workspace(rc_d, p, config)
        l1 = _l1_speed(state, ws.grid)
        if l1 >= eps:
            out.append((float(delta), 0.0))
            continue
        t_hit = None
        while state.t < rc_d.t_end - 1e-14:
            if rc_d.dt_mode == "fixed":
                dt = rc_d.dt
            else:
                dt = suggest_dt(state, rc_d, p, config)
            dt = min(dt, rc_d.t_end - state.t)
            t_prev, l_prev = state.t, l1
            state = step(state, rc_d, p, config, dt=dt)
            l1 = _l1_speed(state, ws.grid)
            if l1 >= eps:
                if l_prev > 0:
                    frac = (math.log(eps) - math.log(l_prev)) / (math.log(l1) - math.log(l_prev))
                else:
                    frac = 1.0
                t_hit = t_prev + frac * (state.t - t_prev)
                break
        out.append((float(delta), t_hit))
    return out


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def write_checkpoint(state: FieldState, path: str | Path) -> None:
    """Header line then little-endian float64: t, rho_pert, v1, v2 (row-major)."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_HEADER)
        fh.write(np.array([state.t], dtype="<f8").tobytes())
        for arr in (state.rho_pert, state.v1, state.v2):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_checkpoint(path: str | Path, rc: RunConfig) -> FieldState:
    path = Path(path)
    raw = path.read_bytes()
    if not raw.startswith(CHECKPOINT_HEADER):
        raise ConfigError(f"{path}: not a checkpoint (bad header)")
    data = np.frombuffer(raw[len(CHECKPOINT_HEADER):], dtype="<f8")
    npt = rc.Nx * (rc.Ny + 1)
    if data.size != 1 + 3 * npt:
        raise ConfigError(
            f"{path}: expected {1 + 3 * npt} floats for Nx={rc.Nx}, Ny={rc.Ny}, "
            f"got {data.size}")
    t = float(data[0])
    shape = (rc.Nx, rc.Ny + 1)
    fields = [data[1 + i * npt: 1 + (i + 1) * npt].reshape(shape).copy() for i in range(3)]
    return FieldState(t, fields[0], fields[1], fields[2], np.zeros(shape), 0, None)
