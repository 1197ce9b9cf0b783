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

Discretization: pseudo-spectral in x1 (rfft, 2/3 dealiasing of the
explicit tendencies), second-order centered differences on a collocated
uniform grid in y2 with parity ghost cells (v1 and pressure even, v2 odd;
the Navier-slip wall conditions make those reflections exact).  The wall
conditions imply none for rho, so the vertical density gradient inside the
capillary stress uses one-sided wall rows (``dy_onesided``): an imposed
ghost closure would add a wall condition the model does not have and
perturb the capillary operator at O(dy) in a wall layer.

Time stepping is one IMEX step per call: Strang-split Crank-Nicolson
viscous half-steps with the full coefficient mu/rho implicit, around an
explicit SSP-RK3 sweep of transport, advection, gravity and the capillary
stress, each explicit substep followed by a variable-density projection

    div( (1/rho) grad phi ) = div(v*) / dt,    d2 phi = 0 at the walls.

Both implicit problems are symmetric in the trapezoid inner product:
-div((1/rho) grad .) is positive semidefinite (its null space, grad phi =
0, does not depend on rho and is orthogonal to every discrete divergence)
and the Crank-Nicolson system times rho is positive definite.  Each is
solved by preconditioned conjugate gradients whose preconditioner is the
per-Fourier-mode tridiagonal solve with the y2-only base coefficient
(1/rho_bar, mu/rho_bar), wrapped in the diagonal scaling sqrt(rho/rho_bar)
or its inverse, until the discrete divergence or the next update is at
rounding level.  The convergence rate depends on the density contrast
only through the spread of rho/rho_bar, which carries the solves to
rho/rho_bar in 0.3-1.7.  Linearized runs keep rho = rho_bar in both
operators, and there each is one direct banded solve; both paths use one
projection factor, its Nyquist rows shifted.  Their coefficients depend
on y2 alone, so the Fourier modes evolve independently: a linearized step
runs the same stages on the rfft coefficients (a FourierGrid view of the
workspace), 8 transforms a step where the physical path makes 70, and
checks the physical state.  Each substep first
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
CFL_CAP * min(dx,dy)^(3/2) / sqrt(kappa max|rho_bar'| / min rho_bar)
alongside the advective CFL and a buoyancy guard.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.linalg.lapack import zpttrf, zpttrs

from .errors import CflError, ConfigError, SimulationError, VacuumError
from .operators import (FourierGrid, Grid, cubic_spline, dy_onesided,
                        running_trapezoid, trapezoid_weights)
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
    "solver_iterations",
    "write_checkpoint",
    "read_checkpoint",
]

CHECKPOINT_HEADER = b"nsk-ckpt v2\n"
CFL_ADV = 0.5           # advective CFL number of the adaptive step
CFL_CAP = 0.3           # capillary CFL number of the adaptive step
PROJECTION_TOL = 1e-10  # relative tolerance of the projection and viscous solves


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
    dt: float | None = None       # None: adaptive steps (suggest_dt)
    linearized: bool = False
    seed: int = 0
    init: Init = field(default_factory=Init)
    output_every: int = 10
    checkpoint_every: int | None = None
    checkpoint_dir: str | None = None

    def __post_init__(self):
        if self.Nx < 4 or self.Nx & (self.Nx - 1):
            raise ConfigError(f"Nx must be a power of two >= 4, got {self.Nx}")
        if self.Ny < 16:
            raise ConfigError(f"Ny must be >= 16, got {self.Ny}")
        if not (self.dt is None or self.dt > 0):
            raise ConfigError(f"dt must be > 0 (or None for adaptive steps), got {self.dt}")
        if self.output_every < 1:
            raise ConfigError("output_every must be >= 1")
        if not (self.checkpoint_every is None or self.checkpoint_every >= 1):
            raise ConfigError(f"checkpoint_every must be >= 1 or None, got {self.checkpoint_every}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


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
    step_index: int = 0
    s2: np.ndarray | None = None


class _Workspace:
    """Grid, equilibrium columns and stabilizing flag, cached banded
    factorizations and the conjugate-gradient iteration counts of the steps;
    ``fourier`` is a view sharing all of them on a FourierGrid."""

    def __init__(self, Nx: int, Ny: int, p: DensityProfile, config: SlabConfig):
        self.grid = Grid(Nx, Ny, config.L, config.h)
        pN = p.resample(Ny)
        self.rho_b = pN.rho.reshape(1, -1)
        self.d1 = pN.d1.reshape(1, -1)
        self.stabilizing = check_admissibility(pN).stabilizing
        self.c_base = 1.0 / self.rho_b                 # 1/rho_bar(y2)
        self.mu = config.mu
        self.nu_base = config.mu * self.c_base         # CN viscosity coefficient
        self.proj_factor, self.proj_order = _projection_factor(self)
        self._cn_factors: dict[float, "_TriFactor"] = {}
        self.iterations = {"projection": 0, "viscous": 0}  # of the current step
        self.per_step: list[dict[str, int]] = []       # one entry per step taken
        # the same factors and caches on the rfft coefficients (linearized steps)
        self.fourier = copy.copy(self)
        self.fourier.grid = FourierGrid(Nx, Ny, config.L, config.h)


def _workspace(rc: RunConfig, p: DensityProfile, config: SlabConfig) -> _Workspace:
    """The workspace of rc's grid: runs that differ only in other settings
    (the escape scan's amplitudes, say) share it."""
    return _grid_workspace(rc.Nx, rc.Ny, p, config)


@lru_cache(maxsize=8)
def _grid_workspace(Nx: int, Ny: int, p: DensityProfile, config: SlabConfig) -> _Workspace:
    return _Workspace(Nx, Ny, p, config)


def solver_iterations(rc: RunConfig, p: DensityProfile, config: SlabConfig) -> dict:
    """Conjugate-gradient iterations per step of the projection and viscous
    solves (mean and max; None before any step) over the steps taken on
    rc's grid since the last ``run`` or ``escape_time`` on it began.  The
    linearized solves are direct and count zero."""
    steps = _workspace(rc, p, config).per_step
    return {f"{kind}_iterations_per_step": {
                "mean": sum(n[kind] for n in steps) / len(steps) if steps else None,
                "max": max((n[kind] for n in steps), default=None)}
            for kind in ("projection", "viscous")}


# ---------------------------------------------------------------------------
# banded solves, vectorized over Fourier modes
# ---------------------------------------------------------------------------

class _TriFactor:
    """LDL^T factor of tridiagonal systems, batched over the leading axes.

    Row i of the system has diagonal diag[..., i] and couples x[..., i+1]
    through sup[..., i] (sup[..., -1] unused); times weight[..., i] the
    rows form a symmetric positive definite matrix, whose off-diagonal is
    taken from the weighted sup.  The batch is flattened into one
    block-diagonal system (zero couplings between blocks) and factored once
    by LAPACK zpttrf; repeated complex right-hand sides, weighted, reuse the
    factor through one zpttrs call.  The off-diagonal is real, so the
    complex routines give the real ones' results on each part.
    """

    def __init__(self, diag: np.ndarray, sup: np.ndarray, weight: np.ndarray):
        e = weight * sup
        e[..., -1] = 0.0
        self.shape = diag.shape
        self.weight = weight
        *self.ldl, info = zpttrf(np.ravel(weight * diag), e.reshape(-1)[:-1])
        if info != 0:
            raise SimulationError(
                f"tridiagonal factor is not positive definite (zpttrf info={info})")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for a complex right-hand side of the factor's shape (in
        place in the weighted copy)."""
        x, _ = zpttrs(*self.ldl, (self.weight * rhs).reshape(-1, 1), overwrite_b=True)
        return x.reshape(self.shape)


def _cn_factor(ws: _Workspace, dt: float) -> _TriFactor:
    """Factor of (I - dt/2 nu_base (D2y - xi^2)) for both velocity rows.

    v1 wall rows use the even-ghost mirror Laplacian, v2 wall rows are
    pinned to zero (Dirichlet); the systems are batched as (mode, row, y2),
    row 0 for v1 and row 1 for v2.  Times rho_bar, and halved in the wall
    rows (the trapezoid weights), the system is symmetric positive
    definite; the v2 wall rows decouple, since their right-hand side is
    always zero.  Cached per step size.
    """
    cached = ws._cn_factors.get(dt)
    if cached is not None:
        return cached
    g = ws.grid
    shape = (g.xi.shape[0], 2, g.Ny + 1)
    dyy = g.dyy
    a = 0.5 * dt * ws.nu_base[0]               # (n,) coefficient column
    sup = np.empty(shape); diag = np.empty(shape)
    sup[:] = -a / dyy**2
    diag[:] = 1.0 + a * (2.0 / dyy**2 + g.xi[:, :, None]**2)
    sup[:, 0, 0] = -2.0 * a[0] / dyy**2        # v1 mirror row
    diag[:, 1, [0, -1]] = 1.0                  # v2 Dirichlet rows, decoupled
    sup[:, 1, [0, -2]] = 0.0
    factor = _TriFactor(diag, sup, ws.rho_b[0] * trapezoid_weights(g.Ny + 1, 1.0))
    if len(ws._cn_factors) > 16:               # adaptive runs: bounded cache
        ws._cn_factors.clear()
    ws._cn_factors[dt] = factor
    return factor


def _projection_factor(ws: _Workspace) -> tuple[_TriFactor, np.ndarray]:
    """Factor of the per-mode operator [Dy(c0 Dy .) - xi^2 c0] (Neumann
    ghosts) and the node order it is factored in.

    Grid.dx1 has no Nyquist derivative, so the Nyquist rows trade xi^2 for
    (2 pi / h)^2, the size of the low vertical eigenvalues, which keeps them
    definite; linearized runs hold only rounding in that mode.

    The wide centered stencil couples node j only to j - 2 and j + 2, so
    the even and the odd nodes form two chains; the wall rows take the even
    ghost reflection of phi.  With the even nodes listed before the odd
    ones the operator is tridiagonal: the chains meet with zero coupling.
    Times minus the trapezoid weights it is symmetric positive definite.
    Mode 0 rows are minus identities (the weighted form's identities),
    masked by the caller.
    """
    g = ws.grid
    c = ws.c_base[0]
    n = g.Ny + 1
    xi2 = g.xi**2
    xi2[-1] = (2.0 * math.pi / g.h)**2
    s = 1.0 / (4.0 * g.dyy**2)
    sub = np.zeros((xi2.size, n))
    sup = np.zeros((xi2.size, n))
    sub[:, 2:] = sup[:, :-2] = c[1:-1] * s
    sup[:, 0] *= 2.0                           # even-ghost reflection at the walls
    sub[:, -1] *= 2.0
    diag = -(sub + sup) - xi2 * c
    diag[0], sup[0] = -1.0, 0.0
    order = np.concatenate([np.arange(0, n, 2), np.arange(1, n, 2)])
    return _TriFactor(diag[:, order], sup[:, order], -trapezoid_weights(n, 1.0)[order]), order


def _projection_solve(r_hat: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Per-mode base-coefficient solve by ws.proj_factor."""
    order = ws.proj_order
    phi = np.empty_like(r_hat)
    phi[:, order] = ws.proj_factor.solve(r_hat[:, order])
    phi[0] = 0.0
    return phi


# ---------------------------------------------------------------------------
# explicit tendencies
# ---------------------------------------------------------------------------

def _fv_transport_div(v2: np.ndarray, q: np.ndarray, dyy: float) -> np.ndarray:
    """Vertical flux divergence of q by v2 in finite-volume form.

    Node control volumes (halved at the walls) with midpoint fluxes and
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
    ry = dy_onesided(rho_p, g.dyy)

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

    r_rho = g.dealias_field(r_rho)
    r_v1 = g.dealias_field(r_v1)
    r_v2 = g.dealias_field(r_v2)
    r_v2[:, 0] = 0.0
    r_v2[:, -1] = 0.0
    return r_rho, r_v1, r_v2


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def _pcg(x, r, apply_a, precond, dot, tol: float, cap: int, fail: str,
         test_update: bool = False):
    """Preconditioned conjugate gradients for A x = b from x, r = b - A x.

    A (apply_a) and the preconditioner are symmetric positive definite in
    the inner product dot; x and r are updated in place.  The iteration
    stops once max|r| <= tol, or with test_update once max|z| <= tol for
    z = precond(r), the size of the next update.  A zero residual returns
    x untouched; a curvature that is not finite and positive, or more than
    cap iterations, raises SimulationError.  Returns (x, r, iterations).
    """
    it, p = 0, None
    while test_update or float(np.max(np.abs(r))) > tol:
        z = precond(r)
        if test_update and float(np.max(np.abs(z))) <= tol:
            break
        rz = dot(r, z)
        if rz == 0.0:                          # zero residual: x is exact
            break
        if it == cap:
            raise SimulationError(fail)
        if p is None:
            p = z.copy()                       # z may be r itself
        else:
            p *= rz / rz_old
            p += z
        q = apply_a(p)
        pq = dot(p, q)
        if not (math.isfinite(rz) and math.isfinite(pq) and rz > 0.0 and pq > 0.0):
            raise SimulationError(
                f"conjugate gradient breakdown (r.z = {rz:.3g}, p.Ap = {pq:.3g})")
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        rz_old = rz
        it += 1
    return x, r, it


def _dot(f: np.ndarray, h: np.ndarray) -> float:
    """Trapezoid inner product of real fields over (x1, y2), up to the
    constant factor dx dy that conjugate gradients do not see.  Plain
    sums, not BLAS: a BLAS dot saves 15-30 us a call at 128^2, which no
    step measurably gains (2 cores, 128^2, delta = 0.1: 117-127 ms either
    way), and would bring BLAS's threads into the time loop."""
    fh = f * h
    return float(fh.sum() - 0.5 * (fh[..., 0].sum() + fh[..., -1].sum()))


def _var_poisson(rhs: np.ndarray, c: np.ndarray, ws: _Workspace, rc: RunConfig,
                 ref_scale: float | Callable[[], float], what: str):
    """Solve div(c grad phi) = rhs on the k >= 1 modes (mode 0 untouched).

    With the base coefficient c = c0 = 1/rho_bar this is one per-mode
    banded solve by ws.proj_factor (shifted Nyquist rows).  Otherwise
    -div(c grad .), symmetric positive semidefinite in the trapezoid inner
    product (its null space, grad phi = 0, is independent of c and
    orthogonal to every divergence), is solved by conjugate gradients
    preconditioned by s (base solve) s with s = sqrt(c0 / c), the same
    factor.  The exit test is the true residual, recomputed from phi, at or
    below PROJECTION_TOL * ref_scale; a callable ref_scale is evaluated on
    this path only, as the direct solve has no use for it.  Returns
    (phi, c d1 phi, c d2 phi), the fluxes of the last evaluation, for the
    velocity update.
    """
    g = ws.grid

    def flux(phi):
        return c * g.dx1(phi), c * g.dy(phi, +1)

    if c is ws.c_base:
        phi = g.irfft(_projection_solve(g.rfft(rhs), ws))
        return (phi, *flux(phi))
    tol = PROJECTION_TOL * max(ref_scale() if callable(ref_scale) else ref_scale, 1e-300)
    fail = f"{what} solve failed to reach tolerance {tol:.3g} in 60 iterations"
    scale = np.sqrt(ws.c_base / c)

    def minus_div(fx, fy):                     # k >= 1 modes of -div(fx, fy)
        d = g.dx1(fx) + g.dy(fy, -1)
        return np.mean(d, axis=0, keepdims=True) - d

    def precond(r):                            # -(s P0^-1 s) r on the k >= 1 modes
        z = scale * g.irfft(_projection_solve(g.rfft(scale * r), ws))
        return np.mean(z, axis=0, keepdims=True) - z

    b = rhs - np.mean(rhs, axis=0, keepdims=True)
    phi, res, total = np.zeros_like(b), -b, 0
    while True:
        phi, res, n = _pcg(phi, res, lambda p: minus_div(*flux(p)), precond, _dot,
                           tol, 60 - total, fail)
        total += n
        fx, fy = flux(phi)
        res = -(b + minus_div(fx, fy))         # true residual of -A phi = -b
        if float(np.max(np.abs(res))) <= tol:
            ws.iterations["projection"] += total
            return phi, fx, fy
        if n == 0:                             # r.z underflowed: no progress left
            raise SimulationError(fail)


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
    beta = _var_poisson(rhs, c, ws, rc, lambda: float(max(np.max(np.abs(rhs)), 1e-300)),
                        "pressure prediction")[0]
    beta0 = running_trapezoid(g.mean_x(a2)[0] / ws.c_base[0], g.y)
    return g.add_mean_x(beta, beta0)


def _project(v1: np.ndarray, v2: np.ndarray, rho_p: np.ndarray, dt: float,
             ws: _Workspace, rc: RunConfig):
    """Make (v1, v2) discretely divergence-free."""
    g = ws.grid
    c = ws.c_base if rc.linearized else 1.0 / (ws.rho_b + rho_p)
    div = g.dx1(v1) + g.dy(v2, -1)
    _, fx, fy = _var_poisson(div / dt, c, ws, rc,
                             lambda: max(np.max(np.abs(v1)), np.max(np.abs(v2)), 1e-300) / dt,
                             "projection")
    v1 = v1 - dt * fx
    v2 = v2 - dt * fy
    # k = 0 mode: the only divergence-free horizontal mean of v2 vanishing
    # at the walls is zero
    v2 = g.add_mean_x(v2, -g.mean_x(v2))
    v2[:, 0] = 0.0
    v2[:, -1] = 0.0
    return v1, v2


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def _explicit_substep(s: FieldState, dt: float, ws: _Workspace, rc: RunConfig,
                      config: SlabConfig, grad_beta: tuple[np.ndarray, np.ndarray],
                      rhs=None) -> FieldState:
    """Forward-Euler building block: explicit forces, predicted pressure,
    divergence corrector.  Viscosity is handled outside (Strang halves);
    grad_beta is the gradient of the step's predicted pressure (held fixed
    across the SSP stages, which leaves only an O(dt^2) divergence for the
    corrector)."""
    r_rho, r_v1, r_v2 = rhs if rhs is not None else _explicit_rhs(s, ws, rc, config)
    rho_new = s.rho_pert + dt * r_rho
    c_old = ws.c_base if rc.linearized else 1.0 / (ws.rho_b + s.rho_pert)
    v1 = s.v1 + dt * (r_v1 - c_old * grad_beta[0])
    v2 = s.v2 + dt * (r_v2 - c_old * grad_beta[1])
    v1, v2 = _project(v1, v2, rho_new, dt, ws, rc)
    s2 = None if s.s2 is None else s.s2 + dt * s.v2
    return FieldState(s.t + dt, rho_new, v1, v2, s.step_index, s2)


def _viscous_half(s: FieldState, half: float, ws: _Workspace, rc: RunConfig,
                  project: bool) -> FieldState:
    """Crank-Nicolson half-step for the viscosity (mu/rho) lap v.

    Times rho, the implicit system is rho v - (half/2) mu lap v = rho v_old
    + (half/2) mu lap v_old, symmetric positive definite in the trapezoid
    inner product for both velocity rows (v1 mirror, v2 Dirichlet wall
    rows).  With rho = rho_bar (linearized runs) it is one banded per-mode
    solve.  Otherwise conjugate gradients, started from v_old and
    preconditioned by s P^-1 s with P = rho_bar - (half/2) mu lap (the
    Crank-Nicolson factor applied to r / rho_bar) and s = sqrt(rho_bar /
    rho), run until the preconditioned residual, the size of the next
    update, is at most PROJECTION_TOL * |v_old|_inf.  The full variable
    coefficient is implicit: an explicit remainder would be anti-diffusive
    wherever rho > rho_bar, and the Crank-Nicolson halves are not
    L-stable, so grid-scale vertical modes would amplify.
    """
    g = ws.grid
    a = 0.5 * half
    factor = _cn_factor(ws, half)
    parity = np.array([[1.0], [-1.0]])                 # even v1, odd v2 ghosts
    xi2 = g.xi[:, :, None]**2

    def lap(f):                                        # f: (x1, row, y2)
        return g.d2y(f, parity) - g.irfft(xi2 * g.rfft(f))

    # the pair as one (x1, row, y2) array, row 0 for v1 and row 1 for v2
    v = np.stack([s.v1, s.v2], axis=1)
    if rc.linearized:
        v = g.irfft(factor.solve(g.rfft(v + a * ws.nu_base * lap(v))))
    else:
        rho = (ws.rho_b + s.rho_pert)[:, None, :]
        scale = np.sqrt(ws.rho_b / rho)
        c_scale = ws.c_base * scale
        amu = a * ws.mu                                # (half/2) mu

        def precond(r):                                # scale P^-1 scale, P = rho_bar - amu lap
            return scale * g.irfft(factor.solve(g.rfft(c_scale * r)))

        tol = PROJECTION_TOL * max(float(np.max(np.abs(v))), 1e-300)
        v, _, n = _pcg(
            v, 2.0 * amu * lap(v), lambda p: rho * p - amu * lap(p), precond, _dot,
            tol, 40, f"implicit viscous solve failed to reach {tol:.3g} in 40 iterations",
            test_update=True)
        ws.iterations["viscous"] += n
    v1, v2 = v[:, 0].copy(), v[:, 1].copy()
    if project:
        # the per-mode viscous solves do not commute with the discrete
        # divergence in the wall rows; clean the O(dt*nu) remainder
        v1, v2 = _project(v1, v2, s.rho_pert, half, ws, rc)
    else:
        # the variable-coefficient correction can leave a tiny horizontal
        # mean in v2; the divergence-free subspace has none, and the
        # transport term would convert it into a mass drift
        v2 = g.add_mean_x(v2, -g.mean_x(v2))
        v2[:, 0] = 0.0
        v2[:, -1] = 0.0
    return FieldState(s.t, s.rho_pert, v1, v2, s.step_index, s.s2)


def _combine(a: float, sa: FieldState, b: float, sb: FieldState) -> FieldState:
    s2 = None if sa.s2 is None else a * sa.s2 + b * sb.s2
    return FieldState(a * sa.t + b * sb.t,
                      a * sa.rho_pert + b * sb.rho_pert,
                      a * sa.v1 + b * sb.v1,
                      a * sa.v2 + b * sb.v2,
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
        cands.append(CFL_ADV * dmin / vmax)
    if config.kappa > 0 and d1max > 0:
        cands.append(CFL_CAP * dmin**1.5 / math.sqrt(config.kappa * d1max / rho_min))
    if d1max > 0:
        cands.append(0.25 * math.sqrt(rho_min / (config.g * d1max)))
    return min(cands)


def _imex(s: FieldState, dt: float, ws: _Workspace, rc: RunConfig,
          config: SlabConfig) -> FieldState:
    """The stages of one IMEX step on ws's grid (physical or Fourier),
    each intermediate released once the next stage has read it."""
    sv = _viscous_half(s, 0.5 * dt, ws, rc, project=False)
    del s
    rhs = _explicit_rhs(sv, ws, rc, config)
    c_sv = ws.c_base if rc.linearized else 1.0 / (ws.rho_b + sv.rho_pert)
    beta = _predict_pressure(rhs[1], rhs[2], c_sv, ws, rc)
    grad_beta = (ws.grid.dx1(beta), ws.grid.dy(beta, +1))
    del beta, c_sv
    u = _explicit_substep(sv, dt, ws, rc, config, grad_beta, rhs=rhs)
    del rhs
    u = _combine(0.75, sv, 0.25, _explicit_substep(u, dt, ws, rc, config, grad_beta))
    u = _combine(1.0 / 3.0, sv, 2.0 / 3.0,
                 _explicit_substep(u, dt, ws, rc, config, grad_beta))
    del sv, grad_beta
    return _viscous_half(u, 0.5 * dt, ws, rc, project=True)


def _fields(s: FieldState, transform) -> FieldState:
    """s with transform (Grid.rfft or Grid.irfft) applied to each field."""
    return FieldState(s.t, transform(s.rho_pert), transform(s.v1), transform(s.v2),
                      s.step_index, None if s.s2 is None else transform(s.s2))


def step(s: FieldState, rc: RunConfig, p: DensityProfile, config: SlabConfig,
         dt: float | None = None) -> FieldState:
    """Advance one IMEX step: Strang-split Crank-Nicolson viscous halves
    around an explicit SSP-RK3 sweep of transport, advection, gravity and
    capillarity, with a pressure prediction and a divergence corrector in
    every explicit substep; dt defaults to the configured policy."""
    ws = _workspace(rc, p, config)
    if dt is None:
        dt = rc.dt if rc.dt is not None else suggest_dt(s, rc, p, config)
    if not (dt and dt > 0 and math.isfinite(dt)):
        raise SimulationError(f"cannot step with dt={dt}")
    vmax_old = max(float(np.max(np.abs(s.v1))), float(np.max(np.abs(s.v2))))
    ws.iterations.update(projection=0, viscous=0)    # in place: ws.fourier shares it
    if rc.linearized:    # the modes decouple: step the rfft coefficients
        out = _fields(_imex(_fields(s, ws.grid.rfft), dt, ws.fourier, rc, config),
                      ws.grid.irfft)
    else:
        out = _imex(s, dt, ws, rc, config)
    out.t = s.t + dt
    out.step_index = s.step_index + 1

    vmax_new = max(float(np.max(np.abs(out.v1))), float(np.max(np.abs(out.v2))))
    rho_min = float(np.min(ws.rho_b + out.rho_pert))
    if not (math.isfinite(vmax_new) and math.isfinite(rho_min)):
        raise SimulationError(f"non-finite velocity or density at t={out.t:.6g}")
    if rc.dt is not None and vmax_old > 1e-14 and vmax_new > 10.0 * vmax_old:
        raise CflError(
            f"velocity grew by {vmax_new / vmax_old:.1f}x in one step at "
            f"t={out.t:.6g}; fixed dt={dt:g} violates a stability limit")
    if rho_min <= 0.0:
        raise VacuumError(f"total density reached zero at t={out.t:.6g}")
    ws.per_step.append(dict(ws.iterations))   # a copy: solves outside a step add to the live dict
    return out


# ---------------------------------------------------------------------------
# initial states
# ---------------------------------------------------------------------------

def make_state(rc: RunConfig, p: DensityProfile, config: SlabConfig,
               rho_pert: np.ndarray, v1: np.ndarray, v2: np.ndarray) -> FieldState:
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
    if max(np.max(np.abs(v1)), np.max(np.abs(v2))) > 0:
        v1, v2 = _project(v1.astype(float), v2, rho_pert, 1.0, ws, rc)
    s2 = np.zeros(shape) if rc.linearized else None
    return FieldState(0.0, rho_pert.astype(float), np.asarray(v1, float),
                      np.asarray(v2, float), 0, s2)


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
        if not rc.linearized:
            st.s2 = None
        elif st.s2 is None:                    # a nonlinear run's checkpoint
            st.s2 = -st.rho_pert / ws.d1 if ws.stabilizing else np.zeros(shape)
        return st

    if init.kind == "zero" or init.delta == 0.0:
        return FieldState(0.0, np.zeros(shape), np.zeros(shape), np.zeros(shape),
                          0, np.zeros(shape) if rc.linearized else None)

    if init.kind == "eigenfunction":
        if gr is None or gr.Lambda <= 0.0 or gr.w2 is None:
            raise ConfigError("eigenfunction init needs a GrowthResult with Lambda > 0")
        xi = gr.k_star / config.L
        phi = cubic_spline(gr.nodes, gr.w2, g.y)
        w1v = cubic_spline(gr.nodes, gr.w1, g.y)
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


def _steps(state: FieldState, rc: RunConfig, p: DensityProfile, config: SlabConfig):
    """The time loop: step to t_end under the configured dt policy, yielding
    each new state (the last step is clipped to land on t_end)."""
    while state.t < rc.t_end - 1e-14:
        dt = rc.dt if rc.dt is not None else suggest_dt(state, rc, p, config)
        state = step(state, rc, p, config, dt=min(dt, rc.t_end - state.t))
        yield state


def run(rc: RunConfig, p: DensityProfile, config: SlabConfig, gr=None):
    """Advance to t_end, emitting an EnergyRecord time series.

    Returns (final_state, records).  Records are taken at step 0, every
    output_every steps, and at the final step.
    """
    from .diagnostics import record

    _workspace(rc, p, config).per_step.clear()
    state = init_state(rc, p, config, gr=gr)
    records = [record(state, p, config)]
    for state in _steps(state, rc, p, config):
        if state.step_index % rc.output_every == 0:
            records.append(record(state, p, config))
        if rc.checkpoint_every and rc.checkpoint_dir and \
                state.step_index % rc.checkpoint_every == 0:
            path = Path(rc.checkpoint_dir) / f"ckpt_{state.step_index:08d}.bin"
            write_checkpoint(state, path)
    if records[-1].t != state.t:
        records.append(record(state, p, config))
    return state, records


def escape_time(rc: RunConfig, p: DensityProfile, config: SlabConfig,
                deltas, eps: float, gr=None):
    """First times the L1 speed reaches eps, for each initial amplitude.

    Returns [(delta, T_escape or None)] with None marking runs censored at
    t_end.  The crossing is interpolated in log amplitude between steps.
    rc.init must be an eigenfunction init; each of deltas replaces its delta.
    """
    from .growth import compute_growth

    if rc.init.kind != "eigenfunction":
        raise ConfigError(f"escape runs need an eigenfunction init, got {rc.init.kind!r}")
    if not 0.0 < eps < math.inf:
        raise ConfigError(f"escape threshold eps must be finite and > 0, got {eps}")
    if gr is None:
        gr = compute_growth(p, config)
    if gr.Lambda <= 0.0:
        return [(float(d), None) for d in deltas]
    _workspace(rc, p, config).per_step.clear()
    out = []
    for delta in deltas:
        rc_d = replace(rc, init=replace(rc.init, delta=float(delta)))
        state = init_state(rc_d, p, config, gr=gr)
        grid = _workspace(rc_d, p, config).grid
        t_prev, l_prev = state.t, _l1_speed(state, grid)
        if l_prev >= eps:
            out.append((float(delta), 0.0))
            continue
        t_hit = None
        for state in _steps(state, rc_d, p, config):
            l1 = _l1_speed(state, grid)
            if l1 >= eps:
                frac = ((math.log(eps) - math.log(l_prev))
                        / (math.log(l1) - math.log(l_prev)) if l_prev > 0 else 1.0)
                t_hit = t_prev + frac * (state.t - t_prev)
                break
            t_prev, l_prev = state.t, l1
        out.append((float(delta), t_hit))
    return out


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def write_checkpoint(state: FieldState, path: str | Path) -> None:
    """Header line, little-endian int64 step_index, then little-endian
    float64: t, rho_pert, v1, v2 and, for linearized runs, s2 (row-major)."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_HEADER)
        fh.write(np.array([state.step_index], dtype="<i8").tobytes())
        fh.write(np.array([state.t], dtype="<f8").tobytes())
        fields = (state.rho_pert, state.v1, state.v2)
        for arr in fields if state.s2 is None else fields + (state.s2,):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_checkpoint(path: str | Path, rc: RunConfig) -> FieldState:
    """Read a checkpoint of rc's grid, as written by write_checkpoint."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read checkpoint {path}: {exc}") from exc
    if not raw.startswith(CHECKPOINT_HEADER):
        raise ConfigError(f"{path}: not a checkpoint (bad header)")
    n = len(CHECKPOINT_HEADER)
    step_index = int.from_bytes(raw[n:n + 8], "little", signed=True)
    body = raw[n + 8:]
    npt = rc.Nx * (rc.Ny + 1)
    floats = [1 + k * npt for k in (3, 4)]
    if len(body) not in [8 * f for f in floats] or step_index < 0:
        raise ConfigError(
            f"{path}: expected {' or '.join(map(str, floats))} floats for Nx={rc.Nx}, "
            f"Ny={rc.Ny} and a step index >= 0, got {len(body) / 8:g} and {step_index}")
    data = np.frombuffer(body, dtype="<f8")
    if not np.all(np.isfinite(data)):
        raise ConfigError(f"{path}: non-finite time or field value")
    shape = (rc.Nx, rc.Ny + 1)
    fields = [data[1 + i * npt: 1 + (i + 1) * npt].reshape(shape).copy()
              for i in range(data.size // npt)]
    return FieldState(float(data[0]), *fields[:3], step_index,
                      fields[3] if len(fields) == 4 else None)
