"""Instability growth rate via the modified variational fixed point.

An unstable normal mode (solution growing like e^{Lambda t}) of the
linearized perturbation dynamics solves

    Lambda^2 rho_bar w + Lambda grad beta - Lambda mu lap w
        = (kappa div(|rho_bar'|^2 grad w2) + g rho_bar' w2) e2,
    div w = 0,   (w2, d2 w1) = 0 on the walls.

Fix the would-be decay weight s >= 0 and maximize the penalized quotient

    alpha(s) = sup_w [ E(w) - s mu ||grad w||^2 ] / ||sqrt(rho_bar) w||^2 ,
    E(w) = g int rho_bar' w2^2 - kappa || rho_bar' grad w2 ||^2 ;

alpha is strictly decreasing in s (the penalty form is positive definite),
so alpha(s) = s^2 has at most one positive root, and that root is the
growth rate Lambda.  If alpha(0) <= 0 there is no growing mode.

For a fixed w the penalized quotient is affine in s and alpha is its
maximum over w, so alpha is convex: its tangent at s_k, with slope
alpha'(s_k) = -mu V(phi_k)/M(phi_k) (Hellmann-Feynman, phi_k the maximizer),
lies below it.  Newton steps to the positive root of s^2 = tangent
therefore rise from s_0 = 0 to Lambda without passing it and converge
quadratically.  The bracket [s_k, sqrt(alpha(0))] is the only safeguard
(alpha is strictly decreasing, so alpha(sqrt(alpha(0))) < alpha(0)): a
step that does not raise s, or leaves the bracket, becomes a midpoint
step.  The iteration stops at |alpha(s) - s^2| < tol * max(1, s^2).

Everything reduces per horizontal Fourier mode.  For w2 = phi(y2) sin(xi x1)
incompressibility gives w1 = phi'(y2) cos(xi x1)/xi, and after dropping the
common horizontal factor the three quadratic forms become (phi in H^1_0,
with phi'' = 0 at the walls entering naturally)

    M(phi)    = int rho_bar (phi^2 + phi'^2 / xi^2)            kinetic
    V(phi)    = int (2 phi'^2 + phi''^2 / xi^2 + xi^2 phi^2)   viscous
    Epot(phi) = g int rho_bar' phi^2
                - kappa int |rho_bar'|^2 (phi'^2 + xi^2 phi^2)

and alpha(s) is the largest eigenvalue of the real symmetric-definite
pencil (Epot - s mu V) phi = alpha M phi.  The per-mode problem is posed in
real variables throughout; the quadrature-exact horizontal factor i/xi of
w1 is carried symbolically into the cos mode of the reconstruction.

The unstable pressure amplitude follows from the horizontal momentum
balance: with W = phi'/xi,

    beta_hat = [ mu (phi''' - xi^2 phi') - Lambda rho_bar phi' ] / xi^2 .
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from .errors import EigensolverError
from .operators import (dy_onesided, lumped_mass, second_difference_form, stiffness,
                        trapezoid_weights)
from .profiles import DensityProfile, SlabConfig, check_admissibility
from .threshold import _normalize_eigvec

__all__ = [
    "ModeForms",
    "GrowthResult",
    "assemble_mode_forms",
    "alpha",
    "mode_growth_rate",
    "compute_growth",
    "write_modes_csv",
    "write_eigenfunction",
]


@dataclass(frozen=True)
class ModeForms:
    """Per-mode kinetic (M), viscous (V) and potential (Epot) forms.

    All three matrices are real symmetric on interior nodes; M and V are
    positive definite.  The profile columns and coefficients ride along so
    quotients can be re-evaluated from difference sums, which is far less
    sensitive to rounding than the assembled H^2-form matrices.
    """

    xi: float
    M: np.ndarray
    V: np.ndarray
    Epot: np.ndarray
    mu: float
    nodes: np.ndarray
    rho: np.ndarray
    d1: np.ndarray
    g: float
    kappa: float


def assemble_mode_forms(p: DensityProfile, config: SlabConfig, k: int,
                        N: int | None = None) -> ModeForms:
    if k < 1:
        raise ValueError("mode index k must be >= 1")
    pN = p if N is None else p.resample(N)
    xi = config.xi(k)
    dy = pN.dy
    n = pN.N - 1
    ones = np.ones_like(pN.rho)
    M = lumped_mass(pN.rho, dy) + stiffness(pN.rho, dy) / xi**2
    V = (2.0 * stiffness(ones, dy) + second_difference_form(n, dy) / xi**2
         + xi**2 * lumped_mass(ones, dy))
    c = pN.d1**2
    Epot = config.g * lumped_mass(pN.d1, dy) - config.kappa * (
        stiffness(c, dy) + xi**2 * lumped_mass(c, dy))
    return ModeForms(xi=xi, M=M, V=V, Epot=Epot, mu=config.mu, nodes=pN.nodes,
                     rho=pN.rho, d1=pN.d1, g=config.g, kappa=config.kappa)


def _quotient_sums(phi: np.ndarray, forms: ModeForms) -> tuple[float, float, float]:
    """(Epot(phi), V(phi), M(phi)) evaluated from difference sums.

    For a smooth phi the sums carry no large cancellations, so quotients
    of them are accurate to a few ulps, well below the rounding of the
    assembled-matrix eigenvalue whose backward error scales with the huge
    top of the discrete biharmonic spectrum.
    """
    dy = float(forms.nodes[1] - forms.nodes[0])
    xi = forms.xi
    dphi = np.diff(phi) / dy                         # interval values
    d2phi = (phi[2:] - 2.0 * phi[1:-1] + phi[:-2]) / dy**2

    def mass(c):
        return dy * float(np.sum(c[1:-1] * phi[1:-1] ** 2))

    def stiff(c):
        cm = 0.5 * (c[:-1] + c[1:])
        return dy * float(np.sum(cm * dphi**2))

    ones = np.ones_like(forms.rho)
    m_val = mass(forms.rho) + stiff(forms.rho) / xi**2
    v_val = 2.0 * stiff(ones) + dy * float(np.sum(d2phi**2)) / xi**2 + xi**2 * mass(ones)
    c2 = forms.d1**2
    e_val = forms.g * mass(forms.d1) - forms.kappa * (stiff(c2) + xi**2 * mass(c2))
    return e_val, v_val, m_val


def alpha(s: float, forms: ModeForms) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of (Epot - s*mu*V) phi = alpha M phi.

    Returns (alpha_s, phi) with phi on the full node set, unit L2 norm.
    The eigensolve supplies the maximizer; the returned value is its
    quotient (Epot - s*mu*V)/M re-evaluated from difference sums
    (Rayleigh-quotient refinement: the vector error enters only
    quadratically, restoring the accuracy the assembled-pencil reduction
    loses).  A non-finite pencil or quotient raises EigensolverError.
    """
    if s < 0:
        raise ValueError("penalty weight s must be >= 0")
    A = forms.Epot - s * forms.mu * forms.V
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(forms.M))):
        raise EigensolverError(f"alpha({s}): the pencil has non-finite entries")
    n = A.shape[0]
    try:
        _, vecs = scipy.linalg.eigh(A, forms.M, subset_by_index=[n - 1, n - 1],
                                    check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise EigensolverError(f"alpha({s}) eigensolve failed: {exc}") from exc
    phi = _normalize_eigvec(vecs[:, 0], forms.nodes)
    e_val, v_val, m_val = _quotient_sums(phi, forms)
    a_s = (e_val - s * forms.mu * v_val) / m_val
    if not math.isfinite(a_s):
        raise EigensolverError(f"alpha({s}): the penalized quotient is {a_s}")
    return a_s, phi


# midpoint steps alone shrink the bracket below one ulp in about 60 steps
_MAX_ITER = 100


def _fixed_point(forms: ModeForms, tol: float, a0: float,
                 phi0: np.ndarray) -> tuple[float, np.ndarray | None, float, int]:
    """Solve alpha(s) = s^2 from a0 = alpha(0) and its maximizer phi0.

    Returns (Lambda_xi, phi, residual, eigensolves); Lambda_xi = 0 when
    a0 <= 0.  The tangent is taken at the lower end of the bracket, the
    largest s seen so far with alpha(s) >= s^2.
    """
    if a0 <= 0.0:
        return 0.0, None, 0.0, 0
    s_lo, a_lo, phi_lo = 0.0, a0, phi0
    s_hi = math.sqrt(a0)
    for calls in range(1, _MAX_ITER + 1):
        _, v_val, m_val = _quotient_sums(phi_lo, forms)
        slope = -forms.mu * v_val / m_val            # alpha'(s_lo) <= 0
        c = a_lo - slope * s_lo                      # > 0: a_lo > s_lo^2
        s = 2.0 * c / (math.sqrt(slope**2 + 4.0 * c) - slope)
        if not s_lo < s < s_hi:
            s = 0.5 * (s_lo + s_hi)
            if not s_lo < s < s_hi:
                break
        a_s, phi = alpha(s, forms)
        resid = a_s - s**2
        if abs(resid) < tol * max(1.0, s**2):
            return s, phi, abs(resid), calls
        if resid > 0.0:
            s_lo, a_lo, phi_lo = s, a_s, phi
        else:
            s_hi = s
    raise EigensolverError(
        f"growth-rate iteration stalled in [{s_lo:.17g}, {s_hi:.17g}]")


def mode_growth_rate(forms: ModeForms, tol: float = 1e-10) -> tuple[float, np.ndarray | None]:
    """Growth rate of one horizontal mode; Lambda_xi = 0 when alpha(0) <= 0."""
    lam, phi, _, _ = _fixed_point(forms, tol, *alpha(0.0, forms))
    return lam, phi


@dataclass(frozen=True)
class GrowthResult:
    """Growth-rate sweep output.

    Lambda : max over modes of the per-mode growth rate (0 when stable)
    k_star : maximizing integer mode (None when Lambda = 0)
    per_mode : (k, xi, alpha0, Lambda_xi) for each swept mode
    w2, w1, beta : vertical amplitudes of the unstable mode on the full
        grid, normalized so the 2-D velocity has unit L2 norm over the
        cell (None when Lambda = 0); w2 rides the sin(xi x1) mode, w1 and
        beta the cos / sin modes respectively
    residual : |alpha(Lambda) - Lambda^2| at the accepted fixed point
    eigensolves : calls of ``alpha`` over the whole sweep
    """

    Lambda: float
    k_star: int | None
    per_mode: list[tuple[int, float, float, float]]
    w2: np.ndarray | None
    w1: np.ndarray | None
    beta: np.ndarray | None
    residual: float
    nodes: np.ndarray
    grid_N: int
    eigensolves: int = 0


def compute_growth(p: DensityProfile, config: SlabConfig, N: int = 256,
                   tol: float = 1e-10, k_max: int = 64,
                   exhaustive: bool = False) -> GrowthResult:
    """Sweep horizontal modes and return the dominant growth rate.

    The sweep stops after three consecutive modes fail to improve the
    running maximum (viscosity and capillarity damp large wavenumbers);
    ``exhaustive=True`` forces the full sweep to k_max for verification.
    """
    pN = p.resample(N)
    rep = check_admissibility(pN)
    if not rep.rt_condition:
        raise ValueError("growth-rate sweep expects an RT profile (rho' > 0 somewhere)")
    per_mode: list[tuple[int, float, float, float]] = []
    best: tuple | None = None
    running_max = 0.0
    decline = 0
    prev_a0 = np.inf
    eigensolves = 0
    for k in range(1, k_max + 1):
        forms = assemble_mode_forms(pN, config, k)
        a0, phi0 = alpha(0.0, forms)
        lam, phi, resid, calls = _fixed_point(forms, tol, a0, phi0)
        eigensolves += 1 + calls
        per_mode.append((k, forms.xi, a0, lam))
        if lam > running_max:
            running_max = lam
            best = (lam, k, phi, forms, resid)
            decline = 0
        elif running_max > 0.0 and lam < running_max:
            decline += 1
        elif running_max == 0.0 and a0 <= 0.0 and a0 <= prev_a0 + 1e-12 * max(1.0, abs(prev_a0)):
            decline += 1
        else:
            decline = 0
        prev_a0 = a0
        if not exhaustive and decline >= 3:
            break
    if best is None:
        return GrowthResult(Lambda=0.0, k_star=None, per_mode=per_mode,
                            w2=None, w1=None, beta=None, residual=0.0,
                            nodes=pN.nodes, grid_N=N, eigensolves=eigensolves)
    lam, k_star, phi, forms, resid = best
    xi = forms.xi
    dy = pN.dy
    dphi = dy_onesided(phi, dy)
    w1 = dphi / xi
    wq = trapezoid_weights(pN.nodes.size, dy)
    cell = np.pi * config.L * float(np.sum(wq * (phi**2 + w1**2)))
    scale = 1.0 / np.sqrt(cell)
    phi = phi * scale
    w1 = w1 * scale
    dphi = dphi * scale
    d3phi = dy_onesided(dy_onesided(dphi, dy), dy)
    beta = (config.mu * (d3phi - xi**2 * dphi) - lam * pN.rho * dphi) / xi**2
    return GrowthResult(Lambda=lam, k_star=k_star, per_mode=per_mode,
                        w2=phi, w1=w1, beta=beta, residual=resid,
                        nodes=pN.nodes, grid_N=N, eigensolves=eigensolves)


def write_modes_csv(result: GrowthResult, path: str | Path) -> None:
    with open(path, "w") as fh:
        fh.write("k,xi,alpha0,Lambda_xi\n")
        for k, xi, a0, lam in result.per_mode:
            fh.write(f"{k},{xi:.17g},{a0:.17g},{lam:.17g}\n")


def write_eigenfunction(nodes: np.ndarray, values: np.ndarray, path: str | Path) -> None:
    """Two-column (y2, value) text export."""
    with open(path, "w") as fh:
        for y, v in zip(nodes, values):
            fh.write(f"{y:.17g} {v:.17g}\n")
