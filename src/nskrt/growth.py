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

The forms are banded, and alpha(s) comes from inverse iteration with
shifts certified by Sylvester's law of inertia (Parlett, The Symmetric
Eigenvalue Problem, ch. 4-5): a banded Cholesky factorization of
sigma M - (Epot - s mu V) succeeds exactly when sigma lies above the top
eigenvalue, so it lowers the upper end of a bracket; a failed one and
every Rayleigh quotient raise the lower end.  alpha(0) starts from the
previous mode's maximizer (sin pi y for k = 1) below g max(rho_bar'+/rho_bar),
an upper end for every s (Epot <= g mass(rho_bar'+) <= that times M);
alpha(s) in the Newton iteration starts from phi_lo between the tangent
value and alpha(s_lo).  Each shift sits a tenth of the way up the bracket
(halfway after a failed factorization), and a solve stops once its vector
changes by at most 1e-8 or its bracket is at the rounding of the forms.
The factorizations and solves are LAPACK's dpbtrf / dpbtrs, called
directly: a positive info is a failed shift, and the pencil is checked for
finite entries first, since dpbtrf reports success on NaN input.  What
does not depend on s (the bound, the weights of the difference sums) is
built once per mode's forms, and the Newton tangent at a maximizer reads
the sums alpha formed for it.

The unstable pressure amplitude follows from the horizontal momentum
balance: with W = phi'/xi,

    beta_hat = [ mu (phi''' - xi^2 phi') - Lambda rho_bar phi' ] / xi^2 .
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .errors import ConfigError, EigensolverError
from .operators import (band_matvec, dy_onesided, lumped_mass, second_difference_form,
                        stiffness, trapezoid_weights)
from .profiles import DensityProfile, SlabConfig, check_admissibility

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
    """Per-mode kinetic (M), viscous (V) and potential (Epot = A - kappa B)
    forms, A the g rho_bar' mass and B the |rho_bar'|^2 stiffness plus xi^2
    mass: the threshold's pencil.  All are real symmetric band rows on
    interior nodes; M and V are positive definite.  The profile columns and
    coefficients ride along so quotients can be re-evaluated from difference
    sums, which is far less sensitive to rounding than the assembled H^2-forms.
    """

    xi: float
    M: np.ndarray
    V: np.ndarray
    Epot: np.ndarray
    A: np.ndarray
    B: np.ndarray
    mu: float
    nodes: np.ndarray
    rho: np.ndarray
    d1: np.ndarray
    g: float
    kappa: float

    @cached_property
    def _sum_parts(self) -> _SumParts:
        return _SumParts(self)


class _SumParts:
    """The s-independent parts of alpha, built once from one ModeForms' own
    columns (a replaced copy builds its own): the interior weights and
    midpoint coefficients of the difference sums and the upper end
    g max(rho_bar'+/rho_bar).  ``last`` holds the latest vector's bytes and
    sums, so the Newton tangent at alpha's maximizer reads the sums alpha
    has just formed."""

    def __init__(self, forms: ModeForms):
        rho, d1 = forms.rho, forms.d1
        c2 = d1**2
        self.dy = float(forms.nodes[1] - forms.nodes[0])
        self.rho, self.d1, self.c2 = rho[1:-1], d1[1:-1], c2[1:-1]
        self.rho_m, self.c2_m = 0.5 * (rho[:-1] + rho[1:]), 0.5 * (c2[:-1] + c2[1:])
        self.bound = forms.g * float(np.max(np.maximum(self.d1, 0.0) / self.rho))
        self.last = (None, None)


@lru_cache(maxsize=8)
def _profile_parts(pN: DensityProfile) -> tuple[np.ndarray, ...]:
    """The mode-independent forms: a sweep assembles them once."""
    dy, ones, c = pN.dy, np.ones_like(pN.rho), pN.d1**2
    return (lumped_mass(pN.rho, dy), stiffness(pN.rho, dy), 2.0 * stiffness(ones, dy),
            second_difference_form(pN.N - 1, dy), lumped_mass(ones, dy),
            lumped_mass(pN.d1, dy), stiffness(c, dy), lumped_mass(c, dy))


def assemble_mode_forms(p: DensityProfile, config: SlabConfig, k: int,
                        N: int | None = None) -> ModeForms:
    if k < 1:
        raise ValueError("mode index k must be >= 1")
    pN = p if N is None else p.resample(N)
    m_rho, k_rho, k_ones, biharm, m_ones, m_d1, k_c, m_c = _profile_parts(pN)
    xi = config.xi(k)
    M = m_rho + k_rho / xi**2
    V = k_ones + biharm / xi**2 + xi**2 * m_ones
    A, B = config.g * m_d1, k_c + xi**2 * m_c
    return ModeForms(xi=xi, M=M, V=V, Epot=A - config.kappa * B, A=A, B=B, mu=config.mu,
                     nodes=pN.nodes, rho=pN.rho, d1=pN.d1, g=config.g, kappa=config.kappa)


def _normalize_eigvec(phi_int: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Pad wall zeros, normalize to unit trapezoid L2 norm, fix the sign."""
    phi = np.zeros(nodes.size)
    phi[1:-1] = phi_int
    w = trapezoid_weights(nodes.size, nodes[1] - nodes[0])
    phi /= np.sqrt(np.sum(w * phi**2))
    if phi[np.argmax(np.abs(phi))] < 0:
        phi = -phi
    return phi


def _quotient_sums(phi: np.ndarray, forms: ModeForms) -> tuple[float, float, float]:
    """(Epot(phi), V(phi), M(phi)) evaluated from difference sums.

    For a smooth phi the sums carry no large cancellations, so quotients
    of them are accurate to a few ulps, well below the rounding of the
    assembled-form eigenvalue whose backward error scales with the huge
    top of the discrete biharmonic spectrum.
    """
    parts, key = forms._sum_parts, phi.tobytes()
    if parts.last[0] == key:
        return parts.last[1]
    dy = parts.dy
    xi = forms.xi
    phi2 = phi[1:-1] ** 2
    dphi2 = (np.diff(phi) / dy) ** 2                # interval values
    d2phi = (phi[2:] - 2.0 * phi[1:-1] + phi[:-2]) / dy**2

    def mass(c):
        return dy * float((c * phi2).sum())

    def stiff(cm):
        return dy * float((cm * dphi2).sum())

    m_val = mass(parts.rho) + stiff(parts.rho_m) / xi**2
    v_val = (2.0 * (dy * float(dphi2.sum())) + dy * float((d2phi**2).sum()) / xi**2
             + xi**2 * (dy * float(phi2.sum())))
    e_val = forms.g * mass(parts.d1) - forms.kappa * (stiff(parts.c2_m) + xi**2 * mass(parts.c2))
    parts.last = (key, (e_val, v_val, m_val))
    return e_val, v_val, m_val


# a solve still open after this many factorizations has stalled: a success
# cuts the bracket tenfold, a failure after a failure halves it
_MAX_FACTORIZATIONS = 60


def _norm(x: np.ndarray) -> float:
    """np.linalg.norm of a real vector (the same dot and root), without its
    dispatch."""
    return math.sqrt(x.dot(x))


def alpha(s: float, forms: ModeForms, phi: np.ndarray | None = None,
          hi: float = math.inf) -> tuple[float, np.ndarray, int]:
    """Largest eigenvalue of (Epot - s*mu*V) phi = alpha M phi.

    Returns (alpha_s, phi, factorizations), phi on the full node set with
    unit L2 norm, by the certified shift-invert of the module docstring
    from the start vector ``phi`` and an upper end ``hi`` known to the
    caller.  alpha_s is phi's quotient from difference sums (the vector
    error enters it only quadratically).  A non-finite pencil or quotient,
    or a bracket that does not close, raises EigensolverError.
    """
    if s < 0:
        raise ValueError("penalty weight s must be >= 0")
    A, M = forms.Epot - s * forms.mu * forms.V, forms.M
    bound = forms._sum_parts.bound
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(M)) and math.isfinite(bound)):
        raise EigensolverError(f"alpha({s}): the pencil or its bound has non-finite entries")
    x = (np.sin(np.pi * forms.nodes / forms.nodes[-1]) if phi is None else phi)[1:-1]
    x = x / _norm(x)
    Mx = band_matvec(M, x)
    lo = float(x @ band_matvec(A, x) / (x @ Mx))
    # the rounding of an assembled quotient at x: it widens the caller's hi,
    # a difference-sum value, and is as narrow as the bracket can usefully get
    ax = np.abs(x)
    slack = 8.0 * np.finfo(float).eps * float(
        ax @ band_matvec(np.abs(A) + abs(lo) * np.abs(M), ax) / (x @ Mx))
    hi = min(hi + slack, bound)
    step = 0.1
    for factorizations in range(1, _MAX_FACTORIZATIONS + 1):
        sigma = lo + step * (hi - lo)
        chol, info = dpbtrf(sigma * M - A, overwrite_ab=1)
        if info == 0:
            y, info = dpbtrs(chol, Mx, overwrite_b=1)
        if info < 0:
            raise EigensolverError(f"alpha({s}): LAPACK rejected argument {-info}")
        if info > 0:
            lo, step = sigma, 0.5                    # sigma M - A is indefinite
            continue
        hi, step = sigma, 0.1
        y *= math.copysign(1.0 / _norm(y), y @ x)
        change, x, Mx = _norm(y - x), y, band_matvec(M, y)
        lo = max(lo, float(x @ band_matvec(A, x) / (x @ Mx)))
        if change <= 1e-8 or hi - lo <= slack:
            break
    else:
        raise EigensolverError(
            f"alpha({s}): shift-invert bracket [{lo:.17g}, {hi:.17g}] did not close")
    phi = _normalize_eigvec(x, forms.nodes)
    e_val, v_val, m_val = _quotient_sums(phi, forms)
    a_s = (e_val - s * forms.mu * v_val) / m_val
    if not math.isfinite(a_s):
        raise EigensolverError(f"alpha({s}): the penalized quotient is {a_s}")
    return a_s, phi, factorizations


# midpoint steps alone shrink the bracket below one ulp in about 60 steps
_MAX_ITER = 100


def _fixed_point(forms: ModeForms, tol: float, a0: float,
                 phi0: np.ndarray) -> tuple[float, np.ndarray | None, float, list[int]]:
    """Solve alpha(s) = s^2 from a0 = alpha(0) and its maximizer phi0.

    Returns (Lambda_xi, phi, residual, factorizations of each alpha call);
    Lambda_xi = 0 when a0 <= 0.  The tangent is taken at the lower end of
    the bracket, the largest s seen so far with alpha(s) >= s^2.
    """
    factorizations: list[int] = []
    if a0 <= 0.0:
        return 0.0, None, 0.0, factorizations
    s_lo, a_lo, phi_lo = 0.0, a0, phi0
    s_hi = math.sqrt(a0)
    for _ in range(_MAX_ITER):
        _, v_val, m_val = _quotient_sums(phi_lo, forms)
        slope = -forms.mu * v_val / m_val            # alpha'(s_lo) <= 0
        c = a_lo - slope * s_lo                      # > 0: a_lo > s_lo^2
        s = 2.0 * c / (math.sqrt(slope**2 + 4.0 * c) - slope)
        if not s_lo < s < s_hi:
            s = 0.5 * (s_lo + s_hi)
            if not s_lo < s < s_hi:
                break
        a_s, phi, n_fact = alpha(s, forms, phi_lo, a_lo)
        factorizations.append(n_fact)
        resid = a_s - s**2
        if abs(resid) < tol * max(1.0, s**2):
            return s, phi, abs(resid), factorizations
        if resid > 0.0:
            s_lo, a_lo, phi_lo = s, a_s, phi
        else:
            s_hi = s
    raise EigensolverError(
        f"growth-rate iteration stalled in [{s_lo:.17g}, {s_hi:.17g}]")


def _check_tol(tol: float) -> None:
    if not 0.0 < tol < math.inf:
        raise ConfigError(f"growth-rate tolerance must be finite and > 0, got {tol}")


def mode_growth_rate(forms: ModeForms, tol: float = 1e-10) -> tuple[float, np.ndarray | None]:
    """Growth rate of one horizontal mode; Lambda_xi = 0 when alpha(0) <= 0."""
    _check_tol(tol)
    lam, phi, _, _ = _fixed_point(forms, tol, *alpha(0.0, forms)[:2])
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
    factorizations : banded Cholesky factorizations of each ``alpha`` call
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
    factorizations: tuple[int, ...] = ()


def compute_growth(p: DensityProfile, config: SlabConfig, N: int = 256,
                   tol: float = 1e-10, k_max: int = 64,
                   exhaustive: bool = False) -> GrowthResult:
    """Sweep horizontal modes and return the dominant growth rate.

    The sweep stops after three consecutive modes fail to improve the
    running maximum (viscosity and capillarity damp large wavenumbers);
    ``exhaustive=True`` forces the full sweep to k_max for verification.
    """
    if k_max < 1:
        raise ConfigError(f"growth-rate sweep needs k_max >= 1, got {k_max}")
    _check_tol(tol)
    pN = p.resample(N)
    rep = check_admissibility(pN)
    if not rep.rt_condition:
        raise ConfigError("growth-rate sweep expects an RT profile (rho' > 0 somewhere)")
    per_mode: list[tuple[int, float, float, float]] = []
    best: tuple | None = None
    running_max = 0.0
    decline = 0
    prev_a0 = np.inf
    phi0 = None
    factorizations: list[int] = []
    for k in range(1, k_max + 1):
        forms = assemble_mode_forms(pN, config, k)
        a0, phi0, n_fact = alpha(0.0, forms, phi0)
        lam, phi, resid, fp_facts = _fixed_point(forms, tol, a0, phi0)
        factorizations += [n_fact, *fp_facts]
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
    work = {"eigensolves": len(factorizations), "factorizations": tuple(factorizations)}
    if best is None:
        return GrowthResult(Lambda=0.0, k_star=None, per_mode=per_mode,
                            w2=None, w1=None, beta=None, residual=0.0,
                            nodes=pN.nodes, grid_N=N, **work)
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
                        nodes=pN.nodes, grid_N=N, **work)


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
