"""Critical capillarity coefficient via per-mode Rayleigh quotients.

The threshold is the supremum, over divergence-free fields w on the
periodic cell with w2 = 0 at the walls, of

    Q(w) = g * int rho_bar' w2^2  /  int |rho_bar' grad w2|^2 ,

fields with identically vanishing denominator excluded.  Only w2 enters,
so expand it in horizontal Fourier modes, w2 = sum_k phi_k(y2) e^{i k x1/L}.
Both quadratic forms split into sums over k by orthogonality, and a ratio
of sums of nonnegative terms never exceeds the largest per-term ratio, so

    sup Q = max over k >= 1 of  sup_phi Q_k(phi),
    Q_k(phi) = g * int rho_bar' phi^2
               / int |rho_bar'|^2 (phi'^2 + xi^2 phi^2),   xi = k/L,

with phi ranging over H^1_0(0, h).  The k = 0 mode is excluded because
div w = 0 forces the horizontal mean of w2 to be y2-independent (its
vertical derivative is minus the mean of d(w1)/dx1, which integrates to
zero over a period) and that mean vanishes at the walls, hence everywhere.
For k >= 1 the divergence constraint merely determines w1 from w2 and does
not restrict phi.  Since xi^2 appears in the denominator only, Q_k is
strictly decreasing in k and the supremum sits at k = 1; the sweep over k
here is a self-check of the assembly, and ``two_dim_quotient_ascent``
cross-checks the whole reduction by maximizing Q directly on a coarse 2-D
grid.

Each mode is discretized with second-order finite differences (midpoint
stiffness, trapezoid mass) into a symmetric-definite pencil A phi =
lambda B phi with A diagonal and B tridiagonal, which reduces to one
symmetric tridiagonal eigenproblem per mode (``mode_threshold``).  A and
B are the parts of growth's Epot = A - kappa B, read from its ModeForms.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from .errors import ConfigError, DegenerateThresholdError, EigensolverError
from .growth import ModeForms, _normalize_eigvec, assemble_mode_forms
from .operators import trapezoid_weights
from .profiles import DensityProfile, SlabConfig, _gradient_tol, check_admissibility

__all__ = [
    "ThresholdResult",
    "mode_threshold",
    "compute_kappa_c",
    "remark_bound",
    "two_dim_quotient_ascent",
    "write_modes_csv",
]


def mode_threshold(forms: ModeForms) -> tuple[float, np.ndarray]:
    """Largest generalized eigenvalue of A phi = lambda B phi and its eigenfunction.

    Returns the per-mode threshold kappa_C(xi) and phi on the full node set
    (unit L2 norm, sign fixed so the largest-magnitude component is positive).
    A is diagonal, so kappa_C(xi) = 1/mu_min of the tridiagonal
    A^{-1/2} B A^{-1/2}, and phi = A^{-1/2} psi.  A non-finite pencil raises
    EigensolverError.  A profile that is not stabilizing (|rho'| at or
    below check_admissibility's zero tolerance at a node of the forms' d1
    column, walls included) or an entry of A <= 0 (rho' <= 0 at an
    interior node) raises DegenerateThresholdError.
    """
    if not (np.all(np.isfinite(forms.A)) and np.all(np.isfinite(forms.B))):
        raise EigensolverError("mode quotient pencil has non-finite entries")
    a = forms.A[2]
    if not (float(np.min(np.abs(forms.d1))) > _gradient_tol(forms.d1) and np.all(a > 0.0)):
        raise DegenerateThresholdError(
            "rho' vanishes or is negative at a node: no finite capillarity "
            "coefficient stabilizes this profile")
    r = 1.0 / np.sqrt(a)
    try:
        # bisection to near underflow: the default tolerance eps*|T|_1 would
        # leave mu_min only about 1e-10 relative
        vals, vecs = scipy.linalg.eigh_tridiagonal(
            r * forms.B[2] * r, r[:-1] * forms.B[1, 1:] * r[1:], select="i",
            select_range=(0, 0), tol=2.0 * np.finfo(float).tiny, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise EigensolverError(f"mode quotient eigensolve failed: {exc}") from exc
    return float(1.0 / vals[0]), _normalize_eigvec(r * vecs[:, 0], forms.nodes)


def _comparison_bound(p: DensityProfile, config: SlabConfig, poincare: float) -> float:
    """g*max|rho'| * (min|rho'|)^-2 / (poincare + 1/L^2), poincare <= pi^2/h^2."""
    d1 = np.abs(p.d1)
    return config.g * float(np.max(d1)) / (float(np.min(d1))**2 * (poincare + 1.0 / config.L**2))


def remark_bound(p: DensityProfile, config: SlabConfig) -> float:
    """Upper bound g*max|rho'| * (min|rho'|)^-2 / (pi^2/h^2 + 1/L^2)."""
    return _comparison_bound(p, config, np.pi**2 / config.h**2)


def _discrete_remark_bound(p: DensityProfile, config: SlabConfig, N: int) -> float:
    """The comparison bound with the grid's own Poincare constant.

    Bounding the assembled forms entrywise gives kappa_c <= g max|rho'|
    / (min|rho'|^2 (mu_N + 1/L^2)) where mu_N = (2 - 2cos(pi/N))/dy^2 is
    the smallest Dirichlet eigenvalue of this stencil; mu_N < pi^2/h^2, so
    the discrete threshold may legitimately sit O(N^-2) above the
    continuum bound for profiles that saturate it.
    """
    return _comparison_bound(p, config, (2.0 - 2.0 * np.cos(np.pi / N)) / (config.h / N)**2)


@dataclass(frozen=True)
class ThresholdResult:
    """Output of the threshold sweep.

    kappa_c : the critical capillarity coefficient (per-mode value at k = 1)
    k_star : the maximizing integer mode (always 1; asserted by the sweep)
    per_mode : (k, xi, kappa_c_k) for each swept mode
    phi : maximizing vertical eigenfunction on the full grid, unit L2 norm
    grid_N : vertical resolution used
    """

    kappa_c: float
    k_star: int
    per_mode: list[tuple[int, float, float]]
    phi: np.ndarray
    grid_N: int


def compute_kappa_c(p: DensityProfile, config: SlabConfig, N: int = 256,
                    k_max: int = 8) -> ThresholdResult:
    """Sweep modes k = 1..k_max and return the capillarity threshold.

    The sweep asserts that the per-mode values are strictly decreasing in k
    (a failure signals an assembly bug, not a property of the profile) and
    that the result respects the linear-comparison upper bound.
    """
    if k_max < 1:
        raise ConfigError(f"threshold sweep needs k_max >= 1, got {k_max}")
    pN = p.resample(N)
    rep = check_admissibility(pN)
    if not (rep.rt_condition and rep.stabilizing):
        raise DegenerateThresholdError(
            "threshold requires a profile with rho' > 0 everywhere "
            f"(rt_condition={rep.rt_condition}, stabilizing={rep.stabilizing})")
    per_mode: list[tuple[int, float, float]] = []
    for k in range(1, k_max + 1):
        forms = assemble_mode_forms(pN, config, k)
        lam, phi = mode_threshold(forms)
        if k == 1:
            phi1 = phi
        elif not lam < per_mode[-1][2]:
            raise EigensolverError(
                f"per-mode threshold failed to decrease at k={k} "
                f"({lam:.6g} >= {per_mode[-1][2]:.6g}); mode assembly is inconsistent")
        per_mode.append((k, forms.xi, lam))
    kappa_c = per_mode[0][2]
    bound = _discrete_remark_bound(pN, config, N)
    if not kappa_c <= bound * (1.0 + 1e-9):      # a NaN kappa_c fails too
        raise EigensolverError(
            f"computed threshold {kappa_c:.6g} exceeds the comparison bound "
            f"{bound:.6g}; mode assembly is inconsistent")
    return ThresholdResult(kappa_c=kappa_c, k_star=1, per_mode=per_mode,
                           phi=phi1, grid_N=N)


def write_modes_csv(result: ThresholdResult, path: str | Path) -> None:
    with open(path, "w") as fh:
        fh.write("k,xi,kappa_c_k\n")
        for k, xi, val in result.per_mode:
            fh.write(f"{k},{xi:.17g},{val:.17g}\n")


def two_dim_quotient_ascent(p: DensityProfile, config: SlabConfig,
                            nx: int = 32, ny: int = 48, iters: int = 4000,
                            seed: int = 0) -> float:
    """Maximize the 2-D quotient directly by projected gradient ascent.

    Cross-check of the Fourier reduction: w2 lives on a coarse periodic x
    uniform grid with Dirichlet walls, the projection removes the
    horizontal-mean (k = 0) component after every step, and the converged
    quotient must match the k = 1 per-mode value.
    """
    pN = p.resample(ny)
    dx = config.width / nx
    dyy = config.h / ny
    wy = trapezoid_weights(ny + 1, dyy)
    a_diag = config.g * pN.d1 * wy * dx               # numerator weights per column
    c = pN.d1**2
    cm = 0.5 * (c[:-1] + c[1:])

    def project(w):
        w = w - np.mean(w, axis=0, keepdims=True)
        w[:, 0] = 0.0
        w[:, -1] = 0.0
        return w

    def apply_B(w):
        # x part: second difference against weight dx*wy*c
        bx = (2.0 * w - np.roll(w, 1, axis=0) - np.roll(w, -1, axis=0)) / dx**2
        out = bx * (dx * wy * c)
        # y part: interval-midpoint stiffness, Dirichlet rows stay zero
        flux = cm * (w[:, 1:] - w[:, :-1]) / dyy      # one flux per interval
        out[:, 1:-1] += dx * (flux[:, :-1] - flux[:, 1:])
        out[:, 0] = 0.0
        out[:, -1] = 0.0
        return out

    # start with guaranteed overlap on the k = 1 branch (the principal
    # eigenfunction is one-signed, so this never sits on a saddle) plus
    # seeded noise so the ascent genuinely explores the 2-D space
    rng = np.random.default_rng(seed)
    X, Y = np.meshgrid(np.arange(nx) * dx, pN.nodes, indexing="ij")
    w = np.sin(X / config.L) * np.sin(np.pi * Y / config.h)
    w = w + 0.5 * np.sin(2 * X / config.L) * np.sin(np.pi * Y / config.h)
    w = w + 0.3 * np.sin(X / config.L) * np.sin(2 * np.pi * Y / config.h)
    w = project(w + 0.1 * rng.standard_normal(w.shape))
    Bw = apply_B(w)
    quot = float(np.sum(a_diag * w**2) / np.sum(w * Bw))
    step = 1.0
    for _ in range(iters):
        grad = a_diag * w - quot * Bw
        trial = project(w + step * grad / max(np.max(np.abs(grad)), 1e-300))
        Bt = apply_B(trial)
        q_trial = float(np.sum(a_diag * trial**2) / np.sum(trial * Bt))
        if q_trial >= quot * (1.0 - 1e-15):
            w, quot = trial / np.sqrt(np.sum(trial * Bt)), max(q_trial, quot)
            Bw = apply_B(w)
            step = min(step * 1.2, 1e3)
        else:
            step = max(step * 0.5, 1e-12)
    return quot
