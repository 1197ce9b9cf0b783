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
symmetric tridiagonal eigenproblem per mode (``mode_threshold``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from .errors import DegenerateThresholdError, EigensolverError
from .operators import lumped_mass, stiffness, trapezoid_weights
from .profiles import DensityProfile, SlabConfig, check_admissibility

__all__ = [
    "ModeQuotientOperator",
    "ThresholdResult",
    "assemble_mode_quotient",
    "mode_threshold",
    "compute_kappa_c",
    "remark_bound",
    "two_dim_quotient_ascent",
    "write_modes_csv",
]


@dataclass(frozen=True)
class ModeQuotientOperator:
    """Discretized per-mode Rayleigh quotient Q_k = (phi' A phi)/(phi' B phi).

    A is the g*rho_bar'-weighted mass form (numerator), B the
    |rho_bar'|^2-weighted stiffness plus xi^2 mass (denominator), both in
    band rows on interior nodes with the Dirichlet rows eliminated.  B is
    symmetric positive definite exactly when the stabilizing condition holds.
    """

    xi: float
    A: np.ndarray
    B: np.ndarray
    nodes: np.ndarray


def assemble_mode_quotient(p: DensityProfile, config: SlabConfig, k: int) -> ModeQuotientOperator:
    """Assemble the mode-k quotient forms on the profile's grid."""
    if k < 1:
        raise ValueError("mode index k must be >= 1 (the k = 0 mode carries no w2)")
    rep = check_admissibility(p)
    if not rep.stabilizing:
        raise DegenerateThresholdError(
            "density gradient vanishes inside the slab: the denominator form is "
            "singular and no finite capillarity coefficient stabilizes this profile")
    xi = config.xi(k)
    c = p.d1**2
    A = config.g * lumped_mass(p.d1, p.dy)
    B = stiffness(c, p.dy) + xi**2 * lumped_mass(c, p.dy)
    return ModeQuotientOperator(xi=xi, A=A, B=B, nodes=p.nodes)


def _normalize_eigvec(phi_int: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Pad wall zeros, normalize to unit trapezoid L2 norm, fix the sign."""
    phi = np.zeros(nodes.size)
    phi[1:-1] = phi_int
    w = trapezoid_weights(nodes.size, nodes[1] - nodes[0])
    phi /= np.sqrt(np.sum(w * phi**2))
    if phi[np.argmax(np.abs(phi))] < 0:
        phi = -phi
    return phi


def mode_threshold(op: ModeQuotientOperator) -> tuple[float, np.ndarray]:
    """Largest generalized eigenvalue of A phi = lambda B phi and its eigenfunction.

    Returns the per-mode threshold kappa_C(xi) and phi on the full node set
    (unit L2 norm, sign fixed so the largest-magnitude component is positive).
    A is diagonal, so kappa_C(xi) = 1/mu_min of the tridiagonal
    A^{-1/2} B A^{-1/2}, and phi = A^{-1/2} psi.  A non-finite pencil raises
    EigensolverError, an entry of A <= 0 (rho' <= 0 at a node)
    DegenerateThresholdError.
    """
    if not (np.all(np.isfinite(op.A)) and np.all(np.isfinite(op.B))):
        raise EigensolverError("mode quotient pencil has non-finite entries")
    a = op.A[2]
    if not np.all(a > 0.0):
        raise DegenerateThresholdError("rho' is not positive at every node")
    r = 1.0 / np.sqrt(a)
    try:
        # bisection to near underflow: the default tolerance eps*|T|_1 would
        # leave mu_min only about 1e-10 relative
        vals, vecs = scipy.linalg.eigh_tridiagonal(
            r * op.B[2] * r, r[:-1] * op.B[1, 1:] * r[1:], select="i",
            select_range=(0, 0), tol=2.0 * np.finfo(float).tiny, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise EigensolverError(f"mode quotient eigensolve failed: {exc}") from exc
    return float(1.0 / vals[0]), _normalize_eigvec(r * vecs[:, 0], op.nodes)


def remark_bound(p: DensityProfile, config: SlabConfig) -> float:
    """Upper bound g*max|rho'| * (min|rho'|)^-2 / (pi^2/h^2 + 1/L^2)."""
    dmax = float(np.max(np.abs(p.d1)))
    dmin = float(np.min(np.abs(p.d1)))
    return config.g * dmax / (dmin**2 * (np.pi**2 / config.h**2 + 1.0 / config.L**2))


def _discrete_remark_bound(p: DensityProfile, config: SlabConfig, N: int) -> float:
    """The comparison bound with the grid's own Poincare constant.

    Bounding the assembled forms entrywise gives kappa_c <= g max|rho'|
    / (min|rho'|^2 (mu_N + 1/L^2)) where mu_N = (2 - 2cos(pi/N))/dy^2 is
    the smallest Dirichlet eigenvalue of this stencil; mu_N < pi^2/h^2, so
    the discrete threshold may legitimately sit O(N^-2) above the
    continuum bound for profiles that saturate it.
    """
    dmax = float(np.max(np.abs(p.d1)))
    dmin = float(np.min(np.abs(p.d1)))
    dy = config.h / N
    mu_N = (2.0 - 2.0 * np.cos(np.pi / N)) / dy**2
    return config.g * dmax / (dmin**2 * (mu_N + 1.0 / config.L**2))


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
    pN = p.resample(N)
    rep = check_admissibility(pN)
    if not (rep.rt_condition and rep.stabilizing):
        raise DegenerateThresholdError(
            "threshold requires a profile with rho' > 0 everywhere "
            f"(rt_condition={rep.rt_condition}, stabilizing={rep.stabilizing})")
    per_mode: list[tuple[int, float, float]] = []
    phi1 = None
    prev = np.inf
    for k in range(1, k_max + 1):
        op = assemble_mode_quotient(pN, config, k)
        lam, phi = mode_threshold(op)
        if not lam < prev:
            raise EigensolverError(
                f"per-mode threshold failed to decrease at k={k} "
                f"({lam:.6g} >= {prev:.6g}); mode assembly is inconsistent")
        per_mode.append((k, op.xi, lam))
        if k == 1:
            phi1 = phi
        prev = lam
    kappa_c = per_mode[0][2]
    bound = _discrete_remark_bound(pN, config, N)
    if kappa_c > bound * (1.0 + 1e-9):
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
