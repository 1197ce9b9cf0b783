"""Energy functionals, discrete Sobolev norms, decay weights and fits.

Per-snapshot records collect the L2/H1/H2 norms of the perturbation
fields, the potential energy

    E(w) = g int rho_bar' w2^2 - kappa || rho_bar' grad w2 ||^2

evaluated on the current vertical velocity, the pieces of the nonlinear
energy balance

    d/dt [ kinetic + gravity_pe + capillary_pe ] = - mu ||grad v||^2

written in perturbation form (the infinite equilibrium contributions are
constants and drop out of time differences):

    kinetic      = 1/2 int rho |v|^2
    gravity_pe   = g int rho_pert y2
    capillary_pe = kappa int rho_bar' d2(rho_pert) + kappa/2 ||grad rho_pert||^2

and the algebraic decay weights <t>^p = (1+t)^p applied to them.  The
displacement-based columns (l2_s2, epot_disp) are populated only when the
run tracks the accumulated displacement proxy (linearized mode) and enable
the linearized energy identity check

    1/2 d/dt ( ||sqrt(rho_bar) v||^2 - E(s2) ) + mu ||grad v||^2 = 0 .

Lagrangian decay functionals are not reconstructed here; the column
w3_eta2_proxy is the Eulerian proxy <t>^3 ||rho_pert / rho_bar'||^2 (valid
for stabilizing profiles via the transport relation rho_pert ~
-rho_bar' eta2, NaN otherwise) and is labeled a proxy on purpose: it is
not the Lagrangian functional itself.

Derivatives are spectral in x1 and second-order centered in y2, matching
the simulator's discretization so the identities close at discretization
accuracy.  The grid, the equilibrium columns and the stabilizing flag come
from the simulator's cached workspace of the field's grid, so a run's
records reuse what its steps built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dc_fields, replace
from pathlib import Path

import numpy as np

from .growth import assemble_mode_forms
from .operators import Grid, dy_onesided
from .profiles import DensityProfile, SlabConfig, make_linear_profile
from .simulator import _grid_workspace
from .threshold import mode_threshold


__all__ = [
    "EnergyRecord",
    "FitResult",
    "potential_energy",
    "record",
    "fit_growth",
    "fit_escape",
    "bounded_decay_check",
    "poincare_min_quotient",
    "write_series",
    "read_series",
]


@dataclass(frozen=True)
class EnergyRecord:
    """One diagnostics snapshot; every field is a plain float (CSV row)."""

    t: float
    l2_v: float
    l2_rho: float
    linf_v: float
    linf_rho: float
    l1_v: float
    h1_v: float
    h2_v: float
    h1_rho: float
    epot: float
    kinetic: float
    gravity_pe: float
    capillary_pe: float
    viscous_diss: float
    w3_l2_v2: float
    w2_h1_v2: float
    w3_eta2_proxy: float
    div_rel: float
    mass_pert: float
    l2_s2: float
    epot_disp: float


RECORD_FIELDS = [f.name for f in dc_fields(EnergyRecord)]


def potential_energy(w2_field: np.ndarray, p: DensityProfile, config: SlabConfig) -> float:
    """E evaluated on a vertical-velocity-like field (zero at the walls)."""
    nx, ny1 = w2_field.shape
    ws = _grid_workspace(nx, ny1 - 1, p, config)
    g = ws.grid
    return _potential_energy(w2_field, g.dx1(w2_field), g.dy(w2_field, -1), g, ws.d1, config)


def _potential_energy(w2, dx_w2, dy_w2, g: Grid, d1, config: SlabConfig) -> float:
    """E from w2 and its two derivatives, so callers that have them reuse them."""
    gw = config.g * g.integrate(d1 * w2**2)
    return gw - config.kappa * g.integrate(d1**2 * (dx_w2**2 + dy_w2**2))


def record(s, p: DensityProfile, config: SlabConfig) -> EnergyRecord:
    """Compute every diagnostic for one simulation state."""
    nx, ny1 = s.v1.shape
    ws = _grid_workspace(nx, ny1 - 1, p, config)
    g, rho_b, d1 = ws.grid, ws.rho_b, ws.d1
    v1, v2, rho_p = s.v1, s.v2, s.rho_pert

    dx_v1, dy_v1 = g.dx1(v1), g.dy(v1, +1)
    dx_v2, dy_v2 = g.dx1(v2), g.dy(v2, -1)
    # one-sided wall rows: the Navier-slip conditions do not pin the density
    # perturbation at the walls (the simulator's closure)
    dx_r, dy_r = g.dx1(rho_p), dy_onesided(rho_p, g.dyy)

    def second(f, parity, dxf):
        return (g.irfft(-g.xi**2 * g.rfft(f)),
                g.dy(dxf, parity),
                g.d2y(f, parity))

    l2_v = g.l2(v1, v2)
    l2_rho = g.l2(rho_p)
    grad_v_sq = g.integrate(dx_v1**2 + dy_v1**2 + dx_v2**2 + dy_v2**2)
    h1_v = math.sqrt(l2_v**2 + grad_v_sq)
    h1_rho = math.sqrt(l2_rho**2 + g.integrate(dx_r**2 + dy_r**2))
    s2_v1 = second(v1, +1, dx_v1)
    s2_v2 = second(v2, -1, dx_v2)
    h2_v = math.sqrt(h1_v**2 + sum(g.integrate(f**2) for f in s2_v1 + s2_v2))

    kinetic = 0.5 * g.integrate((rho_b + rho_p) * (v1**2 + v2**2))
    gravity_pe = config.g * g.integrate(rho_p * g.y.reshape(1, -1))
    capillary_pe = config.kappa * (g.integrate(d1 * dy_r)
                                   + 0.5 * g.integrate(dx_r**2 + dy_r**2))
    # dissipation in the summation-by-parts partner form of the scheme's
    # compact viscous stencil (tight vertical differences, spectral x1),
    # so the discrete energy balance closes to time-integration accuracy
    tight = sum(np.sum((f[:, 1:] - f[:, :-1]) ** 2) / g.dyy * g.dx
                for f in (v1, v2))
    spec_x = g.integrate(dx_v1**2) + g.integrate(dx_v2**2)
    viscous_diss = config.mu * (tight + spec_x)
    epot = _potential_energy(v2, dx_v2, dy_v2, g, d1, config)

    w = 1.0 + s.t
    eta_proxy = (w**3 * g.l2(rho_p / d1) ** 2) if ws.stabilizing else math.nan

    div = dx_v1 + dy_v2
    linf_v = float(np.max(np.sqrt(v1**2 + v2**2)))
    div_rel = float(np.max(np.abs(div))) / max(linf_v, 1e-300)
    mass_pert = g.integrate(rho_p)

    if s.s2 is not None:
        l2_s2 = g.l2(s.s2)
        epot_disp = _potential_energy(s.s2, g.dx1(s.s2), g.dy(s.s2, -1), g, d1, config)
    else:
        l2_s2 = math.nan
        epot_disp = math.nan

    return EnergyRecord(
        t=float(s.t), l2_v=l2_v, l2_rho=l2_rho, linf_v=linf_v,
        linf_rho=float(np.max(np.abs(rho_p))),
        l1_v=g.integrate(np.sqrt(v1**2 + v2**2)),
        h1_v=h1_v, h2_v=h2_v, h1_rho=h1_rho,
        epot=epot, kinetic=kinetic, gravity_pe=gravity_pe,
        capillary_pe=capillary_pe, viscous_diss=viscous_diss,
        w3_l2_v2=w**3 * l2_v**2, w2_h1_v2=w**2 * h1_v**2,
        w3_eta2_proxy=eta_proxy, div_rel=div_rel, mass_pert=mass_pert,
        l2_s2=l2_s2, epot_disp=epot_disp,
    )


@dataclass(frozen=True)
class FitResult:
    rate: float
    window: tuple[float, float]
    r_squared: float
    kind: str


def fit_growth(series: list[EnergyRecord], window=None) -> FitResult:
    """Least-squares slope of log l2_v against t.

    window selects records: None takes all, ('time', t0, t1) a time span,
    ('amplitude', lo, hi) the span where the peak speed linf_v lies in
    [lo, hi] (the linear-regime isolation policy).
    """
    if window is None:
        sel = list(series)
    elif window[0] == "time":
        sel = [r for r in series if window[1] <= r.t <= window[2]]
    elif window[0] == "amplitude":
        sel = [r for r in series if window[1] <= r.linf_v <= window[2]]
    else:
        raise ValueError(f"unknown window policy {window!r}")
    if len(sel) < 10:
        raise ValueError(f"growth-fit window holds {len(sel)} records, need >= 10")
    t = np.array([r.t for r in sel])
    norm = np.array([r.l2_v for r in sel])
    if np.any(norm <= 0.0):
        raise ValueError("growth fit needs strictly positive norms")
    y = np.log(norm)
    slope, intercept = np.polyfit(t, y, 1)
    resid = y - (slope * t + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return FitResult(rate=float(slope), window=(float(t[0]), float(t[-1])),
                     r_squared=r2, kind="exp_growth")


def fit_escape(pairs) -> FitResult | None:
    """Least-squares slope of escape time against ln(1/delta), about 1/Lambda.

    pairs are (delta, T_escape) with None marking a censored run; censored
    runs are dropped, and with fewer than two escapes there is no fit.
    The window is the fitted span of ln(1/delta).
    """
    done = [(d, t) for d, t in pairs if t is not None]
    if len(done) < 2:
        return None
    x = np.log([1.0 / d for d, _ in done])
    y = np.array([t for _, t in done])
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    ss = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum((y - A @ coef) ** 2)) / ss if ss > 0 else 1.0
    return FitResult(rate=float(coef[0]), window=(float(x.min()), float(x.max())),
                     r_squared=r2, kind="escape_slope")


def bounded_decay_check(series: list[EnergyRecord], p_exponent: float) -> tuple[float, bool]:
    """(sup over records of <t>^p l2_v^2, tail-monotone flag).

    The tail flag reports whether l2_v is non-increasing over the last
    third of the series (within a 1e-9 relative slack).
    """
    vals = [(1.0 + r.t) ** p_exponent * r.l2_v**2 for r in series]
    sup = max(vals)
    tail = [r.l2_v for r in series[2 * len(series) // 3:]]
    slack = 1e-9 * max(tail) if tail else 0.0
    mono = all(b <= a + slack for a, b in zip(tail, tail[1:]))
    return float(sup), bool(mono)


def poincare_min_quotient(config: SlabConfig, Ny: int = 256) -> float:
    """Discrete minimum of ||grad w2||^2 / ||w2||^2 over divergence-free fields.

    The minimizer lives in the k = 1 horizontal mode with a Dirichlet
    vertical profile, so the minimum is the smallest eigenvalue of
    (K + xi^2 M) phi = lambda M phi with xi = 1/L; it converges to
    pi^2/h^2 + 1/L^2 at second order in the grid.  That pencil is the
    threshold's mode-1 quotient for a unit-slope profile at g = 1, whose
    largest eigenvalue is the reciprocal of this one.
    """
    unit = replace(config, g=1.0)
    return 1.0 / mode_threshold(
        assemble_mode_forms(make_linear_profile(1.0, 1.0, unit, Ny), unit, 1))[0]


def write_series(series: list[EnergyRecord], path: str | Path) -> None:
    """CSV with one row per record, floats at 17 significant digits."""
    with open(path, "w") as fh:
        fh.write(",".join(RECORD_FIELDS) + "\n")
        for r in series:
            fh.write(",".join(f"{getattr(r, name):.17g}" for name in RECORD_FIELDS) + "\n")


def read_series(path: str | Path) -> list[EnergyRecord]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header != RECORD_FIELDS:
            raise ValueError(f"{path}: unexpected series header")
        out = []
        for line in fh:
            vals = [float(tok) for tok in line.strip().split(",")]
            out.append(EnergyRecord(**dict(zip(RECORD_FIELDS, vals))))
    return out
