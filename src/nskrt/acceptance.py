"""Acceptance suite: the ten go/no-go checks for this laboratory.

Each criterion is a self-contained function with its tolerances pinned as
constants; ``run_acceptance`` yields each selected criterion's result as
it finishes.  The CLI ``verify`` command and tests/test_acceptance.py
both drive this module, printing one pass/fail line per criterion.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .diagnostics import (bounded_decay_check, fit_escape, fit_growth,
                          poincare_min_quotient)
from .growth import compute_growth
from .profiles import (SlabConfig, make_boundary_flat_profile,
                       make_linear_profile, random_stabilizing_profile)
from .simulator import (Init, RunConfig, _l1_speed, _workspace, escape_time,
                        init_state, run)
from .threshold import compute_kappa_c, remark_bound

__all__ = ["CriterionResult", "run_acceptance", "CRITERIA"]


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    runtime_s: float
    details: dict


def _linear_setup(g=1.0, mu=0.1, kappa=0.0, L=1.0, h=1.0, rho0=1.0, slope=1.0, N=256):
    config = SlabConfig(g=g, mu=mu, kappa=kappa, L=L, h=h)
    return config, make_linear_profile(rho0, slope, config, N)


def _criterion_1():
    """Threshold closed form and FD convergence order for the linear profile."""
    config, p = _linear_setup()
    exact = config.g / (np.pi**2 / config.h**2 + 1.0 / config.L**2)
    res = compute_kappa_c(p, config, N=256)
    rel = abs(res.kappa_c - exact) / exact
    errs = [abs(compute_kappa_c(p, config, N=n).kappa_c - exact) for n in (64, 128, 256)]
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
    ok = rel <= 1e-3 and all(1.8 <= o <= 2.2 for o in orders) and res.k_star == 1
    return ok, {"kappa_c": res.kappa_c, "exact": exact, "rel_err": rel,
                "orders": orders, "runtime_bound_s": 1.0}


def _criterion_2():
    """Optimal Poincare constant for three slab geometries."""
    rows = []
    ok = True
    for h, L in ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0)):
        config = SlabConfig(g=1.0, mu=1.0, kappa=0.0, L=L, h=h)
        exact = np.pi**2 / h**2 + 1.0 / L**2
        got = poincare_min_quotient(config, Ny=256)
        rel = abs(got - exact) / exact
        rows.append({"h": h, "L": L, "computed": got, "exact": exact, "rel_err": rel})
        ok = ok and rel <= 1e-3
    return ok, {"cases": rows}


def _criterion_3():
    """Comparison upper bound for randomized stabilizing profiles."""
    config = SlabConfig(g=1.0, mu=0.1, kappa=0.0, L=1.0, h=1.0)
    rng = np.random.default_rng(12345)
    rows = []
    ok = True
    for _ in range(5):
        p = random_stabilizing_profile(config, 128, rng)
        res = compute_kappa_c(p, config, N=128)
        bound = remark_bound(p, config)
        rows.append({"kappa_c": res.kappa_c, "bound": bound})
        ok = ok and res.kappa_c <= bound * (1.0 + 1e-12)
    return ok, {"profiles": rows, "runtime_bound_s": 10.0}


def _criterion_4():
    """Fixed-point residual of every returned positive growth rate."""
    config0, p = _linear_setup()
    kc = compute_kappa_c(p, config0, N=256).kappa_c
    rows = []
    ok = True
    for frac in (0.0, 0.25, 0.5, 0.75):
        config = SlabConfig(g=1.0, mu=0.1, kappa=frac * kc, L=1.0, h=1.0)
        gr = compute_growth(p, config, N=256, tol=1e-10)
        if gr.Lambda > 0:
            tol = 1e-10 * max(1.0, gr.Lambda**2)
            rows.append({"kappa_frac": frac, "Lambda": gr.Lambda,
                         "residual": gr.residual, "tol": tol})
            ok = ok and gr.residual <= tol
    return ok, {"cases": rows}


def _one_oracle_run(kappa: float):
    config = SlabConfig(g=1.0, mu=0.1, kappa=kappa, L=1.0, h=1.0)
    p = make_linear_profile(1.0, 1.0, config, N=128)
    gr = compute_growth(p, config, N=256)
    rc = RunConfig(Nx=128, Ny=128, t_end=25.0, dt=0.02, linearized=True,
                   init=Init("eigenfunction", delta=1e-6), output_every=10)
    t0 = time.perf_counter()
    _, series = run(rc, p, config, gr=gr)
    elapsed = time.perf_counter() - t0
    fit = fit_growth(series, ("amplitude", 3e-6, 0.01 * 2.0))
    rel = abs(fit.rate - gr.Lambda) / gr.Lambda
    return {"kappa": kappa, "Lambda": gr.Lambda, "fitted": fit.rate,
            "rel_err": rel, "run_s": elapsed, "r_squared": fit.r_squared}


def _criterion_5():
    """Eigensolver vs linearized time-domain growth, two capillarities."""
    config0, p = _linear_setup()
    kc = compute_kappa_c(p, config0, N=256).kappa_c
    rows = [_one_oracle_run(0.0), _one_oracle_run(0.5 * kc)]
    ok = all(r["rel_err"] <= 0.02 and r["run_s"] < 120.0 for r in rows)
    return ok, {"cases": rows, "tolerance": 0.02, "runtime_bound_s": 120.0}


def _criterion_6():
    """Bisection on the sign of Lambda recovers the threshold."""
    config0, p = _linear_setup()
    kc = compute_kappa_c(p, config0, N=256).kappa_c

    def unstable(kappa: float) -> bool:
        config = SlabConfig(g=1.0, mu=0.1, kappa=kappa, L=1.0, h=1.0)
        return compute_growth(p, config, N=256).Lambda > 0

    lo, hi = 0.5 * kc, 1.5 * kc
    if not unstable(lo) or unstable(hi):
        return False, {"error": "bracket endpoints disagree with the dichotomy"}
    for _ in range(8):
        mid = 0.5 * (lo + hi)
        if unstable(mid):
            lo = mid
        else:
            hi = mid
    neutral = 0.5 * (lo + hi)
    rel = abs(neutral - kc) / kc
    return rel <= 0.02, {"kappa_neutral": neutral, "kappa_c": kc, "rel_err": rel}


def _criterion_7():
    """Escape time linear in ln(1/delta) with slope 1/Lambda."""
    config, p = _linear_setup(N=128)
    gr = compute_growth(p, config, N=256)
    rc = RunConfig(Nx=128, Ny=128, t_end=60.0, dt=0.02,
                   init=Init("eigenfunction", delta=1e-4))
    probe = init_state(RunConfig(Nx=128, Ny=128, t_end=1.0, dt=0.02,
                                 init=Init("eigenfunction", delta=1e-3)),
                       p, config, gr=gr)
    eps = 0.02 * _l1_speed(probe, _workspace(rc, p, config).grid) / 1e-3
    deltas = [1e-4, 3e-4, 1e-3, 3e-3]
    pairs = escape_time(rc, p, config, deltas, eps, gr=gr)
    if any(t is None for _, t in pairs):
        return False, {"error": "censored escape", "pairs": pairs}
    fit = fit_escape(pairs)
    rel = abs(fit.rate - 1.0 / gr.Lambda) * gr.Lambda
    ok = rel <= 0.10 and fit.r_squared >= 0.99
    return ok, {"pairs": [[d, t] for d, t in pairs], "slope": fit.rate,
                "inverse_Lambda": 1.0 / gr.Lambda, "rel_err": rel,
                "r_squared": fit.r_squared, "eps": eps, "runtime_bound_s": 600.0}


def _energy_residual(dt: float) -> float:
    config = SlabConfig(g=1.0, mu=0.05, kappa=0.05, L=1.0, h=1.0)
    p = make_boundary_flat_profile(config, N=128, rho0=2.0, amp=1.0)
    rc = RunConfig(Nx=64, Ny=64, t_end=2.0, dt=dt, seed=11, output_every=1,
                   init=Init("random_smooth", delta=1e-2, cutoff=3))
    _, series = run(rc, p, config)
    t = np.array([r.t for r in series])
    total = np.array([r.kinetic + r.gravity_pe + r.capillary_pe for r in series])
    diss = np.array([r.viscous_diss for r in series])
    diss_int = float(np.trapezoid(diss, t))
    resid = abs(float(total[-1] - total[0]) + diss_int)
    scale = max(float(np.max(np.abs(total - total[0]))), diss_int)
    return resid / ((t[-1] - t[0]) * scale)


def _criterion_8():
    """Nonlinear energy balance on a boundary-flat profile."""
    coarse = _energy_residual(0.02)
    fine = _energy_residual(0.01)
    ok = fine <= 1e-4 and fine <= 0.65 * coarse
    return ok, {"residual_dt_0.02": coarse, "residual_dt_0.01": fine,
                "tolerance": 1e-4, "halving_bound": 0.65}


def _criterion_9():
    """Equilibrium exactness, mass conservation, per-step divergence."""
    config, p = _linear_setup(N=128)
    # zero perturbation must stay exactly zero
    rc0 = RunConfig(Nx=32, Ny=32, t_end=2.5, dt=0.05, init=Init("zero"))
    final0, _ = run(rc0, p, config)
    eq_max = max(float(np.max(np.abs(f))) for f in
                 (final0.rho_pert, final0.v1, final0.v2))
    # 1000 nonlinear steps: mass drift and per-step divergence
    rc = RunConfig(Nx=64, Ny=64, t_end=20.0, dt=0.02, seed=5, output_every=1,
                   init=Init("random_smooth", delta=1e-3))
    state0 = init_state(rc, p, config)
    grid = _workspace(rc, p, config).grid
    l1_rho0 = grid.integrate(np.abs(state0.rho_pert))
    _, series = run(rc, p, config)
    drift = abs(series[-1].mass_pert - series[0].mass_pert)
    steps = len(series) - 1
    drift_per_1000 = drift * 1000.0 / steps
    max_div = max(r.div_rel for r in series[1:])
    ok = (eq_max == 0.0 and drift_per_1000 <= 1e-10 * l1_rho0
          and max_div <= 1e-8)
    return ok, {"equilibrium_max": eq_max, "mass_drift_per_1000": drift_per_1000,
                "mass_tol": 1e-10 * l1_rho0, "max_div_rel": max_div,
                "steps": steps}


def _criterion_10():
    """Bounded time-weighted decay for a stable configuration."""
    config0, p = _linear_setup(g=10.0, mu=0.3)
    kc = compute_kappa_c(p, config0, N=256).kappa_c
    config = SlabConfig(g=10.0, mu=0.3, kappa=1.2 * kc, L=1.0, h=1.0)
    # dt keeps the explicit capillary phase speed well inside the RK3
    # imaginary-axis margin (omega*dt ~ 0.33)
    rc = RunConfig(Nx=64, Ny=64, t_end=50.0, dt=0.015, seed=3, output_every=50,
                   init=Init("random_smooth", delta=1e-3, cutoff=2))
    _, series = run(rc, p, config)
    weighted = [(1.0 + r.t) ** 3 * r.l2_v**2 for r in series]
    i_peak = int(np.argmax(weighted))
    t_peak = series[i_peak].t
    sup, tail_monotone = bounded_decay_check(series, 3.0)
    after = [r.l2_v for r in series if r.t >= 2.0]
    slack = 1e-9 * max(after)
    monotone = all(b <= a + slack for a, b in zip(after, after[1:]))
    ok = (np.isfinite(sup) and t_peak <= 45.0 and i_peak < len(series) - 1
          and monotone and tail_monotone)
    return ok, {"sup_t3_l2v2": sup, "t_peak": t_peak, "t_end": series[-1].t,
                "monotone_after_t2": monotone, "tail_monotone": tail_monotone}


CRITERIA = {
    1: ("threshold closed form + convergence order", _criterion_1, 1.0),
    2: ("optimal Poincare constant", _criterion_2, None),
    3: ("threshold comparison bound, randomized profiles", _criterion_3, 10.0),
    4: ("growth-rate fixed-point residual", _criterion_4, None),
    5: ("eigensolver vs simulation growth rate", _criterion_5, None),
    6: ("threshold sharpness by bisection on Lambda", _criterion_6, None),
    7: ("escape-time scaling in ln(1/delta)", _criterion_7, 600.0),
    8: ("nonlinear energy balance", _criterion_8, None),
    9: ("conservation and structure", _criterion_9, None),
    10: ("stability boundedness, weighted decay", _criterion_10, None),
}


def run_acceptance(criteria=None) -> Iterator[CriterionResult]:
    """Run the selected criteria (all by default), slowest tolerances pinned,
    yielding each result as soon as its criterion finishes."""
    for cid in sorted(criteria or CRITERIA):
        name, fn, time_bound = CRITERIA[cid]
        t0 = time.perf_counter()
        try:
            passed, details = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, details = False, {"exception": f"{type(exc).__name__}: {exc}"}
        elapsed = time.perf_counter() - t0
        if time_bound is not None and elapsed >= time_bound:
            passed = False
            details["runtime_exceeded_s"] = elapsed
        yield CriterionResult(cid=cid, name=name, passed=bool(passed),
                              runtime_s=elapsed, details=details)
