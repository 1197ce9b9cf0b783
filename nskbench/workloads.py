"""The four benchmark workloads: inputs from a seed, one set-up, one pass.

Each workload is a scaled-down form of the acceptance criteria that take
most of a user's time.  ``setup`` builds everything a pass needs and makes
one warm-up call, so the timed passes start with the package's caches
full.  ``run_pass`` does one fixed unit of work and checks every output;
it returns one ``(operation, error)`` pair per operation, where ``error`` is
``None`` for a correct result.  A raised ``NskError`` is a failed operation,
not a crash.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

import nskrt as nk

DEFAULT_SEED = 0
KAPPA_FRACS = (0.0, 0.25, 0.5, 0.75)
# Lambda for KAPPA_FRACS on the linear profile at N=256, frozen from the
# growth solver as it stands when this benchmark was added
FROZEN_LAMBDA = (0.21579879452474415, 0.1297024975065142,
                 0.06997987406793982, 0.02057612780481577)
JITTER = 0.03            # non-default seeds scale kappa fractions and deltas by 1 +- JITTER
N_EIG = 256              # vertical resolution of the eigensolvers
DT = 0.02
MASS_PER_1000_TOL = 1e-10  # criterion 9: mass drift per 1000 steps over l1(rho_pert(0))
DIV_TOL = 1e-8


def slab(kappa: float = 0.0) -> nk.SlabConfig:
    return nk.SlabConfig(g=1.0, mu=0.1, kappa=kappa, L=1.0, h=1.0)


def linear_profile() -> nk.DensityProfile:
    # a new object on every call: profiles hash by identity, so each set-up
    # gets its own simulator workspace instead of reusing the last one
    return nk.make_linear_profile(1.0, 1.0, slab(), N=N_EIG)


def kappa_c_closed_form(config: nk.SlabConfig, slope: float = 1.0) -> float:
    return config.g / ((math.pi**2 / config.h**2 + 1.0 / config.L**2) * slope)


def jitter(seed: int, n: int) -> np.ndarray:
    """Scale factors for a workload's inputs: exactly 1 at the default seed."""
    if seed == DEFAULT_SEED:
        return np.ones(n)
    return 1.0 + np.random.default_rng(seed).uniform(-JITTER, JITTER, n)


def checked(ops: list, name: str, fn):
    """Run one operation; a raised NskError or a failed check is recorded."""
    try:
        error = fn()
    except nk.NskError as exc:
        error = f"{type(exc).__name__}: {exc}"
    ops.append((name, error))


def finite_state(s) -> bool:
    return all(bool(np.all(np.isfinite(f))) for f in (s.rho_pert, s.v1, s.v2))


@dataclass
class Context:
    """What one set-up leaves for the timed passes."""

    profile: nk.DensityProfile
    kappa_c: float
    config: nk.SlabConfig | None = None            # simulation workloads only
    gr: nk.GrowthResult | None = None
    rc: nk.RunConfig | None = None
    growth_s: list = field(default_factory=list)   # compute_growth wall times
    modes_swept: int = 0                           # modes swept by compute_growth
    extra: dict = field(default_factory=dict)      # reference values for checks


class EigenSweep:
    """compute_kappa_c, then compute_growth for four kappa fractions."""

    name = "eigen_sweep"
    # one step of the sweep: a single eigensolve's latency is dominated by
    # two-thread BLAS synchronisation stalls, while a whole compute_growth
    # call averages them over about 150 eigensolves
    probe = ("growth", "compute_growth")

    def __init__(self, seed: int):
        self.seed = seed
        self.fracs = tuple(float(f * s) for f, s in zip(KAPPA_FRACS, jitter(seed, len(KAPPA_FRACS))))

    def setup(self) -> Context:
        p = linear_profile()
        kc = nk.compute_kappa_c(p, slab(), N=N_EIG).kappa_c
        ctx = Context(p, kc)
        t0 = time.perf_counter()
        nk.compute_growth(p, slab(self.fracs[0] * kc), N=N_EIG)   # warm-up
        ctx.growth_s.append(time.perf_counter() - t0)
        return ctx

    def run_pass(self, ctx: Context) -> list:
        ops: list = []
        base = slab()
        state = {}

        def threshold():
            res = nk.compute_kappa_c(ctx.profile, base, N=N_EIG)
            state["kc"] = res.kappa_c
            exact = kappa_c_closed_form(base)
            rel = abs(res.kappa_c - exact) / exact
            return None if rel <= 1e-3 else f"kappa_c {res.kappa_c!r} off closed form by {rel:.3g}"

        checked(ops, "compute_kappa_c", threshold)
        kc = state.get("kc", ctx.kappa_c)
        for i, frac in enumerate(self.fracs):
            def growth(i=i, frac=frac):
                t0 = time.perf_counter()
                gr = nk.compute_growth(ctx.profile, slab(frac * kc), N=N_EIG)
                ctx.growth_s.append(time.perf_counter() - t0)
                ctx.modes_swept += len(gr.per_mode)
                if not gr.Lambda > 0.0:
                    return f"no growing mode at kappa = {frac:.4g} kappa_c"
                tol = 1e-10 * max(1.0, gr.Lambda**2)
                if not gr.residual <= tol:
                    return f"fixed-point residual {gr.residual:.3g} > {tol:.3g}"
                if self.seed == DEFAULT_SEED:
                    rel = abs(gr.Lambda - FROZEN_LAMBDA[i]) / FROZEN_LAMBDA[i]
                    if not rel <= 1e-8:
                        return f"Lambda {gr.Lambda!r} moved {rel:.3g} from {FROZEN_LAMBDA[i]!r}"
                return None
            checked(ops, f"compute_growth[{frac:.4g}]", growth)
        return ops


class _Simulation:
    """Shared set-up of the simulation workloads: seed mode, warm-up step."""

    probe = ("simulator", "step")
    kappa_frac = 0.0

    def seeded(self) -> Context:
        p = linear_profile()
        kc = nk.compute_kappa_c(p, slab(), N=N_EIG).kappa_c
        ctx = Context(p, kc, config=slab(self.kappa_frac * kc))
        t0 = time.perf_counter()
        ctx.gr = nk.compute_growth(p, ctx.config, N=N_EIG)
        ctx.growth_s.append(time.perf_counter() - t0)
        return ctx

    @staticmethod
    def warm(rc: nk.RunConfig, ctx: Context):
        """One step on ``rc``: builds its workspace and banded factors."""
        s = nk.init_state(rc, ctx.profile, ctx.config, gr=ctx.gr)
        return nk.step(s, rc, ctx.profile, ctx.config)


class LinearRun(_Simulation):
    """Linearized 128^2 run from the eigenfunction, every step recorded."""

    name = "linear_run"
    t_end = 3.0

    def __init__(self, seed: int):
        frac_scale, delta_scale = jitter(seed, 2)
        self.kappa_frac = float(0.5 * frac_scale)
        self.delta = float(1e-6 * delta_scale)

    def setup(self) -> Context:
        ctx = self.seeded()
        ctx.rc = nk.RunConfig(Nx=128, Ny=128, t_end=self.t_end, dt=DT, linearized=True,
                              init=nk.Init("eigenfunction", delta=self.delta), output_every=1)
        nk.record(self.warm(ctx.rc, ctx), ctx.profile, ctx.config)
        return ctx

    def run_pass(self, ctx: Context) -> list:
        ops: list = []
        lam = ctx.gr.Lambda

        def simulate():
            _, series = nk.run(ctx.rc, ctx.profile, ctx.config, gr=ctx.gr)
            fit = nk.fit_growth(series, ("time", 0.5 * self.t_end, self.t_end))
            rel = abs(fit.rate - lam) / lam
            if not rel <= 0.02:
                return f"fitted rate {fit.rate:.6g} off Lambda {lam:.6g} by {rel:.3g}"
            div = max(r.div_rel for r in series[1:])
            if not div <= DIV_TOL:
                return f"max div_rel {div:.3g} > {DIV_TOL:g}"
            return None

        checked(ops, "run", simulate)
        return ops


class NonlinearRun(_Simulation):
    """Nonlinear 128^2 run from an O(0.1) eigenfunction seed."""

    name = "nonlinear_run"
    steps = 10

    def __init__(self, seed: int):
        self.delta = float(0.1 * jitter(seed, 1)[0])

    def setup(self) -> Context:
        ctx = self.seeded()
        ctx.rc = rc = nk.RunConfig(Nx=128, Ny=128, t_end=self.steps * DT, dt=DT,
                                   init=nk.Init("eigenfunction", delta=self.delta),
                                   output_every=10)
        s0 = nk.init_state(rc, ctx.profile, ctx.config, gr=ctx.gr)
        grid = nk.operators.Grid(rc.Nx, rc.Ny, ctx.config.L, ctx.config.h)
        ctx.extra["l1_rho0"] = grid.integrate(np.abs(s0.rho_pert))
        self.warm(rc, ctx)
        return ctx

    def run_pass(self, ctx: Context) -> list:
        ops: list = []
        l1_rho0 = ctx.extra["l1_rho0"]

        def simulate():
            final, series = nk.run(ctx.rc, ctx.profile, ctx.config, gr=ctx.gr)
            # step() lets NaN through silently, so finiteness is tested here
            if not finite_state(final):
                return "final state is not finite"
            div = max(r.div_rel for r in series[1:])
            if not div <= DIV_TOL:
                return f"max div_rel {div:.3g} > {DIV_TOL:g}"
            steps = final.step_index
            drift = abs(series[-1].mass_pert - series[0].mass_pert) * 1000.0 / steps
            if not drift <= MASS_PER_1000_TOL * l1_rho0:
                return f"mass drift {drift:.3g} per 1000 steps > {MASS_PER_1000_TOL * l1_rho0:.3g}"
            return None

        checked(ops, "run", simulate)
        return ops


class EscapeScan(_Simulation):
    """escape_time at 64^2 for two seed amplitudes, epsilon as in criterion 7."""

    name = "escape_scan"
    n = 64

    def __init__(self, seed: int):
        self.deltas = tuple(float(d * s) for d, s in zip((3e-3, 1e-2), jitter(seed, 2)))

    def setup(self) -> Context:
        ctx = self.seeded()
        config, gr = ctx.config, ctx.gr
        ctx.rc = rc = nk.RunConfig(Nx=self.n, Ny=self.n, t_end=60.0, dt=DT,
                                   init=nk.Init("eigenfunction", delta=1e-4))
        # criterion 7: escape when the L1 speed reaches 0.02 per unit of
        # peak-speed amplitude, measured on a delta = 1e-3 probe state
        probe_rc = nk.RunConfig(Nx=self.n, Ny=self.n, t_end=1.0, dt=DT,
                                init=nk.Init("eigenfunction", delta=1e-3))
        probe = nk.init_state(probe_rc, ctx.profile, config, gr=gr)
        grid = nk.operators.Grid(self.n, self.n, config.L, config.h)
        ctx.extra["eps"] = 0.02 * grid.integrate(np.sqrt(probe.v1**2 + probe.v2**2)) / 1e-3
        # escape_time runs each delta on its own run config; warm each one
        for d in self.deltas:
            self.warm(replace(rc, init=replace(rc.init, delta=d)), ctx)
        return ctx

    def run_pass(self, ctx: Context) -> list:
        ops: list = []
        lam = ctx.gr.Lambda

        def scan():
            pairs = nk.escape_time(ctx.rc, ctx.profile, ctx.config, self.deltas,
                                   ctx.extra["eps"], gr=ctx.gr)
            censored = [d for d, t in pairs if t is None]
            if censored:
                return f"escape censored for delta {censored}"
            x = np.log([1.0 / d for d, _ in pairs])
            y = np.array([t for _, t in pairs])
            slope = float(np.polyfit(x, y, 1)[0])
            rel = abs(slope * lam - 1.0)
            if not rel <= 0.10:
                return f"escape slope {slope:.6g} off 1/Lambda {1.0 / lam:.6g} by {rel:.3g}"
            return None

        checked(ops, "escape_time", scan)
        return ops


WORKLOADS = {w.name: w for w in (EigenSweep, LinearRun, NonlinearRun, EscapeScan)}
