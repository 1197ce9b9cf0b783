import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import nskrt.diagnostics
import nskrt.simulator
from nskrt import (CflError, ConfigError, DensityProfile, SimulationError, SlabConfig,
                   VacuumError, compute_growth, compute_kappa_c, make_linear_profile,
                   random_stabilizing_profile)
from nskrt.diagnostics import fit_growth, record
from nskrt.operators import Grid
from nskrt.simulator import (FieldState, Init, RunConfig, _cn_factor, _fields, _imex,
                             _pcg, _projection_solve, _TriFactor, _var_poisson,
                             _viscous_half, _workspace, escape_time, init_state,
                             make_state, read_checkpoint, run, solver_iterations, step,
                             suggest_dt, write_checkpoint)

from conftest import REFERENCE_KAPPA_C


def _zero_rc(**kw):
    base = dict(Nx=32, Ny=32, t_end=1.0, dt=0.05, init=Init("zero"))
    base.update(kw)
    return RunConfig(**base)


def _random_modes(ws, seed):
    """Random complex rfft coefficients with modes 0 and Nyquist zeroed."""
    g = ws.grid
    rng = np.random.default_rng(seed)
    shape = (g.xi.shape[0], g.Ny + 1)
    r = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    r[0] = 0.0
    r[-1] = 0.0
    return r


# Ny = 32 gives even and odd node chains of unequal length, Ny = 33 equal ones
@pytest.mark.parametrize("Ny", [32, 33])
def test_projection_solve_inverts_wide_operator(Ny, slab, linear_profile):
    ws = _workspace(_zero_rc(Ny=Ny), linear_profile, slab)
    g, c0 = ws.grid, ws.c_base
    r_hat = _random_modes(ws, Ny)
    phi = g.irfft(_projection_solve(r_hat, ws))
    rhs = g.irfft(r_hat)
    back = g.dx1(c0 * g.dx1(phi)) + g.dy(c0 * g.dy(phi, +1), -1)
    assert np.max(np.abs(back - rhs)) <= 1e-10 * np.max(np.abs(rhs))
    # Grid.dx1 has no Nyquist derivative: those rows take (2 pi / h)^2 for xi^2
    rng = np.random.default_rng(Ny)
    r_nyq = np.zeros_like(r_hat)
    r_nyq[-1] = rng.standard_normal(Ny + 1) + 1j * rng.standard_normal(Ny + 1)
    phi_nyq = _projection_solve(r_nyq, ws)[-1]
    back = (g.dy(c0[0] * g.dy(phi_nyq, +1), -1)
            - (2.0 * np.pi / g.h)**2 * c0[0] * phi_nyq)
    assert np.max(np.abs(back - r_nyq[-1])) <= 1e-10 * np.max(np.abs(r_nyq[-1]))


@pytest.mark.parametrize("Ny", [32, 33])
def test_cn_solve_pair_solves_mirror_and_dirichlet_rows(Ny, slab, linear_profile):
    ws = _workspace(_zero_rc(Ny=Ny), linear_profile, slab)
    g, dt = ws.grid, 0.05
    rhs1, rhs2 = _random_modes(ws, 1), _random_modes(ws, 2)
    rhs2[:, [0, -1]] = 0.0                      # the Dirichlet rows of v2
    sol = _cn_factor(ws, dt).solve(np.stack([rhs1, rhs2], axis=1))
    v1, v2 = sol[:, 0], sol[:, 1]
    a = 0.5 * dt * ws.nu_base
    lhs1 = v1 - a * (g.d2y(v1, +1) - g.xi**2 * v1)
    lhs2 = v2 - a * (g.d2y(v2, -1) - g.xi**2 * v2)
    scale = max(np.max(np.abs(rhs1)), np.max(np.abs(rhs2)))
    assert np.max(np.abs(lhs1 - rhs1)) <= 1e-12 * scale
    assert np.max(np.abs(lhs2 - rhs2)[:, 1:-1]) <= 1e-12 * scale
    assert np.max(np.abs(v2[:, [0, -1]])) <= 1e-12 * scale


def test_singular_tridiagonal_factor_raises():
    zero, one = np.zeros((2, 5)), np.ones((2, 5))
    with pytest.raises(SimulationError, match="not positive definite"):
        _TriFactor(zero, zero, one)                 # singular
    with pytest.raises(SimulationError, match="not positive definite"):
        _TriFactor(one, 0.1 * one, -one)            # weighted form negative definite


def _spd_system(n=12, seed=0):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((n, n))
    return q @ q.T + n * np.eye(n), rng.standard_normal(n)


def test_pcg_zero_residual_returns_exact_zeros():
    a, _ = _spd_system()
    x, r, n = _pcg(np.zeros(12), np.zeros(12), lambda p: a @ p, lambda r: r, np.dot,
                   0.0, 60, "unused")
    assert n == 0 and np.all(x == 0.0) and np.all(r == 0.0)
    x, _, n = _pcg(np.zeros(12), np.zeros(12), lambda p: a @ p, lambda r: r, np.dot,
                   0.0, 60, "unused", test_update=True)
    assert n == 0 and np.all(x == 0.0)
    # a tolerance no residual meets: the r.z = 0 guard stops before 0/0
    x, _, n = _pcg(np.zeros(12), np.zeros(12), lambda p: a @ p, lambda r: r, np.dot,
                   -1.0, 60, "unused")
    assert n == 0 and np.all(x == 0.0)


def test_pcg_solves_spd_system():
    a, b = _spd_system()
    x, r, n = _pcg(np.zeros(12), b.copy(), lambda p: a @ p, lambda r: r / np.diag(a),
                   np.dot, 1e-12, 60, "unused")
    assert n <= 12
    assert np.max(np.abs(a @ x - b)) <= 1e-12
    assert np.allclose(r, b - a @ x, atol=1e-12)


@pytest.mark.parametrize("bad", ["indefinite", "nan"])
def test_pcg_breakdown_raises(bad):
    a, b = _spd_system()
    apply_a = (lambda p: -(a @ p)) if bad == "indefinite" else (lambda p: np.full_like(p, np.nan))
    with pytest.raises(SimulationError, match="breakdown"):
        _pcg(np.zeros(12), b, apply_a, lambda r: r, np.dot, 1e-12, 60, "unused")


def test_pcg_iteration_cap_raises():
    a, b = _spd_system()
    with pytest.raises(SimulationError, match="failed to reach tolerance 1e-12 in 2 iterations"):
        _pcg(np.zeros(12), b, lambda p: a @ p, lambda r: r, np.dot, 1e-12, 2,
             "test solve failed to reach tolerance 1e-12 in 2 iterations")


def test_solve_cap_keeps_message_shape(slab, linear_profile, monkeypatch):
    # an unreachable tolerance exhausts the projection's 60 iterations
    monkeypatch.setattr(nskrt.simulator, "PROJECTION_TOL", 1e-30)
    rc = _zero_rc(init=Init("random_smooth", delta=0.1), seed=3)
    with pytest.raises(SimulationError,
                       match=r"projection solve failed to reach tolerance \S+ in 60 iterations"):
        init_state(rc, linear_profile, slab)


def test_viscous_cap_keeps_message_shape(slab, linear_profile, monkeypatch):
    # the recurrence residual falls far below rounding, so only a zero
    # tolerance keeps the update test from passing within 40 iterations
    monkeypatch.setattr(nskrt.simulator, "PROJECTION_TOL", 0.0)
    rc = _zero_rc()
    ws = _workspace(rc, linear_profile, slab)
    rng = np.random.default_rng(4)
    v1, v2 = rng.standard_normal((2, 32, 33))
    v2[:, [0, -1]] = 0.0
    rho_p = 0.3 * ws.rho_b * np.cos(ws.grid.x).reshape(-1, 1)
    with pytest.raises(SimulationError,
                       match=r"implicit viscous solve failed to reach \S+ in 40 iterations"):
        _viscous_half(FieldState(0.0, rho_p, v1, v2), 0.01, ws, rc, project=False)


def _strong_contrast(Nx, Ny, slab, linear_profile):
    """A nonlinear workspace and a density with rho/rho_bar spanning 0.3-1.7."""
    rc = _zero_rc(Nx=Nx, Ny=Ny, dt=0.01)
    ws = _workspace(rc, linear_profile, slab)
    g = ws.grid
    shape = np.sin(g.x).reshape(-1, 1) * np.cos(np.pi * g.y).reshape(1, -1)
    rho_p = 0.7 * ws.rho_b * shape
    ratio = (ws.rho_b + rho_p) / ws.rho_b
    assert ratio.min() <= 0.3 + 1e-12 and ratio.max() >= 1.7 - 1e-12
    return rc, ws, rho_p


def test_projection_converges_at_strong_contrast(slab, linear_profile):
    rc, ws, rho_p = _strong_contrast(64, 64, slab, linear_profile)
    g = ws.grid
    rng = np.random.default_rng(5)
    v1, v2 = rng.standard_normal((2, 64, 65))
    v2[:, [0, -1]] = 0.0                        # a divergence of a field with v2 = 0 on the walls
    rhs = g.dx1(v1) + g.dy(v2, -1)
    rhs -= np.mean(rhs, axis=0, keepdims=True)
    c = 1.0 / (ws.rho_b + rho_p)
    ws.iterations = {"projection": 0, "viscous": 0}
    scale = float(np.max(np.abs(rhs)))
    phi, fx, fy = _var_poisson(rhs, c, ws, rc, scale, "projection")
    assert ws.iterations["projection"] <= 40
    assert np.array_equal(fx, c * g.dx1(phi)) and np.array_equal(fy, c * g.dy(phi, +1))
    resid = g.dx1(fx) + g.dy(fy, -1) - rhs
    resid -= np.mean(resid, axis=0, keepdims=True)
    assert np.max(np.abs(resid)) <= nskrt.simulator.PROJECTION_TOL * scale


def test_direct_projection_returns_its_fluxes(slab, linear_profile):
    rc = _zero_rc(linearized=True)
    ws = _workspace(rc, linear_profile, slab)
    g, c0 = ws.grid, ws.c_base
    rhs = g.irfft(_random_modes(ws, 7))
    phi, fx, fy = _var_poisson(rhs, c0, ws, rc, 1.0, "projection")
    assert np.array_equal(fx, c0 * g.dx1(phi)) and np.array_equal(fy, c0 * g.dy(phi, +1))


def test_projection_scale_is_taken_by_conjugate_gradients_only(slab, linear_profile):
    # the direct solve never reads its reference scale; the PCG path reads it once
    calls = []

    def scale():
        calls.append(1)
        return 1.0

    rc = _zero_rc(linearized=True)
    ws = _workspace(rc, linear_profile, slab)
    _var_poisson(ws.grid.irfft(_random_modes(ws, 7)), ws.c_base, ws, rc, scale, "projection")
    assert calls == []
    rc, ws, rho_p = _strong_contrast(32, 32, slab, linear_profile)
    ws.iterations = {"projection": 0, "viscous": 0}
    rhs = ws.grid.dx1(np.random.default_rng(8).standard_normal((32, 33)))
    _var_poisson(rhs, 1.0 / (ws.rho_b + rho_p), ws, rc, scale, "projection")
    assert calls == [1]


def test_viscous_solve_converges_at_strong_contrast(slab, linear_profile):
    rc, ws, rho_p = _strong_contrast(64, 64, slab, linear_profile)
    g = ws.grid
    rng = np.random.default_rng(6)
    v1, v2 = rng.standard_normal((2, 64, 65))
    v2[:, [0, -1]] = 0.0
    half = 0.005
    ws.iterations = {"projection": 0, "viscous": 0}
    out = _viscous_half(FieldState(0.0, rho_p, v1, v2), half, ws, rc, project=False)
    assert ws.iterations["viscous"] < 40
    # v1's Crank-Nicolson equation, times rho: rho v - (half/2) mu lap v
    rho, amu = ws.rho_b + rho_p, 0.5 * half * slab.mu

    def lap(f):
        return g.d2y(f, +1) - g.irfft(g.xi**2 * g.rfft(f))

    resid = rho * out.v1 - amu * lap(out.v1) - (rho * v1 + amu * lap(v1))
    assert np.max(np.abs(resid)) <= 1e-8 * np.max(np.abs(rho * v1))


@pytest.mark.parametrize("Nx, dt, kappa_frac, delta", [
    (32, 0.02, None, 0.05),     # Nyquist stall of the deferred-correction projection
    (64, 0.01, 0.25, 0.1),      # density contrast 0.4-1.6 at kappa > 0
    (64, 0.01, 0.0, 0.2),
])
def test_strong_seeds_run_twenty_steps(Nx, dt, kappa_frac, delta, linear_profile):
    # the parent's deferred-correction sweeps raised SimulationError here
    base = SlabConfig(g=1.0, mu=0.1, kappa=0.0, L=1.0, h=1.0)
    kappa = 0.03 if kappa_frac is None else \
        kappa_frac * compute_kappa_c(linear_profile, base, N=128).kappa_c
    config = SlabConfig(g=1.0, mu=0.1, kappa=kappa, L=1.0, h=1.0)
    gr = compute_growth(linear_profile, config, N=128)
    rc = RunConfig(Nx=Nx, Ny=Nx, t_end=20 * dt, dt=dt, output_every=20,
                   init=Init("eigenfunction", delta=delta))
    final, series = run(rc, linear_profile, config, gr=gr)
    assert final.step_index == 20
    assert max(r.div_rel for r in series) <= 1e-8
    its = solver_iterations(rc, linear_profile, config)
    assert its["projection_iterations_per_step"]["max"] <= 5 * 24
    assert its["viscous_iterations_per_step"]["max"] <= 2 * 24


def test_equilibrium_is_exact_fixed_point(slab, linear_profile):
    rc = _zero_rc()
    s = init_state(rc, linear_profile, slab)
    for _ in range(25):
        s = step(s, rc, linear_profile, slab)
    assert np.max(np.abs(s.rho_pert)) == 0.0
    assert np.max(np.abs(s.v1)) == 0.0
    assert np.max(np.abs(s.v2)) == 0.0


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 0.05), st.booleans())
def test_zero_state_is_exact_fixed_point_on_random_profiles(seed, kappa, linearized):
    config = SlabConfig(g=1.0, mu=0.1, kappa=kappa, L=1.0, h=1.0)
    p = random_stabilizing_profile(config, 64, np.random.default_rng(seed))
    rc = _zero_rc(linearized=linearized, dt=0.02)
    s = init_state(rc, p, config)
    for _ in range(25):
        s = step(s, rc, p, config)
    for name in ("rho_pert", "v1", "v2") + (("s2",) if linearized else ()):
        assert np.all(getattr(s, name) == 0.0), name


@pytest.mark.parametrize("Ny", [32, 33])
def test_linearized_step_on_rfft_coefficients_matches_physical(Ny):
    # the modes decouple in linearized runs: one step on the physical
    # workspace and one on its Fourier view agree to rounding, also with
    # mode-0 and Nyquist content in rho_pert and a random s2
    config = SlabConfig(g=1.0, mu=0.1, kappa=0.5 * REFERENCE_KAPPA_C, L=1.0, h=1.0)
    p = make_linear_profile(1.0, 1.0, config, N=128)
    rc = _zero_rc(Ny=Ny, dt=0.02, linearized=True, init=Init("random_smooth", delta=1e-3))
    s = init_state(rc, p, config)
    rng = np.random.default_rng(Ny)
    nyquist = (-1.0)**np.arange(rc.Nx)[:, None] * rng.standard_normal(Ny + 1)
    s.rho_pert = s.rho_pert + 1e-4 * (rng.standard_normal(s.rho_pert.shape)
                                      + rng.standard_normal(Ny + 1) + nyquist)
    s.s2 = 1e-3 * rng.standard_normal(s.rho_pert.shape)
    ws = _workspace(rc, p, config)
    physical = _imex(s, rc.dt, ws, rc, config)
    fourier = _fields(_imex(_fields(s, ws.grid.rfft), rc.dt, ws.fourier, rc, config),
                      ws.grid.irfft)
    for name in ("rho_pert", "v1", "v2", "s2"):
        a, b = getattr(physical, name), getattr(fourier, name)
        assert np.max(np.abs(b - a)) <= 1e-12 * np.max(np.abs(a)), name


def test_fourier_view_shares_the_iteration_counts(slab, linear_profile):
    # the Fourier view is a shallow copy of the workspace: the counts of a
    # step must be reset in place, or the view keeps a stale dict
    rc = _zero_rc(linearized=True, init=Init("random_smooth", delta=1e-3))
    ws = _workspace(rc, linear_profile, slab)
    step(init_state(rc, linear_profile, slab), rc, linear_profile, slab)
    assert ws.fourier.iterations is ws.iterations
    nonlinear = replace(rc, linearized=False)
    step(init_state(nonlinear, linear_profile, slab), nonlinear, linear_profile, slab)
    assert ws.fourier.iterations is ws.iterations
    assert ws.per_step[-1]["projection"] > 0


def test_linearized_step_makes_eight_transforms(slab, linear_profile, monkeypatch):
    rc = _zero_rc(linearized=True, init=Init("random_smooth", delta=1e-3))
    s = init_state(rc, linear_profile, slab)
    calls = []
    for name in ("rfft", "irfft"):
        def counted(self, f, _name=name, _original=getattr(Grid, name)):
            calls.append(_name)
            return _original(self, f)
        monkeypatch.setattr(Grid, name, counted)
    step(s, rc, linear_profile, slab)
    assert (calls.count("rfft"), calls.count("irfft")) == (4, 4)


def test_delta_zero_init_is_zero_state(slab, linear_profile):
    rc = _zero_rc(init=Init("random_smooth", delta=0.0))
    s = init_state(rc, linear_profile, slab)
    assert np.max(np.abs(s.v1)) == 0.0 and np.max(np.abs(s.rho_pert)) == 0.0


def test_projection_divergence_after_random_init(slab, linear_profile):
    rc = _zero_rc(Nx=64, Ny=64, init=Init("random_smooth", delta=1e-3), seed=7)
    s = init_state(rc, linear_profile, slab)
    r = record(s, linear_profile, slab)
    assert r.div_rel <= 1e-10
    assert np.all(s.v2[:, 0] == 0.0) and np.all(s.v2[:, -1] == 0.0)


def test_divergence_and_walls_every_step(slab, linear_profile):
    rc = _zero_rc(Nx=32, Ny=32, dt=0.02, init=Init("random_smooth", delta=1e-3), seed=1)
    s = init_state(rc, linear_profile, slab)
    for _ in range(20):
        s = step(s, rc, linear_profile, slab)
        r = record(s, linear_profile, slab)
        assert r.div_rel <= 1e-8
        assert np.all(s.v2[:, 0] == 0.0) and np.all(s.v2[:, -1] == 0.0)


def test_mass_conserved_per_step(slab, linear_profile):
    rc = _zero_rc(Nx=32, Ny=32, dt=0.02, init=Init("random_smooth", delta=1e-3), seed=2)
    s = init_state(rc, linear_profile, slab)
    m0 = record(s, linear_profile, slab).mass_pert
    for _ in range(50):
        s = step(s, rc, linear_profile, slab)
    m1 = record(s, linear_profile, slab).mass_pert
    assert abs(m1 - m0) <= 1e-14


def test_single_mode_stable_decay(linear_profile):
    # kappa above threshold, linearized: after the fast transient (and one
    # slow rebound as the density relaxes) the norm decays monotonically
    config0 = SlabConfig(g=10.0, mu=0.3, kappa=0.0, L=1.0, h=1.0)
    kc = compute_kappa_c(linear_profile, config0, N=128).kappa_c
    config = SlabConfig(g=10.0, mu=0.3, kappa=1.3 * kc, L=1.0, h=1.0)
    rc = RunConfig(Nx=32, Ny=32, t_end=10.0, dt=0.015, linearized=True,
                   output_every=10, seed=4,
                   init=Init("random_smooth", delta=1e-3, cutoff=1))
    _, series = run(rc, linear_profile, config)
    tail = [r.l2_v for r in series if r.t >= 4.0]
    assert len(tail) > 10
    assert all(b <= a * (1.0 + 1e-9) for a, b in zip(tail, tail[1:]))
    assert series[-1].l2_v < 0.1 * series[0].l2_v


def test_vacuum_error_for_large_delta(slab, linear_profile):
    gr = compute_growth(linear_profile, slab, N=96)
    rc = _zero_rc(init=Init("eigenfunction", delta=5.0))
    with pytest.raises(VacuumError):
        init_state(rc, linear_profile, slab, gr=gr)


def test_cfl_error_on_oversized_fixed_dt(linear_profile):
    config = SlabConfig(g=10.0, mu=0.05, kappa=1.0, L=1.0, h=1.0)
    rc = _zero_rc(Nx=64, Ny=64, dt=0.5, linearized=True,
                  init=Init("random_smooth", delta=1e-3), seed=3)
    s = init_state(rc, linear_profile, config)
    with pytest.raises(CflError):
        for _ in range(10):
            s = step(s, rc, linear_profile, config)


def test_make_state_validates_shapes(slab, linear_profile):
    rc = _zero_rc()
    good = np.zeros((32, 33))
    with pytest.raises(ConfigError):
        make_state(rc, linear_profile, slab, np.zeros((32, 32)), good, good)


def test_checkpoint_roundtrip(tmp_path, slab, linear_profile):
    rc = _zero_rc(init=Init("random_smooth", delta=1e-3), seed=11)
    s = init_state(rc, linear_profile, slab)
    s.t, s.step_index = 1.75, 35
    path = tmp_path / "state.bin"
    write_checkpoint(s, path)
    raw = path.read_bytes()
    assert raw.startswith(b"nsk-ckpt v2\n")
    assert len(raw) == len(b"nsk-ckpt v2\n") + 8 * (2 + 3 * 32 * 33)
    q = read_checkpoint(path, rc)
    assert q.t == 1.75 and q.step_index == 35 and q.s2 is None
    assert np.array_equal(q.rho_pert, s.rho_pert)
    assert np.array_equal(q.v1, s.v1)
    assert np.array_equal(q.v2, s.v2)


def test_checkpoint_keeps_s2_of_linearized_runs(tmp_path, slab, linear_profile):
    rc = _zero_rc(init=Init("random_smooth", delta=1e-3), seed=11, linearized=True)
    s = step(init_state(rc, linear_profile, slab), rc, linear_profile, slab)
    s.s2 = s.s2 + 0.25                         # not recoverable from rho_pert
    path = tmp_path / "state.bin"
    write_checkpoint(s, path)
    assert len(path.read_bytes()) == len(b"nsk-ckpt v2\n") + 8 * (2 + 4 * 32 * 33)
    q = read_checkpoint(path, rc)
    assert q.step_index == 1 and np.array_equal(q.s2, s.s2)
    assert np.array_equal(init_state(replace(rc, init=Init("file", path=str(path))),
                                     linear_profile, slab).s2, s.s2)
    # a nonlinear restart carries no s2
    assert init_state(replace(rc, linearized=False, init=Init("file", path=str(path))),
                      linear_profile, slab).s2 is None


def test_linearized_restart_from_nonlinear_checkpoint_rebuilds_s2(tmp_path, slab,
                                                                   linear_profile):
    rc = _zero_rc(init=Init("random_smooth", delta=1e-3), seed=11)
    s = step(init_state(rc, linear_profile, slab), rc, linear_profile, slab)
    path = tmp_path / "state.bin"
    write_checkpoint(s, path)                  # a nonlinear run's checkpoint has no s2
    assert read_checkpoint(path, rc).s2 is None
    # a linearized restart rebuilds s2 from the transport relation
    lin = replace(rc, linearized=True, init=Init("file", path=str(path)))
    q = init_state(lin, linear_profile, slab)
    assert q.step_index == 1 and np.array_equal(q.rho_pert, s.rho_pert)
    assert np.array_equal(q.s2, -s.rho_pert / linear_profile.resample(32).d1)


@pytest.mark.parametrize("linearized", [False, True])
def test_restart_keeps_output_cadence(tmp_path, linearized, slab, linear_profile):
    # stop after step 5 and restart: the records, the checkpoint names and
    # the final state are those of the uninterrupted run
    rc = _zero_rc(dt=0.02, t_end=15 * 0.02, output_every=4, checkpoint_every=5,
                  init=Init("random_smooth", delta=1e-3), seed=9, linearized=linearized)
    ref_dir, re_dir = tmp_path / "ref", tmp_path / "re"
    ref_dir.mkdir(), re_dir.mkdir()
    ref, ref_records = run(replace(rc, checkpoint_dir=str(ref_dir)), linear_profile, slab)
    resumed = replace(rc, checkpoint_dir=str(re_dir),
                      init=Init("file", path=str(ref_dir / "ckpt_00000005.bin")))
    final, records = run(resumed, linear_profile, slab)
    t5 = records[0].t
    assert [r.t for r in records] == [t5] + [r.t for r in ref_records if r.t > t5]
    assert sorted(p.name for p in re_dir.iterdir()) == ["ckpt_00000010.bin",
                                                        "ckpt_00000015.bin"]
    assert final.step_index == ref.step_index == 15
    for name in ("rho_pert", "v1", "v2") + (("s2",) if linearized else ()):
        assert np.array_equal(getattr(final, name), getattr(ref, name))


def test_checkpoint_header_and_size_validation(tmp_path, slab):
    rc = _zero_rc()
    bad = tmp_path / "bad.bin"
    # the v1 format (no step index, no s2) is no longer read
    for raw in (b"not a checkpoint", b"nsk-ckpt v1\n" + b"\0" * 8 * (1 + 3 * 32 * 33)):
        bad.write_bytes(raw)
        with pytest.raises(ConfigError, match="bad header"):
            read_checkpoint(bad, rc)
    short = tmp_path / "short.bin"
    short.write_bytes(b"nsk-ckpt v2\n" + b"\0" * 160)
    with pytest.raises(ConfigError, match="expected"):
        read_checkpoint(short, rc)


def test_checkpoint_rejects_non_finite_values(tmp_path, slab, linear_profile):
    rc = _zero_rc(init=Init("random_smooth", delta=1e-3), seed=11)
    path = tmp_path / "state.bin"
    write_checkpoint(init_state(rc, linear_profile, slab), path)
    good = path.read_bytes()
    header = len(b"nsk-ckpt v2\n") + 8        # and the step index
    for index, value in ((0, math.inf), (1 + 32 * 33 + 40, math.nan)):   # t, then v1
        raw = bytearray(good)
        raw[header + 8 * index: header + 8 * index + 8] = np.array([value], "<f8").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(ConfigError, match="non-finite"):
            read_checkpoint(path, rc)


def test_restart_bitwise_identical(tmp_path, slab, linear_profile):
    rc = _zero_rc(Nx=32, Ny=32, dt=0.02, init=Init("random_smooth", delta=1e-3), seed=9)
    ref = init_state(rc, linear_profile, slab)
    for _ in range(15):
        ref = step(ref, rc, linear_profile, slab)
    mid = init_state(rc, linear_profile, slab)
    for _ in range(10):
        mid = step(mid, rc, linear_profile, slab)
    path = tmp_path / "mid.bin"
    write_checkpoint(mid, path)
    resumed = read_checkpoint(path, rc)
    for _ in range(5):
        resumed = step(resumed, rc, linear_profile, slab)
    assert np.array_equal(ref.v1, resumed.v1)
    assert np.array_equal(ref.v2, resumed.v2)
    assert np.array_equal(ref.rho_pert, resumed.rho_pert)


def test_run_is_deterministic(slab, linear_profile):
    rc = _zero_rc(Nx=32, Ny=32, dt=0.02, t_end=0.4,
                  init=Init("random_smooth", delta=1e-3), seed=21, output_every=5)
    _, s1 = run(rc, linear_profile, slab)
    _, s2 = run(rc, linear_profile, slab)
    assert [r.l2_v for r in s1] == [r.l2_v for r in s2]
    assert [r.epot for r in s1] == [r.epot for r in s2]


def test_growth_rate_dt_refinement(slab, linear_profile):
    # halving dt moves the fitted linear-regime rate by < 0.5%
    gr = compute_growth(linear_profile, slab, N=128)
    rates = []
    for dt in (0.04, 0.02):
        rc = RunConfig(Nx=64, Ny=64, t_end=12.0, dt=dt, linearized=True,
                       init=Init("eigenfunction", delta=1e-6), output_every=5)
        _, series = run(rc, linear_profile, slab, gr=gr)
        rates.append(fit_growth(series, ("time", 2.0, 12.0)).rate)
    assert abs(rates[1] - rates[0]) / abs(rates[1]) < 0.005


def test_capillary_growth_rate_matches_lambda(slab, linear_profile):
    # the one-sided wall closure of the capillary stress imposes no wall
    # condition on rho, so the 64^2 rate tracks the variational rate to 1%
    kc = compute_kappa_c(linear_profile, slab, N=128).kappa_c
    config = SlabConfig(g=1.0, mu=0.1, kappa=0.5 * kc, L=1.0, h=1.0)
    gr = compute_growth(linear_profile, config, N=256)
    rc = RunConfig(Nx=64, Ny=64, t_end=20.0, dt=0.02, linearized=True,
                   init=Init("eigenfunction", delta=1e-6), output_every=10)
    _, series = run(rc, linear_profile, config, gr=gr)
    rate = fit_growth(series, ("time", 4.0, 20.0)).rate
    assert abs(rate - gr.Lambda) / gr.Lambda < 0.01


def test_escape_time_trivial_cases(slab, linear_profile):
    gr = compute_growth(linear_profile, slab, N=96)
    rc = RunConfig(Nx=32, Ny=32, t_end=2.0, dt=0.02,
                   init=Init("eigenfunction", delta=1e-3))
    # eps below the initial amplitude: escaped at t = 0
    res = escape_time(rc, linear_profile, slab, [1e-3], 1e-9, gr=gr)
    assert res == [(1e-3, 0.0)]
    # eps far above anything reachable by t_end: censored
    res = escape_time(rc, linear_profile, slab, [1e-3], 1e3, gr=gr)
    assert res == [(1e-3, None)]


@pytest.mark.parametrize("dt", [pytest.param(0.02, id="fixed"),
                                pytest.param(None, id="adaptive")])
def test_escape_time_matches_run_records(dt, slab, linear_profile, monkeypatch):
    # escape_time and run share one time loop: its crossing is the
    # log-interpolated crossing of run's every-step l1_v records
    gr = compute_growth(linear_profile, slab, N=96)
    rc = RunConfig(Nx=32, Ny=32, t_end=3.0, dt=dt, output_every=1,
                   init=Init("eigenfunction", delta=1e-3))
    _, series = run(rc, linear_profile, slab, gr=gr)
    eps = 1.3 * series[0].l1_v
    i = next(i for i, r in enumerate(series) if r.l1_v >= eps)
    lo, hi = series[i - 1], series[i]
    frac = (math.log(eps) - math.log(lo.l1_v)) / (math.log(hi.l1_v) - math.log(lo.l1_v))
    expected = lo.t + frac * (hi.t - lo.t)

    def no_record(*args, **kwargs):
        raise AssertionError("escape_time took a record() snapshot")

    monkeypatch.setattr(nskrt.diagnostics, "record", no_record)
    assert escape_time(rc, linear_profile, slab, [1e-3], eps, gr=gr) == [(1e-3, expected)]


def test_records_read_the_run_workspace(slab, monkeypatch):
    # run builds its grid's workspace before the first record; no record
    # then builds a Grid, resamples the profile or re-checks admissibility
    p = make_linear_profile(1.0, 1.0, slab, N=128)      # a cold workspace
    calls, in_record = [], []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            if in_record:
                calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    def spied_record(*args, **kwargs):
        in_record.append(True)
        try:
            return record(*args, **kwargs)
        finally:
            in_record.pop()

    monkeypatch.setattr(Grid, "__init__", spy("Grid", Grid.__init__))
    monkeypatch.setattr(DensityProfile, "resample", spy("resample", DensityProfile.resample))
    for mod in (nskrt.profiles, nskrt.simulator, nskrt.diagnostics):
        if hasattr(mod, "check_admissibility"):
            monkeypatch.setattr(mod, "check_admissibility",
                                spy("check_admissibility", mod.check_admissibility))
    monkeypatch.setattr(nskrt.diagnostics, "record", spied_record)
    rc = _zero_rc(t_end=0.2, output_every=1, init=Init("random_smooth", delta=1e-3))
    _, series = run(rc, p, slab)
    assert len(series) == 5 and calls == []


@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
def test_escape_time_rejects_bad_eps(eps, slab, linear_profile):
    rc = RunConfig(Nx=32, Ny=32, t_end=0.1, dt=0.05, init=Init("eigenfunction", delta=1e-3))
    with pytest.raises(ConfigError, match="eps"):
        escape_time(rc, linear_profile, slab, [1e-3], eps)


def test_escape_time_rejects_non_eigenfunction_init(slab, linear_profile):
    gr = compute_growth(linear_profile, slab, N=96)
    rc = RunConfig(Nx=32, Ny=32, t_end=0.1, dt=0.05, init=Init("zero"))
    with pytest.raises(ConfigError, match="eigenfunction"):
        escape_time(rc, linear_profile, slab, [1e-3], 1e3, gr=gr)


def test_nan_state_raises(slab, linear_profile):
    gr = compute_growth(linear_profile, slab, N=96)
    rc = _zero_rc(linearized=True, dt=0.02, init=Init("eigenfunction", delta=1e-3))
    s = init_state(rc, linear_profile, slab, gr=gr)
    s.v1[3, 5] = np.nan
    with pytest.raises(SimulationError, match="non-finite"):
        step(s, rc, linear_profile, slab)


def test_escape_time_stable_configuration(linear_profile):
    config = SlabConfig(g=1.0, mu=0.1, kappa=1.5 * REFERENCE_KAPPA_C, L=1.0, h=1.0)
    rc = RunConfig(Nx=32, Ny=32, t_end=1.0, dt=0.02,
                   init=Init("eigenfunction", delta=1e-3))
    res = escape_time(rc, linear_profile, config, [1e-3, 1e-2], 1.0)
    assert res == [(1e-3, None), (1e-2, None)]


def test_adaptive_dt_run(slab, linear_profile):
    rc = RunConfig(Nx=32, Ny=32, t_end=0.5,
                   init=Init("random_smooth", delta=1e-3), seed=6, output_every=1)
    s = init_state(rc, linear_profile, slab)
    dt = suggest_dt(s, rc, linear_profile, slab)
    assert 0.0 < dt < np.inf
    final, series = run(rc, linear_profile, slab)
    assert final.t == pytest.approx(0.5)
    assert all(r.div_rel <= 1e-8 for r in series[1:])


def test_capillary_cfl_formula(linear_profile):
    config = SlabConfig(g=1.0, mu=0.1, kappa=0.2, L=1.0, h=1.0)
    rc = RunConfig(Nx=64, Ny=64, t_end=1.0, init=Init("zero"))
    s = init_state(rc, linear_profile, config)
    dt = suggest_dt(s, rc, linear_profile, config)
    dmin = min(2 * np.pi / 64, 1.0 / 64)
    expected_cap = nskrt.simulator.CFL_CAP * dmin**1.5 / np.sqrt(0.2 * 1.0 / 1.0)
    assert dt <= expected_cap + 1e-15


def test_runconfig_validation():
    with pytest.raises(ConfigError):
        RunConfig(Nx=48, Ny=32, t_end=1.0, dt=0.1)          # not a power of two
    with pytest.raises(ConfigError):
        RunConfig(Nx=32, Ny=8, t_end=1.0, dt=0.1)           # Ny too small
    with pytest.raises(ConfigError):
        RunConfig(Nx=32, Ny=32, t_end=1.0, dt=0.0)          # dt must be > 0 or None
    with pytest.raises(ConfigError, match="checkpoint_every"):
        RunConfig(Nx=32, Ny=32, t_end=1.0, checkpoint_every=0)  # None means off
    with pytest.raises(ConfigError, match="seed"):
        RunConfig(Nx=32, Ny=32, t_end=1.0, seed=-1)
    with pytest.raises(ConfigError):
        Init("eigenfunction", delta=-1.0)
    with pytest.raises(ConfigError):
        Init("file")


def test_eigenfunction_init_matches_transport_relation(slab, linear_profile):
    # the density is slaved to the pre-projection velocity; the projection
    # only nudges v by the discretization mismatch of the eigenfunction
    gr = compute_growth(linear_profile, slab, N=128)
    rc = _zero_rc(Nx=64, Ny=64, init=Init("eigenfunction", delta=1e-4))
    s = init_state(rc, linear_profile, slab, gr=gr)
    d1 = linear_profile.resample(64).d1.reshape(1, -1)
    mismatch = np.max(np.abs(s.rho_pert + d1 * s.v2 / gr.Lambda))
    assert mismatch <= 1e-3 * np.max(np.abs(s.rho_pert))
    assert np.max(np.sqrt(s.v1**2 + s.v2**2)) == pytest.approx(1e-4, rel=1e-3)
