import math

import numpy as np
import pytest

from nskrt import (SlabConfig, assemble_mode_forms, bounded_decay_check,
                   fit_escape, fit_growth, mode_threshold, poincare_min_quotient,
                   potential_energy, read_series, record, write_series)
from nskrt.diagnostics import RECORD_FIELDS, EnergyRecord
from nskrt.operators import Grid
from nskrt.simulator import Init, RunConfig, init_state, run

from conftest import REFERENCE_KAPPA_C


def _fake_record(t, l2_v, linf_v=None):
    vals = {name: 0.0 for name in RECORD_FIELDS}
    vals.update(t=t, l2_v=l2_v, linf_v=l2_v if linf_v is None else linf_v)
    return EnergyRecord(**vals)


def _mode_field(slab, Nx=64, Ny=64, k=1, vertical=None):
    g = Grid(Nx, Ny, slab.L, slab.h)
    prof = np.sin(np.pi * g.y / slab.h) if vertical is None else vertical
    return np.sin(k * g.x / slab.L).reshape(-1, 1) * prof.reshape(1, -1)


def test_potential_energy_zero_field(slab, linear_profile):
    w = np.zeros((32, 65))
    assert potential_energy(w, linear_profile, slab) == 0.0


def test_potential_energy_gravity_term(slab, linear_profile):
    # g int rho' w2^2 = pi * 1/2 for the (k=1, n=1) mode with rho' = 1
    w = _mode_field(slab, 128, 128)
    val = potential_energy(w, linear_profile, slab)
    assert val == pytest.approx(np.pi / 2.0, rel=1e-3)


def test_potential_energy_neutral_at_threshold(linear_profile):
    config = SlabConfig(g=1.0, mu=0.1, kappa=REFERENCE_KAPPA_C, L=1.0, h=1.0)
    w = _mode_field(config, 128, 128)
    val = potential_energy(w, linear_profile, config)
    assert abs(val) <= 1e-3 * (np.pi / 2.0)


def test_potential_energy_sign_flips_at_per_mode_threshold(slab, linear_profile):
    # the k = 2 eigenmode is neutral exactly at kappa_c(2)
    p = linear_profile.resample(128)
    forms = assemble_mode_forms(p, slab, 2)
    kc2, phi = mode_threshold(forms)
    w = _mode_field(slab, 128, 128, k=2, vertical=phi)
    for frac, sign in ((0.9, 1.0), (1.1, -1.0)):
        config = SlabConfig(g=1.0, mu=0.1, kappa=frac * kc2, L=1.0, h=1.0)
        assert sign * potential_energy(w, p, config) > 0.0


def test_record_zero_state(slab, linear_profile):
    rc = RunConfig(Nx=32, Ny=32, t_end=1.0, dt=0.1, init=Init("zero"))
    s = init_state(rc, linear_profile, slab)
    r = record(s, linear_profile, slab)
    for name in ("l2_v", "l2_rho", "h1_v", "h2_v", "epot", "kinetic",
                 "gravity_pe", "capillary_pe", "viscous_diss", "w3_l2_v2"):
        assert getattr(r, name) == 0.0


def test_weighted_columns_at_t_zero(slab, linear_profile):
    rc = RunConfig(Nx=32, Ny=32, t_end=1.0, dt=0.1, seed=5,
                   init=Init("random_smooth", delta=1e-3))
    s = init_state(rc, linear_profile, slab)
    r = record(s, linear_profile, slab)
    assert r.t == 0.0
    assert r.w3_l2_v2 == r.l2_v**2
    assert r.w2_h1_v2 == r.h1_v**2
    assert r.w3_eta2_proxy == pytest.approx((r.l2_rho) ** 2)  # rho' = 1


def test_proxy_is_nan_without_stabilizing_gradient(slab):
    from nskrt import make_boundary_flat_profile
    p = make_boundary_flat_profile(slab, 64)
    rc = RunConfig(Nx=32, Ny=32, t_end=1.0, dt=0.1, seed=5,
                   init=Init("random_smooth", delta=1e-3))
    s = init_state(rc, p, slab)
    assert math.isnan(record(s, p, slab).w3_eta2_proxy)


def test_fit_growth_exact_exponential():
    series = [_fake_record(t, math.exp(0.7 * t)) for t in np.linspace(0, 3, 40)]
    fit = fit_growth(series)
    assert abs(fit.rate - 0.7) <= 1e-6
    assert fit.r_squared >= 1.0 - 1e-12
    assert fit.kind == "exp_growth"


def test_fit_growth_window_policies():
    series = [_fake_record(t, math.exp(0.5 * t)) for t in np.linspace(0, 4, 60)]
    by_time = fit_growth(series, ("time", 1.0, 3.0))
    assert by_time.window[0] >= 1.0 and by_time.window[1] <= 3.0
    lo, hi = math.exp(0.5), math.exp(1.5)
    by_amp = fit_growth(series, ("amplitude", lo, hi))
    assert abs(by_amp.rate - 0.5) <= 1e-9


def test_fit_growth_errors():
    series = [_fake_record(t, math.exp(t)) for t in np.linspace(0, 1, 5)]
    with pytest.raises(ValueError):
        fit_growth(series)                       # too few records
    bad = [_fake_record(t, 0.0) for t in np.linspace(0, 1, 20)]
    with pytest.raises(ValueError):
        fit_growth(bad)                          # non-positive norms
    with pytest.raises(ValueError):
        fit_growth([_fake_record(0.0, 1.0)] * 20, ("nonsense",))


def test_fit_escape_slope_and_censoring():
    # T = 2 + ln(1/delta) / Lambda exactly: slope 1/Lambda, r^2 = 1, and a
    # censored run (None) is dropped from the fit
    lam = 0.25
    pairs = [(d, 2.0 + math.log(1.0 / d) / lam) for d in (1e-4, 1e-3, 1e-2)]
    fit = fit_escape(pairs + [(1e-5, None)])
    assert fit.kind == "escape_slope"
    assert fit.rate == pytest.approx(1.0 / lam, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.window == pytest.approx((math.log(1e2), math.log(1e4)))
    assert fit_escape(pairs[:1] + [(1e-5, None)]) is None


def test_fit_growth_negative_rate_for_decay():
    series = [_fake_record(t, math.exp(-0.3 * t)) for t in np.linspace(0, 5, 30)]
    assert fit_growth(series).rate < 0.0


def test_bounded_decay_trivia():
    series = [_fake_record(t, 2.0 * math.exp(-t)) for t in np.linspace(0, 5, 30)]
    sup0, _ = bounded_decay_check(series, 0.0)
    assert sup0 == pytest.approx(max(r.l2_v**2 for r in series))
    exact = [_fake_record(t, (1.0 + t) ** -1.5) for t in np.linspace(0, 9, 40)]
    sup3, mono = bounded_decay_check(exact, 3.0)
    assert sup3 == pytest.approx(1.0, abs=1e-12)
    assert mono


def test_poincare_constants_and_order():
    for h, L in ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0)):
        config = SlabConfig(g=1.0, mu=1.0, kappa=0.0, L=L, h=h)
        exact = np.pi**2 / h**2 + 1.0 / L**2
        got = poincare_min_quotient(config, Ny=256)
        assert abs(got - exact) <= 1e-3 * exact
    config = SlabConfig(g=1.0, mu=1.0, kappa=0.0, L=1.0, h=1.0)
    exact = np.pi**2 + 1.0
    errs = [abs(poincare_min_quotient(config, Ny=n) - exact) for n in (64, 128, 256)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(1.8 <= o <= 2.2 for o in orders)


def test_series_roundtrip(tmp_path, slab, linear_profile):
    rc = RunConfig(Nx=32, Ny=32, t_end=0.2, dt=0.02, seed=8, output_every=2,
                   init=Init("random_smooth", delta=1e-3))
    _, series = run(rc, linear_profile, slab)
    path = tmp_path / "series.csv"
    write_series(series, path)
    header = path.read_text().split("\n", 1)[0]
    assert header == ",".join(RECORD_FIELDS)
    back = read_series(path)
    assert len(back) == len(series)
    for a, b in zip(series, back):
        assert a.l2_v == b.l2_v            # 17 significant digits roundtrip
        assert a.t == b.t


def test_linearized_energy_identity(slab):
    # 1/2 d/dt (||sqrt(rho_bar) v||^2 - E(s2)) = -mu ||grad v||^2 in
    # linearized mode with the accumulated displacement proxy
    from nskrt import make_boundary_flat_profile
    from nskrt.simulator import make_state, step
    config = SlabConfig(g=1.0, mu=0.05, kappa=0.05, L=1.0, h=1.0)
    p = make_boundary_flat_profile(config, N=96)
    rc = RunConfig(Nx=64, Ny=64, t_end=2.0, dt=0.01, seed=13, output_every=1,
                   linearized=True, init=Init("random_smooth", delta=1e-3, cutoff=3))
    g = Grid(rc.Nx, rc.Ny, config.L, config.h)
    rho_b = p.resample(rc.Ny).rho.reshape(1, -1)

    def snapshot(s):
        kin_bar = 0.5 * g.integrate(rho_b * (s.v1**2 + s.v2**2))
        r = record(s, p, config)
        return s.t, kin_bar, r.epot_disp, r.viscous_diss

    seed_state = init_state(rc, p, config)
    # the identity presumes compatible data rho_pert = -rho_bar' * s2;
    # start from zero density perturbation so both sides begin at zero
    s = make_state(rc, p, config, np.zeros_like(seed_state.rho_pert),
                   seed_state.v1, seed_state.v2)
    rows = [snapshot(s)]
    for _ in range(200):
        s = step(s, rc, p, config)
        rows.append(snapshot(s))
    t, kin, epd, diss = (np.array(col) for col in zip(*rows))
    lhs = (kin[-1] - kin[0]) - 0.5 * (epd[-1] - epd[0])
    rhs = -np.trapezoid(diss, t)
    scale = max(np.max(np.abs(kin - kin[0])), abs(rhs))
    assert abs(lhs - rhs) / ((t[-1] - t[0]) * scale) <= 1e-3
