import numpy as np
import pytest

from nskrt import (ConfigError, SlabConfig, VacuumError, check_admissibility,
                   equilibrium_pressure, load_profile, make_boundary_flat_profile,
                   make_cubic_profile, make_fourier_profile, make_linear_profile,
                   make_tabulated_profile, make_tanh_profile,
                   random_stabilizing_profile, save_profile)


def test_linear_profile_samples(slab):
    p = make_linear_profile(2.0, 1.0, slab, N=64)
    assert p.rho[0] == 2.0
    assert p.rho[-1] == 3.0
    assert np.all(p.d1 == 1.0)
    assert np.all(p.d2 == 0.0) and np.all(p.d3 == 0.0)


def test_constant_profile_has_no_rt_region(slab):
    p = make_linear_profile(1.0, 0.0, slab, N=32)
    rep = check_admissibility(p)
    assert not rep.rt_condition
    assert not rep.stabilizing


def test_vacuum_profile_rejected(slab):
    with pytest.raises(VacuumError):
        make_linear_profile(1.0, -2.0, slab, N=32)


def test_admissibility_cases(slab):
    assert check_admissibility(make_linear_profile(2.0, 1.0, slab, 64)).rt_condition
    assert check_admissibility(make_linear_profile(2.0, 1.0, slab, 64)).stabilizing
    flat = check_admissibility(make_boundary_flat_profile(slab, 64))
    assert flat.rt_condition and not flat.stabilizing and flat.boundary_flat
    down = check_admissibility(make_linear_profile(3.0, -1.0, slab, 64))
    assert not down.rt_condition and down.stabilizing


def test_stabilizing_excludes_boundary_flat(slab):
    for p in (make_linear_profile(1.0, 1.0, slab, 48),
              make_boundary_flat_profile(slab, 48),
              make_tanh_profile(slab, 48, reg_slope=0.05)):
        rep = check_admissibility(p)
        assert not (rep.stabilizing and rep.boundary_flat)


def test_linear_hydrostatic_pressure(slab):
    # rho = 1 + y, g = 1, no capillarity: P = -(y + y^2/2)
    p = make_linear_profile(1.0, 1.0, slab, N=64)
    P = equilibrium_pressure(p, slab)
    assert np.allclose(P, -(p.nodes + p.nodes**2 / 2.0), atol=1e-13)


def test_kappa_zero_pressure_monotone_decreasing(slab):
    rng = np.random.default_rng(0)
    for _ in range(3):
        p = random_stabilizing_profile(slab, 96, rng)
        P = equilibrium_pressure(p, slab)
        assert np.all(np.diff(P) < 0.0)


def test_cubic_pressure_matches_symbolic_integral():
    # P(y) = (6 kappa c3 - g) * (c0 y + c1 y^2/2 + c2 y^3/3 + c3 y^4/4)
    # for rho = c0 + c1 y + c2 y^2 + c3 y^3 (rho''' = 6 c3 constant)
    config = SlabConfig(g=1.0, mu=0.1, kappa=0.3, L=1.0, h=1.0)
    c0, c1, c2, c3 = 2.0, 0.5, -0.25, 0.125
    for N in (64, 128):
        p = make_cubic_profile(config, N, c0, c1, c2, c3)
        y = p.nodes
        exact = (6.0 * config.kappa * c3 - config.g) * (
            c0 * y + c1 * y**2 / 2 + c2 * y**3 / 3 + c3 * y**4 / 4)
        err = np.max(np.abs(equilibrium_pressure(p, config) - exact))
        assert err <= 5.0 * (p.dy**2)
    # trapezoid error drops at second order
    e64 = np.max(np.abs(equilibrium_pressure(make_cubic_profile(config, 64, c0, c1, c2, c3), config)
                        - (6.0 * config.kappa * c3 - config.g)
                        * (c0 * np.linspace(0, 1, 65) + c1 * np.linspace(0, 1, 65)**2 / 2
                           + c2 * np.linspace(0, 1, 65)**3 / 3 + c3 * np.linspace(0, 1, 65)**4 / 4)))
    e128 = np.max(np.abs(equilibrium_pressure(make_cubic_profile(config, 128, c0, c1, c2, c3), config)
                         - (6.0 * config.kappa * c3 - config.g)
                         * (c0 * np.linspace(0, 1, 129) + c1 * np.linspace(0, 1, 129)**2 / 2
                            + c2 * np.linspace(0, 1, 129)**3 / 3 + c3 * np.linspace(0, 1, 129)**4 / 4)))
    assert 3.0 <= e64 / e128 <= 5.0


@pytest.mark.parametrize("maker,kwargs", [
    (make_tanh_profile, {"reg_slope": 0.05}),
    (make_boundary_flat_profile, {}),
])
def test_analytic_derivative_consistency(slab, maker, kwargs):
    # finite differences of rho reproduce the closed-form d1 at O(dy^2)
    errs = []
    for N in (64, 128):
        p = maker(slab, N, **kwargs)
        fd = np.gradient(p.rho, p.dy, edge_order=2)
        errs.append(np.max(np.abs(fd - p.d1)))
    assert errs[1] <= errs[0] / 3.0


def test_fourier_profile_derivatives(slab):
    p = make_fourier_profile(slab, 128, 2.0, 1.0, [(1, 0.3), (3, -0.2)])
    fd = np.gradient(p.d1, p.dy, edge_order=2)
    assert np.max(np.abs(fd - p.d2)) <= 1e-2


def test_resample_analytic_exact(slab):
    p = make_tanh_profile(slab, 64, reg_slope=0.05)
    q = p.resample(200)
    assert q.N == 200
    y = q.nodes
    assert np.allclose(q.rho, 2.0 + np.tanh(10.0 * (y - 0.5)) + 0.05 * y, atol=1e-14)


def test_tabulated_roundtrip(tmp_path, slab):
    p = make_tanh_profile(slab, 96, reg_slope=0.05)
    path = tmp_path / "prof.txt"
    save_profile(p, path)
    q = load_profile(path)
    assert q.kind == "tabulated"
    assert np.allclose(q.rho, p.rho, atol=1e-12)
    assert np.max(np.abs(q.d1 - p.d1)) <= 1e-3 * np.max(np.abs(p.d1))


def test_tabulated_header_and_monotonicity(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0.0 1.0\n0.5 1.2\n1.0 1.5\n")
    with pytest.raises(ConfigError):
        load_profile(bad)
    with pytest.raises(ConfigError):
        make_tabulated_profile(np.array([0.0, 0.5, 0.4]), np.array([1.0, 1.1, 1.2]))
    with pytest.raises(ConfigError):
        make_tabulated_profile(np.array([0.0, 0.5, 1.0]), np.array([1.0, np.nan, 1.2]))


def test_slab_config_validation():
    with pytest.raises(ConfigError):
        SlabConfig(g=-1.0, mu=0.1, kappa=0.0, L=1.0, h=1.0)
    with pytest.raises(ConfigError):
        SlabConfig(g=1.0, mu=0.1, kappa=-0.1, L=1.0, h=1.0)
