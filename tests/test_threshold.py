import dataclasses

import numpy as np
import pytest

from nskrt import (DegenerateThresholdError, EigensolverError, SlabConfig,
                   assemble_mode_quotient, compute_kappa_c, make_boundary_flat_profile,
                   make_linear_profile, make_tanh_profile, mode_threshold,
                   random_stabilizing_profile, remark_bound,
                   two_dim_quotient_ascent)
from nskrt.threshold import write_modes_csv

from conftest import REFERENCE_KAPPA_C

# frozen regression: tanh layer 2 + tanh(10(y-1/2)) + 0.05 y, k = 1 mode,
# dense eigensolve at N = 512
TANH_KAPPA_C_N512 = 0.1509848593537014


def test_constant_coefficient_assembly(slab, linear_profile):
    op = assemble_mode_quotient(linear_profile, slab, 1)
    dy = linear_profile.dy
    n = op.A.shape[0]
    assert np.allclose(op.A, np.eye(n) * dy)           # g * mass with rho'=1
    K = np.diag(np.full(n, 2.0 / dy)) + np.diag(np.full(n - 1, -1.0 / dy), 1) \
        + np.diag(np.full(n - 1, -1.0 / dy), -1)
    assert np.allclose(op.B, K + (1.0 / slab.L**2) * dy * np.eye(n))


def test_xi_squared_mass_shift(slab, linear_profile):
    op1 = assemble_mode_quotient(linear_profile, slab, 1)
    op2 = assemble_mode_quotient(linear_profile, slab, 2)
    diff = op2.B - op1.B
    expected = 3.0 / slab.L**2 * linear_profile.dy * np.eye(op1.B.shape[0])
    assert np.allclose(diff, expected)
    assert np.all(np.linalg.eigvalsh(diff) > 0)


def test_interior_zero_gradient_is_degenerate(slab):
    p = make_boundary_flat_profile(slab, 64)
    with pytest.raises(DegenerateThresholdError):
        assemble_mode_quotient(p, slab, 1)
    with pytest.raises(DegenerateThresholdError):
        compute_kappa_c(p, slab, N=64)


def test_mode_threshold_closed_form(slab):
    p = make_linear_profile(1.0, 1.0, slab, N=512)
    lam, phi = mode_threshold(assemble_mode_quotient(p, slab, 1))
    assert abs(lam - REFERENCE_KAPPA_C) <= 1e-4 * REFERENCE_KAPPA_C
    # doubling the gradient halves the threshold for linear profiles
    p2 = make_linear_profile(1.0, 2.0, slab, N=512)
    lam2, _ = mode_threshold(assemble_mode_quotient(p2, slab, 1))
    assert abs(lam2 - lam / 2.0) <= 1e-6


def test_tanh_regression_frozen_value(slab):
    p = make_tanh_profile(slab, 512, base=2.0, amp=1.0, steepness=10.0,
                          reg_slope=0.05)
    lam, _ = mode_threshold(assemble_mode_quotient(p, slab, 1))
    assert abs(lam - TANH_KAPPA_C_N512) <= 1e-10


def test_compute_kappa_c_linear(slab, linear_profile):
    res = compute_kappa_c(linear_profile, slab, N=256)
    assert abs(res.kappa_c - REFERENCE_KAPPA_C) <= 1e-3 * REFERENCE_KAPPA_C
    assert res.k_star == 1
    assert res.kappa_c == res.per_mode[0][2]
    vals = [v for _, _, v in res.per_mode]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_wider_cell_raises_threshold(linear_profile):
    wide = SlabConfig(g=1.0, mu=0.1, kappa=0.0, L=2.0, h=1.0)
    res = compute_kappa_c(linear_profile, wide, N=256)
    exact = 1.0 / (np.pi**2 + 0.25)
    assert abs(res.kappa_c - exact) <= 1e-3 * exact
    assert res.kappa_c > REFERENCE_KAPPA_C


def test_bracketing_by_comparison_quotients(slab):
    # rho' in [1, 2]: kappa_c between the two constant-gradient answers
    from nskrt import make_fourier_profile
    p = make_fourier_profile(slab, 256, 2.0, 1.5, [(1, 0.5)])
    assert np.min(p.d1) >= 1.0 - 1e-12 and np.max(p.d1) <= 2.0 + 1e-12
    res = compute_kappa_c(p, slab, N=256)
    lo = slab.g / (2.0 * (np.pi**2 + 1.0))
    hi = 2.0 * slab.g / (np.pi**2 + 1.0)
    assert lo <= res.kappa_c <= hi


def test_convergence_order(slab, linear_profile):
    errs = [abs(compute_kappa_c(linear_profile, slab, N=n).kappa_c - REFERENCE_KAPPA_C)
            for n in (64, 128, 256)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(1.8 <= o <= 2.2 for o in orders)


def test_scaling_covariances(slab, linear_profile):
    base = compute_kappa_c(linear_profile, slab, N=128).kappa_c
    doubled_g = SlabConfig(g=2.0, mu=0.1, kappa=0.0, L=1.0, h=1.0)
    assert np.isclose(compute_kappa_c(linear_profile, doubled_g, N=128).kappa_c,
                      2.0 * base, rtol=1e-12)
    steeper = make_linear_profile(1.0, 3.0, slab, N=128)
    assert np.isclose(compute_kappa_c(steeper, slab, N=128).kappa_c,
                      base / 3.0, rtol=1e-12)


def test_remark_bound_randomized(slab):
    rng = np.random.default_rng(7)
    for _ in range(5):
        p = random_stabilizing_profile(slab, 128, rng)
        res = compute_kappa_c(p, slab, N=128)
        assert res.kappa_c <= remark_bound(p, slab) * (1.0 + 1e-12)


def test_eigenfunction_converges_to_sine(slab):
    for N, tol in ((128, 1e-3), (256, 3e-4)):
        p = make_linear_profile(1.0, 1.0, slab, N=N)
        res = compute_kappa_c(p, slab, N=N)
        y = np.linspace(0.0, 1.0, N + 1)
        exact = np.sin(np.pi * y) * np.sqrt(2.0)       # unit L2 norm on (0,1)
        assert np.max(np.abs(res.phi - exact)) <= tol


def test_two_dim_ascent_cross_check(slab, linear_profile):
    ref = compute_kappa_c(linear_profile, slab, N=256).kappa_c
    direct = two_dim_quotient_ascent(linear_profile, slab, nx=32, ny=48, seed=1)
    assert abs(direct - ref) <= 0.01 * ref


def test_modes_csv(tmp_path, slab, linear_profile):
    res = compute_kappa_c(linear_profile, slab, N=64)
    path = tmp_path / "modes.csv"
    write_modes_csv(res, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "k,xi,kappa_c_k"
    assert len(lines) == 1 + len(res.per_mode)
    k, xi, val = lines[1].split(",")
    assert int(k) == 1 and float(xi) == 1.0
    assert np.isclose(float(val), res.kappa_c)


def test_nonfinite_pencil_raises_eigensolver_error(slab, linear_profile):
    op = assemble_mode_quotient(linear_profile, slab, 1)
    for name in ("A", "B"):
        bad = getattr(op, name).copy()
        bad[2, 2] = np.inf if name == "A" else np.nan
        with pytest.raises(EigensolverError):
            mode_threshold(dataclasses.replace(op, **{name: bad}))
