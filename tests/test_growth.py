import dataclasses
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st
from scipy.optimize import brentq

from nskrt import (ConfigError, EigensolverError, SlabConfig, alpha, assemble_mode_forms,
                   compute_growth, compute_kappa_c, growth,
                   make_boundary_flat_profile, make_linear_profile,
                   make_tanh_profile, mode_growth_rate, random_stabilizing_profile)
from nskrt.growth import write_eigenfunction, write_modes_csv
from nskrt.operators import lumped_mass, stiffness, trapezoid_weights

from conftest import REFERENCE_KAPPA_C

# frozen oracle: linear profile rho = 1 + y, (g, mu, kappa, L, h) =
# (1, 0.1, 0, 1, 1), k = 1 mode, N = 512, bisection tol 1e-12
LAMBDA_K1_N512 = 0.07655698641610797


def _dense(ab):
    """The symmetric matrix held in pentadiagonal upper band rows ab."""
    out = np.diag(ab[2])
    for j in (1, 2):
        out += np.diag(ab[2 - j, j:], j) + np.diag(ab[2 - j, j:], -j)
    return out


def test_forms_symmetry(slab, linear_profile):
    # symmetric forms in upper band rows: the unused corner stays zero
    f = assemble_mode_forms(linear_profile, slab, 2, N=96)
    assert f.M.shape == f.V.shape == f.Epot.shape == (3, 95)
    for ab in (f.M, f.V, f.Epot):
        assert ab[1, 0] == 0.0 and not np.any(ab[0, :2])
    assert not np.any(f.M[0]) and not np.any(f.Epot[0])   # tridiagonal
    assert np.all(np.linalg.eigvalsh(_dense(f.M)) > 0)
    assert np.all(np.linalg.eigvalsh(_dense(f.V)) > 0)


def test_constant_density_kinetic_form(slab):
    p = make_linear_profile(3.0, 1e-9, slab, N=64)
    f = assemble_mode_forms(p, slab, 2, N=64)
    ones = make_linear_profile(1.0, 0.0, slab, N=64)
    # rho constant: M = rho * (mass + stiffness / xi^2) entry by entry
    dy = ones.dy
    expected = 3.0 * (lumped_mass(np.ones(65), dy) + stiffness(np.ones(65), dy) / f.xi**2)
    assert np.allclose(f.M, expected, rtol=1e-8)


def test_large_xi_capillarity_penalty(linear_profile):
    config = SlabConfig(g=1.0, mu=0.1, kappa=0.2, L=1.0, h=1.0)
    f = assemble_mode_forms(linear_profile, config, 40, N=96)
    a0 = alpha(0.0, f)[0]
    assert a0 < 0.0


def test_alpha_positive_without_capillarity(slab):
    p = make_boundary_flat_profile(slab, 96)    # RT region inside
    f = assemble_mode_forms(p, slab, 1, N=96)
    a0 = alpha(0.0, f)[0]
    assert a0 > 0.0


def test_alpha_negative_above_threshold(linear_profile):
    config = SlabConfig(g=1.0, mu=0.1, kappa=1.3 * REFERENCE_KAPPA_C, L=1.0, h=1.0)
    for k in (1, 2, 3, 5):
        f = assemble_mode_forms(linear_profile, config, k, N=128)
        a0 = alpha(0.0, f)[0]
        assert a0 < 0.0


def test_alpha_strictly_decreasing_in_s(slab, linear_profile):
    f = assemble_mode_forms(linear_profile, slab, 2, N=96)
    vals = [alpha(s, f)[0] for s in (0.0, 0.1, 0.3, 0.9)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_alpha_rejects_negative_s(slab, linear_profile):
    f = assemble_mode_forms(linear_profile, slab, 1, N=64)
    with pytest.raises(ValueError):
        alpha(-0.5, f)


def test_compute_growth_rejects_profile_without_rt_region(slab):
    # density decreasing upward everywhere: no heavier-above region
    p = make_linear_profile(2.0, -1.0, slab, N=64)
    with pytest.raises(ConfigError, match="RT profile"):
        compute_growth(p, slab, N=64)


@pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan"), float("inf")])
def test_growth_tolerance_must_be_finite_and_positive(slab, linear_profile, tol):
    with pytest.raises(ConfigError, match="tolerance"):
        compute_growth(linear_profile, slab, N=64, tol=tol)
    with pytest.raises(ConfigError, match="tolerance"):
        mode_growth_rate(assemble_mode_forms(linear_profile, slab, 1, N=64), tol=tol)


def test_fixed_point_residual(slab, linear_profile):
    f = assemble_mode_forms(linear_profile, slab, 3, N=128)
    lam, phi = mode_growth_rate(f, tol=1e-10)
    assert lam > 0
    a_lam = alpha(lam, f)[0]
    assert abs(a_lam - lam**2) <= 1e-10 * max(1.0, lam**2)


def test_zero_rate_when_stable(linear_profile):
    config = SlabConfig(g=1.0, mu=0.1, kappa=1.5 * REFERENCE_KAPPA_C, L=1.0, h=1.0)
    f = assemble_mode_forms(linear_profile, config, 1, N=96)
    lam, phi = mode_growth_rate(f)
    assert lam == 0.0 and phi is None


def test_frozen_oracle_value(slab, linear_profile):
    f = assemble_mode_forms(linear_profile, slab, 1, N=512)
    lam, _ = mode_growth_rate(f, tol=1e-12)
    assert abs(lam - LAMBDA_K1_N512) <= 1e-9


def test_compute_growth_unstable(slab, linear_profile):
    gr = compute_growth(linear_profile, slab, N=192)
    assert gr.Lambda > 0 and gr.k_star is not None
    assert gr.residual <= 1e-10 * max(1.0, gr.Lambda**2)
    assert any(a0 > 0 for _, _, a0, _ in gr.per_mode)
    lam_by_k = {k: lam for k, _, _, lam in gr.per_mode}
    assert gr.Lambda == max(lam_by_k.values())


def test_compute_growth_stable_above_threshold(linear_profile):
    config = SlabConfig(g=1.0, mu=0.1, kappa=1.2 * REFERENCE_KAPPA_C, L=1.0, h=1.0)
    gr = compute_growth(linear_profile, config, N=128)
    assert gr.Lambda == 0.0 and gr.k_star is None
    assert gr.w2 is None and gr.w1 is None and gr.beta is None
    assert all(a0 <= 0 for _, _, a0, _ in gr.per_mode)


def test_lambda_positive_iff_alpha0_positive(slab, linear_profile):
    for frac in (0.5, 1.5):
        config = SlabConfig(g=1.0, mu=0.1, kappa=frac * REFERENCE_KAPPA_C,
                            L=1.0, h=1.0)
        gr = compute_growth(linear_profile, config, N=128)
        assert (gr.Lambda > 0) == any(a0 > 0 for _, _, a0, _ in gr.per_mode)


def test_threshold_consistency_sweep(slab, linear_profile):
    kc = compute_kappa_c(linear_profile, slab, N=128).kappa_c
    for frac in (0.5, 0.7, 0.9, 0.97, 1.03, 1.1, 1.3, 1.5):
        config = SlabConfig(g=1.0, mu=0.1, kappa=frac * kc, L=1.0, h=1.0)
        gr = compute_growth(linear_profile, config, N=128)
        assert (gr.Lambda > 0) == (frac < 1.0), f"dichotomy failed at {frac}"


def test_lambda_monotone_in_kappa(slab, linear_profile):
    kc = compute_kappa_c(linear_profile, slab, N=128).kappa_c
    lams = []
    for frac in (0.0, 0.25, 0.5, 0.75):
        config = SlabConfig(g=1.0, mu=0.1, kappa=frac * kc, L=1.0, h=1.0)
        lams.append(compute_growth(linear_profile, config, N=128).Lambda)
    assert all(b < a for a, b in zip(lams, lams[1:]))
    assert lams[-1] > 0


def test_lambda_monotone_in_mu_and_g(linear_profile):
    lams_mu = [compute_growth(linear_profile,
                              SlabConfig(g=1.0, mu=mu, kappa=0.0, L=1.0, h=1.0),
                              N=128).Lambda
               for mu in (0.05, 0.1, 0.2, 0.4)]
    assert all(b < a for a, b in zip(lams_mu, lams_mu[1:]))
    lams_g = [compute_growth(linear_profile,
                             SlabConfig(g=g, mu=0.1, kappa=0.0, L=1.0, h=1.0),
                             N=128).Lambda
              for g in (0.5, 1.0, 2.0)]
    assert all(b > a for a, b in zip(lams_g, lams_g[1:]))


def test_eigenfunction_nontriviality(slab, linear_profile):
    gr = compute_growth(linear_profile, slab, N=256)
    xi = gr.k_star / slab.L
    dy = gr.nodes[1] - gr.nodes[0]
    w = trapezoid_weights(gr.nodes.size, dy)
    horiz = np.pi * slab.L                      # integral of sin^2 over the cell
    dphi = np.gradient(gr.w2, dy, edge_order=2)
    dw1 = np.gradient(gr.w1, dy, edge_order=2)
    norms = {
        "w2": horiz * np.sum(w * gr.w2**2),
        "w1": horiz * np.sum(w * gr.w1**2),
        "d1w2": horiz * xi**2 * np.sum(w * gr.w2**2),
        "d1w1": horiz * xi**2 * np.sum(w * gr.w1**2),
        "d2w2": horiz * np.sum(w * dphi**2),
        "d2w1": horiz * np.sum(w * dw1**2),
    }
    for name, val in norms.items():
        assert np.sqrt(val) > 1e-8, name
    assert abs(np.sum(w * linear_profile.resample(gr.grid_N).d1 * gr.w2**2)) > 1e-8
    # unit velocity normalization over the cell
    assert np.isclose(norms["w2"] + norms["w1"], 1.0, rtol=1e-6)


def test_eigenfunction_spectral_smoothness(slab, linear_profile):
    # sine-series coefficients of the eigenfunction fall off fast: the
    # top-quarter share is tiny (qualitative H^5-regularity proxy)
    gr = compute_growth(linear_profile, slab, N=256)
    from scipy.fft import dst
    coeffs = dst(gr.w2[1:-1], type=1)
    energy = coeffs**2
    tail = energy[3 * len(energy) // 4:].sum() / energy.sum()
    assert tail < 1e-12


def test_growth_csv_and_eigenfunction_export(tmp_path, slab, linear_profile):
    gr = compute_growth(linear_profile, slab, N=96)
    path = tmp_path / "modes.csv"
    write_modes_csv(gr, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "k,xi,alpha0,Lambda_xi"
    assert len(lines) == 1 + len(gr.per_mode)
    wpath = tmp_path / "w2.txt"
    write_eigenfunction(gr.nodes, gr.w2, wpath)
    data = np.loadtxt(wpath)
    assert data.shape == (gr.nodes.size, 2)
    assert np.allclose(data[:, 1], gr.w2)


# ---------------------------------------------------------------------------
# solver work and typed failures
# ---------------------------------------------------------------------------

class _AlphaSpy:
    """Stands in for growth.alpha and records every (s, alpha(s)) pair."""

    def __init__(self, inner=alpha):
        self.inner = inner
        self.calls: list[tuple[float, float]] = []

    def __call__(self, s, forms, *start):
        a_s, phi, factorizations = self.inner(s, forms, *start)
        self.calls.append((s, a_s))
        return a_s, phi, factorizations

    def per_mode(self) -> list[list[tuple[float, float]]]:
        """Calls split by mode: each mode's fixed point starts at s = 0."""
        modes: list = []
        for s, a_s in self.calls:
            if s == 0.0:
                modes.append([])
            modes[-1].append((s, a_s))
        return modes


def test_eigensolves_counted_and_few_per_mode(slab, linear_profile):
    spy = _AlphaSpy()
    with mock.patch.object(growth, "alpha", spy):
        gr = compute_growth(linear_profile, slab, N=128)
    assert gr.eigensolves == len(spy.calls) == len(gr.factorizations)
    assert len(spy.per_mode()) == len(gr.per_mode)
    assert gr.eigensolves <= 6 * len(gr.per_mode)
    assert 1 <= min(gr.factorizations) and sum(gr.factorizations) <= 6 * gr.eigensolves


def test_growth_result_eigensolves_defaults_to_zero():
    gr = growth.GrowthResult(Lambda=0.0, k_star=None, per_mode=[], w2=None,
                             w1=None, beta=None, residual=0.0,
                             nodes=np.linspace(0.0, 1.0, 5), grid_N=4)
    assert gr.eigensolves == 0 and gr.factorizations == ()


def test_nonfinite_pencil_raises_eigensolver_error(slab, linear_profile):
    f = assemble_mode_forms(linear_profile, slab, 1, N=64)
    for name in ("Epot", "V", "M"):
        bad = getattr(f, name).copy()
        bad[-1, 3] = np.nan
        with pytest.raises(EigensolverError):
            alpha(0.1, dataclasses.replace(f, **{name: bad}))


def test_nonfinite_quotient_raises_at_first_eigensolve(slab, linear_profile):
    f = assemble_mode_forms(linear_profile, slab, 1, N=64)
    d1 = f.d1.copy()
    d1[10] = np.nan
    spy = _AlphaSpy()
    with mock.patch.object(growth, "alpha", spy), pytest.raises(EigensolverError):
        mode_growth_rate(dataclasses.replace(f, d1=d1))
    assert spy.calls == []          # the very first alpha call raised


def test_compute_growth_rejects_nan_mode(slab, linear_profile, monkeypatch):
    assemble = growth.assemble_mode_forms

    def nan_forms(*args, **kwargs):
        f = assemble(*args, **kwargs)
        return dataclasses.replace(f, d1=np.full_like(f.d1, np.nan))

    monkeypatch.setattr(growth, "assemble_mode_forms", nan_forms)
    with pytest.raises(EigensolverError):
        compute_growth(linear_profile, slab, N=64)


def test_midpoint_safeguard_on_nonconvex_alpha(slab, linear_profile, monkeypatch):
    # alpha minus a cubic: still strictly decreasing, but concave, so the
    # tangent step lies above it and overshoots the root
    f = assemble_mode_forms(linear_profile, slab, 1, N=64)
    a0 = alpha(0.0, f)[0]
    bump = 5.0 / np.sqrt(a0)

    def bent(s, forms, phi=None, hi=None):
        # the bent alpha(s_lo) is no upper end of the true alpha(s)
        a_s, phi, factorizations = alpha(s, forms, phi)
        return a_s - bump * s**3, phi, factorizations

    spy = _AlphaSpy(bent)
    monkeypatch.setattr(growth, "alpha", spy)
    tol = 1e-10
    root = brentq(lambda s: bent(s, f)[0] - s**2, 0.0, np.sqrt(a0), xtol=1e-15)
    try:
        lam, _ = mode_growth_rate(f, tol=tol)
    except EigensolverError:
        return
    s_seq = [s for s, _ in spy.calls]
    assert any(b < a for a, b in zip(s_seq, s_seq[1:])), "safeguard never hit"
    assert abs(bent(lam, f)[0] - lam**2) < tol * max(1.0, lam**2)
    assert abs(lam - root) <= 1e-8 * root


# ---------------------------------------------------------------------------
# properties over random stabilizing and tanh profiles
# ---------------------------------------------------------------------------

def _bisection_oracle(forms, width=1e-14):
    """Root of alpha(s) = s^2 by plain bisection; returns (root, bracket width)."""
    lo, hi = 0.0, np.sqrt(alpha(0.0, forms)[0])
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if alpha(mid, forms)[0] > mid**2:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), hi - lo


@st.composite
def stabilizing_profiles(draw):
    """(profile, kappa-free slab, N, kappa_c at N) for a random or tanh profile."""
    N = draw(st.sampled_from([48, 64, 96]))
    config = SlabConfig(g=1.0, mu=draw(st.floats(0.05, 0.3)), kappa=0.0, L=1.0, h=1.0)
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        p = random_stabilizing_profile(config, N, rng)
    else:
        p = make_tanh_profile(config, N, amp=draw(st.floats(0.2, 1.0)),
                              steepness=draw(st.floats(2.0, 10.0)),
                              reg_slope=draw(st.floats(0.05, 0.5)))
    return p, config, N, compute_kappa_c(p, config, N=N).kappa_c


@st.composite
def growth_cases(draw):
    p, config, N, kc = draw(stabilizing_profiles())
    frac = draw(st.floats(0.0, 0.95))
    return p, dataclasses.replace(config, kappa=frac * kc), N


@given(stabilizing_profiles(),
       st.one_of(st.floats(0.5, 0.97), st.floats(1.03, 1.5)))
def test_threshold_dichotomy_on_nonlinear_profiles(case, frac):
    # Lambda > 0 exactly below the threshold, for profiles other than linear
    p, config, N, kc = case
    gr = compute_growth(p, dataclasses.replace(config, kappa=frac * kc), N=N)
    assert (gr.Lambda > 0) == (frac < 1.0)


@given(growth_cases())
def test_growth_properties(case):
    p, config, N = case
    tol, k_max = 1e-10, 24
    spy = _AlphaSpy()
    with mock.patch.object(growth, "alpha", spy):
        gr = compute_growth(p, config, N=N, tol=tol, k_max=k_max)
    full = compute_growth(p, config, N=N, tol=tol, k_max=k_max, exhaustive=True)
    assert (gr.Lambda, gr.k_star) == (full.Lambda, full.k_star)
    assert gr.per_mode == full.per_mode[:len(gr.per_mode)]
    assert (gr.Lambda > 0) == any(a0 > 0 for _, _, a0, _ in gr.per_mode)
    # monotone iterates: every step rises, and every iterate but the
    # accepted one stays below the root, so no midpoint step was taken
    for calls in spy.per_mode():
        s_seq = [s for s, _ in calls]
        assert all(b > a for a, b in zip(s_seq, s_seq[1:]))
        assert all(a_s > s**2 for s, a_s in calls[:-1])
    if gr.Lambda == 0.0:
        return
    lam = gr.Lambda
    assert gr.residual <= tol * max(1.0, lam**2)
    forms = assemble_mode_forms(p.resample(N), config, gr.k_star)
    ref, width = _bisection_oracle(forms)
    e_val, v_val, m_val = growth._quotient_sums(gr.w2, forms)
    slope = -config.mu * v_val / m_val
    assert abs(lam - ref) <= tol * max(1.0, lam**2) / abs(slope - 2.0 * lam) + width


# ---------------------------------------------------------------------------
# the banded shift-invert against dense LAPACK, kept here as the reference
# ---------------------------------------------------------------------------

def _dense_alpha(s, forms):
    """(alpha(s), maximizer, quotient scale) from a dense generalized
    eigensolve and the difference sums."""
    A = _dense(forms.Epot) - s * forms.mu * _dense(forms.V)
    n = A.shape[0]
    _, vecs = scipy.linalg.eigh(A, _dense(forms.M), subset_by_index=[n - 1, n - 1])
    phi = growth._normalize_eigvec(vecs[:, 0], forms.nodes)
    e_val, v_val, m_val = growth._quotient_sums(phi, forms)
    return ((e_val - s * forms.mu * v_val) / m_val, phi,
            max(abs(e_val), s * forms.mu * v_val) / m_val)


@given(growth_cases(), st.integers(1, 3), st.floats(0.0, 1.0))
def test_banded_alpha_matches_dense_eigh(case, k, frac):
    p, config, N = case
    forms = assemble_mode_forms(p, config, k, N=N)
    s = frac * np.sqrt(max(alpha(0.0, forms)[0], 0.0))
    a_s, phi, factorizations = alpha(s, forms)
    ref, _, scale = _dense_alpha(s, forms)
    assert abs(a_s - ref) <= 1e-12 * scale
    assert 1 <= factorizations <= growth._MAX_FACTORIZATIONS
    # a shift just above the returned value certifies it as the top
    A = forms.Epot - s * forms.mu * forms.V
    scipy.linalg.cholesky_banded((a_s + 1e-8 * scale) * forms.M - A)


def test_growth_lambda_matches_dense_reference(slab, linear_profile, monkeypatch):
    # the whole sweep with alpha swapped for the dense reference
    kc = compute_kappa_c(linear_profile, slab, N=128).kappa_c
    for frac in (0.0, 0.5, 0.9):
        config = dataclasses.replace(slab, kappa=frac * kc)
        gr = compute_growth(linear_profile, config, N=128)
        with monkeypatch.context() as m:
            m.setattr(growth, "alpha",
                      lambda s, forms, *start: (*_dense_alpha(s, forms)[:2], 0))
            ref = compute_growth(linear_profile, config, N=128)
        assert gr.k_star == ref.k_star
        assert abs(gr.Lambda - ref.Lambda) <= 1e-12 * ref.Lambda


def test_growth_needs_no_dense_eigensolve(slab, linear_profile, monkeypatch):
    def no_eigh(*args, **kwargs):
        raise AssertionError("dense eigh called")

    monkeypatch.setattr(scipy.linalg, "eigh", no_eigh)
    gr = compute_growth(linear_profile, slab, N=256)
    assert gr.Lambda > 0 and gr.residual <= 1e-10 * max(1.0, gr.Lambda**2)


def test_no_dense_eigh_in_sources():
    src = Path(growth.__file__).parent
    calls = [f"{path.name}:{i}" for path in sorted(src.glob("*.py"))
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if re.search(r"\beigh\s*\(", line)]
    assert calls == []
