"""Bit-for-bit guard of the growth eigensolve.

The reference below is the shift-invert ``alpha`` as first written: the
``scipy.linalg`` Cholesky wrappers, ``band_matvec`` for every product and
difference sums rebuilt from the profile columns on each call.  The
package's ``alpha`` calls the same LAPACK routines directly and builds what
does not depend on s once; every result must be the same bits.
"""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

from nskrt import (SlabConfig, alpha, assemble_mode_forms, compute_growth, compute_kappa_c,
                   make_linear_profile, make_tanh_profile, random_stabilizing_profile)
from nskrt import growth
from nskrt.operators import band_matvec
from nskrt.growth import _normalize_eigvec


def _reference_sums(phi, forms):
    dy = float(forms.nodes[1] - forms.nodes[0])
    xi = forms.xi
    dphi = np.diff(phi) / dy
    d2phi = (phi[2:] - 2.0 * phi[1:-1] + phi[:-2]) / dy**2

    def mass(c):
        return dy * float(np.sum(c[1:-1] * phi[1:-1] ** 2))

    def stiff(c):
        cm = 0.5 * (c[:-1] + c[1:])
        return dy * float(np.sum(cm * dphi**2))

    ones = np.ones_like(forms.rho)
    m_val = mass(forms.rho) + stiff(forms.rho) / xi**2
    v_val = 2.0 * stiff(ones) + dy * float(np.sum(d2phi**2)) / xi**2 + xi**2 * mass(ones)
    c2 = forms.d1**2
    e_val = forms.g * mass(forms.d1) - forms.kappa * (stiff(c2) + xi**2 * mass(c2))
    return e_val, v_val, m_val


def _reference_alpha(s, forms, phi=None, hi=math.inf):
    A, M = forms.Epot - s * forms.mu * forms.V, forms.M
    bound = forms.g * float(np.max(np.maximum(forms.d1[1:-1], 0.0) / forms.rho[1:-1]))
    x = (np.sin(np.pi * forms.nodes / forms.nodes[-1]) if phi is None else phi)[1:-1]
    x = x / np.linalg.norm(x)
    Mx = band_matvec(M, x)
    lo = float(x @ band_matvec(A, x) / (x @ Mx))
    ax = np.abs(x)
    slack = 8.0 * np.finfo(float).eps * float(
        ax @ band_matvec(np.abs(A) + abs(lo) * np.abs(M), ax) / (x @ Mx))
    hi = min(hi + slack, bound)
    step = 0.1
    for factorizations in range(1, growth._MAX_FACTORIZATIONS + 1):
        sigma = lo + step * (hi - lo)
        try:
            chol = scipy.linalg.cholesky_banded(sigma * M - A, check_finite=False)
        except scipy.linalg.LinAlgError:
            lo, step = sigma, 0.5
            continue
        hi, step = sigma, 0.1
        y = scipy.linalg.cho_solve_banded((chol, False), Mx, check_finite=False)
        y *= math.copysign(1.0 / np.linalg.norm(y), y @ x)
        change, x, Mx = float(np.linalg.norm(y - x)), y, band_matvec(M, y)
        lo = max(lo, float(x @ band_matvec(A, x) / (x @ Mx)))
        if change <= 1e-8 or hi - lo <= slack:
            break
    else:
        raise AssertionError("reference bracket did not close")
    phi = _normalize_eigvec(x, forms.nodes)
    e_val, v_val, m_val = _reference_sums(phi, forms)
    return (e_val - s * forms.mu * v_val) / m_val, phi, factorizations


def _same(a, b):
    """Equal bits: floats by repr, arrays by bytes, containers entry by entry."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.shape == b.shape and a.tobytes() == b.tobytes())
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(u, v) for u, v in zip(a, b))
    return repr(a) == repr(b)


def _profile(kind, config, N):
    if kind == "linear":
        return make_linear_profile(1.0, 1.0, config, N)
    if kind == "tanh":
        return make_tanh_profile(config, N, reg_slope=0.5)
    return random_stabilizing_profile(config, N, np.random.default_rng(12345))


@st.composite
def alpha_cases(draw):
    """(forms, s) on a linear, tanh or random profile, k in 1-3, s in
    [0, sqrt(alpha(0))]."""
    N = draw(st.sampled_from([48, 64, 96, 128]))
    config = SlabConfig(g=1.0, mu=draw(st.floats(0.05, 0.3)), kappa=0.0, L=1.0, h=1.0)
    kind = draw(st.sampled_from(["linear", "tanh", "random"]))
    if kind == "linear":
        p = make_linear_profile(draw(st.floats(0.5, 2.0)), draw(st.floats(0.2, 2.0)), config, N)
    elif kind == "tanh":
        p = make_tanh_profile(config, N, amp=draw(st.floats(0.2, 1.0)),
                              steepness=draw(st.floats(2.0, 10.0)),
                              reg_slope=draw(st.floats(0.05, 0.5)))
    else:
        p = random_stabilizing_profile(config, N,
                                       np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    kc = compute_kappa_c(p, config, N=N).kappa_c
    config = dataclasses.replace(config, kappa=draw(st.floats(0.0, 0.95)) * kc)
    forms = assemble_mode_forms(p, config, draw(st.integers(1, 3)), N=N)
    s = draw(st.floats(0.0, 1.0)) * math.sqrt(max(_reference_alpha(0.0, forms)[0], 0.0))
    return forms, s


@given(alpha_cases())
def test_alpha_is_bitwise_the_reference(case):
    forms, s = case
    ref = _reference_alpha(s, forms)
    assert _same(alpha(s, forms), ref)
    # from a start vector and a caller's upper end, as the Newton iteration calls it
    a0, phi0, _ = _reference_alpha(0.0, forms)
    assert _same(alpha(s, forms, phi0, a0), _reference_alpha(s, forms, phi0, a0))


@pytest.mark.parametrize("kind", ["linear", "tanh", "random"])
def test_compute_growth_is_bitwise_the_reference(kind, monkeypatch):
    config = SlabConfig(g=1.0, mu=0.1, kappa=0.0, L=1.0, h=1.0)
    p = _profile(kind, config, 256)
    kc = compute_kappa_c(p, config, N=256).kappa_c
    for frac in (0.0, 0.25, 0.5, 0.75, 0.95):
        cfg = dataclasses.replace(config, kappa=frac * kc)
        gr = compute_growth(p, cfg, N=256)
        with monkeypatch.context() as m:
            m.setattr(growth, "alpha", _reference_alpha)
            m.setattr(growth, "_quotient_sums", _reference_sums)
            ref = compute_growth(p, cfg, N=256)
        assert gr.Lambda > 0.0
        for name in ("Lambda", "k_star", "per_mode", "eigensolves", "factorizations",
                     "residual", "w2", "w1", "beta"):
            assert _same(getattr(gr, name), getattr(ref, name)), (kind, frac, name)


def test_quotient_sums_follow_the_vector_not_the_array(slab, linear_profile):
    # the sums kept for the Newton tangent are keyed on the vector's values,
    # so a maximizer changed in place is summed again
    forms = assemble_mode_forms(linear_profile, slab, 1)
    phi = alpha(0.0, forms)[1]
    assert growth._quotient_sums(phi, forms) == _reference_sums(phi, forms)
    phi[1:-1] *= np.linspace(1.0, 2.0, phi.size - 2)
    assert growth._quotient_sums(phi, forms) == _reference_sums(phi, forms)
