"""Kernel integrals against adaptive quadrature and closed-form reductions."""
from __future__ import annotations

import math

import numpy as np
import pytest
from conftest import fixed_policy, grid_params
from scipy import integrate, special

from noma_relay_secrecy import SchemeKind, sop_total
from noma_relay_secrecy.quadrature import QuadratureSpec, _signed_log_pow, g_kernel, h_kernel, quadrature


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(0)
    with pytest.raises(ValueError):
        QuadratureSpec(2.5)
    spec = QuadratureSpec(50)
    x, w = spec.map_to(3.0)
    assert x.shape == (50,) and w.shape == (50,)
    assert 0.0 < x.min() and x.max() < 3.0
    assert w.sum() == pytest.approx(3.0, rel=1e-12)


def test_quadrature_cache():
    assert quadrature(300) is quadrature(300)
    assert quadrature(200) is not quadrature(300)


def test_shared_nodes_and_weights_are_read_only():
    # every caller of quadrature(n) holds the same spec: an in-place edit
    # would move every later integral and every value a sharing scope keeps
    spec = quadrature(300)
    for arr in (spec.nodes, spec.weights):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            arr *= 2.0
    assert QuadratureSpec(3).nodes.flags.writeable is False


def test_parity_sign_equals_float_power_bit_for_bit():
    # the sign of base^k for a column of degrees k comes from k's parity
    base = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, -2.5, -1e-300, 3.0, 1e300])
    k = np.arange(6)[:, None]
    logmag, sign = _signed_log_pow(base, k)
    ref = np.sign(base) ** k
    assert sign.shape == ref.shape and sign.dtype == ref.dtype
    assert sign.tobytes() == ref.tobytes()
    with np.errstate(divide="ignore", invalid="ignore"):
        assert np.array_equal(logmag, np.where(k == 0, 0.0, k * np.log(np.abs(base))), equal_nan=True)


def test_g_kernel_frozen_example():
    val = g_kernel(1.0, 2, 1.0, 0.5, 0.5, 1.0, 0.2, 1, 1, quadrature(200))
    assert val == pytest.approx(0.550468201112061, rel=1e-12)


def test_g_kernel_gamma_reduction():
    # c = r = h = 0, k = j = 0 leaves int_0^a x^{b-1} e^{-fx} dx = gamma(b, f a)/f^b
    quad = quadrature(300)
    for a, b, f in ((1.5, 3, 2.0), (0.7, 2, 1.3), (2.0, 5, 0.9)):
        got = g_kernel(a, b, 0.0, 0.0, 1.0 / a, f, 0.0, 0, 0, quad)
        ref = special.gammainc(b, f * a) * math.gamma(b) / f**b
        assert got == pytest.approx(ref, rel=1e-9)
    assert g_kernel(1.5, 3, 0.0, 0.0, 1.0 / 1.5, 2.0, 0.0, 0, 0, quad) == pytest.approx(
        0.14420247971828914, rel=1e-12
    )


def test_g_kernel_matches_adaptive():
    quad = quadrature(300)
    rng = np.random.default_rng(20240817)
    for _ in range(8):
        a = float(rng.uniform(0.3, 3.0))
        b = int(rng.integers(1, 6))
        c = float(rng.uniform(0.0, 3.0))
        r = float(rng.uniform(0.0, 2.0))
        q = 1.0 / a
        f = float(rng.uniform(0.2, 4.0))
        h = float(rng.uniform(0.05, 1.5))
        k = int(rng.integers(0, 4))
        j = int(rng.integers(0, 3))

        def integrand(x):
            s = 1.0 - q * x
            return x ** (b - 1) * math.exp(-f * x - h / s) * (1 + c * x) ** k * (1 + r / s) ** j

        ref, _ = integrate.quad(integrand, 0.0, a, limit=400, epsabs=1e-300, epsrel=1e-11)
        got = g_kernel(a, b, c, r, q, f, h, k, j, quad)
        assert got == pytest.approx(ref, rel=1e-5)


def test_h_kernel_matches_adaptive():
    quad = quadrature(300)
    rng = np.random.default_rng(11)
    for _ in range(8):
        v = float(rng.uniform(0.3, 3.0))
        a = 1.0 / v
        b = int(rng.integers(0, 4))
        c = int(rng.integers(0, 4))
        f = float(rng.uniform(0.2, 4.0))
        u = -float(rng.uniform(1.05, 4.0))
        w = -float(rng.uniform(0.2, 2.0))
        r = w * u * float(rng.uniform(0.5, 2.0))
        ell = float(rng.uniform(0.0, 1.0))
        theta1 = float(rng.uniform(1.0, 3.0))
        k = int(rng.integers(0, 4))
        varsigma = int(rng.integers(1, 5))
        big_c = float(rng.uniform(0.2, 3.0))
        big_d = float(rng.uniform(0.1, 3.0))
        rho4 = float(rng.uniform(0.1, 8.0))
        lam_e = float(rng.uniform(0.2, 4.0))

        def integrand(y):
            s = 1.0 - v * y
            numer = rho4 * lam_e * y ** (k + 1) + big_d * y**k
            if k > 0:
                numer -= big_c * k * y ** (k - 1)
            return (
                (ell + theta1 * y) ** b
                * (1 + u / s) ** c
                * numer
                / (rho4 * y + big_c) ** (varsigma + 1)
                * math.exp(-f * y - r / s)
            )

        ref, _ = integrate.quad(integrand, 0.0, a, limit=400, epsabs=1e-300, epsrel=1e-11)
        got = h_kernel(a, b, c, f, r, u, v, ell, theta1, k, varsigma, big_c, big_d, rho4, lam_e, quad)
        assert got == pytest.approx(ref, rel=1e-5, abs=1e-14)


def test_interior_pole_rejected():
    quad = quadrature(100)
    with pytest.raises(ValueError):
        g_kernel(2.0, 2, 0.0, 0.5, 1.0, 1.0, 0.1, 0, 1, quad)  # q*a = 2
    with pytest.raises(ValueError):
        h_kernel(2.0, 1, 1, 1.0, 0.5, -2.0, 1.0, 0.1, 1.2, 0, 2, 1.0, 1.0, 1.0, 1.0, quad)
    with pytest.raises(ValueError):
        g_kernel(-1.0, 2, 0.0, 0.0, 0.0, 1.0, 0.0, 0, 0, quad)


def test_concentrated_integrand_resolved():
    # decay constants far above 1/a squeeze all mass into a sliver near zero;
    # reference via the substitution t = f*x, which scipy resolves easily
    quad = quadrature(300)
    a, b, c, r, q, h, k, j = 2.9, 2, 1.3, 0.8, 1.0 / 2.9, 0.3, 2, 1
    for f in (2e3, 2e4):
        def scaled(t):
            x = t / f
            s = 1.0 - q * x
            return x ** (b - 1) * math.exp(-t - h / s) * (1 + c * x) ** k * (1 + r / s) ** j / f

        ref, _ = integrate.quad(scaled, 0.0, 500.0, limit=800, epsabs=0.0, epsrel=1e-12)
        got = g_kernel(a, b, c, r, q, f, h, k, j, quad)
        assert got == pytest.approx(ref, rel=1e-8)


def test_node_count_stability():
    # doubling the node count must not move the assembled SOP
    params = grid_params(K=3)
    policy = fixed_policy(0.2, alphaJ=0.5)
    for scheme in (SchemeKind.TMRC, SchemeKind.OSRS, SchemeKind.ODRS):
        lo = sop_total(params, policy, scheme, quadrature(200)).value
        hi = sop_total(params, policy, scheme, quadrature(400)).value
        assert abs(hi - lo) < 1e-7
