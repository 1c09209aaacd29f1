"""Node-series integrals against explicit per-term g/h-kernel sums.

`_joint_secrecy_prob`, `delta4` and the asymptotic leading integral (beside
its ceiling mass, `_leading_complement` below) sum their series at every
quadrature node and integrate once. Quadrature is linear, so
they must equal the per-term sums below (one kernel call per series term, the
way the closed forms are written) up to rounding, including where the
domain cut of `_effective_upper` differs between terms of different degree.
The combined leading-order complement is checked against its closed form:
incomplete gammas (scipy) for the strong user's term and g-kernels for the
two terms with the weak user's pole.
"""
from __future__ import annotations

import importlib
import math

import numpy as np
import pytest
from conftest import db, fixed_policy, grid_params, integrate
from oracles import expansion_survival, jammed_expansion
from scipy import special

from noma_relay_secrecy import (
    AsymptoticScaling,
    PowerPolicy,
    SchemeKind,
    analytic,
    asymptotic,
    scaled_params,
    sop_asym_total,
    sop_floor_total,
    sop_total,
)
from noma_relay_secrecy.analytic import _joint_secrecy_prob, delta4
from noma_relay_secrecy.asymptotic import _ceiling_mass, _leading_integral
from noma_relay_secrecy.channels import EavesdropperLaw, combined_law, jammed_law
from noma_relay_secrecy.params import feasibility_check, jamming_split, scheme_constants
from noma_relay_secrecy.quadrature import (
    _effective_upper,
    g_kernel,
    h_kernel,
    SeriesItem,
    quadrature,
    series_integrals,
    series_rows,
)

QUAD = quadrature(300)


def assert_close(got: float, ref: float) -> None:
    assert abs(got - ref) <= max(1e-12 * abs(ref), 1e-15), (got, ref)


def _leading_complement(user1, user2, theta1, consts, alpha2, tau_u, law, quad, include_floor) -> float:
    """The asymptotic engine's leading-order outage of one transmission: the
    ceiling mass, if kept, plus the leading integral, each evaluated alone."""
    floor = _ceiling_mass(law, consts) if include_floor else 0.0
    return floor + integrate(_leading_integral(user1, user2, theta1, consts, alpha2, tau_u, law, quad))


def joint_args(params, policy, n):
    """The arguments sop_tmrc_cond hands _joint_secrecy_prob, the nodes last."""
    alpha1, alpha2 = policy.resolve(params.links)
    consts = scheme_constants(params.theta1, params.theta2, alpha1, alpha2, params.P_R / (n * params.sigma2))
    links = params.links
    law = combined_law(links.relay_eaves, n)
    return links.relay_user1, links.relay_user2, params.theta1, consts, alpha2, n * links.m_u, law, QUAD


def joint_per_term(user1, user2, theta1, consts, alpha2, tau_u, law, quad):
    lambda1, lambda2, lambda_e = user1.rate, user2.rate, law.rate
    tau_e = law.degree  # the combined law's shape n*m_E
    a, b, c, d, v = consts.a, consts.b, consts.c, consts.d, consts.v
    log_front = tau_e * math.log(lambda_e) - math.lgamma(tau_e) - lambda1 * b - lambda2 * c
    r, h, f = alpha2 / (d * c), lambda2 * alpha2 / d, lambda1 * theta1 + lambda_e
    total = 0.0
    for k in range(tau_u):
        log_k = k * math.log(lambda1 * b) - math.lgamma(k + 1)
        for j in range(tau_u):
            log_j = j * math.log(lambda2 * abs(c)) - math.lgamma(j + 1)
            gval = g_kernel(a, tau_e, theta1 / b, r, v, f, h, k, j, quad)
            total += (-1.0) ** j * math.exp(log_front + log_k + log_j) * gval
    return total


def delta4_per_term(params, policy, n, quad):
    alpha1, alpha2 = policy.resolve(params.links)
    rho3 = (1.0 - policy.alphaJ) * params.rho2
    rho4 = policy.alphaJ * params.rho2
    consts = scheme_constants(params.theta1, params.theta2, alpha1, alpha2, rho3)
    links = params.links
    lambda1, lambda2, p_e = links.relay_user1.rate, links.relay_user2.rate, links.relay_eaves
    lambda_e = p_e.rate
    b, c, u, v = consts.b, consts.c, consts.u, consts.v
    phi0 = (params.K - n) * lambda_e**p_e.m / math.factorial(p_e.m - 1)
    f = lambda1 * params.theta1 + lambda_e
    total = 0.0
    for p in range(links.m_u):
        for q in range(links.m_u):
            log_pq = (
                -lambda1 * b - lambda2 * c
                + p * math.log(lambda1) - math.lgamma(p + 1)
                + q * math.log(lambda2 * abs(c)) - math.lgamma(q + 1)
            )
            coef = (-1.0) ** q * math.exp(log_pq)
            for t in jammed_expansion(p_e, params.K - n, rho4)[1]:
                hval = h_kernel(
                    1.0 / v, p, q, f, lambda2 * c * u, u, v, b, params.theta1,
                    t.k, t.varsigma, t.C, t.D, rho4, lambda_e, quad,
                )
                total += coef * t.delta * hval
    return min(max(phi0 * total, 0.0), 1.0)


def combined_complement_args(params, alpha1, alpha2, n, quad, include_floor):
    """The arguments of _leading_complement when n relays combine."""
    consts = scheme_constants(params.theta1, params.theta2, alpha1, alpha2, params.P_R / (n * params.sigma2))
    links = params.links
    law = combined_law(links.relay_eaves, n)
    return links.relay_user1, links.relay_user2, params.theta1, consts, alpha2, n * links.m_u, law, quad, include_floor


def combined_complement_closed_form(params, alpha1, alpha2, n, quad, include_floor):
    """floor + phi1*beta_E*t1 + phi2*beta_E*c^tau*g2 - phi1*phi2*beta_E*b^tau*c^tau*g3: t1 from
    incomplete gammas, g2 and g3 from g-kernels carrying the weak user's screened pole."""
    links = params.links
    consts = scheme_constants(params.theta1, params.theta2, alpha1, alpha2, params.P_R / (n * params.sigma2))
    a, b, c, d, v, theta1 = consts.a, consts.b, consts.c, consts.d, consts.v, params.theta1
    tau, tau_e, lam_e = n * links.m_u, n * links.relay_eaves.m, links.relay_eaves.rate
    lam1, lam2 = links.relay_user1.rate, links.relay_user2.rate
    phi1, phi2 = lam1**tau / math.factorial(tau), lam2**tau / math.factorial(tau)
    beta_e = lam_e**tau_e / math.factorial(tau_e - 1)
    floor = float(special.gammaincc(tau_e, lam_e * a)) if include_floor else 0.0
    t1 = sum(
        math.comb(tau, k) * theta1**k * b ** (tau - k)
        * math.gamma(k + tau_e) * float(special.gammainc(k + tau_e, lam_e * a)) / lam_e ** (k + tau_e)
        for k in range(tau + 1)
    )
    r, h = alpha2 / (d * c), lam2 * alpha2 / d
    g2 = g_kernel(a, tau_e, 0.0, r, v, lam_e, h, 0, tau, quad)
    g3 = g_kernel(a, tau_e, theta1 / b, r, v, lam_e, h, tau, tau, quad)
    return floor + phi1 * beta_e * t1 + phi2 * beta_e * c**tau * g2 - phi1 * phi2 * beta_e * b**tau * c**tau * g3


def jammed_complement_args(params, policy, alpha1, alpha2, n, quad, include_floor):
    """The arguments of _leading_complement when an idle relay jams."""
    rho3, rho4 = jamming_split(policy.alphaJ, params.rho2)
    consts = scheme_constants(params.theta1, params.theta2, alpha1, alpha2, rho3)
    links = params.links
    law = jammed_law(links.relay_eaves, params.K - n, rho4)
    return links.relay_user1, links.relay_user2, params.theta1, consts, alpha2, links.m_u, law, quad, include_floor


def odrs_complement_per_term(params, policy, alpha1, alpha2, n, quad, include_floor):
    links = params.links
    rho4 = policy.alphaJ * params.rho2
    consts = scheme_constants(params.theta1, params.theta2, alpha1, alpha2, (1.0 - policy.alphaJ) * params.rho2)
    m_u, p_e = links.m_u, links.relay_eaves
    lam_e = p_e.rate
    phi3 = links.relay_user1.rate**m_u / math.factorial(m_u)
    phi4 = links.relay_user2.rate**m_u / math.factorial(m_u)
    b, c, u, v = consts.b, consts.c, consts.u, consts.v
    count = params.K - n
    phi0 = count * lam_e**p_e.m / math.factorial(p_e.m - 1)
    floor = float(expansion_survival(p_e, count, rho4, 1.0 / v)) if include_floor else 0.0
    r_screen = links.relay_user2.rate * c * u
    s_b = s_c = s_bc = 0.0
    for t in jammed_expansion(p_e, count, rho4)[1]:
        args = (t.k, t.varsigma, t.C, t.D, rho4, lam_e, quad)
        # only the terms with the weak user's pole carry its screening factor
        s_b += t.delta * h_kernel(1.0 / v, m_u, 0, lam_e, 0.0, u, v, b, params.theta1, *args)
        s_c += t.delta * h_kernel(1.0 / v, 0, m_u, lam_e, r_screen, u, v, b, params.theta1, *args)
        s_bc += t.delta * h_kernel(1.0 / v, m_u, m_u, lam_e, r_screen, u, v, b, params.theta1, *args)
    return floor + phi3 * phi0 * s_b + phi4 * c**m_u * phi0 * s_c - phi3 * phi4 * c**m_u * phi0 * s_bc


def random_scenarios(seed: int, count: int):
    """(params, policy) with K <= 8, m <= 3, fixed and dynamic splits, alphaJ in (0, 1)."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        params = grid_params(
            K=int(rng.integers(2, 9)),
            P_dB=float(rng.uniform(0.0, 25.0)),
            omegaE_dB=float(rng.uniform(-15.0, 0.0)),
            m=int(rng.integers(1, 4)),
        )
        alphaJ = float(rng.uniform(0.05, 0.95))
        if i % 2:
            policy = PowerPolicy.dynamic(float(rng.uniform(2.0, 8.0)), float(rng.uniform(0.05, 0.3)), alphaJ=alphaJ)
        else:
            policy = fixed_policy(float(rng.uniform(0.05, 0.35)), alphaJ=alphaJ)
        assert feasibility_check(params, policy) is None
        yield rng, params, policy


def asymptotic_frame(params, omega2_dB):
    scaling = AsymptoticScaling(epsilon1=db(2.0), epsilon2=db(0.0), omega2=db(omega2_dB))
    return scaled_params(params, scaling)


def test_joint_secrecy_series_matches_per_term():
    for rng, params, policy in random_scenarios(20241017, 10):
        args = joint_args(params, policy, int(rng.integers(1, params.K + 1)))
        assert_close(integrate(_joint_secrecy_prob(*args)), joint_per_term(*args))


def test_delta4_series_matches_per_term():
    for rng, params, policy in random_scenarios(7, 10):
        n = int(rng.integers(1, params.K))
        assert_close(delta4(params, policy, n, QUAD), delta4_per_term(params, policy, n, QUAD))


def test_odrs_complement_series_matches_per_term():
    for rng, params, policy in random_scenarios(31, 10):
        scaled = asymptotic_frame(params, float(rng.uniform(20.0, 60.0)))
        assert feasibility_check(scaled, policy) is None
        alpha1, alpha2 = policy.resolve(scaled.links)
        n = int(rng.integers(1, params.K))
        include_floor = bool(rng.integers(0, 2))
        args = (scaled, policy, alpha1, alpha2, n, QUAD, include_floor)
        assert_close(_leading_complement(*jammed_complement_args(*args)), odrs_complement_per_term(*args))


def test_combined_complement_matches_closed_form():
    for rng, params, policy in random_scenarios(37, 10):
        scaled = asymptotic_frame(params, float(rng.uniform(20.0, 60.0)))
        alpha1, alpha2 = policy.resolve(scaled.links)
        n = int(rng.integers(1, params.K + 1))
        args = (scaled, alpha1, alpha2, n, QUAD, bool(rng.integers(0, 2)))
        assert_close(_leading_complement(*combined_complement_args(*args)), combined_complement_closed_form(*args))


@pytest.mark.parametrize("omegaE_dB", [20.0, 40.0, 60.0, 80.0])
@pytest.mark.parametrize("n", [1, 2])
def test_combined_complement_under_a_strong_eavesdropper(omegaE_dB, n):
    # lambda_E*a falls to 1e-8 here, where forming the strong user's
    # incomplete gammas as (s-1)!*(1 - survival) would lose every digit
    params = grid_params(K=2, omegaE_dB=omegaE_dB)
    policy = PowerPolicy.dynamic(5.0, 0.1)
    assert feasibility_check(params, policy) is None
    alpha1, alpha2 = policy.resolve(params.links)
    args = (params, alpha1, alpha2, n, QUAD, False)
    ref = combined_complement_closed_form(*args)
    assert ref > 0.0
    assert abs(_leading_complement(*combined_complement_args(*args)) - ref) <= 1e-12 * ref


@pytest.mark.parametrize("m", [2, 3])
def test_series_keep_each_degrees_domain_cut(m):
    # omega_E = -40 dB makes the eavesdropper decay ~1e4 times faster than
    # the domain is long, so every term's integral is cut short, and the cut
    # grows with the term's degree: the series must keep each cut exactly
    params = grid_params(K=4, P_dB=0.0, omegaE_dB=-40.0, m=m)
    policy = fixed_policy(0.2, alphaJ=0.5)
    for n in (1, 2, 3):
        args = joint_args(params, policy, n)
        _, _, _, consts, _, tau_u, law, _ = args
        f = params.links.relay_user1.rate * params.theta1 + law.rate
        cuts = {_effective_upper(consts.a, f, law.degree + s) for s in range(2 * tau_u - 1)}
        assert len(cuts) == 2 * tau_u - 1 and max(cuts) < consts.a
        assert_close(integrate(_joint_secrecy_prob(*args)), joint_per_term(*args))
        assert_close(delta4(params, policy, n, QUAD), delta4_per_term(params, policy, n, QUAD))
        scaled = asymptotic_frame(params, 30.0)
        alpha1, alpha2 = policy.resolve(scaled.links)
        args = (scaled, policy, alpha1, alpha2, n, QUAD, True)
        assert_close(_leading_complement(*jammed_complement_args(*args)), odrs_complement_per_term(*args))
        args = (scaled, alpha1, alpha2, n, QUAD, True)
        assert_close(_leading_complement(*combined_complement_args(*args)), combined_complement_closed_form(*args))


def test_identity_series_rows_keep_each_entry_in_its_row():
    # with one entry per degree, row d is entry d exactly, as when the
    # entries come in any other order and are added into zeroed rows
    rng = np.random.default_rng(3)
    n = 6
    log_mag = rng.uniform(-50.0, 50.0, (n, 40))
    sign = rng.choice([-1.0, 1.0], (n, 40))
    shift, rows = series_rows(range(n), log_mag, sign, n)
    for d in range(n):
        assert np.array_equal(rows[d], sign[d] * np.exp(log_mag[d] - shift)), d
    order = rng.permutation(n)
    assert np.array_equal(series_rows(order.tolist(), log_mag[order], sign[order], n)[1], rows)


def _cut_probe(n_degrees: int, item_cuts: list[float], received: list):
    """A user-row builder for items whose user constants are (index, f): each
    of the n_degrees rows of item i is 1 on the nodes of its cut item_cuts[i]
    and NaN on any others, and its log term +f*x cancels the e^{-f x} of the
    kernel's scale."""

    def user_rows(users, x):
        received.append((users, x))
        rows = np.empty((n_degrees,) + x.shape)
        for u, (i, _) in enumerate(users):
            rows[:, u] = 1.0 if np.array_equal(x[u], QUAD.map_to(item_cuts[i])[0]) else np.nan
        return (np.array([f for _, f in users])[:, None] * x,), rows

    return user_rows


def test_series_integral_cuts_each_item_at_its_highest_degree():
    # omega_E = -40 dB cuts every degree's domain short at a point that grows
    # with the degree; the item is integrated on the nodes of the largest
    # cut, its highest degree's, with its user rows built once
    params = grid_params(K=4, P_dB=0.0, omegaE_dB=-40.0, m=2)
    _, _, _, consts, _, tau_u, law, _ = joint_args(params, fixed_policy(0.2), 2)
    a = consts.a
    f = params.links.relay_user1.rate * params.theta1 + law.rate
    degree0, n_degrees = law.degree, 2 * tau_u - 1
    flat = EavesdropperLaw(0.0, law.rate, 1, None, law.survival)  # no x^(degree-1): the scale is 0
    degree_cuts = [_effective_upper(a, f, degree0 + s) for s in range(n_degrees)]
    cut = degree_cuts[-1]
    assert len(set(degree_cuts)) == n_degrees and cut == max(degree_cuts) < a
    received = []
    item = SeriesItem(a, f, 0.0, flat, degree0, n_degrees, (0, f), _cut_probe(n_degrees, [cut], received), QUAD)
    (total,) = series_integrals([item], {})
    assert len(received) == 1  # one build for the item
    assert received[0][1].shape == (1, QUAD.n) and np.array_equal(received[0][1][0], QUAD.map_to(cut)[0])
    assert total == pytest.approx(n_degrees * cut, rel=1e-12)  # every degree over the one cut

    # a second item that is not cut short is evaluated beside it in one
    # block, each on its own cut, and neither value moves
    wide_f = f * 1e-6
    assert _effective_upper(a, wide_f, degree0 + n_degrees - 1) == a
    probe = _cut_probe(n_degrees, [cut, a], received)
    wide = SeriesItem(a, wide_f, 0.0, flat, degree0, n_degrees, (1, wide_f), probe, QUAD)
    received.clear()
    totals = series_integrals([item._replace(user_rows=probe), wide], {})
    assert totals[0] == total
    assert totals[1] == pytest.approx(n_degrees * a, rel=1e-12)
    assert len(received) == 1 and received[0][1].shape == (2, QUAD.n)  # one build for the block


def test_engines_never_call_the_reference_kernels(monkeypatch):
    # g_kernel and h_kernel are the per-term references the series are tested
    # against; every engine path must run without them
    def refuse(*args):
        raise AssertionError("an engine called a per-term reference kernel")

    for module in (importlib.import_module("noma_relay_secrecy.quadrature"), analytic, asymptotic):
        monkeypatch.setattr(module, "g_kernel", refuse)
        monkeypatch.setattr(module, "h_kernel", refuse)
    params = grid_params(K=4, omegaR_dB=-10.0)
    high_gain = grid_params(K=4, P_dB=20.0, omegaR_dB=-10.0)  # at 10 dB the source hop is not high-gain
    scaling = AsymptoticScaling(*high_gain.links.frame)
    for policy in (fixed_policy(0.2, alphaJ=0.5), PowerPolicy.dynamic(5.0, 0.1, alphaJ=0.5)):
        for scheme in SchemeKind:
            assert 0.0 < sop_total(params, policy, scheme, QUAD).value < 1.0
            assert 0.0 <= sop_asym_total(high_gain, policy, scheme, scaling, QUAD) <= 1.0
            assert 0.0 <= sop_floor_total(params, policy, scheme) <= 1.0
