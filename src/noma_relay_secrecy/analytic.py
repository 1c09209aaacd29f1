"""Closed-form secrecy outage probability for the four relay-selection schemes.

The outage mixture runs over the size n of the decoding set (binomial with
per-relay success chi). Conditioned on n (`sop_cond`), a scheme's relays
transmit in one of three ways (`SchemeKind.transmission`): all n combine
(`sop_tmrc_cond`), the best single relay sends (`delta1`), or it sends while
an idle relay jams (`delta4`); each reduces to integrals of Gamma survival
series against the eavesdropper-gain density. Written out, that is one
g-kernel (h-kernel under jamming) integral per series term; here the series
are summed at each quadrature node instead and integrated once
(`quadrature.series_integral`), which is the same sum because quadrature is
linear. Conditioned on the eavesdropper gain x, both users stay secure iff
x < a, the strong user's gain exceeds b + theta1*x, and the weak user's gain
exceeds c + alpha2/(d*(1-v*x)), v = e/d; only below the ceiling a = 1/v can
that hold, which creates the high-SNR outage floor. The constants, the
jamming split and the clip to [0, 1] come from `params`, as in every engine.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .channels import (  # noqa: F401  (jammed_ratio_terms re-exported: the per-term reference of delta4)
    gain_survival,
    jammed_ratio_pdf_rows,
    jammed_ratio_terms,
    jammed_table,
)
from .params import (
    PowerPolicy,
    SchemeConstants,
    SchemeKind,
    SopResult,
    SystemParams,
    clamp_probability,
    combining_constants,
    feasibility_check,
    jamming_split,
    scheme_constants,
)
from .quadrature import (  # noqa: F401  (g_kernel, h_kernel re-exported: the per-term reference of the series below)
    QuadratureSpec,
    _signed_log_pow,
    convolve_series,
    g_kernel,
    h_kernel,
    series_integral,
    series_rows,
)


def decode_prob_chi(params: SystemParams) -> float:
    """Probability chi that one relay decodes both messages: P(G_sr >= eta)."""
    return float(gain_survival(params.links.source_relay, params.eta))


def decoding_set_pmf(params: SystemParams) -> np.ndarray:
    """Binomial law of the decoding-set size; entry n is C(K,n) chi^n (1-chi)^{K-n}."""
    chi = decode_prob_chi(params)
    k = params.K
    return np.array(
        [math.comb(k, n) * chi**n * (1.0 - chi) ** (k - n) for n in range(k + 1)]
    )


@lru_cache(maxsize=64)
def _degree_column(tau_u: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The degrees k < tau_u as a column, with log k! and (-1)^k beside them (read-only)."""
    k = np.arange(tau_u)[:, None]
    columns = (k, np.array([math.lgamma(i + 1) for i in range(tau_u)])[:, None], 1.0 - 2.0 * (k % 2))
    for col in columns:
        col.setflags(write=False)
    return columns


def _user_series(base: np.ndarray, tau_u: int, log_rate: float, alternate: bool) -> tuple[np.ndarray, np.ndarray]:
    """Rows (rate*base)^k/k! for k < tau_u at the nodes, as series_rows (shift, rows).

    alternate multiplies row k by (-1)^k, the sign carried by powers of the
    negative weak-user constant.
    """
    k, log_fact, alternating = _degree_column(tau_u)
    log_coef = k * log_rate - log_fact
    logmag, sign = _signed_log_pow(base, k)
    if alternate:
        sign = sign * alternating
    return series_rows(range(tau_u), log_coef + logmag, sign, tau_u)


def _joint_secrecy_prob(
    consts: SchemeConstants,
    tau_u: int,
    tau_e: int,
    lambda1: float,
    lambda2: float,
    lambda_e: float,
    theta1: float,
    alpha2: float,
    quad: QuadratureSpec,
) -> float:
    """P(both users secured) for one transmission with Gamma(tau_u) user links
    and a Gamma(tau_e) eavesdropper link.

    Expands the two user survival series under the eavesdropper-gain integral;
    the (k, j) term is (lambda1*b)^k/k! * (lambda2*c)^j/j! times the g-kernel
    integrand with powers k, j, whose sign (-1)^j cancels the sign of c^j, so
    every term is nonnegative. Both series are summed at each node and the
    integral is taken once (`series_integral`).
    """
    a, b, c, d, q, r = consts.a, consts.b, consts.c, consts.d, consts.v, consts.u
    log_beta_e = tau_e * math.log(lambda_e) - math.lgamma(tau_e)
    log_front = log_beta_e - lambda1 * b - lambda2 * c
    h = lambda2 * alpha2 / d
    f = lambda1 * theta1 + lambda_e
    c1 = theta1 / b

    def integrand(x):
        one_minus_qx = 1.0 - q * x
        shift1, user1 = _user_series(1.0 + c1 * x, tau_u, math.log(lambda1 * b), alternate=False)
        shift2, user2 = _user_series(1.0 + r / one_minus_qx, tau_u, math.log(lambda2 * abs(c)), alternate=True)
        log_scale = log_front + (tau_e - 1.0) * np.log(x) - f * x - h / one_minus_qx + shift1 + shift2
        return log_scale, convolve_series(user1, user2)

    return series_integral(a, q, f, tau_e, 2 * tau_u - 1, integrand, quad)


def _combined_secure(params: SystemParams, policy: PowerPolicy, n: int, quad: QuadratureSpec) -> float:
    """P(both users secured) when n relays each send at P_R/n and every
    receiver, the eavesdropper included, sums their n gains; the user and
    eavesdropper shapes scale to n*m_U and n*m_E. 0 for an infeasible split."""
    if feasibility_check(params, policy) is not None:
        return 0.0
    alpha1, alpha2 = policy.resolve(params.links)
    links = params.links
    return _joint_secrecy_prob(
        combining_constants(params, alpha1, alpha2, n),
        tau_u=n * links.m_u,
        tau_e=n * links.relay_eaves.m,
        lambda1=links.relay_user1.rate,
        lambda2=links.relay_user2.rate,
        lambda_e=links.relay_eaves.rate,
        theta1=params.theta1,
        alpha2=alpha2,
        quad=quad,
    )


def sop_tmrc_cond(params: SystemParams, policy: PowerPolicy, n: int, quad: QuadratureSpec) -> float:
    """Outage probability given n decoding relays that all transmit and combine."""
    if n < 1:
        raise ValueError("n must be >= 1; the empty decoding set is certain outage")
    return clamp_probability(1.0 - _combined_secure(params, policy, n, quad))


def delta1(params: SystemParams, policy: PowerPolicy, quad: QuadratureSpec) -> float:
    """Per-relay probability that a single relay at full power secures both
    users: the combined transmission at n = 1."""
    return clamp_probability(_combined_secure(params, policy, 1, quad))


def delta4(params: SystemParams, policy: PowerPolicy, n: int, quad: QuadratureSpec) -> float:
    """Per-relay securing probability when a non-decoding relay jams the eavesdropper.

    Valid for n < K: the strongest of the K-n idle relays' eavesdropper links
    acts as jamming, so the effective eavesdropper gain is Y = G_E/(1+rho4*H_E)
    with the closed-form Y-density. The (p, q, term) summand is an h-kernel
    integrand; the two user series and the density's terms are summed at each
    node and the integral is taken once (`series_integral`).
    """
    if n >= params.K:
        raise ValueError("n must be below K: the jamming relay comes from the idle set")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    if feasibility_check(params, policy) is not None:
        return 0.0
    alpha1, alpha2 = policy.resolve(params.links)
    rho3, rho4 = jamming_split(policy.alphaJ, params.rho2)
    consts = scheme_constants(params.theta1, params.theta2, alpha1, alpha2, rho3)
    links = params.links
    m_u = links.m_u
    lambda1 = links.relay_user1.rate
    lambda2 = links.relay_user2.rate
    lambda_e = links.relay_eaves.rate
    p_e = links.relay_eaves
    ell, w, u, v = consts.ell, consts.w, consts.u, consts.v
    count = params.K - n
    f = lambda1 * params.theta1 + lambda_e
    r = lambda2 * w * u
    log_front = -lambda1 * ell - lambda2 * w

    def integrand(y):
        one_minus_vy = 1.0 - v * y
        shift1, user1 = _user_series(ell + params.theta1 * y, m_u, math.log(lambda1), alternate=False)
        shift2, user2 = _user_series(1.0 + u / one_minus_vy, m_u, math.log(lambda2 * abs(w)), alternate=True)
        log_scale = log_front - f * y - r / one_minus_vy + shift1 + shift2
        jammed = jammed_ratio_pdf_rows(p_e, count, rho4, y)
        return log_scale, convolve_series(convolve_series(user1, user2), jammed)

    total = series_integral(1.0 / v, v, f, 1, 2 * m_u - 1 + p_e.m - 1, integrand, quad)
    return clamp_probability(jammed_table(p_e, count, rho4).phi0 * total)


def _conditional(params: SystemParams, policy: PowerPolicy, scheme: SchemeKind, quad: QuadratureSpec):
    """The scheme's conditional SOP as a function of n: combining is
    `sop_tmrc_cond`, a single candidate fails with 1 - delta1 (computed at
    most once) and a jammed one with 1 - delta4."""
    return SchemeKind(scheme).conditional(
        params.K,
        combined=lambda n: sop_tmrc_cond(params, policy, n, quad),
        single=lambda: 1.0 - delta1(params, policy, quad),
        jammed=lambda n: 1.0 - delta4(params, policy, n, quad),
    )


def sop_cond(params: SystemParams, policy: PowerPolicy, scheme: SchemeKind, n: int, quad: QuadratureSpec) -> float:
    """Outage probability given n decoding relays under the scheme."""
    return _conditional(params, policy, scheme, quad)(n)


def sop_total(
    params: SystemParams,
    policy: PowerPolicy,
    scheme: SchemeKind,
    quad: QuadratureSpec,
) -> SopResult:
    """Total SOP: mixture of the conditional SOPs over the decoding-set law."""
    pmf = decoding_set_pmf(params)
    cond = _conditional(params, policy, scheme, quad)
    total = sum(pmf[n] * cond(n) for n in range(params.K + 1))
    return SopResult(value=clamp_probability(float(total)), engine="analytic")
