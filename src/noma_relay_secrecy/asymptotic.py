"""High-gain asymptotics of the secrecy outage probability and diversity orders.

The regime scales the weak user's mean gain omega2 upward while keeping
omega1 = epsilon1*omega2 and omegaR = epsilon2*omega2 proportional. User-link
CDFs collapse to their leading power phi*x^tau, which turns every secrecy
integral into a handful of incomplete-gamma terms and endpoint-screened
kernels. Complements (securing probabilities) are assembled directly, never
as 1 minus a value close to 1, so the tiny gaps above the outage floor
survive in double precision.

The eavesdropper-ceiling mass (the chance the eavesdropper gain already
exceeds the weak user's SINR ceiling) is kept or dropped depending on the
power policy. Under a fixed split the ceiling is pinned, that mass is a
constant, and it is the leading term: the SOP floor. Under the dynamic rule
the ceiling recedes with omega2 and the mass decays faster than any power,
so at leading order only the polynomial terms remain; evaluating the ceiling
mass at finite omega2 would bury the power-law decay the diversity order
describes, hence it is omitted on the dynamic branch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (  # noqa: F401  (jammed_ratio_terms re-exported: the per-term reference of _odrs_complement)
    NakagamiParams,
    _survival_series,
    gain_survival,
    jammed_ratio_pdf_rows,
    jammed_ratio_survival,
    jammed_ratio_terms,
    mrc_sum_survival,
)
from .params import (
    LinkSet,
    PowerPolicy,
    SchemeKind,
    SystemParams,
    dpa_coefficients,  # noqa: F401  (re-exported: the DPA rule belongs to this API too)
    feasibility_check,
    scheme_constants,
)
from .quadrature import (  # noqa: F401  (h_kernel re-exported: the per-term reference of _odrs_complement)
    QuadratureSpec,
    _signed_log_pow,
    convolve_series,
    g_kernel,
    h_kernel,
    series_integral,
    series_rows,
)


@dataclass(frozen=True)
class AsymptoticScaling:
    """Gain-scaling frame: omega2 is the sweep variable, epsilon1/epsilon2 the ratios."""

    epsilon1: float
    epsilon2: float
    omega2: float

    def __post_init__(self) -> None:
        if not self.epsilon1 > 1:
            raise ValueError(f"epsilon1 must exceed 1, got {self.epsilon1!r}")
        if not self.epsilon2 > 0:
            raise ValueError(f"epsilon2 must be positive, got {self.epsilon2!r}")
        if not self.omega2 > 0:
            raise ValueError(f"omega2 must be positive, got {self.omega2!r}")


def scaled_params(params: SystemParams, scaling: AsymptoticScaling) -> SystemParams:
    """The scenario with its gains moved onto the scaling frame."""
    links = params.links
    new_links = LinkSet(
        source_relay=NakagamiParams(links.source_relay.m, scaling.epsilon2 * scaling.omega2),
        relay_user1=NakagamiParams(links.relay_user1.m, scaling.epsilon1 * scaling.omega2),
        relay_user2=NakagamiParams(links.relay_user2.m, scaling.omega2),
        relay_eaves=links.relay_eaves,
    )
    return SystemParams(
        K=params.K,
        links=new_links,
        P_S=params.P_S,
        P_R=params.P_R,
        sigma2=params.sigma2,
        R1_th=params.R1_th,
        R2_th=params.R2_th,
        R1_s=params.R1_s,
        R2_s=params.R2_s,
    )


def lower_incomplete_gamma(s: int, x: float) -> float:
    """Lower incomplete gamma at integer shape: (s-1)! * (1 - e^{-x} sum x^k/k!)."""
    if int(s) != s or s < 1:
        raise ValueError(f"shape s must be a positive integer, got {s!r}")
    return math.factorial(int(s) - 1) * (1.0 - _survival_series(int(s), x)).item()


def _leading_coeff(rate: float, tau: int) -> float:
    """Leading CDF coefficient phi = rate^tau / tau! of a Gamma(tau, rate) gain."""
    return math.exp(tau * math.log(rate) - math.lgamma(tau + 1))


def asym_gain_cdf(params: SystemParams, scaling: AsymptoticScaling, user: int, n: int, x) -> float:
    """Leading-order CDF phi_v * x^{tau_U} of user v's combined gain on the scaling frame."""
    if user not in (1, 2):
        raise ValueError(f"user must be 1 or 2, got {user!r}")
    m_u = params.links.m_u
    tau_u = n * m_u
    omega = (scaling.epsilon1 if user == 1 else 1.0) * scaling.omega2
    return _leading_coeff(m_u / omega, tau_u) * x**tau_u


def _tmrc_complement(
    params: SystemParams,
    alpha1: float,
    alpha2: float,
    n: int,
    quad: QuadratureSpec,
    include_floor: bool,
) -> float:
    """Leading-order P(outage | n) for all-relay combining, floor term first."""
    links = params.links
    rho1 = params.P_R / (n * params.sigma2)
    consts = scheme_constants(params.theta1, params.theta2, alpha1, alpha2, rho1)
    tau_u = n * links.m_u
    tau_e = n * links.relay_eaves.m
    lam_e = links.relay_eaves.rate
    phi1 = _leading_coeff(links.relay_user1.rate, tau_u)
    phi2 = _leading_coeff(links.relay_user2.rate, tau_u)
    beta_e = math.exp(tau_e * math.log(lam_e) - math.lgamma(tau_e))
    a, b, c, d, e = consts.a, consts.b, consts.c, consts.d, consts.e
    r = alpha2 / (c * d)
    q = e / d
    theta1 = params.theta1
    floor = float(mrc_sum_survival(links.relay_eaves, n, a)) if include_floor else 0.0
    t1 = sum(
        math.comb(tau_u, k) * theta1**k * b ** (tau_u - k)
        * lower_incomplete_gamma(k + tau_e, lam_e * a) / lam_e ** (k + tau_e)
        for k in range(tau_u + 1)
    )
    # The exact kernel's screening exponent h = lambda2*alpha2/d is kept: it
    # tends to 1 pointwise as omega2 grows, so the leading order is untouched,
    # but without it the integrand's (1-qx)^{-tau_u} endpoint pole makes the
    # quadrature blow up with the node count.
    h_screen = links.relay_user2.rate * alpha2 / d
    g2 = g_kernel(a, tau_e, 0.0, r, q, lam_e, h_screen, 0, tau_u, quad)
    g3 = g_kernel(a, tau_e, theta1 / b, r, q, lam_e, h_screen, tau_u, tau_u, quad)
    return (
        floor
        + phi1 * beta_e * t1
        + phi2 * beta_e * c**tau_u * g2
        - phi1 * phi2 * beta_e * b**tau_u * c**tau_u * g3
    )


def sop_tmrc_asym_cond(
    params: SystemParams,
    policy: PowerPolicy,
    n: int,
    scaling: AsymptoticScaling,
    quad: QuadratureSpec,
) -> float:
    """Asymptotic conditional SOP under all-relay combining."""
    if n < 1:
        raise ValueError("n must be >= 1; the empty decoding set is certain outage")
    scaled = scaled_params(params, scaling)
    if feasibility_check(scaled, policy) is not None:
        return 1.0
    alpha1, alpha2 = policy.resolve(scaled.links)
    comp = _tmrc_complement(scaled, alpha1, alpha2, n, quad, include_floor=not policy.is_dynamic)
    return min(max(comp, 0.0), 1.0)


def delta1_asym(
    params: SystemParams,
    policy: PowerPolicy,
    scaling: AsymptoticScaling,
    quad: QuadratureSpec,
) -> float:
    """Leading-order per-relay securing probability."""
    scaled = scaled_params(params, scaling)
    if feasibility_check(scaled, policy) is not None:
        return 0.0
    alpha1, alpha2 = policy.resolve(scaled.links)
    comp = _tmrc_complement(scaled, alpha1, alpha2, 1, quad, include_floor=not policy.is_dynamic)
    return min(max(1.0 - comp, 0.0), 1.0)


def sop_osrs_asym_cond(
    params: SystemParams,
    policy: PowerPolicy,
    n: int,
    scaling: AsymptoticScaling,
    quad: QuadratureSpec,
) -> float:
    """Asymptotic conditional SOP under best-single-relay selection: (1-delta1)^n."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n!r}")
    if n == 0:
        return 1.0
    scaled = scaled_params(params, scaling)
    if feasibility_check(scaled, policy) is not None:
        return 1.0
    alpha1, alpha2 = policy.resolve(scaled.links)
    comp = _tmrc_complement(scaled, alpha1, alpha2, 1, quad, include_floor=not policy.is_dynamic)
    return min(max(comp, 0.0), 1.0) ** n


def _odrs_complement(
    params: SystemParams,
    policy: PowerPolicy,
    alpha1: float,
    alpha2: float,
    n: int,
    quad: QuadratureSpec,
    include_floor: bool,
) -> float:
    """Leading-order per-relay outage probability 1 - delta4, floor term first."""
    links = params.links
    rho3 = (1.0 - policy.alphaJ) * params.rho2
    rho4 = policy.alphaJ * params.rho2
    consts = scheme_constants(params.theta1, params.theta2, alpha1, alpha2, rho3)
    m_u = links.m_u
    p_e = links.relay_eaves
    lam_e = p_e.rate
    phi3 = _leading_coeff(links.relay_user1.rate, m_u)
    phi4 = _leading_coeff(links.relay_user2.rate, m_u)
    ell, w, u, v = consts.ell, consts.w, consts.u, consts.v
    count = params.K - n
    phi0 = count * lam_e**p_e.m / math.factorial(p_e.m - 1)
    floor = float(jammed_ratio_survival(p_e, count, rho4, 1.0 / v)) if include_floor else 0.0
    # r_screen plays the same role as h_screen in the no-jamming cases: the
    # exact kernel's exp(-r/(1-vy)) survives here to keep the y -> 1/v
    # endpoint integrable; it tends to 1 pointwise as omega2 grows.
    r_screen = links.relay_user2.rate * w * u
    # The three user terms phi3*B^m, phi4*w^m*C^m and -phi3*phi4*w^m*B^m*C^m
    # (B = ell + theta1*y, C = 1 + u/(1-vy), m = m_u) are h-kernels with
    # powers (b, c) = (m, 0), (0, m), (m, m); the domain cut counts degree
    # b + c + k + 1, so their rows sit at b + c - m = 0, 0, m.
    c_w = phi4 * w**m_u
    log_phi3, log_cw, sign_cw = math.log(phi3), math.log(abs(c_w)), math.copysign(1.0, c_w)

    def integrand(y):
        one_minus_vy = 1.0 - v * y
        log_b, sign_b = _signed_log_pow(ell + params.theta1 * y, m_u)
        log_c, sign_c = _signed_log_pow(1.0 + u / one_minus_vy, m_u)
        shift, user = series_rows(
            (0, 0, m_u),
            np.stack([log_phi3 + log_b, log_cw + log_c, log_phi3 + log_cw + log_b + log_c]),
            np.stack([sign_b, sign_cw * sign_c, -sign_cw * sign_b * sign_c]),
            m_u + 1,
        )
        log_scale = -lam_e * y - r_screen / one_minus_vy + shift
        return log_scale, convolve_series(user, jammed_ratio_pdf_rows(p_e, count, rho4, y))

    return floor + phi0 * series_integral(1.0 / v, v, lam_e, m_u + 1, m_u + p_e.m, integrand, quad)


def delta4_asym(
    params: SystemParams,
    policy: PowerPolicy,
    n: int,
    scaling: AsymptoticScaling,
    quad: QuadratureSpec,
) -> float:
    """Leading-order per-relay securing probability under jamming; needs n < K."""
    if n >= params.K:
        raise ValueError("n must be below K: the jamming relay comes from the idle set")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    scaled = scaled_params(params, scaling)
    if feasibility_check(scaled, policy) is not None:
        return 0.0
    alpha1, alpha2 = policy.resolve(scaled.links)
    comp = _odrs_complement(scaled, policy, alpha1, alpha2, n, quad, include_floor=not policy.is_dynamic)
    return min(max(1.0 - comp, 0.0), 1.0)


def sop_odrs_asym_cond(
    params: SystemParams,
    policy: PowerPolicy,
    n: int,
    scaling: AsymptoticScaling,
    quad: QuadratureSpec,
) -> float:
    """Asymptotic conditional SOP under dual selection: (1-delta4)^n, n=K degenerates."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n!r}")
    if n == 0:
        return 1.0
    if n == params.K:
        return sop_osrs_asym_cond(params, policy, n, scaling, quad)
    scaled = scaled_params(params, scaling)
    if feasibility_check(scaled, policy) is not None:
        return 1.0
    alpha1, alpha2 = policy.resolve(scaled.links)
    comp = _odrs_complement(scaled, policy, alpha1, alpha2, n, quad, include_floor=not policy.is_dynamic)
    return min(max(comp, 0.0), 1.0) ** n


def sop_asym_total(
    params: SystemParams,
    policy: PowerPolicy,
    scheme: SchemeKind,
    scaling: AsymptoticScaling,
    quad: QuadratureSpec,
) -> float:
    """Asymptotic total SOP: decoding-set weights collapse to their leading power.

    The per-n conditionals are those of `sop_*_asym_cond`; the scaled
    scenario, its feasibility, the split and the single-relay complement
    are worked out once here rather than once per n.
    """
    scheme = SchemeKind(scheme)
    scaled = scaled_params(params, scaling)
    m_r = scaled.links.source_relay.m
    phi_r = _leading_coeff(scaled.links.source_relay.rate, m_r)
    eta = scaled.eta
    feasible = feasibility_check(scaled, policy) is None
    if feasible:
        alpha1, alpha2 = policy.resolve(scaled.links)
        include_floor = not policy.is_dynamic
        if scheme is not SchemeKind.TMRC:
            single = min(max(_tmrc_complement(scaled, alpha1, alpha2, 1, quad, include_floor), 0.0), 1.0)
    total = 0.0
    for n in range(scaled.K + 1):
        weight = math.comb(scaled.K, n) * (phi_r * eta**m_r) ** (scaled.K - n)
        if n == 0 or not feasible:
            cond = 1.0
        elif scheme is SchemeKind.TMRC:
            comp = _tmrc_complement(scaled, alpha1, alpha2, n, quad, include_floor)
            cond = min(max(comp, 0.0), 1.0)
        elif scheme in (SchemeKind.OSRS, SchemeKind.TSRS) or n == scaled.K:
            cond = single**n
        else:
            comp = _odrs_complement(scaled, policy, alpha1, alpha2, n, quad, include_floor)
            cond = min(max(comp, 0.0), 1.0) ** n
        total += weight * cond
    return min(max(total, 0.0), 1.0)


def sop_floor_cond(params: SystemParams, policy: PowerPolicy, scheme: SchemeKind, n: int) -> float:
    """The conditional SOP's high-gain floor: the securing terms vanish with the
    user-link coefficients and only the eavesdropper-side mass above the
    ceiling a survives."""
    scheme = SchemeKind(scheme)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    if feasibility_check(params, policy) is not None:
        return 1.0
    alpha1, alpha2 = policy.resolve(params.links)
    links = params.links
    if scheme is SchemeKind.TMRC:
        rho1 = params.P_R / (n * params.sigma2)
        consts = scheme_constants(params.theta1, params.theta2, alpha1, alpha2, rho1)
        return float(mrc_sum_survival(links.relay_eaves, n, consts.a))
    if scheme is SchemeKind.ODRS and n < params.K:
        rho3 = (1.0 - policy.alphaJ) * params.rho2
        rho4 = policy.alphaJ * params.rho2
        consts = scheme_constants(params.theta1, params.theta2, alpha1, alpha2, rho3)
        tail = float(jammed_ratio_survival(links.relay_eaves, params.K - n, rho4, 1.0 / consts.v))
        return tail**n
    consts = scheme_constants(params.theta1, params.theta2, alpha1, alpha2, params.rho2)
    return float(gain_survival(links.relay_eaves, consts.a)) ** n


def sop_floor_total(params: SystemParams, policy: PowerPolicy, scheme: SchemeKind) -> float:
    """High-gain floor of the total SOP: all relays decode, so n = K."""
    return sop_floor_cond(params, policy, scheme, params.K)


@dataclass(frozen=True)
class SdoInputs:
    """Inputs of the secrecy-diversity-order formulas.

    varpi None means fixed power allocation; any fixed split pins the weak
    user's SINR ceiling, so the SOP floors out and the order is zero.
    """

    K: int
    m_r: int
    m_u: int
    varpi: float | None = None

    def __post_init__(self) -> None:
        for name in ("K", "m_r", "m_u"):
            val = getattr(self, name)
            if int(val) != val or val < 1:
                raise ValueError(f"{name} must be a positive integer, got {val!r}")
        if self.varpi is not None and not 0 < self.varpi < 1:
            raise ValueError(f"varpi must lie in (0,1), got {self.varpi!r}")


def sdo(scheme: SchemeKind, inputs: SdoInputs) -> float:
    """Secrecy diversity order: -log-log slope of the SOP versus omega2."""
    scheme = SchemeKind(scheme)
    if inputs.varpi is None:
        return 0.0
    k, m_r, m_u, varpi = inputs.K, inputs.m_r, inputs.m_u, inputs.varpi
    if scheme in (SchemeKind.TMRC, SchemeKind.OSRS, SchemeKind.TSRS):
        return k * min(m_u * (1.0 - varpi), m_r)
    return min(
        k * m_r,
        (k - 1) * (m_u * (1.0 - varpi) - varpi) + m_r,
        k * m_u * (1.0 - varpi),
    )
