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

Given the decoding-set size n, `sop_asym_cond` reads how the scheme's relays
transmit off its `SchemeKind` record, as the exact engine does: combining,
a single relay, or a jammed one each has a leading-order complement whose
first term is that ceiling mass, and `sop_floor_cond` keeps that term alone.
Mass and front come from the exact engine's eavesdropper laws (`channels`).

The combining complement's incomplete gammas all share one argument, so
they come from one running pass of the survival series, and its two
kernel integrals share all but one factor, so they take one node pass
(`g_kernel_pair`). No engine calls `g_kernel` or `h_kernel`; both remain
the per-term references of the complements.

Both complements read only their arguments: the user links, theta1, the
constants and law in force, alpha2 and the nodes. `sop_asym_total`,
`sop_asym_cond` and `sop_floor_cond` open a sharing scope
(`quadrature._sharing_scope`), so each distinct complement is evaluated once
per call, or once per sweep that opens the scope around its calls: the
single-relay complement serves every scheme and n that sends singly.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .channels import (  # noqa: F401  (jammed_ratio_terms re-exported: the per-term reference of _jammed_complement)
    EavesdropperLaw,
    NakagamiParams,
    _is_count,
    _survival_prefixes,
    jammed_ratio_terms,
)
from .params import (
    PowerPolicy,
    SchemeConstants,
    SchemeKind,
    SystemParams,
    Transmission,
    clamp_probability,
    combining_constants,
    feasibility_check,
    jamming_constants,
)
from .quadrature import (  # noqa: F401  (g_kernel, h_kernel re-exported: the per-term references of the complements)
    QuadratureSpec,
    _shared,
    _sharing_scope,
    _signed_log_pow,
    convolve_series,
    g_kernel,
    g_kernel_pair,
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
    links = params.links.on_frame(scaling.epsilon1, scaling.epsilon2, scaling.omega2)
    return dataclasses.replace(params, links=links)


def _lower_incomplete_gammas(s0: int, s1: int, x: float) -> list[float]:
    """Lower incomplete gammas (s-1)! * (1 - e^{-x} sum_{k<s} x^k/k!) at the
    integer shapes s = s0..s1, from one running pass of the survival series;
    each equals a pass that stops at s, bit for bit."""
    survival = _survival_prefixes(s1, x)[:, 0]
    return [math.factorial(s - 1) * (1.0 - survival[s - 1]).item() for s in range(s0, s1 + 1)]


def _leading_coeff(rate: float, tau: int) -> float:
    """Leading CDF coefficient phi = rate^tau / tau! of a Gamma(tau, rate) gain."""
    return math.exp(tau * math.log(rate) - math.lgamma(tau + 1))


@_shared
def _combined_complement(
    user1: NakagamiParams,
    user2: NakagamiParams,
    theta1: float,
    consts: SchemeConstants,
    alpha2: float,
    tau_u: int,
    law: EavesdropperLaw,
    quad: QuadratureSpec | None,
    include_floor: bool,
) -> float:
    """Leading-order P(outage | n) when n relays combine (user shapes tau_u =
    n*m_U, constants and law of `combining_constants`), floor term first;
    with quad None, the floor term alone."""
    a, b, c, q, r = consts.a, consts.b, consts.c, consts.v, consts.u
    floor = float(law.survival(a)) if include_floor else 0.0
    if quad is None:
        return floor
    tau_e, lam_e, beta_e = law.degree, law.rate, law.front
    phi1 = _leading_coeff(user1.rate, tau_u)
    phi2 = _leading_coeff(user2.rate, tau_u)
    gammas = _lower_incomplete_gammas(tau_e, tau_e + tau_u, lam_e * a)
    t1 = sum(
        math.comb(tau_u, k) * theta1**k * b ** (tau_u - k) * gammas[k] / lam_e ** (k + tau_e)
        for k in range(tau_u + 1)
    )
    # The exact kernel's screening factor e^{-h/(1-qx)} is kept: it tends to
    # 1 pointwise as omega2 grows, so the leading order is untouched, but
    # without it the integrand's (1-qx)^{-tau_u} endpoint pole makes the
    # quadrature blow up with the node count.
    h_screen = consts.screening(user2.rate, alpha2)
    g2, g3 = g_kernel_pair(a, tau_e, theta1 / b, r, q, lam_e, h_screen, tau_u, tau_u, quad)
    return (
        floor
        + phi1 * beta_e * t1
        + phi2 * beta_e * c**tau_u * g2
        - phi1 * phi2 * beta_e * b**tau_u * c**tau_u * g3
    )


@_shared
def _jammed_complement(
    user1: NakagamiParams,
    user2: NakagamiParams,
    theta1: float,
    consts: SchemeConstants,
    alpha2: float,
    law: EavesdropperLaw,
    quad: QuadratureSpec | None,
    include_floor: bool,
) -> float:
    """Leading-order per-relay outage probability 1 - delta4 (constants and
    law of `jamming_constants`), floor term first; with quad None, the floor
    term alone."""
    a, b, c, u, v = consts.a, consts.b, consts.c, consts.u, consts.v
    floor = float(law.survival(a)) if include_floor else 0.0
    if quad is None:
        return floor
    m_u = user1.m
    lam_e = law.rate
    phi3 = _leading_coeff(user1.rate, m_u)
    phi4 = _leading_coeff(user2.rate, m_u)
    # The same screening factor as in the combining complement keeps the
    # y -> a endpoint integrable.
    h_screen = consts.screening(user2.rate, alpha2)
    # The three user terms phi3*B^m, phi4*c^m*C^m and -phi3*phi4*c^m*B^m*C^m
    # (B = b + theta1*y, C = 1 + u/(1-vy), m = m_u) are h-kernels with
    # powers (p, q) = (m, 0), (0, m), (m, m); the domain cut counts degree
    # p + q + k + 1, so their rows sit at p + q - m = 0, 0, m.
    phi4c = phi4 * c**m_u
    log_phi3, log_phi4c, sign_phi4c = math.log(phi3), math.log(abs(phi4c)), math.copysign(1.0, phi4c)

    def integrand(y):
        one_minus_vy = 1.0 - v * y
        log_b, sign_b = _signed_log_pow(b + theta1 * y, m_u)
        log_c, sign_c = _signed_log_pow(1.0 + u / one_minus_vy, m_u)
        shift, user = series_rows(
            (0, 0, m_u),
            np.stack([log_phi3 + log_b, log_phi4c + log_c, log_phi3 + log_phi4c + log_b + log_c]),
            np.stack([sign_b, sign_phi4c * sign_c, -sign_phi4c * sign_b * sign_c]),
            m_u + 1,
        )
        log_scale = -lam_e * y - h_screen / one_minus_vy + shift
        return log_scale, convolve_series(user, law.rows(y))

    return floor + law.front * series_integral(a, v, lam_e, m_u + 1, m_u + law.n_rows, integrand, quad)


def _conditional(
    params: SystemParams,
    policy: PowerPolicy,
    scheme: SchemeKind,
    quad: QuadratureSpec | None,
    include_floor: bool,
):
    """The scheme's leading-order conditional SOP on an already scaled
    scenario, as a function of n. Feasibility and the split are worked out
    once per call, not once per n. With quad None only the floor terms are
    kept. Call it inside a sharing scope, which evaluates the single-relay
    complement once for every n."""
    scheme = SchemeKind(scheme)
    if feasibility_check(params, policy) is not None:
        return lambda n: 1.0
    alpha1, alpha2 = policy.resolve(params.links)
    links, theta1 = params.links, params.theta1

    def combined(n: int) -> float:
        consts, law = combining_constants(params, alpha1, alpha2, n)
        return clamp_probability(_combined_complement(
            links.relay_user1, links.relay_user2, theta1, consts, alpha2, n * links.m_u, law, quad, include_floor
        ))

    def jammed(n: int) -> float:
        consts, law = jamming_constants(params, policy.alphaJ, alpha1, alpha2, n)
        return clamp_probability(_jammed_complement(
            links.relay_user1, links.relay_user2, theta1, consts, alpha2, law, quad, include_floor
        ))

    return scheme.conditional(params.K, combined=combined, single=lambda: combined(1), jammed=jammed)


@_sharing_scope()
def sop_asym_cond(
    params: SystemParams,
    policy: PowerPolicy,
    scheme: SchemeKind,
    n: int,
    scaling: AsymptoticScaling,
    quad: QuadratureSpec,
) -> float:
    """Asymptotic SOP given n decoding relays under the scheme."""
    return _conditional(scaled_params(params, scaling), policy, scheme, quad, not policy.is_dynamic)(n)


@_sharing_scope()
def sop_asym_total(
    params: SystemParams,
    policy: PowerPolicy,
    scheme: SchemeKind,
    scaling: AsymptoticScaling,
    quad: QuadratureSpec,
) -> float:
    """Asymptotic total SOP: decoding-set weights collapse to their leading
    power, and each weighs the `sop_asym_cond` of its n."""
    scaled = scaled_params(params, scaling)
    cond = _conditional(scaled, policy, scheme, quad, not policy.is_dynamic)
    m_r = scaled.links.source_relay.m
    phi_r = _leading_coeff(scaled.links.source_relay.rate, m_r)
    eta = scaled.eta
    total = 0.0
    for n in range(scaled.K + 1):
        weight = math.comb(scaled.K, n) * (phi_r * eta**m_r) ** (scaled.K - n)
        total += weight * cond(n)
    return clamp_probability(total)


@_sharing_scope()
def sop_floor_cond(params: SystemParams, policy: PowerPolicy, scheme: SchemeKind, n: int) -> float:
    """The conditional SOP's high-gain floor: the securing terms vanish with the
    user-link coefficients and only the eavesdropper-side mass above the
    ceiling a survives, i.e. each complement's floor term."""
    return _conditional(params, policy, scheme, None, True)(n)


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
            if not _is_count(val):
                raise ValueError(f"{name} must be a positive integer, got {val!r}")
        if self.varpi is not None and not 0 < self.varpi < 1:
            raise ValueError(f"varpi must lie in (0,1), got {self.varpi!r}")


def sdo(scheme: SchemeKind, inputs: SdoInputs) -> float:
    """Secrecy diversity order: -log-log slope of the SOP versus omega2."""
    scheme = SchemeKind(scheme)
    if inputs.varpi is None:
        return 0.0
    k, m_r, m_u, varpi = inputs.K, inputs.m_r, inputs.m_u, inputs.varpi
    if scheme.sends is not Transmission.JAMMED:
        return k * min(m_u * (1.0 - varpi), m_r)
    return min(
        k * m_r,
        (k - 1) * (m_u * (1.0 - varpi) - varpi) + m_r,
        k * m_u * (1.0 - varpi),
    )
