"""High-gain asymptotics of the secrecy outage probability and diversity orders.

The regime scales the weak user's mean gain omega2 upward while keeping
omega1 = epsilon1*omega2 and omegaR = epsilon2*omega2 proportional. User-link
CDFs collapse to their leading power phi*x^tau, which turns every secrecy
integral into three user terms under the eavesdropper's gain law. Outage
probabilities are assembled directly as floor plus leading terms, never as
1 minus a value close to 1, so the tiny gaps above the outage floor survive
in double precision.

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
a single relay, or a jammed one. Each is one leading-order complement
(`_leading_complement`) under the exact engine's eavesdropper law for that
transmission (`channels.combined_law`, `channels.jammed_law`): the ceiling
mass (`_ceiling_mass`), which `sop_floor_cond` keeps alone, plus the
integral of three user terms (`_leading_integral`), summed at each
quadrature node and integrated once by the kernel both engines share
(`quadrature.series_integrals`). This engine supplies its user rows, the
leading terms (`_leading_user_rows`). No engine calls `g_kernel` or
`h_kernel`; both remain the per-term references of the complement.

The complement reads only its arguments, which the builder both engines
share forms (`params.transmission_args`). `sop_asym_total` runs the exact
engine's flow, plan, batch, one mixture: `_plan` lists each n's leading
integral and, under a fixed split, its ceiling mass, and each distinct one
is evaluated once per call or sweep, in batches that share the law's
density rows with the exact engine (`quadrature.law_rows`).
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    EavesdropperLaw,
    NakagamiParams,
    _is_count,
    jammed_ratio_terms,  # noqa: F401  (re-exported for bench/spans.py, which traces it here)
)
from .params import (
    PowerPolicy,
    SchemeConstants,
    SchemeKind,
    SystemParams,
    Transmission,
    clamp_probability,
    feasibility_check,
    transmission_args,
    transmission_plan,
)
from .quadrature import (
    QuadratureSpec,
    SeriesItem,
    _batched,
    _check_domain,
    _column,
    _evaluate,
    _shared,
    _sharing_scope,
    _signed_log_pow,
    g_kernel,  # noqa: F401  (re-exported for bench/spans.py, which traces it here)
    h_kernel,  # noqa: F401  (re-exported for bench/spans.py, which traces it here)
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


def _log_leading_coeff(rate: float, tau: int) -> float:
    """log phi = tau*log(rate) - log tau!, formed without phi, which underflows for a strong link."""
    return tau * math.log(rate) - math.lgamma(tau + 1)


def _leading_coeff(rate: float, tau: int) -> float:
    """Leading CDF coefficient phi = rate^tau / tau! of a Gamma(tau, rate) gain."""
    return math.exp(_log_leading_coeff(rate, tau))


def _leading_user_rows(users: list[tuple], x: np.ndarray) -> tuple[tuple[np.ndarray], np.ndarray]:
    """The three leading user terms of `_leading_integral` for each user
    constant tuple (tau_u, b, theta1, u, v, h, log phi1, log phi2*|c|^tau_u,
    sign of c^tau_u) at its row of nodes x, as series_rows (shift, rows):
    the shift is the one log term (`quadrature.series_integrals`).

    They do not depend on the eavesdropper's law, so a batch builds them
    once for every jammed decoding-set size, whose integrals differ only in
    the law's front and rows.
    """
    tau_u = users[0][0]
    b, theta1, u, v, h, log_phi1, log_phi2c, sign_phi2c = (_column(col) for col in list(zip(*users))[1:])
    one_minus_vx = 1.0 - v * x
    log_b, sign_b = _signed_log_pow(b + theta1 * x, tau_u)
    log_c, sign_c = _signed_log_pow(1.0 + u / one_minus_vx, tau_u)
    log_c = log_c - h / one_minus_vx
    # the domain cut counts degree p + q + law.degree for powers (p, q) of
    # (B, C), so the terms' rows sit at p + q - tau_u = 0, 0, tau_u
    shift, rows = series_rows(
        (0, 0, tau_u),
        np.stack([log_phi1 + log_b, log_phi2c + log_c, log_phi1 + log_phi2c + log_b + log_c]),
        np.stack([sign_b, sign_phi2c * sign_c, -sign_phi2c * sign_b * sign_c]),
        tau_u + 1,
    )
    return (shift,), rows


@_batched(_leading_user_rows)
def _leading_integral(
    user1: NakagamiParams,
    user2: NakagamiParams,
    theta1: float,
    consts: SchemeConstants,
    alpha2: float,
    tau_u: int,
    law: EavesdropperLaw,
    quad: QuadratureSpec,
) -> SeriesItem:
    """The securing part of `_leading_complement`: the law's integral below
    the ceiling of three user terms phi1*B^tau_u, phi2*c^tau_u*C^tau_u and
    -phi1*phi2*c^tau_u*B^tau_u*C^tau_u, with B = b + theta1*x and
    C = 1 + u/(1-vx). They are summed at each node, as
    `analytic._joint_secrecy_prob` sums its series, and integrated once. The
    function prepares the integral's `SeriesItem`; as a `_batched` integral
    it is evaluated once per argument tuple in a sharing scope, in batches.
    """
    _check_domain(consts.a, consts.v, "pole")
    b, c, u, v = consts.b, consts.c, consts.u, consts.v
    log_phi1 = _log_leading_coeff(user1.rate, tau_u)
    log_phi2c = _log_leading_coeff(user2.rate, tau_u) + tau_u * math.log(abs(c))
    sign_phi2c = math.copysign(1.0, c) ** tau_u
    # The exact integrand's screening factor e^{-h/(1-vx)} is kept on the two
    # terms that carry the weak user's (1-vx)^{-tau_u} endpoint pole: it tends
    # to 1 pointwise as omega2 grows, so the leading order is untouched, but
    # without it the quadrature blows up with the node count.
    h = consts.screening(user2.rate, alpha2)
    user = (tau_u, b, theta1, u, v, h, log_phi1, log_phi2c, sign_phi2c)
    return SeriesItem(consts.a, law.rate, law.log_front, law, law.degree + tau_u, tau_u + law.n_rows, user, quad)


@_shared
def _ceiling_mass(law: EavesdropperLaw, a: float) -> float:
    """P(X > a): the eavesdropper gain already beyond the ceiling."""
    return float(law.survival(a))


def _leading_complement(
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
    """Leading-order P(outage) of one transmission with Gamma(tau_u) user links
    at the rates of user1 and user2 when the eavesdropper's gain follows
    `law`, floor term first; with quad None, the floor term alone.

    The user CDFs collapse to phi*x^tau_u, so below the ceiling the outage
    mass is the law's integral of three user terms (`_leading_integral`);
    above it, the floor is the ceiling mass (`_ceiling_mass`).
    """
    floor = _ceiling_mass(law, consts.a) if include_floor else 0.0
    if quad is None:
        return floor
    return floor + _leading_integral(user1, user2, theta1, consts, alpha2, tau_u, law, quad)


def _conditional(
    params: SystemParams,
    policy: PowerPolicy,
    scheme: SchemeKind,
    quad: QuadratureSpec | None,
    include_floor: bool,
):
    """The scheme's leading-order conditional SOP on an already scaled
    scenario, as a function of n: each transmission's complement, certain
    outage under an infeasible split. With quad None only the floor terms
    are kept."""
    if feasibility_check(params, policy) is not None:
        return lambda n: 1.0

    def complement(sends: Transmission, n: int) -> float:
        args = transmission_args(params, policy, sends, n)
        return clamp_probability(_leading_complement(*args, quad, include_floor))

    return SchemeKind(scheme).conditional(
        params.K,
        combined=lambda n: complement(Transmission.COMBINED, n),
        single=lambda: complement(Transmission.SINGLE, 1),
        jammed=lambda n: complement(Transmission.JAMMED, n),
    )


def _decoding_miss(scaled: SystemParams) -> float:
    """The leading power phi_R*eta^mR of a relay's decoding miss, which must
    lie below 1 for the high-gain decoding weights (ValueError)."""
    m_r = scaled.links.source_relay.m
    miss = _leading_coeff(scaled.links.source_relay.rate, m_r) * scaled.eta**m_r
    if not miss < 1.0:
        raise ValueError(f"phi_R*eta^mR must lie below 1 for the high-gain decoding weights, got {miss:.6g}: "
                         "the source hop is not in the high-gain regime")
    return miss


def _plan(params: SystemParams, policy: PowerPolicy, scheme: SchemeKind, scaling: AsymptoticScaling,
          quad: QuadratureSpec) -> list:
    """What `sop_asym_total` reads at one point (`quadrature._evaluate`): each
    transmission's leading integral (`params.transmission_plan`) and, when
    the floor is kept, its ceiling mass. Raises where `_mixture` does."""
    scaled = scaled_params(params, scaling)
    _decoding_miss(scaled)
    plan = []
    for args in transmission_plan(scaled, policy, scheme):
        plan.append((_leading_integral, (*args, quad)))
        if not policy.is_dynamic:
            plan.append((_ceiling_mass, (args[-1], args[3].a)))  # the law and its ceiling
    return plan


def sop_asym_cond(
    params: SystemParams,
    policy: PowerPolicy,
    scheme: SchemeKind,
    n: int,
    scaling: AsymptoticScaling,
    quad: QuadratureSpec,
) -> float:
    """Asymptotic SOP given n decoding relays under the scheme: one
    complement, evaluated alone."""
    return _conditional(scaled_params(params, scaling), policy, scheme, quad, not policy.is_dynamic)(n)


def _mixture(
    params: SystemParams,
    policy: PowerPolicy,
    scheme: SchemeKind,
    scaling: AsymptoticScaling,
    quad: QuadratureSpec,
) -> float:
    """The body of `sop_asym_total`: the conditionals mixed over the leading decoding-set weights."""
    scaled = scaled_params(params, scaling)
    miss = _decoding_miss(scaled)
    cond = _conditional(scaled, policy, scheme, quad, not policy.is_dynamic)
    total = 0.0
    for n in range(scaled.K + 1):
        weight = math.comb(scaled.K, n) * miss ** (scaled.K - n)
        total += weight * cond(n)
    return clamp_probability(total)


def sop_asym_total(
    params: SystemParams,
    policy: PowerPolicy,
    scheme: SchemeKind,
    scaling: AsymptoticScaling,
    quad: QuadratureSpec,
) -> float:
    """Asymptotic total SOP: decoding-set weights collapse to their leading
    power, and each weighs the `sop_asym_cond` of its n. The leading power
    phi_R*eta^mR of a relay's decoding miss must lie below 1, or the source
    hop is not in the high-gain regime and the weights do not sum to a
    probability (ValueError). Plans, batches and mixes once, as `sop_total`
    does."""
    with _sharing_scope() as opened:
        if opened:
            _evaluate(_plan(params, policy, scheme, scaling, quad))
        return _mixture(params, policy, scheme, scaling, quad)


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
