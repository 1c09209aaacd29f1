"""High-gain asymptotics of the secrecy outage probability and diversity orders.

The regime scales the weak user's mean gain omega2 upward while keeping
omega1 = epsilon1*omega2 and omegaR = epsilon2*omega2 proportional. User-link
CDFs collapse to their leading power phi*x^tau, which turns every secrecy
integral into three user terms under the eavesdropper's gain law. Outage
probabilities are assembled directly as floor plus leading terms, never as
1 minus a value close to 1, so the tiny gaps above the outage floor survive
in double precision.

The eavesdropper-ceiling mass (the chance the eavesdropper gain already
exceeds the weak user's SINR ceiling) is kept or dropped by the power
policy. Under a fixed split the ceiling is pinned, the mass is a constant,
and it is the leading term: the SOP floor. Under the dynamic rule the
ceiling recedes with omega2 and the mass decays faster than any power, so
it is omitted there: at finite omega2 it would bury the power-law decay the
diversity order describes.

The schemes mix as in the exact engine (`params.conditional`,
`params.mixture`), and this engine supplies each transmission's outage
(`_outage`) at leading order under the exact engine's eavesdropper law: the
ceiling mass (`_ceiling_mass`), which `sop_floor_cond` keeps alone, plus the
integral of three user terms (`_leading_integral`, from this engine's user
rows `_leading_user_rows`) in the kernel both engines share
(`quadrature.series_integrals`).

`sop_asym_total` runs the exact engine's flow, plan, batch, one mixture:
`_plan` moves the point onto the scaling frame once (`scaled_params`) and
names its leading decoding weights ("weights") and each transmission's
leading integral and ceiling mass (0.0 where a term is not kept), for one
scheme or, in a sweep, all (`params.transmission_plan`); the mixture only
reads their values (`quadrature._evaluate`).
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import partial

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
    conditional,
    mixture,
    transmission_plan,
)
from .quadrature import (
    BatchedIntegral,
    QuadratureSpec,
    SeriesItem,
    _check_domain,
    _column,
    _evaluate,
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
    the law's front and row.
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


@partial(BatchedIntegral, user_rows=_leading_user_rows)
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
    """A transmission's leading-order outage below the ceiling (`_outage`):
    the law's integral of three user terms phi1*B^tau_u, phi2*c^tau_u*C^tau_u
    and -phi1*phi2*c^tau_u*B^tau_u*C^tau_u, with B = b + theta1*x and
    C = 1 + u/(1-vx). They are summed at each node, as
    `analytic._joint_secrecy_prob` sums its series, and integrated once. The
    function prepares the integral's `SeriesItem`; as a `BatchedIntegral`
    it is evaluated once per argument tuple of an `_evaluate` call, in batches.
    """
    consts.check_finite()
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
    return SeriesItem(consts.a, law.rate, law.log_front, law, law.degree + tau_u, tau_u + 1, user, quad)


def _ceiling_mass(law: EavesdropperLaw, consts: SchemeConstants) -> float:
    """P(X > a): the eavesdropper gain already beyond the ceiling."""
    consts.check_finite()
    return float(law.survival(consts.a))


def _outage(params: SystemParams, policy: PowerPolicy, quad: QuadratureSpec | None, include_floor: bool,
            values: dict | None, sends: Transmission, n: int) -> float:
    """The outage of `params.conditional` on an already scaled scenario: the
    transmission's ceiling mass plus its leading integral, read by name from
    values or, with values None, from its own plan, which keeps the floor
    with include_floor and the integral unless quad is None."""
    if values is None:
        [values] = _evaluate([_plan(params, policy, [(sends, n)], quad, include_floor)])
    return clamp_probability(values[("ceiling", sends, n)] + values[(sends, n)])


def _decoding_miss(scaled: SystemParams) -> float:
    """The leading power phi_R*eta^mR of a relay's decoding miss, which must
    lie below 1 for the high-gain decoding weights (ValueError)."""
    m_r = scaled.links.source_relay.m
    miss = _leading_coeff(scaled.links.source_relay.rate, m_r) * scaled.eta**m_r
    if not miss < 1.0:
        raise ValueError(f"phi_R*eta^mR must lie below 1 for the high-gain decoding weights, got {miss:.6g}: "
                         "the source hop is not in the high-gain regime")
    return miss


def _decoding_weights(scaled: SystemParams) -> tuple[float, ...]:
    """The leading decoding-set weights C(K,n)*miss^(K-n), n = 0..K (`_decoding_miss`)."""
    miss = _decoding_miss(scaled)
    return tuple(math.comb(scaled.K, n) * miss ** (scaled.K - n) for n in range(scaled.K + 1))


def _plan(params: SystemParams, policy: PowerPolicy, reads, quad: QuadratureSpec | None, include_floor: bool,
          scaling: AsymptoticScaling | None = None) -> dict:
    """What `_outage` reads at one point, by name (`quadrature._evaluate`):
    for each (sends, size) of reads, names or schemes (`params.transmission_plan`),
    its leading integral, unless quad is None, and as ("ceiling", sends, size)
    its ceiling mass, if include_floor; a term not kept is (float, (0.0,)), the
    constant 0.0, and an infeasible split's ceiling mass is 1.0, certain outage.
    With scaling, the point is params moved onto it, once, and "weights" names
    its leading decoding weights (`_decoding_weights`), which `_mixture` reads."""
    plan = {}
    if scaling is not None:
        params = scaled_params(params, scaling)
        plan["weights"] = (_decoding_weights, (params,))
    for name, args in transmission_plan(params, policy, reads).items():
        if args is None:
            plan[name], plan[("ceiling", *name)] = (float, (0.0,)), (float, (1.0,))
            continue
        plan[name] = (float, (0.0,)) if quad is None else (_leading_integral, (*args, quad))
        plan[("ceiling", *name)] = (_ceiling_mass, (args[-1], args[3])) if include_floor else (float, (0.0,))
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
    transmission's outage, planned and evaluated alone."""
    outage = partial(_outage, scaled_params(params, scaling), policy, quad, not policy.is_dynamic, None)
    return conditional(SchemeKind(scheme), n, params.K, outage)


def _mixture(params: SystemParams, policy: PowerPolicy, scheme: SchemeKind, quad: QuadratureSpec,
             values: dict) -> float:
    """The body of `sop_asym_total`: the conditionals mixed over the leading
    decoding-set weights, all read from values by name."""
    outage = partial(_outage, params, policy, quad, not policy.is_dynamic, values)
    return clamp_probability(mixture(values["weights"], SchemeKind(scheme), outage))


def sop_asym_total(params: SystemParams, policy: PowerPolicy, scheme: SchemeKind, scaling: AsymptoticScaling,
                   quad: QuadratureSpec, *, values: dict | None = None) -> float:
    """Asymptotic total SOP: decoding-set weights collapse to their leading
    power, and each weighs the `sop_asym_cond` of its n. The leading power
    phi_R*eta^mR of a relay's decoding miss must lie below 1, or the source
    hop is not in the high-gain regime and the weights do not sum to a
    probability (ValueError). Plans, batches and mixes once, or mixes the
    values a sweep passes, planned on scaling, as `sop_total` does."""
    if values is None:
        [values] = _evaluate([_plan(params, policy, scheme, quad, not policy.is_dynamic, scaling)])
    return _mixture(params, policy, scheme, quad, values)


def sop_floor_cond(params: SystemParams, policy: PowerPolicy, scheme: SchemeKind, n: int) -> float:
    """The conditional SOP's high-gain floor: the securing terms vanish with the
    user-link coefficients and only the eavesdropper-side mass above the
    ceiling a survives, i.e. each transmission's ceiling mass."""
    return conditional(SchemeKind(scheme), n, params.K, partial(_outage, params, policy, None, True, None))


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
