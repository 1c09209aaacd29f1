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
policy, a rule that lives in `_plan` alone. Under a fixed split the
ceiling is pinned, the mass is a constant, and it is the leading term: the
SOP floor. Under the dynamic rule the ceiling recedes with omega2 and the
mass decays faster than any power, so it is omitted there: at finite
omega2 it would bury the power-law decay the diversity order describes.

The schemes mix as in the exact engine (`params.mixture`), and this engine
supplies each transmission's outage (`_outage`) at leading order under the
exact engine's eavesdropper law: the ceiling mass (`_ceiling_mass`) plus the
integral of three user terms (`_leading_integral`, from this engine's user
rows `_leading_user_rows`) in the kernel both engines share
(`quadrature.series_integrals`). The floor (`sop_floor_total`) reads the
ceiling mass of row K of the read table (`params.read_table`) directly,
with no plan.

`sop_asym_total` runs the exact engine's flow, plan, batch, one mixture:
it moves the point onto the scaling frame once (`scaled_params`), and
`_plan` names the point's leading decoding weights ("weights") and each
transmission's leading integral and ceiling mass, for one scheme or, in a
sweep, all (`params.transmission_plan`); the mixture only reads their
values (`quadrature._evaluate`).
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
    mixture,
    read_table,
    transmission_plan,
)
from .quadrature import (
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
    function returns the integral's `SeriesItem`, with this engine's
    `_leading_user_rows`, which `_evaluate` batches.
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
    return SeriesItem(consts.a, law.rate, law.log_front, law, law.degree + tau_u, tau_u + 1, user,
                      _leading_user_rows, quad)


def _ceiling_mass(law: EavesdropperLaw, consts: SchemeConstants) -> float:
    """P(X > a): the eavesdropper gain already beyond the ceiling."""
    consts.check_finite()
    return float(law.survival(consts.a))


def _outage(params: SystemParams, policy: PowerPolicy, quad: QuadratureSpec, values: dict,
            sends: Transmission, n: int) -> float:
    """The outage `params.mixture` reads, on an already scaled scenario: the
    transmission's ceiling mass plus its leading integral, read by name from
    the values of a `_plan`."""
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


def _plan(params: SystemParams, policy: PowerPolicy, reads, quad: QuadratureSpec) -> dict:
    """What the readers read at one point already on its scaling frame, by
    name (`quadrature._evaluate`): "weights", its leading decoding weights
    (`_decoding_weights`), and for each (sends, size) of reads, names or
    schemes (`params.transmission_plan`), its leading integral and, as
    ("ceiling", sends, size), its ceiling mass. The mass is kept unless the
    split is dynamic, where it is (float, (0.0,)), the constant 0.0; under an
    infeasible split the integral is 0.0 and the mass 1.0, certain outage."""
    plan = {"weights": (_decoding_weights, (params,))}
    for name, args in transmission_plan(params, policy, reads).items():
        if args is None:
            plan[name], plan[("ceiling", *name)] = (float, (0.0,)), (float, (1.0,))
            continue
        plan[name] = (_leading_integral, (*args, quad))
        plan[("ceiling", *name)] = (float, (0.0,)) if policy.is_dynamic else (_ceiling_mass, (args[-1], args[3]))
    return plan


def sop_asym_total(params: SystemParams, policy: PowerPolicy, scheme: SchemeKind, scaling: AsymptoticScaling,
                   quad: QuadratureSpec, *, values: dict | None = None) -> float:
    """Asymptotic total SOP: decoding-set weights collapse to their leading
    power, and each weighs the outage given its n. The leading power
    phi_R*eta^mR of a relay's decoding miss must lie below 1, or the source
    hop is not in the high-gain regime and the weights do not sum to a
    probability (ValueError). Plans on scaling, batches and mixes once, or
    mixes the values a sweep passes, planned on scaling, as `sop_total` does."""
    if values is None:
        [values] = _evaluate([_plan(scaled_params(params, scaling), policy, scheme, quad)])
    outage = partial(_outage, params, policy, quad, values)
    return clamp_probability(mixture(values["weights"], scheme, outage))


def sop_floor_total(params: SystemParams, policy: PowerPolicy, scheme: SchemeKind) -> float:
    """High-gain floor of the total SOP: all relays decode, so n = K, and the
    securing terms vanish with the user-link coefficients. Only the mass of
    the eavesdropper gain above the ceiling a survives: the ceiling mass of
    the transmission that row K of the read table names (`_ceiling_mass`),
    read directly, or 1.0 under an infeasible split, to that row's power.

    The floor exists only under a fixed split. A dynamic split is accepted
    and returns the same row-K ceiling mass, which `sop_asym_total` leaves
    out there (its plan zeroes every ceiling mass), so the two disagree."""
    sends, size, power = read_table(SchemeKind(scheme), params.K)[params.K]
    args = transmission_plan(params, policy, [(sends, size)])[sends, size]
    return (1.0 if args is None else clamp_probability(_ceiling_mass(args[-1], args[3]))) ** power


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
