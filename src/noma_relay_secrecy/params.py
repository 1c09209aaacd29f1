"""Scenario description shared by the analytic, asymptotic, and Monte Carlo engines.

Holds the relay-network parameters, the power-allocation policy (fixed split
or the gain-driven dynamic rule), the scheme record every engine reads (how a
decoding set transmits and how an outage is blamed on a user), the threshold
constants, and the result record every engine returns. Values that several engines
derive are defined here once: `jamming_split`, `clamp_probability`, what each
transmission of a point reads (`transmission_plan`, by name, with the split
checked once per point), and the SOP itself, one mixture over the
decoding-set size of the three per-transmission outages (`mixture`); an
engine supplies only those outages. The SOP given one size n is that
mixture at the one-hot weight row of n. What a scheme's set of n out of K
relays reads, and the power its outage takes, is one row of a table built
once per (scheme, K) (`read_table`), which the plan lists names from and
the mixture walks.
All rates are in nats per channel use; capacities carry the 1/2 pre-log of
the two-slot protocol, so a secrecy rate R maps to the threshold theta = exp(2R).
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable

from .channels import NakagamiParams, _check_finite, _is_count, combined_law, jammed_law


class Transmission(str, Enum):
    """How the relays of a decoding set send to the users. A str, so that a
    (sends, size) name hashes with str's own hash."""

    COMBINED = "combined"  # all n relays send at P_R/n; every receiver sums their gains
    SINGLE = "single"  # the best relay sends at full power P_R
    JAMMED = "jammed"  # the best relay sends while the strongest idle relay jams the eavesdropper


class SchemeKind(str, Enum):
    """Relay-selection scheme, with the record every engine reads instead of its name.

    `sends` is how a decoding set transmits. `two_step` is how an outage of a
    selection is blamed on a user: by the two-step ranking (the relays that
    pass user 1, then the best user-2 margin among them) instead of by the
    relay of best worst-user margin. A scheme made of these pieces is one
    line here.
    """

    TMRC = ("tmrc", Transmission.COMBINED, False)
    OSRS = ("osrs", Transmission.SINGLE, False)
    TSRS = ("tsrs", Transmission.SINGLE, True)
    ODRS = ("odrs", Transmission.JAMMED, False)

    def __new__(cls, value: str, sends: Transmission, two_step: bool):
        member = str.__new__(cls, value)
        member._value_ = value
        member.sends = sends
        member.two_step = two_step
        return member

    def transmission(self, n: int, K: int) -> Transmission:
        """How a decoding set of n out of K relays transmits. Jamming needs an
        idle relay, so a jammed scheme sends singly once every relay decodes."""
        if self.sends is Transmission.JAMMED and n == K:
            return Transmission.SINGLE
        return self.sends

    def reads(self, n: int, K: int) -> tuple[Transmission, int]:
        """`transmission` and the set size whose securing integral it reads:
        n, but 1 for a single relay, which sends at full power."""
        sends = self.transmission(n, K)
        return sends, 1 if sends is Transmission.SINGLE else n


@dataclass(frozen=True)
class LinkSet:
    """Fading parameters of the four link classes, one entry per class.

    source_relay: S -> R_k, relay_user1: R_k -> U1, relay_user2: R_k -> U2,
    relay_eaves: R_k -> E. Both user links share the same shape m_U.
    """

    source_relay: NakagamiParams
    relay_user1: NakagamiParams
    relay_user2: NakagamiParams
    relay_eaves: NakagamiParams

    def __post_init__(self) -> None:
        if self.relay_user1.m != self.relay_user2.m:
            raise ValueError(
                "user links must share one fading shape, got "
                f"{self.relay_user1.m} and {self.relay_user2.m}"
            )

    @property
    def m_u(self) -> int:
        return self.relay_user1.m

    @property
    def frame(self) -> tuple[float, float, float]:
        """(omega1/omega2, omegaR/omega2, omega2): the user-1 and source-hop
        means relative to the weak user's mean, and that mean."""
        omega2 = self.relay_user2.omega
        return self.relay_user1.omega / omega2, self.source_relay.omega / omega2, omega2

    def on_frame(self, epsilon1: float, epsilon2: float, omega2: float) -> "LinkSet":
        """These links with the weak user's mean at omega2, the strong user's at
        epsilon1*omega2 and the source hop's at epsilon2*omega2; the shapes and
        the eavesdropper link stay."""
        return dataclasses.replace(
            self,
            source_relay=NakagamiParams(self.source_relay.m, epsilon2 * omega2),
            relay_user1=NakagamiParams(self.relay_user1.m, epsilon1 * omega2),
            relay_user2=NakagamiParams(self.relay_user2.m, omega2),
        )


@dataclass(frozen=True)
class SystemParams:
    """Full scenario: relay count, link statistics, powers, rate thresholds.

    P_S, P_R, sigma2 are linear; R*_th are decoding thresholds and R*_s
    secrecy thresholds, both in nats per channel use.
    """

    K: int
    links: LinkSet
    P_S: float
    P_R: float
    sigma2: float
    R1_th: float
    R2_th: float
    R1_s: float
    R2_s: float

    def __post_init__(self) -> None:
        if not _is_count(self.K):
            raise ValueError(f"K must be a positive integer, got {self.K!r}")
        object.__setattr__(self, "K", int(self.K))
        _check_finite(self, ("P_S", "P_R", "sigma2", "R1_th", "R2_th", "R1_s", "R2_s"))
        for name in ("P_S", "P_R", "sigma2", "R1_s", "R2_s"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        for name in ("R1_th", "R2_th"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)!r}")

    @property
    def rho_s(self) -> float:
        """Source transmit SNR P_S/sigma2."""
        return self.P_S / self.sigma2

    @property
    def rho2(self) -> float:
        """Full relay transmit SNR P_R/sigma2 (single-relay transmission)."""
        return self.P_R / self.sigma2

    @property
    def theta1(self) -> float:
        return math.exp(2.0 * self.R1_s)

    @property
    def theta2(self) -> float:
        return math.exp(2.0 * self.R2_s)

    @property
    def eta(self) -> float:
        """Source-link gain a relay needs to decode both messages."""
        return (math.exp(2.0 * (self.R1_th + self.R2_th)) - 1.0) / self.rho_s


@dataclass(frozen=True)
class PowerPolicy:
    """Fixed power split (alpha1 given) or dynamic split (mu, varpi given).

    alphaJ is the fraction of relay power spent on jamming; it only matters
    for the dual-selection scheme and must stay below 1.
    """

    alpha1: float | None = None
    mu: float | None = None
    varpi: float | None = None
    alphaJ: float = 0.0

    def __post_init__(self) -> None:
        fixed = self.alpha1 is not None
        dynamic = self.mu is not None or self.varpi is not None
        if fixed == dynamic:
            raise ValueError("give either alpha1 (fixed) or mu+varpi (dynamic)")
        if fixed and not 0 < self.alpha1 < 1:
            raise ValueError(f"alpha1 must lie in (0,1), got {self.alpha1!r}")
        _check_finite(self, ("alpha1", "mu", "varpi", "alphaJ"))
        if dynamic:
            if self.mu is None or self.varpi is None:
                raise ValueError("dynamic policy needs both mu and varpi")
            if not self.mu > 1:
                raise ValueError(f"mu must exceed 1, got {self.mu!r}")
            if not 0 < self.varpi < 1:
                raise ValueError(f"varpi must lie in (0,1), got {self.varpi!r}")
        if not 0 <= self.alphaJ < 1:
            raise ValueError(f"alphaJ must be in [0,1), got {self.alphaJ!r}")

    @classmethod
    def fixed(cls, alpha1: float, alphaJ: float = 0.0) -> "PowerPolicy":
        return cls(alpha1=alpha1, alphaJ=alphaJ)

    @classmethod
    def dynamic(cls, mu: float, varpi: float, alphaJ: float = 0.0) -> "PowerPolicy":
        return cls(mu=mu, varpi=varpi, alphaJ=alphaJ)

    @property
    def is_dynamic(self) -> bool:
        return self.alpha1 is None

    def resolve(self, links: LinkSet) -> tuple[float, float]:
        """The (alpha1, alpha2) pair in force for the given links. The dynamic split is
        alpha1 = 1/(1 + mu*lambda2^-varpi) at the weak user's rate lambda2; alpha2/alpha1
        vanishes as the channel improves, which is what lifts the outage floor."""
        if self.alpha1 is not None:
            return self.alpha1, 1.0 - self.alpha1
        alpha1 = 1.0 / (1.0 + self.mu * links.relay_user2.rate ** (-self.varpi))
        return alpha1, 1.0 - alpha1


def jamming_split(alpha_j: float, rho2: float) -> tuple[float, float]:
    """(rho3, rho4): the data relay's and the jamming relay's SNR when a
    fraction alpha_j of the relay SNR rho2 goes to jamming."""
    return (1.0 - alpha_j) * rho2, alpha_j * rho2


def feasibility_check(params: SystemParams, policy: PowerPolicy) -> str | None:
    """None when the split leaves the weak user positive secrecy headroom.

    The weak user's SINR is capped at alpha2/alpha1, so secrecy outage is
    certain once alpha1*theta2 >= 1, i.e. alpha1 >= exp(-2*R2_s). Engines
    treat that regime as SOP = 1 rather than an error.
    """
    alpha1, _ = policy.resolve(params.links)
    if alpha1 * params.theta2 >= 1.0:
        return (
            f"alpha1={alpha1:.6g} >= exp(-2*R2_s)={math.exp(-2 * params.R2_s):.6g}: "
            "weak-user secrecy outage is certain"
        )
    return None


@dataclass(frozen=True)
class SchemeConstants:
    """Per-scheme threshold constants at relay SNR rho.

    a is the eavesdropper-gain ceiling below which the weak user can be
    secured. When the eavesdropper gain is x, the strong user needs gain
    above b + theta1*x and the weak user above c*(1 + u/(1 - v*x)) =
    c + alpha2/(d*(1 - v*x)), with c < 0 and u = alpha2/(d*c). The weak
    user's pole sits on the ceiling: v = 1/a.
    """

    a: float
    b: float
    c: float
    d: float
    u: float
    v: float

    def screening(self, lambda2: float, alpha2: float) -> float:
        """h = lambda2*alpha2/d of the weak user's e^{-h/(1 - v*x)}, which screens each securing integrand's pole."""
        return lambda2 * alpha2 / self.d

    def check_finite(self) -> None:
        """Raise a ValueError naming each of a, b, c that overflows, as where the relay SNR underflows."""
        bad = ", ".join(f"{name}={getattr(self, name)!r}" for name in "abc" if not math.isfinite(getattr(self, name)))
        if bad:
            raise ValueError(f"threshold constants {bad} are not finite: the relay SNR underflows")


def scheme_constants(theta1: float, theta2: float, alpha1: float, alpha2: float, rho: float) -> SchemeConstants:
    """Build the threshold constants; requires a feasible split (alpha1*theta2 < 1)."""
    if alpha1 * theta2 >= 1.0:
        raise ValueError("infeasible split: alpha1*theta2 >= 1 (callers must check first)")
    margin = 1.0 - alpha1 * theta2
    a = margin / (rho * alpha1 * alpha2 * theta2)
    b = (theta1 - 1.0) / (alpha1 * rho)
    c = -1.0 / (alpha1 * rho)
    d = alpha1 * rho * margin
    return SchemeConstants(a=a, b=b, c=c, d=d, u=alpha2 / (d * c), v=rho**2 * alpha1**2 * alpha2 * theta2 / d)


def transmission_args(params: SystemParams, policy: PowerPolicy, sends: Transmission, n: int) -> tuple:
    """What the securing integral of n decoding relays that transmit as
    `sends` reads, in either engine: (user1, user2, theta1, constants,
    alpha2, tau_u, law), under a feasible split (`transmission_plan` checks).

    When n relays combine, each sends at P_R/n and every receiver sums their
    n gains; a single relay is that at n = 1 (`SchemeKind.reads`). A jammed
    one sends at rho3 while the strongest of the K - n idle relays jams the
    eavesdropper at rho4.
    """
    alpha1, alpha2 = policy.resolve(params.links)
    links = params.links
    if sends is Transmission.JAMMED:
        rho3, rho4 = jamming_split(policy.alphaJ, params.rho2)
        consts = scheme_constants(params.theta1, params.theta2, alpha1, alpha2, rho3)
        law, tau_u = jammed_law(links.relay_eaves, params.K - n, rho4), links.m_u
    else:
        consts = scheme_constants(params.theta1, params.theta2, alpha1, alpha2, params.P_R / (n * params.sigma2))
        law, tau_u = combined_law(links.relay_eaves, n), n * links.m_u
    return links.relay_user1, links.relay_user2, params.theta1, consts, alpha2, tau_u, law


@lru_cache(maxsize=64)
def read_table(scheme: SchemeKind, K: int) -> tuple:
    """What each decoding set of a scheme over K relays reads: row n, n = 1..K,
    is (sends, size, power), the (sends, size) of `SchemeKind.reads` and the
    power its outage takes in `mixture`: 1 for a combining set, one
    transmission, and n otherwise, where the set fails iff all n candidates
    fail, taken as independent. Row 0, the empty set, is None."""
    rows = [None]
    for n in range(1, K + 1):
        sends, size = SchemeKind(scheme).reads(n, K)
        rows.append((sends, size, 1 if sends is Transmission.COMBINED else n))
    return tuple(rows)


def transmission_plan(params: SystemParams, policy: PowerPolicy, reads) -> dict:
    """The `transmission_args` of each distinct (sends, size) of reads, by
    that name, in order of first use; reads lists names or schemes, or is one
    scheme, which reads its `read_table` rows n = 1..K. The split is checked
    once: if infeasible each name maps to None, securing no one. A single
    relay sends as one relay combining, so (SINGLE, 1) maps to the tuple of
    (COMBINED, 1), built once for both."""
    if isinstance(reads, str):  # a scheme, or its name; a Transmission alone is no scheme and raises
        reads = [reads]
    names = dict.fromkeys(name for read in reads for name in (
        [row[:2] for row in read_table(SchemeKind(read), params.K)[1:]] if isinstance(read, str) else [read]))
    if names and feasibility_check(params, policy) is not None:
        return names
    built: dict = {}
    for name in names:
        same = (Transmission.COMBINED, 1) if name[0] is Transmission.SINGLE else name
        if same not in built:
            built[same] = transmission_args(params, policy, *same)
        names[name] = built[same]
    return names


def mixture(weights, scheme: SchemeKind, outage: Callable[[Transmission, int], float]) -> float:
    """Every engine's SOP: weights[n] times the outage given n summed left to
    right from 0.0 over n = 0..K, K = len(weights) - 1, walking `read_table`
    and forming each outage once. Given n the outage is 1.0 for the empty set
    and otherwise outage(sends, size), one transmission's outage at the set
    size row n reads, to the power of that row. A weight of exactly 0.0 is a
    null event: its outage, which may be NaN there (no relay can decode), is
    not formed."""
    formed: dict = {}
    total = 0.0
    for weight, row in zip(weights, read_table(scheme, len(weights) - 1)):
        if weight == 0.0:
            continue
        if row is None:  # empty decoding set: outage is certain
            total += weight
            continue
        sends, size, power = row
        p = formed.get((sends, size))
        if p is None:
            p = formed[sends, size] = outage(sends, size)
        total += weight * p**power
    return total


def clamp_probability(p: float) -> float:
    """p clipped to [0, 1]: the one place an engine's rounding past either end
    is cut. A NaN is no rounding and raises, so its row fails loudly."""
    if 0.0 <= p <= 1.0:
        return p
    if math.isnan(p):
        raise ValueError("probability is NaN")
    return 0.0 if p < 0.0 else 1.0


@dataclass(frozen=True)
class SopResult:
    """A secrecy outage probability with its provenance."""

    value: float
    engine: str  # "analytic" | "asymptotic" | "monte-carlo"
    stderr: float | None = None
    trials: int | None = None
