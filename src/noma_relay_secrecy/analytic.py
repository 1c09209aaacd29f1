"""Closed-form secrecy outage probability for the four relay-selection schemes.

The SOP mixes, over the size n of the decoding set (binomial with per-relay
success chi), the outage given n, as `params.mixture` writes it for both
closed-form engines. Given n, a scheme's relays transmit in one of three ways
(`SchemeKind.transmission`), and this engine supplies each one's outage
(`_outage`): all n combine (`sop_tmrc_cond`), the best single relay sends
(`delta1`), or it sends while an idle relay jams (`delta4`). Each is one
securing integral of the users' Gamma survival series against the
eavesdropper's gain law (`_joint_secrecy_prob`; `channels.combined_law`, a
Gamma law, and `channels.jammed_law`, whose density carries one row in the
eavesdropper gain), summed at each node, times the law's row if it has one,
and integrated once by the kernel both engines share
(`quadrature.series_integrals`), from this engine's user rows
(`_user_rows`). Given the eavesdropper gain x, both users stay secure iff
x < a, the strong user's gain exceeds b + theta1*x, and the weak user's
exceeds c*(1 + u/(1-v*x)), v = 1/a; only below the ceiling a can that hold,
which creates the high-SNR outage floor. The constants, the laws, the
jamming split and the clip to [0, 1] come from `params`, as in every engine.

`sop_total` runs the flow of `quadrature`: plan, batch, one mixture. `_plan`
names what one point reads: the decoding-set law ("pmf") and each
transmission's securing integral (`params.transmission_plan`), for one
scheme or, in a sweep, for all of them. `quadrature._evaluate` returns their
values by those names (`values`), and the mixture only reads them; a reader
given no values plans its own. Each distinct integral is evaluated once per
call or sweep.
"""
from __future__ import annotations

import math
from functools import lru_cache, partial

import numpy as np

from .channels import (
    EavesdropperLaw,
    NakagamiParams,
    gain_tails,
    jammed_ratio_terms,  # noqa: F401  (re-exported for bench/spans.py, which traces it here)
)
from .params import (
    PowerPolicy,
    SchemeConstants,
    SchemeKind,
    SopResult,
    SystemParams,
    Transmission,
    clamp_probability,
    mixture,
    transmission_plan,
)
from .quadrature import (
    QuadratureSpec,
    SeriesItem,
    _check_domain,
    _column,
    _evaluate,
    _signed_log_pow,
    convolve_series,
    g_kernel,  # noqa: F401  (re-exported for bench/spans.py, which traces it here)
    h_kernel,  # noqa: F401  (re-exported for bench/spans.py, which traces it here)
    series_rows,
)


def _decoding_pmf(source_relay: NakagamiParams, eta: float, k: int) -> np.ndarray:
    """The binomial law of the decoding-set size: entry n is C(k,n) chi^n
    miss^{k-n} at chi = P(G_sr >= eta), read-only, as a point's rows all read
    it. The miss probability is the gain CDF at eta, not 1 - chi, which cancels
    to rounding noise (even below 0) once chi is within an ulp of 1."""
    chi, miss = gain_tails(source_relay, eta)
    pmf = np.array([math.comb(k, n) * chi**n * miss ** (k - n) for n in range(k + 1)])
    pmf.setflags(write=False)
    return pmf


@lru_cache(maxsize=64)
def _degree_column(tau_u: int) -> tuple[np.ndarray, np.ndarray]:
    """The degrees k < tau_u as a column against (items, nodes) arrays, and log k! (read-only)."""
    k = np.arange(tau_u)[:, None, None]
    log_fact = np.array([math.lgamma(i + 1) for i in range(tau_u)])[:, None, None]
    for col in (k, log_fact):
        col.setflags(write=False)
    return k, log_fact


def _user_series(base: np.ndarray, tau_u: int, log_rate: np.ndarray, alternate: bool) -> tuple[np.ndarray, np.ndarray]:
    """Rows (rate*base)^k/k! for k < tau_u at the nodes, as series_rows (shift, rows).

    base is (items, nodes) and log_rate a column of log rates per item.
    alternate multiplies row k by (-1)^k, the sign carried by powers of the
    negative weak-user constant.
    """
    k, log_fact = _degree_column(tau_u)
    logmag, sign = _signed_log_pow(base, k)
    np.add(k * log_rate - log_fact, logmag, out=logmag)
    if alternate:
        sign[1::2] *= -1.0
    return series_rows(range(tau_u), logmag, sign, tau_u)


def _user_rows(users: list[tuple], x: np.ndarray) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The user factor of `_joint_secrecy_prob` for each user constant tuple
    (tau_u, c1, r, q, h, log lambda1*b, log lambda2*|c|) at its row of
    nodes x: the two user survival series, in bases 1 + c1*x and
    1 + r/(1-q*x), their product's rows, and the log terms -h/(1-q*x) and
    the two series' shifts beside them (`quadrature.series_integrals`).

    None depends on the eavesdropper law, so a batch builds them once for
    every jammed decoding-set size, whose integrals differ only in the law.
    """
    tau_u = users[0][0]
    c1, r, q, h, log_base1, log_base2 = (_column(col) for col in list(zip(*users))[1:])
    one_minus_qx = 1.0 - q * x
    shift1, rows1 = _user_series(1.0 + c1 * x, tau_u, log_base1, alternate=False)
    shift2, rows2 = _user_series(1.0 + r / one_minus_qx, tau_u, log_base2, alternate=True)
    return (-(h / one_minus_qx), shift1, shift2), convolve_series(rows1, rows2)


def _joint_secrecy_prob(
    user1: NakagamiParams,
    user2: NakagamiParams,
    theta1: float,
    consts: SchemeConstants,
    alpha2: float,
    tau_u: int,
    law: EavesdropperLaw,
    quad: QuadratureSpec,
) -> SeriesItem:
    """P(both users secured) for one transmission with Gamma(tau_u) user links
    at the rates of user1 and user2 when the eavesdropper's gain follows `law`.

    Expands the two user survival series under the eavesdropper-gain integral;
    the (k, j) term is (lambda1*b)^k/k! * (lambda2*c)^j/j! times a g-kernel
    integrand with powers k, j (times the law's density row, if it has one),
    whose sign (-1)^j cancels the sign of c^j. Both series and the row are
    summed at each node and the integral is taken once. The function
    returns the integral's `SeriesItem`, with this engine's `_user_rows`,
    which `_evaluate` batches. A series base lambda1*b or lambda2*|c| that
    underflows to 0.0 has no logarithm (ValueError).
    """
    consts.check_finite()
    lambda1, lambda2 = user1.rate, user2.rate
    a, b, c, q, r = consts.a, consts.b, consts.c, consts.v, consts.u
    base1, base2 = lambda1 * b, lambda2 * abs(c)
    if base1 == 0.0 or base2 == 0.0:
        name = "lambda1*b" if base1 == 0.0 else "lambda2*|c|"
        raise ValueError(f"user series base {name} underflows to 0.0 (lambda1={lambda1:.6g}, "
                         f"lambda2={lambda2:.6g}, b={b:.6g}, c={c:.6g})")
    _check_domain(a, q, "pole")
    user = (tau_u, theta1 / b, r, q, consts.screening(lambda2, alpha2), math.log(base1), math.log(base2))
    f = lambda1 * theta1 + law.rate
    log_front = law.log_front - lambda1 * b - lambda2 * c
    return SeriesItem(a, f, log_front, law, law.degree, 2 * tau_u - 1, user, _user_rows, quad)


def _secured(params: SystemParams, policy: PowerPolicy, sends: Transmission, n: int, quad: QuadratureSpec,
             values: dict | None) -> float:
    """P(both users secured) when n decoding relays transmit as `sends`: the
    value of that name in values or, with values None, in its own plan's."""
    if values is None:
        [values] = _evaluate([_plan(params, policy, [(sends, n)], quad)])
    return values[(sends, n)]


def sop_tmrc_cond(params: SystemParams, policy: PowerPolicy, n: int, quad: QuadratureSpec, *,
                  values: dict | None = None) -> float:
    """Outage probability given n decoding relays that all transmit and combine:
    each sends at P_R/n and every receiver, the eavesdropper included, sums
    their n gains, so the user and eavesdropper shapes scale to n*m_U and n*m_E."""
    if n < 1:
        raise ValueError("n must be >= 1; the empty decoding set is certain outage")
    return clamp_probability(1.0 - _secured(params, policy, Transmission.COMBINED, n, quad, values))


def delta1(params: SystemParams, policy: PowerPolicy, quad: QuadratureSpec, *, values: dict | None = None) -> float:
    """Per-relay probability that a single relay at full power secures both
    users: the combined transmission at n = 1."""
    return clamp_probability(_secured(params, policy, Transmission.SINGLE, 1, quad, values))


def delta4(params: SystemParams, policy: PowerPolicy, n: int, quad: QuadratureSpec, *,
           values: dict | None = None) -> float:
    """Per-relay securing probability when a non-decoding relay jams the eavesdropper.

    Valid for n < K: the strongest of the K-n idle relays' eavesdropper links
    acts as jamming, so the relay sends at rho3 and the eavesdropper's gain is
    the jammed ratio G_E/(1+rho4*H_E) (`jammed_law`).
    """
    if n >= params.K:
        raise ValueError("n must be below K: the jamming relay comes from the idle set")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    return clamp_probability(_secured(params, policy, Transmission.JAMMED, n, quad, values))


def _outage(params: SystemParams, policy: PowerPolicy, quad: QuadratureSpec, values: dict | None,
            sends: Transmission, n: int) -> float:
    """The outage `params.mixture` reads: combining is `sop_tmrc_cond`, a
    single candidate fails with 1 - delta1 and a jammed one with 1 - delta4."""
    if sends is Transmission.COMBINED:
        return sop_tmrc_cond(params, policy, n, quad, values=values)
    if sends is Transmission.SINGLE:
        return 1.0 - delta1(params, policy, quad, values=values)
    return 1.0 - delta4(params, policy, n, quad, values=values)


def _plan(params: SystemParams, policy: PowerPolicy | None, reads, quad: QuadratureSpec | None) -> dict:
    """What the readers read at one point, by name (`quadrature._evaluate`):
    "pmf", the decoding-set law, and for each (sends, size) of reads, names
    or schemes (`params.transmission_plan`), its securing integral, or
    (float, (0.0,)), the constant 0.0, under an infeasible split."""
    plan = {"pmf": (_decoding_pmf, (params.links.source_relay, params.eta, params.K))}
    for name, args in transmission_plan(params, policy, reads).items():
        plan[name] = (float, (0.0,)) if args is None else (_joint_secrecy_prob, (*args, quad))
    return plan


def sop_total(params: SystemParams, policy: PowerPolicy, scheme: SchemeKind, quad: QuadratureSpec, *,
              values: dict | None = None) -> SopResult:
    """Total SOP: mixture of the conditional SOPs over the decoding-set law.

    With values None it evaluates its `_plan` in batches (`quadrature._evaluate`)
    and mixes once; a sweep passes the point's values, and the call only mixes."""
    if values is None:
        [values] = _evaluate([_plan(params, policy, scheme, quad)])
    total = mixture(values["pmf"], scheme, partial(_outage, params, policy, quad, values))
    return SopResult(value=clamp_probability(float(total)), engine="analytic")
