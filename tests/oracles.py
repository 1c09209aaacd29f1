"""Reference functions that only the tests call.

Each is the direct form of a value the package computes another way: the
single-link CDF and PDF, the MRC-sum CDF, the max-gain PDF of the
multinomial expansion, the jammed ratio's CDF and PDF read off its law, the
per-relay decoding probability chi, and the Monte Carlo verdicts of one
scheme or of two schemes side by side. The jammed ratio's retired
multinomial expansion stays here too (`jammed_expansion`), one term per
(composition, k, j): the per-term reference of the h kernel checks, and the
form the package's (C, s) sums are measured against. The package's engines
do not read them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple

import numpy as np

from noma_relay_secrecy.channels import NakagamiParams, _as_given, _mrc_params, gain_tails, jammed_law
from noma_relay_secrecy.montecarlo import TrialConfig, _block_codes, _blocks, _rule, _run_shared, _SECURE, _verdict
from noma_relay_secrecy.params import PowerPolicy, SchemeKind, SystemParams


def gain_cdf(p: NakagamiParams, x):
    """CDF of the power gain, 1 - gain_survival, with relative precision at small x."""
    return gain_tails(p, x)[1]


def gain_pdf(p: NakagamiParams, x):
    """PDF x^{m-1} lambda^m exp(-lambda*x) / (m-1)!."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("x must be nonnegative")
    lam = p.rate
    out = np.power(x, p.m - 1) * lam**p.m * np.exp(-lam * x) / math.factorial(p.m - 1)
    return _as_given(x, out)


def mrc_sum_cdf(p: NakagamiParams, n: int, x):
    """CDF of the sum of n i.i.d. gains (maximal-ratio combining): shape n*m, same rate."""
    return gain_cdf(_mrc_params(p, n), x)


@dataclass(frozen=True)
class MultinomialTerm:
    """One term of the expansion of F(z)^{count-1} for the max of `count` gains.

    The expansion writes F^{count-1} as a sum over compositions
    (n_1, ..., n_{m+1}) of count-1, each contributing
    A * z^B * exp(-(C-1)*lambda*z) with A = coeff * lambda^B. `coeff` is the
    rate-free part of A, so one enumeration serves every rate.
    """

    exponents: tuple[int, ...]
    coeff: float
    B: int
    C: int

    def a_value(self, lam: float) -> float:
        """The signed coefficient A at Gamma rate `lam`."""
        return self.coeff * lam**self.B


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def enumerate_multinomial_terms(m_e: int, count: int) -> tuple[MultinomialTerm, ...]:
    """Expansion terms for the max of `count` i.i.d. gains of shape m_e.

    Term count is C(count-1+m_e, m_e). Coefficients are built from
    log-factorials with explicit sign tracking: the sign alternates with the
    number of non-constant slots used, i.e. (-1)^(C-1).
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    total = count - 1
    terms = []
    log_total_fact = math.lgamma(total + 1)
    for exps in _compositions(total, m_e + 1):
        used = sum(exps[1:])
        log_coeff = log_total_fact
        big_b = 0
        for p, n_p in enumerate(exps):
            log_coeff -= math.lgamma(n_p + 1)
            if p >= 1:
                # slot p (1-based offset) carries z^{p-1}/(p-1)! per use
                log_coeff -= n_p * math.lgamma(p)
                big_b += n_p * (p - 1)
        sign = -1.0 if used % 2 else 1.0
        terms.append(MultinomialTerm(exps, sign * math.exp(log_coeff), big_b, 1 + used))
    return tuple(terms)


def max_gain_pdf(p: NakagamiParams, count: int, z):
    """PDF of the maximum of `count` i.i.d. gains via the multinomial expansion."""
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise ValueError("z must be nonnegative")
    lam = p.rate
    acc = np.zeros_like(z)
    for t in enumerate_multinomial_terms(p.m, count):
        acc = acc + t.a_value(lam) * np.power(z, t.B + p.m - 1) * np.exp(-t.C * lam * z)
    return _as_given(z, jammed_expansion(p, count, 0.0)[0] * acc)


class JammedTerm(NamedTuple):
    """One (composition, k, j) term of the expansion of the ratio law Y = G/(1 + rho*H).

    Carries the composition's C, the combined exponent varsigma = B + m + j,
    the derivative coefficient D = C*lambda + rho*(varsigma - k), and the
    scalar weight delta.
    """

    k: int
    varsigma: int
    C: int
    D: float
    delta: float


@lru_cache(maxsize=None)
def jammed_expansion(p_e: NakagamiParams, count: int, rho4: float) -> tuple[float, tuple[JammedTerm, ...]]:
    """The Y = G/(1 + rho4*H) law as the package once wrote it: (phi0, terms),
    phi0 = count*lambda^m/(m-1)! the front of the density of H, the max of
    `count` gains, and one term per (composition, k, j), k < m, j <= k, so that
    P(Y > y) = phi0 * exp(-lambda*y) * sum delta * y^k / (C + rho4*y)^varsigma."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    lam, m_e = p_e.rate, p_e.m
    terms = []
    for t in enumerate_multinomial_terms(m_e, count):
        for k in range(m_e):
            for j in range(k + 1):
                varsigma = t.B + m_e + j
                delta = (
                    math.comb(k, j)
                    * t.a_value(lam)
                    * rho4**j
                    * math.exp((k - varsigma) * math.log(lam) + math.lgamma(varsigma) - math.lgamma(k + 1))
                )
                terms.append(JammedTerm(k, varsigma, t.C, t.C * lam + rho4 * (varsigma - k), delta))
    return count * lam**m_e / math.factorial(m_e - 1), tuple(terms)


def expansion_survival(p_e: NakagamiParams, count: int, rho4: float, y):
    """P(Y > y) from `jammed_expansion`, its terms added in order from 0."""
    y = np.asarray(y, dtype=float)
    phi0, terms = jammed_expansion(p_e, count, rho4)
    acc = np.zeros(y.shape)
    for t in terms:
        acc = acc + t.delta * np.power(y, t.k) / np.power(t.C + rho4 * y, t.varsigma)
    return _as_given(y, phi0 * np.exp(-p_e.rate * y) * acc)


def expansion_pdf(p_e: NakagamiParams, count: int, rho4: float, y):
    """The density of Y from `jammed_expansion`, the derivative of 1 - `expansion_survival`:
    term t is delta*(rho4*lambda*y^{k+1} + D*y^k - C*k*y^{k-1}) / (C + rho4*y)^{varsigma+1},
    added in order within each k, and the sums of k = 0..m-1 added in turn."""
    y = np.asarray(y, dtype=float)
    phi0, terms = jammed_expansion(p_e, count, rho4)
    by_k = [np.zeros(y.shape) for _ in range(p_e.m)]
    for t in terms:
        numer = rho4 * p_e.rate * np.power(y, t.k + 1) + t.D * np.power(y, t.k)
        if t.k:
            numer = numer - t.C * t.k * np.power(y, t.k - 1)
        by_k[t.k] = by_k[t.k] + t.delta * numer / np.power(t.C + rho4 * y, t.varsigma + 1)
    return _as_given(y, phi0 * np.exp(-p_e.rate * y) * sum(by_k[1:], by_k[0]))


def jammed_ratio_cdf(p_e: NakagamiParams, count: int, rho4: float, y):
    """CDF of Y = G/(1 + rho4*H), 1 - the survival of `jammed_law`; 0 at the origin, 1 in the limit."""
    y = np.asarray(y, dtype=float)
    return _as_given(y, 1.0 - np.asarray(jammed_law(p_e, count, rho4).survival(y)))


def jammed_ratio_pdf(p_e: NakagamiParams, count: int, rho4: float, y):
    """PDF of Y = G/(1 + rho4*H) read off `jammed_law`: its front, power of y,
    decay and density row; the derivative of jammed_ratio_cdf."""
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise ValueError("y must be nonnegative")
    law = jammed_law(p_e, count, rho4)
    row = 1.0 if law.row is None else law.row(y)
    return _as_given(y, np.exp(law.log_front) * np.power(y, law.degree - 1) * np.exp(-law.rate * y) * row)


def decode_prob_chi(params: SystemParams) -> float:
    """Probability chi that one relay decodes both messages: P(G_sr >= eta)."""
    return gain_tails(params.links.source_relay, params.eta)[0]


def _scheme_codes(
    params: SystemParams,
    policy: PowerPolicy,
    scheme: SchemeKind,
    g_sr: np.ndarray,
    g_1: np.ndarray,
    g_2: np.ndarray,
    g_e: np.ndarray,
) -> np.ndarray:
    """Outcome code per trial for relay-major (K x trials) draws of one scenario."""
    verdict = _verdict(SchemeKind(scheme), policy)
    return _block_codes(_rule(params, policy), (verdict,), g_sr, g_1, g_2, g_e)[verdict]


def paired_verdicts(
    params: SystemParams,
    policy: PowerPolicy,
    scheme_a: SchemeKind,
    scheme_b: SchemeKind,
    config: TrialConfig,
) -> tuple[int, int]:
    """Count draws where two schemes reach the same secure/outage verdict.

    Returns (matches, trials). Outage attribution may differ between schemes;
    only the binary verdict is compared.
    """
    rule = _rule(params, policy)
    a = _verdict(SchemeKind(scheme_a), policy)
    b = _verdict(SchemeKind(scheme_b), policy)

    def same(block) -> int:
        codes = _block_codes(rule, dict.fromkeys((a, b)), *block)
        return int(((codes[a] == _SECURE) == (codes[b] == _SECURE)).sum())

    matches = sum(_run_shared(same, _blocks(config, params)))
    return matches, config.trials
