"""Nakagami-m channel power-gain statistics.

Power gains follow a Gamma(m, omega/m) law with integer shape m, so the
CDF/PDF have finite-series forms. This module provides the single-link and
MRC-sum distributions, inverse-CDF sampling, and the distributions that
arise when the strongest of several gains feeds an interference ratio
G/(1 + rho*H): the max-gain PDF via a multinomial expansion and the
closed-form PDF/CDF of the ratio itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np


@dataclass(frozen=True)
class NakagamiParams:
    """Nakagami-m power gain: Gamma with integer shape m and mean omega."""

    m: int
    omega: float

    def __post_init__(self) -> None:
        if int(self.m) != self.m or self.m < 1:
            raise ValueError(f"shape m must be a positive integer, got {self.m!r}")
        object.__setattr__(self, "m", int(self.m))
        if not self.omega > 0:
            raise ValueError(f"mean power omega must be positive, got {self.omega!r}")

    @property
    def rate(self) -> float:
        """Gamma rate lambda = m/omega."""
        return self.m / self.omega


def _survival_series(m: int, z):
    """exp(-z) * sum_{k<m} z^k/k! for z >= 0, switching to log space for large z."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    total = np.ones_like(z)
    term = np.ones_like(z)
    for k in range(1, m):
        term = term * z / k
        total = total + term
    with np.errstate(over="ignore"):
        out = np.exp(-z) * total
    big = z > 700.0
    if np.any(big):
        zb = z[big]
        logtot = np.zeros_like(zb)
        for k in range(1, m):
            logtot = np.logaddexp(logtot, k * np.log(zb) - math.lgamma(k + 1))
        out[big] = np.exp(-zb + logtot)
    return out


def _as_given(x_in, out):
    """Return a float for scalar input, an ndarray otherwise."""
    if np.isscalar(x_in) or getattr(x_in, "ndim", 1) == 0:
        return np.asarray(out).item()
    return out


def gain_survival(p: NakagamiParams, x):
    """P(G > x) = exp(-lambda*x) * sum_{k<m} (lambda*x)^k/k!; accurate deep in the tail."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("x must be nonnegative")
    return _as_given(x, _survival_series(p.m, p.rate * x))


def gain_cdf(p: NakagamiParams, x):
    """CDF of the power gain, 1 - gain_survival; nondecreasing, 0 at the origin."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("x must be nonnegative")
    return _as_given(x, 1.0 - _survival_series(p.m, p.rate * x))


def gain_pdf(p: NakagamiParams, x):
    """PDF x^{m-1} lambda^m exp(-lambda*x) / (m-1)!."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("x must be nonnegative")
    lam = p.rate
    out = np.power(x, p.m - 1) * lam**p.m * np.exp(-lam * x) / math.factorial(p.m - 1)
    return _as_given(x, out)


def _mrc_params(p: NakagamiParams, n: int) -> NakagamiParams:
    """Sum of n i.i.d. gains keeps the rate and multiplies the shape by n."""
    if int(n) != n or n < 1:
        raise ValueError(f"combiner size n must be a positive integer, got {n!r}")
    return NakagamiParams(m=p.m * int(n), omega=p.omega * int(n))


def mrc_sum_cdf(p: NakagamiParams, n: int, x):
    """CDF of the sum of n i.i.d. gains (maximal-ratio combining): shape n*m, same rate."""
    return gain_cdf(_mrc_params(p, n), x)


def mrc_sum_survival(p: NakagamiParams, n: int, x):
    """Tail of the MRC sum; see gain_survival."""
    return gain_survival(_mrc_params(p, n), x)


def mrc_sum_pdf(p: NakagamiParams, n: int, x):
    """PDF of the sum of n i.i.d. gains."""
    return gain_pdf(_mrc_params(p, n), x)


def sample_gain(p: NakagamiParams, rng: np.random.Generator, size=None):
    """Draw gains as a sum of m inverse-CDF exponentials of mean omega/m.

    Exact for integer m and reproducible across platforms given the same
    uniform stream. `size` may be None (scalar), an int, or a shape tuple.
    """
    shape = () if size is None else ((size,) if np.isscalar(size) else tuple(size))
    u = rng.random((p.m,) + shape)
    # in place: the uniforms are the largest array a draw makes
    g = np.log1p(np.negative(u, out=u), out=u).sum(axis=0)
    g *= -(p.omega / p.m)
    return float(g) if size is None else g


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
    front = count * lam**p.m / math.factorial(p.m - 1)
    acc = np.zeros_like(z)
    for t in enumerate_multinomial_terms(p.m, count):
        acc = acc + t.a_value(lam) * np.power(z, t.B + p.m - 1) * np.exp(-t.C * lam * z)
    return _as_given(z, front * acc)


@dataclass(frozen=True)
class JammedTerm:
    """One (composition, k, j) term of the ratio law Y = G/(1 + rho*H).

    Carries the composition's C, the combined exponent varsigma = B + m + j,
    the derivative coefficient D = C*lambda + rho*(varsigma - k), and the
    scalar weight delta.
    """

    k: int
    varsigma: int
    C: int
    D: float
    delta: float


def jammed_ratio_terms(p_e: NakagamiParams, count: int, rho4: float) -> tuple[JammedTerm, ...]:
    """Materialize the triple-sum terms of the Y = G/(1+rho4*H) law.

    G is one fresh gain and H the max of `count` independent gains, all of
    shape p_e.m and rate lambda = p_e.rate. Weights use log-factorials;
    rho4 = 0 collapses to the plain gain law (only j = 0 survives).
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    if rho4 < 0:
        raise ValueError(f"rho4 must be nonnegative, got {rho4!r}")
    lam = p_e.rate
    m_e = p_e.m
    out = []
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
                d_coef = t.C * lam + rho4 * (varsigma - k)
                out.append(JammedTerm(k, varsigma, t.C, d_coef, delta))
    return tuple(out)


def jammed_ratio_survival(p_e: NakagamiParams, count: int, rho4: float, y):
    """P(Y > y) = phi0 * sum delta * exp(-lambda*y) * y^k / (C + rho4*y)^varsigma."""
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise ValueError("y must be nonnegative")
    lam = p_e.rate
    phi0 = count * lam**p_e.m / math.factorial(p_e.m - 1)
    acc = np.zeros_like(y)
    for t in jammed_ratio_terms(p_e, count, rho4):
        acc = acc + t.delta * np.power(y, t.k) / np.power(t.C + rho4 * y, t.varsigma)
    return _as_given(y, phi0 * np.exp(-lam * y) * acc)


def jammed_ratio_cdf(p_e: NakagamiParams, count: int, rho4: float, y):
    """CDF of Y = G/(1 + rho4*H); 0 at the origin, 1 in the limit."""
    y = np.asarray(y, dtype=float)
    return _as_given(y, 1.0 - np.asarray(jammed_ratio_survival(p_e, count, rho4, y)))


def jammed_ratio_pdf_rows(p_e: NakagamiParams, count: int, rho4: float, y) -> np.ndarray:
    """The terms of the Y = G/(1 + rho4*H) density at y without its common
    factor phi0*exp(-lambda*y), summed by their power k of y.

    Term t of jammed_ratio_terms is
    delta*(rho4*lambda*y^{k+1} + D*y^k - C*k*y^{k-1}) / (rho4*y + C)^{varsigma+1};
    the y^{k-1} piece carries a factor k and vanishes at k = 0. All terms are
    evaluated at once, shape (T,) + y.shape, and row k of the result, shape
    (m,) + y.shape, sums those with that k.
    """
    y = np.asarray(y, dtype=float)
    terms = jammed_ratio_terms(p_e, count, rho4)
    k = np.array([t.k for t in terms])
    col = (-1,) + (1,) * y.ndim  # one entry per term, broadcasting against y
    big_c = np.array([t.C for t in terms], dtype=float).reshape(col)
    big_d = np.array([t.D for t in terms]).reshape(col)
    delta = np.array([t.delta for t in terms]).reshape(col)
    # Powers of y only reach m, and many terms share one denominator.
    y_pow = np.power(y, np.arange(p_e.m + 1).reshape(col))
    numer = rho4 * p_e.rate * y_pow[k + 1] + big_d * y_pow[k] - big_c * k.reshape(col) * y_pow[np.maximum(k - 1, 0)]
    shared, which = np.unique([(t.C, t.varsigma + 1) for t in terms], axis=0, return_inverse=True)
    denom = np.power(rho4 * y + shared[:, 0].reshape(col), shared[:, 1].reshape(col))
    vals = delta * numer / denom[which.ravel()]
    return np.stack([vals[k == i].sum(axis=0) for i in range(p_e.m)])


def jammed_ratio_pdf(p_e: NakagamiParams, count: int, rho4: float, y):
    """PDF of Y = G/(1 + rho4*H); derivative of jammed_ratio_cdf."""
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise ValueError("y must be nonnegative")
    lam = p_e.rate
    phi0 = count * lam**p_e.m / math.factorial(p_e.m - 1)
    acc = jammed_ratio_pdf_rows(p_e, count, rho4, y).sum(axis=0)
    return _as_given(y, phi0 * np.exp(-lam * y) * acc)
