"""Nakagami-m channel power-gain statistics.

Power gains follow a Gamma(m, omega/m) law with integer shape m, so the
survival and CDF have finite-series forms. This module provides both tails
of one gain (`gain_tails`, one scalar evaluator under it), inverse-CDF
sampling, and the law of the interference ratio G/(1 + rho*H) when the
strongest of several gains is H: its multinomial-expansion terms, its
density rows and its survival. The ratio law's front phi0, terms
and arrays (`jammed_table`) are built once per (link, count, rho4), since
they do not depend on where the law is evaluated; every density and survival
call, and both engines, read them. Each eavesdropper law the securing integrals
run against (a sum of n gains, the jammed ratio) is one `EavesdropperLaw`,
equal to every law built from the same arguments. Every scenario record's
numbers must be finite and its counts whole (`_check_finite`, `_is_count`).
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterator, NamedTuple

import numpy as np


def _is_count(val, low: int = 1) -> bool:
    """True for a finite whole number >= low that is not a bool."""
    return not isinstance(val, bool) and math.isfinite(val) and int(val) == val and val >= low


def _check_finite(record, names) -> None:
    """Reject a non-finite number in the named fields of a record; None (unused) passes."""
    for name in names:
        val = getattr(record, name)
        if val is not None and not math.isfinite(val):
            raise ValueError(f"{name} must be finite, got {val!r}")


@dataclass(frozen=True)
class NakagamiParams:
    """Nakagami-m power gain: Gamma with integer shape m and mean omega."""

    m: int
    omega: float

    def __post_init__(self) -> None:
        if not _is_count(self.m):
            raise ValueError(f"shape m must be a positive integer, got {self.m!r}")
        object.__setattr__(self, "m", int(self.m))
        _check_finite(self, ("omega",))
        if not self.omega > 0:
            raise ValueError(f"mean power omega must be positive, got {self.omega!r}")

    @property
    def rate(self) -> float:
        """Gamma rate lambda = m/omega."""
        return self.m / self.omega


def _as_given(x_in, out):
    """Return a float for scalar input, an ndarray otherwise."""
    if np.isscalar(x_in) or getattr(x_in, "ndim", 1) == 0:
        return np.asarray(out).item()
    return out


def _gamma_tails(m: int, z: float) -> tuple[float, float]:
    """The Gamma(m) survival exp(-z) * sum_{k<m} z^k/k! and CDF at one rate-scaled
    z >= 0, each to relative precision: the survival sums in log space past z = 700,
    and below the mean m, where 1 - survival cancels, the CDF sums its own series."""
    if z <= 700.0:
        total = term = 1.0
        for k in range(1, m):
            term = term * z / k
            total += term
        survival = float(np.exp(-z)) * total
    elif z == math.inf:
        return 0.0, 1.0
    else:
        log_z, log_total = np.log(z), 0.0
        for k in range(1, m):
            log_total = np.logaddexp(log_total, k * log_z - math.lgamma(k + 1))
        survival = float(np.exp(-z + log_total))
    if not z < m:
        return survival, 1.0 - survival
    with np.errstate(divide="ignore"):
        term = float(np.exp(m * np.log(z) - z - math.lgamma(m + 1)))
    total, k = term, m
    while term > total * 1e-17:
        k += 1
        term = term * z / k
        total += term
    return survival, total


def gain_tails(p: NakagamiParams, x):
    """(P(G > x), P(G <= x)), each with relative precision (`_gamma_tails`):
    floats for one value, arrays of x's shape for an array."""
    if np.ndim(x) == 0:
        x = float(x)
        if x < 0:
            raise ValueError("x must be nonnegative")
        return _gamma_tails(p.m, p.rate * x)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("x must be nonnegative")
    survival, cdf = np.frompyfunc(partial(_gamma_tails, p.m), 1, 2)(p.rate * x)
    return survival.astype(float), cdf.astype(float)


def gain_survival(p: NakagamiParams, x):
    """P(G > x) = exp(-lambda*x) * sum_{k<m} (lambda*x)^k/k!; accurate deep in the tail."""
    return gain_tails(p, x)[0]


def _mrc_params(p: NakagamiParams, n: int) -> NakagamiParams:
    """Sum of n i.i.d. gains keeps the rate and multiplies the shape by n."""
    if int(n) != n or n < 1:
        raise ValueError(f"combiner size n must be a positive integer, got {n!r}")
    return NakagamiParams(m=p.m * int(n), omega=p.omega * int(n))


def sample_gain(p: NakagamiParams, rng, size=None):
    """Draw gains as a sum of m inverse-CDF exponentials of mean omega/m.

    Exact for integer m and reproducible across platforms given the same
    uniform stream. `size` may be None (scalar), an int, or a shape tuple.
    `rng` is one generator, from which the m passes (one shape of uniforms
    each) are read in turn, or a sequence of m generators, pass j reading
    the j-th; generators set where the one stream's passes start give the
    same gains.
    """
    shape = () if size is None else ((size,) if np.isscalar(size) else tuple(size))
    passes = (rng,) * p.m if isinstance(rng, np.random.Generator) else tuple(rng)
    if len(passes) != p.m:
        raise ValueError(f"need one generator per exponential pass ({p.m}), got {len(passes)}")
    g = np.zeros(shape)  # in place, one shape of uniforms at a time: two gain-sized arrays, not m + 1
    u = np.empty(shape)
    for gen in passes:
        gen.random(out=u)
        g += np.log1p(np.negative(u, out=u), out=u)
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


class JammedTable(NamedTuple):
    """The y-free structure of the Y = G/(1 + rho4*H) law for one (link, count, rho4).

    `phi0` = count*lambda^m/(m-1)! is the front of the density of H, the max
    of `count` gains, and so of the law's density and survival, whose
    triple-sum terms `terms` lists. The arrays index the terms stably sorted
    by k, so the terms of each k form one slice (`bounds`) in their original
    order: `k`, `ck`, `big_d` and `delta` are each term's k, C*k, D and
    delta, `which` is its row among the distinct (C, varsigma+1)
    denominators `shared`, and `rank[t]` is the position of `terms[t]` in
    them.
    """

    phi0: float
    terms: tuple[JammedTerm, ...]
    k: np.ndarray
    ck: np.ndarray
    big_d: np.ndarray
    delta: np.ndarray
    shared: np.ndarray
    which: np.ndarray
    rank: np.ndarray
    bounds: tuple[tuple[int, int], ...]


@lru_cache(maxsize=64)
def jammed_table(p_e: NakagamiParams, count: int, rho4: float) -> JammedTable:
    """The terms of the Y = G/(1+rho4*H) law and their arrays, built once per
    (p_e, count, rho4): none depends on where the law is evaluated.

    G is one fresh gain and H the max of `count` independent gains, all of
    shape p_e.m and rate lambda = p_e.rate. Weights use log-factorials;
    rho4 = 0 collapses to the plain gain law (only j = 0 survives). Every
    caller shares the result, so its arrays are read-only.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    if rho4 < 0:
        raise ValueError(f"rho4 must be nonnegative, got {rho4!r}")
    lam = p_e.rate
    m_e = p_e.m
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
                d_coef = t.C * lam + rho4 * (varsigma - k)
                terms.append(JammedTerm(k, varsigma, t.C, d_coef, delta))
    order = sorted(range(len(terms)), key=lambda i: terms[i].k)
    by_k = [terms[i] for i in order]
    k = np.array([t.k for t in by_k])
    shared, which = np.unique([(t.C, t.varsigma + 1) for t in by_k], axis=0, return_inverse=True)
    rank = np.empty(len(terms), dtype=int)
    rank[order] = np.arange(len(terms))
    arrays = (
        k, np.array([t.C for t in by_k], dtype=float) * k, np.array([t.D for t in by_k]),
        np.array([t.delta for t in by_k]), shared.astype(float), which.ravel(), rank,
    )
    for arr in arrays:
        arr.setflags(write=False)
    bounds = np.searchsorted(k, np.arange(m_e + 1)).tolist()
    phi0 = count * lam**m_e / math.factorial(m_e - 1)
    return JammedTable(phi0, tuple(terms), *arrays, tuple(zip(bounds[:-1], bounds[1:])))


def jammed_ratio_terms(p_e: NakagamiParams, count: int, rho4: float) -> tuple[JammedTerm, ...]:
    """The triple-sum terms of the Y = G/(1+rho4*H) law (see `jammed_table`), one per
    (composition, k, j): the tests' per-term reference of the engines' jammed
    integrals, kept in the package for bench/spans.py, which traces it."""
    return jammed_table(p_e, count, rho4).terms


# Terms per block of the jammed density rows and survival: at 300 nodes a block is 77 kB.
_TERM_BLOCK = 32


def jammed_ratio_survival(p_e: NakagamiParams, count: int, rho4: float, y):
    """P(Y > y) = phi0 * sum delta * exp(-lambda*y) * y^k / (C + rho4*y)^varsigma.

    The terms are evaluated over the `jammed_table` arrays and added one at
    a time in table order, from 0. Each distinct y^k and (C + rho4*y)^varsigma
    is its own np.power on y as given: one power over several values can
    round differently from the power of each value alone. An array y takes
    the terms in blocks of `_TERM_BLOCK`, so no (terms,) + y.shape array is formed.
    """
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise ValueError("y must be nonnegative")
    tab = jammed_table(p_e, count, rho4)
    y_pow = np.stack([np.power(y, k) for k in range(p_e.m)])
    jam = rho4 * y
    denom = np.stack([np.power(c + jam, s - 1.0) for c, s in tab.shared.tolist()])  # shared holds varsigma + 1
    col = (-1,) + (1,) * y.ndim
    block = len(tab.terms) if y.size <= 1 else _TERM_BLOCK
    acc = np.zeros((1,) + y.shape)
    for start in range(0, len(tab.terms), block):
        at = tab.rank[start : start + block]
        vals = tab.delta[at].reshape(col) * y_pow[tab.k[at]] / denom[tab.which[at]]
        acc = np.add.accumulate(np.concatenate([acc, vals]), axis=0)[-1:]  # sequential, unlike add.reduce
    return _as_given(y, tab.phi0 * np.exp(-p_e.rate * y) * acc[0])


def jammed_ratio_pdf_rows(p_e: NakagamiParams, count: int, rho4: float, y) -> np.ndarray:
    """The terms of the Y = G/(1 + rho4*H) density at y without its common
    factor phi0*exp(-lambda*y), summed by their power k of y.

    Term t of jammed_ratio_terms is
    delta*(rho4*lambda*y^{k+1} + D*y^k - C*k*y^{k-1}) / (rho4*y + C)^{varsigma+1};
    the y^{k-1} piece carries a factor k and vanishes at k = 0. Row k of the
    result, shape (m,) + y.shape, sums the terms with that k in table order.
    The terms' y-free part is the `jammed_table` of (p_e, count, rho4), built
    once, not once per call.

    Each k-slice is evaluated in blocks of at most `_TERM_BLOCK` terms, so no
    (terms,) + y.shape array is formed: a block's values go below the running
    row in one buffer, whose axis-0 sum adds them to it one term at a time,
    the order of a single sum over the slice. A one-element y reduces
    pairwise instead, so there each slice is one block.
    """
    y = np.asarray(y, dtype=float)
    tab = jammed_table(p_e, count, rho4)
    col = (-1,) + (1,) * y.ndim  # one entry per term, broadcasting against y
    # Powers of y only reach m, and many terms share one denominator.
    y_pow = np.power(y, np.arange(p_e.m + 1).reshape(col))
    denom = np.add(rho4 * y, tab.shared[:, 0].reshape(col))
    np.power(denom, tab.shared[:, 1].reshape(col), out=denom)
    d_col, ck_col, delta_col = (arr.reshape(col) for arr in (tab.big_d, tab.ck, tab.delta))
    longest = max(hi - lo for lo, hi in tab.bounds)
    block = min(_TERM_BLOCK, longest) if y.size > 1 else longest
    buf = np.empty((block + 1,) + y.shape)  # row 0: the running sum
    scratch = np.empty((block,) + y.shape)
    rows = np.empty((p_e.m,) + y.shape)
    leads = rho4 * p_e.rate * y_pow[1:]
    for k, (lo, hi) in enumerate(tab.bounds):
        for start in range(lo, hi, block):
            stop = min(start + block, hi)
            vals, tmp = buf[1 : 1 + stop - start], scratch[: stop - start]
            np.multiply(d_col[start:stop], y_pow[k], out=vals)
            np.add(leads[k], vals, out=vals)
            # at k = 0, C*k is 0.0 and y^0 stands in for y^(k-1)
            np.subtract(vals, np.multiply(ck_col[start:stop], y_pow[max(k - 1, 0)], out=tmp), out=vals)
            np.multiply(delta_col[start:stop], vals, out=vals)
            # mode "clip" writes straight into tmp ("raise" buffers a copy); every index is valid
            np.divide(vals, np.take(denom, tab.which[start:stop], axis=0, out=tmp, mode="clip"), out=vals)
            if start > lo:
                buf[0] = rows[k]
            np.add.reduce(buf[int(start == lo) : 1 + stop - start], axis=0, out=rows[k, ...])
    return rows


# A law's functions with its arguments bound, one object per (function,
# arguments) while any law holds it: laws built alike are then equal, one
# store key, even once the law cache has dropped one of them.
_BOUND: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _bound(func, *args) -> partial:
    """func with args bound, the one such object alive (`_BOUND`)."""
    bound = _BOUND.get((func, args))
    if bound is None:
        bound = _BOUND[func, args] = partial(func, *args)
    return bound


class EavesdropperLaw(NamedTuple):
    """An eavesdropper gain law: density exp(log_front) * x^(degree-1) * e^(-rate*x) * sum(rows(x)),
    row k of degree degree + k (rows None: one row of ones), and survival P(X > x).
    Two laws built from the same arguments compare and hash equal."""

    log_front: float
    rate: float
    degree: int
    n_rows: int
    rows: Callable[[np.ndarray], np.ndarray] | None
    survival: Callable[[float], float]


@lru_cache(maxsize=64)
def combined_law(p_e: NakagamiParams, n: int) -> EavesdropperLaw:
    """The sum of n gains of link p_e: Gamma(tau = n*m) at the same rate, front lambda^tau/(tau-1)!."""
    survival = _bound(gain_survival, _mrc_params(p_e, n))
    tau = n * p_e.m
    return EavesdropperLaw(tau * math.log(p_e.rate) - math.lgamma(tau), p_e.rate, tau, 1, None, survival)


@lru_cache(maxsize=64)
def jammed_law(p_e: NakagamiParams, count: int, rho4: float) -> EavesdropperLaw:
    """Y = G/(1 + rho4*H), H the max of `count` gains: front `jammed_table(...).phi0`, a row per power of y < m."""
    args = (p_e, count, rho4)
    rows, survival = _bound(jammed_ratio_pdf_rows, *args), _bound(jammed_ratio_survival, *args)
    return EavesdropperLaw(math.log(jammed_table(*args).phi0), p_e.rate, 1, p_e.m, rows, survival)
