"""Nakagami-m channel power-gain statistics.

Power gains follow a Gamma(m, omega/m) law with integer shape m, so the
survival and CDF have finite-series forms. This module provides both tails
of one gain (`gain_tails`, one scalar evaluator under it), inverse-CDF
sampling, and the eavesdropper gain laws the securing integrals run
against, each one `EavesdropperLaw`, equal to every law built from the same
arguments: a sum of n gains (`combined_law`) and the interference ratio
G/(1 + rho4*H) when the strongest of several gains is H (`jammed_law`). The
ratio's density is one row, a sum of w*(C + rho4*y)^-s over distinct powers
(C, s), and its survival a like sum; their weights are built once per
(link, count, rho4), since they do not depend on where the law is evaluated,
and every call of either engine reads them (`_jammed_weights`). Without
jamming power the ratio is the plain gain, and its law the gain's own.
Every scenario record's numbers must be finite and its counts whole
(`_check_finite`, `_is_count`).
"""
from __future__ import annotations

import math
import weakref
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, NamedTuple

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


@lru_cache(maxsize=64)
def _jammed_weights(p_e: NakagamiParams, count: int, rho4: float) -> tuple[tuple, tuple]:
    """The weights of the Y = G/(1 + rho4*H) law, built once per (p_e, count, rho4):
    ((C, s, w), ...) of its density row sum w*(C + rho4*y)^-s, and ((k, C, s, w), ...)
    of its survival e^(-lambda*y) * sum w*(lambda*y)^k*(C + rho4*y)^-s, each key once.

    G is one fresh gain and H the max of `count` independent gains, all of shape m
    and rate lambda. With P(z) = sum_{k<m} z^k/k!, H's CDF to the power count-1 is
    sum_u C(count-1,u) (-1)^u e^(-u*lambda*h) P(lambda*h)^u, whose coefficients
    A_{u,B} = C(count-1,u) (-1)^u [z^B]P^u put every term in closed form: the
    (u, B, j) term, j <= k, adds A*C(k,j)*(rho4/lambda)^j*Gamma(s) at C = 1+u,
    s = m+B+j, with k = m in the density (front count*lambda^m/((m-1)!)^2,
    `jammed_law`) and k < m in the survival (front count/((m-1)!*k!)).
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    if rho4 < 0:
        raise ValueError(f"rho4 must be nonnegative, got {rho4!r}")
    m, ratio = p_e.m, rho4 / p_e.rate
    series = np.array([1.0 / math.factorial(k) for k in range(m)])  # P's coefficients
    density: defaultdict = defaultdict(float)
    survival: defaultdict = defaultdict(float)
    power = np.ones(1)  # P^u's coefficients
    for u in range(count):
        for big_b, coeff in enumerate(power.tolist()):
            a = (-1) ** u * math.comb(count - 1, u) * coeff
            for j in range(m + 1):
                key, term = (1 + u, m + big_b + j), a * ratio**j * math.gamma(m + big_b + j)
                density[key] += math.comb(m, j) * term
                for k in range(j, m):
                    survival[(k, *key)] += count * math.comb(k, j) / (math.factorial(m - 1) * math.factorial(k)) * term
        power = np.convolve(power, series)
    return tuple((*key, w) for key, w in density.items()), tuple((*key, w) for key, w in survival.items())


def jammed_ratio_terms(p_e: NakagamiParams, count: int, rho4: float) -> tuple[tuple[int, int, float], ...]:
    """The (C, s, w) terms of the density row of `jammed_law` (`_jammed_weights`),
    kept in the package for bench/spans.py, which traces it."""
    return _jammed_weights(p_e, count, rho4)[0]


def _jammed_row(p_e: NakagamiParams, count: int, rho4: float, y: np.ndarray) -> np.ndarray:
    """The density row of `jammed_law` at y: sum w*(C + rho4*y)^-s, one term at a
    time, elementwise, so the row of y stacked is each y's row alone."""
    jam = rho4 * y
    row = np.zeros(y.shape)
    for big_c, s, w in _jammed_weights(p_e, count, rho4)[0]:
        row += w * np.power(big_c + jam, -s)
    return row


def _jammed_survival(p_e: NakagamiParams, count: int, rho4: float, y):
    """P(Y > y) of `jammed_law`, from its survival weights (`_jammed_weights`)."""
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise ValueError("y must be nonnegative")
    lam_y, jam = p_e.rate * y, rho4 * y
    total = np.zeros(y.shape)
    for k, big_c, s, w in _jammed_weights(p_e, count, rho4)[1]:
        total += w * lam_y**k * np.power(big_c + jam, -s)
    return _as_given(y, np.exp(-lam_y) * total)


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
    """An eavesdropper gain law: density exp(log_front) * x^(degree-1) * e^(-rate*x) * row(x)
    (row None: 1), and survival P(X > x). Two laws built from the same arguments compare and hash equal."""

    log_front: float
    rate: float
    degree: int
    row: Callable[[np.ndarray], np.ndarray] | None
    survival: Callable[[float], float]


@lru_cache(maxsize=64)
def combined_law(p_e: NakagamiParams, n: int) -> EavesdropperLaw:
    """The sum of n gains of link p_e: Gamma(tau = n*m) at the same rate, front lambda^tau/(tau-1)!."""
    survival = _bound(gain_survival, _mrc_params(p_e, n))
    tau = n * p_e.m
    return EavesdropperLaw(tau * math.log(p_e.rate) - math.lgamma(tau), p_e.rate, tau, None, survival)


@lru_cache(maxsize=64)
def jammed_law(p_e: NakagamiParams, count: int, rho4: float) -> EavesdropperLaw:
    """Y = G/(1 + rho4*H), H the max of `count` gains: degree m, front count*lambda^m/((m-1)!)^2
    and one row (`_jammed_weights`). Without jamming power Y is G, and the law is `combined_law(p_e, 1)`."""
    args = (p_e, count, rho4)
    _jammed_weights(*args)  # rejects a count or rho4 out of range
    if rho4 == 0.0:
        return combined_law(p_e, 1)
    log_front = math.log(count) + p_e.m * math.log(p_e.rate) - 2.0 * math.lgamma(p_e.m)
    return EavesdropperLaw(log_front, p_e.rate, p_e.m, _bound(_jammed_row, *args), _bound(_jammed_survival, *args))
