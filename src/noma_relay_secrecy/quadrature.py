"""Gauss-Legendre evaluation of the security-probability integrals.

Every integral runs over (0, a) where the integrand may have a screened
singularity at the right endpoint: the factor exp(-h/(1-qx)) (resp.
exp(-r/(1-vy))) drives the integrand to zero there whenever h > 0 (r > 0).
By construction the constants satisfy q*a = 1 exactly, so the 1/(1-qx) pole
sits on the boundary, strictly outside the open node set; only a pole in the
interior (q*a > 1) is an error. Node values are combined in log space with
sign tracking so the huge-but-cancelling endpoint factors never produce
0 * inf.

The closed-form SOPs are finite series of such integrals that share one
integrand shape. `series_integral` evaluates a whole series at once: the
caller builds, at each node, one row stack per factor of the integrand (a
power series in one base, rows indexed by polynomial degree), the stacks are
convolved along the degree axis, and the weights meet the node values in one
dot product. Terms are grouped only by their `_effective_upper` cut, which
depends on a term's degree. `g_kernel` and `h_kernel` evaluate one term of
each shape on its own. No engine calls them: they are the per-term
references the exact and leading-order series are tested against.

Each engine call opens a sharing scope (`_sharing_scope`), and `cli.run_sweep`
opens one around all its points. Inside it, a `_shared` function is
evaluated once per distinct argument tuple: the schemes of a point share the
single-relay term, the points of a sweep share every term the swept value
does not reach, and both engines read one read-only array of a law's density
rows per cut (`law_rows`), which `series_integral` names to the integrand
beside its nodes. Those values live as long as the outermost scope. A
`_per_call` function is evaluated once per argument tuple of the innermost
scope, the engine call: the user rows of one transmission serve every
decoding-set size whose constants match, and go with the call, not the
sweep. No stored value outlives the call or the sweep that made it.
"""
from __future__ import annotations

import contextvars
from contextlib import contextmanager
from functools import lru_cache, wraps

import numpy as np

_POLE_TOL = 1e-9
_TAIL_LOG = 60.0


def _effective_upper(a: float, f: float, degree: float) -> float:
    """Shrink the domain when exp(-f*x) extinguishes the integrand early.

    With a strong eavesdropper rate the decay constant f can exceed 1/a by
    orders of magnitude, concentrating all mass in a sliver near zero that
    fixed nodes on (0, a) cannot resolve. Cutting at x with f*x = 60 plus a
    few e-folds per polynomial degree discards a tail bounded by the upper
    incomplete gamma, below 1e-20 of the kept mass, while leaving any domain
    the nodes already resolve untouched.
    """
    if f <= 0.0:
        return a
    cut = (_TAIL_LOG + 8.0 * degree) / f
    return a if cut >= a else cut


# The values `_shared` and `_per_call` functions returned inside the open
# sharing scope, by (function, arguments): the outermost scope's memo and the
# innermost one's. None while no scope is open.
_SHARED: contextvars.ContextVar[tuple[dict, dict] | None] = contextvars.ContextVar("shared_integrals", default=None)
_MISSING = object()


@contextmanager
def _sharing_scope():
    """Share `_shared` evaluations until the outermost scope closes, and
    `_per_call` ones until this scope closes.

    A scope entered while one is open joins its `_shared` memo, so an engine
    call made inside a sweep shares with the whole sweep, but starts its own
    `_per_call` memo; leaving a scope drops what it alone stored.
    """
    outer = _SHARED.get()
    token = _SHARED.set(({} if outer is None else outer[0], {}))
    try:
        yield
    finally:
        _SHARED.reset(token)


def _memoized(fn, which: int):
    """fn, memoized in the open scope's memo `which`: 0 the outermost's, 1 the innermost's."""

    @wraps(fn)
    def call(*args):
        memos = _SHARED.get()
        if memos is None:
            return fn(*args)
        memo, key = memos[which], (fn, args)
        value = memo.get(key, _MISSING)
        if value is _MISSING:
            value = memo[key] = fn(*args)
        return value

    return call


def _shared(fn):
    """fn, evaluated once per positional argument tuple inside a sharing scope.

    fn must read nothing but its (hashable) arguments, so that the tuple is
    the whole key. A call that raises stores nothing: each caller sees the
    error. Outside a scope every call evaluates.
    """
    return _memoized(fn, 0)


def _per_call(fn):
    """As `_shared`, but the value is kept only until the innermost open
    scope, one engine call, closes: for values too large to keep for a sweep."""
    return _memoized(fn, 1)


class QuadratureSpec:
    """Gauss-Legendre abscissae and weights on [-1, 1], read-only: every
    caller of `quadrature` shares one spec per node count."""

    __slots__ = ("n", "nodes", "weights", "_shifted")

    def __init__(self, n: int = 300):
        if int(n) != n or n < 1:
            raise ValueError(f"node count must be a positive integer, got {n!r}")
        self.n = int(n)
        nodes, weights = np.polynomial.legendre.leggauss(self.n)
        shifted = nodes + 1.0  # each mapping of the nodes starts from it
        for arr in (nodes, weights, shifted):
            arr.setflags(write=False)
        self.nodes = nodes
        self.weights = weights
        self._shifted = shifted

    def map_to(self, a: float) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights for integration over (0, a)."""
        return self.nodes_on(a), 0.5 * a * self.weights

    def nodes_on(self, a: float) -> np.ndarray:
        """The nodes of `map_to`, without the weights."""
        return 0.5 * a * self._shifted


@lru_cache(maxsize=8)
def quadrature(n: int = 300) -> QuadratureSpec:
    """The shared QuadratureSpec per node count; its arrays are read-only."""
    return QuadratureSpec(n)


@_shared
def law_rows(law, cut: float, quad: QuadratureSpec) -> np.ndarray:
    """An eavesdropper law's density rows `law.rows` at the nodes of (0, cut), read-only.

    Inside a sharing scope they are built once per (law, cut, quad): every
    transmission, scheme and sweep point of either engine that integrates
    the law over that cut reads the one array, so none may write to it.
    """
    rows = law.rows(quad.nodes_on(cut))
    rows.setflags(write=False)
    return rows


def _signed_log_pow(base: np.ndarray, k) -> tuple[np.ndarray, np.ndarray]:
    """k*log|base| and sign(base)^k elementwise; k = 0 contributes nothing.

    k is a nonnegative integer or an integer array broadcasting against base.
    For an array k the sign comes from k's parity, not a float power:
    sign(base) at odd k, its square at even k > 0 and 1 at k = 0, which is
    sign(base)^k for every base, ±0, NaN and ±inf included.
    """
    k = np.asarray(k)
    with np.errstate(divide="ignore", invalid="ignore"):
        logmag = np.where(k == 0, 0.0, k * np.log(np.abs(base)))
    if k.ndim == 0:
        return logmag, np.sign(base) ** k  # 0^0 = 1: k = 0 keeps a zero base's sign at 1
    sign = np.sign(base)
    return logmag, np.where(k % 2 == 1, sign, np.where(k == 0, 1.0, sign * sign))


def _check_domain(a: float, pole: float, name: str) -> None:
    """Reject an empty domain and a 1/(1 - pole*x) pole interior to (0, a)."""
    if not a > 0:
        raise ValueError(f"upper limit a must be positive, got {a!r}")
    if pole * a > 1.0 + _POLE_TOL:
        raise ValueError(f"pole inside domain: {name}*a = {pole * a!r} > 1")


def series_rows(degrees, log_mag: np.ndarray, sign: np.ndarray, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Stack signed log-space entries into rows by polynomial degree.

    Entry i has degree degrees[i] and node values sign[i]*exp(log_mag[i]).
    Returns (shift, rows): shift is the per-node maximum of log_mag and
    rows[d] sums sign*exp(log_mag - shift) over the entries of degree d, so
    every row stays within [-len(entries), len(entries)] and the magnitude
    lives in shift alone.
    """
    shift = log_mag.max(axis=0)
    shift = np.where(np.isfinite(shift), shift, 0.0)  # a node where every entry is 0
    scaled = sign * np.exp(log_mag - shift)
    if tuple(degrees) == tuple(range(n_rows)):
        return shift, 0.0 + scaled  # one entry per row: the loop's 0 + row, signed zeros included
    rows = np.zeros((n_rows,) + shift.shape)
    for degree, row in zip(degrees, scaled):
        rows[degree] += row
    return shift, rows


def convolve_series(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two row stacks indexed by degree: row s sums a[i]*b[s-i]."""
    out = np.zeros((a.shape[0] + b.shape[0] - 1,) + a.shape[1:])
    for i, row in enumerate(a):
        out[i : i + b.shape[0]] += row * b
    return out


def series_integral(
    a: float, pole: float, f: float, degree0: int, n_degrees: int, integrand, quad: QuadratureSpec
) -> float:
    """Integral over (0, a) of a series of terms of degrees degree0 .. degree0+n_degrees-1.

    `integrand(x, cut)` returns (log_scale, series) at the nodes x of
    (0, cut), with series of shape (n_degrees, len(x)): the degree-(degree0+s)
    terms sum to exp(log_scale)*series[s]. The integrand may key what it
    builds on the nodes by cut, never by the nodes' bytes. Each degree keeps the `_effective_upper` cut a
    separate g/h-kernel call would give it (e^{-f x} decay, `pole` as in
    q or v), and degrees that share a cut share one set of nodes, so when no
    cut applies the whole series is one evaluation and one dot product.
    """
    _check_domain(a, pole, "pole")
    cuts = [_effective_upper(a, f, degree0 + s) for s in range(n_degrees)]
    total = 0.0
    for cut in dict.fromkeys(cuts):
        x, w = quad.map_to(cut)
        log_scale, series = integrand(x, cut)
        keep = [s for s, c in enumerate(cuts) if c == cut]
        with np.errstate(over="ignore"):
            vals = np.exp(log_scale) * series[keep].sum(axis=0)
        total += float(np.dot(w, vals))
    return total


def g_kernel(a, b, c, r, q, f, h, k, j, quad: QuadratureSpec) -> float:
    """integral_0^a x^{b-1} e^{-f x - h/(1-q x)} (1+c x)^k (1+r/(1-q x))^j dx.

    b >= 1; k, j nonnegative integers. Requires a > 0 and no pole interior
    to the domain: q*a <= 1 (equality is the constructed case and is fine,
    the nodes stay strictly inside).
    """
    _check_domain(a, q, "q")
    x, w = quad.map_to(_effective_upper(a, f, b + k + j))
    one_minus_qx = 1.0 - q * x
    log_val = (b - 1.0) * np.log(x) - f * x - h / one_minus_qx
    sign = np.ones_like(x)
    lm, sg = _signed_log_pow(1.0 + c * x, int(k))
    log_val += lm
    sign *= sg
    lm, sg = _signed_log_pow(1.0 + r / one_minus_qx, int(j))
    log_val += lm
    sign *= sg
    with np.errstate(over="ignore"):
        vals = sign * np.exp(log_val)
    return float(np.dot(w, vals))


def h_kernel(
    a,
    b,
    c,
    f,
    r,
    u,
    v,
    ell,
    theta1,
    k,
    varsigma,
    C,
    D,
    rho4,
    lambda_e,
    quad: QuadratureSpec,
) -> float:
    """One jamming-scheme integral over (0, a), a = 1/v:

    integral (ell + theta1*y)^b (1 + u/(1-v y))^c
             (rho4*lambda_e*y^{k+1} + D*y^k - C*k*y^{k-1}) / (rho4*y + C)^{varsigma+1}
             e^{-f y - r/(1-v y)} dy

    b, c, k nonnegative integers. The y^{k-1} piece carries the factor k and
    is skipped at k = 0 where it vanishes identically.
    """
    if not v > 0:
        raise ValueError(f"v must be positive, got {v!r}")
    _check_domain(a, v, "v")
    y, w = quad.map_to(_effective_upper(a, f, b + c + k + 1))
    one_minus_vy = 1.0 - v * y
    log_val = -f * y - r / one_minus_vy
    sign = np.ones_like(y)
    lm, sg = _signed_log_pow(ell + theta1 * y, int(b))
    log_val += lm
    sign *= sg
    lm, sg = _signed_log_pow(1.0 + u / one_minus_vy, int(c))
    log_val += lm
    sign *= sg
    numer = rho4 * lambda_e * y ** (k + 1) + D * y**k
    if k > 0:
        numer = numer - C * k * y ** (k - 1)
    rational = numer / (rho4 * y + C) ** (varsigma + 1)
    with np.errstate(over="ignore"):
        vals = sign * np.exp(log_val) * rational
    return float(np.dot(w, vals))
