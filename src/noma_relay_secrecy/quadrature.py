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
integrand shape, and both engines integrate one kind of series: user rows
times an eavesdropper law's density rows, rows indexed by polynomial degree,
convolved along the degree axis and summed at each node (`SeriesItem`).
`series_integrals` is the one kernel that evaluates them, a batch at a time:
the items of a batch share their shape (degrees, law degree and row count,
node count) and differ in their constants, so their nodes stack as one
(items, nodes) array and every step is one array operation for all of them,
each item at its own cut(s). An engine supplies only its user-row builder.
Degrees are grouped by their `_effective_upper` cut, which depends on a
term's degree. `g_kernel` and `h_kernel` evaluate one term of each shape on
its own. No engine calls them: they are the tests' per-term references,
kept in the package for `bench/spans.py` and `bench/micro.py`.

Each engine call opens a sharing scope (`_sharing_scope`), and `cli.run_sweep`
opens one around all its points. Inside it a `_shared` function or a
`_batched` integral is evaluated once per distinct argument tuple. The flow
is plan, batch, one mixture: the caller that opens the scope lists what its
points read (each engine's `_plan`), evaluates the list in batches of one
integrand shape (`_evaluate`), and then runs each mixture once on the stored
values. A law's density rows are kept once per cut (`law_rows`), read-only,
and read by both engines. No stored value outlives the call or the sweep.
"""
from __future__ import annotations

import contextvars
from contextlib import contextmanager
from functools import lru_cache, update_wrapper
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from .channels import EavesdropperLaw

_POLE_TOL = 1e-9
_TAIL_LOG = 60.0
# Series elements (rows x nodes) per item block of a batch, 128 kB of floats:
# the block's other arrays are about as large, and some five are alive at once.
_BATCH_ELEMENTS = 2**14


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


# The values `_shared` functions and `_batched` integrals returned inside the
# open sharing scope, by (function, arguments); None while no scope is open.
_SHARED: contextvars.ContextVar[dict | None] = contextvars.ContextVar("shared_integrals", default=None)
_MISSING = object()


@contextmanager
def _sharing_scope():
    """Share `_shared` and `_batched` evaluations until the outermost scope closes.

    Yields whether this scope opened the store. A scope entered while one is
    open joins it, so an engine call made inside a sweep shares with the
    whole sweep; leaving the outermost scope drops every stored value.
    """
    if _SHARED.get() is not None:
        yield False
        return
    token = _SHARED.set({})
    try:
        yield True
    finally:
        _SHARED.reset(token)


class _shared:
    """fn, evaluated once per positional argument tuple inside a sharing scope.

    fn must read nothing but its (hashable) arguments, so that the tuple is
    the whole key. A call that raises stores nothing: each caller sees the
    error. Outside a scope every call evaluates.
    """

    def __init__(self, fn):
        update_wrapper(self, fn)
        self.fn = fn

    def __call__(self, *args):
        memo = _SHARED.get()
        if memo is None:
            return self.fn(*args)
        key = (self, args)
        value = memo.get(key, _MISSING)
        if value is _MISSING:
            value = memo[key] = self.fn(*args)
        return value


class BatchedIntegral(_shared):
    """A securing integral that `_evaluate` stores in batches (`_batched`).

    Called with its arguments it is a `_shared` function whose value is that
    of a batch of one. `prepare(*args)` turns the arguments into a
    `SeriesItem`, raising for arguments the integral refuses, and
    `user_rows` is the engine's row builder.
    """

    def __init__(self, prepare: Callable[..., SeriesItem], user_rows):
        update_wrapper(self, prepare)
        self.prepare = prepare
        self.user_rows = user_rows

    def fn(self, *args) -> float:
        return self.evaluate([self.prepare(*args)])[0]

    def evaluate(self, items: list[SeriesItem]) -> list[float]:
        """The values of prepared items of one shape (`SeriesItem.shape`)."""
        return series_integrals(items, self.user_rows)


def _batched(user_rows):
    """Decorator: a function that prepares one `SeriesItem` from its arguments
    becomes the `BatchedIntegral` of those arguments, whose user rows
    `user_rows` builds. The arguments must be hashable and the item must
    depend on nothing else."""
    return lambda prepare: BatchedIntegral(prepare, user_rows)


def _evaluate(plan) -> None:
    """Store in the open scope each (function, arguments) entry of the plan
    that it lacks: `_shared` values one by one, `_batched` integrals in
    batches of one integral and shape. An entry that raises (a series base
    that underflows, say) stores nothing: its reader raises the error."""
    memo = _SHARED.get()
    batches: dict = {}
    for key in dict.fromkeys(plan):
        if key in memo:
            continue
        fn, args = key
        try:
            if isinstance(fn, BatchedIntegral):
                item = fn.prepare(*args)
                batches.setdefault((fn, item.shape), []).append((key, item))
            else:
                fn(*args)  # stores its own value
        except Exception:  # noqa: BLE001 - its reader raises it, whatever it is
            continue
    for (integral, _), entries in batches.items():
        memo.update(zip((key for key, _ in entries), integral.evaluate([item for _, item in entries])))


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

    def map_to(self, a) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights for integration over (0, a); for a column of
        upper limits, one row per limit, each the row of that limit alone."""
        return self.nodes_on(a), 0.5 * a * self.weights

    def nodes_on(self, a) -> np.ndarray:
        """The nodes of `map_to`, without the weights."""
        return 0.5 * a * self._shifted


@lru_cache(maxsize=8)
def quadrature(n: int = 300) -> QuadratureSpec:
    """The shared QuadratureSpec per node count; its arrays are read-only."""
    return QuadratureSpec(n)


def law_rows(law, cuts: list[float], quad: QuadratureSpec) -> list[np.ndarray]:
    """An eavesdropper law's density rows `law.rows` at the nodes of (0, cut)
    for each cut, each a read-only array of shape (law.n_rows, nodes).

    Inside a sharing scope each is built once per (law, cut, quad) and kept:
    the rows of every cut the scope lacks come from one `law.rows` call over
    all their nodes, stacked, and each cut's slice is stored on its own.
    Every transmission, scheme and sweep point of either engine that
    integrates the law over that cut reads the one array, so none may write
    to it.
    """
    memo = _SHARED.get()
    keys = [("law_rows", law, cut, quad) for cut in cuts]
    found = {} if memo is None else {key: memo[key] for key in keys if key in memo}
    missing = [key for key in dict.fromkeys(keys) if key not in found]
    if missing:
        built = law.rows(quad.nodes_on(_column([cut for _, _, cut, _ in missing])))
        for j, key in enumerate(missing):
            rows = found[key] = built[:, j]
            rows.setflags(write=False)
        if memo is not None:
            memo.update((key, found[key]) for key in missing)
    return [found[key] for key in keys]


def _signed_log_pow(base: np.ndarray, k) -> tuple[np.ndarray, np.ndarray]:
    """k*log|base| and sign(base)^k elementwise; k = 0 contributes nothing.

    k is a nonnegative integer or an integer array broadcasting against base.
    The sign comes from k's parity, not a float power: sign(base) at odd k,
    its square at even k > 0 and 1 at k = 0, which is sign(base)^k for every
    base, ±0, NaN and ±inf included.
    """
    k = np.asarray(k)
    with np.errstate(divide="ignore", invalid="ignore"):
        logmag = np.where(k == 0, 0.0, k * np.log(np.abs(base)))
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


class SeriesItem(NamedTuple):
    """One securing integral of a batch: the integral over (0, a) of

        exp(log_front) * x^(law.degree - 1) * e^(-decay*x) * sum_s series[s](x)

    where the series is the engine's user rows convolved with the law's
    density rows (if it has any), row s of degree degree0 + s. The engine's
    row builder (`series_integrals`) reads `user`, the item's user
    constants, and adds its own log terms to the log scale. The domain must
    hold no interior pole (`_check_domain`); each degree keeps the
    `_effective_upper` cut a separate g/h-kernel call would give it (decay
    f = `decay`).
    """

    a: float
    decay: float
    log_front: float
    law: EavesdropperLaw
    degree0: int
    n_degrees: int
    user: tuple
    quad: QuadratureSpec

    @property
    def shape(self) -> tuple:
        """What the items of one batch share: degrees, law degree and rows, and nodes."""
        law = self.law
        return self.degree0, self.n_degrees, law.degree, law.n_rows, law.rows is None, self.quad


def series_integrals(items: list[SeriesItem], user_rows) -> list[float]:
    """The integrals of a batch of items of one `SeriesItem.shape`.

    `user_rows(users, x)` builds the user factor of distinct user constant
    tuples `users` at their nodes x, shape (len(users), nodes): it returns
    (terms, rows), log-scale terms of x's shape, added to the log scale in
    order, and rows of shape (user degrees,) + x.shape. Items of equal user
    constants and cut share one build. Items are grouped by how their
    degrees fall on cuts; each group is evaluated in item blocks of about
    `_BATCH_ELEMENTS` series elements, each cut once for the whole block.
    An item's value is what a batch of it alone gives, bit for bit: every
    step is elementwise or an axis-0 reduction, and each item meets its
    weights in its own dot product.
    """
    quad = items[0].quad
    cuts = [[_effective_upper(it.a, it.decay, it.degree0 + s) for s in range(it.n_degrees)] for it in items]
    partitions: dict[tuple, list[int]] = {}
    for i, item_cuts in enumerate(cuts):
        distinct = list(dict.fromkeys(item_cuts))
        partitions.setdefault(tuple(distinct.index(cut) for cut in item_cuts), []).append(i)
    # with one node the axis-0 sums reduce pairwise, not row by row, unless
    # several items stand beside it, so there every item is its own block
    step = 1 if quad.n == 1 else max(1, _BATCH_ELEMENTS // (items[0].n_degrees * quad.n))
    totals = [0.0] * len(items)
    for partition, members in partitions.items():
        groups = [[s for s, g in enumerate(partition) if g == group] for group in range(max(partition) + 1)]
        for start in range(0, len(members), step):
            block = members[start : start + step]
            for keep in groups:
                block_cuts = [cuts[i][keep[0]] for i in block]
                values = _block_integrals([items[i] for i in block], block_cuts, keep, user_rows)
                for i, value in zip(block, values):
                    totals[i] += value
    return totals


def _column(values) -> np.ndarray:
    """Per-item scalars as a column against (items, nodes) arrays."""
    return np.array(values)[:, None]


def _block_integrals(items: list[SeriesItem], cuts: list[float], keep: list[int], user_rows) -> list[float]:
    """The integrals over each item's cut of the series degrees `keep`, which share that cut."""
    quad, law = items[0].quad, items[0].law
    x, w = quad.map_to(_column(cuts))  # row i: map_to(cuts[i])
    power = (law.degree - 1.0) * np.log(x) if law.degree > 1 else 0.0  # the law's x^(degree-1)
    log_scale = _column([it.log_front for it in items]) + power - _column([it.decay for it in items]) * x
    builds: dict = {}  # one user-row build per distinct (user constants, cut)
    pick = [builds.setdefault(key, len(builds)) for key in zip((it.user for it in items), cuts)]
    if len(builds) == len(items):
        terms, series = user_rows([it.user for it in items], x)
    else:
        first = [pick.index(j) for j in range(len(builds))]
        terms, series = user_rows([items[i].user for i in first], x[first])
        terms, series = [term[pick] for term in terms], series[:, pick]
    for term in terms:
        log_scale = log_scale + term
    if law.rows is not None:
        by_law: dict = {}
        for i, item in enumerate(items):
            by_law.setdefault(item.law, []).append(i)
        stacked = [None] * len(items)
        for item_law, at in by_law.items():
            for i, rows in zip(at, law_rows(item_law, [cuts[i] for i in at], quad)):
                stacked[i] = rows
        series = convolve_series(series, np.stack(stacked, axis=1))
    kept = series if len(keep) == len(series) else series[keep]  # the same rows, without a copy
    with np.errstate(over="ignore"):
        vals = np.exp(log_scale) * kept.sum(axis=0)
    return [float(np.dot(w[i], vals[i])) for i in range(len(items))]


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
