"""Gauss-Legendre evaluation of the security-probability integrals.

Every integral runs over (0, a), where a factor exp(-h/(1-qx)) (resp.
exp(-r/(1-vy))) may screen a singularity at the right endpoint. By
construction q*a = 1, so the 1/(1-qx) pole sits on the boundary, outside the
open node set; only an interior pole (q*a > 1) is an error. Node values are
combined in log space with sign tracking, so the huge but cancelling
endpoint factors never produce 0 * inf.

Both closed-form engines integrate one kind of series (`SeriesItem`): user
rows, indexed by polynomial degree, times an eavesdropper law's density
row, summed at each node.
`series_integrals` is the one kernel: the items of a batch share their shape
and differ in their constants, so their nodes stack as one (items, nodes)
array, each item at its own `_effective_upper` cut(s), and an engine supplies
only its user rows. `g_kernel` and `h_kernel` evaluate one term of each shape
alone. No engine calls them: they are the tests' per-term references, kept in
the package for `bench/spans.py` and `bench/micro.py`.

The flow is plan, batch, one mixture. An engine's `_plan` names the
(function, arguments) entries one point reads: each integral by its
transmission (sends, size), the decoding law or the leading decoding
weights, and the ceiling masses. `cli.run_sweep` plans each (point, engine)
once, for all of the config's schemes. `_evaluate` evaluates each distinct
entry of its plans once, the `BatchedIntegral`s in batches of one shape,
and returns one dict per plan by its names (`values`): every scheme's row at
the point only mixes them. A law's density row is built once per cut in
that call (`law_rows`), read-only, and read by both engines.
"""
from __future__ import annotations

from functools import lru_cache, update_wrapper
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from .channels import EavesdropperLaw

_POLE_TOL = 1e-9
_TAIL_LOG = 60.0
# Series elements (rows x nodes) per item block, 256 kB of floats. Sized on a high-gain pass's peak RSS
# (bench/rss_probe.py): 38.3 MB at 2**14, 38.8 MB at this 2**15 (27 items of 4 rows, 300 nodes), 40.0 MB at 2**16.
_BATCH_ELEMENTS = 2**15


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


class BatchedIntegral:
    """A securing integral that `_evaluate` evaluates in batches.

    `prepare(*args)` turns the arguments, which must be hashable, into a
    `SeriesItem` that depends on nothing else, raising for arguments the
    integral refuses; `user_rows` is the engine's row builder. Decorate the
    preparing function with `partial(BatchedIntegral, user_rows=...)`.
    Called with its arguments it is a batch of one.
    """

    def __init__(self, prepare: Callable[..., SeriesItem], user_rows):
        update_wrapper(self, prepare)
        self.prepare = prepare
        self.user_rows = user_rows

    def __call__(self, *args) -> float:
        return self.evaluate([self.prepare(*args)])[0]

    def evaluate(self, items: list[SeriesItem], rows: dict | None = None) -> list[float]:
        """The values of prepared items of one shape (`SeriesItem.shape`);
        `rows` keeps the law rows they build (`law_rows`)."""
        return series_integrals(items, self.user_rows, {} if rows is None else rows)


class _Values(dict):
    """One plan's values by name (`_evaluate`); reading an entry that raised raises its error."""

    def __getitem__(self, name):
        value = super().__getitem__(name)
        if isinstance(value, Exception):
            raise value
        return value


def _evaluate(plans: list[dict]) -> list[dict]:
    """One dict of values per plan, by the plan's names: each distinct
    (function, arguments) entry of the plans evaluated once, each
    `BatchedIntegral` in batches of one shape, every other function one by
    one. The law rows the batches build are kept for the call's length, so
    every batch that reads a (law, cut) reads one array. An entry that raises
    is tried once and left out of the batches; each read of it raises its error."""
    slots: dict = {}  # each distinct entry's index, so each is hashed once per plan that lists it
    reads = [[slots.setdefault(entry, len(slots)) for entry in plan.values()] for plan in plans]
    values: list = [None] * len(slots)
    rows: dict = {}
    batches: dict = {}
    for slot, (fn, args) in enumerate(slots):
        try:
            if isinstance(fn, BatchedIntegral):
                item = fn.prepare(*args)
                batches.setdefault((fn, item.shape), []).append((slot, item))
            else:
                values[slot] = fn(*args)
        except Exception as exc:  # noqa: BLE001 - its readers raise it, whatever it is
            values[slot] = exc
    for (integral, _), entries in batches.items():
        for (slot, _), value in zip(entries, integral.evaluate([item for _, item in entries], rows)):
            values[slot] = value
    return [_Values(zip(plan, map(values.__getitem__, read))) for plan, read in zip(plans, reads)]


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


def law_rows(law, cuts: list[float], quad: QuadratureSpec, rows: dict) -> list[np.ndarray]:
    """An eavesdropper law's density row `law.row` at the nodes of (0, cut)
    for each cut, each a read-only array of shape (nodes,).

    Each is built once per (law, cut, quad) and kept in rows: the rows of
    every cut rows lacks come from one `law.row` call over all their nodes,
    stacked, and each cut's row is kept on its own. Every transmission,
    scheme and sweep point of either engine that integrates the law over
    that cut in one `_evaluate` reads the one array, so none may write to it.
    """
    keys = [(law, cut, quad) for cut in cuts]
    missing = [key for key in dict.fromkeys(keys) if key not in rows]
    if missing:
        built = law.row(quad.nodes_on(_column([cut for _, cut, _ in missing])))
        for j, key in enumerate(missing):
            block = rows[key] = built[j]
            block.setflags(write=False)
    return [rows[key] for key in keys]


def _signed_log_pow(base: np.ndarray, k) -> tuple[np.ndarray, np.ndarray]:
    """k*log|base| and sign(base)^k elementwise; k = 0 contributes nothing.

    k is a nonnegative integer, or a column of them, shape (n, 1, ..., 1),
    for n rows of powers along a new first axis. The sign comes from k's
    parity, not a float power: sign(base) at odd k, its square at even
    k > 0 and 1 at k = 0, which is sign(base)^k for every base, ±0, NaN and
    ±inf included. Each row is written once, into arrays the caller owns.
    """
    k = np.asarray(k)
    with np.errstate(divide="ignore", invalid="ignore"):
        logmag = np.multiply(k, np.log(np.abs(base)))
    sign = np.sign(base)
    square, signs = sign * sign, np.empty_like(logmag)
    log_rows, sign_rows = (out.reshape((k.size,) + sign.shape) for out in (logmag, signs))  # views
    for row, power in enumerate(k.ravel().tolist()):
        if power == 0:
            log_rows[row] = 0.0
        sign_rows[row] = 1.0 if power == 0 else sign if power % 2 else square
    return logmag, signs


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
    scaled = np.subtract(log_mag, shift)
    np.multiply(sign, np.exp(scaled, out=scaled), out=scaled)
    if tuple(degrees) == tuple(range(n_rows)):
        return shift, np.add(0.0, scaled, out=scaled)  # one entry per row: the loop's 0 + row, signed zeros too
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

    where the series is the engine's user rows times the law's density row
    (if it has one), row s of degree degree0 + s. The engine's
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
        """What the items of one batch share: degrees, law degree and row, and nodes."""
        return self.degree0, self.n_degrees, self.law.degree, self.law.row is None, self.quad


def series_integrals(items: list[SeriesItem], user_rows, rows: dict) -> list[float]:
    """The integrals of a batch of items of one `SeriesItem.shape`.

    `user_rows(users, x)` builds the user factor of distinct user constant
    tuples `users` at their nodes x, shape (len(users), nodes): it returns
    (terms, rows), log-scale terms of x's shape, added to the log scale in
    order, and rows of shape (user degrees,) + x.shape. Items of equal user
    constants and cut share one build, and the law rows are read from and
    kept in rows (`law_rows`). Items are grouped by how their
    degrees fall on cuts; each group is evaluated in item blocks of about
    `_BATCH_ELEMENTS` series elements, each cut once for the whole block.
    An item's value is what a batch of it alone gives, bit for bit: every
    step is elementwise or an axis-0 reduction, and each item meets its
    weights in its own dot product.
    """
    quad = items[0].quad
    cuts = [_degree_cuts(item) for item in items]
    partitions: dict[tuple, list[int]] = {}
    for i, item_cuts in enumerate(cuts):
        distinct = list(dict.fromkeys(item_cuts))
        partitions.setdefault(tuple(map(distinct.index, item_cuts)), []).append(i)
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
                values = _block_integrals([items[i] for i in block], block_cuts, keep, user_rows, rows)
                for i, value in zip(block, values):
                    totals[i] += value
    return totals


def _degree_cuts(item: SeriesItem) -> list[float]:
    """Each degree's `_effective_upper` cut; cuts grow with the degree, so all after the first a are a."""
    cuts = []
    for s in range(item.n_degrees):
        cuts.append(_effective_upper(item.a, item.decay, item.degree0 + s))
        if cuts[-1] == item.a:
            return cuts + [item.a] * (item.n_degrees - s - 1)
    return cuts


def _column(values) -> np.ndarray:
    """Per-item scalars as a column against (items, nodes) arrays."""
    return np.array(values)[:, None]


def _block_integrals(items: list[SeriesItem], cuts: list[float], keep: list[int], user_rows, rows: dict) -> list[float]:
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
    if law.row is not None:
        by_law: dict = {}
        for i, item in enumerate(items):
            by_law.setdefault(item.law, []).append(i)
        stacked = [None] * len(items)
        for item_law, at in by_law.items():
            for i, law_row in zip(at, law_rows(item_law, [cuts[i] for i in at], quad, rows)):
                stacked[i] = law_row
        series = series * np.stack(stacked)
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
