"""Trial-level simulator of the two-hop secrecy protocol.

Each trial draws every channel gain, forms the decoding set, runs the chosen
relay-selection rule, and checks both users' secrecy-rate targets against the
worst-case eavesdropper. Estimates aggregate per-block outcome counts, with
one independent substream per chunk so the result is reproducible no matter
how chunks are scheduled.

Layout. A chunk's gains are drawn in blocks of
`_BLOCK_ELEMENTS // (_WORKERS * K)` trials, each block trial-major, shape
(rows, K), then transposed relay-major, shape (K, rows), while it is still
in cache: every reduction over relays then combines whole contiguous rows
instead of striding across K-element rows, and a combining sum adds the
relays' rows in relay order. A block's draws and the temporaries of its
verdicts stay in cache, and no chunk is ever held whole.

Shared draws. The gains depend only on K, the four links, the seed and the
chunk, never on the powers, the power split or the scheme. `estimate_many`
therefore draws each block once for every scenario and scheme it is given
(common random numbers), which makes differences between schemes, powers
and splits paired. Each block reads exactly the uniforms a whole-chunk
(chunk, K) draw of each link gives its trials: pass j of a link (its j-th
exponential term) starts at the link's offset in the chunk stream plus
j*chunk*K, and at the start of a chunk one generator per (link, pass) is
jumped there (`PCG64.advance`), from which each block reads its next rows.
Inside a block, the decoding set is formed once per scenario, `osrs` and
`tsrs` share one set of threshold checks, and scenarios with the same
constants share one verdict. Each transmission is decided once: where
every relay decodes there is no idle relay to jam, so `odrs` sends as
`osrs` does (`SchemeKind.transmission`) and takes its codes, and its jammed
selection runs only on the trials with an idle relay. The jamming split of
the relay SNR is `params.jamming_split`, the one the closed forms use.

Threads. The calling thread draws every block, through this module's
`sample_gain`, just before it is decided. Given a second usable core, each
drawn block joins the queue of the one helper thread's executor, which
decides blocks in turn, overlapping the next draws; the calling thread
takes the oldest waiting block back and decides it itself whenever two or
more are waiting, so at most three blocks are alive at once, and takes
back what still waits once the last block is drawn. The jobs are every block
of every chunk of one call, and the counts are summed on the calling thread
in block order, so no estimate depends on scheduling. The kernel keeps only
pass/fail flags per relay and forms each check in place, so deciding 100k
trials at K = 8 for all four schemes peaks below 10 MB (tracemalloc), where
one whole chunk of those draws would hold 25.6 MB.

All threshold checks are done in cross-multiplied form, 1 + leg SNR against
theta * (1 + tap SNR), e.g. the user-2 check reads
(1 + rho*g2) >= theta2 * (1 + alpha2*rho*gE) * (1 + alpha1*rho*g2)
after clearing the SINR denominator. An outage is blamed on the users whose
checks the relay a scheme ranks first fails. Where every decoding relay
fails the same checks, so does the first-ranked one, and those checks blame
the trial; the float ratios of the same quantities, which rank relays by
argmax, are formed only on the outage trials whose decoding relays fail
different checks. They never decide a verdict the boolean checks did not.

No select or masked write that branches on the draws forms a verdict: relay
sums and the jammer multiply gains by 0/1 flags, and each outcome code sums
bool votes. np.where and boolean-index writes gave the same bytes 2-3x
slower where half the relays decode and the flags are random. Subsets go
by index: the trials with an idle relay to jam, and the split outages ranked.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from .channels import _is_count, sample_gain
from .params import PowerPolicy, SchemeKind, SystemParams, Transmission, jamming_split

OUTCOME_LABELS = ("secure", "u1", "u2", "both", "no_relay")
_SECURE, _U1, _U2, _BOTH, _NO_RELAY = range(5)
_BREAKDOWN_KEYS = ("outage_u1_only", "outage_u2_only", "outage_both", "no_relay")
# Gains per link in the blocks in flight at once (1 MiB of float64), split
# evenly between the workers. On a 2-core Xeon with a 2 MiB L2, the reference
# sweep's verdicts ran 1.4x faster on one thread in blocks of 2**16-2**17
# gains than on whole 250k-trial chunks, and slower again at 2**15. Blocks
# never change which uniforms a trial reads (`_draw_blocks`).
_BLOCK_ELEMENTS = 2**17


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


# Threads that decide the blocks: the calling thread and, given a second
# usable core, one helper; numpy's array loops release the GIL, so the two
# overlap. More than two were never measured, so more are not used.
_WORKERS = min(2, _usable_cores())
_POOL = None  # the helper thread's executor, made by the first call that needs it


@dataclass(frozen=True)
class TrialConfig:
    """Estimation budget and reproducibility knobs."""

    trials: int = 1_000_000
    seed: int = 42
    chunk: int = 250_000

    def __post_init__(self) -> None:
        for name, low in (("trials", 1), ("chunk", 1), ("seed", 0)):
            val = getattr(self, name)
            if not _is_count(val, low):
                kind = "positive" if low else "nonnegative"
                raise ValueError(f"{name} must be a {kind} integer, got {val!r}")
            object.__setattr__(self, name, int(val))


@dataclass(frozen=True)
class SopEstimate:
    """Frequency estimate of the SOP with its binomial standard error."""

    p_hat: float
    stderr: float
    trials: int
    breakdown: dict[str, int] = field(default_factory=dict)


class _Rule(NamedTuple):
    """The scenario constants a verdict depends on, besides K, the draws and alphaJ."""

    eta: float
    rho2: float
    theta1: float
    theta2: float
    alpha1: float
    alpha2: float


def _rule(params: SystemParams, policy: PowerPolicy) -> _Rule:
    alpha1, alpha2 = policy.resolve(params.links)
    return _Rule(params.eta, params.rho2, params.theta1, params.theta2, alpha1, alpha2)


def _verdict(scheme: SchemeKind, policy: PowerPolicy) -> tuple[Transmission, bool, float | None]:
    """What, besides the rule, tells one scheme's verdicts apart: its record,
    and alphaJ when it jams. Schemes with one record share one verdict."""
    return scheme.sends, scheme.two_step, policy.alphaJ if scheme.sends is Transmission.JAMMED else None


def _first_argmax(key: np.ndarray) -> np.ndarray:
    """Row of each column's maximum, the first such row on ties (as np.argmax)."""
    best = key[0]
    sel = np.zeros(key.shape[1], dtype=np.intp)
    for r in range(1, key.shape[0]):
        better = key[r] > best
        best = np.where(better, key[r], best)
        sel[better] = r
    return sel


def _sides1(rule: _Rule, rho, g1, ge):
    """Both sides of user 1's secrecy check, (1 + alpha1*rho*g1, theta1 * (1 + alpha1*rho*ge)).

    The user passes iff lhs >= rhs, and lhs / rhs is its margin (>= 1 iff the
    check passes), monotone in its secrecy capacity. Each side is formed in
    its own buffer with the operations in the written order, the operands of
    a sum or product at most swapped, which leaves every rounding as written.
    """
    a1_rho = rule.alpha1 * rho
    lhs = np.multiply(a1_rho, g1)
    lhs += 1.0
    rhs = np.multiply(a1_rho, ge)
    rhs += 1.0
    rhs *= rule.theta1
    return lhs, rhs


def _sides2(rule: _Rule, rho, g2, ge):
    """Both sides of user 2's check, (1 + rho*g2, theta2 * (1 + alpha2*rho*ge) * (1 + alpha1*rho*g2)),
    formed as `_sides1` forms user 1's; the last factor is formed in lhs's buffer."""
    rhs = np.multiply(rule.alpha2 * rho, ge)
    rhs += 1.0
    rhs *= rule.theta2
    lhs = np.multiply(rule.alpha1 * rho, g2)
    lhs += 1.0
    rhs *= lhs
    np.multiply(rho, g2, out=lhs)
    lhs += 1.0
    return lhs, rhs


class _Selection:
    """The secrecy checks of every relay in a block, for the selection schemes.

    One instance serves every scheme that sends singly (osrs and tsrs): each
    transmits from one relay at the full relay SNR against the plain
    eavesdropper gain. Only the pass/fail of each check is kept, and per
    trial whether some decoding relay passes and whether some fails each
    user's check. Where the decoding relays of an outage trial all fail the
    same checks, those blame it; the margins that rank relays are formed
    again only on the outage trials whose decoding relays disagree. Codes
    are sums of the votes, not masked writes, which branch on them (slower).
    """

    def __init__(self, rule: _Rule, rho: float, dec, g_1, g_2, ge, cols=None) -> None:
        """`dec` and `ge` are the selection's trials' own; `g_1` and `g_2`
        are the block's, and the trials are its columns `cols` (None: every
        column), so a subset's user gains are never copied whole."""
        self.rule, self.rho, self.cols = rule, rho, cols
        self.g_1, self.g_2, self.ge = g_1, g_2, ge
        self.dec = dec
        self.ok1 = np.greater_equal(*_sides1(rule, rho, self._user(g_1), ge))
        self.ok2 = np.greater_equal(*_sides2(rule, rho, self._user(g_2), ge))
        dec_ok1 = dec & self.ok1
        self.pass1, self.fail1 = dec_ok1.any(axis=0), (dec > self.ok1).any(axis=0)
        self.fail2 = (dec > self.ok2).any(axis=0)
        # Some decoding relays pass a check and others fail it.
        self.split = (self.pass1 & self.fail1) | ((dec & self.ok2).any(axis=0) & self.fail2)
        # Secure iff some decoding relay passes both checks. For tsrs this is
        # the same event: a relay passing both has margin r2 >= 1, so the best
        # r2 among the relays passing user 1's check passes user 2's too.
        self.secure = (dec_ok1 & self.ok2).any(axis=0)

    def _user(self, g, trials=None) -> np.ndarray:
        """A user link's gains at the given trials of the selection (None: all)."""
        if self.cols is not None:
            trials = self.cols if trials is None else self.cols[trials]
        return g if trials is None else np.take(g, trials, axis=1)

    def _margin(self, sides, g, trials) -> np.ndarray:
        """The margin of one user's check (`_sides1` with g_1, `_sides2` with
        g_2) at every relay of the given trials."""
        lhs, rhs = sides(self.rule, self.rho, self._user(g, trials), np.take(self.ge, trials, axis=1))
        lhs /= rhs
        return lhs

    def _ranked_codes(self, two_step: bool, trials) -> np.ndarray:
        """Codes of the given outage trials by the checks failed by their
        decoding relay of best margin: the user-1 margin under two-step (no
        relay of these trials passes user 1), else the worst-user margin."""
        margin = self._margin(_sides1, self.g_1, trials)
        if not two_step:
            np.minimum(margin, self._margin(_sides2, self.g_2, trials), out=margin)
        dec = np.take(self.dec, trials, axis=1)
        best = _first_argmax(np.where(dec, margin, -np.inf)) * self.dec.shape[1] + trials
        return (~np.take(self.ok1, best)) + 2 * (~np.take(self.ok2, best))

    def decide(self, two_step: bool) -> np.ndarray:
        """Outcome code of every trial with a decoding relay (0 where none).
        Two-step blames user 2 alone where some relay passes user 1's check
        (each such relay fails user 2's) but none passes both."""
        blamed = ~self.pass1 if two_step else ~self.secure  # the outages a ranking may blame
        codes = (self.fail2 & ~self.secure).view(np.int8) * 2
        codes += self.fail1 & blamed
        ranked = np.flatnonzero(blamed & self.split)
        if ranked.size:
            codes[ranked] = self._ranked_codes(two_step, ranked)
        return codes


def _decoding_sum(g, dec) -> np.ndarray:
    """Per trial, g summed over the decoding relays in relay order: bit for
    bit np.where(dec, g, 0.0).sum(axis=0) for finite gains, but for the sign
    of a zero sum, which no check sees (each adds 1 to it)."""
    return (g * dec).sum(axis=0)


def _idle_max(g, dec) -> np.ndarray:
    """Per trial with an idle relay, the largest idle gain: bit for bit
    np.where(dec, -np.inf, g).max(axis=0) there, a zero's sign aside."""
    return (g * ~dec).max(axis=0)


def _combined_codes(rule: _Rule, dec, n, g_1, g_2, g_e) -> np.ndarray:
    """Outcome code per trial when the n decoding relays all send at P_R/n
    and every receiver sums their gains (undefined where n = 0); the sums
    multiply by the flags, which does not branch on them as a select does."""
    rho1 = np.divide(rule.rho2, np.maximum(n, 1), dtype=np.float64)
    s_e = _decoding_sum(g_e, dec)
    codes = (~np.greater_equal(*_sides2(rule, rho1, _decoding_sum(g_2, dec), s_e))).view(np.int8)
    codes *= 2
    codes += ~np.greater_equal(*_sides1(rule, rho1, _decoding_sum(g_1, dec), s_e))
    return codes


def _jammed_codes(rule: _Rule, alpha_j: float, two_step: bool, trials, dec, g_1, g_2, g_e) -> np.ndarray:
    """Outcome codes of the given trials, each with a decoding and an idle
    relay, when the strongest idle relay's eavesdropper link is jammed."""
    dec, g_e = np.take(dec, trials, axis=1), np.take(g_e, trials, axis=1)
    rho3, rho4 = jamming_split(alpha_j, rule.rho2)
    g_e /= 1.0 + rho4 * _idle_max(g_e, dec)
    return _Selection(rule, rho3, dec, g_1, g_2, g_e, cols=trials).decide(two_step)


def _block_codes(rule: _Rule, verdicts, g_sr, g_1, g_2, g_e) -> dict:
    """Outcome code per trial of one block of relay-major (K, trials) gains,
    for each wanted (transmission, two_step, alphaJ) verdict under one rule.

    Each transmission is decided once: a jammed verdict starts from the codes
    of the single-relay verdict with its blame rule, which is how it sends
    where every relay decodes (`SchemeKind.transmission`), and runs its own
    selection only on the trials with an idle relay.
    """
    k = g_sr.shape[0]
    dec = g_sr >= rule.eta
    n = dec.sum(axis=0, dtype=np.min_scalar_type(k))  # the narrowest count that holds K
    live = n > 0
    no_relay = np.multiply(~live, _NO_RELAY, dtype=np.int8)  # above every other code
    # The single-relay verdicts the jammed ones start from, wanted or not;
    # sorted, every single-relay verdict comes before every jammed one.
    codes_of = dict.fromkeys(verdicts)
    for sends, two_step, _ in verdicts:
        if sends is Transmission.JAMMED:
            codes_of.setdefault((Transmission.SINGLE, two_step, None))
    single = None  # the checks every single-relay verdict reads
    for verdict in sorted(codes_of, key=lambda v: v[0] is Transmission.JAMMED):
        sends, two_step, alpha_j = verdict
        if sends is Transmission.JAMMED:
            single = None  # every single-relay verdict is decided
            codes = codes_of[Transmission.SINGLE, two_step, None].copy()
            idle = np.flatnonzero(live & (n < k))  # the trials with an idle relay to jam
            if idle.size:
                codes[idle] = _jammed_codes(rule, alpha_j, two_step, idle, dec, g_1, g_2, g_e)
        else:
            if sends is Transmission.COMBINED:
                codes = _combined_codes(rule, dec, n, g_1, g_2, g_e)
            else:
                if single is None:
                    single = _Selection(rule, rule.rho2, dec, g_1, g_2, g_e)
                codes = single.decide(two_step)
            np.maximum(codes, no_relay, out=codes)
        codes_of[verdict] = codes
    return {v: codes_of[v] for v in verdicts}


def _chunk_sizes(config: TrialConfig):
    remaining = config.trials
    index = 0
    while remaining > 0:
        size = min(config.chunk, remaining)
        yield index, size
        remaining -= size
        index += 1


def _chunk_stream(config: TrialConfig, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(index,)))


def _block_step(k: int) -> int:
    """Trials per block: 1/_WORKERS of `_BLOCK_ELEMENTS` gains per link."""
    return max(1, _BLOCK_ELEMENTS // _WORKERS // k)


def _pass_streams(links: tuple, stream: np.random.Generator, per_pass: int) -> list:
    """Per link, one generator per exponential pass, each set where a whole
    draw of the links in turn reads that pass from `stream`, every pass
    taking `per_pass` uniforms (`sample_gain`). Each is a copy of the
    stream's PCG64 state jumped ahead with `advance`, which costs O(log n);
    a random float64 takes one 64-bit output."""
    bitgen = stream.bit_generator
    if not isinstance(bitgen, np.random.PCG64):
        raise TypeError(f"block draws need a PCG64 chunk stream, got {type(bitgen).__name__}")
    state = bitgen.state
    offset = 0
    passes = []
    for link in links:
        gens = []
        for _ in range(link.m):
            copy = np.random.PCG64()
            copy.state = state
            copy.advance(offset)
            gens.append(np.random.Generator(copy))
            offset += per_pass
        passes.append(gens)
    return passes


def _draw_blocks(params: SystemParams, stream: np.random.Generator, size: int, step: int):
    """A `size`-trial chunk's gains per link, relay-major (K, rows), drawn
    `step` trials at a time as they are asked for. Each block reads the
    next rows of every pass, so trial t reads the uniforms a whole-chunk
    (size, K) draw of each link gives it; the block is transposed while it
    is still in cache. `stream` itself is not advanced."""
    ls = params.links
    links = (ls.source_relay, ls.relay_user1, ls.relay_user2, ls.relay_eaves)
    passes = _pass_streams(links, stream, size * params.K)
    for start in range(0, size, step):
        shape = (min(step, size - start), params.K)
        yield tuple(np.ascontiguousarray(sample_gain(link, gens, shape).T) for link, gens in zip(links, passes))


def _blocks(config: TrialConfig, params: SystemParams):
    """Every block of every chunk, drawn on the thread that asks for it."""
    step = _block_step(params.K)
    for index, size in _chunk_sizes(config):
        yield from _draw_blocks(params, _chunk_stream(config, index), size, step)


def _run_shared(fn, jobs) -> list:
    """[fn(job) for job in jobs], with `jobs` advanced on the calling thread
    only and, with two workers, each job it yields put in the helper
    thread's queue: the calling thread takes the oldest waiting job back
    whenever two or more wait, and every waiting job once `jobs` is spent.
    Results keep the jobs' order, so nothing the caller makes of them
    depends on which thread ran which job. The first error of either thread
    is raised once no job of this call runs or waits."""
    if _WORKERS < 2:
        return [fn(job) for job in jobs]
    pool = _helper_pool()
    results: list = []
    queued: list = []  # (index, box, future) of the jobs handed over and not collected, oldest first

    def take_back(most: int) -> None:
        """Collect the finished jobs, raising the helper's error, then decide
        the oldest waiting ones here until at most `most` wait."""
        while queued and queued[0][2].done():
            index, _, future = queued.pop(0)
            results[index] = future.result()
        for index, box, future in queued[:len(queued) - most]:  # one the helper has started is not cancelled
            if future.cancel():
                queued.remove((index, box, future))
                results[index] = fn(box.pop())

    try:
        for job in jobs:
            box = [job]  # emptied when the job is taken back: the executor's queue keeps the box
            queued.append((len(results), box, pool.submit(lambda box: fn(box.pop()), box)))
            results.append(None)
            take_back(1)
        take_back(0)
        for index, _, future in queued:
            results[index] = future.result()
    except BaseException:
        for future in [future for *_, future in queued if not future.cancel()]:
            future.exception()  # wait for its current job: none of this call's work outlives it
        raise
    return results


def _helper_pool():
    global _POOL
    if _POOL is None:
        # imported here: concurrent.futures adds about 12 ms to every start-up
        from concurrent.futures import ThreadPoolExecutor

        _POOL = ThreadPoolExecutor(max_workers=1, thread_name_prefix="montecarlo")
    return _POOL


def _block_counts(rules: list, block) -> list:
    """Outcome counts per verdict of one block, for each (rule, verdicts)."""
    return [{v: np.array([np.count_nonzero(codes == k) for k in range(len(OUTCOME_LABELS))])
             for v, codes in _block_codes(rule, verdicts, *block).items()}
            for rule, verdicts in rules]


def _estimate_from_counts(counts: np.ndarray, trials: int) -> SopEstimate:
    outages = int(counts[1:].sum())
    p_hat = outages / trials
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    breakdown = {key: int(counts[i + 1]) for i, key in enumerate(_BREAKDOWN_KEYS)}
    return SopEstimate(p_hat=p_hat, stderr=stderr, trials=trials, breakdown=breakdown)


def _scenarios(params, policy) -> list[tuple[SystemParams, PowerPolicy]]:
    if isinstance(params, SystemParams) and isinstance(policy, PowerPolicy):
        return [(params, policy)]
    if isinstance(params, SystemParams) or isinstance(policy, PowerPolicy):
        raise ValueError("params and policy must both be single values or both be sequences")
    params, policy = list(params), list(policy)
    if not params or len(params) != len(policy):
        raise ValueError(f"params and policy must be nonempty sequences of one length, "
                         f"got {len(params)} and {len(policy)}")
    first = params[0]
    if any(p.K != first.K or p.links != first.links for p in params):
        raise ValueError("scenarios that share draws must have the same K and links")
    return list(zip(params, policy))


def estimate_many(params, policy, schemes, config: TrialConfig) -> dict:
    """Estimate the SOP of several schemes on one shared stream of draws.

    With one `SystemParams` and one `PowerPolicy`, returns {scheme: estimate}.
    With equal-length sequences of them, one scenario per position, returns
    {(position, scheme): estimate}; the scenarios must share K and the four
    links, and may differ in powers, rate targets, split and alphaJ. Every
    scenario and scheme reads the same draws, so each estimate equals what a
    call for that scenario alone returns, and differences between them are
    paired rather than blurred by independent sampling noise.
    """
    scenarios = _scenarios(params, policy)
    kinds = [SchemeKind(s) for s in schemes]
    if not kinds:
        raise ValueError("schemes must be a nonempty sequence")
    # One outcome tally per distinct verdict; each (position, scheme) reads one.
    tallies: dict[_Rule, dict] = {}
    slots = {}
    for i, (p, pol) in enumerate(scenarios):
        per_rule = tallies.setdefault(_rule(p, pol), {})
        for s in kinds:
            slots[i, s] = per_rule.setdefault(_verdict(s, pol), np.zeros(5, dtype=np.int64))
    # Each block is drawn just before it is decided and let go once decided;
    # its counts are added in block order.
    rules = [(rule, tuple(per_rule)) for rule, per_rule in tallies.items()]
    for counts in _run_shared(partial(_block_counts, rules), _blocks(config, scenarios[0][0])):
        for per_rule, per_verdict in zip(tallies.values(), counts):
            for verdict, c in per_verdict.items():
                per_rule[verdict] += c
    estimates = {key: _estimate_from_counts(c, config.trials) for key, c in slots.items()}
    if isinstance(params, SystemParams):
        return {s: estimates[0, s] for s in kinds}
    return estimates


def estimate_sop(
    params: SystemParams,
    policy: PowerPolicy,
    scheme: SchemeKind,
    config: TrialConfig,
) -> SopEstimate:
    """Monte Carlo SOP estimate for one scheme."""
    return estimate_many(params, policy, [scheme], config)[SchemeKind(scheme)]

