"""Trial-level simulator of the two-hop secrecy protocol.

Each trial draws every channel gain, forms the decoding set, runs the chosen
relay-selection rule, and checks both users' secrecy-rate targets against the
worst-case eavesdropper. Estimates aggregate per-chunk outcome counts, with
one independent substream per chunk so the result is reproducible no matter
how chunks are scheduled.

Layout. A chunk's gains are drawn trial-major, shape (trials, K), so the
uniform stream is read in trial order, and stored relay-major, shape
(K, trials): every reduction over relays then combines whole contiguous rows
instead of striding across K-element rows, and a combining sum adds the
relays' rows in relay order. The verdict kernel walks a chunk
in blocks of `_BLOCK_ELEMENTS // K` trials, so the temporaries of one block
stay in cache.

Shared draws. The gains depend only on K, the four links, the seed and the
chunk, never on the powers, the power split or the scheme. `estimate_many`
therefore draws each chunk once for every scenario and scheme it is given
(common random numbers), which makes differences between schemes, powers
and splits paired. Inside a block, the decoding set is formed once per
scenario, `osrs` and `tsrs` share one set of threshold checks, and scenarios
with the same constants share one verdict. The jamming split of the relay
SNR is `params.jamming_split`, the one the closed forms use.

All threshold checks are done in cross-multiplied form, 1 + leg SNR against
theta * (1 + tap SNR), e.g. the user-2 check reads
(1 + rho*g2) >= theta2 * (1 + alpha2*rho*gE) * (1 + alpha1*rho*g2)
after clearing the SINR denominator. The float ratios of the same quantities
only rank relays inside argmax selections and attribute outages to a user;
they never decide a verdict that the boolean checks did not, and they are
formed only on the trials whose outage they attribute.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channels import _is_count, sample_gain
from .params import PowerPolicy, SchemeKind, SystemParams, Transmission, jamming_split

OUTCOME_LABELS = ("secure", "u1", "u2", "both", "no_relay")
_SECURE, _U1, _U2, _BOTH, _NO_RELAY = range(5)
_BREAKDOWN_KEYS = ("outage_u1_only", "outage_u2_only", "outage_both", "no_relay")
# Gains per link in one kernel block (1 MiB of float64). On a 2-core Xeon with
# a 2 MiB L2, the reference sweep's verdicts ran 1.4x faster in blocks of
# 2**16-2**17 gains than on whole 250k-trial chunks, and slower again at 2**15.
# Blocks only slice a drawn chunk; they never change which uniforms a trial reads.
_BLOCK_ELEMENTS = 2**17


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


def _pair_checks(rule: _Rule, rho, g1, g2, ge):
    """Both sides of the two secrecy checks, (lhs1, rhs1, lhs2, rhs2).

    User v passes iff lhs_v >= rhs_v; lhs_v / rhs_v is its margin (>= 1 iff
    the check passes), monotone in the user's secrecy capacity.
    """
    alpha1, alpha2 = rule.alpha1, rule.alpha2
    lhs1 = 1.0 + alpha1 * rho * g1
    rhs1 = rule.theta1 * (1.0 + alpha1 * rho * ge)
    lhs2 = 1.0 + rho * g2
    rhs2 = rule.theta2 * (1.0 + alpha2 * rho * ge) * (1.0 + alpha1 * rho * g2)
    return lhs1, rhs1, lhs2, rhs2


def _margin(lhs, rhs, trials) -> np.ndarray:
    """One user's margin lhs / rhs at every relay, for the given trials only."""
    return np.take(lhs, trials, axis=1) / np.take(rhs, trials, axis=1)


class _Selection:
    """The secrecy checks of every relay in a block, for the selection schemes.

    One instance serves every scheme that sends singly (osrs and tsrs): each
    transmits from one relay at the full relay SNR against the plain
    eavesdropper gain.
    """

    def __init__(self, rule: _Rule, rho, dec, live, g_1, g_2, ge) -> None:
        self.dec = dec
        self.live = live
        self.lhs1, self.rhs1, self.lhs2, self.rhs2 = _pair_checks(rule, rho, g_1, g_2, ge)
        self.ok1 = self.lhs1 >= self.rhs1
        self.ok2 = self.lhs2 >= self.rhs2
        # Secure iff some decoding relay passes both checks. For tsrs this is
        # the same event: a relay passing both has margin r2 >= 1, so the best
        # r2 among the relays passing user 1's check passes user 2's too.
        self.secure = live & (dec & self.ok1 & self.ok2).any(axis=0)

    def _best(self, trials, margin) -> np.ndarray:
        """Flat index of the decoding relay of best margin in each of `trials`."""
        sel = _first_argmax(np.where(np.take(self.dec, trials, axis=1), margin, -np.inf))
        return sel * self.dec.shape[1] + trials

    def pick_one(self, codes) -> None:
        """Outages go to the users failed by the relay of best worst-user margin."""
        codes[self.secure] = _SECURE
        out = np.flatnonzero(self.live & ~self.secure)
        if out.size:
            best = self._best(out, np.minimum(_margin(self.lhs1, self.rhs1, out),
                                              _margin(self.lhs2, self.rhs2, out)))
            codes[out] = (~np.take(self.ok1, best)) + 2 * (~np.take(self.ok2, best))

    def two_step(self, codes) -> None:
        """Keep the relays passing user 1's check, then take the best user-2
        margin among them; with none left, the best user-1 margin."""
        codes[self.secure] = _SECURE
        has = (self.dec & self.ok1).any(axis=0)
        codes[self.live & has & ~self.secure] = _U2
        none = np.flatnonzero(self.live & ~has)
        if none.size:
            best = self._best(none, _margin(self.lhs1, self.rhs1, none))
            codes[none] = _U1 + 2 * (~np.take(self.ok2, best))


def _block_codes(rule: _Rule, verdicts, g_sr, g_1, g_2, g_e) -> dict:
    """Outcome code per trial of one block of relay-major (K, trials) gains,
    for each wanted (transmission, two_step, alphaJ) verdict under one rule."""
    k = g_sr.shape[0]
    dec = g_sr >= rule.eta
    n = dec.sum(axis=0)
    live = n > 0
    out = {v: np.full(n.shape, _NO_RELAY, dtype=np.int8) for v in verdicts}
    if not live.any():
        return out
    single = None  # every verdict that sends singly shares it
    for (sends, two_step, alpha_j), codes in out.items():
        if sends is Transmission.COMBINED:
            rho1 = rule.rho2 / np.maximum(n, 1)
            sums = (np.where(dec, g, 0.0).sum(axis=0) for g in (g_1, g_2, g_e))
            lhs1, rhs1, lhs2, rhs2 = _pair_checks(rule, rho1, *sums)
            codes[live] = ((~(lhs1 >= rhs1)) + 2 * (~(lhs2 >= rhs2)))[live]
            continue
        if sends is Transmission.JAMMED:
            # The strongest idle relay's eavesdropper link jams; with every
            # relay decoding there is none, and the full power goes to data.
            rho3, rho4 = jamming_split(alpha_j, rule.rho2)
            h_e = np.where(n < k, np.where(dec, -np.inf, g_e).max(axis=0), 0.0)
            rho = np.where(n == k, rule.rho2, rho3)
            selection = _Selection(rule, rho, dec, live, g_1, g_2, g_e / (1.0 + rho4 * h_e))
        else:
            if single is None:
                single = _Selection(rule, rule.rho2, dec, live, g_1, g_2, g_e)
            selection = single
        (selection.two_step if two_step else selection.pick_one)(codes)
    return out


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


def _draw_chunk(params: SystemParams, stream: np.random.Generator, size: int):
    """The chunk's gains per link, relay-major (K, size). Each is drawn
    (size, K), so trial t reads the same uniforms in either layout."""
    links = params.links
    return tuple(
        np.ascontiguousarray(sample_gain(link, stream, (size, params.K)).T)
        for link in (links.source_relay, links.relay_user1, links.relay_user2, links.relay_eaves)
    )


def _blocks(config: TrialConfig, params: SystemParams):
    """Every block of every chunk, as relay-major views of the chunk's draws;
    one chunk's draws are held at a time."""
    step = max(1, _BLOCK_ELEMENTS // params.K)
    for index, size in _chunk_sizes(config):
        draws = _draw_chunk(params, _chunk_stream(config, index), size)
        for start in range(0, size, step):
            yield tuple(g[:, start:start + step] for g in draws)


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
    # One outcome tally per distinct verdict; each (position, scheme) reads one.
    tallies: dict[_Rule, dict] = {}
    slots = {}
    for i, (p, pol) in enumerate(scenarios):
        per_rule = tallies.setdefault(_rule(p, pol), {})
        for s in kinds:
            slots[i, s] = per_rule.setdefault(_verdict(s, pol), np.zeros(5, dtype=np.int64))
    for block in _blocks(config, scenarios[0][0]):
        for rule, per_rule in tallies.items():
            for verdict, codes in _block_codes(rule, per_rule, *block).items():
                per_rule[verdict] += np.bincount(codes, minlength=5)
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
    matches = 0
    for block in _blocks(config, params):
        codes = _block_codes(rule, dict.fromkeys((a, b)), *block)
        matches += int(((codes[a] == _SECURE) == (codes[b] == _SECURE)).sum())
    return matches, config.trials
