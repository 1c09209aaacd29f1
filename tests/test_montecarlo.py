"""Simulator checks: reproducibility, scheme equivalences, conditional laws."""
from __future__ import annotations

import collections
import dataclasses
import itertools
import math
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from conftest import fixed_policy, grid_params
from oracles import _scheme_codes, paired_verdicts, size_sop

from noma_relay_secrecy import (
    NakagamiParams,
    PowerPolicy,
    SchemeKind,
    TrialConfig,
    estimate_many,
    estimate_sop,
    quadrature,
)
from noma_relay_secrecy import montecarlo
from noma_relay_secrecy.montecarlo import (
    OUTCOME_LABELS,
    _block_codes,
    _decoding_sum,
    _idle_max,
    _Selection,
    _block_step,
    _blocks,
    _chunk_sizes,
    _chunk_stream,
    _draw_blocks,
    _rule,
    _verdict,
)
from noma_relay_secrecy.channels import sample_gain
from noma_relay_secrecy.params import LinkSet, Transmission, jamming_split, scheme_constants

QUAD = quadrature(300)
LINKS = ("source_relay", "relay_user1", "relay_user2", "relay_eaves")


def _draw_chunk(params, stream, size):
    """A chunk's gains per link, relay-major (K, size), each link drawn whole
    as (size, K) from `stream`: the uniforms every block of the chunk reads."""
    return tuple(np.ascontiguousarray(sample_gain(getattr(params.links, name), stream, (size, params.K)).T)
                 for name in LINKS)


def test_config_validation():
    with pytest.raises(ValueError):
        TrialConfig(trials=0)
    with pytest.raises(ValueError):
        TrialConfig(seed=-1)
    with pytest.raises(ValueError):
        TrialConfig(chunk=0)
    with pytest.raises(ValueError):
        TrialConfig(trials=2.5)
    for flag in ({"trials": True}, {"seed": False}, {"chunk": True}):
        with pytest.raises(ValueError):
            TrialConfig(**flag)
    whole = TrialConfig(trials=5.0, seed=7.0, chunk=2.0)
    assert (whole.trials, whole.seed, whole.chunk) == (5, 7, 2)
    assert all(type(v) is int for v in (whole.trials, whole.seed, whole.chunk))


def test_estimates_are_deterministic():
    params = grid_params()
    policy = fixed_policy(0.2, alphaJ=0.5)
    config = TrialConfig(trials=50_000, seed=42)
    a = estimate_sop(params, policy, SchemeKind.OSRS, config)
    b = estimate_sop(params, policy, SchemeKind.OSRS, config)
    assert a == b
    c = estimate_sop(params, policy, SchemeKind.OSRS, TrialConfig(trials=50_000, seed=43))
    assert c.p_hat != a.p_hat


def test_estimate_many_shares_draws():
    params = grid_params()
    policy = fixed_policy(0.2, alphaJ=0.5)
    config = TrialConfig(trials=50_000, seed=42)
    both = estimate_many(params, policy, [SchemeKind.TMRC, SchemeKind.OSRS], config)
    assert both[SchemeKind.TMRC] == estimate_sop(params, policy, SchemeKind.TMRC, config)
    assert both[SchemeKind.OSRS] == estimate_sop(params, policy, SchemeKind.OSRS, config)


def _one_trial(params, policy, scheme, g_sr, g_1, g_2, g_e) -> str:
    """Outcome label of one trial, run as a (K, 1) batch of the kernel."""
    gains = (np.asarray(g, dtype=float)[:, None] for g in (g_sr, g_1, g_2, g_e))
    return OUTCOME_LABELS[_scheme_codes(params, policy, scheme, *gains)[0]]


def test_single_trial_labels_and_sets():
    params = grid_params(K=3)
    draws = _draw_chunk(params, np.random.default_rng(7), 1)
    assert all(g.shape == (3, 1) for g in draws)
    label = _one_trial(params, fixed_policy(0.2, alphaJ=0.5), SchemeKind.ODRS, *(g[:, 0] for g in draws))
    assert label in OUTCOME_LABELS
    assert (label == "no_relay") == (not (draws[0] >= params.eta).any())


def test_no_relay_outcome():
    params = grid_params(K=2)
    gains = (np.zeros(2), np.ones(2), np.ones(2), np.full(2, 1e-9))
    assert _one_trial(params, fixed_policy(0.2), SchemeKind.OSRS, *gains) == "no_relay"


def test_verdict_matches_margin_ratio_form():
    # with K=1 and free decoding, secure iff min(g1/d3, g2/d4) >= 1 below the
    # ceiling; replaying the ratio form must reproduce every verdict
    params = dataclasses.replace(grid_params(K=1), R1_th=0.0, R2_th=0.0)
    alpha1 = 0.2
    policy = fixed_policy(alpha1)
    rho = params.rho2
    theta1, theta2 = params.theta1, params.theta2
    consts = scheme_constants(theta1, theta2, alpha1, 1.0 - alpha1, rho)
    rng = np.random.default_rng(7)
    for _ in range(500):
        g_sr, g_1, g_2, g_e = (g[:, 0] for g in _draw_chunk(params, rng, 1))
        g1, g2, ge = float(g_1[0]), float(g_2[0]), float(g_e[0])
        if ge >= consts.a:
            x_m = 0.0
        else:
            d3 = consts.b + theta1 * ge
            t = theta2 * (1.0 + (1.0 - alpha1) * rho * ge)
            d4 = (t - 1.0) / (rho * (1.0 - t * alpha1))
            x_m = min(g1 / d3, g2 / d4)
        assert (_one_trial(params, policy, SchemeKind.OSRS, g_sr, g_1, g_2, g_e) == "secure") == (x_m >= 1.0)


def test_two_step_verdicts_identical():
    params = grid_params(K=3)
    policy = fixed_policy(0.2)
    matches, trials = paired_verdicts(
        params, policy, SchemeKind.TSRS, SchemeKind.OSRS, TrialConfig(trials=200_000, seed=42)
    )
    assert matches == trials


def test_dual_selection_without_jamming_verdicts_identical():
    params = grid_params(K=3)
    policy = fixed_policy(0.2, alphaJ=0.0)
    matches, trials = paired_verdicts(
        params, policy, SchemeKind.ODRS, SchemeKind.OSRS, TrialConfig(trials=200_000, seed=42)
    )
    assert matches == trials


def test_conditional_outage_given_set_size():
    # spread the decoding-set law so every n shows up, then compare the
    # per-n outage frequency with the analytic conditional
    params = grid_params(K=3, omegaR_dB=0.0)
    policy = fixed_policy(0.2)
    policy_j = fixed_policy(0.2, alphaJ=0.5)
    trials = 400_000
    stream = _chunk_stream(TrialConfig(trials=trials, seed=11), 0)
    g_sr, g_1, g_2, g_e = _draw_chunk(params, stream, trials)  # relay-major, (K, trials)
    n_arr = (g_sr >= params.eta).sum(axis=0)

    def freq_and_sigma(codes, n):
        mask = n_arr == n
        count = int(mask.sum())
        freq = float((codes[mask] != 0).mean())
        return freq, math.sqrt(max(freq * (1.0 - freq), 1e-12) / count)

    for scheme in (SchemeKind.TMRC, SchemeKind.OSRS):
        codes = _scheme_codes(params, policy, scheme, g_sr, g_1, g_2, g_e)
        for n in (1, 2, 3):
            freq, sigma = freq_and_sigma(codes, n)
            assert abs(size_sop(params, policy, scheme, n, QUAD) - freq) < 3.0 * sigma

    codes = _scheme_codes(params, policy_j, SchemeKind.ODRS, g_sr, g_1, g_2, g_e)
    for n in (1, 3):  # exact branches: single candidate, and full set (no jammer)
        freq, sigma = freq_and_sigma(codes, n)
        assert abs(size_sop(params, policy_j, SchemeKind.ODRS, n, QUAD) - freq) < 3.0 * sigma
    # at n=2 the two candidates share one jammer gain; the analytic product
    # of marginals undershoots the correlated outage by a small fixed amount
    freq, _ = freq_and_sigma(codes, 2)
    assert abs(size_sop(params, policy_j, SchemeKind.ODRS, 2, QUAD) - freq) < 3.5e-3


def test_infeasible_split_always_outages():
    params = grid_params()
    est = estimate_sop(params, fixed_policy(0.7), SchemeKind.OSRS, TrialConfig(trials=10_000, seed=42))
    assert est.p_hat == 1.0
    assert est.stderr == 0.0


def test_estimate_bookkeeping():
    params = grid_params()
    config = TrialConfig(trials=80_000, seed=42)
    est = estimate_sop(params, fixed_policy(0.2, alphaJ=0.5), SchemeKind.ODRS, config)
    assert est.trials == config.trials
    assert est.stderr == pytest.approx(
        math.sqrt(est.p_hat * (1.0 - est.p_hat) / config.trials), rel=1e-12
    )
    assert sum(est.breakdown.values()) == round(est.p_hat * config.trials)


def test_dynamic_policy_simulates():
    params = grid_params()
    policy = PowerPolicy.dynamic(5.0, 0.1, alphaJ=0.5)
    est = estimate_sop(params, policy, SchemeKind.OSRS, TrialConfig(trials=50_000, seed=42))
    assert 0.0 < est.p_hat < 1.0


def _trial_checks(params, policy, scheme, g_sr, g_1, g_2, g_e) -> dict:
    """One trial's (ok1, ok2, margin1, margin2) per decoding relay, in plain
    Python floats; for tmrc one entry, None, for the decoding relays' sums."""
    alpha1, alpha2 = policy.resolve(params.links)
    rho = params.rho2
    dec = [k for k in range(params.K) if g_sr[k] >= params.eta]
    if not dec:
        return {}

    def checks(rho, g1, g2, ge):
        lhs1 = 1.0 + alpha1 * rho * g1
        rhs1 = params.theta1 * (1.0 + alpha1 * rho * ge)
        lhs2 = 1.0 + rho * g2
        rhs2 = params.theta2 * (1.0 + alpha2 * rho * ge) * (1.0 + alpha1 * rho * g2)
        return lhs1 >= rhs1, lhs2 >= rhs2, lhs1 / rhs1, lhs2 / rhs2

    if scheme is SchemeKind.TMRC:
        return {None: checks(rho / len(dec), *(sum(g[k] for k in dec) for g in (g_1, g_2, g_e)))}
    ge = list(g_e)
    idle = [k for k in range(params.K) if k not in dec]
    if scheme is SchemeKind.ODRS and idle:
        # the strongest idle relay toward the eavesdropper jams it
        jam = max(g_e[k] for k in idle)
        ge = [g / (1.0 + policy.alphaJ * params.rho2 * jam) for g in g_e]
        rho = (1.0 - policy.alphaJ) * params.rho2
    return {k: checks(rho, g_1[k], g_2[k], ge[k]) for k in dec}


def _outcome_by_hand(scheme, c: dict) -> int:
    """One trial's outcome code from the four selection rules, given its `_trial_checks`."""
    if not c:
        return OUTCOME_LABELS.index("no_relay")

    def code(ok1, ok2):
        return int(not ok1) + 2 * int(not ok2)

    if scheme is SchemeKind.TMRC:
        return code(*c[None][:2])
    if scheme is SchemeKind.TSRS:
        psi = [k for k in c if c[k][0]]
        if psi:
            j = max(psi, key=lambda k: c[k][3])
            return code(True, c[j][1])
        i = max(c, key=lambda k: c[k][2])
        return code(False, c[i][1])
    if any(c[k][0] and c[k][1] for k in c):
        return 0
    best = max(c, key=lambda k: min(c[k][2], c[k][3]))  # max keeps the first on ties
    return code(c[best][0], c[best][1])


def _blame(scheme, c: dict) -> str | None:
    """How a selection scheme blames one trial's outage by a ranking of its
    decoding relays' margins: "agree" where they all fail the same checks, so
    any relay the ranking picks fails those, and "rank" where they differ.
    None where no ranking blames the trial: no outage, no decoding relay, or
    tmrc, or a tsrs trial with a relay passing user 1. `c` is its `_trial_checks`."""
    if not c or scheme is SchemeKind.TMRC:
        return None
    if any(ok1 and (ok2 or scheme is SchemeKind.TSRS) for ok1, ok2, *_ in c.values()):
        return None  # secure, or a tsrs outage blamed on user 2 alone
    return "agree" if len({ok[:2] for ok in c.values()}) == 1 else "rank"


def _assert_both_blames_seen(blames) -> None:
    """Every selection scheme's outages were blamed both ways, so comparing
    with the hand rules covers the margin ranking and the shared verdict."""
    for scheme in (SchemeKind.OSRS, SchemeKind.TSRS, SchemeKind.ODRS):
        assert blames[scheme, "agree"] > 0 and blames[scheme, "rank"] > 0, (scheme, blames)


def _weak_user1(params):
    """`params` with the strong user's link at 0 dB (m 2, omega 1)."""
    return dataclasses.replace(params, links=dataclasses.replace(params.links, relay_user1=NakagamiParams(2, 1.0)))


def test_kernel_matches_per_trial_rules():
    # partial decoding (omegaR_dB=-10) and a strong user link as weak as the
    # eavesdropper's (0 dB) leave every outcome in play, and make the relay a
    # rule ranks first matter to how an outage is attributed
    seen = set()
    blames = collections.Counter()
    for K in range(1, 10):
        params = _weak_user1(grid_params(K=K, P_dB=10.0, omegaE_dB=0.0, omegaR_dB=-10.0))
        draws = _draw_chunk(params, np.random.default_rng(100 + K), 600)
        for alpha_j in (0.0, 0.5):
            policy = fixed_policy(0.2, alphaJ=alpha_j)
            for scheme in SchemeKind:
                codes = _scheme_codes(params, policy, scheme, *draws)
                trials = [[g[:, t] for g in draws] for t in range(codes.size)]
                checks = [_trial_checks(params, policy, scheme, *gains) for gains in trials]
                want = [_outcome_by_hand(scheme, c) for c in checks]
                assert codes.tolist() == want, (K, alpha_j, scheme)
                seen.update(want)
                blames.update((scheme, _blame(scheme, c)) for c in checks)
    assert seen == set(range(len(OUTCOME_LABELS)))
    _assert_both_blames_seen(blames)


def test_kernel_reuses_the_single_relay_verdict():
    # at omegaR_dB=10 and P_dB=0 most trials have every relay decoding, where
    # odrs sends as osrs does and takes its codes, and some have an idle relay
    # to jam; the kernel must get both right when odrs comes alone, with tsrs
    # only (so the pick-one codes odrs starts from are not otherwise wanted)
    # and with every scheme. The reference user links rarely leave decoding
    # relays failing different checks; with a weak strong-user link the blame
    # of many outages turns on the ranking.
    blames = collections.Counter()
    for K, weak in itertools.product(range(1, 10), (False, True)):
        params = grid_params(K=K, P_dB=0.0, omegaR_dB=10.0)
        params = _weak_user1(params) if weak else params
        draws = _draw_chunk(params, np.random.default_rng(200 + K), 1_500)
        n = (draws[0] >= params.eta).sum(axis=0)
        assert (n == K).any() and (K == 1 or ((0 < n) & (n < K)).any()), K
        trials = [[g[:, t] for g in draws] for t in range(n.size)]
        for alpha_j in (0.0, 0.5):
            policy = fixed_policy(0.2, alphaJ=alpha_j)
            checks = {s: [_trial_checks(params, policy, s, *gains) for gains in trials] for s in SchemeKind}
            want = {s: [_outcome_by_hand(s, c) for c in checks[s]] for s in SchemeKind}
            blames.update((s, _blame(s, c)) for s in SchemeKind for c in checks[s])
            for schemes in ([SchemeKind.ODRS], [SchemeKind.ODRS, SchemeKind.TSRS],
                            [SchemeKind.TSRS, SchemeKind.ODRS], list(SchemeKind)):
                verdicts = {_verdict(s, policy): s for s in schemes}
                codes = _block_codes(_rule(params, policy), tuple(verdicts), *draws)
                for verdict, scheme in verdicts.items():
                    assert codes[verdict].tolist() == want[scheme], (K, weak, alpha_j, schemes, scheme)
    _assert_both_blames_seen(blames)


def _masked_write_codes(sel, two_step: bool, live) -> np.ndarray:
    """A selection's codes as they were written before the codes became
    sums of votes: a boolean-index write per outcome, a masked copy of the
    shared blame, and the ranking of the split outage trials."""
    codes = np.full(live.shape, OUTCOME_LABELS.index("no_relay"), dtype=np.int8)
    codes[sel.secure] = OUTCOME_LABELS.index("secure")
    if two_step:
        codes[live & sel.pass1 & ~sel.secure] = OUTCOME_LABELS.index("u2")
    outage = live & ~(sel.pass1 if two_step else sel.secure)
    np.copyto(codes, sel.fail2.view(np.int8) * 2 + sel.fail1, where=outage)
    ranked = np.flatnonzero(outage & sel.split)
    if ranked.size:
        codes[ranked] = sel._ranked_codes(two_step, ranked)
    return codes


def _hand_blocks():
    """(params, relay-major draws) of hand-built blocks: K = 1, and K = 3 with
    a column where no relay decodes, one where every relay does, and a -0.0
    gain at a decoding relay; then a random half-decoding block at K = 3."""
    params1, params3 = (_weak_user1(grid_params(K=K, omegaE_dB=0.0, omegaR_dB=-10.0)) for K in (1, 3))
    up, down = 2.0 * params3.eta, 0.5 * params3.eta
    yield params1, (np.array([[up, up, down]]), np.array([[-0.0, 3.0, 1.0]]),
                    np.array([[-0.0, 2.0, 1.0]]), np.array([[-0.0, 0.1, 1.0]]))
    g_sr = np.array([[down, up, up, down], [down, up, down, up], [down, up, up, up]])
    g_1 = np.array([[1.0, -0.0, 0.2, 4.0], [2.0, 5.0, 0.5, 1.5], [0.3, 0.4, -0.0, 2.5]])
    yield params3, (g_sr, g_1, g_1[::-1].copy(), np.array([[0.1, -0.0, 0.3, 0.2], [0.2, 0.1, 0.4, 0.0],
                                                           [0.3, 0.2, 0.1, 0.6]]))
    yield params3, _draw_chunk(params3, np.random.default_rng(5), 3_000)


def test_mask_arithmetic_equals_the_selects():
    # the mask products and vote sums give the bytes the np.where selects and
    # boolean-index writes gave: relay sums over every column, the idle-relay
    # maximum over the columns with an idle relay (the only ones it is asked
    # for), and every code of the single-relay and jammed verdicts
    seen = set()
    for params, (g_sr, g_1, g_2, g_e) in _hand_blocks():
        dec = g_sr >= params.eta
        live, idle = dec.any(axis=0), ~dec.all(axis=0)
        for g in (g_sr, g_1, g_2, g_e):
            summed, where = _decoding_sum(g, dec), np.where(dec, g, 0.0).sum(axis=0)
            assert (summed.view(np.int64) == where.view(np.int64)).all()
            largest, where = _idle_max(g, dec)[idle], np.where(dec, -np.inf, g).max(axis=0)[idle]
            assert (largest.view(np.int64) == where.view(np.int64)).all()
        rule = _rule(params, fixed_policy(0.2, alphaJ=0.5))
        rho3, rho4 = jamming_split(0.5, rule.rho2)
        jammed = np.flatnonzero(live & idle)
        dec_j, ge_j = dec[:, jammed], g_e[:, jammed]
        ge_j = ge_j / (1.0 + rho4 * np.where(dec_j, -np.inf, ge_j).max(axis=0))
        for two_step in (False, True):
            single, jam = (Transmission.SINGLE, two_step, None), (Transmission.JAMMED, two_step, 0.5)
            codes = _block_codes(rule, (single, jam), g_sr, g_1, g_2, g_e)
            want = _masked_write_codes(_Selection(rule, rule.rho2, dec, g_1, g_2, g_e), two_step, live)
            assert codes[single].dtype == np.int8 and codes[single].tolist() == want.tolist(), (params.K, two_step)
            seen.update(want.tolist())
            sel = _Selection(rule, rho3, dec_j, g_1, g_2, ge_j, cols=jammed)
            want[jammed] = _masked_write_codes(sel, two_step, np.ones(jammed.size, dtype=bool))
            assert codes[jam].tolist() == want.tolist(), (params.K, two_step)
    assert seen == set(range(len(OUTCOME_LABELS)))


@pytest.mark.parametrize("K", [256, 300])
def test_decoding_counts_hold_every_relay(K):
    # every relay decodes, so a count too narrow for K would wrap to a
    # smaller n, here 0 at K = 256, and code trials with relays as no_relay
    params = grid_params(K=K)
    policy = fixed_policy(0.2, alphaJ=0.5)
    rng = np.random.default_rng(K)
    draws = (np.full((K, 4), 2.0 * params.eta), *(rng.exponential(0.5, (K, 4)) for _ in range(3)))
    verdicts = {_verdict(s, policy): s for s in SchemeKind}
    codes = _block_codes(_rule(params, policy), tuple(verdicts), *draws)
    for verdict, scheme in verdicts.items():
        assert OUTCOME_LABELS.index("no_relay") not in codes[verdict].tolist(), scheme
    trials = [[g[:, t] for g in draws] for t in range(4)]
    want = [_outcome_by_hand(SchemeKind.TMRC, _trial_checks(params, policy, SchemeKind.TMRC, *gains))
            for gains in trials]
    assert codes[_verdict(SchemeKind.TMRC, policy)].tolist() == want


def test_worker_count_does_not_change_estimates(monkeypatch):
    config = TrialConfig(trials=120_000, seed=5, chunk=50_000)
    params = [grid_params(K=3, P_dB=p, omegaR_dB=0.0) for p in (0.0, 10.0, 20.0)]
    policies = [fixed_policy(0.2, alphaJ=0.5)] * len(params)
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(montecarlo, "_WORKERS", workers)
        runs.append(estimate_many(params, policies, list(SchemeKind), config))
    assert runs[0].keys() == runs[1].keys()
    for key, one in runs[0].items():
        two = runs[1][key]
        assert (one.p_hat, one.stderr, one.breakdown) == (two.p_hat, two.stderr, two.breakdown), key


def test_shared_jobs_each_run_once_and_keep_their_order(monkeypatch):
    # the two threads take jobs from one queue; with thread switches forced
    # as often as the interpreter allows, a job taken twice or lost shows,
    # and so does a job drawn off the calling thread
    monkeypatch.setattr(montecarlo, "_WORKERS", 2)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            drawn_on = set()

            def jobs():
                for job in range(300):
                    drawn_on.add(threading.get_ident())
                    yield job

            taken = []
            results = montecarlo._run_shared(lambda job: taken.append(job) or -job, jobs())
            assert results == [-job for job in range(300)]
            assert sorted(taken) == list(range(300))
            assert drawn_on == {threading.get_ident()}
    finally:
        sys.setswitchinterval(switch)


def test_drawn_jobs_wait_in_a_short_queue(monkeypatch):
    # with a slow helper the calling thread must decide jobs itself, so a
    # job is drawn only while at most two others are drawn and undecided
    monkeypatch.setattr(montecarlo, "_WORKERS", 2)
    alive = []
    lock = threading.Lock()

    def jobs():
        for job in range(40):
            with lock:
                alive.append(job)
                most = len(alive)
            yield job, most

    def fn(item):
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.005)
        with lock:
            alive.remove(item[0])
        return item[1]

    assert max(montecarlo._run_shared(fn, jobs())) <= 3


@pytest.mark.parametrize("slow", ["helper", "calling thread"])
def test_jobs_taken_back_are_let_go(monkeypatch, slow):
    # a job the calling thread takes back from the helper's queue must not
    # stay alive there until the helper reaches it: whichever thread is the
    # slow one, a job is drawn only while at most three drawn jobs live
    monkeypatch.setattr(montecarlo, "_WORKERS", 2)

    class Job:
        pass

    refs = []
    alive = []

    def jobs():
        for _ in range(60):
            alive.append(sum(ref() is not None for ref in refs))
            job = Job()
            refs.append(weakref.ref(job))
            yield job
            del job

    def fn(job):
        if (threading.current_thread() is threading.main_thread()) == (slow == "calling thread"):
            time.sleep(0.005)

    montecarlo._run_shared(fn, jobs())
    assert max(alive) <= 3, alive


def test_error_in_a_helper_block_surfaces(monkeypatch):
    monkeypatch.setattr(montecarlo, "_WORKERS", 2)
    real = montecarlo._block_codes
    helper_failed = threading.Event()

    def fail_off_the_calling_thread(*args):
        if threading.current_thread() is threading.main_thread():
            helper_failed.wait(timeout=30)  # hold the calling thread until the helper has a block
            return real(*args)
        helper_failed.set()
        raise RuntimeError("helper block failed")

    monkeypatch.setattr(montecarlo, "_block_codes", fail_off_the_calling_thread)
    with pytest.raises(RuntimeError, match="helper block failed"):
        estimate_many(grid_params(K=2), fixed_policy(0.2, alphaJ=0.5), list(SchemeKind),
                      TrialConfig(trials=300_000, seed=1))
    assert helper_failed.is_set()


@pytest.mark.parametrize("where", ["draw", "decide"])
def test_the_helper_never_outlives_the_call(monkeypatch, where):
    # the calling thread fails while the helper is inside a job: the error
    # must wait for that job to end, and no job may start after it
    monkeypatch.setattr(montecarlo, "_WORKERS", 2)
    helper_busy = threading.Event()
    events = []

    def fn(job):
        if threading.current_thread() is threading.main_thread():
            helper_busy.wait(timeout=30)
            if where == "decide":
                raise RuntimeError("calling thread failed")
            return job
        events.append(("start", job))
        helper_busy.set()
        time.sleep(0.2)
        events.append(("end", job))
        return job

    def jobs():
        for job in range(50):
            if job == 3 and where == "draw":
                helper_busy.wait(timeout=30)
                raise RuntimeError("calling thread failed")
            yield job

    with pytest.raises(RuntimeError, match="calling thread failed"):
        montecarlo._run_shared(fn, jobs())
    seen = list(events)
    assert seen and seen[-1][0] == "end"
    time.sleep(0.3)
    assert events == seen  # nothing ran after the call returned


def _mixed_shape_params(K: int):
    """Every link with its own mean, and shapes 1/2/2/3 (the user links share theirs)."""
    links = LinkSet(source_relay=NakagamiParams(1, 2.0), relay_user1=NakagamiParams(2, 5.0),
                    relay_user2=NakagamiParams(2, 3.0), relay_eaves=NakagamiParams(3, 0.5))
    return dataclasses.replace(grid_params(K=K), links=links)


def _joined(blocks):
    """The blocks of one chunk put back together, per link."""
    return [np.concatenate([block[i] for block in blocks], axis=1) for i in range(len(LINKS))]


@pytest.mark.parametrize("K", [1, 3, 8])
def test_block_draws_equal_whole_chunk_draws(K):
    # 1,000 trials in chunks of 400 leave a partial last chunk of 200; steps
    # of 7 and 150 divide no chunk, 400 is one, 5,000 is more than every chunk
    params = _mixed_shape_params(K)
    config = TrialConfig(trials=1_000, seed=4, chunk=400)
    for step in (7, 150, 400, 5_000):
        for index, size in _chunk_sizes(config):
            blocks = list(_draw_blocks(params, _chunk_stream(config, index), size, step))
            assert len(blocks) == -(-size // step)
            for block in blocks:
                assert all(g.flags.c_contiguous and g.shape == block[0].shape for g in block)
                assert block[0].shape[0] == K
            want = _draw_chunk(params, _chunk_stream(config, index), size)
            for got, whole in zip(_joined(blocks), want):
                assert got.shape == (K, size)
                assert got.tobytes() == whole.tobytes()  # bit for bit


@pytest.mark.parametrize("K, trials", [(3, 100), (3, 250_000 + 30_001), (8, 70_000)])
def test_every_block_of_a_run_reads_its_chunks_uniforms(K, trials):
    # the blocks one estimate decides, chunk after chunk: fewer trials than one
    # block, and a full chunk followed by a partial one whose size the step
    # does not divide
    params = _mixed_shape_params(K)
    config = TrialConfig(trials=trials, seed=6)
    step = _block_step(K)
    blocks = list(_blocks(config, params))
    start = 0
    for index, size in _chunk_sizes(config):
        count = -(-size // step)
        want = _draw_chunk(params, _chunk_stream(config, index), size)
        for got, whole in zip(_joined(blocks[start:start + count]), want):
            assert got.tobytes() == whole.tobytes()
        start += count
    assert start == len(blocks)


def test_block_draws_need_a_pcg64_stream():
    params = grid_params(K=2)
    with pytest.raises(TypeError, match="PCG64"):
        list(_draw_blocks(params, np.random.Generator(np.random.MT19937(1)), 10, 4))
    with pytest.raises(ValueError, match="one generator per exponential pass"):
        sample_gain(NakagamiParams(2, 1.0), [np.random.default_rng(1)], 5)


@pytest.mark.parametrize("workers", [1, 2])
def test_estimate_memory_stays_near_one_block(monkeypatch, workers):
    # K=8 and 100k trials hold 25.6 MB of gains as one chunk; drawn block by
    # block, the draws and every scheme's verdicts stay far below that
    monkeypatch.setattr(montecarlo, "_WORKERS", workers)
    params = grid_params(K=8, omegaR_dB=-10.0)
    policy = fixed_policy(0.2, alphaJ=0.5)
    estimate_many(params, policy, list(SchemeKind), TrialConfig(trials=1_000, seed=1))  # the helper's pool
    tracemalloc.start()
    try:
        estimate_many(params, policy, list(SchemeKind), TrialConfig(trials=100_000, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12e6, peak


def test_margin_ties_go_to_the_first_relay():
    # both relays fail user 1 with the same margin, which is also their
    # worst-user margin; only the one holding g_2 = 5 passes user 2, so the
    # tie-break alone decides how the outage is attributed
    params = grid_params(K=2)
    for g_2, label in (([0.15, 5.0], "both"), ([5.0, 0.15], "u1")):
        gains = (np.full(2, 10.0), np.full(2, 0.1), np.array(g_2), np.full(2, 0.05))
        for scheme in (SchemeKind.OSRS, SchemeKind.TSRS):
            assert _one_trial(params, fixed_policy(0.2), scheme, *gains) == label, (scheme, g_2)


def test_checks_keep_their_float64_ties():
    # The relay SNR at P_dB = 7 has no float32 value, so a check formed in
    # another precision or order moves off its exact ties. 400 trials put the
    # strong user's check on its tie, its sides formed as `_trial_checks`
    # forms them (the user passes), and 400 step its gain down until it
    # fails; the relay decodes and user 2 passes with room to spare.
    params = grid_params(K=1, P_dB=7.0)
    alpha1 = 0.2
    policy = fixed_policy(alpha1)
    a1_rho = alpha1 * params.rho2
    rng = np.random.default_rng(5)
    ties, below, g_e = [], [], []
    while len(ties) < 400:
        ge = float(rng.exponential(0.02))
        rhs = params.theta1 * (1.0 + a1_rho * ge)
        g1 = (rhs - 1.0) / a1_rho
        for _ in range(4):  # walk g1 by ulps onto the tie, where one exists
            lhs = 1.0 + a1_rho * g1
            if lhs == rhs:
                break
            g1 = math.nextafter(g1, math.inf if lhs < rhs else 0.0)
        else:
            continue
        low = g1
        while 1.0 + a1_rho * low >= rhs:
            low = math.nextafter(low, 0.0)
        ties.append(g1)
        below.append(low)
        g_e.append(ge)
    draws = (np.ones((1, 800)), np.array([ties + below]), np.full((1, 800), 50.0), np.array([g_e + g_e]))
    want = [0] * 400 + [1] * 400
    trials = [[g[:, t] for g in draws] for t in range(800)]
    assert [_outcome_by_hand(SchemeKind.TMRC, _trial_checks(params, policy, SchemeKind.TMRC, *gains))
            for gains in trials] == want
    for scheme in (SchemeKind.TMRC, SchemeKind.OSRS):
        assert _scheme_codes(params, policy, scheme, *draws).tolist() == want, scheme


def test_estimate_many_scenarios_equal_separate_calls():
    config = TrialConfig(trials=120_000, seed=9, chunk=50_000)
    scenarios = [
        (grid_params(K=3, P_dB=0.0), fixed_policy(0.2, alphaJ=0.5)),
        (grid_params(K=3, P_dB=15.0), fixed_policy(0.2, alphaJ=0.5)),
        (grid_params(K=3, P_dB=15.0), fixed_policy(0.3, alphaJ=0.5)),
        (grid_params(K=3, P_dB=15.0), fixed_policy(0.3, alphaJ=0.0)),
        (grid_params(K=3, P_dB=15.0), PowerPolicy.dynamic(5.0, 0.1, alphaJ=0.2)),
    ]
    schemes = list(SchemeKind)
    shared = estimate_many([p for p, _ in scenarios], [pol for _, pol in scenarios], schemes, config)
    assert len(shared) == len(scenarios) * len(schemes)
    for i, (params, policy) in enumerate(scenarios):
        alone = estimate_many(params, policy, schemes, config)
        for scheme in schemes:
            assert shared[i, scheme] == alone[scheme], (i, scheme)


def test_estimate_many_rejects_scenarios_without_shared_draws():
    config = TrialConfig(trials=1_000, seed=1)
    policy = fixed_policy(0.2)
    base = grid_params(K=2)
    for other in (grid_params(K=3), grid_params(K=2, omegaE_dB=-3.0), grid_params(K=2, m=3)):
        with pytest.raises(ValueError, match="same K and links"):
            estimate_many([base, other], [policy, policy], ["osrs"], config)
    with pytest.raises(ValueError, match="one length"):
        estimate_many([base, base], [policy], ["osrs"], config)
    with pytest.raises(ValueError, match="one length"):
        estimate_many([], [], ["osrs"], config)
    with pytest.raises(ValueError, match="both"):
        estimate_many(base, [policy], ["osrs"], config)


def test_estimate_many_rejects_no_schemes_before_drawing(monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew gains for no scheme")

    monkeypatch.setattr(montecarlo, "sample_gain", no_draws)
    with pytest.raises(ValueError, match="schemes"):
        estimate_many(grid_params(K=8), fixed_policy(0.2), [], TrialConfig(trials=1_000_000, seed=1))


# Outcome counts (u1 only, u2 only, both, no relay) per scheme, recorded
# before the outage blame shared one code among decoding relays failing the
# same checks: the blame must keep every trial's code.
PINNED_BREAKDOWNS = {
    (0, "tmrc"): (0, 0, 0, 199999), (0, "osrs"): (0, 0, 0, 199999),
    (0, "tsrs"): (0, 0, 0, 199999), (0, "odrs"): (0, 0, 0, 199999),
    (1, "tmrc"): (16, 102305, 83, 11612), (1, "osrs"): (41, 49212, 136, 11612),
    (1, "tsrs"): (16, 49290, 83, 11612), (1, "odrs"): (41, 1209, 3, 11612),
    (2, "tmrc"): (0, 200000, 0, 0), (2, "osrs"): (0, 188430, 52, 0),
    (2, "tsrs"): (0, 188482, 0, 0), (2, "odrs"): (0, 179510, 47, 0),
    "tmrc": (1, 109243, 5, 0), "osrs": (54, 49472, 124, 0),
    "tsrs": (1, 49648, 1, 0), "odrs": (54, 49446, 124, 0),
}
# (breakdown, p_hat) per (K, scheme) at omegaR_dB=-10, where each relay
# decodes about half the trials: the decoding masks are random, so the block
# verdicts' masked sums, idle-relay maxima and blame codes all see mixed
# columns. Recorded before those verdicts stopped selecting on the masks.
PINNED_HALF_DECODING = {
    (1, "tmrc"): ((26, 50540, 207, 98110), 0.744415), (1, "osrs"): ((26, 50540, 207, 98110), 0.744415),
    (1, "tsrs"): ((26, 50540, 207, 98110), 0.744415), (1, "odrs"): ((26, 50540, 207, 98110), 0.744415),
    (8, "tmrc"): ((3, 119401, 8, 700), 0.60056), (8, "osrs"): ((28, 18054, 35, 700), 0.094085),
    (8, "tsrs"): ((3, 18106, 8, 700), 0.094085), (8, "odrs"): ((3, 19, 0, 700), 0.00361),
}


def test_breakdowns_are_pinned():
    config = TrialConfig(trials=200_000, seed=1)
    policy = fixed_policy(0.2, alphaJ=0.5)
    grid = [grid_params(K=4, P_dB=p, omegaR_dB=-10.0) for p in (0.0, 10.0, 20.0)]
    got = {(i, s.value): tuple(e.breakdown.values())
           for (i, s), e in estimate_many(grid, [policy] * len(grid), list(SchemeKind), config).items()}
    got.update((s.value, tuple(e.breakdown.values()))
               for s, e in estimate_many(grid_params(K=2), policy, list(SchemeKind), config).items())
    assert got == PINNED_BREAKDOWNS
    half = {(K, s.value): (tuple(e.breakdown.values()), e.p_hat) for K in (1, 8)
            for s, e in estimate_many(grid_params(K=K, omegaR_dB=-10.0), policy, list(SchemeKind), config).items()}
    assert half == PINNED_HALF_DECODING
