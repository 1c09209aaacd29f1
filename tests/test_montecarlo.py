"""Simulator checks: reproducibility, scheme equivalences, conditional laws."""
from __future__ import annotations

import dataclasses
import math
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from conftest import fixed_policy, grid_params
from oracles import _scheme_codes, paired_verdicts

from noma_relay_secrecy import (
    NakagamiParams,
    PowerPolicy,
    SchemeKind,
    TrialConfig,
    estimate_many,
    estimate_sop,
    quadrature,
)
from noma_relay_secrecy.analytic import sop_cond
from noma_relay_secrecy import montecarlo
from noma_relay_secrecy.montecarlo import (
    OUTCOME_LABELS,
    _block_codes,
    _block_step,
    _blocks,
    _chunk_sizes,
    _chunk_stream,
    _draw_blocks,
    _rule,
    _verdict,
)
from noma_relay_secrecy.channels import sample_gain
from noma_relay_secrecy.params import LinkSet, scheme_constants

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
            assert abs(sop_cond(params, policy, scheme, n, QUAD) - freq) < 3.0 * sigma

    codes = _scheme_codes(params, policy_j, SchemeKind.ODRS, g_sr, g_1, g_2, g_e)
    for n in (1, 3):  # exact branches: single candidate, and full set (no jammer)
        freq, sigma = freq_and_sigma(codes, n)
        assert abs(sop_cond(params, policy_j, SchemeKind.ODRS, n, QUAD) - freq) < 3.0 * sigma
    # at n=2 the two candidates share one jammer gain; the analytic product
    # of marginals undershoots the correlated outage by a small fixed amount
    freq, _ = freq_and_sigma(codes, 2)
    assert abs(sop_cond(params, policy_j, SchemeKind.ODRS, 2, QUAD) - freq) < 3.5e-3


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


def _outcome_by_hand(params, policy, scheme, g_sr, g_1, g_2, g_e) -> int:
    """One trial's outcome code from the four selection rules, in plain Python floats."""
    alpha1, alpha2 = policy.resolve(params.links)
    rho = params.rho2
    dec = [k for k in range(params.K) if g_sr[k] >= params.eta]
    if not dec:
        return OUTCOME_LABELS.index("no_relay")

    def checks(rho, g1, g2, ge):
        lhs1 = 1.0 + alpha1 * rho * g1
        rhs1 = params.theta1 * (1.0 + alpha1 * rho * ge)
        lhs2 = 1.0 + rho * g2
        rhs2 = params.theta2 * (1.0 + alpha2 * rho * ge) * (1.0 + alpha1 * rho * g2)
        return lhs1 >= rhs1, lhs2 >= rhs2, lhs1 / rhs1, lhs2 / rhs2

    def code(ok1, ok2):
        return int(not ok1) + 2 * int(not ok2)

    if scheme is SchemeKind.TMRC:
        ok1, ok2, _, _ = checks(rho / len(dec), *(sum(g[k] for k in dec) for g in (g_1, g_2, g_e)))
        return code(ok1, ok2)
    ge = list(g_e)
    idle = [k for k in range(params.K) if k not in dec]
    if scheme is SchemeKind.ODRS and idle:
        # the strongest idle relay toward the eavesdropper jams it
        jam = max(g_e[k] for k in idle)
        ge = [g / (1.0 + policy.alphaJ * params.rho2 * jam) for g in g_e]
        rho = (1.0 - policy.alphaJ) * params.rho2
    c = {k: checks(rho, g_1[k], g_2[k], ge[k]) for k in dec}
    if scheme is SchemeKind.TSRS:
        psi = [k for k in dec if c[k][0]]
        if psi:
            j = max(psi, key=lambda k: c[k][3])
            return code(True, c[j][1])
        i = max(dec, key=lambda k: c[k][2])
        return code(False, c[i][1])
    if any(c[k][0] and c[k][1] for k in dec):
        return 0
    best = max(dec, key=lambda k: min(c[k][2], c[k][3]))  # max keeps the first on ties
    return code(c[best][0], c[best][1])


def test_kernel_matches_per_trial_rules():
    # partial decoding (omegaR_dB=-10) and a strong user link as weak as the
    # eavesdropper's (0 dB) leave every outcome in play, and make the relay a
    # rule ranks first matter to how an outage is attributed
    seen = set()
    for K in range(1, 10):
        base = grid_params(K=K, P_dB=10.0, omegaE_dB=0.0, omegaR_dB=-10.0)
        links = dataclasses.replace(base.links, relay_user1=NakagamiParams(2, 1.0))
        params = dataclasses.replace(base, links=links)
        draws = _draw_chunk(params, np.random.default_rng(100 + K), 600)
        for alpha_j in (0.0, 0.5):
            policy = fixed_policy(0.2, alphaJ=alpha_j)
            for scheme in SchemeKind:
                codes = _scheme_codes(params, policy, scheme, *draws)
                want = [_outcome_by_hand(params, policy, scheme, *(g[:, t] for g in draws))
                        for t in range(codes.size)]
                assert codes.tolist() == want, (K, alpha_j, scheme)
                seen.update(want)
    assert seen == set(range(len(OUTCOME_LABELS)))


def test_kernel_reuses_the_single_relay_verdict():
    # at omegaR_dB=10 and P_dB=0 most trials have every relay decoding, where
    # odrs sends as osrs does and takes its codes, and some have an idle relay
    # to jam; the kernel must get both right when odrs comes alone, with tsrs
    # only (so the pick-one codes odrs starts from are not otherwise wanted)
    # and with every scheme
    for K in range(1, 10):
        params = grid_params(K=K, P_dB=0.0, omegaR_dB=10.0)
        draws = _draw_chunk(params, np.random.default_rng(200 + K), 1_500)
        n = (draws[0] >= params.eta).sum(axis=0)
        assert (n == K).any() and (K == 1 or ((0 < n) & (n < K)).any()), K
        for alpha_j in (0.0, 0.5):
            policy = fixed_policy(0.2, alphaJ=alpha_j)
            want = {s: [_outcome_by_hand(params, policy, s, *(g[:, t] for g in draws)) for t in range(n.size)]
                    for s in SchemeKind}
            for schemes in ([SchemeKind.ODRS], [SchemeKind.ODRS, SchemeKind.TSRS],
                            [SchemeKind.TSRS, SchemeKind.ODRS], list(SchemeKind)):
                verdicts = {_verdict(s, policy): s for s in schemes}
                codes = _block_codes(_rule(params, policy), tuple(verdicts), *draws)
                for verdict, scheme in verdicts.items():
                    assert codes[verdict].tolist() == want[scheme], (K, alpha_j, schemes, scheme)


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
