"""Closed-form SOP assembly: frozen values, invariants, and scheme relations."""
from __future__ import annotations

import itertools
import json
import re

import numpy as np
import pytest
from conftest import fixed_policy, grid_params
from oracles import decode_prob_chi, gain_cdf
from scipy import stats

from noma_relay_secrecy import (
    NakagamiParams,
    PowerPolicy,
    SchemeKind,
    TrialConfig,
    estimate_sop,
    quadrature,
    sop_total,
)
from noma_relay_secrecy.analytic import (
    _joint_secrecy_prob,
    decoding_set_pmf,
    delta1,
    sop_cond,
    sop_tmrc_cond,
)
from noma_relay_secrecy.cli import _point_scenario, load_config
from noma_relay_secrecy.params import Transmission, transmission_args

QUAD = quadrature(300)


def test_decode_prob_frozen():
    # m_R=2, omega_R=10, rho_S=10, R1_th=0.2, R2_th=0.1
    assert decode_prob_chi(grid_params()) == pytest.approx(0.999866296780867, rel=1e-12)


def test_decoding_set_pmf_frozen():
    pmf = decoding_set_pmf(grid_params(K=2))
    expect = [1.7876550806520216e-08, 0.0002673706851643361, 0.9997326114382848]
    assert pmf == pytest.approx(expect, rel=1e-10)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)


def test_decoding_set_pmf_matches_binom():
    for k in (1, 2, 3, 4):
        params = grid_params(K=k, omegaR_dB=0.0)
        chi = decode_prob_chi(params)
        ref = stats.binom.pmf(np.arange(k + 1), k, chi)
        assert decoding_set_pmf(params) == pytest.approx(ref, rel=1e-12)


def test_decoding_weights_keep_a_tiny_miss_probability(tmp_path):
    # the high-gain sweep's fixed-split config (K=4, m=3, alpha1 0.2) at
    # omega2 50 dB: chi is within an ulp of 1, and 1 - chi is -2.2e-16
    raw = {
        "K": 4, "mR": 3, "mU": 3, "mE": 3,
        "omegaR_dB": 3.0, "omega1_dB": 1.8, "omega2_dB": 0.0, "omegaE_dB": -5.0,
        "P_dB": 10.0, "R1_th": 0.2, "R2_th": 0.1, "R1_s": 0.1, "R2_s": 0.2,
        "alphaJ": 0.5, "alpha1": 0.2, "scheme": ["tmrc"], "engine": ["analytic"],
        "sweep": {"var": "omega2_dB", "values": [50.0]}, "quad_n": 300,
    }
    path = tmp_path / "high_gain.json"
    path.write_text(json.dumps(raw))
    params, _ = _point_scenario(load_config(str(path)), 50.0)
    chi = decode_prob_chi(params)
    miss = gain_cdf(params.links.source_relay, params.eta)
    assert 0.0 < miss < 1e-18
    pmf = decoding_set_pmf(params)
    assert np.all(pmf >= 0.0)
    assert abs(pmf.sum() - 1.0) <= 1e-15
    assert pmf[params.K - 1] == params.K * chi ** (params.K - 1) * miss


def test_conditionals_are_probabilities():
    policy = fixed_policy(0.2, alphaJ=0.5)
    for P_dB, K in itertools.product((0.0, 10.0, 20.0, 30.0), (2, 3)):
        params = grid_params(K=K, P_dB=P_dB)
        for n in range(1, K + 1):
            for val in (
                sop_tmrc_cond(params, policy, n, QUAD),
                sop_cond(params, policy, SchemeKind.OSRS, n, QUAD),
                sop_cond(params, policy, SchemeKind.ODRS, n, QUAD),
            ):
                assert 0.0 <= val <= 1.0


def test_osrs_cond_nonincreasing_in_n():
    params = grid_params(K=3)
    policy = fixed_policy(0.2)
    vals = [sop_cond(params, policy, SchemeKind.OSRS, n, QUAD) for n in range(4)]
    assert all(lo >= hi for lo, hi in zip(vals, vals[1:]))


def test_single_selection_beats_combining():
    policy = fixed_policy(0.2, alphaJ=0.5)
    for P_dB, K in itertools.product((0.0, 10.0, 20.0), (2, 3)):
        params = grid_params(K=K, P_dB=P_dB)
        osrs = sop_total(params, policy, SchemeKind.OSRS, QUAD).value
        tmrc = sop_total(params, policy, SchemeKind.TMRC, QUAD).value
        assert osrs <= tmrc + 1e-12


def test_two_step_is_the_same_analytic_path():
    params = grid_params(K=3)
    policy = fixed_policy(0.2)
    a = sop_total(params, policy, SchemeKind.TSRS, QUAD).value
    b = sop_total(params, policy, SchemeKind.OSRS, QUAD).value
    assert a == b


def test_dual_selection_without_jamming_reduces():
    policy = fixed_policy(0.2, alphaJ=0.0)
    # without jamming the jammed law is the single gain's: both laws give one integral
    for P_dB, K, m in itertools.product((0.0, 10.0, 20.0), (2, 3, 6, 8), (2, 3)):
        params = grid_params(K=K, P_dB=P_dB, m=m)
        odrs = sop_total(params, policy, SchemeKind.ODRS, QUAD).value
        osrs = sop_total(params, policy, SchemeKind.OSRS, QUAD).value
        assert odrs == osrs


def test_dual_selection_full_set_routes_to_single():
    params = grid_params(K=3)
    policy = fixed_policy(0.2, alphaJ=0.5)
    assert sop_cond(params, policy, SchemeKind.ODRS, 3, QUAD) == sop_cond(params, policy, SchemeKind.OSRS, 3, QUAD)


def test_infeasible_split_is_certain_outage():
    params = grid_params()
    policy = fixed_policy(0.7)  # above e^{-2 R2_s} ~ 0.670
    assert delta1(params, policy, QUAD) == 0.0
    for scheme in SchemeKind:
        assert sop_total(params, policy, scheme, QUAD).value == 1.0


def test_vanishing_eavesdropper_limit():
    # as omega_E -> 0 the SOP approaches the pure connection-outage level;
    # the quadrature has to survive a decay constant ~1e4 on the way there
    policy = fixed_policy(0.2, alphaJ=0.5)
    at = {}
    for omegaE_dB in (-30.0, -40.0):
        params = grid_params(P_dB=0.0, omegaE_dB=omegaE_dB)
        at[omegaE_dB] = {
            s: sop_total(params, policy, s, QUAD).value
            for s in (SchemeKind.TMRC, SchemeKind.OSRS, SchemeKind.ODRS)
        }
    params = grid_params(P_dB=0.0, omegaE_dB=-40.0)
    for scheme, ana in at[-40.0].items():
        est = estimate_sop(params, policy, scheme, TrialConfig(trials=1_000_000, seed=42))
        assert abs(ana - est.p_hat) < 3.0 * est.stderr
        # and the curve has flattened: one more decade barely moves it
        assert abs(at[-30.0][scheme] - ana) < 2e-5


def test_delta1_saturates_without_eavesdropper():
    params = grid_params(P_dB=40.0, omegaE_dB=-80.0)
    assert delta1(params, fixed_policy(0.2), QUAD) > 0.999


def test_dynamic_policy_runs_through_the_analytic_path():
    params = grid_params(K=2)
    policy = PowerPolicy.dynamic(5.0, 0.1, alphaJ=0.5)
    for scheme in SchemeKind:
        val = sop_total(params, policy, scheme, QUAD).value
        assert 0.0 < val < 1.0


def test_an_underflowing_user_series_base_is_named():
    # a series base that underflows to 0.0 has no logarithm; the error names
    # which one, user 1's lambda1*b or user 2's lambda2*|c|
    params = grid_params(K=2, P_dB=170.0)  # |c| = 1/(alpha1*rho) = 5e-17
    *_, consts, _, _, law = transmission_args(params, fixed_policy(0.2), Transmission.SINGLE, 1)
    fine, tiny = NakagamiParams(2, 1.0), NakagamiParams(2, 1e308)  # rates 2 and 2e-308
    for user1, user2, name in ((tiny, fine, "lambda1*b"), (fine, tiny, "lambda2*|c|")):
        with pytest.raises(ValueError, match=rf"^user series base {re.escape(name)} underflows to 0\.0"):
            _joint_secrecy_prob(user1, user2, params.theta1, consts, 0.8, 2, law, QUAD)
    assert 0.0 <= _joint_secrecy_prob(fine, fine, params.theta1, consts, 0.8, 2, law, QUAD) <= 1.0
