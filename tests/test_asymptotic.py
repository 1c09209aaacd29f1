"""High-gain expansion: leading coefficients, floors, and diversity orders."""
from __future__ import annotations

import itertools

import pytest
from conftest import db, fixed_policy, grid_params
from oracles import expansion_survival, mrc_sum_cdf, one_hot, size_sop

from noma_relay_secrecy import (
    AsymptoticScaling,
    LinkSet,
    NakagamiParams,
    PowerPolicy,
    SchemeKind,
    SdoInputs,
    SystemParams,
    quadrature,
    scaled_params,
    sdo,
    sop_asym_total,
    sop_floor_total,
    sop_total,
)
from noma_relay_secrecy import asymptotic
from noma_relay_secrecy.asymptotic import _leading_coeff
from noma_relay_secrecy.channels import gain_survival
from noma_relay_secrecy.params import mixture, read_table, scheme_constants
from noma_relay_secrecy.quadrature import _evaluate

QUAD = quadrature(300)


def _fig_params(K: int, P_dB: float, omegaE_dB: float):
    """Proportional-gain scenario used for the convergence checks."""
    links = LinkSet(
        source_relay=NakagamiParams(2, 2.0),
        relay_user1=NakagamiParams(2, 1.5),
        relay_user2=NakagamiParams(2, 1.0),
        relay_eaves=NakagamiParams(2, db(omegaE_dB)),
    )
    return SystemParams(
        K=K, links=links, P_S=db(P_dB), P_R=db(P_dB), sigma2=1.0,
        R1_th=0.2, R2_th=0.1, R1_s=0.1, R2_s=0.2,
    )


def test_scaling_validation():
    with pytest.raises(ValueError):
        AsymptoticScaling(1.0, 2.0, 10.0)
    with pytest.raises(ValueError):
        AsymptoticScaling(1.5, 0.0, 10.0)
    with pytest.raises(ValueError):
        AsymptoticScaling(1.5, 2.0, 0.0)


def test_scaled_params_moves_gains():
    params = _fig_params(2, 10.0, -10.0)
    scaling = AsymptoticScaling(1.5, 2.0, 100.0)
    scaled = scaled_params(params, scaling)
    assert scaled.links.relay_user2.omega == pytest.approx(100.0)
    assert scaled.links.relay_user1.omega == pytest.approx(150.0)
    assert scaled.links.source_relay.omega == pytest.approx(200.0)
    assert scaled.links.relay_eaves.omega == params.links.relay_eaves.omega


def test_asym_gain_cdf_leading_order():
    # the engines' leading-order CDF phi * x^tau of a combined user gain
    params = grid_params()
    scaling = AsymptoticScaling(1.5, 1.0, 100.0)
    scaled = scaled_params(params, scaling)
    x = 0.1  # 1e-3 * omega2
    m_u = params.links.m_u

    def leading_cdf(link, n):
        return _leading_coeff(link.rate, n * m_u) * x ** (n * m_u)

    user1, user2 = scaled.links.relay_user1, scaled.links.relay_user2
    for link in (user1, user2):
        for n in (1, 2):
            exact = mrc_sum_cdf(link, n, x)
            approx = leading_cdf(link, n)
            assert approx / exact == pytest.approx(1.0, abs=0.01)
    # the two users differ only through epsilon1^{-tau}
    tau = 2 * m_u
    ratio = leading_cdf(user1, 2) / leading_cdf(user2, 2)
    assert ratio == pytest.approx(1.5 ** (-tau), rel=1e-12)


def test_conditional_asymptotics_close_at_40db():
    params = _fig_params(3, 15.0, -12.0)
    policy = fixed_policy(0.2)
    policy_j = fixed_policy(0.2, alphaJ=0.5)
    scaling = AsymptoticScaling(1.5, 2.0, db(40.0))
    scaled = scaled_params(params, scaling)
    for n in (1, 2, 3):
        for scheme, pol in ((SchemeKind.TMRC, policy), (SchemeKind.OSRS, policy), (SchemeKind.ODRS, policy_j)):
            approx = size_sop(params, pol, scheme, n, QUAD, scaling)
            exact = size_sop(scaled, pol, scheme, n, QUAD)
            assert approx == pytest.approx(exact, rel=0.05)


def test_total_asymptote_tightens_with_gain():
    params = _fig_params(2, 10.0, -10.0)
    policy = fixed_policy(0.2, alphaJ=0.5)
    for scheme in (SchemeKind.TMRC, SchemeKind.OSRS, SchemeKind.ODRS):
        gaps = []
        for dB in (20.0, 40.0):
            scaling = AsymptoticScaling(1.5, 2.0, db(dB))
            approx = sop_asym_total(params, policy, scheme, scaling, QUAD)
            exact = sop_total(scaled_params(params, scaling), policy, scheme, QUAD).value
            gaps.append(abs(approx - exact) / exact)
        assert gaps[1] < gaps[0]


def test_fixed_split_flattens_to_floor():
    params = _fig_params(2, 10.0, -10.0)
    policy = fixed_policy(0.2, alphaJ=0.5)
    scaling = AsymptoticScaling(1.5, 2.0, db(50.0))
    for scheme in (SchemeKind.TMRC, SchemeKind.OSRS, SchemeKind.ODRS):
        approx = sop_asym_total(params, policy, scheme, scaling, QUAD)
        floor = sop_floor_total(scaled_params(params, scaling), policy, scheme)
        assert approx >= floor * (1.0 - 1e-12)
        assert abs(approx - floor) / floor < 0.02


def _floor(params, policy, scheme, n):
    """The high-gain floor given n decoding relays: the mixture at the one-hot
    weight row of n over the ceiling masses of a fixed split's high-gain plan."""
    [values] = _evaluate([asymptotic._plan(params, policy, scheme, QUAD)])
    return mixture(one_hot(n, params.K), scheme, lambda sends, size: values["ceiling", sends, size])


def test_floor_formulas():
    params = grid_params(K=3)
    policy = fixed_policy(0.2, alphaJ=0.5)
    alpha1 = 0.2
    consts_full = scheme_constants(params.theta1, params.theta2, alpha1, 0.8, params.rho2)
    for n in (1, 2, 3):
        # single selection: each of the n candidates independently clears the ceiling
        assert _floor(params, policy, SchemeKind.OSRS, n) == pytest.approx(
            float(gain_survival(params.links.relay_eaves, consts_full.a)) ** n, rel=1e-12
        )
        # combining: the summed eavesdropper gain, Gamma(n*m_E) at the same
        # rate, clears the power-shared ceiling
        eaves_n = NakagamiParams(params.links.relay_eaves.m * n, params.links.relay_eaves.omega * n)
        consts_n = scheme_constants(
            params.theta1, params.theta2, alpha1, 0.8, params.rho2 / n
        )
        assert _floor(params, policy, SchemeKind.TMRC, n) == pytest.approx(
            float(gain_survival(eaves_n, consts_n.a)), rel=1e-12
        )
    # dual selection at n < K: the jammed ratio clears the reduced-power ceiling
    rho3 = 0.5 * params.rho2
    consts_j = scheme_constants(params.theta1, params.theta2, alpha1, 0.8, rho3)
    tail = float(
        expansion_survival(params.links.relay_eaves, 1, 0.5 * params.rho2, consts_j.a)
    )
    assert _floor(params, policy, SchemeKind.ODRS, 2) == pytest.approx(tail**2, rel=1e-12)
    # infeasible split floors at certain outage
    assert sop_floor_total(params, fixed_policy(0.7), SchemeKind.OSRS) == 1.0
    # the total's floor is the floor given n = K, row K of the read table
    for split, scheme in itertools.product((policy, fixed_policy(0.7)), SchemeKind):
        assert sop_floor_total(params, split, scheme) == _floor(params, split, scheme, params.K)


def test_dynamic_split_keeps_decaying():
    params = _fig_params(2, 10.0, -5.0)
    policy = PowerPolicy.dynamic(5.0, 0.1, alphaJ=0.5)
    vals = []
    for dB in (40.0, 50.0, 60.0):
        scaling = AsymptoticScaling(1.5, 2.0, db(dB))
        vals.append(sop_asym_total(params, policy, SchemeKind.OSRS, scaling, QUAD))
    assert vals[0] > vals[1] > vals[2] > 0.0


def test_a_conditional_reads_no_decoding_weights():
    # every high-gain plan names the leading decoding weights, but only the
    # total reads them: where the source hop is not high-gain they raise, and
    # each conditional still reads its transmission's outage from the plan
    params = grid_params(K=3, omegaR_dB=-10.0)
    scaling = AsymptoticScaling(*params.links.frame)
    scaled = scaled_params(params, scaling)
    message = r"^phi_R\*eta\^mR must lie below 1 for the high-gain decoding weights"
    with pytest.raises(ValueError, match=message):
        asymptotic._decoding_miss(scaled)
    for policy in (fixed_policy(0.2, alphaJ=0.5), PowerPolicy.dynamic(5.0, 0.1, alphaJ=0.5)):
        for scheme in SchemeKind:
            [values] = _evaluate([asymptotic._plan(scaled, policy, scheme, QUAD)])
            with pytest.raises(ValueError, match=message):
                values["weights"]
            for n in range(params.K + 1):
                cond = size_sop(params, policy, scheme, n, QUAD, scaling)
                expect = 1.0
                if n:
                    sends, size, power = read_table(scheme, params.K)[n]
                    expect = asymptotic._outage(scaled, policy, QUAD, values, sends, size) ** power
                assert 0.0 < cond <= 1.0 and cond.hex() == expect.hex()
            with pytest.raises(ValueError, match=message):
                sop_asym_total(params, policy, scheme, scaling, QUAD)


@pytest.mark.xfail(strict=True, reason="known defect: the weights C(K,n)*miss^(K-n) drop chi^n and sum to "
                                       "(1 + miss)^K, which the total's clamp cuts to 1.0; the fix removes this mark")
@pytest.mark.parametrize("K", [2, 4, 6, 8])
def test_leading_decoding_weights_sum_to_one(K):
    # the relay_k_sweep.csv scenario, whose tmrc asymptotic rows read exactly
    # 1.0 at every K: the sums are 1.027, 1.055, 1.084 and 1.113 there
    links = LinkSet(NakagamiParams(2, db(-10.0)), NakagamiParams(2, db(32.0)), NakagamiParams(2, db(30.0)),
                    NakagamiParams(2, db(-5.0)))
    params = SystemParams(K=K, links=links, P_S=db(20.0), P_R=db(20.0), sigma2=1.0,
                          R1_th=0.2, R2_th=0.1, R1_s=0.1, R2_s=0.2)
    weights = asymptotic._decoding_weights(scaled_params(params, AsymptoticScaling(*params.links.frame)))
    assert sum(weights) == pytest.approx(1.0, abs=1e-12)


def test_sdo_values():
    assert sdo(SchemeKind.TMRC, SdoInputs(K=3, m_r=2, m_u=2, varpi=0.1)) == pytest.approx(5.4)
    assert sdo(SchemeKind.ODRS, SdoInputs(K=3, m_r=3, m_u=2, varpi=0.2)) == pytest.approx(4.8)
    # any fixed split pins the ceiling: order zero
    for scheme in SchemeKind:
        assert sdo(scheme, SdoInputs(K=3, m_r=2, m_u=2)) == 0.0
    with pytest.raises(ValueError):
        SdoInputs(K=0, m_r=2, m_u=2)
    with pytest.raises(ValueError):
        SdoInputs(K=2, m_r=2, m_u=2, varpi=1.0)


def _odrs_sdo_piecewise(k: int, m_r: int, m_u: int, varpi: float) -> float:
    h1 = m_u * (1.0 - varpi) - varpi
    h2 = m_u * (1.0 - varpi) + varpi * (k - 1)
    if m_r < h1:
        return k * m_r
    if m_r > h2:
        return k * m_u * (1.0 - varpi)
    return k * m_u * (1.0 - varpi) + m_r - h2


def test_sdo_relations():
    grid = itertools.product(
        range(1, 6), range(1, 5), range(1, 5), (0.1, 0.3, 0.5, 0.7, 0.9)
    )
    for k, m_r, m_u, varpi in grid:
        inputs = SdoInputs(K=k, m_r=m_r, m_u=m_u, varpi=varpi)
        single = sdo(SchemeKind.OSRS, inputs)
        assert sdo(SchemeKind.TMRC, inputs) == single
        assert sdo(SchemeKind.TSRS, inputs) == single
        dual = sdo(SchemeKind.ODRS, inputs)
        assert dual <= single + 1e-12
        assert dual == pytest.approx(_odrs_sdo_piecewise(k, m_r, m_u, varpi), rel=1e-12)
