"""Scenario container, power policies, and the per-scheme threshold constants."""
from __future__ import annotations

import importlib
import itertools
import math

import pytest
from conftest import fixed_policy, grid_params
from oracles import one_hot

from noma_relay_secrecy import (
    AsymptoticScaling,
    LinkSet,
    NakagamiParams,
    PowerPolicy,
    SchemeKind,
    SystemParams,
    analytic,
    quadrature,
    sop_asym_total,
    sop_total,
)
from noma_relay_secrecy.params import (
    Transmission,
    clamp_probability,
    feasibility_check,
    mixture,
    read_table,
    scheme_constants,
    transmission_args,
    transmission_plan,
)
from noma_relay_secrecy.quadrature import _evaluate


def test_thresholds_and_eta():
    params = grid_params(P_dB=10.0)
    assert params.theta1 == pytest.approx(math.exp(0.2), rel=1e-15)
    assert params.theta2 == pytest.approx(math.exp(0.4), rel=1e-15)
    assert params.rho_s == pytest.approx(10.0, rel=1e-15)
    # (e^{2*0.3} - 1) / 10
    assert params.eta == pytest.approx(0.08221188003905089, rel=1e-13)


def test_system_params_validation():
    good = grid_params()
    with pytest.raises(ValueError):
        SystemParams(
            K=0, links=good.links, P_S=1.0, P_R=1.0, sigma2=1.0,
            R1_th=0.2, R2_th=0.1, R1_s=0.1, R2_s=0.2,
        )
    with pytest.raises(ValueError):
        SystemParams(
            K=True, links=good.links, P_S=1.0, P_R=1.0, sigma2=1.0,
            R1_th=0.2, R2_th=0.1, R1_s=0.1, R2_s=0.2,
        )
    with pytest.raises(ValueError):
        SystemParams(
            K=2, links=good.links, P_S=0.0, P_R=1.0, sigma2=1.0,
            R1_th=0.2, R2_th=0.1, R1_s=0.1, R2_s=0.2,
        )
    with pytest.raises(ValueError):
        SystemParams(
            K=2, links=good.links, P_S=1.0, P_R=1.0, sigma2=1.0,
            R1_th=0.2, R2_th=0.1, R1_s=0.0, R2_s=0.2,
        )


def test_linkset_requires_shared_user_shape():
    with pytest.raises(ValueError):
        LinkSet(
            source_relay=NakagamiParams(2, 1.0),
            relay_user1=NakagamiParams(2, 1.0),
            relay_user2=NakagamiParams(3, 1.0),
            relay_eaves=NakagamiParams(2, 1.0),
        )


def test_policy_validation():
    with pytest.raises(ValueError):
        PowerPolicy()
    with pytest.raises(ValueError):
        PowerPolicy(alpha1=0.2, mu=5.0, varpi=0.1)
    with pytest.raises(ValueError):
        PowerPolicy(alpha1=1.0)
    with pytest.raises(ValueError):
        PowerPolicy(mu=5.0)  # varpi missing
    with pytest.raises(ValueError):
        PowerPolicy(alpha1=0.2, alphaJ=1.0)
    # a dynamic split is checked when it is built, not when it is first resolved
    with pytest.raises(ValueError, match="mu must exceed 1"):
        PowerPolicy.dynamic(0.5, 0.1)
    with pytest.raises(ValueError, match="varpi must lie in"):
        PowerPolicy.dynamic(5.0, 2.0)
    assert not PowerPolicy.fixed(0.2).is_dynamic
    assert PowerPolicy.dynamic(5.0, 0.1).is_dynamic


def test_policy_resolve():
    links = grid_params().links
    a1, a2 = PowerPolicy.fixed(0.3).resolve(links)
    assert (a1, a2) == (0.3, 0.7)
    dyn = PowerPolicy.dynamic(5.0, 0.1)
    alpha1 = 1.0 / (1.0 + 5.0 * links.relay_user2.rate ** (-0.1))
    assert dyn.resolve(links) == (alpha1, 1.0 - alpha1)


def _links_with_mean(omega: float) -> LinkSet:
    # every link Nakagami-2 of mean omega, so the weak user's rate is 2/omega
    link = NakagamiParams(2, omega)
    return LinkSet(source_relay=link, relay_user1=link, relay_user2=link, relay_eaves=link)


def test_dpa_coefficients():
    # the dynamic split: mu=5, varpi=0.1, lambda2=1: ratio 5, alpha1 = 1/6
    a1, a2 = PowerPolicy.dynamic(5.0, 0.1).resolve(_links_with_mean(2.0))
    assert a1 == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert a1 + a2 == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ValueError):
        PowerPolicy.dynamic(1.0, 0.1)
    with pytest.raises(ValueError):
        PowerPolicy.dynamic(5.0, 1.0)
    with pytest.raises(ValueError):
        _links_with_mean(math.inf)  # lambda2 = 0: an infinite mean gain is rejected


def test_feasibility_boundary():
    params = grid_params()  # R2_s = 0.2, so the split must stay below e^{-0.4} ~ 0.670
    assert feasibility_check(params, PowerPolicy.fixed(0.2)) is None
    msg = feasibility_check(params, PowerPolicy.fixed(0.7))
    assert msg is not None and "certain" in msg


def test_scheme_constants_identities():
    params = grid_params()
    alpha1 = 0.2
    consts = scheme_constants(params.theta1, params.theta2, alpha1, 1.0 - alpha1, params.rho2)
    assert consts.d > 0 and consts.v > 0
    assert consts.c < 0
    # the weak-user pole sits exactly on the ceiling: v * a = 1
    assert consts.v * consts.a == pytest.approx(1.0, rel=1e-12)
    assert 1.0 / consts.v == pytest.approx(consts.a, rel=1e-12)
    # u below -1 whenever the split is feasible
    assert consts.u < -1.0


def test_scheme_constants_infeasible():
    params = grid_params()
    with pytest.raises(ValueError):
        scheme_constants(params.theta1, params.theta2, 0.7, 0.3, params.rho2)


def test_a_nan_probability_is_not_clamped_away():
    # rounding past either end is cut, a NaN is no rounding and stays loud
    assert clamp_probability(-1e-17) == 0.0 and clamp_probability(1.0 + 1e-15) == 1.0
    with pytest.raises(ValueError, match="probability is NaN"):
        clamp_probability(math.nan)


def test_the_outage_of_an_empty_set_is_certain():
    def outage(sends, n):
        raise AssertionError("no transmission is formed for the empty set")

    for scheme in SchemeKind:
        assert mixture(one_hot(0, 3), scheme, outage) == 1.0


def test_only_candidates_are_raised_to_the_nth_power():
    read = []

    def outage(sends, n):
        read.append((sends, n))
        return 0.5

    assert mixture(one_hot(3, 4), SchemeKind.TMRC, outage) == 0.5  # combining: one outage, not 0.5**3
    assert mixture(one_hot(3, 4), SchemeKind.OSRS, outage) == 0.5**3
    assert mixture(one_hot(3, 4), SchemeKind.TSRS, outage) == 0.5**3
    assert mixture(one_hot(3, 4), SchemeKind.ODRS, outage) == 0.5**3
    assert mixture(one_hot(4, 4), SchemeKind.ODRS, outage) == 0.5**4  # no idle relay left to jam
    S, J, C = Transmission.SINGLE, Transmission.JAMMED, Transmission.COMBINED
    assert read == [(C, 3), (S, 1), (S, 1), (J, 3), (S, 1)]


@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_reads_is_the_transmission_and_its_set_size(scheme):
    for K in range(1, 7):
        for n in range(1, K + 1):
            sends, size = scheme.reads(n, K)
            assert sends is scheme.transmission(n, K)
            assert size == (1 if sends is Transmission.SINGLE else n)


@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_a_plan_leaves_out_transmissions_whose_constants_overflow(scheme, monkeypatch):
    # at -3200 dB the relay SNR underflows to 1e-320, where a = b = inf and
    # c = -inf: the plan names every transmission, but its integral is left
    # out of the batches and reading it raises, while the decoding law beside
    # it reads. At 10 dB the plan holds the arguments of every distinct
    # transmission, in order of first use, and a plan of several schemes
    # (one sweep point's, `cli.run_sweep`) holds each name once
    policy = fixed_policy(0.2, alphaJ=0.5)
    names = list(dict.fromkeys(scheme.reads(n, 3) for n in range(1, 4)))
    quadrature_module = importlib.import_module("noma_relay_secrecy.quadrature")
    monkeypatch.setattr(quadrature_module, "series_integrals",
                        lambda items, rows: pytest.fail("an overflowing item was batched"))
    plan = analytic._plan(grid_params(K=3, P_dB=-3200.0), policy, scheme, quadrature(300))
    assert list(plan) == ["pmf", *names]
    [values] = _evaluate([plan])
    for name in names:
        with pytest.raises(ValueError, match=r"^threshold constants a=inf, b=inf, c=-inf are not finite"):
            values[name]
    assert values["pmf"].shape == (4,)
    params = grid_params(K=3)
    want = {name: transmission_args(params, policy, *name) for name in names}
    assert transmission_plan(params, policy, scheme) == want
    assert list(transmission_plan(params, fixed_policy(0.7), scheme).values()) == [None] * len(names)
    union = list(dict.fromkeys(s.reads(n, 3) for s in (scheme, *SchemeKind) for n in range(1, 4)))
    assert list(transmission_plan(params, policy, [scheme, *SchemeKind])) == union


def _underflowing_relay_snr() -> SystemParams:
    # the relays decode (P_S = 10), but their SNR P_R/sigma2 underflows
    links = LinkSet(*(NakagamiParams(2, omega) for omega in (10.0, 10.0**1.2, 10.0, 10.0**-0.5)))
    return SystemParams(K=3, links=links, P_S=10.0, P_R=1e-320, sigma2=1.0, R1_th=0.2, R2_th=0.1, R1_s=0.1, R2_s=0.2)


@pytest.mark.parametrize("policy", [fixed_policy(0.2, alphaJ=0.5), PowerPolicy.dynamic(5.0, 0.1, alphaJ=0.5)],
                         ids=["fixed", "dynamic"])
@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_an_underflowing_relay_snr_names_the_overflowing_constants(scheme, policy):
    # every securing transmission has a = b = inf and c = -inf here: both
    # engines refuse the point by name, with no numpy warning on the way
    # (the suite fails on any RuntimeWarning), rather than a bare NaN
    params, quad = _underflowing_relay_snr(), quadrature(300)
    message = r"^threshold constants a=inf, b=inf, c=-inf are not finite: the relay SNR underflows$"
    with pytest.raises(ValueError, match=message):
        sop_total(params, policy, scheme, quad)
    with pytest.raises(ValueError, match=message):
        sop_asym_total(params, policy, scheme, AsymptoticScaling(*params.links.frame), quad)


def test_a_plan_lists_the_names_of_the_per_n_reads_loop():
    # plan keys and golden row order hang on this order: for every ordered
    # subset of schemes and every K <= 8, the names the read table lists are
    # those of `SchemeKind.reads` over n = 1..K, scheme by scheme, each at
    # its first use (an infeasible split lists them without building any)
    policy = fixed_policy(0.99)
    for K in range(1, 9):
        params = grid_params(K=K)
        assert feasibility_check(params, policy) is not None
        for size in range(1, len(SchemeKind) + 1):
            for schemes in itertools.permutations(SchemeKind, size):
                want = dict.fromkeys(s.reads(n, K) for s in schemes for n in range(1, K + 1))
                assert list(transmission_plan(params, policy, schemes)) == list(want)
        for scheme in SchemeKind:
            rows = [(*scheme.reads(n, K), 1 if scheme.reads(n, K)[0] is Transmission.COMBINED else n)
                    for n in range(1, K + 1)]
            assert read_table(scheme, K) == (None, *rows)
            by_name = transmission_plan(params, policy, scheme.value)
            assert list(by_name) == list(transmission_plan(params, policy, [scheme]))
    # a Transmission is a str too, but never a scheme
    for reads in (Transmission.SINGLE, [Transmission.COMBINED]):
        with pytest.raises(ValueError, match="is not a valid SchemeKind"):
            transmission_plan(grid_params(), policy, reads)


def test_a_scheme_and_its_name_read_one_table():
    # a str enum member hashes and compares as its value, so the read table
    # caches a scheme and its name under one key, and the engines' mixtures,
    # which pass the scheme on as given, give one value for both
    assert read_table("odrs", 4) is read_table(SchemeKind.ODRS, 4)
    params, policy, quad = grid_params(K=4, P_dB=20.0, omegaR_dB=-10.0), fixed_policy(0.2, alphaJ=0.5), quadrature(300)
    scaling = AsymptoticScaling(*params.links.frame)
    for scheme in SchemeKind:
        by_name = sop_total(params, policy, scheme.value, quad).value
        assert by_name.hex() == sop_total(params, policy, scheme, quad).value.hex()
        by_name = sop_asym_total(params, policy, scheme.value, scaling, quad)
        assert by_name.hex() == sop_asym_total(params, policy, scheme, scaling, quad).hex()
