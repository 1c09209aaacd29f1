"""The batch kernel against the one-integral evaluation it replaced, bit for bit.

`analytic._joint_secrecy_prob` and `asymptotic._leading_integral` are
evaluated in batches of one integrand shape (`quadrature.series_integrals`),
each item over one cut, that of its highest degree. The references below
are the one-integral bodies the engines ran before: one `series_integral`
per integral, its integrand built on the nodes of that cut, the law's row
evaluated on those nodes alone. Every batched value must carry the same
bits (`float.hex`), whatever the batch mixes and however its items are
blocked.
"""
from __future__ import annotations

import importlib
import math
from collections import Counter

import numpy as np
import pytest
from conftest import db, fixed_policy, grid_params

from noma_relay_secrecy import AsymptoticScaling, PowerPolicy, analytic, asymptotic, scaled_params
from noma_relay_secrecy.channels import NakagamiParams, jammed_law
from noma_relay_secrecy.params import Transmission, transmission_args
from noma_relay_secrecy.quadrature import (
    _check_domain,
    _effective_upper,
    _evaluate,
    _signed_log_pow,
    convolve_series,
    law_rows,
    quadrature,
    series_integrals,
    series_rows,
)

quadrature_module = importlib.import_module("noma_relay_secrecy.quadrature")
QUAD = quadrature(300)


def reference_series_integral(a, pole, f, degree0, n_degrees, integrand, quad) -> float:
    _check_domain(a, pole, "pole")
    x, w = quad.map_to(_effective_upper(a, f, degree0 + n_degrees - 1))
    log_scale, series = integrand(x)
    with np.errstate(over="ignore"):
        vals = np.exp(log_scale) * series.sum(axis=0)
    return float(np.dot(w, vals))


def reference_user_series(base, tau_u, log_rate, alternate):
    k = np.arange(tau_u)[:, None]
    log_coef = k * log_rate - np.array([math.lgamma(i + 1) for i in range(tau_u)])[:, None]
    logmag, sign = _signed_log_pow(base, k)
    if alternate:
        sign = sign * (1.0 - 2.0 * (k % 2))
    return series_rows(range(tau_u), log_coef + logmag, sign, tau_u)


def reference_joint(user1, user2, theta1, consts, alpha2, tau_u, law, quad) -> float:
    lambda1, lambda2 = user1.rate, user2.rate
    a, b, c, q, r = consts.a, consts.b, consts.c, consts.v, consts.u
    log_base1, log_base2 = math.log(lambda1 * b), math.log(lambda2 * abs(c))
    log_front = law.log_front - lambda1 * b - lambda2 * c
    h = consts.screening(lambda2, alpha2)
    f = lambda1 * theta1 + law.rate
    c1 = theta1 / b

    def integrand(x):
        one_minus_qx = 1.0 - q * x
        shift1, rows1 = reference_user_series(1.0 + c1 * x, tau_u, log_base1, alternate=False)
        shift2, rows2 = reference_user_series(1.0 + r / one_minus_qx, tau_u, log_base2, alternate=True)
        series = convolve_series(rows1, rows2)
        power = (law.degree - 1.0) * np.log(x) if law.degree > 1 else 0.0
        log_scale = log_front + power - f * x - h / one_minus_qx + shift1 + shift2
        if law.row is not None:
            series = series * law.row(x)
        return log_scale, series

    return reference_series_integral(a, q, f, law.degree, 2 * tau_u - 1, integrand, quad)


def reference_leading(user1, user2, theta1, consts, alpha2, tau_u, law, quad) -> float:
    b, c, u, v = consts.b, consts.c, consts.u, consts.v
    log_phi1 = asymptotic._log_leading_coeff(user1.rate, tau_u)
    log_phi2c = asymptotic._log_leading_coeff(user2.rate, tau_u) + tau_u * math.log(abs(c))
    sign_phi2c = math.copysign(1.0, c) ** tau_u
    h = consts.screening(user2.rate, alpha2)

    def integrand(x):
        one_minus_vx = 1.0 - v * x
        log_b, sign_b = _signed_log_pow(b + theta1 * x, tau_u)
        log_c, sign_c = _signed_log_pow(1.0 + u / one_minus_vx, tau_u)
        log_c = log_c - h / one_minus_vx
        shift, user = series_rows(
            (0, 0, tau_u),
            np.stack([log_phi1 + log_b, log_phi2c + log_c, log_phi1 + log_phi2c + log_b + log_c]),
            np.stack([sign_b, sign_phi2c * sign_c, -sign_phi2c * sign_b * sign_c]),
            tau_u + 1,
        )
        power = (law.degree - 1.0) * np.log(x) if law.degree > 1 else 0.0
        log_scale = law.log_front + power - law.rate * x + shift
        return log_scale, user if law.row is None else user * law.row(x)

    degree0, n_degrees = law.degree + tau_u, tau_u + 1
    return reference_series_integral(consts.a, consts.v, law.rate, degree0, n_degrees, integrand, quad)


REFERENCES = {analytic._joint_secrecy_prob: reference_joint, asymptotic._leading_integral: reference_leading}


def integral_args(params, policy, quad=QUAD) -> list[tuple]:
    """The arguments of every securing integral a mixture on params can read:
    n = 1..K relays combining, and one relay jammed by K - n = 1..K-1 idle ones."""
    sends = [(Transmission.COMBINED, n) for n in range(1, params.K + 1)] + [(Transmission.JAMMED, n) for n in range(1, params.K)]
    return [(*transmission_args(params, policy, kind, n), quad) for kind, n in sends]


def high_gain(params, omega2_dB):
    return scaled_params(params, AsymptoticScaling(db(2.0), db(0.0), db(omega2_dB)))


FIXED = fixed_policy(0.2, alphaJ=0.5)
DYNAMIC = PowerPolicy.dynamic(5.0, 0.1, alphaJ=0.5)
SCENARIOS = [
    # jammed counts 1..7 under both splits, at m = 1, 2, 3
    *[(grid_params(K=8, m=m, omegaR_dB=-10.0), policy) for m in (1, 2) for policy in (FIXED, DYNAMIC)],
    (grid_params(K=8, m=3, P_dB=15.0), FIXED),
    # omega_E = -40 dB cuts every integral short; at -37 dB the user
    # constants are the same, and the cuts are not
    (grid_params(K=3, P_dB=0.0, omegaE_dB=-40.0, m=2), FIXED),
    (grid_params(K=3, P_dB=0.0, omegaE_dB=-37.0, m=2), FIXED),
    (grid_params(K=3, P_dB=0.0, omegaE_dB=-40.0, m=3), DYNAMIC),
    # m = 1 at n = 2 and m = 2 at n = 1 share tau_u and the law's degree, not its rate
    (grid_params(K=2, m=1, omegaE_dB=-2.0), FIXED),
    (grid_params(K=2, m=2, omegaE_dB=-8.0), FIXED),
    # the high-gain frame, where the dynamic split moves the ceiling and with it every cut
    *[(high_gain(grid_params(K=4, m=2), omega2), policy) for omega2 in (30.0, 50.0) for policy in (FIXED, DYNAMIC)],
]


def _batches(integral) -> dict[tuple, list]:
    """Every scenario's (arguments, item) pairs for the integral, by shape."""
    by_shape: dict[tuple, list] = {}
    for params, policy in SCENARIOS:
        for args in integral_args(params, policy):
            item = integral(*args)
            by_shape.setdefault(item.shape, []).append((args, item))
    return by_shape


@pytest.mark.parametrize("integral", list(REFERENCES), ids=["exact", "leading"])
def test_batches_equal_one_integral_evaluations_bit_for_bit(integral, monkeypatch):
    reference = REFERENCES[integral]
    by_shape = _batches(integral)
    # the batches mix what the kernel must keep apart per item
    short, rates, counts = Counter(), Counter(), Counter()
    for shape, entries in by_shape.items():
        short[shape] = len({_effective_upper(it.a, it.decay, it.degree0 + it.n_degrees - 1) < it.a
                            for _, it in entries})
        rates[shape] = len({it.law.rate for _, it in entries})
        counts[shape] = len({it.law for _, it in entries if it.law.row is not None})
    assert max(short.values()) == 2  # a batch with an item cut short beside one that is not
    assert max(rates.values()) >= 2  # equal shapes, unequal law rates
    assert max(counts.values()) >= 7  # jammed counts 1..7 in one batch
    for entries in by_shape.values():
        want = [reference(*args).hex() for args, _ in entries]
        items = [item for _, item in entries]
        for budget in (quadrature_module._BATCH_ELEMENTS, 1, 2**20):  # per-item blocks up to one block
            monkeypatch.setattr(quadrature_module, "_BATCH_ELEMENTS", budget)
            assert [value.hex() for value in series_integrals(items, {})] == want
        # an item alone gives what it gives in its batch, and so does a plan of its entry alone
        for (args, item), value in zip(entries, want):
            assert series_integrals([item], {})[0].hex() == value
            assert _evaluate([{"alone": (integral, args)}])[0]["alone"].hex() == value


def test_one_evaluate_keeps_one_read_only_array_per_law_and_cut(monkeypatch):
    # the exact and leading integrals of one jammed scenario, planned
    # together, read the same rows, built in one call per law and kept in one
    # dict of the `_evaluate` call; each equals the rows of its cut alone
    params = high_gain(grid_params(K=5, m=3), 40.0)
    kept = []

    def keeping(law, cuts, quad, rows, _original=quadrature_module.law_rows):
        kept.append(rows)
        return _original(law, cuts, quad, rows)

    monkeypatch.setattr(quadrature_module, "law_rows", keeping)
    _evaluate([dict(enumerate((integral, args) for integral in REFERENCES for args in integral_args(params, DYNAMIC)))])
    rows = kept[0]
    assert all(other is rows for other in kept)
    assert len({law for law, _, _ in rows}) == 4  # idle counts 1..4
    for (law, cut, quad), block in rows.items():
        assert not block.flags.writeable
        assert block.tobytes() == law.row(quad.nodes_on(cut)).tobytes()
        assert law_rows(law, [cut], quad, {})[0].tobytes() == block.tobytes()


@pytest.mark.parametrize("m", [1, 2, 3])
def test_jammed_rows_over_stacked_nodes_equal_each_cut_alone(m):
    rng = np.random.default_rng(m)
    for count in range(1, 8):
        p_e = NakagamiParams(m, 10.0 ** rng.uniform(-1.5, 0.5))
        rho4 = 10.0 ** rng.uniform(-1.0, 2.0)
        cuts = 10.0 ** rng.uniform(-3.0, 1.0, size=5)
        row = jammed_law(p_e, count, rho4).row
        stacked = row(QUAD.nodes_on(cuts[:, None]))
        for j, cut in enumerate(cuts):
            assert stacked[j].tobytes() == row(QUAD.nodes_on(cut)).tobytes(), (count, j)
