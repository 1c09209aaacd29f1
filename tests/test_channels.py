"""Channel-law checks against scipy oracles and frozen hand-computed values."""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from oracles import gain_cdf, gain_pdf, jammed_ratio_cdf, jammed_ratio_pdf, max_gain_pdf, mrc_sum_cdf
from scipy import integrate, special, stats

from noma_relay_secrecy.channels import (
    NakagamiParams,
    combined_law,
    enumerate_multinomial_terms,
    gain_survival,
    gain_tails,
    jammed_ratio_pdf_rows,
    jammed_ratio_survival,
    jammed_law,
    jammed_ratio_terms,
    jammed_table,
    sample_gain,
)


def _oracle_cdf(m: int, omega: float):
    """Regularized lower gamma as an independent CDF, vectorized."""
    return lambda x: special.gammainc(m, (m / omega) * np.asarray(x))


def test_params_validation():
    with pytest.raises(ValueError):
        NakagamiParams(0, 1.0)
    with pytest.raises(ValueError):
        NakagamiParams(2.5, 1.0)
    with pytest.raises(ValueError):
        NakagamiParams(True, 1.0)
    with pytest.raises(ValueError):
        NakagamiParams(2, 0.0)
    assert NakagamiParams(2, 4.0).rate == 0.5


def test_gain_cdf_frozen_value():
    # m=2, omega=1, x=1: 1 - e^{-2}(1 + 2) = 1 - 3e^{-2}
    p = NakagamiParams(2, 1.0)
    assert gain_cdf(p, 1.0) == pytest.approx(1.0 - 3.0 * math.exp(-2.0), rel=1e-14)
    assert gain_cdf(p, 1.0) == pytest.approx(0.5939941502901616, rel=1e-13)


def test_cdf_survival_complementary():
    p = NakagamiParams(3, 2.5)
    x = np.linspace(0.0, 20.0, 50)
    assert np.allclose(gain_cdf(p, x) + gain_survival(p, x), 1.0, atol=1e-14)


def test_negative_x_rejected():
    p = NakagamiParams(2, 1.0)
    for fn in (gain_cdf, gain_survival, gain_tails, gain_pdf):
        with pytest.raises(ValueError):
            fn(p, -0.1)


def test_gain_cdf_matches_scipy():
    x = np.linspace(0.0, 30.0, 200)
    for m in (1, 2, 3):
        for omega in (0.5, 1.0, 10.0):
            got = gain_cdf(NakagamiParams(m, omega), x)
            ref = _oracle_cdf(m, omega)(x)
            assert np.max(np.abs(got - ref)) < 1e-12


def test_gain_pdf_matches_scipy():
    x = np.linspace(1e-6, 30.0, 200)
    for m in (1, 2, 3):
        for omega in (0.5, 1.0, 10.0):
            got = gain_pdf(NakagamiParams(m, omega), x)
            ref = stats.gamma.pdf(x, a=m, scale=omega / m)
            assert np.max(np.abs(got - ref)) < 1e-12


def test_gain_pdf_integrates_to_one():
    for m, omega in ((1, 0.5), (2, 1.0), (3, 10.0)):
        p = NakagamiParams(m, omega)
        total, _ = integrate.quad(lambda x: gain_pdf(p, x), 0.0, 80.0 * omega)
        assert total == pytest.approx(1.0, abs=1e-6)


def test_mrc_frozen_value():
    # n=2 combiner of m=2, omega=1 gains: Gamma(4, rate 2) at x=2 -> P(4, 4)
    p = NakagamiParams(2, 1.0)
    assert mrc_sum_cdf(p, 2, 2.0) == pytest.approx(float(special.gammainc(4, 4.0)), rel=1e-13)
    assert mrc_sum_cdf(p, 2, 2.0) == pytest.approx(0.566529879633291, rel=1e-12)


def test_mrc_reduces_to_single():
    p = NakagamiParams(2, 3.0)
    x = np.linspace(0.0, 15.0, 40)
    assert np.allclose(mrc_sum_cdf(p, 1, x), gain_cdf(p, x), atol=1e-15)
    with pytest.raises(ValueError):
        combined_law(p, 0)


def test_sampling_matches_cdf():
    rng = np.random.default_rng(20240817)
    for m in (1, 2, 3):
        for omega in (0.5, 1.0, 10.0):
            p = NakagamiParams(m, omega)
            draws = sample_gain(p, rng, 100_000)
            ks = stats.kstest(draws, _oracle_cdf(m, omega))
            assert ks.statistic < 0.01
            assert draws.mean() == pytest.approx(omega, rel=0.01)


def test_sample_gain_shapes():
    rng = np.random.default_rng(3)
    p = NakagamiParams(2, 1.0)
    assert isinstance(sample_gain(p, rng), float)
    assert sample_gain(p, rng, 7).shape == (7,)
    assert sample_gain(p, rng, (3, 4)).shape == (3, 4)


def test_multinomial_term_count():
    for m_e in (1, 2, 3):
        for count in (1, 2, 3, 4):
            terms = enumerate_multinomial_terms(m_e, count)
            assert len(terms) == math.comb(count - 1 + m_e, m_e)


def test_max_gain_pdf_matches_order_statistic():
    # direct order-statistic density: count * f(z) * F(z)^{count-1}. Deep in
    # the left tail F^{count-1} underflows toward 1e-12 and the expansion
    # cancels O(1) terms down to it, so the comparison is mixed abs/rel.
    worst = 0.0
    for m_e in (1, 2, 3):
        for count in (1, 2, 3, 4):
            for omega in (0.3, 1.0, 3.0):
                p = NakagamiParams(m_e, omega)
                for z in (0.1, 0.5, 1.0, 2.0, 5.0):
                    direct = (
                        count
                        * stats.gamma.pdf(z, a=m_e, scale=omega / m_e)
                        * special.gammainc(m_e, (m_e / omega) * z) ** (count - 1)
                    )
                    got = max_gain_pdf(p, count, z)
                    worst = max(worst, abs(got - direct) / (1.0 + direct))
    assert worst < 1e-10


def test_max_gain_pdf_normalizes():
    p = NakagamiParams(2, 1.5)
    total, _ = integrate.quad(lambda z: max_gain_pdf(p, 3, z), 0.0, 120.0)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_jammed_ratio_limits():
    p = NakagamiParams(2, 0.8)
    assert jammed_ratio_cdf(p, 2, 1.5, 0.0) == 0.0
    assert jammed_ratio_survival(p, 2, 1.5, 0.0) == 1.0
    assert jammed_ratio_cdf(p, 2, 1.5, 500.0) == pytest.approx(1.0, abs=1e-10)
    y = np.linspace(0.0, 10.0, 30)
    total = jammed_ratio_cdf(p, 2, 1.5, y) + jammed_ratio_survival(p, 2, 1.5, y)
    assert np.allclose(total, 1.0, atol=1e-12)


def test_jammed_ratio_rho_zero_collapses():
    # without jamming power the ratio is the plain gain
    p = NakagamiParams(3, 1.2)
    y = np.linspace(0.0, 8.0, 25)
    assert np.allclose(
        jammed_ratio_survival(p, 2, 0.0, y), gain_survival(p, y), atol=1e-12
    )


def test_jammed_ratio_pdf_is_cdf_derivative():
    worst = 0.0
    for m_e, count, rho4 in ((1, 1, 1.0), (2, 2, 3.16), (3, 2, 0.5), (2, 4, 10.0)):
        p = NakagamiParams(m_e, 1.0)
        for y in (0.3, 0.8, 1.5):
            h = 1e-4 * max(y, 1.0)
            fd = (
                jammed_ratio_cdf(p, count, rho4, y + h)
                - jammed_ratio_cdf(p, count, rho4, y - h)
            ) / (2.0 * h)
            got = jammed_ratio_pdf(p, count, rho4, y)
            worst = max(worst, abs(got - fd) / max(abs(fd), 1e-300))
    assert worst < 1e-5


def test_jammed_ratio_pdf_normalizes():
    p = NakagamiParams(2, 1.0)
    total, _ = integrate.quad(lambda y: jammed_ratio_pdf(p, 3, 2.0, y), 0.0, 80.0)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_jammed_ratio_empirical_cdf():
    # independent sampler: fresh gamma G over 1 + rho4 * max of `count` gammas
    m_e, count, rho4, omega = 2, 2, 1.0, 1.0
    rng = np.random.default_rng(321)
    n = 100_000
    g = rng.gamma(shape=m_e, scale=omega / m_e, size=n)
    h = rng.gamma(shape=m_e, scale=omega / m_e, size=(n, count)).max(axis=1)
    y_draws = g / (1.0 + rho4 * h)
    p = NakagamiParams(m_e, omega)
    for y in (0.5, 1.0, 2.0):
        emp = float((y_draws <= y).mean())
        ana = jammed_ratio_cdf(p, count, rho4, y)
        se = math.sqrt(ana * (1.0 - ana) / n)
        assert abs(emp - ana) < 4.0 * se


def test_gain_cdf_relative_error_at_small_x():
    # 1 - survival cancels to rounding noise as the CDF goes to 0 (5,500%
    # relative error at x = 1e-9 for m = 2); the CDF must keep its digits
    x = np.logspace(-12, -2, 41)
    for m in (1, 2, 3, 4):
        for omega in (1.0, 0.1):
            got = gain_cdf(NakagamiParams(m, omega), x)
            ref = special.gammainc(m, (m / omega) * x)
            assert np.max(np.abs(got / ref - 1.0)) < 1e-12, m
            assert mrc_sum_cdf(NakagamiParams(m, omega), 2, 1e-9) == pytest.approx(
                float(special.gammainc(2 * m, (m / omega) * 1e-9)), rel=1e-12)
    assert gain_cdf(NakagamiParams(2, 1.0), 0.0) == 0.0


def _cdf_series_on_arrays(m, z):
    """The CDF series summed with array arithmetic, every value until the last
    converges: the reference the per-value float loop must equal bit for bit."""
    with np.errstate(divide="ignore"):
        term = np.exp(m * np.log(z) - z - math.lgamma(m + 1))
    total = term.copy()
    k = m
    while np.any(term > total * 1e-17):
        k += 1
        term = term * z / k
        total = total + term
    return total


def test_gain_tails_equal_array_series_bit_for_bit():
    # the survival and the CDF at once, scalar and array, deep tail to past
    # the mean; a scalar below the mean takes the one-value float path
    rng = np.random.default_rng(5)
    for m in (1, 2, 3, 5, 13):
        p = NakagamiParams(m, 0.7)
        x = np.concatenate([[0.0], np.logspace(-300, 1, 60), rng.uniform(0.0, 1.0, 200)]) * p.omega
        z = p.rate * x
        low = z < m
        survival, cdf = gain_tails(p, x)
        assert survival.tobytes() == gain_survival(p, x).tobytes()
        assert cdf.tobytes() == gain_cdf(p, x).tobytes()
        assert cdf[low].tobytes() == _cdf_series_on_arrays(m, z[low]).tobytes()
        assert cdf[~low].tobytes() == (1.0 - survival[~low]).tobytes()
        for xi, s_i, c_i in zip(x, survival, cdf):
            assert gain_tails(p, float(xi)) == (s_i, c_i)
            assert gain_survival(p, float(xi)) == s_i


def _survival_series_per_shape(m, z):
    """The survival series as one array pass that stops at shape m: the
    reference `gain_survival` must equal bit for bit, one value or an array."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    total = np.ones_like(z)
    term = np.ones_like(z)
    for k in range(1, m):
        term = term * z / k
        total = total + term
    with np.errstate(over="ignore"):
        out = np.exp(-z) * total
    big = z > 700.0
    if np.any(big):
        zb = z[big]
        logtot = np.zeros_like(zb)
        for k in range(1, m):
            logtot = np.logaddexp(logtot, k * np.log(zb) - math.lgamma(k + 1))
        out[big] = np.exp(-zb + logtot)
    return out


# z over [0, 1500]: the running sum up to 700, the log-space sum past it
SURVIVAL_Z = np.concatenate([np.linspace(0.0, 60.0, 121), np.linspace(60.0, 1500.0, 49), [699.9, 700.0, 700.5]])


def test_survival_prefixes_equal_per_shape_passes():
    # every shape s up to m, on arrays: rate 1 puts x on the reference's z exactly
    for m in (1, 2, 5, 13):
        for s in range(1, m + 1):
            survival = gain_survival(NakagamiParams(s, float(s)), SURVIVAL_Z)
            assert survival.tobytes() == _survival_series_per_shape(s, SURVIVAL_Z).tobytes()


def test_one_value_survival_equals_the_array_series_bit_for_bit():
    # one value goes straight to the scalar evaluator, on either side of z = 700
    for m in (1, 2, 3, 5, 13):
        p = NakagamiParams(m, 0.7)
        x = np.concatenate([[1e-300 / p.rate], SURVIVAL_Z / p.rate])
        ref = _survival_series_per_shape(m, p.rate * x)
        for xi, s_i in zip(x.tolist(), ref):
            got = gain_survival(p, xi)
            assert type(got) is float and np.float64(got).tobytes() == s_i.tobytes()


def test_tails_at_infinity():
    # past the log-space branch's reach, where -inf + inf would give NaN
    for m in (1, 2, 3, 5, 13):
        p = NakagamiParams(m, 0.7)
        assert gain_survival(p, math.inf) == 0.0
        assert gain_tails(p, math.inf) == (0.0, 1.0)
        survival, cdf = gain_tails(p, np.array([1.0, math.inf]))
        assert survival[1] == 0.0 and cdf[1] == 1.0
        assert gain_survival(p, np.array([math.inf, 2.0]))[0] == 0.0


def _pdf_rows_from_terms(p_e, count, rho4, y):
    """The jammed-density rows built straight from jammed_ratio_terms at
    every call, as before the table: the reference for the cached table."""
    y = np.asarray(y, dtype=float)
    terms = jammed_ratio_terms(p_e, count, rho4)
    k = np.array([t.k for t in terms])
    col = (-1,) + (1,) * y.ndim
    big_c = np.array([t.C for t in terms], dtype=float).reshape(col)
    big_d = np.array([t.D for t in terms]).reshape(col)
    delta = np.array([t.delta for t in terms]).reshape(col)
    y_pow = np.power(y, np.arange(p_e.m + 1).reshape(col))
    numer = rho4 * p_e.rate * y_pow[k + 1] + big_d * y_pow[k] - big_c * k.reshape(col) * y_pow[np.maximum(k - 1, 0)]
    shared, which = np.unique([(t.C, t.varsigma + 1) for t in terms], axis=0, return_inverse=True)
    denom = np.power(rho4 * y + shared[:, 0].reshape(col), shared[:, 1].reshape(col))
    vals = delta * numer / denom[which.ravel()]
    return np.stack([vals[k == i].sum(axis=0) for i in range(p_e.m)])


def test_cached_jammed_rows_equal_rows_from_terms():
    # up to 720 terms (count 8, m 3): the k-slices span several term blocks
    y = np.concatenate([[0.0], np.linspace(1e-6, 25.0, 300)])
    for m_e in (1, 2, 3):
        p = NakagamiParams(m_e, 0.6)
        for count in range(1, 9):
            for rho4 in (0.0, 5.0):
                for _ in range(2):  # the first call builds the table, the second reads it
                    for at in (y, 1.3, np.array([1.3]), y.reshape(1, -1), np.stack([y, 0.5 * y])):
                        got = jammed_ratio_pdf_rows(p, count, rho4, at)
                        assert np.array_equal(got, _pdf_rows_from_terms(p, count, rho4, at))
    with pytest.raises(ValueError):
        jammed_ratio_pdf_rows(NakagamiParams(2, 1.0), 0, 1.0, y)
    with pytest.raises(ValueError):
        jammed_table(NakagamiParams(2, 1.0), 2, 1.0).delta[0] = 0.0


def _survival_by_term_loop(p_e, count, rho4, y):
    """P(Y > y) summed term by term in table order with numpy powers, as
    before the table's arrays: the reference the array evaluation must equal."""
    y = np.asarray(y, dtype=float)
    tab = jammed_table(p_e, count, rho4)
    acc = np.zeros_like(y)
    for t in tab.terms:
        acc = acc + t.delta * np.power(y, t.k) / np.power(t.C + rho4 * y, t.varsigma)
    return tab.phi0 * np.exp(-p_e.rate * y) * acc


def test_jammed_survival_equals_the_term_loop_bit_for_bit():
    # up to 720 terms (count 8, m 3): an array y spans several term blocks
    rng = np.random.default_rng(11)
    y = np.concatenate([[0.0, 1e-300, 1e-8], np.linspace(1e-6, 30.0, 97), rng.uniform(0.0, 5.0, 40)])
    for m_e in (1, 2, 3):
        p = NakagamiParams(m_e, 0.6)
        for count in range(1, 9):
            for rho4 in (0.0, 0.37, 5.0):
                for at in (y, y.reshape(2, -1), y[:1]):
                    got = jammed_ratio_survival(p, count, rho4, at)
                    assert got.tobytes() == _survival_by_term_loop(p, count, rho4, at).tobytes()
                for yi in y[::9].tolist():
                    got = jammed_ratio_survival(p, count, rho4, yi)
                    assert type(got) is float
                    assert np.float64(got).tobytes() == _survival_by_term_loop(p, count, rho4, yi).tobytes()
    with pytest.raises(ValueError):
        jammed_table(NakagamiParams(2, 1.0), 2, 1.0).rank[0] = 0


def test_jammed_rows_peak_memory_is_block_sized():
    # 504 terms at 300 nodes: one (terms, nodes) temporary alone is 1.2 MB
    p, y = NakagamiParams(3, 0.6), np.linspace(1e-6, 25.0, 300)
    jammed_ratio_pdf_rows(p, 7, 3.0, y)  # builds the table outside the measurement
    tracemalloc.start()
    try:
        jammed_ratio_pdf_rows(p, 7, 3.0, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6


def test_laws_built_from_the_same_arguments_are_equal():
    # a law rebuilt after its cache dropped it is the same store key as the first
    p = NakagamiParams(2, 0.5)
    for build, args in ((combined_law, (p, 3)), (jammed_law, (p, 2, 4.0))):
        first = build(*args)
        build.cache_clear()
        again = build(*args)
        assert again is not first and again == first and hash(again) == hash(first)
    # the jammed front does not depend on rho4: the bound functions tell the laws apart
    assert jammed_law(p, 2, 4.0) != jammed_law(p, 2, 5.0)
    assert combined_law(p, 3) != combined_law(NakagamiParams(2, 0.25), 3)
