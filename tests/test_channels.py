"""Channel-law checks against scipy oracles and frozen hand-computed values."""
from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from oracles import (
    enumerate_multinomial_terms,
    expansion_pdf,
    expansion_survival,
    gain_cdf,
    gain_pdf,
    jammed_ratio_cdf,
    jammed_ratio_pdf,
    max_gain_pdf,
    mrc_sum_cdf,
)
from scipy import integrate, special, stats

from noma_relay_secrecy.channels import (
    NakagamiParams,
    _jammed_weights,
    combined_law,
    gain_survival,
    gain_tails,
    jammed_law,
    jammed_ratio_terms,
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
    survival = jammed_law(p, 2, 1.5).survival
    assert jammed_ratio_cdf(p, 2, 1.5, 0.0) == 0.0
    assert survival(0.0) == 1.0
    assert jammed_ratio_cdf(p, 2, 1.5, 500.0) == pytest.approx(1.0, abs=1e-10)
    # against the retired expansion's CDF, a form of its own
    y = np.linspace(0.0, 10.0, 30)
    total = (1.0 - expansion_survival(p, 2, 1.5, y)) + survival(y)
    assert np.allclose(total, 1.0, atol=1e-12)


def test_jammed_ratio_rho_zero_collapses():
    # without jamming power the ratio is the plain gain, and its law the gain's own
    p = NakagamiParams(3, 1.2)
    y = np.linspace(0.0, 8.0, 25)
    for count in range(1, 8):
        assert jammed_law(p, count, 0.0) == combined_law(p, 1)
        assert jammed_law(p, count, 0.0).survival(y).tobytes() == gain_survival(p, y).tobytes()
    assert np.allclose(expansion_survival(p, 2, 0.0, y), gain_survival(p, y), atol=1e-12)


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


def _row_from_terms(p_e, count, rho4, y):
    """The jammed density row summed straight from jammed_ratio_terms, in their
    order, at every call: the reference for the law's row over cached weights."""
    y = np.asarray(y, dtype=float)
    row = np.zeros(y.shape)
    for big_c, s, w in jammed_ratio_terms(p_e, count, rho4):
        row = row + w * np.power(big_c + rho4 * y, -s)
    return row


def test_cached_jammed_rows_equal_rows_from_terms():
    # one term per distinct (C, s): C = 1+u for u < count, s from m to m + u*(m-1) + m
    y = np.concatenate([[0.0], np.linspace(1e-6, 25.0, 300)])
    for m_e in (1, 2, 3):
        p = NakagamiParams(m_e, 0.6)
        for count in range(1, 9):
            terms = jammed_ratio_terms(p, count, 5.0)
            assert jammed_ratio_terms(p, count, 5.0) is terms  # built once
            distinct = sum(u * (m_e - 1) + m_e + 1 for u in range(count))
            assert len(terms) == len({(c, s) for c, s, _ in terms}) == distinct
            row = jammed_law(p, count, 5.0).row
            for at in (y, np.array(1.3), np.array([1.3]), y.reshape(1, -1), np.stack([y, 0.5 * y])):
                assert row(at).tobytes() == _row_from_terms(p, count, 5.0, at).tobytes()
    assert len(jammed_ratio_terms(NakagamiParams(3, 1.0), 7, 1.0)) == 70  # the expansion had 504
    assert len(jammed_ratio_terms(NakagamiParams(2, 1.0), 3, 1.0)) == 12  # and 18
    for bad in ((0, 1.0), (2, -1.0)):
        with pytest.raises(ValueError):
            jammed_law(NakagamiParams(2, 1.0), *bad)


def _survival_by_term_loop(p_e, count, rho4, y):
    """P(Y > y) summed term by term from the survival weights, on one array:
    the reference that one value and every shape of array must equal."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    acc = np.zeros_like(y)
    for k, big_c, s, w in _jammed_weights(p_e, count, rho4)[1]:
        acc = acc + w * (p_e.rate * y) ** k * np.power(big_c + rho4 * y, -s)
    return np.exp(-p_e.rate * y) * acc


def test_jammed_survival_equals_the_term_loop_bit_for_bit():
    rng = np.random.default_rng(11)
    y = np.concatenate([[0.0, 1e-300, 1e-8], np.linspace(1e-6, 30.0, 97), rng.uniform(0.0, 5.0, 40)])
    for m_e in (1, 2, 3):
        p = NakagamiParams(m_e, 0.6)
        for count in range(1, 9):
            for rho4 in (0.37, 5.0):
                survival = jammed_law(p, count, rho4).survival
                ref = _survival_by_term_loop(p, count, rho4, y)
                for at in (y, y.reshape(2, -1), y[:1]):
                    want = _survival_by_term_loop(p, count, rho4, at).reshape(at.shape)
                    assert survival(at).tobytes() == want.tobytes()
                assert survival(y).tobytes() == ref.tobytes()
                for yi, want in zip(y[::9].tolist(), ref[::9]):
                    got = survival(yi)
                    assert type(got) is float and np.float64(got).tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        jammed_law(NakagamiParams(2, 1.0), 2, 1.0).survival(-0.1)


def _mpmath_jammed(m, rate, count, rho4, ys):
    """[(density, survival)] of Y = G/(1 + rho4*H) at each y of ys in 40-digit
    arithmetic, from the integral over H of its order-statistic density: G's
    density at y*(1 + rho4*h) times (1 + rho4*h), and G's survival there. With
    z = lambda*h, H's CDF^(count-1) is sum_u C(count-1,u) (-1)^u e^(-u*z) P(z)^u,
    P(z) = sum_{k<m} z^k/k!, and each integral of z^n*e^(-beta*z) is n!/beta^(n+1)."""
    with mpmath.workdps(40):
        series = [mpmath.mpf(1) / math.factorial(k) for k in range(m)]
        power, coeffs = [mpmath.mpf(1)], []  # P^u's coefficients; (u, B, A_{u,B})
        for u in range(count):
            coeffs += [(u, big_b, (-1) ** u * math.comb(count - 1, u) * c) for big_b, c in enumerate(power)]
            power = [mpmath.fsum(power[i] * series[b - i] for i in range(len(power)) if 0 <= b - i < m)
                     for b in range(len(power) + m - 1)]
        lam, jam_rate = mpmath.mpf(rate), mpmath.mpf(rho4) / rate
        out = []
        for y in ys:
            y = mpmath.mpf(y)
            density = survival = mpmath.mpf(0)
            for u, big_b, a in coeffs:
                beta = 1 + u + rho4 * y

                def moment(k):  # integral of z^(m-1+B) (1 + rho4*z/lambda)^k e^(-beta*z) dz
                    return mpmath.fsum(math.comb(k, j) * jam_rate**j * math.factorial(m - 1 + big_b + j)
                                       / beta ** (m + big_b + j) for j in range(k + 1))

                density += a * moment(m)
                survival += a * mpmath.fsum((lam * y) ** k / math.factorial(k) * moment(k) for k in range(m))
            front = count * mpmath.exp(-lam * y) / math.factorial(m - 1)
            density *= front * lam**m * y ** (m - 1) / math.factorial(m - 1)
            out.append((float(density), float(survival * front)))
        return out


def test_jammed_law_matches_mpmath():
    # Both closed forms cancel alternating terms as rho4*y grows, so each is
    # measured against 40 digits. The (C, s) sums hold 1e-9 relative up to
    # rho4*y = 3, where they are mostly 1-2 orders closer than the retired
    # expansion (tests/oracles.py). Past it both lose digits to the same
    # cancellation (the survival sums are the expansion's terms with like
    # (k, C, s) merged), and at a few values the expansion rounds closer, by
    # up to 12x where either is off by more than 1e-12: there the sums must
    # stay within 20x of it, plus 1e-12.
    worst_near = 0.0
    for m in (1, 2, 3):
        p = NakagamiParams(m, 1.3)
        for count in range(1, 8):
            for rho4 in (0.5, 5.0):
                jam = np.geomspace(0.01, 15.0, 25)
                y = jam / rho4
                want = np.array(_mpmath_jammed(m, p.rate, count, rho4, y.tolist())).T
                got = (jammed_ratio_pdf(p, count, rho4, y), jammed_law(p, count, rho4).survival(y))
                old = (expansion_pdf(p, count, rho4, y), expansion_survival(p, count, rho4, y))
                for new_v, old_v, ref in zip(got, old, want):
                    err, old_err = np.abs(new_v / ref - 1.0), np.abs(old_v / ref - 1.0)
                    worst_near = max(worst_near, err[jam <= 3.0].max())
                    assert np.all(err <= 20.0 * old_err + 1e-12), (m, count, rho4, jam, err, old_err)
    assert worst_near < 1e-9


def test_jammed_law_reference_is_the_integral_over_h():
    # the 40-digit closed form above against mpmath's own quadrature of the
    # same integral over h, at a few points
    for m, count, rho4, y in ((1, 3, 0.5, 2.0), (2, 4, 5.0, 0.3), (3, 7, 5.0, 0.6), (3, 2, 0.5, 10.0)):
        lam = m / 1.3
        with mpmath.workdps(30):
            def tail(z):
                return mpmath.exp(-z) * mpmath.fsum(z**k / mpmath.factorial(k) for k in range(m))

            def gain_density(z):
                return lam * z ** (m - 1) * mpmath.exp(-z) / mpmath.factorial(m - 1)

            def h_density(h):
                return count * gain_density(lam * h) * (1 - tail(lam * h)) ** (count - 1)

            span = [0, 1 / lam, 10 / lam, mpmath.inf]
            density = mpmath.quad(lambda h: h_density(h) * (1 + rho4 * h) * gain_density(lam * y * (1 + rho4 * h)),
                                  span)
            survival = mpmath.quad(lambda h: h_density(h) * tail(lam * y * (1 + rho4 * h)), span)
        [got] = _mpmath_jammed(m, lam, count, rho4, [y])
        assert got[0] == pytest.approx(float(density), rel=1e-14)
        assert got[1] == pytest.approx(float(survival), rel=1e-14)


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
