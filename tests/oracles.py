"""Reference functions that only the tests call.

Each is the direct form of a value the package computes another way: the
single-link CDF and PDF, the MRC-sum CDF, the max-gain PDF of the
multinomial expansion, the jammed ratio's CDF and PDF, the per-relay
decoding probability chi, and the Monte Carlo verdicts of one scheme or of
two schemes side by side. The package's engines do not read them.
"""
from __future__ import annotations

import math

import numpy as np

from noma_relay_secrecy.channels import (
    NakagamiParams,
    _as_given,
    _mrc_params,
    enumerate_multinomial_terms,
    gain_tails,
    jammed_ratio_pdf_rows,
    jammed_ratio_survival,
    jammed_table,
)
from noma_relay_secrecy.montecarlo import TrialConfig, _block_codes, _blocks, _rule, _run_shared, _SECURE, _verdict
from noma_relay_secrecy.params import PowerPolicy, SchemeKind, SystemParams


def gain_cdf(p: NakagamiParams, x):
    """CDF of the power gain, 1 - gain_survival, with relative precision at small x."""
    return gain_tails(p, x)[1]


def gain_pdf(p: NakagamiParams, x):
    """PDF x^{m-1} lambda^m exp(-lambda*x) / (m-1)!."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("x must be nonnegative")
    lam = p.rate
    out = np.power(x, p.m - 1) * lam**p.m * np.exp(-lam * x) / math.factorial(p.m - 1)
    return _as_given(x, out)


def mrc_sum_cdf(p: NakagamiParams, n: int, x):
    """CDF of the sum of n i.i.d. gains (maximal-ratio combining): shape n*m, same rate."""
    return gain_cdf(_mrc_params(p, n), x)


def max_gain_pdf(p: NakagamiParams, count: int, z):
    """PDF of the maximum of `count` i.i.d. gains via the multinomial expansion."""
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise ValueError("z must be nonnegative")
    lam = p.rate
    acc = np.zeros_like(z)
    for t in enumerate_multinomial_terms(p.m, count):
        acc = acc + t.a_value(lam) * np.power(z, t.B + p.m - 1) * np.exp(-t.C * lam * z)
    return _as_given(z, jammed_table(p, count, 0.0).phi0 * acc)


def jammed_ratio_cdf(p_e: NakagamiParams, count: int, rho4: float, y):
    """CDF of Y = G/(1 + rho4*H); 0 at the origin, 1 in the limit."""
    y = np.asarray(y, dtype=float)
    return _as_given(y, 1.0 - np.asarray(jammed_ratio_survival(p_e, count, rho4, y)))


def jammed_ratio_pdf(p_e: NakagamiParams, count: int, rho4: float, y):
    """PDF of Y = G/(1 + rho4*H); derivative of jammed_ratio_cdf."""
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise ValueError("y must be nonnegative")
    acc = jammed_ratio_pdf_rows(p_e, count, rho4, y).sum(axis=0)
    return _as_given(y, jammed_table(p_e, count, rho4).phi0 * np.exp(-p_e.rate * y) * acc)


def decode_prob_chi(params: SystemParams) -> float:
    """Probability chi that one relay decodes both messages: P(G_sr >= eta)."""
    return gain_tails(params.links.source_relay, params.eta)[0]


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

    def same(block) -> int:
        codes = _block_codes(rule, dict.fromkeys((a, b)), *block)
        return int(((codes[a] == _SECURE) == (codes[b] == _SECURE)).sum())

    matches = sum(_run_shared(same, _blocks(config, params)))
    return matches, config.trials
