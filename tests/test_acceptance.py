"""End-to-end checks tying the three engines together.

Each test covers one headline property of the toolkit and prints a single
summary line, so a full run reads as a checklist: closed form versus
simulation, scheme orderings, scheme reductions, high-gain behavior,
diversity slopes, and the numerical oracles behind the kernels and
distributions. Tolerances here are the contract; the unit suites pin the
same quantities more tightly where that is cheap.
"""
from __future__ import annotations

import math
import time

import numpy as np
from conftest import db, grid_params
from oracles import jammed_expansion, jammed_ratio_cdf, jammed_ratio_pdf, max_gain_pdf, paired_verdicts
from scipy import integrate, special, stats

from noma_relay_secrecy import (
    AsymptoticScaling,
    LinkSet,
    NakagamiParams,
    PowerPolicy,
    SchemeKind,
    SdoInputs,
    SystemParams,
    TrialConfig,
    estimate_many,
    g_kernel,
    quadrature,
    scaled_params,
    sdo,
    sop_asym_total,
    sop_floor_total,
    sop_total,
)
from noma_relay_secrecy.analytic import sop_cond
from noma_relay_secrecy.params import feasibility_check, scheme_constants
from noma_relay_secrecy.quadrature import h_kernel

QUAD = quadrature(300)
MC = TrialConfig(trials=1_000_000, seed=42)
GRID_POWERS = tuple(float(p) for p in range(0, 31, 5))
TRIO = (SchemeKind.TMRC, SchemeKind.OSRS, SchemeKind.ODRS)


def _report(name: str, metric: str) -> None:
    print(f"\n[acceptance] {name}: PASS ({metric})")


def _ratio_params(K: int, P_dB: float, omegaE_dB: float) -> SystemParams:
    """Unit-scale links with fixed gain ratios, ready for high-gain scaling."""
    links = LinkSet(
        source_relay=NakagamiParams(2, 2.0),
        relay_user1=NakagamiParams(2, 1.5),
        relay_user2=NakagamiParams(2, 1.0),
        relay_eaves=NakagamiParams(2, db(omegaE_dB)),
    )
    return SystemParams(K=K, links=links, P_S=db(P_dB), P_R=db(P_dB), sigma2=1.0,
                        R1_th=0.2, R2_th=0.1, R1_s=0.1, R2_s=0.2)


def test_cross_engine_agreement():
    # Closed-form SOP sits within 3 binomial standard errors of a
    # 1e6-trial simulation at every point of the reference grid. The
    # standard error is taken at the closed-form rate: the plug-in form
    # degenerates to zero when every trial lands on one side, which at
    # deep outage is the modal outcome rather than a disagreement.
    policy = PowerPolicy.fixed(0.2, alphaJ=0.5)
    t0 = time.time()
    worst = 0.0
    points = 0
    for K in (2, 3):
        grid = [grid_params(K=K, P_dB=P_dB) for P_dB in GRID_POWERS]
        estimates = estimate_many(grid, [policy] * len(grid), TRIO, MC)
        for i, P_dB in enumerate(GRID_POWERS):
            params = grid[i]
            for scheme in TRIO:
                exact = sop_total(params, policy, scheme, QUAD).value
                est = estimates[i, scheme]
                gap = abs(exact - est.p_hat)
                stderr = math.sqrt(exact * (1.0 - exact) / est.trials)
                assert gap <= 3.0 * stderr, (K, P_dB, scheme, exact, est.p_hat, stderr)
                if stderr > 0:
                    worst = max(worst, gap / stderr)
                points += 1
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report("cross-engine agreement", f"max |z| = {worst:.2f} over {points} points, {elapsed:.0f} s")


def test_scheme_ordering():
    # Single selection never loses to combining, and across the jamming
    # splits in (0, 0.7) the best dual selection is at least as good as
    # single selection up to paired simulation noise.
    policy = PowerPolicy.fixed(0.2, alphaJ=0.5)
    worst_sel = -math.inf
    for K in (2, 3):
        for P_dB in GRID_POWERS:
            params = grid_params(K=K, P_dB=P_dB)
            tmrc = sop_total(params, policy, SchemeKind.TMRC, QUAD).value
            osrs = sop_total(params, policy, SchemeKind.OSRS, QUAD).value
            assert osrs <= tmrc + 1e-12, (K, P_dB, osrs, tmrc)
            worst_sel = max(worst_sel, osrs - tmrc)

    worst_margin = math.inf
    splits = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    policies = [PowerPolicy.fixed(0.2)] + [PowerPolicy.fixed(0.2, alphaJ=a) for a in splits]
    for K in (2, 3):
        # one shared draw for every power and split: the draws depend on K and the links only
        scenarios = [(grid_params(K=K, P_dB=P_dB), pol) for P_dB in GRID_POWERS for pol in policies]
        estimates = estimate_many([p for p, _ in scenarios], [pol for _, pol in scenarios],
                                  (SchemeKind.OSRS, SchemeKind.ODRS), MC)
        for point, P_dB in enumerate(GRID_POWERS):
            first = point * len(policies)
            osrs = estimates[first, SchemeKind.OSRS]
            best = math.inf
            best_se = 0.0
            for j in range(1, len(policies)):
                est = estimates[first + j, SchemeKind.ODRS]
                if est.p_hat < best:
                    best, best_se = est.p_hat, est.stderr
            combined = math.sqrt(best_se**2 + osrs.stderr**2)
            margin = osrs.p_hat + 3.0 * combined - best
            assert margin >= 0.0, (K, P_dB, best, osrs.p_hat, combined)
            worst_margin = min(worst_margin, margin)
    _report("scheme ordering", f"osrs-tmrc gap <= {worst_sel:.1e}, "
            f"worst jamming-optimum margin = {worst_margin:+.1e}")


def test_two_step_equivalence():
    # The two-step selection reaches the same verdict as the one-shot
    # selection on every draw, and the analytic values coincide.
    policy = PowerPolicy.fixed(0.2, alphaJ=0.5)
    params = grid_params(K=3, P_dB=10.0)
    matches, trials = paired_verdicts(params, policy, SchemeKind.TSRS, SchemeKind.OSRS, MC)
    assert matches == trials
    gap = 0.0
    for K in (2, 3):
        for P_dB in GRID_POWERS:
            p = grid_params(K=K, P_dB=P_dB)
            gap = max(gap, abs(sop_total(p, policy, SchemeKind.TSRS, QUAD).value
                               - sop_total(p, policy, SchemeKind.OSRS, QUAD).value))
    assert gap == 0.0
    _report("two-step equivalence", f"{matches}/{trials} verdicts match, analytic gap = {gap:.1e}")


def test_zero_jamming_reduction():
    # With no jamming power the dual selection collapses to single
    # selection: analytic and high-gain values bit for bit (the jammed law
    # is then the single gain's), simulated verdicts exactly.
    quiet = PowerPolicy.fixed(0.2, alphaJ=0.0)
    worst = 0.0
    for K in (2, 3):
        for P_dB in GRID_POWERS:
            params = grid_params(K=K, P_dB=P_dB)
            worst = max(worst, abs(sop_total(params, quiet, SchemeKind.ODRS, QUAD).value
                                   - sop_total(params, quiet, SchemeKind.OSRS, QUAD).value))
            high_gain = grid_params(K=K, P_dB=P_dB + 20.0, omegaR_dB=-10.0)
            scaling = AsymptoticScaling(*high_gain.links.frame)
            assert (sop_asym_total(high_gain, quiet, SchemeKind.ODRS, scaling, QUAD)
                    == sop_asym_total(high_gain, quiet, SchemeKind.OSRS, scaling, QUAD))
    assert worst == 0.0
    params = grid_params(K=3, P_dB=10.0)
    matches, trials = paired_verdicts(params, quiet, SchemeKind.ODRS, SchemeKind.OSRS, MC)
    assert matches == trials
    # with every relay decoding there is no idle jammer, so the jammed
    # branch must route to the plain selection even at alphaJ > 0
    loud = PowerPolicy.fixed(0.2, alphaJ=0.5)
    assert sop_cond(params, loud, SchemeKind.ODRS, 3, QUAD) == sop_cond(params, loud, SchemeKind.OSRS, 3, QUAD)
    _report("zero-jamming reduction", f"analytic gap <= {worst:.1e}, "
            f"{matches}/{trials} verdicts match, full-set branch exact")


def test_asymptote_convergence_and_floor():
    # High-gain series lands within 5% of the exact SOP one decade in, and
    # under a fixed split the exact SOP flattens onto the closed-form floor.
    worst40 = 0.0
    worst50 = 0.0
    for P_dB, omegaE_dB in ((10.0, -10.0), (15.0, -12.0)):
        for K in (2, 3):
            base = _ratio_params(K, P_dB, omegaE_dB)
            for scheme in TRIO:
                policy = (PowerPolicy.fixed(0.2, alphaJ=0.5)
                          if scheme is SchemeKind.ODRS else PowerPolicy.fixed(0.2))
                scaling40 = AsymptoticScaling(1.5, 2.0, db(40.0))
                exact40 = sop_total(scaled_params(base, scaling40), policy, scheme, QUAD).value
                asym40 = sop_asym_total(base, policy, scheme, scaling40, QUAD)
                worst40 = max(worst40, abs(asym40 - exact40) / exact40)

                scaling50 = AsymptoticScaling(1.5, 2.0, db(50.0))
                scaled50 = scaled_params(base, scaling50)
                exact50 = sop_total(scaled50, policy, scheme, QUAD).value
                floor = sop_floor_total(scaled50, policy, scheme)
                assert floor > 0.0
                worst50 = max(worst50, abs(exact50 - floor) / floor)
    assert worst40 < 0.05
    assert worst50 < 0.02
    _report("asymptote and fixed-split floor",
            f"worst 40 dB gap = {100*worst40:.2f}%, worst 50 dB floor gap = {100*worst50:.2f}%")


def test_dynamic_split_diversity_slope():
    # Under the dynamic split the log-log slope over the last decade of a
    # 20-60 dB sweep matches the predicted diversity order within 15%,
    # and the asymptotic engine tracks simulation at the sweep's low end.
    policy = PowerPolicy.dynamic(mu=5.0, varpi=0.1, alphaJ=0.5)
    t0 = time.time()
    sweep_db = np.arange(20.0, 60.0 + 1e-9, 2.0)
    worst_err = 0.0
    for K in (2, 3):
        base = _ratio_params(K, 10.0, -5.0)
        for scheme in TRIO:
            vals = np.array([
                sop_asym_total(base, policy, scheme, AsymptoticScaling(1.5, 2.0, db(d)), QUAD)
                for d in sweep_db
            ])
            tail = sweep_db >= 50.0
            x = sweep_db[tail] / 10.0 * math.log(10.0)
            slope = np.polyfit(x, np.log(vals[tail]), 1)[0]
            target = sdo(scheme, SdoInputs(K=K, m_r=2, m_u=2, varpi=0.1))
            err = abs(-slope - target) / target
            assert err < 0.15, (K, scheme, slope, target)
            worst_err = max(worst_err, err)

        scaled = scaled_params(base, AsymptoticScaling(1.5, 2.0, db(20.0)))
        estimates = estimate_many(scaled, policy, TRIO, MC)
        for scheme in TRIO:
            exact = sop_total(scaled, policy, scheme, QUAD).value
            est = estimates[scheme]
            assert abs(exact - est.p_hat) <= 3.0 * est.stderr, (K, scheme)
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _report("dynamic-split diversity slope",
            f"worst slope error = {100*worst_err:.1f}%, spot checks within 3 sigma, {elapsed:.0f} s")


def _random_system(rng, need_idle=False):
    """A random feasible scenario; jamming power only when the kernel needs it."""
    while True:
        K = int(rng.integers(2, 5))
        m_u = int(rng.integers(1, 4))
        links = LinkSet(
            source_relay=NakagamiParams(int(rng.integers(1, 4)), float(rng.uniform(1.0, 20.0))),
            relay_user1=NakagamiParams(m_u, float(rng.uniform(2.0, 25.0))),
            relay_user2=NakagamiParams(m_u, float(rng.uniform(1.0, 12.0))),
            relay_eaves=NakagamiParams(int(rng.integers(1, 4)), float(rng.uniform(0.05, 1.0))),
        )
        P = float(rng.uniform(1.0, 100.0))
        params = SystemParams(K=K, links=links, P_S=P, P_R=P, sigma2=1.0,
                              R1_th=0.2, R2_th=0.1,
                              R1_s=float(rng.uniform(0.05, 0.3)),
                              R2_s=float(rng.uniform(0.05, 0.3)))
        alpha_j = float(rng.uniform(0.1, 0.7)) if need_idle else 0.0
        policy = PowerPolicy.fixed(float(rng.uniform(0.05, 0.45)), alphaJ=alpha_j)
        if feasibility_check(params, policy) is None:
            return params, policy


def test_kernel_quadrature_oracles():
    # The g kernel reduces to a lower incomplete gamma when its extras are
    # off, and both kernels match adaptive integration on randomized
    # feasible parameter sets.
    worst_red = 0.0
    for a, b, f in ((1.5, 3, 2.0), (0.7, 2, 1.3), (2.5, 5, 0.8)):
        got = g_kernel(a, b, 0.0, 0.0, 0.0, f, 0.0, 0, 0, QUAD)
        ref = special.gammainc(b, f * a) * math.gamma(b) / f**b
        worst_red = max(worst_red, abs(got - ref) / ref)
    assert worst_red < 1e-9

    rng = np.random.default_rng(20240817)
    worst_g = 0.0
    for _ in range(20):
        params, policy = _random_system(rng)
        n = int(rng.integers(1, params.K + 1))
        cst = scheme_constants(params.theta1, params.theta2, policy.alpha1,
                               1.0 - policy.alpha1, params.P_R / (n * params.sigma2))
        links = params.links
        tau_e = n * links.relay_eaves.m
        k, j = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        c = params.theta1 / cst.b
        r = (1.0 - policy.alpha1) / (cst.c * cst.d)
        q = cst.v
        f = links.relay_user1.rate * params.theta1 + links.relay_eaves.rate
        h = links.relay_user2.rate * (1.0 - policy.alpha1) / cst.d
        got = g_kernel(cst.a, tau_e, c, r, q, f, h, k, j, QUAD)

        def g_ref(x):
            return (x**(tau_e - 1) * math.exp(-f * x - h / (1.0 - q * x))
                    * (1.0 + c * x)**k * (1.0 + r / (1.0 - q * x))**j)

        ref, _ = integrate.quad(g_ref, 0.0, cst.a, limit=400, epsabs=1e-300, epsrel=1e-11)
        worst_g = max(worst_g, abs(got - ref) / abs(ref))
    assert worst_g < 1e-5

    worst_h = 0.0
    for _ in range(20):
        params, policy = _random_system(rng, need_idle=True)
        n = int(rng.integers(1, params.K))
        rho4 = policy.alphaJ * params.rho2
        cst = scheme_constants(params.theta1, params.theta2, policy.alpha1,
                               1.0 - policy.alpha1, (1.0 - policy.alphaJ) * params.rho2)
        links = params.links
        _, terms = jammed_expansion(links.relay_eaves, params.K - n, rho4)
        term = terms[int(rng.integers(0, len(terms)))]
        b_exp = int(rng.integers(0, links.m_u))
        c_exp = int(rng.integers(0, links.m_u))
        f = links.relay_user1.rate * params.theta1 + links.relay_eaves.rate
        r = links.relay_user2.rate * cst.c * cst.u
        lam_e = links.relay_eaves.rate
        got = h_kernel(1.0 / cst.v, b_exp, c_exp, f, r, cst.u, cst.v, cst.b,
                       params.theta1, term.k, term.varsigma, term.C, term.D, rho4, lam_e, QUAD)

        def h_ref(y):
            poly = (rho4 * lam_e * y**(term.k + 1) + term.D * y**term.k
                    - term.C * term.k * (y**(term.k - 1) if term.k >= 1 else 0.0))
            return ((cst.b + params.theta1 * y)**b_exp
                    * (1.0 + cst.u / (1.0 - cst.v * y))**c_exp
                    * poly / (rho4 * y + term.C)**(term.varsigma + 1)
                    * math.exp(-f * y - r / (1.0 - cst.v * y)))

        ref, _ = integrate.quad(h_ref, 0.0, 1.0 / cst.v, limit=400, epsabs=1e-300, epsrel=1e-11)
        worst_h = max(worst_h, abs(got - ref) / abs(ref))
    assert worst_h < 1e-5
    _report("kernel quadrature oracles",
            f"reduction gap {worst_red:.1e}, g gap {worst_g:.1e}, h gap {worst_h:.1e}")


def test_distribution_oracles():
    # The expanded max-gain density equals the direct order-statistic form,
    # the jammed-ratio PDF/CDF pair is self-consistent, and 1e6 simulated
    # ratio draws accept the closed-form CDF under a chi-square test.
    worst_os = 0.0
    for m_e in (1, 2, 3):
        for count in (1, 2, 3, 4):
            for omega in (0.3, 1.0, 3.0):
                p = NakagamiParams(m_e, omega)
                lam = m_e / omega
                for z in (0.1, 0.5, 1.0, 2.0, 5.0):
                    direct = (count * special.gammainc(m_e, lam * z)**(count - 1)
                              * lam**m_e * z**(m_e - 1) * math.exp(-lam * z) / math.gamma(m_e))
                    worst_os = max(worst_os, abs(max_gain_pdf(p, count, z) - direct) / (1.0 + direct))
    assert worst_os < 1e-10

    worst_fd = 0.0
    for m_e, count, rho4 in ((1, 1, 1.0), (2, 2, 3.16), (3, 2, 0.5), (2, 4, 10.0)):
        p = NakagamiParams(m_e, 1.0)
        for y in (0.3, 0.8, 1.5):
            step = 1e-4 * max(y, 1.0)
            fd = (jammed_ratio_cdf(p, count, rho4, y + step)
                  - jammed_ratio_cdf(p, count, rho4, y - step)) / (2.0 * step)
            pdf = jammed_ratio_pdf(p, count, rho4, y)
            worst_fd = max(worst_fd, abs(fd - pdf) / abs(pdf))
    assert worst_fd < 1e-5

    p = NakagamiParams(1, 1.0)
    rng = np.random.default_rng(321)
    n_draws = 1_000_000
    ratio = rng.gamma(1.0, 1.0, n_draws) / (1.0 + rng.gamma(1.0, 1.0, n_draws))
    n_bins = 40
    edges = [0.0]
    for target in np.linspace(0.0, 1.0, n_bins + 1)[1:-1]:
        lo, hi = 0.0, 60.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if jammed_ratio_cdf(p, 1, 1.0, mid) < target:
                lo = mid
            else:
                hi = mid
        edges.append(0.5 * (lo + hi))
    edges.append(np.inf)
    observed, _ = np.histogram(ratio, bins=np.array(edges))
    _, pval = stats.chisquare(observed, np.full(n_bins, n_draws / n_bins))
    assert pval > 0.01
    _report("distribution oracles",
            f"order-statistic gap {worst_os:.1e}, fd gap {worst_fd:.1e}, chi-square p = {pval:.3f}")
