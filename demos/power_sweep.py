"""Secrecy outage versus transmit power, closed form against simulation.

Reproduces the reference comparison: three relay-selection schemes at every
power on the same channel draws, so the gaps between schemes and between
powers are paired rather than noisy.
"""
import numpy as np

from noma_relay_secrecy import (
    LinkSet, NakagamiParams, PowerPolicy, SchemeKind, SystemParams,
    TrialConfig, estimate_many, quadrature, sop_total,
)

QUAD = quadrature(300)
SCHEMES = (SchemeKind.TMRC, SchemeKind.OSRS, SchemeKind.ODRS)


def db(x):
    return 10.0 ** (x / 10.0)


def scenario(K, P_dB):
    links = LinkSet(
        source_relay=NakagamiParams(2, db(10.0)),
        relay_user1=NakagamiParams(2, db(12.0)),
        relay_user2=NakagamiParams(2, db(10.0)),
        relay_eaves=NakagamiParams(2, db(-5.0)),
    )
    return SystemParams(K=K, links=links, P_S=db(P_dB), P_R=db(P_dB), sigma2=1.0,
                        R1_th=0.2, R2_th=0.1, R1_s=0.1, R2_s=0.2)


policy = PowerPolicy.fixed(0.2, alphaJ=0.5)
mc = TrialConfig(trials=200_000, seed=42)

for K in (2, 3):
    print(f"\nK = {K} relays   (analytic | simulated +- stderr)")
    header = "P [dB]" + "".join(f"{s.value:>31s}" for s in SCHEMES)
    print(header)
    powers = np.arange(0.0, 30.1, 5.0)
    grid = [scenario(K, P_dB) for P_dB in powers]
    estimates = estimate_many(grid, [policy] * len(grid), SCHEMES, mc)
    for i, (P_dB, params) in enumerate(zip(powers, grid)):
        cells = []
        for s in SCHEMES:
            exact = sop_total(params, policy, s, QUAD).value
            est = estimates[i, s]
            cells.append(f"{exact:.3e} | {est.p_hat:.3e}+-{est.stderr:.0e}")
        print(f"{P_dB:6.0f}" + "".join(f"{c:>31s}" for c in cells))
