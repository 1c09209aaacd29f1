"""Shared scenario builders for the test suite."""
from __future__ import annotations

from noma_relay_secrecy import LinkSet, NakagamiParams, PowerPolicy, SystemParams
from noma_relay_secrecy.quadrature import SeriesItem, series_integrals


def db(x: float) -> float:
    return 10.0 ** (x / 10.0)


def grid_params(
    K: int = 2,
    P_dB: float = 10.0,
    omegaE_dB: float = -5.0,
    omegaR_dB: float = 10.0,
    m: int = 2,
) -> SystemParams:
    """Reference scenario most tests reuse; only the knobs that vary are exposed."""
    links = LinkSet(
        source_relay=NakagamiParams(m, db(omegaR_dB)),
        relay_user1=NakagamiParams(m, db(12.0)),
        relay_user2=NakagamiParams(m, db(10.0)),
        relay_eaves=NakagamiParams(m, db(omegaE_dB)),
    )
    return SystemParams(
        K=K, links=links, P_S=db(P_dB), P_R=db(P_dB), sigma2=1.0,
        R1_th=0.2, R2_th=0.1, R1_s=0.1, R2_s=0.2,
    )


def fixed_policy(alpha1: float = 0.2, alphaJ: float = 0.0) -> PowerPolicy:
    return PowerPolicy.fixed(alpha1, alphaJ=alphaJ)


def integrate(item: SeriesItem) -> float:
    """The value of one integral alone: its `SeriesItem` in a batch of one."""
    return series_integrals([item], {})[0]
