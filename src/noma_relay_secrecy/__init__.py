"""Secrecy outage evaluation for relay-assisted NOMA downlinks.

Closed-form, asymptotic, and Monte Carlo estimates of the secrecy outage
probability for two NOMA users served through decode-and-forward relays
over Nakagami-m fading, under four relay-selection rules: combine all
decoding relays, pick the best single relay, two-step selection, and a
data relay paired with a jamming relay.

The top level holds what the README documents; every other function
lives in its submodule (`analytic`, `asymptotic`, `montecarlo`,
`channels`, `params`, `quadrature`).
"""
from .analytic import SopResult, sop_total
from .asymptotic import AsymptoticScaling, SdoInputs, scaled_params, sdo, sop_asym_total, sop_floor_total
from .channels import NakagamiParams
from .montecarlo import SopEstimate, TrialConfig, estimate_many, estimate_sop
from .params import LinkSet, PowerPolicy, SchemeKind, SystemParams
from .quadrature import g_kernel, h_kernel, quadrature

__version__ = "0.1.0"

__all__ = [
    "AsymptoticScaling",
    "LinkSet",
    "NakagamiParams",
    "PowerPolicy",
    "SchemeKind",
    "SdoInputs",
    "SopEstimate",
    "SopResult",
    "SystemParams",
    "TrialConfig",
    "estimate_many",
    "estimate_sop",
    "g_kernel",
    "h_kernel",
    "quadrature",
    "scaled_params",
    "sdo",
    "sop_asym_total",
    "sop_floor_total",
    "sop_total",
]
