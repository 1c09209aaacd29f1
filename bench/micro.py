"""Single-layer timings, each by calling public functions of the package.

Each figure is the median of several calls on one fixed scenario, in
milliseconds. The scenarios are the reference grid of the test suite
(`tests/conftest.py::grid_params`) and the dynamic-split demo at 40 dB.
"""
from __future__ import annotations

import statistics
from time import perf_counter

from spans import Recorder

SCHEMES = ("tmrc", "osrs", "odrs")
MC_SCHEMES = ("tmrc", "osrs", "tsrs", "odrs")
MC_CHUNK = 250_000


def _db(x: float) -> float:
    return 10.0 ** (x / 10.0)


def _grid_params(api, K: int, m: int, omega_r_db: float = 10.0):
    links = api.LinkSet(
        source_relay=api.NakagamiParams(m, _db(omega_r_db)),
        relay_user1=api.NakagamiParams(m, _db(12.0)),
        relay_user2=api.NakagamiParams(m, _db(10.0)),
        relay_eaves=api.NakagamiParams(m, _db(-5.0)),
    )
    return api.SystemParams(K=K, links=links, P_S=_db(10.0), P_R=_db(10.0), sigma2=1.0,
                            R1_th=0.2, R2_th=0.1, R1_s=0.1, R2_s=0.2)


def _median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)


def run(api, seed: int) -> dict[str, float]:
    """Every micro.* figure in ms; `seed` seeds the Monte Carlo chunk."""
    quad = api.quadrature(300)
    fixed = api.PowerPolicy.fixed(0.2, alphaJ=0.5)
    out: dict[str, float] = {}

    out["micro.g_kernel_n300_ms"] = _median_ms(
        lambda: api.g_kernel(1.0, 2, 0.5, 0.3, 1.0, 2.0, 0.5, 2, 2, quad), 301)
    for label, params, reps in (("K2", _grid_params(api, 2, 2), 31), ("K6_m2", _grid_params(api, 6, 2), 5)):
        for s in SCHEMES:
            out[f"micro.sop_total_{label}_{s}_ms"] = _median_ms(
                lambda: api.sop_total(params, fixed, s, quad), reps)
    heavy = _grid_params(api, 6, 3)
    out["micro.sop_total_K6_m3_odrs_ms"] = _median_ms(lambda: api.sop_total(heavy, fixed, "odrs", quad), 3)

    links = api.LinkSet(
        source_relay=api.NakagamiParams(2, _db(3.0)),
        relay_user1=api.NakagamiParams(2, _db(1.8)),
        relay_user2=api.NakagamiParams(2, _db(0.0)),
        relay_eaves=api.NakagamiParams(2, _db(-5.0)),
    )
    dyn_params = api.SystemParams(K=3, links=links, P_S=10.0, P_R=10.0, sigma2=1.0,
                                  R1_th=0.2, R2_th=0.1, R1_s=0.1, R2_s=0.2)
    dynamic = api.PowerPolicy.dynamic(5.0, 0.1, alphaJ=0.5)
    scaling = api.AsymptoticScaling(epsilon1=_db(1.8), epsilon2=_db(3.0), omega2=_db(40.0))
    for s in SCHEMES:
        out[f"micro.sop_asym_total_K3_dyn_{s}_ms"] = _median_ms(
            lambda: api.sop_asym_total(dyn_params, dynamic, s, scaling, quad), 21)

    # One 250k-trial chunk at K=3 per call; spans split it into the four
    # draws and the verdict pass (estimate_many's self time).
    mc_params = _grid_params(api, 3, 2)
    config = api.TrialConfig(trials=MC_CHUNK, seed=seed, chunk=MC_CHUNK)
    rec = Recorder()
    rec.install((("montecarlo", "sample_gain", "channels.sample_gain"),
                 ("montecarlo", "estimate_many", "montecarlo.estimate_many")))
    draws: list[float] = []
    try:
        for s in MC_SCHEMES:
            verdicts = []
            for _ in range(3):
                rec.reset()
                rec.active = True
                api.estimate_sop(mc_params, fixed, s, config)
                rec.active = False
                layers = rec.layers()
                draws.append(layers["channels.sample_gain"]["total_s"])
                verdicts.append(layers["montecarlo.estimate_many"]["self_s"])
            out[f"micro.mc_verdict_250k_K3_{s}_ms"] = 1e3 * statistics.median(verdicts)
    finally:
        rec.active = False
        rec.uninstall()
    out["micro.mc_draw_250k_K3_ms"] = 1e3 * statistics.median(draws)
    return out
