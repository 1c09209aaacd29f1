"""The public surface: the exported names, and the scheme record every engine reads."""
from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import json
import math
import re
import sys
from functools import partial
from pathlib import Path

import pytest
from conftest import db, fixed_policy, grid_params

import noma_relay_secrecy
from noma_relay_secrecy import (
    AsymptoticScaling,
    PowerPolicy,
    SchemeKind,
    SdoInputs,
    TrialConfig,
    estimate_many,
    quadrature,
    scaled_params,
    sdo,
    sop_asym_total,
    sop_floor_total,
    sop_total,
)
from noma_relay_secrecy import analytic, asymptotic, channels, montecarlo
from noma_relay_secrecy.analytic import decoding_set_pmf, sop_cond
from noma_relay_secrecy.asymptotic import _leading_coeff, sop_asym_cond, sop_floor_cond
from noma_relay_secrecy.params import Transmission, mixture

QUAD = quadrature(300)
ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def test_every_export_is_importable_and_documented():
    names = noma_relay_secrecy.__all__
    assert len(names) == len(set(names))
    star: dict = {}
    exec("from noma_relay_secrecy import *", star)
    for name in names:
        assert name in star
        assert re.search(rf"\b{name}\b", README), f"{name} is exported but not in README.md"


def test_test_only_references_live_in_the_oracles():
    # the references only tests call are in tests/oracles.py, not the package
    moved = ("gain_cdf", "gain_pdf", "mrc_sum_cdf", "max_gain_pdf", "jammed_ratio_cdf", "jammed_ratio_pdf",
             "decode_prob_chi", "_scheme_codes", "paired_verdicts", "enumerate_multinomial_terms", "jammed_table",
             "jammed_ratio_pdf_rows", "jammed_ratio_survival")
    for module in (channels, analytic, montecarlo):
        assert not [name for name in moved if hasattr(module, name)], module.__name__


@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_every_scheme_is_a_mixture_of_its_conditionals(scheme):
    # partial decoding (omegaR_dB=0) gives every n weight; K=3 leaves idle
    # relays to jam at n < K and none at n = K
    params = grid_params(K=3, omegaR_dB=0.0)
    assert scheme.transmission(params.K, params.K) is not Transmission.JAMMED
    scaling = AsymptoticScaling(1.5, 2.0, db(30.0))
    for policy in (fixed_policy(0.2, alphaJ=0.5), PowerPolicy.dynamic(5.0, 0.1, alphaJ=0.5)):
        pmf = decoding_set_pmf(params)
        total = 0.0
        for n in range(params.K + 1):
            total += pmf[n] * sop_cond(params, policy, scheme, n, QUAD)
        assert sop_total(params, policy, scheme, QUAD).value == min(max(float(total), 0.0), 1.0)

        scaled = scaled_params(params, scaling)
        m_r = scaled.links.source_relay.m
        miss = _leading_coeff(scaled.links.source_relay.rate, m_r) * scaled.eta**m_r
        total = 0.0
        for n in range(params.K + 1):
            total += math.comb(params.K, n) * miss ** (params.K - n) * sop_asym_cond(
                params, policy, scheme, n, scaling, QUAD)
        assert sop_asym_total(params, policy, scheme, scaling, QUAD) == min(max(total, 0.0), 1.0)

        assert sop_floor_total(params, policy, scheme) == sop_floor_cond(params, policy, scheme, params.K)

    # the simulator and the diversity orders take every scheme too
    policy = PowerPolicy.dynamic(5.0, 0.1, alphaJ=0.5)
    est = estimate_many(params, policy, [scheme], TrialConfig(trials=20_000, seed=3))[scheme]
    assert 0.0 < est.p_hat < 1.0
    assert sdo(scheme, SdoInputs(K=3, m_r=2, m_u=2, varpi=0.1)) > 0.0


@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_the_one_mixture_sums_as_each_engine_loop_did(scheme):
    # the analytic loop summed pmf[n] * cond(n) from the integer 0, the
    # asymptotic one added weight * cond(n) to 0.0; both left to right
    params = grid_params(K=3, omegaR_dB=0.0)
    scaling = AsymptoticScaling(1.5, 2.0, db(30.0))
    scaled = scaled_params(params, scaling)
    for policy in (fixed_policy(0.2, alphaJ=0.5), PowerPolicy.dynamic(5.0, 0.1, alphaJ=0.5)):
        pmf = decoding_set_pmf(params)
        loop = sum(pmf[n] * sop_cond(params, policy, scheme, n, QUAD) for n in range(params.K + 1))
        one = mixture(pmf, scheme, partial(analytic._outage, params, policy, QUAD, None))
        assert float(one).hex() == float(loop).hex()

        miss = asymptotic._decoding_miss(scaled)
        weights = [math.comb(params.K, n) * miss ** (params.K - n) for n in range(params.K + 1)]
        loop = 0.0
        for n, weight in enumerate(weights):
            loop += weight * sop_asym_cond(params, policy, scheme, n, scaling, QUAD)
        one = mixture(weights, scheme, partial(asymptotic._outage, scaled, policy, QUAD, not policy.is_dynamic, None))
        assert one.hex() == loop.hex()


def test_no_module_keeps_ambient_state():
    # integral values travel in a dict the caller owns, not in context variables
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "contextvars" not in {name.split(".")[0] for name in names}, path.name


@pytest.mark.parametrize("reader", [sop_total, sop_asym_total, analytic.delta1, analytic.delta4,
                                    analytic.sop_tmrc_cond, decoding_set_pmf])
def test_values_is_keyword_only_on_the_readers(reader):
    # the benchmark's spans find quad as a reader's last positional argument
    # (bench/spans._quad_arg), so values must not take that place
    *positional, last = inspect.signature(reader).parameters.values()
    assert last.name == "values" and last.kind is inspect.Parameter.KEYWORD_ONLY and last.default is None
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in positional)
    if reader is not decoding_set_pmf:
        assert positional[-1].name == "quad"


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_spans():
    return _bench_module("spans")


def test_every_traced_name_resolves():
    # the benchmark's traced run wraps each (module, attribute) of its FULL
    # tuple with getattr; a name dropped from the package (a re-export whose
    # last caller went away, say) would crash that run, not just skip a span
    spans = _bench_spans()
    assert spans.FULL
    for module_name, attr, _span in spans.FULL:
        module = importlib.import_module(f"{spans.PACKAGE}.{module_name}")
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_every_unused_import_is_a_traced_re_export():
    # a name imported only to be re-exported (`# noqa: F401`) stays in a
    # module for the benchmark's traced run alone, so it must be one the
    # FULL tuple resolves there; once the bench stops reading it, it goes
    traced = {(module_name, attr) for module_name, attr, _span in _bench_spans().FULL}
    pinned = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, ast.ImportFrom):
                pinned |= {(path.stem, alias.asname or alias.name) for alias in node.names
                           if "# noqa: F401" in lines[alias.lineno - 1]}
    assert pinned and pinned <= traced, sorted(pinned - traced)


def test_traced_layers_see_the_engines_calls(monkeypatch):
    # the benchmark's per-layer spans wrap module globals, so they count a
    # layer only while the engines call it through that global: a call routed
    # around it would read 0 calls, not fail
    monkeypatch.setattr(montecarlo, "_WORKERS", 2)
    spans = _bench_spans()
    rec = spans.Recorder()
    rec.install(spans.FULL)
    try:
        rec.active = True
        params = grid_params(K=3, omegaR_dB=0.0)  # partial decoding: every n < K has weight
        policy = fixed_policy(0.2, alphaJ=0.5)
        for scheme in SchemeKind:
            sop_total(params, policy, scheme, QUAD)
        sop_asym_total(params, policy, SchemeKind.ODRS, AsymptoticScaling(1.5, 2.0, db(30.0)), QUAD)
        # through the module attribute, which the recorder wraps; several chunks, both threads
        montecarlo.estimate_many(params, policy, list(SchemeKind), TrialConfig(trials=120_000, seed=1, chunk=50_000))
    finally:
        rec.active = False
        rec.uninstall()
    layers = rec.layers()
    for span in ("analytic.delta1", "analytic.delta4", "analytic.sop_tmrc_cond", "asymptotic.scaled_params",
                 "channels.sample_gain"):
        assert layers.get(span, {}).get("calls", 0) >= 1, span
    # the recorder keeps one call stack, so a wrapped call made off the
    # calling thread would get whatever span is open there as its parent
    records = list(rec.span_records())
    draws = [parent for name, _, _, parent in records if name == "channels.sample_gain"]
    # one call per link and block: 50k, 50k and 20k trials in blocks of at
    # most 2**17 // 2 // K = 21,845 trials make 3 + 3 + 1 blocks
    assert montecarlo._block_step(params.K) == 21_845
    assert len(draws) == 7 * 4
    assert all(parent >= 0 and records[parent][0] == "montecarlo.estimate_many" for parent in draws)


def test_every_micro_timing_is_finite_and_positive(monkeypatch):
    # the benchmark's traced run rejects a micro figure that is not finite
    # and positive; the Monte Carlo ones read the draw spans of the
    # `sample_gain` global, so a draw routed around it would read 0 there
    monkeypatch.setitem(sys.modules, "spans", _bench_spans())  # micro imports it by that name
    figures = _bench_module("micro").run(noma_relay_secrecy, 1)
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert {name for name in declared if name.startswith("micro.")} <= figures.keys()
    for name, value in figures.items():
        assert math.isfinite(value) and value > 0.0, (name, value)
