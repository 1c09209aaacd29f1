"""The public surface: the exported names, and the scheme record every engine reads."""
from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import json
import math
import random
import re
import sys
from functools import partial
from pathlib import Path

import pytest
from conftest import db, fixed_policy, grid_params
from oracles import one_hot, size_sop

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
from noma_relay_secrecy.asymptotic import _leading_coeff
from noma_relay_secrecy.params import Transmission, mixture
from noma_relay_secrecy.quadrature import _evaluate

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
    pmf = analytic._decoding_pmf(params.links.source_relay, params.eta, params.K)
    for policy in (fixed_policy(0.2, alphaJ=0.5), PowerPolicy.dynamic(5.0, 0.1, alphaJ=0.5)):
        total = 0.0
        for n in range(params.K + 1):
            total += pmf[n] * size_sop(params, policy, scheme, n, QUAD)
        assert sop_total(params, policy, scheme, QUAD).value == min(max(float(total), 0.0), 1.0)

        scaled = scaled_params(params, scaling)
        m_r = scaled.links.source_relay.m
        miss = _leading_coeff(scaled.links.source_relay.rate, m_r) * scaled.eta**m_r
        total = 0.0
        for n in range(params.K + 1):
            total += math.comb(params.K, n) * miss ** (params.K - n) * size_sop(
                params, policy, scheme, n, QUAD, scaling)
        assert sop_asym_total(params, policy, scheme, scaling, QUAD) == min(max(total, 0.0), 1.0)

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
    pmf = analytic._decoding_pmf(params.links.source_relay, params.eta, params.K)
    for policy in (fixed_policy(0.2, alphaJ=0.5), PowerPolicy.dynamic(5.0, 0.1, alphaJ=0.5)):
        loop = sum(pmf[n] * size_sop(params, policy, scheme, n, QUAD) for n in range(params.K + 1))
        one = mixture(pmf, scheme, partial(analytic._outage, params, policy, QUAD, None))
        assert float(one).hex() == float(loop).hex()

        miss = asymptotic._decoding_miss(scaled)
        weights = [math.comb(params.K, n) * miss ** (params.K - n) for n in range(params.K + 1)]
        loop = 0.0
        for n, weight in enumerate(weights):
            loop += weight * size_sop(params, policy, scheme, n, QUAD, scaling)
        [values] = _evaluate([asymptotic._plan(scaled, policy, scheme, QUAD)])
        one = mixture(weights, scheme, partial(asymptotic._outage, scaled, policy, QUAD, values))
        assert one.hex() == loop.hex()

    # the walk over the read table, K = 1..8: it sums, bit for bit, the
    # per-n conditionals, each the outage `SchemeKind.reads` names, one
    # relay's to the n-th power, added left to right from 0.0; a weight of
    # 0.0 skips its conditional, here one whose outage is NaN, and each
    # outage read is formed once
    rng = random.Random(7)
    for K in range(1, 9):
        names = [scheme.reads(n, K) for n in range(1, K + 1)]
        outages = {name: rng.random() for name in names}
        weights = [rng.random() for _ in range(K + 1)]
        weights[rng.randrange(K + 1)] = 0.0
        alone = [n for n in range(1, K + 1) if names.count(names[n - 1]) == 1]
        if alone:
            weights[alone[-1]], outages[names[alone[-1] - 1]] = 0.0, math.nan
            assert math.isnan(mixture(one_hot(alone[-1], K), scheme, lambda sends, size: outages[sends, size]))
        formed = []

        def outage(sends, size):
            formed.append((sends, size))
            return outages[sends, size]

        one = mixture(weights, scheme, outage)
        assert len(formed) == len(set(formed))
        assert set(formed) == {names[n - 1] for n in range(1, K + 1) if weights[n] != 0.0}
        loop = 0.0
        for n, weight in enumerate(weights):
            if weight != 0.0 and n == 0:
                loop += weight  # the empty set's outage is certain
            elif weight != 0.0:
                p = outages[names[n - 1]]
                loop += weight * (p if names[n - 1][0] is Transmission.COMBINED else p**n)
        assert not math.isnan(one) and one.hex() == loop.hex()


def test_per_size_values_match_golden():
    # the per-size readers this package had before one size's SOP became the
    # mixture at a one-hot weight row wrote tests/golden/per_size.txt; the
    # one mixture, the floor and the decoding law reproduce it bit for bit
    params = grid_params(K=3, omegaR_dB=0.0)
    scaling = AsymptoticScaling(1.5, 2.0, db(30.0))
    splits = {"fixed-0.2-jam-0.5": fixed_policy(0.2, alphaJ=0.5), "fixed-0.7": fixed_policy(0.7),
              "dynamic-5-0.1-jam-0.5": PowerPolicy.dynamic(5.0, 0.1, alphaJ=0.5)}
    lines = []
    for label, policy in splits.items():
        for scheme in SchemeKind:
            for n in range(params.K + 1):
                lines.append(f"exact {label} {scheme.value} {n} {size_sop(params, policy, scheme, n, QUAD).hex()}")
                lines.append(f"high-gain {label} {scheme.value} {n} "
                             f"{size_sop(params, policy, scheme, n, QUAD, scaling).hex()}")
            lines.append(f"floor {label} {scheme.value} {sop_floor_total(params, policy, scheme).hex()}")
    pmf = analytic._decoding_pmf(params.links.source_relay, params.eta, params.K)
    lines += [f"pmf {n} {float(p).hex()}" for n, p in enumerate(pmf)]
    assert "\n".join(lines) + "\n" == (ROOT / "tests" / "golden" / "per_size.txt").read_text()


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
                                    analytic.sop_tmrc_cond])
def test_values_is_keyword_only_on_the_readers(reader):
    # the benchmark's spans find quad as a reader's last positional argument
    # (bench/spans._quad_arg), so values must not take that place
    *positional, last = inspect.signature(reader).parameters.values()
    assert last.name == "values" and last.kind is inspect.Parameter.KEYWORD_ONLY and last.default is None
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in positional)
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


def test_every_import_is_used_exported_or_a_re_export():
    # a name a module imports must be read there, be listed in its __all__,
    # or be a `# noqa: F401` re-export, which the test above holds to the
    # benchmark's traced names
    unused = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        lines = path.read_text().splitlines()
        tree = ast.parse("\n".join(lines))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                exported = set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and name not in exported and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.stem}.{name}")
    assert not unused, unused


def test_every_definition_is_read_exported_or_traced():
    # a module-level function or class of the package must be read somewhere
    # in it, be listed in an __all__, or be a name the benchmark's FULL tuple
    # traces; a reader only tests call belongs in tests/oracles.py
    traced = {attr for _module, attr, _span in _bench_spans().FULL}
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted((ROOT / "src").rglob("*.py"))}
    read, exported = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                exported |= set(ast.literal_eval(node.value))
    unread = [f"{stem}.{node.name}" for stem, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in read | exported | traced]
    assert not unread, unread


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
