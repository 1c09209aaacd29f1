"""Sharing: an integral needed twice inside one engine call, or one sweep, is
evaluated once, and every result stays what a fresh evaluation gives.

`run_sweep` plans each (point, engine) once, for every scheme, and evaluates
every integral its analytic and asymptotic rows read in batches before the
first row, into one dict of values per plan, by the plan's names, that each
row's engine call at that point reads (`values=`); a `sop_total` or
`sop_asym_total` call given no values plans and batches its own. So a row of
a sweep must equal, bit for bit, the value (or the error text) of a direct
call at that point, which shares nothing with the other points, and the row
call itself builds nothing.
"""
from __future__ import annotations

import importlib
import importlib.util
import json
import pkgutil
from collections import Counter
from pathlib import Path

import pytest
from conftest import fixed_policy, grid_params

import noma_relay_secrecy
from noma_relay_secrecy import AsymptoticScaling, SchemeKind, analytic, asymptotic, channels, cli, sop_asym_total, sop_total
from noma_relay_secrecy.cli import _point_scenario, load_config, run_sweep
from noma_relay_secrecy.params import Transmission
from noma_relay_secrecy.quadrature import _evaluate, law_rows, quadrature

quadrature_module = importlib.import_module("noma_relay_secrecy.quadrature")
ROOT = Path(__file__).resolve().parent.parent
SCHEMES = ["tmrc", "osrs", "tsrs", "odrs"]
FIXED = {"alpha1": 0.2}
DYNAMIC = {"dpa": {"mu": 5.0, "varpi": 0.1}}


def _config(split: dict, var: str, values: list, **over) -> dict:
    # partial decoding (omegaR -10 dB) puts weight on every decoding-set
    # size, and the users sit 20 dB above the source hop so that most
    # asymptotic rows stay below the clip at 1
    return {
        "K": 3, "mR": 2, "mU": 2, "mE": 2,
        "omegaR_dB": -10.0, "omega1_dB": 32.0, "omega2_dB": 30.0, "omegaE_dB": -5.0,
        "P_dB": 20.0, "R1_th": 0.2, "R2_th": 0.1, "R1_s": 0.1, "R2_s": 0.2, "alphaJ": 0.5,
        "scheme": SCHEMES, "engine": ["analytic", "asymptotic"],
        "sweep": {"var": var, "values": values}, **split, **over,
    }


SWEEPS = {
    "P_dB": [15.0, 20.0, 25.0],
    "omega2_dB": [25.0, 30.0],
    "alpha1": [0.1, 0.2],
    "alphaJ": [0.0, 0.3, 0.6],
    "K": [2, 3, 5],
    "m": [1, 2, 3],
}
CASES = [
    pytest.param(_config(split, var, values), id=f"{var}-{name}")
    for var, values in SWEEPS.items()
    for name, split in (("fixed", FIXED), ("dynamic", DYNAMIC))
    if not (var == "alpha1" and split is DYNAMIC)
]
# A fixed split pins the ceiling a, so every point of an omega2 sweep reads
# the same jammed-law rows in both engines, and the user rows of the three
# jammed decoding-set sizes are shared within each engine call.
WIDE_JAMMED = _config(FIXED, "omega2_dB", [25.0, 30.0, 35.0], K=4, mR=3, mU=3, mE=3)
CASES.append(pytest.param(WIDE_JAMMED, id="omega2_dB-fixed-K4-m3"))
# At gains near the top of float range some rate products underflow to 0: at
# 200 dB the exact securing integrals' user-1 series base lambda1*b does, in
# the single-relay integral every scheme needs, and the exact engine refuses
# it by name. The asymptotic engine forms its leading coefficients in log
# space, but at 10 dB the source hop (40 dB below the users' frame) is not in
# the high-gain regime, phi_R*eta^mR = 1.35, and it refuses those rows.
RAISING = _config(FIXED, "P_dB", [10.0, 200.0], omega1_dB=3072.0, omega2_dB=3070.0)


def _direct(cfg, value, scheme, engine):
    """(sop, error) of the row's engine called on its own at the row's point."""
    params, policy = _point_scenario(cfg, value)
    quad = quadrature(cfg.quad_n)
    try:
        if engine == "analytic":
            return sop_total(params, policy, scheme, quad).value, ""
        return sop_asym_total(params, policy, scheme, AsymptoticScaling(*params.links.frame), quad), ""
    except Exception as exc:  # noqa: BLE001 - the row records the same text
        return "", str(exc)


def _check_rows_match_direct_calls(tmp_path, body) -> list[dict]:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(body))
    cfg = load_config(str(path))
    rows = run_sweep(cfg)
    assert len(rows) == len(cfg.sweep_values) * len(SCHEMES) * 2
    for row in rows:
        sop, error = _direct(cfg, row["sweep_value"], row["scheme"], row["engine"])
        key = (row["sweep_value"], row["scheme"], row["engine"])
        assert row["error"] == error, key
        if not error:
            assert row["sop"].hex() == sop.hex(), key  # bit for bit
    return rows


@pytest.mark.parametrize("body", CASES)
def test_sweep_rows_equal_direct_calls_bit_for_bit(tmp_path, body):
    rows = _check_rows_match_direct_calls(tmp_path, body)
    assert any(row["engine"] == "asymptotic" and 0.0 < row["sop"] < 1.0 for row in rows)


def test_a_raising_integral_fails_every_row_that_needs_it(tmp_path, monkeypatch):
    listed, batches = _record_batch_step(monkeypatch)
    rows = _check_rows_match_direct_calls(tmp_path, RAISING)
    # the 200 dB single-relay and combined items were listed beside the 10 dB
    # ones of their shapes, and left out of the batches: each row that reads
    # one evaluates it alone and records its error
    exact = analytic._joint_secrecy_prob
    raising = [args for integral, args in dict.fromkeys(listed) if integral is exact and _raises(exact, args)]
    fine = [args for integral, args in dict.fromkeys(listed) if integral is exact and not _raises(exact, args)]
    assert raising and fine
    def form(args):  # what sets an item's shape: tau_u, the law's degree and row, the nodes
        law = args[-2]
        return args[5], law.degree, law.row is None, args[-1]

    assert {form(args) for args in raising} <= {form(args) for args in fine}
    assert sum(len(items) for integral, items in batches if integral is exact) == len(fine)
    failed = {(row["sweep_value"], row["scheme"], row["engine"]) for row in rows if row["error"]}
    assert failed == {(200.0, s, "analytic") for s in SCHEMES} | {(10.0, s, "asymptotic") for s in SCHEMES}
    for row in rows:
        if row["engine"] == "analytic" and row["error"]:
            assert row["error"].startswith("user series base lambda1*b underflows to 0.0 ("), row["error"]
        elif row["error"]:
            assert row["error"].startswith("phi_R*eta^mR must lie below 1 for the high-gain decoding weights, "
                                           "got 1.35176:"), row["error"]


INTEGRALS = {analytic: analytic._joint_secrecy_prob, asymptotic: asymptotic._leading_integral}


def _raises(integral, args) -> bool:
    try:
        integral.prepare(*args)
    except ValueError:
        return True
    return False


def _count_items(monkeypatch) -> dict:
    """Every item each engine's integral evaluates, by engine module."""
    counts = {module: [] for module in INTEGRALS}
    for module, integral in INTEGRALS.items():
        def counting(items, *rows, _seen=counts[module], _original=integral.evaluate):
            _seen.extend(items)
            return _original(items, *rows)

        monkeypatch.setattr(integral, "evaluate", counting)
    return counts


def _record_batch_step(monkeypatch) -> tuple[list, list]:
    """The (integral, arguments) pairs `run_sweep` lists, and the batches its
    batch step evaluates, as (integral, items)."""
    listed, batches, step = [], [], []

    def evaluate(plans, _original=cli._evaluate):
        listed.extend(entry for plan in plans for entry in plan.values())
        step.append(True)
        try:
            return _original(plans)
        finally:
            step.pop()

    monkeypatch.setattr(cli, "_evaluate", evaluate)
    for integral in INTEGRALS.values():
        def recording(items, *rows, _integral=integral, _original=integral.evaluate):
            if step:
                batches.append((_integral, items))
            return _original(items, *rows)

        monkeypatch.setattr(integral, "evaluate", recording)
    return listed, batches


def _count_calls(monkeypatch, module, name) -> list:
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_identical_calls_each_evaluate_their_integrals(monkeypatch):
    # the scope closes with the call: nothing is kept for the next one
    params, policy, quad = grid_params(K=4, omegaR_dB=-10.0), fixed_policy(0.2, alphaJ=0.5), quadrature(300)
    items = _count_items(monkeypatch)
    first = sop_total(params, policy, "odrs", quad)
    per_call = len(items[analytic])
    assert per_call == 4  # delta4 at n = 1, 2, 3 and delta1 at n = K
    assert sop_total(params, policy, "odrs", quad) == first
    assert len(items[analytic]) == 2 * per_call

    params = grid_params(K=4, P_dB=20.0, omegaR_dB=-10.0)  # at 10 dB the source hop is not high-gain
    scaling = AsymptoticScaling(*params.links.frame)
    values = [sop_asym_total(params, policy, "tmrc", scaling, quad) for _ in range(2)]
    assert values[0] == values[1] and len(items[asymptotic]) == 2 * 4  # combined at n = 1..4


def test_one_call_shares_the_single_relay_term_over_n(monkeypatch):
    params, policy, quad = grid_params(K=5, omegaR_dB=-10.0), fixed_policy(0.2), quadrature(300)
    items = _count_items(monkeypatch)
    sop_total(params, policy, "osrs", quad)
    assert len(items[analytic]) == 1


def test_a_sweep_evaluates_each_distinct_integral_once(tmp_path, monkeypatch):
    body = _config(FIXED, "K", [2, 4], engine=["analytic"])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(body))
    cfg = load_config(str(path))
    items = _count_items(monkeypatch)
    series = _count_calls(monkeypatch, analytic, "_user_series")
    run_sweep(cfg)
    # combined at n = 1..4 (delta1 is n = 1) and jammed with 1..3 idle relays;
    # point by point it would be 2 + 1 + 1 + 2 at K = 2 and 4 + 1 + 1 + 4 at K = 4
    assert len(items[analytic]) == len(set(items[analytic])) == 4 + 3
    # two series per user-row build: one per combined size, and one for all
    # three jammed sizes, whose user constants do not depend on the idle count
    assert len(series) == 2 * (4 + 1)


def _count_shared(monkeypatch) -> list:
    """Every value the engines' planned functions other than the batched
    integrals compute, as (function, arguments)."""
    computed = []
    for module, name in ((analytic, "_decoding_pmf"), (asymptotic, "_decoding_weights"), (asymptotic, "_ceiling_mass")):
        def counting(*args, _module=module, _name=name, _original=getattr(module, name)):
            computed.append((getattr(_module, _name), args))
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    return computed


@pytest.mark.parametrize("body", [WIDE_JAMMED, _config(DYNAMIC, "omega2_dB", [25.0, 30.0])])
def test_rows_read_the_values_of_the_batch_step(tmp_path, monkeypatch, body):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(body))
    cfg = load_config(str(path))
    listed, batches = _record_batch_step(monkeypatch)
    items = _count_items(monkeypatch)
    computed = _count_shared(monkeypatch)
    computed_in_step, planned = [], []

    def evaluate(plans, _inner=cli._evaluate):
        planned.append(len(plans))
        values = _inner(plans)
        computed_in_step.append(len(computed))
        return values

    monkeypatch.setattr(cli, "_evaluate", evaluate)
    rows = run_sweep(cfg)
    assert all(not row["error"] for row in rows)
    # one plan per (point, engine), whatever the number of schemes
    points = len(cfg.sweep_values)
    assert planned == [points * 2] and len(rows) == points * 2 * len(SCHEMES)
    in_step = [item for _, batch in batches for item in batch]
    integrals = {key for key in listed if key[0] in INTEGRALS.values()}
    # a term a plan does not keep (the ceiling mass under the dynamic split) is the constant 0.0
    constants = {key for key in listed if key[0] is float}
    assert constants == ({(float, (0.0,))} if cfg.policy.is_dynamic else set())
    shared = set(listed) - integrals - constants
    # every listed integral is evaluated in the batch step, once, and the
    # row calls that follow evaluate none
    assert len(in_step) == len(integrals) == len(items[analytic]) + len(items[asymptotic])
    assert len(batches) < len(in_step)
    # so is each point's decoding law, its leading decoding weights and,
    # under a fixed split, each ceiling mass: the row calls compute no
    # shared value, they only read them
    assert computed_in_step == [len(computed)]
    assert len(computed) == len(set(computed)) and set(computed) == shared
    laws = {analytic._decoding_pmf, asymptotic._decoding_weights}
    assert {fn for fn, _ in shared} == (laws if cfg.policy.is_dynamic else laws | {asymptotic._ceiling_mass})
    for fn in laws:
        assert sum(computed_fn is fn for computed_fn, _ in computed) == points


def test_a_sweep_makes_one_engine_call_per_row(tmp_path):
    # the benchmark's latency samples are the engine calls `run_sweep` makes
    # through the cli globals its light spans wrap: one per analytic or
    # asymptotic row, error rows included, and none for the batch step
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(RAISING))
    cfg = load_config(str(path))
    rec = spans.Recorder()
    rec.install(spans.LIGHT)
    try:
        rec.active = True
        rows = cli.run_sweep(cfg)
    finally:
        rec.active = False
        rec.uninstall()
    layers = rec.layers()
    assert rec.captured_rows == rows and any(row["error"] for row in rows)
    for engine, span in (("analytic", "analytic.sop_total"), ("asymptotic", "asymptotic.sop_asym_total")):
        assert layers[span]["calls"] == sum(row["engine"] == engine for row in rows) == 2 * len(SCHEMES)


def test_each_row_mixes_its_point_values_through_one_cli_engine_call(tmp_path, monkeypatch):
    # the benchmark's light spans wrap `cli.sop_total` and `cli.sop_asym_total`,
    # and its latency figures (`analytic_p50_ref`, say) are those calls: a
    # sweep that went around these globals would leave bench/run.py no samples
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    wrapped = {name: span for module, name, span in spans.LIGHT if module == "cli"}
    assert wrapped["sop_total"] == "analytic.sop_total" and wrapped["sop_asym_total"] == "asymptotic.sop_asym_total"
    seen: dict = {"sop_total": [], "sop_asym_total": []}
    for name, made in seen.items():
        def counting(*args, _original=getattr(cli, name), _made=made, **kwargs):
            _made.append(kwargs["values"])
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counting)
    rows = []
    for split in (FIXED, DYNAMIC):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_config(split, "omega2_dB", [25.0, 30.0])))
        rows += run_sweep(load_config(str(path)))
    assert all(not row["error"] for row in rows)
    for engine, name in (("analytic", "sop_total"), ("asymptotic", "sop_asym_total")):
        assert len(seen[name]) == sum(row["engine"] == engine for row in rows) == 2 * 2 * len(SCHEMES)
        # every scheme at a point mixes the one dict of that point's values
        assert all(values is not None for values in seen[name]) and len({id(v) for v in seen[name]}) == 2 * 2


@pytest.mark.parametrize("var, values", [("P_dB", [10.0, 10.0, 15.0]), ("omega2_dB", [30.0, 25.0, 30.0])])
def test_a_repeated_sweep_value_repeats_its_rows_bit_for_bit(tmp_path, var, values):
    # the repeated points plan the same entries, so they read one value each
    rows = _check_rows_match_direct_calls(tmp_path, _config(FIXED, var, values))
    groups: dict = {}
    for row in rows:
        groups.setdefault((row["sweep_value"], row["scheme"], row["engine"]), []).append(row)
    repeated = [group for group in groups.values() if len(group) > 1]
    assert len(rows) == 3 * len(SCHEMES) * 2 and len(repeated) == len(SCHEMES) * 2
    assert all(len(group) == 2 and repr(group[0]) == repr(group[1]) for group in repeated)


def test_each_mixture_runs_once_per_row_and_per_call(tmp_path, monkeypatch):
    bodies = {module: _count_calls(monkeypatch, module, "_mixture") for module in INTEGRALS}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_config(FIXED, "P_dB", [20.0, 25.0])))
    rows = run_sweep(load_config(str(path)))
    assert all(not row["error"] for row in rows)
    for module in INTEGRALS:
        assert len(bodies[module]) == sum(row["engine"] == module.__name__.rsplit(".", 1)[1] for row in rows) == 8
        bodies[module].clear()
    params, policy, quad = grid_params(K=4, P_dB=20.0, omegaR_dB=-10.0), fixed_policy(0.2, alphaJ=0.5), quadrature(300)
    sop_total(params, policy, "odrs", quad)
    sop_asym_total(params, policy, "odrs", AsymptoticScaling(*params.links.frame), quad)
    assert [len(bodies[module]) for module in INTEGRALS] == [1, 1]


def test_a_rebuilt_law_is_the_same_store_key(tmp_path, monkeypatch):
    # K = 70 reads 70 combined and 69 jammed laws, more than the law caches
    # keep (64 each), so the row calls rebuild laws the batch step used; a
    # rebuilt law must find the values stored under the first
    body = _config(FIXED, "K", [2, 70], mR=1, mU=1, mE=1, scheme=["tmrc", "osrs", "odrs"], engine=["analytic"])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(body))
    items = _count_items(monkeypatch)
    rows = run_sweep(load_config(str(path)))
    assert all(not row["error"] for row in rows)
    # combined at n = 1..70 (delta1 is n = 1) and jammed with 1..69 idle relays
    assert len(items[analytic]) == len(set(items[analytic])) == 70 + 69


@pytest.fixture
def counted_jammed_rows(monkeypatch):
    """Every jammed density row evaluation (`channels._jammed_row`) as (count,
    node bytes); the law cache is cleared on both sides so that no law binds
    the other function."""
    calls = []
    original = channels._jammed_row

    def counting(p_e, count, rho4, y):
        calls.append((count, y.tobytes()))
        return original(p_e, count, rho4, y)

    monkeypatch.setattr(channels, "_jammed_row", counting)
    channels.jammed_law.cache_clear()
    yield calls
    channels.jammed_law.cache_clear()


def test_a_sweep_builds_each_jammed_table_once(tmp_path, counted_jammed_rows):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(WIDE_JAMMED))
    rows = run_sweep(load_config(str(path)))
    assert all(not row["error"] for row in rows)
    # 3 points x 2 engines x 3 jammed sizes read the rows; under the pinned
    # ceiling no cut applies, so the idle counts 1..3 give 3 distinct rows
    assert len(counted_jammed_rows) == len(set(counted_jammed_rows)) == 3


def test_one_call_builds_the_jammed_user_rows_once(monkeypatch):
    params, policy, quad = grid_params(K=4, omegaR_dB=-10.0), fixed_policy(0.2, alphaJ=0.5), quadrature(300)
    series = _count_calls(monkeypatch, analytic, "_user_series")
    items = _count_items(monkeypatch)
    sop_total(params, policy, "odrs", quad)
    assert len(items[analytic]) == 4  # delta4 at n = 1, 2, 3 and delta1 at n = K
    # two series per build: one build for the jammed constants of n = 1..3,
    # which make one batch, one for delta1's; no cut applies in either
    assert len(series) == 2 * 2


def test_shared_law_rows_are_read_only(monkeypatch, counted_jammed_rows):
    params, policy, quad = grid_params(K=4, P_dB=20.0, omegaR_dB=-10.0), fixed_policy(0.2, alphaJ=0.5), quadrature(300)
    items = _count_items(monkeypatch)
    kept = []

    def keeping(law, cuts, quad, rows, _original=quadrature_module.law_rows):
        kept.append(rows)
        return _original(law, cuts, quad, rows)

    monkeypatch.setattr(quadrature_module, "law_rows", keeping)
    scaling = AsymptoticScaling(*params.links.frame)
    # one point's plans, as `cli.run_sweep` makes them: each engine's, of what every scheme reads
    schemes = list(SchemeKind)
    plans = [analytic._plan(params, policy, schemes, quad), asymptotic._plan(params, policy, schemes, quad, True, scaling)]
    values = _evaluate(plans)
    # every batch of the one `_evaluate` keeps its law rows in one dict; the
    # engines integrate the three jammed laws over one cut each here, and
    # both read the one array of each (law, cut), built once
    rows = kept[0]
    assert all(other is rows for other in kept)
    jammed = [item for item in items[analytic] if item.law.row is not None]
    assert list(rows) == [(item.law, item.a, quad) for item in jammed] and len(jammed) == 3
    assert sum(item.law.row is not None for item in items[asymptotic]) == 3
    assert len(counted_jammed_rows) == len(rows) == 3
    for (law, cut, _), block in rows.items():
        assert law_rows(law, [cut], quad, rows)[0] is block
        assert not block.flags.writeable
        with pytest.raises(ValueError):
            block[0] = 0.0
    # the rows are not among the values, which are the plans' names, and a
    # fresh dict builds its own, just as read-only
    assert [list(point) for point in values] == [list(plan) for plan in plans]
    assert {fn for plan in plans for fn, _ in plan.values()} == {
        analytic._decoding_pmf, analytic._joint_secrecy_prob,
        asymptotic._decoding_weights, asymptotic._leading_integral, asymptotic._ceiling_mass}
    # the point's decoding law and leading weights are shared, and read-only
    assert not values[0]["pmf"].flags.writeable and isinstance(values[1]["weights"], tuple)
    (law, cut, _), block = next(iter(rows.items()))
    fresh = law_rows(law, [cut], quad, {})[0]
    assert fresh is not block and not fresh.flags.writeable and fresh.tobytes() == block.tobytes()


def test_a_raising_call_is_not_stored():
    calls = []

    def fail(x):
        calls.append(x)
        raise ValueError(f"bad {x}")

    def square(x):
        return x * x

    # an entry that two plans list is tried once, and its error stands in
    # for its value in each plan's dict, under that plan's name for it
    values = _evaluate([{"a": (fail, (1,)), "b": (square, (3,))}, {"c": (fail, (1,))}])
    assert calls == [1] and [list(point) for point in values] == [["a", "b"], ["c"]]
    # each reader of it raises the stored error, and none calls it again
    for point, name in ((values[0], "a"), (values[1], "c"), (values[1], "c")):
        with pytest.raises(ValueError, match="bad 1"):
            point[name]
    assert calls == [1] and values[0]["b"] == 9


def test_row_calls_rebuild_nothing(tmp_path, monkeypatch):
    # both engines, both splits, all four schemes, partial decoding: one plan
    # per (point, engine) builds each distinct transmission of the point once
    # (a single relay's is one relay combining) and moves it onto the
    # asymptotic frame once, the batch step forms each point's decoding law
    # and weights once, and the row calls only mix
    builders = {"params": ("transmission_plan", "transmission_args", "scheme_constants", "feasibility_check"),
                "analytic": ("decoding_set_pmf", "_decoding_pmf"),
                "asymptotic": ("scaled_params", "_decoding_weights", "_decoding_miss")}
    modules = [importlib.import_module(f"noma_relay_secrecy.{info.name}")
               for info in pkgutil.iter_modules(noma_relay_secrecy.__path__)]
    inside: list = [None]  # the builder calls of the innermost plan, batch step or row call
    for home, names in builders.items():
        for name in names:
            original = getattr(importlib.import_module(f"noma_relay_secrecy.{home}"), name)

            def counting(*args, _name=name, _original=original, **kwargs):
                if inside[-1] is not None:
                    inside[-1].append((_name, args))
                return _original(*args, **kwargs)

            for module in modules:  # every namespace that binds it, so no caller goes around
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting)
    calls: dict = {"_engine_plan": [], "_evaluate": [], "_engine_sop": []}
    for name, made in calls.items():
        def within(*args, _original=getattr(cli, name), _made=made):
            _made.append((args, []))
            inside.append(_made[-1][1])
            try:
                return _original(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(cli, name, within)
    rows = []
    for split in (FIXED, DYNAMIC):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_config(split, "P_dB", [20.0, 25.0])))
        rows += run_sweep(load_config(str(path)))
    assert len(rows) == 2 * 2 * len(SCHEMES) * 2 and all(not row["error"] for row in rows)
    assert len(calls["_engine_sop"]) == len(rows) and len(calls["_engine_plan"]) == 2 * 2 * 2
    assert all(built == [] for _, built in calls["_engine_sop"])
    for (engine, params, _, schemes, _), built in calls["_engine_plan"]:
        names = dict.fromkeys(scheme.reads(n, params.K) for scheme in schemes for n in range(1, params.K + 1))
        distinct = list(dict.fromkeys((Transmission.COMBINED, n) if sends is Transmission.SINGLE else (sends, n)
                                      for sends, n in names))
        assert (Transmission.SINGLE, 1) in names and len(distinct) == len(names) - 1
        assert [args[2:] for name, args in built if name == "transmission_args"] == distinct
        counts = Counter(name for name, _ in built)
        assert counts == {"transmission_plan": 1, "feasibility_check": 1, "transmission_args": len(distinct),
                          "scheme_constants": len(distinct), **({"scaled_params": 1} if engine == "asymptotic" else {})}
    for (plans,), built in calls["_evaluate"]:  # two points, one analytic and one asymptotic plan each
        counts = Counter(name for name, _ in built)
        assert len(plans) == 4
        assert counts == {"_decoding_pmf": 2, "_decoding_weights": 2, "_decoding_miss": 2}
