"""Config parsing, sweep rows, validation verdicts, and exit codes."""
from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from noma_relay_secrecy import SchemeKind, SopResult, cli, estimate_many
from noma_relay_secrecy.cli import (
    ConfigError,
    load_config,
    main,
    run_sweep,
    validate,
    write_rows,
)


def _base_config(**over):
    cfg = {
        "K": 2, "mR": 2, "mU": 2, "mE": 2,
        "omegaR_dB": 10.0, "omega1_dB": 12.0, "omega2_dB": 10.0, "omegaE_dB": -5.0,
        "P_dB": 10.0, "R1_th": 0.2, "R2_th": 0.1, "R1_s": 0.1, "R2_s": 0.2,
        "alpha1": 0.2, "alphaJ": 0.5,
    }
    cfg.update(over)
    return cfg


def _write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, _base_config()))
    assert cfg.quad_n == 300
    assert cfg.mc.trials == 1_000_000
    assert cfg.mc.seed == 42
    assert cfg.engines == ("analytic",)
    assert len(cfg.schemes) == 4
    assert cfg.params.sigma2 == 1.0
    assert cfg.params.links.relay_user2.omega == pytest.approx(10.0)  # 10 dB
    assert cfg.params.P_S == pytest.approx(10.0)
    assert cfg.sweep_var is None and cfg.sweep_values == ()


def _without(cfg, key):
    return {k: v for k, v in cfg.items() if k != key}


def _dpa_config(**dpa):
    raw = _without(_base_config(), "alpha1")
    raw["dpa"] = dpa
    return raw


def test_config_rejections(tmp_path):
    bad_dpa = _dpa_config(mu=5)
    cases = [
        (_base_config(bogus=1), "unknown config key: bogus"),
        (_without(_base_config(), "P_dB"), "missing config key: P_dB"),
        (_base_config(alphaJ=1.0), "alphaJ must be in [0,1), got 1.0"),
        (_base_config(dpa={"mu": 5, "varpi": 0.1}),
         "give either alpha1 (fixed allocation) or dpa (dynamic), not both"),
        (_without(_base_config(), "alpha1"), "missing config key: alpha1 or dpa"),
        (bad_dpa, "dpa must be an object with keys mu and varpi"),
        (_dpa_config(mu=1.0, varpi=0.1), "mu must exceed 1, got 1.0"),
        (_dpa_config(mu=5.0, varpi=1.5), "varpi must lie in (0,1), got 1.5"),
        # these once loaded as numbers: each config number must be a JSON number
        (_base_config(alphaJ="0.5"), "alphaJ must be a number, got '0.5'"),
        (_base_config(sigma2=True), "sigma2 must be a number, got True"),
        (_dpa_config(mu="5", varpi=0.1), "mu must be a number, got '5'"),
        (_base_config(sweep={"var": "P_dB"}), "sweep must be an object with keys var and values"),
        (_base_config(sweep={"var": "P_dB", "values": [10, "15"]}), "sweep.values must be a number, got '15'"),
        (_base_config(scheme=["bogus"]), "unknown scheme: 'bogus'"),
        (_base_config(trials=0), "trials must be a positive integer, got 0"),
        (_base_config(quad_n=True), "quad_n must be an integer >= 2, got True"),
        (_base_config(quad_n=5_001), "quad_n must be at most 5000, got 5001"),
        (_base_config(quad_n=10**400), f"quad_n must be at most 5000, got {10**400}"),
        # a sweep value is checked by building its point's PowerPolicy, with PowerPolicy's message
        (_base_config(sweep={"var": "alpha1", "values": [0.2, 1.5]}), "alpha1 must lie in (0,1), got 1.5"),
        (_base_config(sweep={"var": "alpha1", "values": [0]}), "alpha1 must lie in (0,1), got 0.0"),
        (_base_config(sweep={"var": "alphaJ", "values": [0.5, 1.0]}), "alphaJ must be in [0,1), got 1.0"),
    ]
    for raw, message in cases:
        with pytest.raises(ConfigError) as err:
            load_config(_write(tmp_path, raw))
        assert str(err.value) == message


def test_null_values_are_config_errors(tmp_path):
    for key in ("sigma2", "alphaJ", "seed", "trials"):
        with pytest.raises(ConfigError):
            load_config(_write(tmp_path, _base_config(**{key: None})))


def test_integral_float_trials_and_seed_run_as_integers(tmp_path, capsys):
    # JSON writers may print whole numbers as 2000.0; they mean the integer
    floats = _write(tmp_path, _base_config(scheme=["osrs"], trials=2000.0, seed=7.0), name="floats.json")
    ints = _write(tmp_path, _base_config(scheme=["osrs"], trials=2000, seed=7), name="ints.json")
    cfg = load_config(floats)
    assert (cfg.mc.trials, cfg.mc.seed) == (2000, 7)
    assert type(cfg.mc.trials) is int and type(cfg.mc.seed) is int
    outputs = []
    for path in (floats, ints):
        assert main(["simulate", path]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert next(csv.DictReader(io.StringIO(outputs[0])))["trials"] == "2000"


def test_config_file_problems(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))


def test_alpha1_sweep_requires_fixed_policy(tmp_path):
    raw = {k: v for k, v in _base_config().items() if k != "alpha1"}
    raw["dpa"] = {"mu": 5.0, "varpi": 0.1}
    raw["sweep"] = {"var": "alpha1", "values": [0.1, 0.2]}
    with pytest.raises(ConfigError) as err:
        load_config(_write(tmp_path, raw))
    assert str(err.value) == "sweep.var alpha1 requires a fixed power allocation"


def test_empty_sweep_writes_header_only(tmp_path, capsys):
    raw = _base_config(sweep={"var": "P_dB", "values": []})
    cfg = load_config(_write(tmp_path, raw))
    rows = run_sweep(cfg)
    assert rows == []
    write_rows(rows, None)
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["sweep_var,sweep_value,scheme,engine,sop,stderr,trials,sdo,error"]


def test_alpha1_sweep_ordering(tmp_path):
    raw = _base_config(
        scheme=["tmrc", "osrs"],
        sweep={"var": "alpha1", "values": [0.1, 0.2, 0.3, 0.4]},
    )
    rows = run_sweep(load_config(_write(tmp_path, raw)))
    assert len(rows) == 8
    by_value = {}
    for row in rows:
        assert row["error"] == ""
        by_value.setdefault(row["sweep_value"], {})[row["scheme"]] = row["sop"]
    for value, per_scheme in by_value.items():
        assert per_scheme["osrs"] <= per_scheme["tmrc"] + 1e-12
    # rows arrive sorted by (value, scheme, engine)
    keys = [(r["sweep_value"], r["scheme"]) for r in rows]
    assert keys == sorted(keys)


@pytest.mark.parametrize(
    "var, values, calls",
    [
        ("P_dB", [0, 10, 20], 1),
        ("alpha1", [0.1, 0.3], 1),
        ("alphaJ", [0.0, 0.4], 1),
        ("omega2_dB", [5, 10], 2),
        ("K", [1, 2, 3], 3),
        ("m", [1, 2], 2),
    ],
)
def test_sweep_points_share_draws_only_when_links_stay(tmp_path, monkeypatch, var, values, calls):
    raw = _base_config(scheme=["tmrc", "odrs"], engine=["montecarlo"], trials=2000,
                       sweep={"var": var, "values": values})
    cfg = load_config(_write(tmp_path, raw))
    made = []

    def counting(params, policy, schemes, config):
        made.append(len(params))
        return estimate_many(params, policy, schemes, config)

    monkeypatch.setattr(cli, "estimate_many", counting)
    rows = run_sweep(cfg)
    assert made == [len(values) // calls] * calls
    # each point reads what a simulation of that point alone reads
    for row in rows:
        params, policy = cli._point_scenario(cfg, row["sweep_value"])
        alone = estimate_many(params, policy, [row["scheme"]], cfg.mc)[SchemeKind(row["scheme"])]
        assert (row["sop"], row["stderr"], row["error"]) == (alone.p_hat, alone.stderr, "")


def test_base_point_uses_power_in_db(tmp_path):
    rows = run_sweep(load_config(_write(tmp_path, _base_config(scheme=["osrs"]))))
    assert len(rows) == 1
    assert rows[0]["sweep_var"] == "P_dB"
    assert rows[0]["sweep_value"] == pytest.approx(10.0)


def test_infeasible_point_reports_certain_outage(tmp_path):
    raw = _base_config(alpha1=0.7, scheme=["tmrc", "osrs"], trials=20_000)
    cfg = load_config(_write(tmp_path, raw))
    for engine in ("analytic", "montecarlo"):
        for row in run_sweep(cfg, engines=[engine]):
            assert row["error"] == ""
            assert row["sop"] == 1.0


def test_validate_passes_on_agreeing_grid(tmp_path):
    raw = _base_config(
        scheme=["osrs", "tmrc"],
        sweep={"var": "P_dB", "values": [5.0, 10.0]},
        trials=200_000,
    )
    passed, lines = validate(load_config(_write(tmp_path, raw)))
    assert passed
    assert lines[-1].endswith("PASS")
    assert "within 3 sigma" in lines[-1]


def test_validate_forced_full_decoding(tmp_path):
    # a very strong source-relay link pins the decoding set at K=1, so the
    # single-relay secrecy branch is exercised alone
    raw = _base_config(K=1, omegaR_dB=40.0, scheme=["osrs"], trials=1_000_000)
    passed, lines = validate(load_config(_write(tmp_path, raw)))
    assert passed
    assert "z=" in lines[0]


def test_validate_infeasible_is_exact_agreement(tmp_path):
    # both engines report certain outage; gap 0 gives z = 0 and a PASS
    raw = _base_config(alpha1=0.7, scheme=["tmrc", "osrs"], trials=1000)
    passed, lines = validate(load_config(_write(tmp_path, raw)))
    assert passed
    assert all("z=+0.00" in line for line in lines[:-1])


def test_validate_fails_when_engines_disagree(tmp_path, monkeypatch):
    # the analytic value is moved 10 binomial standard errors off the truth
    raw = _base_config(scheme=["osrs"], trials=20_000)
    path = _write(tmp_path, raw)
    exact = cli.sop_total

    def off_by_ten_sigma(*args, **kwargs):
        p = exact(*args, **kwargs).value
        return SopResult(value=p + 10.0 * math.sqrt(p * (1.0 - p) / raw["trials"]), engine="analytic")

    monkeypatch.setattr(cli, "sop_total", off_by_ten_sigma)
    passed, lines = validate(load_config(path))
    assert not passed
    assert main(["validate", path]) == 2


def test_validate_deep_outage_with_no_secure_trial_passes(tmp_path):
    # 50 trials at deep outage: MC sees no secure trial (p_hat = 1), which
    # analytic = 0.99975 predicts (0.0125 secure trials expected)
    raw = _base_config(P_dB=-15.0, scheme=["osrs"], trials=50)
    path = _write(tmp_path, raw)
    passed, lines = validate(load_config(path))
    assert "mc=1.000000e+00" in lines[0]
    assert passed
    assert main(["validate", path]) == 0


def test_exit_codes(tmp_path, capsys):
    ok = _write(tmp_path, _base_config(scheme=["osrs"]))
    assert main(["analytic", ok]) == 0
    capsys.readouterr()

    bad = _write(tmp_path, _base_config(alphaJ=1.0), name="bad.json")
    assert main(["analytic", bad]) == 1
    assert "config error" in capsys.readouterr().err

    # JSON true/false are not counts: `"trials": true` once ran one trial
    for key, flag in (("trials", True), ("seed", False), ("K", True), ("mE", True)):
        flagged = _write(tmp_path, _base_config(scheme=["osrs"], **{key: flag}), name="flag.json")
        assert main(["simulate", flagged]) == 1
        assert capsys.readouterr().err.startswith("config error:")

    # equal user gains break the asymptotic scaling frame: numeric error, exit 3
    numeric = _write(tmp_path, _base_config(omega1_dB=10.0, scheme=["osrs"]), name="numeric.json")
    assert main(["asymptotic", numeric]) == 3
    out = capsys.readouterr().out
    reader = csv.DictReader(io.StringIO(out))
    rows = list(reader)
    assert rows and rows[0]["error"] != ""


@pytest.mark.parametrize(
    "raw, message",
    [
        # JSON allows Infinity and NaN; they once wrote sop = nan rows with exit 0
        (_base_config(R1_th=math.inf), "R1_th must be finite, got inf"),
        (_base_config(R1_s=math.inf), "R1_s must be finite, got inf"),
        (_base_config(R2_s=math.nan), "R2_s must be finite, got nan"),
        (_base_config(omegaE_dB=math.inf), "omegaE_dB must be finite, got inf"),
        (_base_config(sigma2=math.inf), "sigma2 must be finite, got inf"),
        (_base_config(trials=math.inf), "trials must be a positive integer, got inf"),
        (_dpa_config(mu=math.inf, varpi=0.1), "mu must be finite, got inf"),
        # 10^(4000/10) overflows: once an uncaught OverflowError
        (_base_config(P_dB=4000), "P_dB overflows a float in linear scale, got 4000.0"),
        # a JSON integer past float range: once an uncaught OverflowError too
        (_base_config(P_dB=10**400), "P_dB overflows a float"),
        (_base_config(K=10**400), "K overflows a float"),
        # sweep points are built at load, so a bad value fails before any row
        (_base_config(sweep={"var": "P_dB", "values": [10, 4000]}),
         "P_dB overflows a float in linear scale, got 4000.0"),
        (_base_config(sweep={"var": "P_dB", "values": [10, math.inf]}), "sweep.values must be finite, got inf"),
        (_base_config(sweep={"var": "omega2_dB", "values": [4000]}),
         "omega2_dB overflows a float in linear scale, got 4000.0"),
        (_base_config(sweep={"var": "K", "values": [2, 2.5]}), "K must be a positive integer, got 2.5"),
        (_base_config(sweep={"var": "m", "values": [2.5]}), "shape m must be a positive integer, got 2.5"),
        (_base_config(sweep={"var": "K", "values": [math.inf]}), "sweep.values must be finite, got inf"),
        (_base_config(sweep={"var": "K", "values": [10**400]}), "sweep.values overflows a float"),
        # every scalar number goes through one check that names its key
        (_base_config(omegaE_dB=-math.inf), "omegaE_dB must be finite, got -inf"),
        (_base_config(alphaJ=math.nan), "alphaJ must be finite, got nan"),
        (_dpa_config(mu=5.0, varpi=math.inf), "varpi must be finite, got inf"),
        (_base_config(sigma2=10**400), "sigma2 overflows a float"),
        # a count past float range names its key
        (_base_config(trials=10**400), "trials overflows a float"),
        (_base_config(seed=10**400), "seed overflows a float"),
    ],
)
def test_non_finite_and_overflowing_numbers_are_config_errors(tmp_path, capsys, raw, message):
    assert main(["analytic", _write(tmp_path, raw)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"config error: {message}\n"
    assert captured.out == ""


def test_simulate_csv_is_deterministic(tmp_path):
    raw = _base_config(scheme=["osrs", "odrs"], trials=50_000)
    path = _write(tmp_path, raw)
    out_a = str(tmp_path / "a.csv")
    out_b = str(tmp_path / "b.csv")
    assert main(["simulate", path, "--out", out_a]) == 0
    assert main(["simulate", path, "--out", out_b]) == 0
    with open(out_a, "rb") as fa, open(out_b, "rb") as fb:
        assert fa.read() == fb.read()


def test_sdo_subcommand(tmp_path, capsys):
    raw = {k: v for k, v in _base_config().items() if k not in ("alpha1",)}
    raw["dpa"] = {"mu": 5.0, "varpi": 0.1}
    raw["scheme"] = ["tmrc", "odrs"]
    path = _write(tmp_path, raw)
    assert main(["sdo", path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "scheme,sdo"
    table = dict(line.split(",") for line in lines[1:])
    assert float(table["tmrc"]) == pytest.approx(3.6)  # K=2, m=2, varpi=0.1
    assert float(table["odrs"]) <= float(table["tmrc"])


def test_out_field_in_config(tmp_path):
    target = tmp_path / "rows.csv"
    raw = _base_config(scheme=["osrs"], out=str(target))
    assert main(["analytic", _write(tmp_path, raw)]) == 0
    content = target.read_text().splitlines()
    assert content[0].startswith("sweep_var,")
    assert len(content) == 2


def test_module_entry_point(tmp_path):
    path = _write(tmp_path, _base_config(scheme=["osrs"]))
    # the child imports the package from wherever this process does
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "noma_relay_secrecy.cli", "analytic", path],
        capture_output=True, text=True, check=False, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("sweep_var,")


ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "command, config, golden",
    [
        ("analytic", "reference.json", "reference_analytic.csv"),
        ("simulate", "reference.json", "reference_simulate.csv"),
        ("asymptotic", "dynamic_split.json", "dynamic_split_asymptotic.csv"),
        ("sdo", "dynamic_split.json", "dynamic_split_sdo.csv"),
    ],
)
def test_demo_csv_matches_golden(tmp_path, command, config, golden):
    # the demo configs' CSV bytes are part of the interface: an engine
    # rewrite that moves any printed digit shows here
    out = tmp_path / golden
    assert main([command, str(ROOT / "demos" / "configs" / config), "--out", str(out)]) == 0
    assert out.read_bytes() == (ROOT / "tests" / "golden" / golden).read_bytes()


def test_a_null_decoding_set_size_adds_nothing(tmp_path, capsys):
    # at -3200 dB no relay decodes (chi = 0): the empty set has weight 1 and
    # every other size weight 0.0, so their conditionals, NaN there, are not
    # formed and the rows read certain outage
    cfg = json.loads((ROOT / "demos" / "configs" / "reference.json").read_text())
    cfg["sweep"] = {"var": "P_dB", "values": [-3200, -320, 10]}
    assert main(["analytic", _write(tmp_path, cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = list(csv.DictReader(lines))
    assert [(r["sop"], r["error"]) for r in rows[:4]] == [("1.0000000000e+00", "")] * 4
    assert [(r["sop"], r["error"]) for r in rows[4:8]] == [("1.0000000000e+00", "")] * 4
    golden = (ROOT / "tests" / "golden" / "reference_analytic.csv").read_text().splitlines()
    assert lines[9:] == [line for line in golden if line.startswith("P_dB,1.0000000000e+01,")]


def test_validate_report_matches_golden(capsys):
    # the validate report prints every z-score, so it pins both engines
    assert main(["validate", str(ROOT / "demos" / "configs" / "reference.json")]) == 0
    assert capsys.readouterr().out == (ROOT / "tests" / "golden" / "reference_validate.txt").read_text()


def _high_gain_config(split: dict) -> dict:
    # the deep tail of both engines: exact SOP down to rounding noise and the
    # asymptote's power law, under the dynamic and a fixed split
    return {
        "K": 4, "mR": 3, "mU": 3, "mE": 3,
        "omegaR_dB": 3.0, "omega1_dB": 1.8, "omega2_dB": 0.0, "omegaE_dB": -5.0,
        "P_dB": 10.0, "R1_th": 0.2, "R2_th": 0.1, "R1_s": 0.1, "R2_s": 0.2,
        "alphaJ": 0.5, "scheme": ["tmrc", "osrs", "odrs"], "engine": ["analytic", "asymptotic"],
        "sweep": {"var": "omega2_dB", "values": list(range(20, 85, 5))}, "quad_n": 300,
        **split,
    }


def test_high_gain_csv_matches_golden(tmp_path):
    rows = []
    for name, split in (("dpa", {"dpa": {"mu": 5.0, "varpi": 0.1}}), ("fixed", {"alpha1": 0.2})):
        rows += run_sweep(load_config(_write(tmp_path, _high_gain_config(split), name=f"{name}.json")))
    out = tmp_path / "high_gain.csv"
    write_rows(rows, str(out))
    assert out.read_bytes() == (ROOT / "tests" / "golden" / "high_gain.csv").read_bytes()


def test_large_k_simulation_matches_golden(tmp_path):
    # the only golden with K > 4: combining sums over 8 and 11 relays, in
    # partial decoding sets (omegaR -10 dB), for all four schemes
    raw = json.loads((ROOT / "demos" / "configs" / "reference.json").read_text())
    raw.update(
        omegaR_dB=-10.0, mR=2, mU=2, mE=2, scheme=["tmrc", "osrs", "tsrs", "odrs"], engine=["montecarlo"],
        sweep={"var": "K", "values": [8, 11]}, trials=200_000, seed=5,
    )
    out = tmp_path / "relay_k8_simulate.csv"
    assert main(["simulate", _write(tmp_path, raw), "--out", str(out)]) == 0
    assert out.read_bytes() == (ROOT / "tests" / "golden" / "relay_k8_simulate.csv").read_bytes()


# Sweeps whose points need the same integrals: a K sweep shares each
# combined term at n and each jammed term with K - n idle relays across its
# points, and an alphaJ sweep shares every term without jamming.
_SHARED_SWEEPS = {
    "relay_k_sweep.csv": dict(
        _base_config(), omegaR_dB=-10.0, omega1_dB=32.0, omega2_dB=30.0, P_dB=20.0,
        scheme=["tmrc", "osrs", "tsrs", "odrs"], engine=["analytic", "asymptotic"],
        sweep={"var": "K", "values": [2, 4, 6, 8]},
    ),
    "alpha_j_sweep.csv": {
        "K": 4, "mR": 2, "mU": 2, "mE": 2,
        "omegaR_dB": 5.0, "omega1_dB": 31.8, "omega2_dB": 30.0, "omegaE_dB": -5.0,
        "P_dB": 10.0, "R1_th": 0.2, "R2_th": 0.1, "R1_s": 0.1, "R2_s": 0.2,
        "dpa": {"mu": 5.0, "varpi": 0.1}, "alphaJ": 0.5,
        "scheme": ["tmrc", "osrs", "tsrs", "odrs"], "engine": ["analytic", "asymptotic"],
        "sweep": {"var": "alphaJ", "values": [0.0, 0.2, 0.4, 0.6, 0.8]}, "quad_n": 300,
    },
}


@pytest.mark.parametrize("golden", sorted(_SHARED_SWEEPS))
def test_shared_integral_sweep_matches_golden(tmp_path, golden):
    out = tmp_path / golden
    assert main(["sweep", _write(tmp_path, _SHARED_SWEEPS[golden]), "--out", str(out)]) == 0
    assert out.read_bytes() == (ROOT / "tests" / "golden" / golden).read_bytes()


@pytest.mark.parametrize("demo", ["power_sweep", "jamming_split", "diversity_slopes"])
def test_demo_stdout_matches_golden(demo):
    # the demo scripts are deterministic; their printed studies are pinned too
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        capture_output=True, text=True, check=True, env=env,
    )
    assert proc.stdout == (ROOT / "tests" / "golden" / f"demo_{demo}.txt").read_text()


def test_each_sweep_point_is_built_once(tmp_path, monkeypatch):
    # load_config builds each point to check its values (`ExperimentConfig.points`),
    # and run_sweep and validate, which sweeps twice, read those builds
    built = []
    original = cli._point_scenario

    def counting(cfg, value):
        built.append(value)
        return original(cfg, value)

    monkeypatch.setattr(cli, "_point_scenario", counting)
    raw = _base_config(scheme=["osrs"], trials=2000, sweep={"var": "P_dB", "values": [5.0, 10.0, 15.0]})
    cfg = load_config(_write(tmp_path, raw))
    rows = run_sweep(cfg)
    validate(cfg)
    assert built == [5.0, 10.0, 15.0]
    assert [row["sweep_value"] for row in rows] == [5.0, 10.0, 15.0] and not any(row["error"] for row in rows)
