"""Batch experiment runner.

Reads a flat JSON scenario, sweeps one parameter across the requested
engines, and writes CSV rows (stdout or a file). Powers and mean gains enter
in dB and are converted to linear once, at ingestion; rate targets are in
nats. Subcommands: analytic, simulate, asymptotic, sweep, validate, sdo.

Exit codes: 0 success, 1 config error, 2 validation failure, 3 numeric error.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from typing import Sequence

from . import analytic, asymptotic
from .analytic import sop_total
from .asymptotic import AsymptoticScaling, SdoInputs, sdo, sop_asym_total
from .channels import NakagamiParams
from .montecarlo import TrialConfig, estimate_many
from .params import LinkSet, PowerPolicy, SchemeKind, SystemParams
from .quadrature import _evaluate, quadrature

_ENGINES = ("analytic", "asymptotic", "montecarlo")
_SWEEP_VARS = ("P_dB", "omega2_dB", "alpha1", "alphaJ", "K", "m")
# Sweeps that leave K and every link unchanged, so their points share draws.
_SHARED_DRAW_VARS = ("P_dB", "alpha1", "alphaJ")
_COLUMNS = ("sweep_var", "sweep_value", "scheme", "engine", "sop", "stderr", "trials", "sdo", "error")

_REQUIRED_KEYS = (
    "K", "mR", "mU", "mE",
    "omegaR_dB", "omega1_dB", "omega2_dB", "omegaE_dB",
    "P_dB", "R1_th", "R2_th", "R1_s", "R2_s",
)
# The nodes come from an n x n eigenproblem; the largest count any check of
# the engines has needed is 4,800 (the high-gain slope fits over 50-60 dB).
_MAX_QUAD_N = 5_000
_OPTIONAL_KEYS = ("sigma2", "alpha1", "alphaJ", "dpa", "scheme", "engine", "sweep", "trials", "seed", "quad_n", "out")


class ConfigError(ValueError):
    """A config file problem: missing key, bad type, or out-of-domain value."""


def _db_to_linear(db: float, key: str) -> float:
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise ConfigError(f"{key} overflows a float in linear scale, got {db!r}") from None


def _require_number(val, key: str) -> float:
    """A config number as a finite float; every error names its key."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{key} must be a number, got {val!r}")
    try:
        out = float(val)
    except OverflowError:  # a JSON integer past float range
        raise ConfigError(f"{key} overflows a float") from None
    if not math.isfinite(out):
        raise ConfigError(f"{key} must be finite, got {val!r}")
    return out


def _require_positive_int(raw: dict, key: str) -> int:
    val = raw[key]
    if isinstance(val, bool) or not isinstance(val, int) or val < 1:
        raise ConfigError(f"{key} must be a positive integer, got {val!r}")
    _require_number(val, key)  # rejects an integer past float range by name
    return val


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated scenario plus sweep/engine/runtime selections."""

    params: SystemParams
    policy: PowerPolicy
    schemes: tuple[SchemeKind, ...]
    engines: tuple[str, ...]
    sweep_var: str | None
    sweep_values: tuple[float, ...]
    mc: TrialConfig
    quad_n: int
    out: str | None


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a flat JSON config; fill documented defaults."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    known = set(_REQUIRED_KEYS) | set(_OPTIONAL_KEYS)
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown config key: {key}")
    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise ConfigError(f"missing config key: {key}")

    # What the scenario classes reject, or a JSON integer past float range, is the config's error.
    try:
        k = _require_positive_int(raw, "K")
        m_r = _require_positive_int(raw, "mR")
        m_u = _require_positive_int(raw, "mU")
        m_e = _require_positive_int(raw, "mE")
        p_lin = _db_to_linear(_require_number(raw["P_dB"], "P_dB"), "P_dB")
        rates = {key: _require_number(raw[key], key) for key in ("R1_th", "R2_th", "R1_s", "R2_s")}
        omegas = [_db_to_linear(_require_number(raw[key], key), key)
                  for key in ("omegaR_dB", "omega1_dB", "omega2_dB", "omegaE_dB")]
        links = LinkSet(*(NakagamiParams(m, omega) for m, omega in zip((m_r, m_u, m_u, m_e), omegas)))
        sigma2 = _require_number(raw.get("sigma2", 1.0), "sigma2")
        params = SystemParams(K=k, links=links, P_S=p_lin, P_R=p_lin, sigma2=sigma2, **rates)
        policy = _parse_policy(raw)
        counts = {key: raw[key] for key in ("trials", "seed") if key in raw}
        for key, val in counts.items():
            if isinstance(val, int) and not isinstance(val, bool):
                _require_number(val, key)  # rejects an integer past float range by name
        mc = TrialConfig(**counts)
        sweep_var, sweep_values = _parse_sweep(raw.get("sweep"), policy)
    except (TypeError, ValueError, OverflowError) as exc:  # a ConfigError keeps its message
        raise ConfigError(str(exc)) from exc

    schemes = _parse_schemes(raw.get("scheme", [s.value for s in SchemeKind]))
    engines = _parse_engines(raw.get("engine", ["analytic"]))
    quad_n = raw.get("quad_n", 300)
    if isinstance(quad_n, bool) or not isinstance(quad_n, int) or quad_n < 2:
        raise ConfigError(f"quad_n must be an integer >= 2, got {quad_n!r}")
    if quad_n > _MAX_QUAD_N:
        raise ConfigError(f"quad_n must be at most {_MAX_QUAD_N}, got {quad_n!r}")
    out = raw.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"out must be a string path, got {out!r}")

    cfg = ExperimentConfig(
        params=params, policy=policy, schemes=schemes, engines=engines,
        sweep_var=sweep_var, sweep_values=sweep_values, mc=mc, quad_n=quad_n, out=out,
    )
    # Each sweep point is built as `run_sweep` builds it, so the scenario classes check its values.
    for value in sweep_values:
        try:
            _point_scenario(cfg, value)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return cfg


def _parse_policy(raw: dict) -> PowerPolicy:
    alpha_j = _require_number(raw.get("alphaJ", 0.0), "alphaJ")
    if "alpha1" in raw and "dpa" in raw:
        raise ConfigError("give either alpha1 (fixed allocation) or dpa (dynamic), not both")
    if "alpha1" in raw:
        return PowerPolicy.fixed(_require_number(raw["alpha1"], "alpha1"), alphaJ=alpha_j)
    if "dpa" in raw:
        dpa = raw["dpa"]
        if not isinstance(dpa, dict) or set(dpa) != {"mu", "varpi"}:
            raise ConfigError("dpa must be an object with keys mu and varpi")
        mu, varpi = (_require_number(dpa[key], key) for key in ("mu", "varpi"))
        return PowerPolicy.dynamic(mu, varpi, alphaJ=alpha_j)
    raise ConfigError("missing config key: alpha1 or dpa")


def _parse_schemes(entries) -> tuple[SchemeKind, ...]:
    if not isinstance(entries, list) or not entries:
        raise ConfigError("scheme must be a nonempty list")
    out = []
    for entry in entries:
        try:
            out.append(SchemeKind(str(entry).lower()))
        except ValueError as exc:
            raise ConfigError(f"unknown scheme: {entry!r}") from exc
    return tuple(dict.fromkeys(out))


def _parse_engines(entries) -> tuple[str, ...]:
    if not isinstance(entries, list) or not entries:
        raise ConfigError("engine must be a nonempty list")
    for entry in entries:
        if entry not in _ENGINES:
            raise ConfigError(f"unknown engine: {entry!r} (choose from {', '.join(_ENGINES)})")
    return tuple(dict.fromkeys(entries))


def _parse_sweep(block, policy: PowerPolicy) -> tuple[str | None, tuple[float, ...]]:
    if block is None:
        return None, ()
    if not isinstance(block, dict) or set(block) != {"var", "values"}:
        raise ConfigError("sweep must be an object with keys var and values")
    var = block["var"]
    if var not in _SWEEP_VARS:
        raise ConfigError(f"sweep.var must be one of {', '.join(_SWEEP_VARS)}, got {var!r}")
    values = block["values"]
    if not isinstance(values, list):
        raise ConfigError("sweep.values must be a list")
    values = tuple(_require_number(val, "sweep.values") for val in values)
    if values and var == "alpha1" and policy.is_dynamic:
        raise ConfigError("sweep.var alpha1 requires a fixed power allocation")
    return var, values


def _point_scenario(cfg: ExperimentConfig, value: float | None) -> tuple[SystemParams, PowerPolicy]:
    """The scenario at one sweep point; value None means the base config."""
    params, policy = cfg.params, cfg.policy
    if value is None or cfg.sweep_var is None:
        return params, policy
    var = cfg.sweep_var
    if var == "P_dB":
        p_lin = _db_to_linear(value, var)
        return dataclasses.replace(params, P_S=p_lin, P_R=p_lin), policy
    if var == "omega2_dB":
        eps1, eps2, _ = params.links.frame
        links = params.links.on_frame(eps1, eps2, _db_to_linear(value, var))
        return dataclasses.replace(params, links=links), policy
    if var == "alpha1":
        return params, PowerPolicy.fixed(value, alphaJ=policy.alphaJ)
    if var == "alphaJ":
        return params, dataclasses.replace(policy, alphaJ=value)
    # K and m go in as given, so the scenario classes reject a fractional count
    if var == "K":
        return dataclasses.replace(params, K=value), policy
    links = params.links
    shapes = (links.source_relay, links.relay_user1, links.relay_user2, links.relay_eaves)
    moved = LinkSet(*(NakagamiParams(value, link.omega) for link in shapes))
    return dataclasses.replace(params, links=moved), policy


def _blank_row(cfg: ExperimentConfig, value: float, scheme: SchemeKind, engine: str) -> dict:
    var = cfg.sweep_var if cfg.sweep_var is not None else "P_dB"
    return {
        "sweep_var": var, "sweep_value": value, "scheme": scheme.value, "engine": engine,
        "sop": "", "stderr": "", "trials": "", "sdo": "", "error": "",
    }


def _engine_sop(engine: str, params: SystemParams, policy: PowerPolicy, scheme: SchemeKind, quad,
                values: dict) -> float:
    """The engine's SOP at one point through `sop_total` or `sop_asym_total`, mixing the point's values."""
    if engine == "analytic":
        return sop_total(params, policy, scheme, quad, values=values).value
    return sop_asym_total(params, policy, scheme, AsymptoticScaling(*params.links.frame), quad, values=values)


def _engine_plan(engine: str, params: SystemParams, policy: PowerPolicy, schemes, quad) -> dict:
    """What `_engine_sop` reads at the point for any of the schemes, by name: its engine's `_plan`."""
    if engine == "analytic":
        return analytic._plan(params, policy, schemes, quad)
    return asymptotic._plan(params, policy, schemes, quad, not policy.is_dynamic, AsymptoticScaling(*params.links.frame))


def run_sweep(cfg: ExperimentConfig, engines: Sequence[str] | None = None) -> list[dict]:
    """One row per (sweep value, scheme, engine); failures land in the error column.

    Monte Carlo draws depend on K and the links only, so the points of a
    `P_dB`, `alpha1` or `alphaJ` sweep are simulated on one shared draw,
    which makes their curves paired; `omega2_dB`, `K` and `m` sweeps draw
    afresh at every point. The analytic and asymptotic rows run in one
    flow: plan, batch, one mixture. Each (point, engine) has one plan, of
    what all schemes read there, and the plans are evaluated in batches
    before the first row (`quadrature._evaluate`), each distinct integral
    once per sweep; each row's engine call only mixes its point's values
    (`values=`). Where a plan raises, each row's engine call raises it.
    """
    engines = tuple(engines) if engines is not None else cfg.engines
    if cfg.sweep_var is None:
        values = [10.0 * math.log10(cfg.params.P_S)]
    else:
        values = list(cfg.sweep_values)
    points = [(value, *_point_scenario(cfg, None if cfg.sweep_var is None else value)) for value in values]
    planned = [(i, engine) for i in range(len(points)) for engine in engines if engine != "montecarlo"]
    quad = quadrature(cfg.quad_n) if planned else None
    plans: list = []
    for i, engine in planned:
        try:
            plans.append(_engine_plan(engine, points[i][1], points[i][2], cfg.schemes, quad))
        except Exception:  # noqa: BLE001 - each row's engine call raises it again
            plans.append(None)
    rows: list[dict] = []
    for (i, engine), plan, point in zip(planned, plans, _evaluate([plan or {} for plan in plans])):
        value, params, policy = points[i]
        for scheme in cfg.schemes:
            row = _blank_row(cfg, value, scheme, engine)
            try:
                row["sop"] = _engine_sop(engine, params, policy, scheme, quad, None if plan is None else point)
                if engine == "asymptotic" and policy.is_dynamic:
                    row["sdo"] = sdo(scheme, _sdo_inputs(params, policy))
            except Exception as exc:  # noqa: BLE001 - a bad point must not kill the sweep
                row["error"] = str(exc)
            rows.append(row)
    if "montecarlo" in engines and points:
        groups = [points] if cfg.sweep_var in _SHARED_DRAW_VARS else [[point] for point in points]
        for group in groups:
            rows.extend(_mc_rows(cfg, group))
    rows.sort(key=lambda r: (r["sweep_value"], r["scheme"], r["engine"]))
    return rows


def _mc_rows(cfg: ExperimentConfig, points: list[tuple[float, SystemParams, PowerPolicy]]) -> list[dict]:
    """Monte Carlo rows of sweep points that share one draw."""
    keys = [(i, scheme) for i in range(len(points)) for scheme in cfg.schemes]
    rows = [_blank_row(cfg, points[i][0], scheme, "montecarlo") for i, scheme in keys]
    try:
        estimates = estimate_many([p for _, p, _ in points], [pol for _, _, pol in points], cfg.schemes, cfg.mc)
    except Exception as exc:  # noqa: BLE001 - a bad point must not kill the sweep
        for row in rows:
            row["error"] = str(exc)
        return rows
    for row, key in zip(rows, keys):
        est = estimates[key]
        row["sop"] = est.p_hat
        row["stderr"] = est.stderr
        row["trials"] = est.trials
    return rows


def _format_cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".10e")
    return str(value)


def write_rows(rows: list[dict], out: str | None) -> None:
    """Write CSV (header always) to a path, or stdout when out is None."""
    def _dump(fh) -> None:
        writer = csv.writer(fh)
        writer.writerow(_COLUMNS)
        for row in rows:
            writer.writerow([_format_cell(row[col]) for col in _COLUMNS])

    if out is None:
        _dump(sys.stdout)
    else:
        with open(out, "w", newline="", encoding="utf-8") as fh:
            _dump(fh)


def validate(cfg: ExperimentConfig) -> tuple[bool, list[str]]:
    """Cross-check analytic SOP against MC on the sweep grid via z-scores."""
    analytic_rows = run_sweep(cfg, engines=["analytic"])
    mc_rows = run_sweep(cfg, engines=["montecarlo"])
    mc_by_key = {(row["sweep_value"], row["scheme"]): row for row in mc_rows}
    lines: list[str] = []
    z_scores: list[float] = []
    for row in analytic_rows:
        key = (row["sweep_value"], row["scheme"])
        mc_row = mc_by_key[key]
        if row["error"] or mc_row["error"]:
            lines.append(f"value={key[0]:g} scheme={key[1]} error={row['error'] or mc_row['error']}")
            z_scores.append(math.inf)
            continue
        gap = row["sop"] - mc_row["sop"]
        # Binomial stderr at the analytic SOP, the value under test: the
        # plug-in sqrt(p_hat*(1-p_hat)/N) is 0 whenever every trial lands on
        # one side, which would score any gap as infinitely significant.
        stderr = math.sqrt(row["sop"] * (1.0 - row["sop"]) / mc_row["trials"])
        z = 0.0 if gap == 0.0 else (gap / stderr if stderr > 0 else math.inf)
        z_scores.append(abs(z))
        lines.append(
            f"value={key[0]:g} scheme={key[1]} analytic={row['sop']:.6e} "
            f"mc={mc_row['sop']:.6e} stderr={stderr:.2e} z={z:+.2f}"
        )
    within = sum(1 for z in z_scores if z <= 3.0)
    passed = bool(z_scores) and within >= math.ceil(0.99 * len(z_scores)) and max(z_scores) <= 5.0
    lines.append(
        f"validation: {within}/{len(z_scores)} points within 3 sigma; "
        f"max |z| = {max(z_scores):.2f} -> {'PASS' if passed else 'FAIL'}"
        if z_scores else "validation: no points -> FAIL"
    )
    return passed, lines


def _sdo_inputs(params: SystemParams, policy: PowerPolicy) -> SdoInputs:
    """A scenario's diversity-order inputs; varpi is None under a fixed split."""
    return SdoInputs(K=params.K, m_r=params.links.source_relay.m, m_u=params.links.m_u, varpi=policy.varpi)


def _run_sdo(cfg: ExperimentConfig, out: str | None) -> None:
    inputs = _sdo_inputs(cfg.params, cfg.policy)
    lines = [("scheme", "sdo")] + [(s.value, format(sdo(s, inputs), "g")) for s in cfg.schemes]
    text = "\n".join(",".join(line) for line in lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noma-secrecy",
        description="Secrecy outage evaluation for relay-assisted NOMA downlinks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("analytic", "closed-form SOP on the config grid"),
        ("simulate", "Monte Carlo SOP on the config grid"),
        ("asymptotic", "high-gain SOP and diversity order on the config grid"),
        ("sweep", "all engines selected in the config"),
        ("validate", "analytic vs Monte Carlo z-score report"),
        ("sdo", "secrecy diversity orders for the configured schemes"),
    ):
        cmd = sub.add_parser(name, help=blurb)
        cmd.add_argument("config", help="path to a JSON scenario file")
        cmd.add_argument("--out", default=None, help="output path (overrides the config's out)")
    return parser


_ENGINE_FOR_COMMAND = {"analytic": ["analytic"], "simulate": ["montecarlo"], "asymptotic": ["asymptotic"]}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    out = args.out if args.out is not None else cfg.out
    try:
        if args.command == "sdo":
            _run_sdo(cfg, out)
            return 0
        if args.command == "validate":
            passed, lines = validate(cfg)
            print("\n".join(lines))
            return 0 if passed else 2
        engines = _ENGINE_FOR_COMMAND.get(args.command)
        rows = run_sweep(cfg, engines=engines)
        write_rows(rows, out)
        return 3 if any(row["error"] for row in rows) else 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - surface numeric failures as exit 3
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
