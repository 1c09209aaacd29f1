"""Benchmark of the secrecy-outage toolkit on three paper-figure workloads.

    python3 bench/run.py --workload power-sweep --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory. One process is one closed-loop caller: it generates the
workload's CLI configs from the seed, then repeats whole passes
(``cli.load_config``, ``cli.validate`` or ``cli.run_sweep``,
``cli.write_rows``) until the next pass would end past ``--seconds``.

``--trace 0`` reports the end-to-end metrics. Engine and wall times are in
"ref", multiples of a short reference loop timed right before and after each
engine call, and set-up time is on the clock of numpy's own import (see the
note above ``_clocks``); raw seconds are printed beside them. ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics,
which are spans and counters taken around the package's public functions
from outside, plus the single-layer ``micro.*`` timings. Result rows are checked
outside the timed region. The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``attempted`` counts the
rows of one result set and ``failed`` those that raise, are not finite, fall
outside (0, 1] or break a workload rule; the failed rows are listed by name
above it. ``correct`` is false when the run's own invariants break: a pass
with missing rows, CSV bytes that differ between passes or between traced
and untraced passes, or counts that differ between traced passes.

Generated configs, CSVs, ``result.json`` and, when traced, ``spans.jsonl``
go to ``.bench_out/<workload>-trace<0|1>/`` under the checkout root.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 2   # fresh `setup_probe.py` processes at each point between passes, untraced runs only
# Set-up time is reported on a clock set by numpy's own import in the same
# fresh process: seconds on a host where that import takes this long (its
# median on the host the benchmark was tuned on). See the timing note below.
NUMPY_IMPORT_S = 0.1
# At least two passes of each kind, so that every run can compare CSV bytes
# (and, traced, counts) between passes; a traced run starts and ends traced.
MIN_STEPS = {0: 2, 1: 3}
TAIL_BEYOND = 10
# The engine calls a pass is made of, each with the reference loop of its kind.
ENGINE_SPANS = {"analytic.sop_total": "small", "asymptotic.sop_asym_total": "small",
                "montecarlo.estimate_many": "large"}

END_TO_END = {
    "setup_s": "s", "wall_ref": "ref", "analytic_p50_ref": "ref", "analytic_tail_ref": "ref", "peak_rss_mb": "MB",
}
# Every figure an untraced run prints: the gated ones above and those beside them.
REPORT_UNITS = {
    **END_TO_END,
    "setup_raw_s": "s", "wall_s": "s", "reference_small_s": "s", "reference_large_s": "s",
    "analytic_ms_p50": "ms", "analytic_ms_tail": "ms", "asym_ms_p50": "ms", "asym_ms_tail": "ms",
    "asym_p50_ref": "ref", "asym_tail_ref": "ref",
    "analytic_tail_percentile": "%", "asym_tail_percentile": "%",
    "analytic_calls_per_pass": "count", "asym_calls_per_pass": "count",
    "mc_trials_per_s": "1/s", "mc_trials_per_ref": "1/ref",
    "failed_frac": "ratio", "passes": "count",
}
# Spans whose call counts are per-layer metrics.
CALL_COUNTS = (
    "quadrature.g_kernel", "quadrature.h_kernel", "channels.jammed_ratio_terms", "channels.sample_gain",
    "montecarlo.estimate_many", "analytic.sop_total", "analytic.delta1", "analytic.delta4",
    "analytic.sop_tmrc_cond", "asymptotic.sop_asym_total", "asymptotic.scaled_params",
)
# Counts worked out from array sizes and node counts rather than observed.
COMPUTED = ("quadrature.nodes_evaluated", "channels.sample_gain.bytes")
PER_LAYER_SELF = (
    "quadrature.g_kernel", "quadrature.h_kernel", "channels.jammed_ratio_terms", "channels.sample_gain",
    "montecarlo.estimate_many", "analytic.sop_total", "analytic.delta4", "analytic.sop_tmrc_cond",
    "asymptotic.sop_asym_total", "cli.load_config", "cli.run_sweep", "cli.write_rows",
)


def _parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _import_package():
    if not (SRC / "noma_relay_secrecy" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'noma_relay_secrecy'}")
    sys.path.insert(0, str(SRC))
    api = importlib.import_module("noma_relay_secrecy")
    if Path(api.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: imported {api.__file__}, not the checkout's copy")
    return api, importlib.import_module("noma_relay_secrecy.cli")


# -- environment -------------------------------------------------------------


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def _cpu() -> dict:
    info = {"model": platform.processor() or platform.machine(), "caches": {}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                info["caches"][f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


def _environment(np, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
    }


# -- measurement -------------------------------------------------------------


def _probe(script: str, *args) -> dict:
    """The JSON a helper script in this directory prints, run in a fresh process."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name(script)), *map(str, args)],
        capture_output=True, text=True, timeout=150, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _row_order(row):
    return (row["sweep_value"], row["scheme"], row["engine"])


def _run_pass(cli, workload, config_paths, csv_paths, rec):
    """One full result set, CSVs written; returns (wall seconds, per-config results)."""
    rec.reset()
    rec.active = True
    results = []
    try:
        t0 = perf_counter()
        for config_path, csv_path in zip(config_paths, csv_paths):
            cfg = cli.load_config(str(config_path))
            rec.captured_rows = []
            verdict = cli.validate(cfg) if workload.validate else cli.run_sweep(cfg)
            rows = sorted(rec.captured_rows, key=_row_order)
            cli.write_rows(rows, str(csv_path))
            results.append((cfg, rows, verdict if workload.validate else None))
        wall = perf_counter() - t0
    finally:
        rec.active = False
    return wall, results


def _csv_digest(csv_paths) -> str:
    h = hashlib.sha256()
    for path in csv_paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def _tail(samples: list[float]) -> tuple[float, float]:
    """The highest-rank sample with TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


# Timing on a shared host. On the 2-core machine this benchmark was tuned on,
# other tenants switch the code between a fast and a slow mode (about 2x for
# Python driving small numpy arrays) every few hundred milliseconds, and for
# minutes at a time the slow mode prevails; raw seconds moved 15-50% from run
# to run. The fastest repeat of a call across passes is no cure: it was the
# least steady statistic there. What holds is a clock that runs in the same
# mode as the call: every untraced engine call is bracketed by a short
# reference loop of its kind, timed right before and right after it (see
# `spans.Recorder`), and measured in "ref", its duration over the mean of the
# two. Each call's figure is its median over the passes; the time between
# engine calls is measured against the pass's median "small" loop. For one
# 30 ms call this cut the spread of 24-call medians from 23% to 4%. The
# loops' own time is left out of every figure; raw seconds are printed beside.
# Set-up time is a fresh process's import and parse, which the small loop
# tracks poorly (their per-process ratio spread 24% there). Numpy's import in
# the same process tracks it closely (4%), and no change to the package can
# move it, so `setup_s` is each `setup_probe.py` run's set-up divided by its
# numpy import, times NUMPY_IMPORT_S, and the median of those.


def _clocks(np) -> dict:
    """The reference loops, by kind. "small" drives 300-node numpy arrays
    from Python, as the g/h kernels do; "large" draws and reduces 250k x 2
    arrays, as one simulator chunk does. Both touch nothing of the package."""
    x = np.linspace(0.001, 1.0, 300)
    rng = np.random.default_rng(0)

    def small() -> None:
        acc = 0.0
        for k in range(100):
            acc += float(np.dot(x, np.exp(-(k % 400) * 0.01 * x) * np.log1p(x)))

    def large() -> None:
        g = -np.log1p(-rng.random((2, 250_000, 2))).sum(axis=0)
        int(((g > 0.5) & (g < 2.0)).any(axis=1).sum())

    return {"small": small, "large": large}


def _typical(per_pass: list[list[float]]) -> list[float]:
    """Each call's median across passes, matching calls by position."""
    return [statistics.median(repeats) for repeats in zip(*per_pass)]


def _latency(ms: list[float], ref: list[float], label: str) -> dict:
    """p50 and tail over a pass's calls, in ms and in ref."""
    if not ms:
        return {}
    tail_ms, percentile = _tail(ms)
    return {
        f"{label}_ms_p50": 1e3 * statistics.median(ms),
        f"{label}_ms_tail": 1e3 * tail_ms,
        f"{label}_p50_ref": statistics.median(ref),
        f"{label}_tail_ref": _tail(ref)[0],
        f"{label}_tail_percentile": percentile,
        f"{label}_calls_per_pass": len(ms),
    }


def _loop(seconds: float, kinds, min_steps: int, step) -> None:
    """Run `step(kind)`, cycling through `kinds`, until at least `min_steps`
    steps have run and the next one would likely end past `seconds`."""
    walls = {kind: [] for kind in kinds}
    start = perf_counter()
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        walls[kind].append(step(kind))
        i += 1
        following = walls[kinds[i % len(kinds)]] or walls[kind]
        if i >= min_steps and perf_counter() - start + statistics.median(following) > seconds:
            return


# -- main --------------------------------------------------------------------


def main(argv=None) -> int:
    args = _parse_args(argv)
    # One closed-loop caller and no worker threads, numpy's own included.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    api, cli = _import_package()
    import numpy as np

    import micro
    from spans import FULL, LIGHT, Recorder
    from workloads import WORKLOADS, check_rows, expected_rows, row_name

    workload = WORKLOADS[args.workload](args.seed)
    out_dir = ROOT / ".bench_out" / f"{workload.name}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    config_paths = []
    for i, config in enumerate(workload.configs):
        path = out_dir / f"config-{i:02d}.json"
        path.write_text(json.dumps(config.body, indent=1) + "\n")
        config_paths.append(path)
    csv_of = {kind: [out_dir / f"{kind}-{i:02d}.csv" for i in range(len(config_paths))]
              for kind in ("untraced", "traced")}

    report: dict = {"workload": workload.name, "trace": args.trace, "seconds": args.seconds,
                    "env": _environment(np, args.seed)}
    invariants: list[str] = []
    metrics: dict[str, float] = {}

    t0 = perf_counter()
    micro_ms = micro.run(api, args.seed) if args.trace == 1 else {}
    budget = args.seconds - (perf_counter() - t0)
    clocks = _clocks(np)
    recorders = {"untraced": (Recorder({name: clocks[kind] for name, kind in ENGINE_SPANS.items()}), LIGHT),
                 "traced": (Recorder(), FULL)}
    passes: dict[str, list[dict]] = {"untraced": [], "traced": []}
    setup: list[dict[str, float]] = []

    def between_passes() -> None:
        if args.trace == 0:
            setup.extend(_probe("setup_probe.py", SRC, *config_paths) for _ in range(SETUP_REPEATS))

    def step(kind: str) -> float:
        rec, targets = recorders[kind]
        between_passes()
        rec.install(targets)
        try:
            wall, results = _run_pass(cli, workload, config_paths, csv_of[kind], rec)
        finally:
            rec.uninstall()
        traced = kind == "traced"
        record = {
            "wall": wall - rec.clock_s,
            "results": results,
            "digest": _csv_digest(csv_of[kind]),
            "calls": {name: rec.durations(name) for name in ENGINE_SPANS},
            "scheme_trials": rec.counts["montecarlo.scheme_trials"],
            "layers": rec.layers() if traced else None,
            "counts": _layer_counts(rec, results) if traced else None,
        }
        if not traced:
            record["ratios"] = {}
            clock_times: dict[str, list[float]] = {}
            for name, clock in ENGINE_SPANS.items():
                pairs = rec.clock_pairs(name)
                record["ratios"][name] = [d / (0.5 * (b + a)) for d, b, a in pairs]
                clock_times.setdefault(clock, []).extend(t for _, b, a in pairs for t in (b, a))
            record["clock_s"] = {clock: statistics.median(ts) for clock, ts in clock_times.items() if ts}
        passes[kind].append(record)
        return wall

    kinds = ("untraced",) if args.trace == 0 else ("traced", "untraced")
    _loop(budget, kinds, MIN_STEPS[args.trace], step)
    between_passes()
    if args.trace == 1:
        _write_spans(recorders["traced"][0], out_dir / "spans.jsonl")
    else:
        # One more pass, in a process that holds nothing but it, for memory.
        rss = _probe("rss_probe.py", workload.name, args.seed, out_dir)

    # -- invariants and row checks (outside every timed region) -------------
    base = passes["untraced"]
    for kind in kinds:
        if len({p["digest"] for p in passes[kind]} | {base[0]["digest"]}) != 1:
            invariants.append(f"{kind} CSV bytes differ between passes or from the first untraced pass")
        for name in ENGINE_SPANS:
            if len({len(p["calls"][name]) for p in passes[kind]}) != 1:
                invariants.append(f"{kind} passes make different numbers of {name} calls")
    final = base[-1]["results"]
    attempted = 0
    failed_rows: list[str] = []
    for config, (cfg, rows, _) in zip(workload.configs, final):
        want = expected_rows(config.body)
        if len(rows) != want:
            invariants.append(f"{config.label}: {len(rows)} rows, expected {want}")
        attempted += len(rows)
        for i, reasons in sorted(check_rows(workload, config, cfg, rows, api, cli).items()):
            failed_rows.append(f"{row_name(workload.name, config, rows[i])}: {'; '.join(reasons)}")
    if workload.validate:
        report["validate"] = [verdict[1][-1] for _, _, verdict in final]

    # -- metrics ---------------------------------------------------------------
    seconds = {name: _typical([p["calls"][name] for p in base]) for name in ENGINE_SPANS}
    ratios = {name: _typical([p["ratios"][name] for p in base]) for name in ENGINE_SPANS}
    if setup:
        metrics["setup_s"] = NUMPY_IMPORT_S * statistics.median(p["setup_s"] / p["numpy_import_s"] for p in setup)
        metrics["setup_raw_s"] = statistics.median(p["setup_s"] for p in setup)
        report["setup_probes"] = setup
    for kind in ("small", "large"):
        if all(kind in p["clock_s"] for p in base):
            metrics[f"reference_{kind}_s"] = statistics.median(p["clock_s"][kind] for p in base)
    between_ref = statistics.median(
        (p["wall"] - sum(sum(p["calls"][name]) for name in ENGINE_SPANS)) / p["clock_s"]["small"] for p in base)
    metrics["wall_s"] = statistics.median(p["wall"] for p in base)
    metrics["wall_ref"] = sum(sum(r) for r in ratios.values()) + between_ref
    metrics.update(_latency(seconds["analytic.sop_total"], ratios["analytic.sop_total"], "analytic"))
    metrics.update(_latency(seconds["asymptotic.sop_asym_total"], ratios["asymptotic.sop_asym_total"], "asym"))
    if seconds["montecarlo.estimate_many"]:
        trials = base[0]["scheme_trials"]
        metrics["mc_trials_per_s"] = trials / sum(seconds["montecarlo.estimate_many"])
        metrics["mc_trials_per_ref"] = trials / sum(ratios["montecarlo.estimate_many"])
    if args.trace == 0:
        metrics["peak_rss_mb"] = rss["peak_rss_mb"]
        if rss["digest"] != base[0]["digest"]:
            invariants.append("the memory pass wrote other CSV bytes than the timed passes")
    metrics["failed_frac"] = len(failed_rows) / attempted
    metrics["passes"] = len(base)

    if args.trace == 1:
        traced = passes["traced"]
        counts = [p["counts"] for p in traced]
        if any(c != counts[0] for c in counts[1:]):
            invariants.append("per-layer counts differ between traced passes")
        layer_metrics = dict(counts[0])
        for name in PER_LAYER_SELF:
            # 0 on a workload that makes no such call.
            layer_metrics[f"{name}.self_s"] = min(p["layers"].get(name, {"self_s": 0.0})["self_s"] for p in traced)
        layer_metrics["trace.overhead_s"] = statistics.median(p["wall"] for p in traced) - metrics["wall_s"]
        layer_metrics.update(micro_ms)
        bad = [k for k, v in micro_ms.items() if not (math.isfinite(v) and v > 0)]
        if bad:
            invariants.append(f"micro timings not positive: {bad}")
        report["layers"] = traced[-1]["layers"]
        report["per_layer"] = layer_metrics
        report["computed_counts"] = list(COMPUTED)
        final_metrics = layer_metrics
        units = {k: _layer_unit(k) for k in layer_metrics}
    else:
        final_metrics = {k: metrics[k] for k in END_TO_END}
        units = dict(END_TO_END)

    report["metrics"] = metrics
    report["passes"] = [{"kind": kind, "wall_s": p["wall"]} for kind in kinds for p in passes[kind]]
    report["failed_rows"] = failed_rows
    report["invariants_broken"] = invariants
    (out_dir / "result.json").write_text(json.dumps(report, indent=1, default=str) + "\n")

    print(f"env {json.dumps(report['env'])}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {REPORT_UNITS[name]}")
    if args.trace == 1:
        for name, value in final_metrics.items():
            tag = " (computed)" if name in COMPUTED else ""
            print(f"{name} {value:.6g} {units[name]}{tag}")
    for line in report.get("validate", []):
        print(line)
    for line in failed_rows:
        print(f"FAILED {line}")
    for line in invariants:
        print(f"INVARIANT BROKEN {line}")
    print(json.dumps({
        "correct": not invariants,
        "attempted": attempted,
        "failed": len(failed_rows),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in final_metrics.items()},
    }))
    return 0


def _layer_counts(rec, results) -> dict[str, float]:
    layers = rec.layers()
    out = {}
    for name in CALL_COUNTS:
        out[f"{name}.calls"] = layers[name]["calls"] if name in layers else 0
    out["quadrature.nodes_evaluated"] = rec.counts["quadrature.nodes_evaluated"]
    out["channels.jammed_ratio_terms.terms"] = rec.counts["channels.jammed_ratio_terms.terms"]
    draws = out["channels.sample_gain.calls"]
    out["montecarlo.distinct_draw_ratio"] = rec.distinct_draws() / draws if draws else 0.0
    out["channels.sample_gain.bytes"] = rec.counts["channels.sample_gain.bytes"]
    out["montecarlo.trials"] = rec.counts["montecarlo.trials"]
    delta1_calls = out["analytic.delta1.calls"]
    out["analytic.delta1.distinct_ratio"] = rec.distinct_delta1() / delta1_calls if delta1_calls else 0.0
    rows = [row for _, rs, _ in results for row in rs]
    out["cli.rows"] = len(rows)
    out["cli.error_rows"] = sum(1 for row in rows if row["error"])
    return out


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _write_spans(rec, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, start, end, parent) in enumerate(rec.span_records()):
            fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end, "parent": parent}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
