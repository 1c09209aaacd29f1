"""Spans around calls into the package's public functions, recorded from outside.

A `Recorder` replaces a function in every module namespace that bound it
with `from ... import`, so calls made inside the package go through the
wrapper too. Each call becomes a span (name, start, end, parent) kept in
flat arrays; self time is a span's duration minus the time its child spans
cover. Counters (nodes, terms, bytes, trials, distinct arguments) are taken
at the same boundaries from the calls' arguments and results.
"""
from __future__ import annotations

import hashlib
import importlib
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "noma_relay_secrecy"

# (module, attribute, span name). The light set is what an untraced run
# wraps: the three engine calls, for per-call latency, and `cli.run_sweep`,
# to capture the rows `cli.validate` builds. The full set adds the other CLI
# entry points and the layers below the engines.
LIGHT = (
    ("cli", "run_sweep", "cli.run_sweep"),
    ("cli", "sop_total", "analytic.sop_total"),
    ("cli", "sop_asym_total", "asymptotic.sop_asym_total"),
    ("cli", "estimate_many", "montecarlo.estimate_many"),
)
FULL = LIGHT + (
    ("cli", "load_config", "cli.load_config"),
    ("cli", "validate", "cli.validate"),
    ("cli", "write_rows", "cli.write_rows"),
    ("analytic", "g_kernel", "quadrature.g_kernel"),
    ("asymptotic", "g_kernel", "quadrature.g_kernel"),
    ("analytic", "h_kernel", "quadrature.h_kernel"),
    ("asymptotic", "h_kernel", "quadrature.h_kernel"),
    ("analytic", "jammed_ratio_terms", "channels.jammed_ratio_terms"),
    ("asymptotic", "jammed_ratio_terms", "channels.jammed_ratio_terms"),
    ("channels", "jammed_ratio_terms", "channels.jammed_ratio_terms"),
    ("montecarlo", "sample_gain", "channels.sample_gain"),
    ("montecarlo", "estimate_many", "montecarlo.estimate_many"),
    ("analytic", "delta1", "analytic.delta1"),
    ("analytic", "delta4", "analytic.delta4"),
    ("analytic", "sop_tmrc_cond", "analytic.sop_tmrc_cond"),
    ("asymptotic", "scaled_params", "asymptotic.scaled_params"),
)


def _quad_arg(args, kwargs):
    return kwargs["quad"] if "quad" in kwargs else args[-1]


class Recorder:
    """Spans and counters of the calls made while `active` is true.

    `clocks` maps a span name to a reference loop, timed right before and
    right after each call of that span that is not inside another clocked
    call; the loops run outside the span. A call that follows a call with
    the same clock reuses that call's "after" as its "before".
    `clock_pairs` gives each clocked call its two reference times, and
    `clock_s` is the time all the loops took.
    """

    def __init__(self, clocks=None) -> None:
        self.active = False
        self.clocks = clocks or {}
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.skip = array("d")  # counter time spent inside a span, kept out of its self time
        self.clock_before = array("d")  # 0.0 for a span that was not clocked
        self.clock_after = array("d")
        self.clock_s = 0.0
        self._last_clock: tuple[object, float] | None = None
        self._in_clocked = False
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._digests: set[bytes] = set()
        self._delta1_args: set[str] = set()
        self.captured_rows: list[dict] = []

    # -- installation -------------------------------------------------------

    def install(self, targets) -> None:
        for module_name, attr, span in targets:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, span: str, fn):
        if span not in self._name_ids:
            self._name_ids[span] = len(self._names)
            self._names.append(span)
        sid = self._name_ids[span]
        count = _COUNTERS.get(span)
        clock = self.clocks.get(span)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            clocked = clock is not None and not self._in_clocked
            if clocked:
                last = self._last_clock
                before = last[1] if last is not None and last[0] is clock else self._time_clock(clock)
                self._in_clocked = True
            index = len(self.start)
            self.name_id.append(sid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self.skip.append(0.0)
            self.clock_before.append(before if clocked else 0.0)
            self.clock_after.append(0.0)
            self._stack.append(index)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.start[index] = t0
                self.end[index] = t1
                if clocked:
                    self._in_clocked = False
                    self.clock_after[index] = self._time_clock(clock)
                    self._last_clock = (clock, self.clock_after[index])
            if count is not None:
                count(self, args, kwargs, result)
                parent = self.parent[index]
                if parent >= 0:
                    self.skip[parent] += perf_counter() - t1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _time_clock(self, clock) -> float:
        t0 = perf_counter()
        clock()
        d = perf_counter() - t0
        self.clock_s += d
        return d

    # -- results ------------------------------------------------------------

    def durations(self, span: str) -> list[float]:
        sid = self._name_ids.get(span)
        return [e - s for n, s, e in zip(self.name_id, self.start, self.end) if n == sid]

    def clock_pairs(self, span: str) -> list[tuple[float, float, float]]:
        """(duration, reference before, reference after) per clocked call."""
        sid = self._name_ids.get(span)
        return [(e - s, b, a) for n, s, e, b, a
                in zip(self.name_id, self.start, self.end, self.clock_before, self.clock_after)
                if n == sid and b > 0.0]

    def layers(self) -> dict[str, dict[str, float]]:
        """Calls, total time and self time per span name.

        Self time leaves out the counters' own work (hashing draws, say),
        which runs inside the parent span.
        """
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, n in enumerate(self.name_id):
            rec = out[self._names[n]]
            d = self.end[i] - self.start[i]
            rec["calls"] += 1
            rec["total_s"] += d
            rec["self_s"] += d - child[i] - self.skip[i]
        return dict(out)

    def distinct_draws(self) -> int:
        return len(self._digests)

    def distinct_delta1(self) -> int:
        return len(self._delta1_args)

    def span_records(self):
        """(name, start, end, parent index) for every span, in call order."""
        for n, s, e, p in zip(self.name_id, self.start, self.end, self.parent):
            yield self._names[n], s, e, p


def _count_nodes(rec, args, kwargs, result):
    rec.counts["quadrature.nodes_evaluated"] += _quad_arg(args, kwargs).n


def _count_terms(rec, args, kwargs, result):
    rec.counts["channels.jammed_ratio_terms.terms"] += len(result)


def _count_draw(rec, args, kwargs, result):
    p = args[0]
    # Computed bytes: the m uniforms drawn per gain plus the gains returned.
    rec.counts["channels.sample_gain.bytes"] += (p.m + 1) * result.nbytes
    rec._digests.add(hashlib.sha256(np.ascontiguousarray(result)).digest())


def _count_trials(rec, args, kwargs, result):
    config = args[3] if len(args) > 3 else kwargs["config"]
    rec.counts["montecarlo.trials"] += config.trials
    rec.counts["montecarlo.scheme_trials"] += config.trials * len(result)


def _count_delta1(rec, args, kwargs, result):
    params, policy = args[0], args[1]
    rec._delta1_args.add(f"{params!r}|{policy!r}|{_quad_arg(args, kwargs).n}")


def _capture_rows(rec, args, kwargs, result):
    rec.captured_rows.extend(result)


_COUNTERS = {
    "quadrature.g_kernel": _count_nodes,
    "quadrature.h_kernel": _count_nodes,
    "channels.jammed_ratio_terms": _count_terms,
    "channels.sample_gain": _count_draw,
    "montecarlo.estimate_many": _count_trials,
    "analytic.delta1": _count_delta1,
    "cli.run_sweep": _capture_rows,
}
