"""Per-layer measurement for the traced run, taken from outside each layer.

Three sources, none of which changes program code:

* the program's own spans (``repro.obs.trace``), reduced to *self time*:
  a span's duration minus the part of it its child spans cover;
* the program's metrics registry (``repro.obs.metrics.REGISTRY``);
* wrappers the benchmark installs around public functions for the
  length of a traced window (``scipy.optimize.minimize``,
  ``ResultCache.get_many``, ``ChunkedResultStore.put``,
  ``SweepProgress.append``, ``virtual_measurement``), removed again
  afterwards so untraced passes run the unwrapped code.
"""

from __future__ import annotations

import statistics
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Mapping, Tuple

import scipy.optimize

#: Every per-layer metric with its unit, in the order they are printed.
PER_LAYER_UNITS: Dict[str, str] = {
    "core.compile_s": "s",
    "core.select_s": "s",
    "core.refine_s": "s",
    "core.integerize_s": "s",
    "core.parallel_plan_s": "s",
    "core.slsqp_runs": "count",
    "core.slsqp_iters": "count",
    "core.objective_evals": "count",
    "core.jacobian_evals": "count",
    "core.compile_cache_misses": "count",
    "engine.network_self_s": "s",
    "engine.cache_get_us": "us",
    "engine.cache_hits": "count",
    "engine.store_put_us": "us",
    "engine.store_bytes": "bytes",
    "serving.queue_wait_us": "us",
    "serving.coalesce_us": "us",
    "serving.solve_us": "us",
    "serving.respond_us": "us",
    "serving.wire_us": "us",
    "serving.solves": "count",
    "dse.candidate_ms": "ms",
    "dse.progress_append_ms": "ms",
    "dse.frontier_ms": "ms",
    "baselines.search_ms": "ms",
    "sim.measure_calls": "count",
    "sim.measure_ms": "ms",
    "obs.overhead_pct": "%",
}

#: Solver phase spans and the metric their summed self time feeds.
_SOLVE_PHASES = {
    "solve.compile": "core.compile_s",
    "solve.select": "core.select_s",
    "solve.refine": "core.refine_s",
    "solve.integerize": "core.integerize_s",
    "solve.parallel_plan": "core.parallel_plan_s",
}

#: Span the wrapper around ``virtual_measurement`` records, so the
#: self time of the baseline's ``strategy.search`` excludes simulation.
SIM_SPAN = "bench.sim.measure"


def self_times(records: List[Mapping[str, Any]]) -> List[Tuple[Mapping[str, Any], float]]:
    """Each span record with its self time in seconds.

    Self time is the span's duration minus the union of the intervals of
    its direct children, clipped to the span.  Spans whose parent is not
    in ``records`` (roots, or children of dropped context) count whole.
    """
    children: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for rec in records:
        if rec.get("parent_id"):
            start = rec["start_s"]
            children[rec["parent_id"]].append((start, start + rec["duration_s"]))
    out = []
    for rec in records:
        start, dur = rec["start_s"], rec["duration_s"]
        end = start + dur
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get(rec["span_id"], ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((rec, max(dur - covered, 0.0)))
    return out


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


class LayerProbe:
    """Counts and timings gathered by wrappers around public functions."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._undo: List[Callable[[], None]] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.timings: Dict[str, List[float]] = defaultdict(list)

    def _add(self, timing: str, seconds: float, **counts: int) -> None:
        with self._lock:
            self.timings[timing].append(seconds)
            for name, amount in counts.items():
                self.counts[name] += amount

    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._undo.append(lambda: setattr(owner, attr, original))

    def install(self) -> None:
        """Wrap the public functions; :meth:`uninstall` restores them."""
        from repro.dse.explorer import SweepProgress
        from repro.engine.cache import ResultCache
        from repro.engine.chunk_store import ChunkedResultStore
        from repro.obs import trace as obs_trace
        from repro.sim import perfmodel

        probe = self

        def timed(name: str, count: Callable[[Any], Dict[str, int]] = None):
            def make(original):
                def wrapper(*args, **kwargs):
                    start = time.perf_counter()
                    result = original(*args, **kwargs)
                    probe._add(
                        name,
                        time.perf_counter() - start,
                        **(count(result) if count else {}),
                    )
                    return result
                return wrapper
            return make

        self._patch(scipy.optimize, "minimize", timed(
            "minimize",
            lambda res: {
                "slsqp_runs": 1,
                "slsqp_iters": int(getattr(res, "nit", 0)),
                "objective_evals": int(getattr(res, "nfev", 0)),
                "jacobian_evals": int(getattr(res, "njev", 0)),
            },
        ))
        self._patch(ResultCache, "get_many", timed(
            "cache_get",
            lambda found: {"cache_hits": sum(v is not None for v in found.values())},
        ))
        self._patch(ChunkedResultStore, "put", timed("store_put"))
        self._patch(SweepProgress, "append", timed("progress_append"))

        original_measure = perfmodel.virtual_measurement

        def measured(*args, **kwargs):
            start = time.perf_counter()
            with obs_trace.span(SIM_SPAN):
                result = original_measure(*args, **kwargs)
            probe._add("sim", time.perf_counter() - start, sim_calls=1)
            return result

        # Modules bind the function at import (`from ... import`), so the
        # wrapper replaces every binding of the original.
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if (name == "repro" or name.startswith("repro.")) and getattr(
                module, "virtual_measurement", None
            ) is original_measure:
                self._patch(module, "virtual_measurement", lambda _o: measured)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def per_layer_metrics(
    records: List[Mapping[str, Any]],
    probe: LayerProbe,
    *,
    compile_cache_misses: int = 0,
    store_bytes: int = 0,
    serving_solves: int = 0,
    frontier_s: float = 0.0,
    overhead_pct: float = 0.0,
) -> Dict[str, float]:
    """Every per-layer metric from one traced window's spans and wrappers.

    Summed self times cover the window (``*_s``, ``baselines.search_ms``,
    ``sim.measure_ms``); ``*_us`` and ``dse.*_ms`` figures are medians
    per call, per request or per candidate.  A layer the workload does
    not reach reads 0.
    """
    spans = self_times(records)

    def self_of(name: str, strategy: str = "") -> List[float]:
        return [
            self_s for rec, self_s in spans
            if rec["name"] == name
            and (not strategy or (rec.get("attrs") or {}).get("strategy") == strategy)
        ]

    counts, timings = probe.counts, probe.timings
    out: Dict[str, float] = {
        metric: sum(self_of(span_name)) for span_name, metric in _SOLVE_PHASES.items()
    }
    out.update({
        "core.slsqp_runs": counts["slsqp_runs"],
        "core.slsqp_iters": counts["slsqp_iters"],
        "core.objective_evals": counts["objective_evals"],
        "core.jacobian_evals": counts["jacobian_evals"],
        "core.compile_cache_misses": compile_cache_misses,
        "engine.network_self_s": sum(self_of("network.optimize")),
        "engine.cache_get_us": _median(timings["cache_get"]) * 1e6,
        "engine.cache_hits": counts["cache_hits"],
        "engine.store_put_us": _median(timings["store_put"]) * 1e6,
        "engine.store_bytes": store_bytes,
    })
    out.update(_serving_medians(records))
    out.update({
        "serving.solves": serving_solves,
        "dse.candidate_ms": _median(self_of("dse.candidate")) * 1e3,
        "dse.progress_append_ms": _median(timings["progress_append"]) * 1e3,
        "dse.frontier_ms": frontier_s * 1e3,
        "baselines.search_ms": sum(self_of("strategy.search", "onednn")) * 1e3,
        "sim.measure_calls": counts["sim_calls"],
        "sim.measure_ms": sum(timings["sim"]) * 1e3,
        "obs.overhead_pct": overhead_pct,
    })
    return out


def _serving_medians(records: List[Mapping[str, Any]]) -> Dict[str, float]:
    """Per-request medians of the server's child spans and of the wire time.

    A request without a given child span (a warm request never enters
    ``serving.solve``) counts 0 for it.
    """
    requests = {r["span_id"]: r for r in records if r["name"] == "serving.request"}
    parts: Dict[str, Dict[str, float]] = {sid: {} for sid in requests}
    for rec in records:
        parent = rec.get("parent_id")
        if parent in parts and rec["name"].startswith("serving."):
            key = rec["name"].split(".", 1)[1]
            parts[parent][key] = parts[parent].get(key, 0.0) + rec["duration_s"]
    clients = {
        r["span_id"]: r["duration_s"]
        for r in records
        if r["name"] == "serving.client.request"
    }
    wire = [
        clients[req["parent_id"]] - req["duration_s"]
        for req in requests.values()
        if req.get("parent_id") in clients
    ]
    out = {
        f"serving.{key}_us": _median([p.get(key, 0.0) for p in parts.values()]) * 1e6
        for key in ("queue_wait", "coalesce", "solve", "respond")
    }
    out["serving.wire_us"] = _median(wire) * 1e6
    return out
