#!/usr/bin/env python3
"""The repository's benchmark: cold-tune, warm-serve and dse-sweep.

Run from the repository root (the program is imported from ``src/``)::

    python3 perfbench/run.py --workload cold-tune --seed 1 --seconds 25 --trace 0

Every run prints a host-speed probe, its attempted/failed operation
counts and a digest of its answers, then, as its last line, one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  See
``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Sequence, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
from probe import probe  # noqa: E402

WORKLOADS = ("cold-tune", "warm-serve", "dse-sweep")
MACHINE = "i7-9700k"
NETWORKS = ("yolo9000", "resnet18", "mobilenet")
#: Closed-loop warm-serve connections: one per core of the 2-vCPU host.
CONNECTIONS = 2
#: Rounds each warm-serve connection sends per pass.  A round asks once
#: for every Table-1 network and once for every Table-1 operator, in a
#: seeded order: 35 requests, 3 of them whole networks.  The repository
#: records no request mix to copy (its serving demo asks for whole
#: networks or their first layers), so this composition is an
#: assumption; the per-kind latencies are reported apart so no figure
#: rests on it alone.
PASS_ROUNDS = 17
#: The strategy the warm-serve server solves its set-up requests with.
SERVE_STRATEGY = "onednn"
KiB, MiB = 1024, 1024 * 1024
#: The dse-sweep design space around the i7-9700K (3*4*3*2*2 = 144 machines,
#: ~3.5 s a pass, so a 25 s run makes seven or eight whole passes; DRAM stays below
#: the preset's 38 GB/s all-core figure, which a valid machine may not
#: undercut).
DSE_AXES = (
    ("caches.L1.capacity_bytes", (16 * KiB, 32 * KiB, 64 * KiB)),
    ("caches.L2.capacity_bytes", (128 * KiB, 256 * KiB, 512 * KiB, 1 * MiB)),
    ("caches.L3.capacity_bytes", (6 * MiB, 12 * MiB, 24 * MiB)),
    ("cores", (4, 8)),
    ("dram_bandwidth_gbps", (12.0, 30.0)),
)
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "op_latency_p50_ms": "ms",
    "net_latency_p50_ms": "ms",
    "gflops_geomean": "GFLOPS",
}
#: Tracing on or off for each comparison solve or pass that makes
#: ``obs.overhead_pct``: interleaved, so a drift of the host's speed
#: lands on both sides.
OVERHEAD_ORDER = (False, True, True, False, False, True)
#: Set-ups ``setup_s`` is the median of: the run's own and those of
#: fresh processes that stop when set-up ends (``--setup-only``).
SETUPS = 3


class SetupOnly(Exception):
    """Raised at the end of set-up in a ``--setup-only`` process."""


# ----------------------------------------------------------------------
# shared harness
# ----------------------------------------------------------------------
class Run:
    """State of one benchmark run: timing, operation counts, check results."""

    def __init__(self, args: argparse.Namespace, work: Path) -> None:
        self.seed: int = args.seed
        self.seconds: float = args.seconds
        self.traced: bool = bool(args.trace)
        self.setup_only: bool = args.setup_only
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.problems: List[str] = []
        self.setup_s = 0.0
        self.probe_before: Dict[str, float] = {}
        self.measure_start = 0.0
        self.records: List[Dict[str, Any]] = []
        self.layer_probe = layers.LayerProbe()
        self.digest = hashlib.sha256()

    def setup_done(self) -> None:
        """End of set-up: probe the host, then start the measured passes."""
        self.setup_s = time.perf_counter() - START
        if self.setup_only:
            raise SetupOnly
        self.probe_before = probe()
        self.measure_start = time.perf_counter()

    def more_passes(self) -> bool:
        """Whether another whole pass starts (one always runs)."""
        return time.perf_counter() - self.measure_start < self.seconds

    def check(self, problems: Sequence[str]) -> None:
        self.problems.extend(problems)

    def fail(self, operations: int, why: str) -> None:
        """Count failed operations; they are left out of the answer checks."""
        self.failed += operations
        self.failures.append(why)

    def record_answers(self, answers: Any) -> None:
        self.digest.update(json.dumps(answers, sort_keys=True).encode())

    @contextmanager
    def traced_window(self):
        """Tracing and the per-layer wrappers on for the block (traced runs)."""
        if not self.traced:
            yield
            return
        from repro.obs import trace as obs_trace

        obs_trace.enable(ring_size=1 << 20)
        self.layer_probe.install()
        try:
            yield
        finally:
            self.layer_probe.uninstall()
            obs_trace.disable()
            self.records.extend(obs_trace.drain())


@contextmanager
def _tracing(on: bool):
    """The program's tracing on for the block, its records dropped.

    Only the spans: the per-layer wrappers stay off, so comparing such
    blocks with and without tracing measures what tracing costs.
    """
    if not on:
        yield
        return
    from repro.obs import trace as obs_trace

    obs_trace.enable(ring_size=1 << 20)
    try:
        yield
    finally:
        obs_trace.disable()
        obs_trace.drain()


def _median(values: Sequence[float]) -> float:
    return statistics.median(values)


def _p99(values: Sequence[float]) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def _geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _disk_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _layer(spec: Any) -> Dict[str, Any]:
    """A ConvSpec's inputs as the plain dict the checks work on."""
    return {
        "name": spec.name, "batch": spec.batch, "k": spec.out_channels,
        "c": spec.in_channels, "in_h": spec.in_height, "in_w": spec.in_width,
        "r": spec.kernel_h, "s": spec.kernel_w, "stride": spec.stride,
        "dilation": spec.dilation, "padding": spec.padding,
    }


def _shape(layer: Dict[str, Any]) -> str:
    return ",".join(str(v) for k, v in sorted(layer.items()) if k != "name")


def _table1() -> Dict[str, List[Any]]:
    from repro.workloads.benchmarks import network_benchmarks

    return {net: network_benchmarks(net) for net in NETWORKS}


def _tuned_answer(op: Any, tiles: Dict[str, Dict[str, float]]) -> List[Any]:
    """One operator's answer in a form that compares bitwise and hashes."""
    return [op.name, op.gflops, op.time_seconds,
            sorted((lvl, sorted(t.items())) for lvl, t in tiles.items())]


def _check_repeat(run: Run, previous: Dict[str, Any], current: Dict[str, Any]) -> None:
    """Answers (name -> answer) repeat bitwise where both runs answered."""
    common = [name for name in previous if name in current]
    run.check(checks.check_repeat(
        [previous[n] for n in common], [current[n] for n in common]
    ))


# ----------------------------------------------------------------------
# cold-tune
# ----------------------------------------------------------------------
def cold_tune(run: Run) -> Tuple[Dict[str, float], Dict[str, float]]:
    from repro.api import Session
    from repro.core.cost_model import DEFAULT_COMPILE_CACHE
    from repro.obs import metrics as obs_metrics

    table = _table1()
    order = list(NETWORKS)
    random.Random(run.seed).shuffle(order)
    flat = [spec for net in order for spec in table[net]]
    pick = flat[run.seed % len(flat)]
    run.setup_done()

    def session() -> Any:
        DEFAULT_COMPILE_CACHE.clear()
        return Session(MACHINE, "mopt", strategy_options={"measure": False})

    def answer(spec: Any, op: Any) -> List[Any]:
        layer = _layer(spec)
        tiles = {lvl: op.best_config.tiles(lvl) for lvl in op.best_config.levels}
        run.check(checks.check_tiles(layer, tiles))
        run.check(checks.check_figures(layer, op.gflops, op.time_seconds))
        return _tuned_answer(op, tiles)

    def one_pass() -> Dict[str, Any]:
        tuner = session()
        latencies, op_latencies, answers = [], [], {}
        solved = 0
        start = time.perf_counter()
        for net in order:
            run.attempted += len(table[net])
            t = time.perf_counter()
            try:
                result = tuner.optimize(net)
            except Exception as exc:  # the network's operators failed
                run.fail(len(table[net]), f"{net}: {exc!r}")
                continue
            latencies.append(time.perf_counter() - t)
            op_latencies.extend(op.search_seconds for op in result.operators)
            solved += len({op.shape_key for op in result.operators})
            for spec, op in zip(table[net], result.operators):
                answers[spec.name] = answer(spec, op)
        wall = time.perf_counter() - start
        return {
            "rate": solved / wall,
            "requests_per_s": len(latencies) / wall,
            "latencies": latencies,
            "op_latencies": op_latencies,
            "answers": answers,
        }

    def solve_one(traced: bool) -> None:
        """The seeded operator alone, from cold caches; keeps its solve time."""
        tuner = session()
        run.attempted += 1
        with _tracing(traced):
            t = time.perf_counter()
            try:
                op = tuner.optimize(pick)
            except Exception as exc:
                run.fail(1, f"{pick.name}: {exc!r}")
                return
            wall = time.perf_counter() - t
        _check_repeat(run, passes[0]["answers"], {pick.name: answer(pick, op)})
        solo[traced].append(wall)

    passes = []
    with run.traced_window():
        passes.append(one_pass())
    # The pass cleared the compile cache, counters included, before it ran.
    misses = obs_metrics.snapshot()["compile_cache"]["misses"]
    while not run.traced and run.more_passes():
        passes.append(one_pass())
    for previous, current in zip(passes, passes[1:]):
        _check_repeat(run, previous["answers"], current["answers"])
    # The seeded operator again through the single-operator door: a run
    # of one pass still shows whether answers repeat.  A traced run
    # solves it several times, interleaving traced and untraced solves,
    # for the tracing overhead.
    solo: Dict[bool, List[float]] = {False: [], True: []}
    for traced in (OVERHEAD_ORDER if run.traced else (False,)):
        solve_one(traced)
    run.record_answers(sorted(passes[0]["answers"].items()))

    answers = passes[0]["answers"].values()
    metrics = {
        "ops_per_s": _median([p["rate"] for p in passes]),
        "requests_per_s": _median([p["requests_per_s"] for p in passes]),
        "latency_p50_ms": _median([_median(p["latencies"]) for p in passes]) * 1e3,
        "latency_p99_ms": _median([_p99(p["latencies"]) for p in passes]) * 1e3,
        "op_latency_p50_ms": _median([_median(p["op_latencies"]) for p in passes]) * 1e3,
        "net_latency_p50_ms": _median([_median(p["latencies"]) for p in passes]) * 1e3,
        "gflops_geomean": _geomean([a[1] for a in answers]),
        "peak_rss_mb": _peak_rss_mb(),
    }
    per_layer = {}
    if run.traced:
        per_layer = layers.per_layer_metrics(
            run.records, run.layer_probe,
            compile_cache_misses=misses,
            overhead_pct=(_median(solo[True]) / _median(solo[False]) - 1) * 100,
        )
    return metrics, per_layer


# ----------------------------------------------------------------------
# warm-serve
# ----------------------------------------------------------------------
def _request_mix(seed: int, table: Dict[str, List[Any]]) -> List[List[Tuple[str, Any]]]:
    """Per connection, the seeded list of requests it sends every pass."""
    rng = random.Random(seed)
    round_ = [("net", net) for net in NETWORKS]
    round_ += [("op", spec) for net in NETWORKS for spec in table[net]]
    mix = []
    for _ in range(CONNECTIONS):
        requests = []
        for _ in range(PASS_ROUNDS):
            rng.shuffle(round_)
            requests.extend(round_)
        mix.append(requests)
    return mix


async def _start_server():
    """The server under test, in this process, built as the CLI builds it.

    ``python -m repro serve --strategy onednn`` with the other defaults:
    ``threads=8``, an in-memory result cache, queue 64, 4 workers, 4
    solve threads; clients reach it over loopback TCP.  The ``onednn``
    strategy fills the cache in about a second where ``mopt`` takes
    ~50 s for the same 32 operators (cold-tune measures that solve); the
    timed passes only read the cache.  The server shares the load
    generator's event loop: with the server in a second process the
    two-process ping-pong on a 2-vCPU host turned every stolen time
    slice into a stall of both sides (passes of one run spread 17% in
    rate and 57% in p99, against 7% and 6% in-process on the same host).
    """
    from repro.engine.cache import ResultCache
    from repro.machine.presets import get_machine
    from repro.serving.server import OptimizationServer, ServerConfig, start_tcp_server

    server = OptimizationServer(
        get_machine(MACHINE), SERVE_STRATEGY,
        strategy_options={"threads": 8},
        cache=ResultCache(),
        config=ServerConfig(max_queue_depth=64, workers=4, solve_threads=4),
    )
    await server.start()
    tcp = await start_tcp_server(server, "127.0.0.1", 0)
    return server, tcp, tcp.sockets[0].getsockname()[1]


async def _warm_serve(run: Run) -> Tuple[Dict[str, float], Dict[str, float]]:
    from repro.serving.client import ServingTimeoutError, TCPServingClient
    from repro.serving.server import (
        DeadlineExpiredError, RequestFailedError, ServerOverloadedError,
    )

    serving_errors = (
        ServingTimeoutError, DeadlineExpiredError, RequestFailedError,
        ServerOverloadedError,
    )
    table = _table1()
    mix = _request_mix(run.seed, table)
    layer_of = {spec.name: _layer(spec) for net in NETWORKS for spec in table[net]}
    clients: List[Any] = []
    server = tcp = None

    async def request(client: Any, kind: str, item: Any) -> Optional[Tuple[float, Any]]:
        """One request, timed at the client; None when it failed."""
        specs = table[item] if kind == "net" else [item]
        run.attempted += 1
        t = time.perf_counter()
        try:
            response = await client.optimize(item if kind == "net" else [item])
        except serving_errors as exc:
            run.fail(1, f"{kind} {getattr(item, 'name', item)}: {exc!r}")
            return None
        latency = time.perf_counter() - t
        if checks.response_failed(response.degraded, len(response.operators), len(specs)):
            run.fail(1, f"response {response.request_id} is degraded or short")
            return None
        return latency, response

    try:
        with run.traced_window():
            server, tcp, port = await _start_server()
            for _ in range(CONNECTIONS):
                clients.append(await TCPServingClient.connect("127.0.0.1", port, timeout_s=120))
            # Set-up: every Table-1 network once, concurrently, from cold.
            warm = await asyncio.gather(*(
                request(clients[i % CONNECTIONS], "net", net) for i, net in enumerate(NETWORKS)
            ))
            reference: Dict[str, Tuple[float, float]] = {}
            for net, done in zip(NETWORKS, warm):
                if done is None:
                    continue
                for spec, fig in zip(table[net], done[1].operators):
                    layer = layer_of[spec.name]
                    reference[_shape(layer)] = (fig.gflops, fig.time_seconds)
                    run.check(checks.check_figures(layer, fig.gflops, fig.time_seconds))
            solves = server.stats.solves
            if solves != len(reference):
                run.problems.append(
                    f"set-up made {solves} solves for {len(reference)} distinct operators"
                )
            run.setup_done()

            async def one_pass() -> Dict[str, Any]:
                async def connection(client, requests):
                    out = []
                    for kind, item in requests:
                        done = await request(client, kind, item)
                        if done is not None:
                            out.append((done[0], kind, item, done[1]))
                    return out

                start = time.perf_counter()
                done = await asyncio.gather(*(
                    connection(c, r) for c, r in zip(clients, mix)
                ))
                wall = time.perf_counter() - start
                flat = [x for per_conn in done for x in per_conn]
                for _, kind, item, response in flat:
                    served = [layer_of[s.name] for s in (table[item] if kind == "net" else [item])]
                    run.check(checks.check_served_layers(
                        ((_shape(l), (f.gflops, f.time_seconds))
                         for l, f in zip(served, response.operators)),
                        reference,
                    ))
                    if kind == "net":
                        run.check(checks.check_network_total(
                            response.total_gflops,
                            [2 * checks.macs(l) for l in served],
                            [f.time_seconds for f in response.operators],
                        ))
                latencies = [x[0] for x in flat]
                return {
                    "rate": len(flat) / wall,
                    "ops_rate": sum(len(x[3].operators) for x in flat) / wall,
                    "p50": _median(latencies),
                    "p99": _p99(latencies),
                    "op_p50": _median([x[0] for x in flat if x[1] == "op"]),
                    "net_p50": _median([x[0] for x in flat if x[1] == "net"]),
                }

            passes = [await one_pass()]
        per_layer = {}
        if run.traced:
            from repro.obs import metrics as obs_metrics

            per_layer = layers.per_layer_metrics(
                run.records, run.layer_probe,
                compile_cache_misses=obs_metrics.snapshot()["compile_cache"]["misses"],
                serving_solves=solves,
            )
            # Interleave untraced and traced passes for the overhead figure.
            rates: Dict[bool, List[float]] = {False: [], True: []}
            for traced in OVERHEAD_ORDER:
                with _tracing(traced):
                    rates[traced].append((await one_pass())["rate"])
            per_layer["obs.overhead_pct"] = (
                _median(rates[False]) / _median(rates[True]) - 1
            ) * 100
        else:
            while run.more_passes():
                passes.append(await one_pass())
    finally:
        for client in clients:
            await client.close()
        if tcp is not None:
            tcp.close()
            await tcp.wait_closed()
            await server.stop()
    run.record_answers(sorted(reference.items()))
    metrics = {
        "ops_per_s": _median([p["ops_rate"] for p in passes]),
        "requests_per_s": _median([p["rate"] for p in passes]),
        "latency_p50_ms": _median([p["p50"] for p in passes]) * 1e3,
        "latency_p99_ms": _median([p["p99"] for p in passes]) * 1e3,
        "op_latency_p50_ms": _median([p["op_p50"] for p in passes]) * 1e3,
        "net_latency_p50_ms": _median([p["net_p50"] for p in passes]) * 1e3,
        "gflops_geomean": _geomean([v[0] for v in reference.values()]),
        "peak_rss_mb": _peak_rss_mb(),
    }
    return metrics, per_layer


def warm_serve(run: Run):
    return asyncio.run(_warm_serve(run))


# ----------------------------------------------------------------------
# dse-sweep
# ----------------------------------------------------------------------
def dse_sweep(run: Run) -> Tuple[Dict[str, float], Dict[str, float]]:
    from repro.dse import DesignSpace, axis_values, explore

    table = _table1()
    operators = sum(len(t) for t in table.values())
    network_flops = sum(2 * checks.macs(_layer(s)) for net in NETWORKS for s in table[net])
    rng = random.Random(run.seed)
    axes = []
    for path, values in DSE_AXES:
        values = list(values)
        rng.shuffle(values)
        axes.append(axis_values(path, values))
    space = DesignSpace(base=MACHINE, axes=axes)
    expected = math.prod(len(values) for _, values in DSE_AXES)
    run.setup_done()

    def one_pass() -> Dict[str, Any]:
        out_dir = run.work / "sweep"
        shutil.rmtree(out_dir, ignore_errors=True)
        start = time.perf_counter()
        result = explore(
            space, list(NETWORKS), strategy="onednn",
            cache=f"chunked:{out_dir / 'cache'}",
            progress=out_dir / "progress.jsonl",
        )
        frontier_start = time.perf_counter()
        frontier = result.frontier()
        end = time.perf_counter()
        wall = end - start
        store = _disk_bytes(out_dir / "cache")
        shutil.rmtree(out_dir, ignore_errors=True)

        def plain(o: Any) -> Dict[str, Any]:
            return {"name": o.machine_name, "status": o.status,
                    "time_s": o.total_time_seconds, "sram_bytes": o.total_sram_bytes}

        outcomes = [plain(o) for o in result.outcomes]
        run.attempted += len(outcomes)
        failed = checks.failed_candidates(outcomes)
        if failed:
            run.fail(failed, f"{failed} of {len(outcomes)} candidates failed")
        ok = [o for o in result.outcomes if not o.failed]
        if ok:
            run.check(checks.check_sweep(
                expected, outcomes, [plain(o) for o in frontier], plain(result.best())
            ))
        return {
            "rate": len(ok) / wall,
            "ops_rate": len(ok) * operators / wall,
            "latencies": [o.wall_seconds for o in ok],
            "gflops": [network_flops / o.total_time_seconds / 1e9 for o in ok],
            "answers": {o["name"]: o["time_s"] for o in outcomes if o["status"] == "ok"},
            "frontier_s": end - frontier_start,
            "store": store,
        }

    passes = []
    with run.traced_window():
        passes.append(one_pass())
    rates: Dict[bool, List[float]] = {False: [], True: []}
    if run.traced:
        # Interleave untraced and traced passes for the overhead figure.
        for traced in OVERHEAD_ORDER:
            with _tracing(traced):
                rates[traced].append(one_pass()["rate"])
    while not run.traced and run.more_passes():
        passes.append(one_pass())
    for previous, current in zip(passes, passes[1:]):
        _check_repeat(run, previous["answers"], current["answers"])
    run.record_answers(sorted(passes[0]["answers"].items()))
    latencies = [_median(p["latencies"]) for p in passes]
    metrics = {
        "ops_per_s": _median([p["ops_rate"] for p in passes]),
        "requests_per_s": _median([p["rate"] for p in passes]),
        "latency_p50_ms": _median(latencies) * 1e3,
        "latency_p99_ms": _median([_p99(p["latencies"]) for p in passes]) * 1e3,
        # A candidate answers the three networks one after the other:
        # its wall time shared out per network and per operator.
        "op_latency_p50_ms": _median(latencies) / operators * 1e3,
        "net_latency_p50_ms": _median(latencies) / len(NETWORKS) * 1e3,
        "gflops_geomean": _geomean(passes[0]["gflops"]),
        "peak_rss_mb": _peak_rss_mb(),
    }
    per_layer = {}
    if run.traced:
        per_layer = layers.per_layer_metrics(
            run.records, run.layer_probe,
            store_bytes=passes[0]["store"],
            frontier_s=passes[0]["frontier_s"],
            overhead_pct=(_median(rates[False]) / _median(rates[True]) - 1) * 100,
        )
    return metrics, per_layer


def _setup_again(args: argparse.Namespace) -> float:
    """Seconds a fresh process takes to set the same workload up."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1].partition("=")[2])


# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop when set-up ends and print its seconds")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(args, work)
    try:
        metrics, per_layer = {
            "cold-tune": cold_tune, "warm-serve": warm_serve, "dse-sweep": dse_sweep,
        }[args.workload](run)
    except SetupOnly:
        print(f"setup_s={run.setup_s!r}")
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    probe_after = probe()
    if not args.trace:  # a traced run reports no end-to-end metric
        setups = [run.setup_s] + [_setup_again(args) for _ in range(SETUPS - 1)]
        print(f"set-ups: {', '.join(f'{s:.3f}' for s in setups)} s")
        metrics["setup_s"] = _median(setups)
    print(f"probe before: {run.probe_before}  after: {probe_after}")
    print(f"operations: attempted={run.attempted} failed={run.failed}")
    print(f"answers: sha256={run.digest.hexdigest()}")
    for failure in run.failures[:20]:
        print(f"operation failed: {failure}", file=sys.stderr)
    for problem in run.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        values, units = per_layer, layers.PER_LAYER_UNITS
    else:
        values, units = metrics, END_TO_END_UNITS
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
