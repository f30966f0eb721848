"""Which program functions are traced, and the per-layer metrics they give.

Each layer is named by its module.  The map below says which end-to-end
metric a layer metric should move (see README.md for the full table):

* ``core`` -> ``search_p50_us.engine``, ``update_p50_us.engine``,
  ``rebalance_meetings_per_s``, ``msgs_per_search``;
* ``protocol``/``net``/``aio`` -> ``search_p50_us.node``/``.async``/``.tcp``;
* ``replication`` -> ``search_p50_us.engine``, ``msgs_per_search``;
* ``fast.*`` and ``perf`` -> ``build_s``, the batch and sweep rates,
  ``peak_rss_mb``; ``sim`` -> ``setup_s``.
"""

from __future__ import annotations

import asyncio
import pickle
import statistics

import repro.aio.node as aio_node
import repro.aio.tcp as aio_tcp
from repro.aio.transport import AsyncTransport
from repro.api import AsyncService, EngineService, Grid, NodeService
from repro.core.exchange import ExchangeEngine
from repro.core.search import SearchEngine
from repro.core.shortcuts import ShortcutSearchEngine
from repro.core.updates import UpdateEngine
from repro.fast.query import BatchQueryEngine
from repro.net import wire
from repro.net.node import PGridNode
from repro.net.transport import LocalTransport
from repro.perf import parallel
from repro.replication.balancer import ReplicaBalancer
from repro.replication.tracker import LoadTracker

from pgbench.pipeline import SWEEP_JOBS

__all__ = ["LAYERS", "install", "metrics"]

#: Span names whose self time is reported, one per layer boundary.
LAYERS = (
    "api",
    "core.search",
    "core.update",
    "core.exchange",
    "core.shortcuts",
    "protocol.drive",
    "protocol.drive_async",
    "net.transport",
    "net.wire.encode",
    "net.wire.decode",
    "aio.transport",
    "aio.tcp",
    "aio.tcp.connect",
    "replication.observe",
    "replication.balance",
    "fast.query.search",
    "fast.query.publish",
    "fast.query.read",
    "perf.run_trials",
)


def _count_effects(tracer, gen):
    """Pass a protocol machine through, counting the effects it yields."""
    counts = tracer.counts
    response = None
    while True:
        try:
            effect = gen.send(response)
        except StopIteration as stop:
            return stop.value
        counts[("effects", tracer.root_name())] += 1
        response = yield effect


def install(tracer) -> None:
    """Wrap every traced program function (undo with ``tracer.restore()``)."""
    wrap = tracer.wrap
    counts = tracer.counts
    for service in (EngineService, NodeService, AsyncService):
        wrap(service, "search", "api")
        wrap(service, "update", "api")
    for attr in ("search", "update", "rebalance"):
        wrap(Grid, attr, "api")
    wrap(SearchEngine, "query_from", "core.search")
    wrap(UpdateEngine, "publish", "core.update")

    def exchange_calls(result, _args, _kwargs):
        counts["core.exchange.calls"] += result

    wrap(ExchangeEngine, "meet", "core.exchange", after=exchange_calls)
    wrap(ShortcutSearchEngine, "query_from", "core.shortcuts")

    def sync_machine(args, kwargs):
        return (args[0], _count_effects(tracer, args[1]), *args[2:]), kwargs

    def async_machine(args, kwargs):
        return (_count_effects(tracer, args[0]), *args[1:]), kwargs

    wrap(PGridNode, "_drive", "protocol.drive", transform=sync_machine)
    wrap(aio_node, "drive_async", "protocol.drive_async", transform=async_machine)
    wrap(LocalTransport, "send", "net.transport")

    def frame_bytes(result, _args, _kwargs):
        counts["net.wire.bytes"] += len(result)

    wrap(wire, "encode_message", "net.wire.encode", after=frame_bytes)
    wrap(wire, "decode_message", "net.wire.decode")
    wrap(AsyncTransport, "request", "aio.transport")
    wrap(aio_tcp, "remote_request", "aio.tcp")
    wrap(asyncio, "open_connection", "aio.tcp.connect")
    wrap(LoadTracker, "observe", "replication.observe")
    wrap(ReplicaBalancer, "after_meeting", "replication.balance")
    wrap(ReplicaBalancer, "after_update", "replication.balance")
    wrap(BatchQueryEngine, "search_many", "fast.query.search")

    def waves(_result, _args, _kwargs):
        counts[("waves", tracer.root_name())] += 1

    wrap(BatchQueryEngine, "_emit_wave", "fast.query.wave", after=waves, span=False)
    wrap(BatchQueryEngine, "publish_many", "fast.query.publish")
    wrap(BatchQueryEngine, "read_many", "fast.query.read")
    wrap(parallel, "run_trials", "perf.run_trials")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def metrics(tracer, run, rec, *, overhead_pct: float, mailbox: dict) -> dict:
    """Every per-layer metric as ``name -> (value, unit)``."""
    summary = tracer.summary()
    by_root = tracer.by_root()
    counts = tracer.counts
    rounds = rec.rounds
    p = run.profile
    totals = rec.totals
    info = run.setup_info

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def mean_us(name):
        row = summary.get(name)
        return _ratio(row["total_s"], row["calls"]) * 1e6 if row else 0.0

    def under(root, name):
        return by_root.get((root, name), [0, 0.0])

    def roots(name):
        return under(name, name)[0]

    node_searches = roots("bench.node.search")
    async_searches = roots("bench.async.search")
    tcp_requests = roots("bench.tcp.search") + roots("bench.tcp.probe")
    batch_calls = roots("bench.batch.search")
    publish_calls = roots("bench.batch.publish")
    meetings = calls("core.exchange")
    effects = (counts[("effects", "bench.node.search")]
               + counts[("effects", "bench.async.search")])
    compute = rec.samples["sweep_compute"]
    dispatch = [
        wall - sum(compute[i * p.sweep_trials:(i + 1) * p.sweep_trials]) / SWEEP_JOBS
        for i, wall in enumerate(rec.samples["sweep_wall"])
    ]
    root_spans = [s for s in tracer.spans if s[3] < 0]
    root_time = sum(end - start for _n, start, end, _p in root_spans)
    unclaimed = sum(summary[name]["self_s"] for name in {s[0] for s in root_spans})
    out = {
        "core.search.us": (mean_us("core.search"), "us"),
        "core.search.calls": (calls("core.search") / rounds, "count"),
        "core.update.us": (mean_us("core.update"), "us"),
        "core.exchange.meet_us": (mean_us("core.exchange"), "us"),
        "core.exchange.calls_per_meeting": (
            _ratio(counts["core.exchange.calls"], meetings), "count"),
        "core.shortcuts.hits": (totals["shortcut_hits"] / rounds, "count"),
        "core.shortcuts.hit_ratio": (
            _ratio(totals["shortcut_hits"], totals["shortcut_lookups"]), "ratio"),
        "sim.build_s": (info["object_build_s"], "s"),
        "sim.build.exchanges": (info["object_exchanges"], "count"),
        "protocol.drive.us": (mean_us("protocol.drive"), "us"),
        "protocol.drive_async.us": (mean_us("protocol.drive_async"), "us"),
        "protocol.effects_per_search": (
            _ratio(effects, node_searches + async_searches), "count"),
        "net.transport.send_us": (mean_us("net.transport"), "us"),
        "net.transport.messages_per_search": (
            _ratio(under("bench.node.search", "net.transport")[0], node_searches),
            "count"),
        "net.wire.encode_us": (mean_us("net.wire.encode"), "us"),
        "net.wire.decode_us": (mean_us("net.wire.decode"), "us"),
        "net.wire.bytes_per_frame": (
            _ratio(counts["net.wire.bytes"], calls("net.wire.encode")), "bytes"),
        "aio.transport.request_us": (mean_us("aio.transport"), "us"),
        "aio.mailbox.wait_us": (mailbox["wait_us"], "us"),
        "aio.mailbox.max_depth": (mailbox["max_depth"], "count"),
        "aio.tcp.request_us": (mean_us("aio.tcp"), "us"),
        "aio.tcp.connections_per_search": (
            _ratio(calls("aio.tcp.connect"), tcp_requests), "count"),
        "replication.observe_us": (mean_us("replication.observe"), "us"),
        "replication.conversions": (totals["conversions"] / rounds, "count"),
        "replication.retractions": (totals["retractions"] / rounds, "count"),
        "replication.entries_lost": (totals["entries_lost"] / rounds, "count"),
        "fast.batch.exchanges": (info["batch_exchanges"], "count"),
        "fast.batch.exchanges_per_s": (
            _ratio(info["batch_exchanges"], info["batch_build_s"]), "1/s"),
        "fast.batch.bytes_per_peer": (info["bytes_per_peer"], "bytes"),
        "fast.query.search_us_per_query": (
            _ratio(under("bench.batch.search", "fast.query.search")[1] * 1e6,
                   batch_calls * p.batch_searches), "us"),
        "fast.query.waves": (
            _ratio(counts[("waves", "bench.batch.search")], batch_calls), "count"),
        "fast.query.publish_us_per_key": (
            _ratio(under("bench.batch.publish", "fast.query.publish")[1] * 1e6,
                   publish_calls * p.batch_publishes), "us"),
        "fast.query.replicas_per_publish": (
            _ratio(totals["replicas_reached"], publish_calls * p.batch_publishes),
            "count"),
        "fast.query.read_repetitions": (
            _ratio(totals["read_repetitions"], totals["reads"]), "count"),
        "fast.query.read_fresh_ratio": (
            _ratio(totals["reads_fresh"], totals["reads"]), "ratio"),
        "fast.snapshot.export_ms": (info["export_s"] * 1e3, "ms"),
        "fast.snapshot.bytes": (info["snapshot_bytes"], "bytes"),
        "perf.trial_compute_ms": (statistics.median(compute) * 1e3, "ms"),
        "perf.dispatch_ms": (statistics.median(dispatch) * 1e3, "ms"),
        "perf.spec_bytes": (
            statistics.fmean(len(pickle.dumps(s.kwargs)) for s in run.sweep_specs),
            "bytes"),
        "trace.overhead_pct": (overhead_pct, "%"),
        "trace.unclaimed_ms": (unclaimed * 1e3 / rounds, "ms"),
        "trace.unclaimed_share": (_ratio(unclaimed, root_time), "ratio"),
        "trace.spans_per_round": (len(tracer.spans) / rounds, "count"),
    }
    for layer in LAYERS:
        self_s = summary.get(layer, {}).get("self_s", 0.0)
        out[f"self_ms.{layer}"] = (self_s * 1e3 / rounds, "ms")
    return out
