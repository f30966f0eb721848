"""One benchmark run: set up, replay whole rounds, check, report.

The load is one closed-loop client in this process: each operation is
issued only after the previous one returned, over at most one TCP
connection at a time, with at most two pool workers for the sweep.  A
*round* is a fixed bundle of operations (see :meth:`Run.round`); a run
repeats whole rounds until its time is up, so every count it reports is
a whole multiple of one round's.

Two known faults are measured by fixed probes whose inputs do not
depend on the workload seed, so they fail every time and keep the
failed share of every run identical:

* stale routing after an adaptive conversion: a search on a fixed,
  rebalanced probe grid whose only route runs through a converted peer
  is answered ``found=True`` by that non-responsible peer;
* a TCP ``QUERY`` whose ``level`` is past the key length is answered
  ``found=True`` by a non-responsible start peer.

The seeded streams avoid the first fault: the adaptive engine pass runs
its updates and searches on a grid restored at the start of each round,
before that round's meetings convert any peer.
"""

from __future__ import annotations

import gc
import pickle
from contextlib import nullcontext
import random
import resource
import statistics
import time
from collections import defaultdict

import numpy as np

from repro import Grid
from repro.aio import AsyncSwarm, seed_items
from repro.aio.tcp import SwarmServer, remote_request, remote_search
from repro.core.config import PGridConfig
from repro.fast import BatchGridBuilder, BatchQueryEngine, GridSnapshot
from repro.net.message import query_message
from repro.perf import TrialSpec, parallel
from repro.replication import ReplicationConfig

from pgbench import checks
from pgbench.clock import HostClock
from pgbench.sweep import sweep_trial
from pgbench.workloads import Profile

__all__ = ["Run", "Recorder", "zipf_key", "find_stale_probe"]

_perf = time.perf_counter
_ns = time.perf_counter_ns

#: Seed of the deployment: the grids, the stored items and the client
#: peers are the same in every run; the workload seed drives the traffic.
DEPLOYMENT_SEED = 2002

#: The fixed probe grid (its inputs never depend on the workload seed).
PROBE_PEERS = 128
PROBE_MAXL = 6
PROBE_REFMAX = 3
PROBE_SEED = 2002
PROBE_STREAM = 7
#: Past-the-key ``level`` sent by the wire probe (ROADMAP item 4).
PROBE_LEVEL = 99
WIRE_PROBES_PER_ROUND = 2
STALE_PROBES_PER_ROUND = 1

SWEEP_JOBS = 2

#: Per-client shortcut cache entries on the adaptive grid.
SHORTCUT_CAPACITY = 64

#: Publishes come from a pool of (key, holder) pairs this many times one
#: round's publishes.
PUBLISH_POOL = 4

#: Repetition cap of the §5.2 repetitive reads.  At the library default
#: (200) a batch's time is set by the few keys still stale after dozens
#: of nearly empty repetition waves, so its rate swings 3x between seeds.
READ_REPETITIONS = 20


#: Round samples that are times (scaled by the host clock) and rates
#: (divided by it); every other sample is kept as measured.
TIMED_SAMPLES = ("search.engine", "search.node", "search.async", "search.tcp",
                 "update.engine", "update.node", "update.async")
RATE_SAMPLES = ("rebalance_rate", "batch_search_rate", "batch_publish_rate",
                "batch_read_rate", "sweep_rate")

#: Gridless builds at least this long (seconds, as measured) are scaled
#: by the whole run's host speed (see :meth:`Run.scaled_builds`).  The
#: 1024-peer builds take about 0.6 s here and the 8192-peer ones about 6 s.
LONG_BUILD_S = 2.0

#: Zipf keys are drawn from a catalogue of ``2**ZIPF_RANK_BITS`` keys.
ZIPF_RANK_BITS = 16


def zipf_key(rng: random.Random, bits: int, rank_bits: int = ZIPF_RANK_BITS) -> str:
    """A *bits*-bit key from a Zipf (s = 1) catalogue of ``2**rank_bits`` keys.

    The rank ``r`` (1-based) is drawn from the continuous Zipf density
    ``1/x`` over ``[1, 2**rank_bits + 1)``; the key is ``r - 1`` in its
    top *rank_bits* bits and zeros below, so low keys (paths of zeros)
    are the hot ones.  With the default 16-bit catalogue half of all keys
    fall under the path ``00000000``, and popular keys repeat often
    enough within a round for shortcut caches to hit.
    """
    top = 2**rank_bits
    rank = min(int((top + 1.0) ** rng.random()), top)
    return format((rank - 1) << (bits - rank_bits), f"0{bits}b")


def zipf_keys_packed(rng: np.random.Generator, count: int, bits: int):
    """Vectorized :func:`zipf_key` as packed ``(bits, lengths)`` arrays."""
    top = 2**ZIPF_RANK_BITS
    ranks = np.floor((top + 1.0) ** rng.random(count)).astype(np.int64)
    ranks = np.clip(ranks, 1, top)
    return (ranks - 1) << (bits - ZIPF_RANK_BITS), np.full(count, bits, dtype=np.int64)


def adaptive_config(peers: int) -> ReplicationConfig:
    """The balancer settings of the replication experiment's profiles.

    ``min_observations`` exceeds a round's update count, so the balancer
    stays passive until the round's searches have run.
    """
    return ReplicationConfig(
        strategy="adaptive",
        replicate_threshold=1.0,
        retract_floor=0.25,
        min_replicas=2,
        max_replicas=max(2, peers // 2),
        half_life=64.0,
        min_observations=64,
    )


def find_stale_probe(grid: Grid):
    """A ``(start, key)`` whose every route ends at a converted peer.

    Looks for a peer *s* whose references at some level *l* all name
    peers now holding one path *h* that no longer fits that level but
    agrees with the level's distinguishing bit.  Searching
    ``s.path[:l-1] + h[l-1:]`` from *s* must then forward to one of them,
    which trusts the level and answers for a key outside its path.
    Returns ``None`` when no such reference exists.
    """
    pgrid = grid.pgrid
    paths = {a: pgrid.peer(a).path for a in pgrid.addresses()}
    for start in sorted(paths):
        own = paths[start]
        routing = pgrid.peer(start).routing
        for level in range(1, len(own) + 1):
            targets = {paths[r] for r in routing.refs(level)}
            if len(targets) != 1:
                continue
            (held,) = targets
            want = own[: level - 1] + ("1" if own[level - 1] == "0" else "0")
            if len(held) < level or held[level - 1] != want[-1]:
                continue
            if checks.prefix_related(held, want):
                continue  # a valid reference, not a stale one
            return start, own[: level - 1] + held[level - 1 :]
    return None


class Recorder:
    """Samples and operation tallies of a span of rounds."""

    def __init__(self) -> None:
        self.samples: dict[str, list] = defaultdict(list)
        self.totals: dict[str, float] = defaultdict(float)
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = defaultdict(int)
        #: Pooled sweep results per round, compared with a serial run later.
        self.sweeps: list[list[dict]] = []

    def check(self, kind: str, ok: bool) -> None:
        """Count one attempted operation of *kind*, failed unless *ok*."""
        self.check_many(kind, 1, 0 if ok else 1)

    def check_many(self, kind: str, attempted: int, failed: int) -> None:
        """Count *attempted* operations of *kind*, *failed* of them failed."""
        self.attempted += attempted
        if failed:
            self.failed += failed
            self.failures[kind] += failed


def _median(values) -> float:
    return float(statistics.median(values))


def _percentile(values, fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(fraction * len(ordered) + 0.5) - 1))
    return float(ordered[rank])


class Run:
    """All state of one run of one workload profile."""

    def __init__(self, profile: Profile, seed: int) -> None:
        self.profile = profile
        self.seed = seed
        #: Setup times in reference-host seconds; setup and build times as
        #: measured.
        self.setup_times: list[float] = []
        #: Host-clock scale of the samples around each build.
        self.build_scales: list[float] = []
        self.raw_setup_times: list[float] = []
        self.raw_build_times: list[float] = []
        self.clock = HostClock()
        #: Per sample name, how many samples are already rescaled.
        self._marks: dict[str, int] = {}
        self.setup_info: dict[str, float] = {}
        self.errors: list[str] = []
        self.segments: set[str] = set()
        self.sweep_reference: list[dict] | None = None
        self._serving: dict | None = None
        self._probe: dict | None = None
        #: The stale-reference probe found on the probe grid (None if none).
        self.stale_probe: tuple[int, str] | None = None

    # -- setup ------------------------------------------------------------------

    def setup(self) -> None:
        """Set the system up ``profile.setups`` times; keep the last one."""
        for index in range(self.profile.setups):
            if self._serving is not None:
                self._close_serving()
            gc.collect()
            self.clock.begin()
            started = _perf()
            self._serving = self._setup_once()
            # The host clock's own samples inside the setup are not setup.
            elapsed = _perf() - started - sum(self.clock.samples[self.clock.mark + 1:])
            self.clock.sample()
            scale = self.clock.scale()
            self.raw_setup_times.append(elapsed)
            self.setup_times.append(elapsed * scale)
            self._check_builds()
        serving = self._serving
        self.paths = {a: serving["grid"].pgrid.peer(a).path
                      for a in serving["grid"].addresses()}
        addresses = sorted(self.paths)
        clients = self.profile.clients
        self.starts = (
            sorted(random.Random(DEPLOYMENT_SEED).sample(addresses, clients))
            if clients else addresses
        )
        # Pristine copy for the per-round rebalance grids.
        self.blob = pickle.dumps(serving["grid"].pgrid)
        self.rep_config = adaptive_config(self.profile.peers)
        pb, pl = serving["builder"].snapshot_state()[:2]
        self.batch_pb, self.batch_pl = pb, pl
        p = self.profile
        # Publishes draw from a fixed pool of (key, holder) pairs, the
        # slots of the batch engine's replica store, and the whole pool
        # is published once here: the store then holds nearly every slot
        # the rounds write (a publish reaches a start-dependent subset of
        # the key's replicas), and memory does not track the run length.
        prng = np.random.default_rng([self.seed, PUBLISH_POOL])
        size = PUBLISH_POOL * p.batch_publishes
        pool_bits, pool_lengths = self._batch_keys(prng, size)
        pool_holders = prng.integers(0, p.batch_peers, size=size)
        self.publish_pool = (pool_bits, pool_lengths, pool_holders)
        reach = serving["batch"].publish_many(
            (pool_bits, pool_lengths), pool_holders, np.zeros(size, dtype=np.int64),
            prng.integers(0, p.batch_peers, size=size))
        if checks.batch_reach_failures(pool_bits, pool_lengths, reach.offsets,
                                       reach.values, pb, pl):
            self.errors.append("publishing the pool reached a non-replica")
        self.sweep_specs = [
            TrialSpec(kwargs={
                "snapshot": serving["snapshot"].ref(),
                "seed": self.seed * 1000 + index,
                "n_queries": p.sweep_queries,
                "key_length": p.batch_key_bits,
            })
            for index in range(p.sweep_trials)
        ]

    def _setup_once(self) -> dict:
        p = self.profile
        started = _perf()
        grid = Grid.build(peers=p.peers, maxl=p.maxl, refmax=p.refmax,
                          seed=DEPLOYMENT_SEED)
        object_build = _perf() - started
        self.clock.sample()
        catalogue = seed_items(grid.pgrid, items_per_peer=1, seed=DEPLOYMENT_SEED)
        self.clock.sample()
        started = _perf()
        builder = BatchGridBuilder(
            n=p.batch_peers,
            config=PGridConfig(maxl=p.batch_maxl, refmax=3),
            seed=DEPLOYMENT_SEED,
        )
        report = builder.build(threshold_fraction=0.99,
                               max_exchanges=600 * p.batch_peers)
        build_time = _perf() - started
        self.clock.sample()
        self.raw_build_times.append(build_time)
        self.build_scales.append(self.clock.local_scale())
        batch = BatchQueryEngine.from_batch_builder(builder, seed=self.seed)
        started = _perf()
        snapshot = GridSnapshot.from_batch_builder(builder)
        export_time = _perf() - started
        self.segments.add(snapshot.name)
        engine_svc = grid.serve("engine")
        node_svc = grid.serve("node")
        async_svc = grid.serve("async")
        server = SwarmServer(async_svc.swarm)
        host, port = async_svc.run(server.start())
        self.setup_info = {
            "object_build_s": object_build,
            "object_exchanges": grid.report.exchanges,
            "batch_exchanges": report.exchanges,
            "batch_build_s": build_time,
            "bytes_per_peer": builder.memory_bytes() / p.batch_peers,
            "export_s": export_time,
            "snapshot_bytes": snapshot.nbytes,
        }
        return {
            "grid": grid, "catalogue": catalogue, "builder": builder,
            "batch": batch, "snapshot": snapshot,
            "engine": engine_svc, "node": node_svc, "async": async_svc,
            "server": server, "address": (host, port),
        }

    def _check_builds(self) -> None:
        """Convergence and the §2 reference invariant, recomputed here."""
        serving = self._serving
        p = self.profile
        grid = serving["grid"]
        lengths = [len(grid.pgrid.peer(a).path) for a in grid.addresses()]
        if not checks.converged(lengths, p.maxl):
            self.errors.append("object build did not converge")
        pb, pl, refs, rl, _buddies = serving["builder"].snapshot_state()
        if not checks.converged(pl, p.batch_maxl):
            self.errors.append("gridless build did not converge")
        violations = checks.ref_violations(pb, pl, refs, rl, p.batch_maxl)
        if violations:
            self.errors.append(f"gridless build: {violations} refs break §2")

    # -- probes -----------------------------------------------------------------

    def prepare_probes(self) -> None:
        """Build the fixed probe grid, rebalance it and serve it over TCP."""
        probe = Grid.build(peers=PROBE_PEERS, maxl=PROBE_MAXL, refmax=PROBE_REFMAX,
                           seed=PROBE_SEED,
                           replication=adaptive_config(PROBE_PEERS))
        rng = random.Random(PROBE_STREAM)
        clients = sorted(rng.sample(probe.addresses(), 8))
        stale = None
        for _ in range(10):
            for _ in range(200):
                probe.search(zipf_key(rng, 64, 64), start=rng.choice(clients))
            probe.rebalance(meetings=64)
            stale = find_stale_probe(probe)
            if stale is not None:
                break
        paths = {a: probe.pgrid.peer(a).path for a in probe.addresses()}
        self.stale_probe = stale
        if stale is None:  # no stale reference left: the probe is a plain search
            first = min(paths)
            stale = (first, paths[first])
        target = min(paths)
        flipped = "".join("1" if bit == "0" else "0" for bit in paths[target])
        async_svc = self._serving["async"]
        swarm = AsyncSwarm(probe.pgrid)
        async_svc.run(swarm.start())
        server = SwarmServer(swarm)
        address = async_svc.run(server.start())
        self._probe = {
            "grid": probe, "paths": paths, "stale": stale,
            "wire": (target, flipped or "1"), "swarm": swarm,
            "server": server, "address": address,
        }

    def serving_async(self):
        """The async service of the kept setup (its transport keeps mailbox stats)."""
        return self._serving["async"]

    # -- rounds -----------------------------------------------------------------

    def _inputs(self, index: int) -> dict:
        """Round *index*'s inputs: a pure function of (seed, index)."""
        p = self.profile
        rng = random.Random(f"{self.seed}-round-{index}")
        if p.keys == "zipf":
            def key() -> str:
                return zipf_key(rng, 64)
        else:
            catalogue = self._serving["catalogue"]

            def key() -> str:
                return rng.choice(catalogue)
        n_updates = p.ops // 10
        updates = []
        for _ in range(n_updates):
            start = rng.choice(self.starts)
            updates.append((key(), start, index + 1))
        searches = [(key(), rng.choice(self.starts))
                    for _ in range(p.ops - n_updates)]
        nrng = np.random.default_rng([self.seed, index])
        kb, kl = self._batch_keys(nrng, p.batch_searches)
        pool_bits, pool_lengths, pool_holders = self.publish_pool
        chosen = nrng.choice(len(pool_bits), size=p.batch_publishes, replace=False)
        pkb, pkl = pool_bits[chosen], pool_lengths[chosen]
        n = p.batch_peers
        return {
            "updates": updates,
            "searches": searches,
            "batch": (kb, kl, nrng.integers(0, n, size=p.batch_searches)),
            "publish": (pkb, pkl, pool_holders[chosen],
                        np.full(p.batch_publishes, index + 1, dtype=np.int64),
                        nrng.integers(0, n, size=p.batch_publishes)),
            "read_starts": nrng.integers(0, n, size=p.batch_publishes),
        }

    def _batch_keys(self, rng: np.random.Generator, count: int):
        """*count* packed batch-plane keys of the profile's kind."""
        bits = self.profile.batch_key_bits
        if self.profile.batch_keys == "zipf":
            return zipf_keys_packed(rng, count, bits)
        return (rng.integers(0, 1 << bits, size=count, dtype=np.int64),
                np.full(count, bits, dtype=np.int64))

    def rounds(self, seconds: float, *, first: int) -> Recorder:
        """Run whole rounds, from index *first*, until *seconds* have passed."""
        rec = Recorder()
        index = first
        started = _perf()
        while rec.rounds < 1 or _perf() - started < seconds:
            self.round(index, rec)
            index += 1
        return rec

    def round(self, index: int, rec: Recorder, *, tracer=None) -> None:
        """One round: every driver, the meetings, the probes, the planes.

        The host clock is sampled before the round and after each of its
        phases; each phase's times and rates are rescaled to the
        reference host by the samples on either side of it.
        """
        inputs = self._inputs(index)
        span = tracer.span if tracer is not None else _untraced
        samples = rec.samples
        self._marks = {name: len(samples[name])
                       for name in TIMED_SAMPLES + RATE_SAMPLES}
        self.clock.sample()
        first_sample = len(self.clock.samples)
        started = _perf()
        self._engine_pass(inputs, rec, span)
        for driver in ("node", "async"):
            self._driver_pass(driver, inputs, rec, span)
            self._settle(rec)
        self._tcp_pass(inputs, rec, span)
        self._stale_probe(rec, span)
        self._settle(rec)
        self._batch_pass(inputs, rec, span)
        self._sweep_pass(rec, span)
        self._settle(rec)
        # The host clock's own samples are not part of the round's work.
        samples["round_s"].append(
            _perf() - started - sum(self.clock.samples[first_sample:]))
        rec.rounds += 1

    def _settle(self, rec: Recorder) -> None:
        """End a phase: sample the host clock and rescale the phase's samples."""
        self.clock.sample()
        scale = self.clock.local_scale()
        samples = rec.samples
        marks = self._marks
        for name in TIMED_SAMPLES + RATE_SAMPLES:
            values = samples[name]
            measured = values[marks[name]:]
            if not measured:
                continue
            samples["measured." + name].extend(measured)
            factor = scale if name in TIMED_SAMPLES else 1.0 / scale
            values[marks[name]:] = [v * factor for v in measured]
            marks[name] = len(values)
        samples["host_speed"].append(scale)

    def _engine_pass(self, inputs: dict, rec: Recorder, span) -> None:
        p = self.profile
        paths = self.paths
        serving = self._serving
        if p.adaptive:
            grid = Grid(pickle.loads(self.blob), replication=self.rep_config,
                        shortcut_capacity=SHORTCUT_CAPACITY)
            search, update = grid.search, grid.update
        else:
            grid = Grid(pickle.loads(self.blob), replication="static")
            search, update = serving["engine"].search, serving["engine"].update
        samples = rec.samples
        for key, start, version in inputs["updates"]:
            with span("bench.engine.update"):
                began = _ns()
                result = update(key, start, start=start, version=version)
                samples["update.engine"].append(_ns() - began)
            rec.check("update.engine", checks.update_ok(paths, key, result.reached))
        self._settle(rec)
        if grid.balancer.stats.conversions:
            raise RuntimeError("a conversion happened before the round's searches")
        for key, start in inputs["searches"]:
            with span("bench.engine.search"):
                began = _ns()
                result = search(key, start=start)
                samples["search.engine"].append(_ns() - began)
            samples["messages"].append(result.messages)
            rec.check("search.engine",
                      checks.search_ok(paths, key, result.found, result.responder))
        self._settle(rec)
        with span("bench.rebalance"):
            began = _perf()
            delta = grid.rebalance(meetings=p.meetings)
            samples["rebalance_rate"].append(p.meetings / (_perf() - began))
        self._settle(rec)
        totals = rec.totals
        totals["meetings"] += p.meetings
        for name in ("conversions", "retractions", "entries_lost"):
            totals[name] += delta[name]
        if grid.shortcut_engine is not None:
            stats = grid.shortcut_engine.stats
            totals["shortcut_hits"] += stats.hits
            totals["shortcut_lookups"] += stats.hits + stats.misses

    def _driver_pass(self, driver: str, inputs: dict, rec: Recorder, span) -> None:
        paths = self.paths
        service = self._serving[driver]
        samples = rec.samples
        for key, start, version in inputs["updates"]:
            with span(f"bench.{driver}.update"):
                began = _ns()
                result = service.update(key, start, start=start, version=version)
                samples[f"update.{driver}"].append(_ns() - began)
            rec.check(f"update.{driver}", checks.update_ok(paths, key, result.reached))
        for key, start in inputs["searches"]:
            with span(f"bench.{driver}.search"):
                began = _ns()
                result = service.search(key, start=start)
                samples[f"search.{driver}"].append(_ns() - began)
            rec.check(f"search.{driver}",
                      checks.search_ok(paths, key, result.found, result.responder))

    def _tcp_pass(self, inputs: dict, rec: Recorder, span) -> None:
        paths = self.paths
        serving = self._serving
        run = serving["async"].run
        host, port = serving["address"]
        samples = rec.samples["search.tcp"]
        for key, start in inputs["searches"]:
            with span("bench.tcp.search"):
                began = _ns()
                outcome = run(remote_search(host, port, start, key))
                samples.append(_ns() - began)
            rec.check("search.tcp",
                      checks.search_ok(paths, key, outcome.found, outcome.responder))
        probe = self._probe
        target, key = probe["wire"]
        phost, pport = probe["address"]
        for _ in range(WIRE_PROBES_PER_ROUND):
            with span("bench.tcp.probe"):
                reply = run(remote_request(
                    phost, pport, query_message(-1, target, key, PROBE_LEVEL)))
            rec.check("probe.wire_level",
                      checks.probe_ok(probe["paths"], key, reply.payload))

    def _stale_probe(self, rec: Recorder, span) -> None:
        probe = self._probe
        start, key = probe["stale"]
        for _ in range(STALE_PROBES_PER_ROUND):
            with span("bench.stale.probe"):
                result = probe["grid"].search(key, start=start)
            rec.check("probe.stale_ref", checks.search_ok(
                probe["paths"], key, result.found, result.responder))

    def _batch_pass(self, inputs: dict, rec: Recorder, span) -> None:
        batch = self._serving["batch"]
        pb, pl = self.batch_pb, self.batch_pl
        samples = rec.samples
        kb, kl, starts = inputs["batch"]
        with span("bench.batch.search"):
            began = _perf()
            found = batch.search_many((kb, kl), starts)
            samples["batch_search_rate"].append(len(kb) / (_perf() - began))
        self._settle(rec)
        rec.check_many("batch.search", len(kb), checks.batch_search_failures(
            kb, kl, found.found, found.responder, pb, pl))
        pkb, pkl, holders, versions, pstarts = inputs["publish"]
        with span("bench.batch.publish"):
            began = _perf()
            reach = batch.publish_many((pkb, pkl), holders, versions, pstarts)
            samples["batch_publish_rate"].append(len(pkb) / (_perf() - began))
        self._settle(rec)
        rec.check_many("batch.publish", len(pkb), checks.batch_reach_failures(
            pkb, pkl, reach.offsets, reach.values, pb, pl))
        rec.totals["replicas_reached"] += len(reach.values)
        with span("bench.batch.read"):
            began = _perf()
            reads = batch.read_many((pkb, pkl), holders, versions,
                                    inputs["read_starts"], repetitive=True,
                                    max_repetitions=READ_REPETITIONS)
            samples["batch_read_rate"].append(len(pkb) / (_perf() - began))
        self._settle(rec)
        # A stale repetitive read is §5.2 working as described, not a failure.
        rec.check_many("batch.read", len(pkb), 0)
        rec.totals["reads"] += len(pkb)
        rec.totals["reads_fresh"] += int(reads.success.sum())
        rec.totals["read_repetitions"] += int(reads.repetitions.sum())

    def _sweep_pass(self, rec: Recorder, span) -> None:
        p = self.profile
        with span("bench.sweep"):
            began = _perf()
            out = parallel.run_trials(sweep_trial, self.sweep_specs, jobs=SWEEP_JOBS)
            wall = _perf() - began
        rec.samples["sweep_rate"].append(p.sweep_trials * p.sweep_queries / wall)
        rec.samples["sweep_wall"].append(wall)
        rec.samples["sweep_compute"].extend(compute for _result, compute in out)
        rec.sweeps.append([result for result, _compute in out])
        rec.attempted += p.sweep_trials * p.sweep_queries

    # -- after the timed rounds ---------------------------------------------------

    def check_sweeps(self, recorders) -> None:
        """Compare every pooled sweep with the same trials run serially.

        A trial that differs from the serial run, misses a key or names a
        non-responsible responder counts all of its queries as failed.
        """
        serial = parallel.run_trials(sweep_trial, self.sweep_specs, jobs=1)
        self.sweep_reference = [result for result, _compute in serial]
        queries = self.profile.sweep_queries
        for rec in recorders:
            for results in rec.sweeps:
                bad = checks.sweep_mismatches(results, self.sweep_reference)
                bad += sum(1 for r in results
                           if r["failures"] or r["found"] != queries)
                if bad:
                    rec.failed += bad * queries
                    rec.failures["sweep"] += bad * queries

    def end_to_end(self, rec: Recorder, *, measured: bool = False
                   ) -> dict[str, tuple[float, str]]:
        """Every end-to-end metric as ``name -> (value, unit)``.

        Latencies are medians over every operation of the run; rates
        are the median over rounds of one round's throughput; ``setup_s``
        and ``build_s`` are medians over the run's setups.  Times are in
        reference-host units (:mod:`pgbench.clock`), or as measured on
        this host with *measured*.
        """
        prefix = "measured." if measured else ""
        s = {name: rec.samples[prefix + name]
             for name in TIMED_SAMPLES + RATE_SAMPLES}
        s["messages"] = rec.samples["messages"]
        setups = self.raw_setup_times if measured else self.setup_times
        builds = self.raw_build_times if measured else self.scaled_builds()

        def latency(name):
            return _percentile(s[name], 0.5) * 1e-3  # ns -> us

        def rate(name):
            return _median(s[name])

        return {
            "setup_s": (_median(setups), "s"),
            "search_p50_us.engine": (latency("search.engine"), "us"),
            "search_p50_us.node": (latency("search.node"), "us"),
            "search_p50_us.async": (latency("search.async"), "us"),
            "search_p50_us.tcp": (latency("search.tcp"), "us"),
            "update_p50_us.engine": (latency("update.engine"), "us"),
            "update_p50_us.async": (latency("update.async"), "us"),
            "msgs_per_search": (statistics.fmean(s["messages"]), "messages"),
            "rebalance_meetings_per_s": (rate("rebalance_rate"), "1/s"),
            "build_s": (_median(builds), "s"),
            "batch_searches_per_s": (rate("batch_search_rate"), "1/s"),
            "batch_publishes_per_s": (rate("batch_publish_rate"), "1/s"),
            "batch_reads_per_s": (rate("batch_read_rate"), "1/s"),
            "sweep_searches_per_s": (rate("sweep_rate"), "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }

    def scaled_builds(self) -> list[float]:
        """Gridless build times in reference-host seconds.

        A build shorter than ``LONG_BUILD_S`` is scaled by the two host
        clock samples around it.  Two instantaneous samples say little
        about the host's speed over a build of several seconds, so a
        longer one is scaled by the run's median kernel time instead.
        """
        speed = self.clock.speed()
        return [raw * (scale if raw < LONG_BUILD_S else speed)
                for raw, scale in zip(self.raw_build_times, self.build_scales)]

    # -- teardown -----------------------------------------------------------------

    def _close_serving(self) -> None:
        serving, self._serving = self._serving, None
        async_svc = serving["async"]
        if self._probe is not None:
            probe, self._probe = self._probe, None
            async_svc.run(probe["server"].stop())
            async_svc.run(probe["swarm"].stop())
        async_svc.run(serving["server"].stop())
        async_svc.close()
        serving["node"].close()
        serving["engine"].close()
        snapshot = serving["snapshot"]
        serving.clear()
        gc.collect()
        snapshot.close()
        snapshot.unlink()

    def close(self) -> None:
        """Release every server, service, segment and worker this run made."""
        try:
            if self._serving is not None:
                self._close_serving()
        finally:
            parallel.shutdown_pool()
            stop_resource_tracker()


def _untraced(_name: str):
    return nullcontext()


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stop_resource_tracker() -> None:
    """Stop the ``multiprocessing`` resource tracker a snapshot owner started.

    It otherwise lives until the interpreter exits, after the benchmark
    has already checked for leftover children.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()
