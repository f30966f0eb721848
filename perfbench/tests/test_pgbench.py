"""Tests of the benchmark itself.

Every check is fed a deliberately wrong input and must reject it (a check
that can never fail shows nothing), and every workload runs end to end at
a tiny scale in seconds.  Run with::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from multiprocessing import shared_memory

import numpy as np
import pytest

from pgbench import checks
from pgbench.bench import run_workload
from pgbench.clock import REFERENCE_S, HostClock
from pgbench.pipeline import find_stale_probe
from pgbench.workloads import PROFILES

_BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPEC = os.path.join(os.path.dirname(_BENCH), "BENCHMARK.json")
KNOWN_FAULTS = {"probe.wire_level", "probe.stale_ref"}


# -- checks against wrong inputs ------------------------------------------------


def test_search_check_rejects_non_responsible_responder():
    paths = {0: "00", 1: "01", 2: "1"}
    assert checks.search_ok(paths, "0110", True, 1)
    assert not checks.search_ok(paths, "0110", True, 0)
    assert not checks.search_ok(paths, "0110", False, None)
    assert not checks.search_ok(paths, "0110", True, 7)  # unknown peer


def test_update_check_rejects_non_replica_and_empty_reach():
    paths = {0: "00", 1: "01", 2: "01"}
    assert checks.update_ok(paths, "011", {1, 2})
    assert not checks.update_ok(paths, "011", {1, 0})
    assert not checks.update_ok(paths, "011", set())


def test_probe_check_rejects_named_non_responsible_responder():
    paths = {0: "0001", 1: "0101"}
    assert checks.probe_ok(paths, "0101", {"found": True, "responder": 1})
    assert checks.probe_ok(paths, "0101", {"found": False, "responder": None})
    assert not checks.probe_ok(paths, "0101", {"found": True, "responder": 0})


def test_batch_checks_reject_wrong_responders_and_reach():
    pb = np.array([0b00, 0b01, 0b1])
    pl = np.array([2, 2, 1])
    kb = np.array([0b0110, 0b1000])
    kl = np.array([4, 4])
    assert checks.batch_search_failures(kb, kl, [True, True], [1, 2], pb, pl) == 0
    assert checks.batch_search_failures(kb, kl, [True, True], [0, 2], pb, pl) == 1
    assert checks.batch_search_failures(kb, kl, [True, False], [1, -1], pb, pl) == 1
    offsets = np.array([0, 1, 3])
    assert checks.batch_reach_failures(kb, kl, offsets, [1, 2, 2], pb, pl) == 0
    assert checks.batch_reach_failures(kb, kl, offsets, [1, 2, 0], pb, pl) == 1
    assert checks.batch_reach_failures(kb, kl, np.array([0, 0, 1]), [2], pb, pl) == 1


def _built_state(n=96, maxl=4):
    from repro.core.config import PGridConfig
    from repro.fast import BatchGridBuilder

    builder = BatchGridBuilder(n=n, config=PGridConfig(maxl=maxl, refmax=3), seed=5)
    builder.build(threshold_fraction=0.99, max_exchanges=600 * n)
    pb, pl, refs, rl, _buddies = builder.snapshot_state()
    return pb.copy(), pl.copy(), refs.copy(), rl.copy(), maxl


def test_reference_invariant_check_rejects_self_and_misplaced_refs():
    pb, pl, refs, rl, maxl = _built_state()
    assert checks.converged(pl, maxl)
    assert checks.ref_violations(pb, pl, refs, rl, maxl) == 0
    rows = np.flatnonzero(rl > 0)
    row = int(rows[0])
    owner = row // maxl
    self_ref = refs.copy()
    self_ref[row, 0] = owner
    assert checks.ref_violations(pb, pl, self_ref, rl, maxl) == 1
    # A peer on the owner's own side of the level's bit breaks §2 too.
    level_bit = row % maxl
    same_side = [
        i for i in range(len(pb))
        if i != owner and pl[i] > level_bit
        and (pb[i] >> (pl[i] - level_bit - 1)) == (pb[owner] >> (pl[owner] - level_bit - 1))
    ]
    misplaced = refs.copy()
    misplaced[row, 0] = same_side[0]
    assert checks.ref_violations(pb, pl, misplaced, rl, maxl) == 1
    dangling = refs.copy()
    dangling[row, 0] = len(pb) + 5
    assert checks.ref_violations(pb, pl, dangling, rl, maxl) == 1


def test_convergence_check_rejects_short_paths():
    assert checks.converged([4, 4, 4, 4], 4)
    assert not checks.converged([4, 4, 4, 2], 4)


def test_sweep_check_rejects_a_differing_pooled_result():
    reference = [{"found": 10, "messages": 31}, {"found": 10, "messages": 29}]
    assert checks.sweep_mismatches([dict(r) for r in reference], reference) == 0
    pooled = [dict(r) for r in reference]
    pooled[1]["messages"] += 1
    assert checks.sweep_mismatches(pooled, reference) == 1
    assert checks.sweep_mismatches(pooled[:1], reference) == 2


def test_leftover_check_sees_a_lingering_child_process():
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    try:
        assert child.pid in checks.leftover_children()
    finally:
        child.kill()
        child.wait(timeout=10)
    assert child.pid not in checks.leftover_children()


def test_leftover_check_sees_a_lingering_segment():
    segment = shared_memory.SharedMemory(create=True, size=64)
    try:
        assert checks.leftover_segments([segment.name]) == [segment.name]
    finally:
        segment.close()
        segment.unlink()
    assert checks.leftover_segments([segment.name]) == []


def test_stale_probe_finder_finds_nothing_without_conversions():
    from repro import Grid

    from pgbench.pipeline import PROBE_MAXL, PROBE_PEERS, PROBE_REFMAX, PROBE_SEED

    grid = Grid.build(peers=PROBE_PEERS, maxl=PROBE_MAXL, refmax=PROBE_REFMAX,
                      seed=PROBE_SEED)
    # A freshly built grid has no converted peers, hence no stale reference.
    assert find_stale_probe(grid) is None


def test_host_clock_scales_times_down_on_a_slow_host():
    clock = HostClock()
    assert clock.sample() > 0
    clock.samples = [2 * REFERENCE_S, 2 * REFERENCE_S]
    assert clock.local_scale() == pytest.approx(0.5)
    clock.begin()
    clock.samples[-1] = REFERENCE_S / 2
    clock.samples += [REFERENCE_S / 2, REFERENCE_S]
    assert clock.scale() == pytest.approx(2.0)
    assert clock.speed() == pytest.approx(1.0)


def test_round_rescales_each_phase_by_the_host_clock(monkeypatch):
    # A kernel that always takes twice the reference time halves every time
    # and doubles every rate against the as-measured figures.
    def slow_sample(self):
        self.samples.append(2 * REFERENCE_S)
        return 2 * REFERENCE_S

    monkeypatch.setattr(HostClock, "sample", slow_sample)
    result = run_workload("serve_uniform", 3, 0.2, tiny=True)
    metrics, measured = result["line"]["metrics"], result["report"]["measured"]
    for name in ("search_p50_us.engine", "update_p50_us.async", "setup_s", "build_s"):
        assert metrics[name]["value"] == pytest.approx(measured[name] / 2)
    for name in ("batch_reads_per_s", "rebalance_meetings_per_s"):
        assert metrics[name]["value"] == pytest.approx(measured[name] * 2)
    assert metrics["msgs_per_search"]["value"] == measured["msgs_per_search"]


# -- whole workloads at a tiny scale ---------------------------------------------


def _spec():
    with open(_SPEC, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_workload_runs_and_reports_every_end_to_end_metric(name):
    result = run_workload(name, 3, 0.5, tiny=True)
    line, report = result["line"], result["report"]
    assert line["correct"], report["errors"]
    assert line["attempted"] > 0
    assert set(report["failures"]) <= KNOWN_FAULTS
    assert report["stale_probe"] is not None
    expected = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    assert got == expected
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    result = run_workload("serve_zipf", 3, 0.5, tiny=True, trace=True,
                          trace_out=os.devnull)
    line = result["line"]
    assert line["correct"], result["report"]["errors"]
    expected = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    assert got == expected


def test_failed_share_is_the_same_for_any_run_length():
    short = run_workload("serve_uniform", 4, 0.2, tiny=True)["line"]
    longer = run_workload("serve_uniform", 5, 1.5, tiny=True)["line"]
    assert short["failed"] > 0
    assert (Fraction(short["failed"], short["attempted"])
            == Fraction(longer["failed"], longer["attempted"]))
