"""The snapshot-sweep trial shipped through ``repro.perf.run_trials``.

Module-level so the process pool can pickle it by reference.  The trial
receives a resolved :class:`~repro.fast.GridSnapshot` (the spec carries
only its :class:`~repro.fast.SnapshotRef`), answers one batch of uniform
searches on the shared pages, and checks every answer against the
snapshot's own path arrays.
"""

from __future__ import annotations

import time

import numpy as np

from pgbench.checks import batch_search_failures


def sweep_trial(snapshot, seed: int, n_queries: int, key_length: int):
    """One trial -> ``(result, compute_seconds)``.

    ``result`` is a pure function of the arguments (the ``repro.perf``
    determinism contract), so runs at any ``jobs`` compare equal;
    ``compute_seconds`` is the worker-side time and is never compared.
    """
    started = time.perf_counter()
    engine = snapshot.batch_query_engine(seed=seed)
    rng = np.random.default_rng(seed)
    kb = rng.integers(0, 1 << key_length, size=n_queries, dtype=np.int64)
    kl = np.full(n_queries, key_length, dtype=np.int64)
    starts = rng.integers(0, snapshot.n, size=n_queries, dtype=np.int64)
    found = engine.search_many((kb, kl), starts)
    failures = batch_search_failures(
        kb, kl, found.found, found.responder,
        snapshot.view("path_bits"), snapshot.view("path_len"),
    )
    result = {
        "found": int(found.found.sum()),
        "messages": int(found.messages.sum()),
        "responder_checksum": int(found.responder[found.found].sum()),
        "failures": failures,
    }
    del engine, found
    return result, time.perf_counter() - started
