"""Workload profiles: the sizes and input make-up of each named workload.

Every workload runs the same round of operations — the served drivers
(engine, node, async, TCP), anti-entropy meetings, and the numpy batch
planes — so that every end-to-end metric is measured on every workload.
The profiles differ in the input properties the layers react to:

``serve_uniform``
    uniform keys drawn from the seeded item catalogue, from any peer, on
    a grid without replication balancing: the served stack dominates the
    round and the shortcut cache and balancer are bypassed.
``serve_zipf``
    64-bit Zipf keys (s = 1.0, a 2^16-key catalogue) from 8 client peers
    through an adaptive-replication grid with a shortcut cache: cache
    hits, replica conversions and the balancer's meetings are exercised.
``scale_batch``
    an 8192-peer gridless build and large numpy batches dominate the
    round; the served part runs on a small grid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["Profile", "PROFILES", "profile", "tiny"]


@dataclass(frozen=True)
class Profile:
    """Sizes and input make-up of one workload (per round unless noted)."""

    name: str
    #: Served object grid (``Grid.build``, object core).
    peers: int
    maxl: int
    refmax: int
    #: ``"catalogue"`` (uniform over seeded item keys) or ``"zipf"``.
    keys: str
    #: Engine pass through an adaptive-replication grid with shortcuts.
    adaptive: bool
    #: Peers issuing requests (0 = any peer).
    clients: int
    #: Operations replayed through each driver, 10% of them updates.
    ops: int
    #: ``Grid.rebalance`` meetings.
    meetings: int
    #: Gridless ``BatchGridBuilder`` grid (built once per setup).
    batch_peers: int
    batch_maxl: int
    #: ``"uniform"`` or ``"zipf"`` batch-plane keys of ``batch_key_bits``.
    batch_keys: str
    batch_key_bits: int
    batch_searches: int
    batch_publishes: int
    sweep_trials: int
    sweep_queries: int
    #: Setups per run; ``setup_s`` and ``build_s`` are their medians.
    setups: int = 3


PROFILES = {
    "serve_uniform": Profile(
        name="serve_uniform",
        peers=1024, maxl=8, refmax=3,
        keys="catalogue", adaptive=False, clients=0,
        ops=200, meetings=64,
        batch_peers=1024, batch_maxl=7, batch_keys="uniform", batch_key_bits=16,
        batch_searches=20_000, batch_publishes=2_000,
        sweep_trials=4, sweep_queries=50_000, setups=5,
    ),
    "serve_zipf": Profile(
        name="serve_zipf",
        peers=1024, maxl=8, refmax=3,
        keys="zipf", adaptive=True, clients=8,
        ops=200, meetings=64,
        batch_peers=1024, batch_maxl=7, batch_keys="zipf", batch_key_bits=32,
        batch_searches=20_000, batch_publishes=2_000,
        sweep_trials=4, sweep_queries=50_000, setups=5,
    ),
    "scale_batch": Profile(
        name="scale_batch",
        peers=256, maxl=6, refmax=3,
        keys="catalogue", adaptive=False, clients=0,
        ops=200, meetings=48,
        batch_peers=8192, batch_maxl=10, batch_keys="uniform", batch_key_bits=20,
        batch_searches=100_000, batch_publishes=5_000,
        sweep_trials=4, sweep_queries=50_000,
    ),
}


def profile(name: str) -> Profile:
    """The named profile; ``ValueError`` for an unknown name."""
    try:
        return PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}: expected one of {', '.join(PROFILES)}"
        ) from None


def tiny(base: Profile) -> Profile:
    """A seconds-long version of *base* with the same make-up (for tests)."""
    return replace(
        base,
        peers=64, maxl=4, ops=20, meetings=8,
        batch_peers=256, batch_maxl=5,
        batch_searches=500, batch_publishes=100,
        sweep_trials=2, sweep_queries=500,
        setups=1, clients=min(base.clients, 4),
    )
