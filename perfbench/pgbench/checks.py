"""Output checks computed apart from the program.

Every check here recomputes the answer from raw state — peer paths,
reference rows, trial results — with its own code, never by asking the
program (``Peer.responsible_for``, ``PGrid.replicas_for_key``,
``audit_routing``) whether it was right.  Each returns the number of
failures (or the offending items), so the benchmark counts a failed
operation instead of trusting a flag the program set itself.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "prefix_related",
    "search_ok",
    "update_ok",
    "probe_ok",
    "prefix_related_many",
    "batch_search_failures",
    "batch_reach_failures",
    "converged",
    "ref_violations",
    "sweep_mismatches",
    "leftover_children",
    "leftover_segments",
]


def prefix_related(path: str, key: str) -> bool:
    """The paper's responsibility rule: one string is a prefix of the other."""
    m = min(len(path), len(key))
    return path[:m] == key[:m]


def search_ok(paths: dict[int, str], key: str, found: bool, responder) -> bool:
    """A search at ``p_online = 1`` must be found by a responsible peer."""
    return bool(found) and responder in paths and prefix_related(paths[responder], key)


def update_ok(paths: dict[int, str], key: str, reached) -> bool:
    """An update must reach at least one peer, and only replicas of *key*."""
    return bool(reached) and all(
        address in paths and prefix_related(paths[address], key) for address in reached
    )


def probe_ok(paths: dict[int, str], key: str, payload: dict) -> bool:
    """A raw wire reply passes unless it names a non-responsible responder."""
    if not payload.get("found"):
        return True
    responder = payload.get("responder")
    return responder in paths and prefix_related(paths[responder], key)


def prefix_related_many(kb, kl, pb, pl):
    """Vectorized :func:`prefix_related` over packed MSB-first bit strings."""
    kb = np.asarray(kb, dtype=np.int64)
    kl = np.asarray(kl, dtype=np.int64)
    pb = np.asarray(pb, dtype=np.int64)
    pl = np.asarray(pl, dtype=np.int64)
    m = np.minimum(kl, pl)
    return (kb >> (kl - m)) == (pb >> (pl - m))


def batch_search_failures(kb, kl, found, responder, pb, pl) -> int:
    """Queries not found, or answered by a peer outside the key's replicas."""
    found = np.asarray(found, dtype=bool)
    responder = np.asarray(responder, dtype=np.int64)
    pb = np.asarray(pb)
    pl = np.asarray(pl)
    ok = found.copy()
    hit = np.flatnonzero(found)
    ok[hit] = prefix_related_many(
        np.asarray(kb)[hit], np.asarray(kl)[hit], pb[responder[hit]], pl[responder[hit]]
    )
    return int((~ok).sum())


def batch_reach_failures(kb, kl, offsets, values, pb, pl) -> int:
    """Publishes that reached no peer, or reached a non-replica."""
    offsets = np.asarray(offsets, dtype=np.int64)
    values = np.asarray(values, dtype=np.int64)
    counts = np.diff(offsets)
    owner = np.repeat(np.arange(len(counts)), counts)
    good = prefix_related_many(
        np.asarray(kb)[owner], np.asarray(kl)[owner],
        np.asarray(pb)[values], np.asarray(pl)[values],
    )
    bad = counts == 0
    np.logical_or.at(bad, owner, ~good)
    return int(bad.sum())


def converged(pl, maxl: int, fraction: float = 0.99) -> bool:
    """Mean path length at or above ``fraction * maxl``."""
    return float(np.asarray(pl).mean()) >= fraction * maxl


def ref_violations(pb, pl, refs, rl, maxl: int) -> int:
    """References breaking the §2 invariant, counted over the whole table.

    Row ``i * maxl + r`` holds peer *i*'s references at level ``r + 1``;
    each must name another peer whose path shares *i*'s first ``r`` bits
    and differs at bit ``r``.  Self, dangling and too-short references
    count as violations too.
    """
    pb = np.asarray(pb, dtype=np.int64)
    pl = np.asarray(pl, dtype=np.int64)
    n = len(pb)
    refs = np.asarray(refs).reshape(n * maxl, -1)
    counts = np.asarray(rl, dtype=np.int64).reshape(-1)
    valid = np.arange(refs.shape[1])[None, :] < counts[:, None]
    row, _col = np.nonzero(valid)
    target = refs[valid].astype(np.int64)
    owner = row // maxl
    bit = row % maxl  # the level's distinguishing bit (0-based)
    bad = (target < 0) | (target >= n) | (target == owner)
    t = np.where(bad, 0, target)
    need = bit + 1
    bad |= (pl[owner] < need) | (pl[t] < need)
    shift_o = np.maximum(pl[owner] - need, 0)
    shift_t = np.maximum(pl[t] - need, 0)
    bad |= ((pb[owner] >> shift_o) ^ (pb[t] >> shift_t)) != 1
    return int(bad.sum())


def sweep_mismatches(results: list, reference: list) -> int:
    """Trials whose result differs from the serial reference run."""
    if len(results) != len(reference):
        return max(len(results), len(reference))
    return sum(1 for got, want in zip(results, reference) if got != want)


def leftover_children(pid: int | None = None) -> list[int]:
    """Live (or unreaped) child processes of *pid*, read from ``/proc``."""
    pid = os.getpid() if pid is None else pid
    children: list[int] = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                stat = fh.read()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[-1].split()
        if len(fields) > 1 and int(fields[1]) == pid:
            children.append(int(entry))
    return children


def leftover_segments(names, root: str = "/dev/shm") -> list[str]:
    """Shared-memory segments among *names* still present under *root*."""
    return [name for name in names if os.path.exists(os.path.join(root, name))]
