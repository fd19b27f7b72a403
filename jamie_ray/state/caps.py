"""Idempotent side counters: truncations of capped blocking kernels,
and the per-shard lineage counts of ``pipelines/kg.materialize_graph``
(``pages/<shard>``, ``quarantined_pages/<shard>``, ``chunks/<shard>``,
keyed by a batch fingerprint).

One counter actor per run, shared by every stage and shard of it: an
actor is a worker-process start, measured at 0.5–1 s on one core
(a settled read on a live actor costs ~0.05 s). Counters from several
sources keep apart by name, not by actor.

The banded candidate generators (minhash near-dup, simhash, embedding
near-dup, entity-link bands) and the inverted index bound their
quadratic verifies / postings with a deterministic per-key cap. The
cap is a *recall* dial — at scale, a band (or term) holding more rows
than the cap means silently dropped candidate pairs. Per the
no-silent-caps rule, kernels report every truncation to a zero-cpu side
actor so a recall-losing run is visible in lineage / run summaries
instead of invisible.

Reports are **fire-and-forget** actor calls keyed by (counter, key of
the truncated run — its band key, chunk key, LSH bucket or term hash,
never the id of a shuffle block that happens to hold it): a retried
task re-sends the same key and overwrites rather than double-counts,
so totals stay exact under Ray's task retry semantics and independent
of block layout. Because the sends are async, :func:`cap_totals`
settles — it polls the actor until the record count is stable across
two reads. The totals are
therefore **best-effort observability, not accounting**: a stable poll
cannot prove delivery of every send (a message can still be in flight
from a task that just finished, and a worker that dies *after* its task
succeeded but *before* flushing its queued actor call loses that
record). Nothing correctness-bearing may read these counters — they
exist to make recall-losing truncation visible, and an undercount of a
few blocks in a manifest is acceptable where a silent cap is not.
Callers that need exact delivery must make the send synchronous
(``ray.get`` the record inside the kernel) and pay the per-block RTT.
"""

from __future__ import annotations

import time

import ray


@ray.remote(num_cpus=0)
class CapCounters:
    """Side-aggregate of named counts; ``record`` is idempotent per
    ``(counter, key)``, so a retried task's resend overwrites."""

    def __init__(self) -> None:
        self._recs: dict[tuple[str, int], int] = {}

    def record(self, counter: str, key: int, n: int) -> None:
        self._recs[(counter, key)] = n

    def snapshot(self) -> tuple[int, dict[str, int]]:
        totals: dict[str, int] = {}
        for (counter, _), n in self._recs.items():
            totals[counter] = totals.get(counter, 0) + n
        return len(self._recs), totals


def new_cap_counters():
    """A fresh counter actor for one run (pass as ``cap_counters=``)."""
    return CapCounters.remote()


def cap_totals(handle, settle_s: float = 0.05, timeout_s: float = 5.0) -> dict[str, int]:
    """Read settled totals: poll until the record count is unchanged
    across two reads ``settle_s`` apart (bounded by ``timeout_s``)."""
    deadline = time.monotonic() + timeout_s
    n_prev, totals = ray.get(handle.snapshot.remote())
    while time.monotonic() < deadline:
        time.sleep(settle_s)
        n, totals = ray.get(handle.snapshot.remote())
        if n == n_prev:
            break
        n_prev = n
    return totals
