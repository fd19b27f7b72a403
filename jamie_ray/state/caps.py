"""Idempotent side counters: truncations of capped blocking kernels,
and the per-shard lineage counts of ``pipelines/kg.materialize_graph``
(``pages/<shard>``, ``quarantined_pages/<shard>``, ``chunks/<shard>``,
keyed by a batch fingerprint).

One counter actor per Ray session, shared by every run in it: an actor
is a worker-process start, measured at 0.5–1 s on one core (a settled
read on a live actor costs ~0.05 s). :func:`new_cap_counters` returns a
:class:`RunCounters`, the session actor plus a fresh run id; records
keep apart by run, and within a run by counter name.
:meth:`RunCounters.close` drops the run's records. The actor is named
and looked up with ``get_if_exists`` (the shape of Ray Data's own stats
actor); it is owned by the driver, not detached, and this module holds
a handle to it: a non-detached named actor is reference-counted and
would exit with the last handle. After ``ray.shutdown()`` and
``ray.init()`` the lookup finds no actor and creates a fresh one.

The banded candidate generators (minhash near-dup, simhash, embedding
near-dup, entity-link bands) and the inverted index bound their
quadratic verifies / postings with a deterministic per-key cap. The
cap is a *recall* dial — at scale, a band (or term) holding more rows
than the cap means silently dropped candidate pairs. Per the
no-silent-caps rule, kernels report every truncation to a zero-cpu side
actor so a recall-losing run is visible in lineage / run summaries
instead of invisible.

Reports are **fire-and-forget** actor calls keyed by (run, counter,
key of the truncated group — its band key, chunk key, LSH bucket or
term hash, never the id of a shuffle block that happens to hold it): a
retried task re-sends the same key and overwrites rather than
double-counts, so totals stay exact under Ray's task retry semantics
and independent of block layout. Because the sends are async,
:func:`cap_totals` settles — it polls the actor until the run's record
count is stable across two reads. The totals are therefore
**best-effort observability, not accounting**: a stable poll cannot
prove delivery of every send (a message can still be in flight from a
task that just finished, and a worker that dies *after* its task
succeeded but *before* flushing its queued actor call loses that
record). Nothing correctness-bearing may read these counters — they
exist to make recall-losing truncation visible, and an undercount of a
few blocks in a manifest is acceptable where a silent cap is not.
Callers that need exact delivery must make the send synchronous
(``ray.get`` the record inside the kernel) and pay the per-block RTT.
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import dataclass

import ray

_ACTOR_NAME = "jamie_ray.cap_counters"
_lock = threading.Lock()
_session_actor = None  # keeps the named, non-detached actor alive


@ray.remote(num_cpus=0)
class CapCounters:
    """Side-aggregate of named counts per run; ``record`` is idempotent
    per ``(run, counter, key)``, so a retried task's resend overwrites.
    A closed run ignores sends still in flight."""

    def __init__(self) -> None:
        self._recs: dict[str, dict[tuple[str, int], int]] = {}
        self._closed: set[str] = set()

    def record(self, run: str, counter: str, key: int, n: int) -> None:
        if run not in self._closed:
            self._recs.setdefault(run, {})[(counter, key)] = n

    def snapshot(self, run: str) -> tuple[int, dict[str, int]]:
        recs = self._recs.get(run, {})
        totals: dict[str, int] = {}
        for (counter, _), n in recs.items():
            totals[counter] = totals.get(counter, 0) + n
        return len(recs), totals

    def close(self, run: str) -> None:
        self._recs.pop(run, None)
        self._closed.add(run)


@dataclass(frozen=True)
class RunCounters:
    """One run's view of the session counter actor (picklable: pass it
    as ``cap_counters=`` into kernels that run in Ray tasks)."""

    actor: ray.actor.ActorHandle
    run: str

    def record(self, counter: str, key: int, n: int) -> None:
        """Fire-and-forget ``n`` under ``(counter, key)`` for this run."""
        self.actor.record.remote(self.run, counter, key, n)

    def close(self) -> None:
        """Drop this run's records (later sends of the run are ignored)."""
        self.actor.close.remote(self.run)


def _session_counters():
    """The session's counter actor, created on first use. The handle
    from creation is the one kept: a handle found by name does not
    count toward a non-detached actor's references."""
    global _session_actor
    with _lock:
        try:
            live = ray.get_actor(_ACTOR_NAME)
        except ValueError:  # none yet in this session, or it died
            live = None
        if live is None or live != _session_actor:
            _session_actor = CapCounters.options(
                name=_ACTOR_NAME, get_if_exists=True
            ).remote()
        return _session_actor


def new_cap_counters() -> RunCounters:
    """Counters for one run (pass as ``cap_counters=``); ``close()`` it
    when the run ends."""
    return RunCounters(_session_counters(), uuid.uuid4().hex)


def cap_totals(
    counters: RunCounters, settle_s: float = 0.05, timeout_s: float = 5.0
) -> dict[str, int]:
    """Read the run's settled totals: poll until its record count is
    unchanged across two reads ``settle_s`` apart (bounded by
    ``timeout_s``)."""

    def snapshot() -> tuple[int, dict[str, int]]:
        return ray.get(counters.actor.snapshot.remote(counters.run))

    deadline = time.monotonic() + timeout_s
    n_prev, totals = snapshot()
    while time.monotonic() < deadline:
        time.sleep(settle_s)
        n, totals = snapshot()
        if n == n_prev:
            break
        n_prev = n
    return totals
