"""Streaming-shaped incremental state (guide pattern; beyond the
reference, which has no streaming concerns at all — SURVEY.md §2.8).

Ray Data's executor streams blocks but is not a stream processor; when
semantics genuinely need incremental state the pattern is:

- state scoped WITHIN a key: ``shuffle.sorted_reduce`` on the key with
  a ts-ordered scan that resets at every key change inside each sorted
  block (``sessionize`` in ``temporal.py``);
- GLOBAL running state: sort by ts, then a single-actor
  ``map_batches(Cls, concurrency=1)`` whose instance carries the
  accumulator across batches — implemented here.
"""

from __future__ import annotations

from collections import defaultdict

import pyarrow as pa


class RunningCounter:
    """Single-actor stage: ts-sorted events -> per-batch snapshot of
    cumulative counts per event type (a streaming-dashboard emission).

    State (the counter dict) lives in the actor across batches; with
    ``concurrency=1`` and a ts-sorted input, emissions are monotone.
    """

    def __init__(self) -> None:
        self.counts: dict[str, int] = defaultdict(int)
        self.last_ts = None

    def __call__(self, batch: pa.Table) -> pa.Table:
        types = batch.column("event_type").to_pylist()
        tss = batch.column("ts").to_pylist()
        for t in types:
            self.counts[t] += 1
        if tss:
            self.last_ts = max(tss)
        keys = sorted(self.counts)
        return pa.table(
            {
                "watermark": pa.array([self.last_ts] * len(keys)),
                "event_type": pa.array(keys, pa.string()),
                "cumulative_n": pa.array(
                    [self.counts[k] for k in keys], pa.int64()
                ),
            }
        )


def running_counts(events, batch_size: int = 256):
    """events -> streaming snapshots of cumulative counts per type.

    One snapshot row group per input batch; the FINAL snapshot equals
    the batch groupby counts (asserted in tests). Deliberately a
    single-actor stage: global running state cannot shard without
    changing semantics — use the per-key pattern when it can.

    Requires ordered block delivery: Ray's default
    ``preserve_order=False`` may feed sorted blocks to the actor out of
    order, breaking monotone watermarks — so this sets
    ``execution_options.preserve_order`` on a PRIVATE DataContext copy
    attached to the derived pipeline only. (``Dataset.context`` is
    SHARED with every dataset derived from the same input — verified —
    so mutating ``events.context`` directly would silently pessimize
    the caller's other pipelines built from the same Dataset.)
    """
    import copy

    ordered = events.sort("ts")
    ctx = copy.deepcopy(ordered.context)
    ctx.execution_options.preserve_order = True
    ordered._plan._context = ctx
    return ordered.map_batches(
        RunningCounter,
        concurrency=1,
        batch_size=batch_size,
        batch_format="pyarrow",
    )
