"""One whole-key reduce for every sorted shuffle.

:func:`sorted_reduce` is ``ds.sort(key)`` followed by one
``map_batches(fn, batch_size=None)`` call per sorted block. It is what
Ray 2.49's ``GroupedData.map_groups`` does under the default shuffle
strategy, minus the per-group Python dispatch:

- ``sort`` range-partitions rows on the key values (rows equal to a
  boundary all land on one side of it) and every reducer emits ONE
  merged block, so a block never splits a key;
- ``batch_size=None`` hands ``fn`` each whole block, so ``fn`` runs
  once per block, not once per group.

Null keys: Ray's boundary search compares raw key values, and a string
key column holding nulls fails it (``None < str``) once the input has
more than one block. So every key column sorts behind a boolean
"is null" flag: rows with a null key then share one sort tuple, land
in one block, and the search never compares a null with a value. The
flags are dropped before ``fn`` sees the block.

The contract a reducer ``fn`` keeps:

- it is correct over a table that holds ANY number of whole keys (one,
  many, or zero rows) — a block is not a group;
- on zero rows it returns the output schema (empty typed columns), so
  block schemas unify;
- it sorts the block itself when it needs a secondary order, and finds
  the key runs with :func:`run_bounds` (or hands each run to a
  per-group kernel with :func:`per_run` when the logic really is per
  group).

Sort on the reduce key ONLY: ``sort([key, secondary])`` range-partitions
on the tuple, and a key run can then straddle two blocks.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def sorted_reduce(ds, key: str | list[str], fn: Callable[[pa.Table], pa.Table]):
    """Sort ``ds`` on ``key`` (each key column behind its null flag) and
    run ``fn`` once per sorted block (see the module docstring for the
    contract ``fn`` keeps)."""
    keys = [key] if isinstance(key, str) else list(key)
    flags = [f"__null_{k}" for k in keys]

    def flag_nulls(batch: pa.Table) -> pa.Table:
        for k, f in zip(keys, flags):
            batch = batch.append_column(f, pc.is_null(batch.column(k)))
        return batch

    return (
        ds.map_batches(flag_nulls, batch_format="pyarrow")
        .sort([c for pair in zip(flags, keys) for c in pair])
        .map_batches(
            lambda block: fn(block.drop_columns(flags)),
            batch_format="pyarrow",
            batch_size=None,
        )
    )


def run_bounds(table: pa.Table, cols: str | list[str]) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, ends)`` of the equal-key runs of ``table``, which MUST
    already be sorted on ``cols``; nulls compare equal to each other."""
    n = table.num_rows
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    change = np.zeros(n - 1, dtype=bool)
    for c in [cols] if isinstance(cols, str) else cols:
        col = table.column(c)
        cur, prev = col.slice(1), col.slice(0, n - 1)
        same = pc.or_kleene(
            pc.fill_null(pc.equal(cur, prev), False),
            pc.and_(pc.is_null(cur), pc.is_null(prev)),
        )
        change |= ~same.to_numpy(zero_copy_only=False)
    starts = np.concatenate([[0], np.flatnonzero(change) + 1]).astype(np.int64)
    ends = np.append(starts[1:], n).astype(np.int64)
    return starts, ends


def null_codes(col: pa.ChunkedArray) -> pa.DictionaryArray:
    """Null-safe group key: dictionary indices with null as its own
    entry. pyarrow's multi-key ``group_by`` splits rows whose string key
    is null into several groups, so nulls never reach the grouper."""
    return pc.dictionary_encode(col.combine_chunks(), null_encoding="encode")


def group_sum(
    table: pa.Table, keys: list[str], sums: list[str], count: str | None
) -> pa.Table:
    """``keys``, the sum of each ``sums`` column (same name) and ``__n``
    (the row count, or the sum of column ``count``) per distinct key
    tuple, grouped on :func:`null_codes` so null keys form one group.
    Used both as a block combiner (``count=None``) and as the
    ``sorted_reduce`` reducer over combined rows (``count="__n"``)."""
    codes = {k: null_codes(table.column(k)) for k in keys}
    n = table.column(count) if count else pa.array(np.ones(table.num_rows, np.int64))
    work = pa.table(
        {
            **{k: c.indices for k, c in codes.items()},
            **{c: table.column(c) for c in sums},
            "__n": n,
        }
    )
    gb = work.group_by(keys, use_threads=False).aggregate(
        [(c, "sum") for c in sums] + [("__n", "sum")]
    )
    # select by the documented <col>_<agg> names — pyarrow's output
    # column ORDER is an implementation detail
    cols = {k: codes[k].dictionary.take(gb.column(k)) for k in keys}
    for c in sums:
        cols[c] = gb.column(f"{c}_sum")
    cols["__n"] = gb.column("__n_sum")
    return pa.table(cols)


def per_run(
    block: pa.Table, cols: str | list[str], fn: Callable[[pa.Table], pa.Table]
) -> pa.Table:
    """``fn`` over each equal-key run of sorted ``block``, concatenated;
    ``fn`` of the zero-row block when there is no run, so the output
    schema holds on zero rows too."""
    parts = [fn(block.slice(s, e - s)) for s, e in zip(*run_bounds(block, cols))]
    return pa.concat_tables(parts) if parts else fn(block.slice(0, 0))
