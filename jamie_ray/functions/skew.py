"""Skew handling utilities: salted groupby for hot keys.

The engine's default answer to skew is the combiner pattern (pre-
aggregate inside ``map_batches`` so a hot key collapses to one row per
block before the shuffle — see ``pipelines/relational.py``) plus
deterministic caps on quadratic per-group work (``stages/link.py``,
``functions/dedup_docs.py``). This module adds the third tool the north
rule names explicitly: **salting** for aggregations whose per-group
state is too large to combine blindly — the key is sharded into
``n_salts`` sub-keys, partial-aggregated per (key, salt), then reduced
per key, so one hot key's rows spread over ``n_salts`` reducers instead
of one.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..shuffle import group_sum, run_bounds, sorted_reduce


def salted_group_sum(
    ds,
    key: str,
    sum_cols: list[str],
    *,
    n_salts: int = 16,
    count_as: str = "n",
):
    """groupby(key).sum(...) with a salt stage: sorted shuffle #1 on
    (key, salt) — a hot key spreads over n_salts reducers — then a tiny
    sorted shuffle #2 on key over the already-reduced rows. Returns one
    row per key (null keys form one group, like SQL ``GROUP BY``) with
    exact sums + counts."""
    sums = [f"{c}_sum" for c in sum_cols]

    def local(batch: pa.Table) -> pa.Table:
        # round-robin by block-local row index: salt assignment is free
        # to be arbitrary (sums merge across salts, so WHICH salt a row
        # lands on never affects results — only load balance), and the
        # plain modulo spreads a hot key perfectly evenly, unlike a
        # hash, which collides away ~1/e of the salt space
        salts = np.arange(batch.num_rows, dtype=np.int64) % n_salts
        t = batch.select([key, *sum_cols]).rename_columns([key, *sums])
        t = t.append_column("__salt", pa.array(salts))
        return group_sum(t, [key, "__salt"], sums, None)

    stage1 = sorted_reduce(
        ds.map_batches(local, batch_format="pyarrow"),
        [key, "__salt"],
        lambda b: group_sum(b, [key, "__salt"], sums, "__n").drop_columns(["__salt"]),
    )
    return sorted_reduce(
        stage1,
        key,
        lambda b: group_sum(b, [key], sums, "__n").rename_columns([key, *sums, count_as]),
    )


def grouped_topk(
    ds,
    key_col: str,
    value_col: str,
    k: int,
    *,
    id_col: str = "doc_id",
    descending: bool = True,
):
    """Deterministic top-``k`` rows per key — the public form of the
    combiner the relational pipelines use (block-local top-k per key
    BEFORE the shuffle, so a hot key ships at most ``blocks x k`` rows
    instead of its full mass).

    Rank order is ``value`` (``descending=`` direction) with the
    ``id_col`` ascending tiebreak, so results are bit-deterministic on
    any block layout and any tie pattern — the SQL twin is
    ``row_number() OVER (PARTITION BY key ORDER BY value DESC, id)
    <= k``. The shuffle is one sorted shuffle on the key
    (``shuffle.sorted_reduce``); each sorted block re-runs the same
    vectorized select over every key it holds. NULL values are
    rejected loudly (rank order would be engine-defined); NULL keys
    form their own group, like SQL ``GROUP BY``.

    Returns the winning rows with their original columns.
    """
    if k < 1:
        raise ValueError(f"grouped_topk: need k >= 1, got {k}")
    order = "descending" if descending else "ascending"

    def local_topk(batch: pa.Table) -> pa.Table:
        if batch.column(value_col).null_count:
            raise ValueError(
                f"grouped_topk: column {value_col!r} contains NULL — "
                "drop/impute upstream (rank order would be undefined)"
            )
        # sort key-major, then value in rank order, then id: rows of
        # one key are contiguous and already rank-sorted, so the top-k
        # mask is pure index arithmetic over the key runs
        s = batch.sort_by(
            [(key_col, "ascending"), (value_col, order), (id_col, "ascending")]
        )
        starts, ends = run_bounds(s, key_col)
        rank = np.arange(s.num_rows) - np.repeat(starts, ends - starts)
        return s.filter(pa.array(rank < k))

    return sorted_reduce(
        ds.map_batches(local_topk, batch_format="pyarrow"), key_col, local_topk
    )
