"""Custom temporal operators Ray Data lacks natively (brief: "as-of
join, range join, windowed aggregate").

The joins follow one composition rule: express the semantics as
``union(side-tagged) -> shuffle.sorted_reduce(key)`` so the only data
movement is ONE sorted shuffle on the join/partition key; each sorted
block holds whole keys and runs the per-key merge over its key runs
(``shuffle.per_run``). ``sessionize`` is the same shuffle with a
vectorized reducer: one lexsort per block and a gap cumsum that resets
at every key change.

Partitioning assumption (documented per the custom-operator rule): all
rows of one key fit in one sorted block. For web-scale event streams
that holds after salting by (key, time-bucket); the pure-key variant
here matches the oracle semantics exactly. Null keys form one key, as
in a SQL ``GROUP BY``: a null-key left row matches null-key right rows.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..shuffle import group_sum, per_run, run_bounds, sorted_reduce


def _us_col(col) -> np.ndarray:
    """Vectorized ts column -> int64 MICROSECONDS (the module's exact
    time base). Timestamp columns cast exactly; numeric columns follow
    the module convention (numeric ts = epoch SECONDS) and convert via
    ``round(sec * 1e6)`` — never a raw int64->timestamp reinterpret,
    which would silently read seconds as microseconds. All window/
    interval comparisons happen on these integers, so boundary pairs
    match DuckDB's timezone-free interval arithmetic bit-for-bit (float
    seconds carry ~0.24 µs of ulp noise at 2026 epochs)."""
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if pa.types.is_timestamp(col.type):
        return pc.cast(pc.cast(col, pa.timestamp("us")), pa.int64()).to_numpy(
            zero_copy_only=False
        )
    sec = pc.cast(col, pa.float64()).to_numpy(zero_copy_only=False)
    return np.round(sec * 1e6).astype(np.int64)


def _us(seconds: float) -> int:
    """Interval in seconds -> exact int64 microseconds."""
    return int(round(float(seconds) * 1e6))


def _bucket_col(col, bucket_us: int) -> pa.Array:
    """ts column -> int64 time-bucket id (floor(us / bucket_us) —
    integer floor division, exact at any epoch)."""
    return pa.array(_us_col(col) // np.int64(bucket_us), pa.int64())


def _tagged_schema(ds, tag) -> dict:
    """Column name -> type of ``ds.map_batches(tag)``, from ``tag`` on
    zero rows of ``ds``'s schema: a mapped Dataset has no schema until
    it runs, and none at all when it holds no rows."""
    return {f.name: f.type for f in tag(ds.schema().base_schema.empty_table()).schema}


def _tie_key(ts_val, v):
    """Deterministic (ts, tie-col) sort key that tolerates null tie
    values: nulls sort SMALLEST (they never win a tie against a
    non-null), so nullable attached columns don't crash the merge."""
    return (ts_val, v is not None, v if v is not None else 0)


def asof_join(
    left,
    right,
    *,
    left_key: str,
    right_key: str,
    left_ts: str,
    right_ts: str,
    right_cols: list[str],
    bucket_seconds: float | None = None,
):
    """As-of join: for each left row, the right row with the same key and
    the greatest ``right_ts <= left_ts`` (DuckDB ``ASOF JOIN``
    semantics; inner — left rows with no match are dropped). Ties on
    ``right_ts`` resolve to the greatest value of the first attached
    column — deterministic and mirrored in the oracle.

    A null left key matches null right keys (SQL ``IS NOT DISTINCT
    FROM``), unlike :func:`join.hash_join`, where a null key matches
    nothing; ``test_temporal_join_layouts_vs_duckdb`` in
    ``tests/test_sorted_reduce.py`` pins this.

    ``bucket_seconds`` (hot-key salting, SURVEY §4): when set, the
    shuffle key becomes (key, time_bucket). A left whose bucket holds
    no earlier right falls back to a per-(key, bucket) SUMMARY — the
    max-(ts, first_col) right row of each bucket, a tiny side aggregate
    broadcast via ``ray.put`` — from the greatest earlier bucket (any
    in-bucket right beats every earlier bucket by construction, so the
    result is bit-identical to the unsalted path; asserted in tests).
    Assumes summary mass (#keys x #occupied buckets) ≪ corpus; the
    driver-side collection is guarded by the edge cap.
    """
    salted = bucket_seconds is not None
    bucket_us = _us(bucket_seconds) if salted else 0
    if not right_cols:
        raise ValueError(
            "asof_join: right_cols must name at least one column — the "
            "first one is the deterministic tie-break on equal right_ts"
        )

    def tag(side: int, key: str, ts: str, cols: list[str]):
        def fn(batch: pa.Table) -> pa.Table:
            out = {
                "__key": batch.column(key),
                "__ts": batch.column(ts),
                "__side": pa.array([side] * batch.num_rows, pa.int8()),
            }
            if salted:
                out["__salt"] = _bucket_col(batch.column(ts), bucket_us)
            for c in cols:
                out[c] = batch.column(c)
            return pa.table(out)

        return fn

    left_cols = [c for c in left.schema().names if c not in (left_key,)]
    tag_left = tag(0, left_key, left_ts, left_cols)
    tag_right = tag(1, right_key, right_ts, right_cols)
    lt = left.map_batches(tag_left, batch_format="pyarrow")
    rt = right.map_batches(tag_right, batch_format="pyarrow")

    summary_ref = None
    if salted:
        import ray

        from ..state.collect import iter_capped_batches

        def summarize(block: pa.Table) -> pa.Table:
            # the max-(ts, first col) right row of each (key, bucket):
            # sort each run by it (nulls in the tie column smallest,
            # _tie_key) and take the run's last row
            us = _us_col(block.column("__ts")).astype(np.float64)
            t = block.append_column("__ts_sec", pa.array(us))
            t = t.sort_by(
                [("__key", "ascending"), ("__salt", "ascending"),
                 ("__ts_sec", "ascending"), (right_cols[0], "ascending")],
                null_placement="at_start",
            )
            last = pa.array(run_bounds(t, ["__key", "__salt"])[1] - 1)
            return t.select(["__key", "__salt", "__ts_sec", *right_cols]).take(last)

        summ_ds = sorted_reduce(rt, ["__key", "__salt"], summarize)
        # key -> sorted [(bucket, ts_sec, {col: value})]
        summary_map: dict = {}
        for b in iter_capped_batches(summ_ds, context="asof bucket summaries"):
            keys = b.column("__key").to_pylist()
            salts = b.column("__salt").to_pylist()
            tss = b.column("__ts_sec").to_pylist()
            vals = {c: b.column(c).to_pylist() for c in right_cols}
            for i, k in enumerate(keys):
                summary_map.setdefault(k, []).append(
                    (salts[i], tss[i], {c: vals[c][i] for c in right_cols})
                )
        for k in summary_map:
            summary_map[k].sort(key=lambda e: e[0])
        summary_ref = ray.put(summary_map)
    # union of two different schemas is not allowed -> pad each side
    # with the other's columns as nulls
    def pad(missing: list[str], types: dict):
        def fn(batch: pa.Table) -> pa.Table:
            for c in missing:
                batch = batch.append_column(
                    c, pa.nulls(batch.num_rows, types[c])
                )
            return batch

        return fn

    l_schema = _tagged_schema(left, tag_left)
    r_schema = _tagged_schema(right, tag_right)
    lt = lt.map_batches(
        pad([c for c in r_schema if c not in l_schema], r_schema),
        batch_format="pyarrow",
    )
    rt = rt.map_batches(
        pad([c for c in l_schema if c not in r_schema], l_schema),
        batch_format="pyarrow",
    )
    all_cols = sorted(set(l_schema) | set(r_schema))
    lt = lt.map_batches(lambda b: b.select(all_cols), batch_format="pyarrow")
    rt = rt.map_batches(lambda b: b.select(all_cols), batch_format="pyarrow")

    drop_cols = ["__side"] + (["__salt"] if salted else [])

    def _summaries():
        # module-level per-worker cache (outlives the per-task closure):
        # the summary map is deserialized once per worker process, not
        # once per group call
        from ..state.worker_cache import cached_get

        return cached_get(summary_ref, "asof_summary_map")

    def merge(group: pa.Table) -> pa.Table:
        sides = group.column("__side").to_numpy(zero_copy_only=False)
        ts = _us_col(group.column("__ts"))
        l_ix = np.where(sides == 0)[0]
        r_ix = np.where(sides == 1)[0]
        if not len(l_ix) or (not salted and not len(r_ix)):
            return group.slice(0, 0).drop_columns(drop_cols)
        if len(r_ix):
            # right side sorted by (ts, first right col) so the backward
            # search and the tie rule are deterministic (nulls in the
            # tie column sort smallest — _tie_key)
            r_first = group.column(right_cols[0]).take(pa.array(r_ix)).to_pylist()
            r_order = sorted(
                range(len(r_ix)), key=lambda i: _tie_key(ts[r_ix[i]], r_first[i])
            )
            r_sorted = r_ix[r_order]
            r_ts_sorted = ts[r_sorted]
            pos = np.searchsorted(r_ts_sorted, ts[l_ix], side="right") - 1
        else:
            r_sorted = np.array([], dtype=np.int64)
            pos = np.full(len(l_ix), -1, dtype=np.int64)
        keep = pos >= 0
        l_keep = l_ix[keep]
        match = r_sorted[pos[keep]] if keep.any() else np.array([], dtype=np.int64)
        out: dict[str, pa.Array] = {}
        for c in group.column_names:
            if c in drop_cols:
                continue
            col = group.column(c)
            src = match if c in right_cols else l_keep
            out[c] = col.take(pa.array(src, pa.int64()))
        parts = [pa.table(out)]
        if salted and (~keep).any():
            # lefts with no in-bucket right fall back to the summary of
            # the greatest earlier bucket of this key (its ts is < this
            # bucket's start, hence <= every left_ts here)
            l_miss = l_ix[~keep]
            key_val = group.column("__key")[0].as_py()
            salt_val = group.column("__salt")[0].as_py()
            summs = _summaries().get(key_val, [])
            idx = bisect_left([e[0] for e in summs], salt_val) - 1
            if idx >= 0:
                _, _, vals = summs[idx]
                fb: dict[str, pa.Array] = {}
                for c in group.column_names:
                    if c in drop_cols:
                        continue
                    col = group.column(c)
                    if c in right_cols:
                        fb[c] = pa.array([vals[c]] * len(l_miss), type=col.type)
                    else:
                        fb[c] = col.take(pa.array(l_miss, pa.int64()))
                parts.append(pa.table(fb))
        return pa.concat_tables(parts) if len(parts) > 1 else parts[0]

    group_keys = ["__key", "__salt"] if salted else ["__key"]
    return sorted_reduce(
        lt.union(rt), group_keys, lambda block: per_run(block, group_keys, merge)
    )


def sessionize(
    events,
    *,
    key: str = "user_id",
    ts: str = "ts",
    gap_minutes: int = 30,
    id_col: str = "event_id",
):
    """Gap-based sessionization: within each key, a new session starts
    when the time since the previous event exceeds ``gap_minutes``.
    Emits every event row + ``session_id`` (0-based per key, in time
    order; ties keep stable event order by ``id_col``).
    """
    gap_us = gap_minutes * 60 * 1_000_000

    def sessions(block: pa.Table) -> pa.Table:
        # the block holds whole keys in key runs: order every row by
        # (run, ts, id), then a session starts at each gap or run start
        starts, ends = run_bounds(block, key)
        run = np.repeat(np.arange(len(starts)), ends - starts)
        tss = _us_col(block.column(ts))
        eids = np.asarray(block.column(id_col).to_pylist())
        order = np.lexsort((eids, tss, run))
        gaps = np.diff(tss[order]) > gap_us
        gaps[starts[1:] - 1] = False  # a new key is not a gap
        n_gaps = np.concatenate(([0], np.cumsum(gaps)))
        session = np.empty(block.num_rows, dtype=np.int64)
        session[order] = n_gaps - np.repeat(n_gaps[starts], ends - starts)
        return block.append_column("session_id", pa.array(session, pa.int64()))

    return sorted_reduce(events, key, sessions)


def hopping_window_agg(
    events,
    *,
    ts: str = "ts",
    size_seconds: float,
    hop_seconds: float,
    value_col: str | None = None,
    group_cols: list[str] | None = None,
    value_scale: float = 1_000_000.0,
):
    """Hopping (sliding) window aggregate: count + exact value sum per
    (window_start, *group_cols) for windows ``[k*hop, k*hop + size)``.

    A tumbling window is the ``size == hop`` special case
    (``events_hourly`` in the relational suite); here each event lands
    in ``size/hop`` windows via a vectorized integer expansion, the
    per-batch combiner pre-aggregates, and ONE sorted whole-key reduce
    (``shuffle.sorted_reduce``) sums the partials (the §2.8
    windowed-aggregate shape). Null group keys form one group, as in
    SQL ``GROUP BY``.

    Integer microsecond window math and scaled-integer value sums keep
    the result bit-identical to the DuckDB oracle regardless of
    summation order.
    """
    group_cols = group_cols or []
    keys = ["window_us", *group_cols]
    sums = ["val_s"] if value_col else []
    h_us = int(round(hop_seconds * 1e6))
    s_us = int(round(size_seconds * 1e6))

    def expand(batch: pa.Table) -> pa.Table:
        # _us_col, not a raw int64->timestamp cast: a NUMERIC ts column
        # is epoch seconds by module convention, and the raw cast would
        # silently reinterpret those seconds as microseconds
        t_us = _us_col(batch.column(ts))
        k_min = (t_us - s_us) // h_us + 1
        k_max = t_us // h_us
        reps = (k_max - k_min + 1).astype(np.int64)
        row_idx = np.repeat(np.arange(len(t_us), dtype=np.int64), reps)
        offs = np.arange(len(row_idx), dtype=np.int64) - np.repeat(
            np.cumsum(reps) - reps, reps
        )
        idx = pa.array(row_idx, pa.int64())
        expanded = {"window_us": pa.array((k_min[row_idx] + offs) * h_us, pa.int64())}
        for g in group_cols:
            expanded[g] = batch.column(g).take(idx)
        if value_col:
            scaled = pc.cast(
                pc.floor(
                    pc.add(
                        pc.multiply(
                            pc.cast(batch.column(value_col), pa.float64()),
                            pa.scalar(value_scale),
                        ),
                        pa.scalar(0.5),
                    )
                ),
                pa.int64(),
            )
            expanded["val_s"] = scaled.take(idx)
        # combiner: collapse within the batch before the shuffle
        return group_sum(pa.table(expanded), keys, sums, None)

    reduced = sorted_reduce(
        events.map_batches(expand, batch_format="pyarrow"),
        keys,
        lambda b: group_sum(b, keys, sums, "__n"),
    )

    def finish(batch: pa.Table) -> pa.Table:
        cols = {
            "window_start": pc.cast(batch.column("window_us"), pa.timestamp("us")),
        }
        for g in group_cols:
            cols[g] = batch.column(g)
        cols["n"] = batch.column("__n")
        if value_col:
            cols["sum_value"] = pc.divide(
                pc.cast(batch.column("val_s"), pa.float64()),
                pa.scalar(value_scale),
            )
        return pa.table(cols)

    return reduced.map_batches(finish, batch_format="pyarrow")


def range_join(
    left,
    right,
    *,
    left_key: str,
    right_key: str,
    left_ts: str,
    right_ts: str,
    right_cols: list[str],
    lower_seconds: float,
    upper_seconds: float,
    bucket_seconds: float | None = None,
):
    """Range (interval) join: every (left, right) pair with matching key
    and ``right_ts`` in ``[left_ts + lower, left_ts + upper]`` seconds.

    Same physical shape as :func:`asof_join` (one sorted shuffle on the
    key, vectorized per-key window scan via searchsorted); emits one
    row per qualifying pair (inner join). Null keys match null keys
    (``IS NOT DISTINCT FROM``), as in :func:`asof_join`.

    ``bucket_seconds`` (hot-key salting, SURVEY §4): when set, the
    shuffle key becomes (key, time_bucket) — a hot key's rows spread
    over its time buckets instead of landing on one reducer. Each left
    row goes to its own bucket; each right row is replicated to the
    bucket range its matches' left timestamps can occupy
    (``(upper-lower)/bucket_seconds + 1`` copies), so every qualifying
    pair meets in exactly ONE group and the output is bit-identical to
    the unsalted path (asserted in tests). Pick ``bucket_seconds``
    on the order of the window span to bound replication at ~2x.
    """
    salted = bucket_seconds is not None
    bucket_us = _us(bucket_seconds) if salted else 0
    lower_us, upper_us = _us(lower_seconds), _us(upper_seconds)

    def tag_left(batch: pa.Table) -> pa.Table:
        cols = [c for c in batch.column_names if c != left_key]
        out = {
            "__key": batch.column(left_key),
            "__ts": batch.column(left_ts),
            "__side": pa.array([0] * batch.num_rows, pa.int8()),
        }
        if salted:
            out["__salt"] = _bucket_col(batch.column(left_ts), bucket_us)
        for c in cols:
            out[c] = batch.column(c)
        return pa.table(out)

    def tag_right(batch: pa.Table) -> pa.Table:
        out = {
            "__key": batch.column(right_key),
            "__ts": batch.column(right_ts),
            "__side": pa.array([1] * batch.num_rows, pa.int8()),
        }
        for c in right_cols:
            out[c] = batch.column(c)
        t = pa.table(out)
        if not salted:
            return t
        # replicate each right row into every bucket a matching left
        # could be in: left_ts in [ts - upper, ts - lower] — INTEGER
        # microsecond arithmetic, so a boundary replica's bucket agrees
        # exactly with _bucket_col on the left side (a float floor here
        # could land a boundary pair one bucket apart and break the
        # bit-identical-to-unsalted invariant)
        t_us = _us_col(batch.column(right_ts))
        bmin = (t_us - np.int64(upper_us)) // np.int64(bucket_us)
        bmax = (t_us - np.int64(lower_us)) // np.int64(bucket_us)
        reps = (bmax - bmin + 1).astype(np.int64)
        row_idx = np.repeat(np.arange(len(t_us), dtype=np.int64), reps)
        # per-replica bucket: bmin[row] + intra-row offset
        offsets = np.arange(len(row_idx), dtype=np.int64) - np.repeat(
            np.cumsum(reps) - reps, reps
        )
        salts = bmin[row_idx] + offsets
        t = t.take(pa.array(row_idx))
        return t.append_column("__salt", pa.array(salts, pa.int64()))

    lt = left.map_batches(tag_left, batch_format="pyarrow")
    rt = right.map_batches(tag_right, batch_format="pyarrow")

    def pad(missing: list[str], types: dict):
        def fn(batch: pa.Table) -> pa.Table:
            for c in missing:
                batch = batch.append_column(c, pa.nulls(batch.num_rows, types[c]))
            return batch

        return fn

    l_schema = _tagged_schema(left, tag_left)
    r_schema = _tagged_schema(right, tag_right)
    lt = lt.map_batches(pad([c for c in r_schema if c not in l_schema], r_schema),
                        batch_format="pyarrow")
    rt = rt.map_batches(pad([c for c in l_schema if c not in r_schema], l_schema),
                        batch_format="pyarrow")
    all_cols = sorted(set(l_schema) | set(r_schema))
    lt = lt.map_batches(lambda b: b.select(all_cols), batch_format="pyarrow")
    rt = rt.map_batches(lambda b: b.select(all_cols), batch_format="pyarrow")

    drop_cols = ["__side"] + (["__salt"] if salted else [])

    def merge(group: pa.Table) -> pa.Table:
        sides = group.column("__side").to_numpy(zero_copy_only=False)
        ts = _us_col(group.column("__ts"))  # exact integer window math
        l_ix = np.where(sides == 0)[0]
        r_ix = np.where(sides == 1)[0]
        if not len(l_ix) or not len(r_ix):
            return group.slice(0, 0).drop_columns(drop_cols)
        r_order = np.argsort(ts[r_ix], kind="stable")
        r_sorted = r_ix[r_order]
        r_ts_sorted = ts[r_sorted]
        lo = np.searchsorted(r_ts_sorted, ts[l_ix] + lower_us, side="left")
        hi = np.searchsorted(r_ts_sorted, ts[l_ix] + upper_us, side="right")
        # vectorized pair emission: one output row per (left, window slot)
        counts = (hi - lo).astype(np.int64)
        l_out = np.repeat(l_ix, counts)
        offs = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(
            np.concatenate(([0], np.cumsum(counts)[:-1])), counts
        )
        r_out = r_sorted[np.repeat(lo, counts) + offs]
        l_idx = pa.array(l_out.astype(np.int64))
        r_idx = pa.array(r_out.astype(np.int64))
        out: dict[str, pa.Array] = {}
        for c in group.column_names:
            if c in drop_cols:
                continue
            col = group.column(c)
            out[c] = col.take(r_idx if c in right_cols else l_idx)
        return pa.table(out)

    keys = ["__key", "__salt"] if salted else ["__key"]
    return sorted_reduce(lt.union(rt), keys, lambda block: per_run(block, keys, merge))
