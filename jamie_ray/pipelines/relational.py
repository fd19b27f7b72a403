"""Relational operator suite over the driver's TPC-H-ish tables.

Each function is a Ray-Data-native implementation of one operator class
from SURVEY.md §2 (aggregations G1-G6, sorts/limits O1, filters M11-12,
set ops O7, joins J*) and has an exact DuckDB-SQL twin in
``__ray_entry__.oracle_sql`` (same column names, same rounding).

Patterns under test at scale:

- **partial aggregation**: every groupby pre-combines inside
  ``map_batches`` via ``pyarrow.TableGroupBy`` (vectorized) so the
  shuffle moves one row per (block x group), not per input row;
- **broadcast join**: dimension tables ride ``ray.put`` once and join
  as dict lookups inside ``map_batches`` — never a shuffle join for a
  small side;
- **pruned reads**: every read lists exactly the columns it needs.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data

from ..functions.text_analysis import (
    fingerprint_batch,
    lang_id_batch,
    quality_score_batch,
    token_count_batch,
)
from ..shuffle import group_sum, run_bounds, sorted_reduce


def _read(sf_dir: str, name: str, columns: list[str] | None = None) -> ray.data.Dataset:
    return ray.data.read_parquet(f"{sf_dir}/{name}.parquet", columns=columns)


def _broadcast_array(ref) -> pa.Array:
    # the shared per-worker single-entry ref cache (state/worker_cache)
    if not isinstance(ref, ray.ObjectRef):
        return ref
    from ..state.worker_cache import cached_get

    return cached_get(ref, "relational_broadcast")


def _scaled_int(col, scale: float):
    """floor(x*scale + 0.5) as int64 — the exact-sum trick: money/metric
    doubles become integers so distributed summation is order-independent
    and bit-identical to the DuckDB oracle (same floor expression)."""
    return pc.cast(
        pc.floor(pc.add(pc.multiply(pc.cast(col, pa.float64()), pa.scalar(scale)), pa.scalar(0.5))),
        pa.int64(),
    )


def _partial_groupby_sum(
    ds: ray.data.Dataset, keys: list[str], sum_cols: list[str], count_as: str
) -> ray.data.Dataset:
    """Block-local combine + one sorted whole-key reduce (the combiner
    pattern); null keys form one group, as in SQL ``GROUP BY``."""
    sums = [f"{c}_sum" for c in sum_cols]

    def local(batch: pa.Table) -> pa.Table:
        t = batch.select([*keys, *sum_cols]).rename_columns([*keys, *sums])
        return group_sum(t, keys, sums, None)

    return sorted_reduce(
        ds.map_batches(local, batch_format="pyarrow"),
        keys,
        lambda b: group_sum(b, keys, sums, "__n").rename_columns(
            [*keys, *sums, count_as]
        ),
    )


# ---------------------------------------------------------------------------
# aggregations
# ---------------------------------------------------------------------------

def agg_pricing_summary(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q1-flavored rollup (G4/G6 pattern: partials then reduce)."""
    ds = _read(
        sf_dir, "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )
    def scale(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "l_linestatus": batch.column("l_linestatus"),
                "qty_c": _scaled_int(batch.column("l_quantity"), 100.0),
                "price_c": _scaled_int(batch.column("l_extendedprice"), 100.0),
                "disc_u": _scaled_int(batch.column("l_discount"), 1_000_000.0),
            }
        )

    reduced = _partial_groupby_sum(
        ds.map_batches(scale, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        ["qty_c", "price_c", "disc_u"],
        count_as="n_rows",
    )

    def finish(batch: pa.Table) -> pa.Table:
        n = pc.cast(batch.column("n_rows"), pa.float64())
        return pa.table(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "l_linestatus": batch.column("l_linestatus"),
                "sum_qty": pc.divide(
                    pc.cast(batch.column("qty_c_sum"), pa.float64()), pa.scalar(100.0)
                ),
                "sum_price": pc.divide(
                    pc.cast(batch.column("price_c_sum"), pa.float64()), pa.scalar(100.0)
                ),
                "avg_disc": pc.divide(
                    pc.divide(
                        pc.cast(batch.column("disc_u_sum"), pa.float64()),
                        pa.scalar(1_000_000.0),
                    ),
                    n,
                ),
                "n_rows": batch.column("n_rows"),
            }
        )

    return reduced.map_batches(finish, batch_format="pyarrow")


def returnflag_counts(sf_dir: str) -> ray.data.Dataset:
    """G3: relation-class counts -> group-count by flag."""
    ds = _read(sf_dir, "lineitem", ["l_returnflag"])
    return _partial_groupby_sum(ds, ["l_returnflag"], [], count_as="n")


def corpus_stats(sf_dir: str) -> ray.data.Dataset:
    """G6: per-language document stats (count / avg / min / max chars)."""
    ds = _read(sf_dir, "documents", ["lang", "n_chars"])

    def local(batch: pa.Table) -> pa.Table:
        gb = batch.group_by(["lang"]).aggregate(
            [("n_chars", "sum"), ("n_chars", "min"), ("n_chars", "max"), ("lang", "count")]
        )
        # select aggregates by their <col>_<agg> NAMES — output column
        # ORDER is a pyarrow implementation detail (CLAUDE.md rule), and
        # chars_min/chars_max are both int64: a positional swap would be
        # silent
        return pa.table(
            {
                "lang": gb.column("lang"),
                "chars_sum": gb.column("n_chars_sum"),
                "chars_min": gb.column("n_chars_min"),
                "chars_max": gb.column("n_chars_max"),
                "n_docs": gb.column("lang_count"),
            }
        )

    combined = ds.map_batches(local, batch_format="pyarrow")
    reduced = (
        combined.groupby("lang")
        .aggregate(
            ray.data.aggregate.Sum("chars_sum"),
            ray.data.aggregate.Min("chars_min"),
            ray.data.aggregate.Max("chars_max"),
            ray.data.aggregate.Sum("n_docs"),
        )
    )

    def finish(batch: pa.Table) -> pa.Table:
        n = pc.cast(batch.column("sum(n_docs)"), pa.float64())
        total = pc.cast(batch.column("sum(chars_sum)"), pa.float64())
        return pa.table(
            {
                "lang": batch.column("lang"),
                "n_docs": batch.column("sum(n_docs)"),
                "avg_chars": pc.divide(total, n),
                "min_chars": batch.column("min(chars_min)"),
                "max_chars": batch.column("max(chars_max)"),
            }
        )

    return reduced.map_batches(finish, batch_format="pyarrow")


def distinct_event_types(sf_dir: str) -> ray.data.Dataset:
    """G1: global distinct (vocabulary build)."""
    ds = _read(sf_dir, "events", ["event_type"])

    def local(batch: pa.Table) -> pa.Table:
        # null-tolerant distinct (SQL DISTINCT emits the NULL group;
        # a bare sorted() would TypeError on None vs str)
        vals = sorted(
            set(batch.column("event_type").to_pylist()),
            key=lambda v: (v is not None, v or ""),
        )
        return pa.table({"event_type": pa.array(vals, pa.string())})

    def first_of_each_run(block: pa.Table) -> pa.Table:
        return block.take(pa.array(run_bounds(block, "event_type")[0]))

    return sorted_reduce(
        ds.map_batches(local, batch_format="pyarrow"), "event_type", first_of_each_run
    )


def events_hourly(sf_dir: str) -> ray.data.Dataset:
    """Tumbling-window aggregate: per (hour, event_type) count + sum."""
    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def derive(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "hour": pc.floor_temporal(batch.column("ts"), unit="hour"),
                "event_type": batch.column("event_type"),
                "value_u": _scaled_int(batch.column("value"), 1_000_000.0),
            }
        )

    reduced = _partial_groupby_sum(
        ds.map_batches(derive, batch_format="pyarrow"),
        ["hour", "event_type"],
        ["value_u"],
        count_as="n",
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "hour": batch.column("hour"),
                "event_type": batch.column("event_type"),
                "n": batch.column("n"),
                "sum_value": pc.divide(
                    pc.cast(batch.column("value_u_sum"), pa.float64()),
                    pa.scalar(1_000_000.0),
                ),
            }
        )

    return reduced.map_batches(finish, batch_format="pyarrow")


def top_users_by_events(sf_dir: str) -> ray.data.Dataset:
    """Aggregate + top-k: 20 busiest users (ties by user_id)."""
    ds = _read(sf_dir, "events", ["user_id", "value"])

    def scale(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "value_u": _scaled_int(batch.column("value"), 1_000_000.0),
            }
        )

    reduced = _partial_groupby_sum(
        ds.map_batches(scale, batch_format="pyarrow"),
        ["user_id"], ["value_u"], count_as="n_events",
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "n_events": batch.column("n_events"),
                "sum_value": pc.divide(
                    pc.cast(batch.column("value_u_sum"), pa.float64()),
                    pa.scalar(1_000_000.0),
                ),
            }
        )

    return (
        reduced.map_batches(finish, batch_format="pyarrow")
        .sort(["n_events", "user_id"], descending=[True, False])
        .limit(20)
    )


# ---------------------------------------------------------------------------
# sorts / limits / filters / set ops
# ---------------------------------------------------------------------------

def top_orders(sf_dir: str) -> ray.data.Dataset:
    """O1-style deterministic ordering: top-100 orders by price."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice", "o_orderdate"])
    return ds.sort(
        ["o_totalprice", "o_orderkey"], descending=[True, False]
    ).limit(100)


def filter_docs(sf_dir: str) -> ray.data.Dataset:
    """M11/M12: length + language filter (vectorized, pruned read)."""
    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    return ds.map_batches(
        lambda b: b.filter(
            pc.and_(
                pc.greater_equal(b.column("n_chars"), 200),
                pc.equal(b.column("lang"), "en"),
            )
        ),
        batch_format="pyarrow",
    )


def union_docs(sf_dir: str) -> ray.data.Dataset:
    """O7: union of two filtered shards of the same logical table."""
    docs = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    en = docs.map_batches(
        lambda b: b.filter(pc.equal(b.column("lang"), "en")), batch_format="pyarrow"
    )
    short = docs.map_batches(
        lambda b: b.filter(
            pc.and_(
                pc.not_equal(b.column("lang"), "en"),
                pc.less(b.column("n_chars"), 100),
            )
        ),
        batch_format="pyarrow",
    )
    return en.union(short)


def filter_union_docs(sf_dir: str) -> ray.data.Dataset:
    """Folded driver registration of M12 (``filter_docs``) and O7
    (``union_docs``): one slot in the 50-query check window, two
    value-checked views distinguished by a ``view`` tag column. Both
    per-view functions remain public API."""

    def tag(ds: ray.data.Dataset, view: str) -> ray.data.Dataset:
        return ds.map_batches(
            lambda b, v=view: b.append_column(
                "view", pa.array([v] * b.num_rows, pa.string())
            ),
            batch_format="pyarrow",
        )

    return tag(filter_docs(sf_dir), "filtered").union(tag(union_docs(sf_dir), "union"))


# ---------------------------------------------------------------------------
# joins (broadcast pattern)
# ---------------------------------------------------------------------------

def _broadcast(ds: ray.data.Dataset, lookup: dict, key_col: str, out_col: str):
    """Inner-join ``ds`` against a small dict: the dict is unpacked ONCE
    on the driver into parallel key/value Arrow arrays that ride
    ``ray.put``, so each plain-task batch is two vectorized kernels —
    ``index_in`` + ``take`` — with no per-row Python."""
    ref = ray.put((pa.array(list(lookup.keys())), pa.array(list(lookup.values()))))

    def join(batch: pa.Table) -> pa.Table:
        from ..state.worker_cache import cached_get

        keys, values = cached_get(ref, "relational_broadcast_join")
        idx = pc.index_in(batch.column(key_col), value_set=keys)
        out = batch.append_column(out_col, pc.take(values, idx))  # null: absent
        return out.filter(pc.is_valid(out.column(out_col)))

    return ds.map_batches(join, batch_format="pyarrow")


def segment_revenue(sf_dir: str) -> ray.data.Dataset:
    """orders x customer broadcast join -> revenue per market segment."""
    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    lookup = dict(
        zip(cust["c_custkey"].to_pylist(), cust["c_mktsegment"].to_pylist())
    )
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    joined = _broadcast(orders, lookup, "o_custkey", "c_mktsegment")

    def scale(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_mktsegment": batch.column("c_mktsegment"),
                "price_c": _scaled_int(batch.column("o_totalprice"), 100.0),
            }
        )

    reduced = _partial_groupby_sum(
        joined.map_batches(scale, batch_format="pyarrow"),
        ["c_mktsegment"], ["price_c"], count_as="n_orders",
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_mktsegment": batch.column("c_mktsegment"),
                "revenue": pc.divide(
                    pc.cast(batch.column("price_c_sum"), pa.float64()), pa.scalar(100.0)
                ),
                "n_orders": batch.column("n_orders"),
            }
        )

    return reduced.map_batches(finish, batch_format="pyarrow")


def nation_revenue(sf_dir: str) -> ray.data.Dataset:
    """3-way join via chained broadcasts: orders->customer->nation."""
    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    nk = dict(zip(nation["n_nationkey"].to_pylist(), nation["n_name"].to_pylist()))
    cust_to_nation = {
        c: nk.get(n)
        for c, n in zip(cust["c_custkey"].to_pylist(), cust["c_nationkey"].to_pylist())
    }
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    joined = _broadcast(orders, cust_to_nation, "o_custkey", "n_name")

    def scale(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "n_name": batch.column("n_name"),
                "price_c": _scaled_int(batch.column("o_totalprice"), 100.0),
            }
        )

    reduced = _partial_groupby_sum(
        joined.map_batches(scale, batch_format="pyarrow"),
        ["n_name"], ["price_c"], count_as="n_orders",
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "n_name": batch.column("n_name"),
                "revenue": pc.divide(
                    pc.cast(batch.column("price_c_sum"), pa.float64()), pa.scalar(100.0)
                ),
                "n_orders": batch.column("n_orders"),
            }
        )

    return reduced.map_batches(finish, batch_format="pyarrow")


def dim_revenue(sf_dir: str) -> ray.data.Dataset:
    """ONE kind-tagged surface for both broadcast-dim revenue rollups
    (`segment_revenue` + `nation_revenue`, which stay public API):
    rows are (view, dim_key, revenue, n_orders) — folded so the two
    queries spend one driver-check slot between them (the
    `docs_filter_union` pattern)."""

    def tag(ds: ray.data.Dataset, view: str, key_col: str) -> ray.data.Dataset:
        return ds.map_batches(
            lambda b: pa.table(
                {
                    "view": pa.array([view] * b.num_rows, pa.string()),
                    "dim_key": pc.cast(b.column(key_col), pa.string()),
                    "revenue": b.column("revenue"),
                    "n_orders": b.column("n_orders"),
                }
            ),
            batch_format="pyarrow",
        )

    return tag(segment_revenue(sf_dir), "segment", "c_mktsegment").union(
        tag(nation_revenue(sf_dir), "nation", "n_name")
    )


# ---------------------------------------------------------------------------
# text-analysis queries over documents
# ---------------------------------------------------------------------------

def doc_analysis(sf_dir: str) -> ray.data.Dataset:
    """ONE pass over documents computing the whole scalar text-analysis
    family — token counts, language ID, quality score, fingerprint —
    as chained Arrow kernels in a single ``map_batches``.

    This is the registered driver surface for §2.7: the four
    single-facet queries below remain the public per-facet API, but
    registering them separately would spend four driver-check slots
    (and four reads of ``documents``) on one family. One wide row per
    doc also mirrors how a real corpus-QA pipeline runs these: every
    facet in one scan.
    """
    from jamie_ray.functions.text_analysis import (
        gopher_quality_batch,
        repetition_batch,
    )

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def all_facets(b: pa.Table) -> pa.Table:
        b = gopher_quality_batch(
            repetition_batch(
                fingerprint_batch(
                    quality_score_batch(lang_id_batch(token_count_batch(b)))
                )
            )
        )
        return b.select(
            [
                "doc_id",
                "n_tokens",
                "n_bpe",
                "lang_pred",
                "quality_micro",
                "text_hash",
                "top2gram_micro",
                "dup3gram_micro",
                "mean_word_len_micro",
                "symbol_word_micro",
                "alpha_word_micro",
                "bullet_line_micro",
                "ellipsis_line_micro",
            ]
        )

    return ds.map_batches(all_facets, batch_format="pyarrow")


def shipping_priority(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q3-flavored composite: dimension broadcast + distributed
    fact filter + ONE hash-shuffle join + grouped revenue + top-10.

    Scale shape (VERDICT r1 item 5): ``orders`` is a FACT table, so it
    never touches the driver. Only ``customer`` — a true dimension —
    is broadcast (as a key array resolved once per worker); the
    BUILDING/<cutoff order filter runs distributed, lineitem revenue is
    pre-aggregated per block (combiner), and the two sides meet in a
    single ``groupby(l_orderkey)`` shuffle whose merge is four standard
    sums — no per-group Python, no driver-side dict.

    revenue = sum(floor(l_extendedprice * (1 - l_discount) * 100 + .5))
    in integer cents (the exact-sum trick; the per-row double product is
    the same expression tree as the oracle's, so bit-identical).
    """
    import datetime

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    building = sorted(
        c
        for c, seg in zip(
            cust["c_custkey"].to_pylist(), cust["c_mktsegment"].to_pylist()
        )
        if seg == "BUILDING"
    )
    bref = ray.put(pa.array(building, pa.int64()))
    cutoff = pa.scalar(datetime.datetime(1998, 1, 1), pa.timestamp("us"))

    def filter_orders(batch: pa.Table) -> pa.Table:
        """Orders side of the join: semijoin against the broadcast
        customer-key set + date cut, emitted in the union schema."""
        from ..state.worker_cache import cached_get

        mask = pc.and_(
            pc.is_in(
                batch.column("o_custkey"),
                value_set=cached_get(bref, "shipping_priority_customers"),
            ),
            pc.less(pc.cast(batch.column("o_orderdate"), pa.timestamp("us")), cutoff),
        )
        t = batch.filter(mask)
        n = t.num_rows
        return pa.table(
            {
                "l_orderkey": t.column("o_orderkey"),
                "date_us": pc.cast(
                    pc.cast(t.column("o_orderdate"), pa.timestamp("us")), pa.int64()
                ),
                "rev_c": pa.array([0] * n, pa.int64()),
                "n_order": pa.array([1] * n, pa.int64()),
                "n_li": pa.array([0] * n, pa.int64()),
            }
        )

    def li_partial(batch: pa.Table, keyset_ref=None) -> pa.Table:
        if keyset_ref is not None:
            vs = _broadcast_array(keyset_ref)
            batch = batch.filter(
                pc.is_in(batch.column("l_orderkey"), value_set=vs)
            )
        rev = pc.multiply(
            pc.cast(batch.column("l_extendedprice"), pa.float64()),
            pc.subtract(
                pa.scalar(1.0), pc.cast(batch.column("l_discount"), pa.float64())
            ),
        )
        scaled = pa.table(
            {
                "l_orderkey": batch.column("l_orderkey"),
                "rev_c": _scaled_int(rev, 100.0),
            }
        )
        gb = scaled.group_by(["l_orderkey"]).aggregate(
            [("rev_c", "sum"), ("l_orderkey", "count")]
        )  # columns by name: l_orderkey, rev_c_sum, l_orderkey_count
        n = gb.num_rows
        return pa.table(
            {
                "l_orderkey": gb.column("l_orderkey"),
                "date_us": pa.array([0] * n, pa.int64()),
                "rev_c": gb.column("rev_c_sum"),
                "n_order": pa.array([0] * n, pa.int64()),
                "n_li": gb.column("l_orderkey_count"),
            }
        )

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])
    o_side = orders.map_batches(filter_orders, batch_format="pyarrow")

    # guarded semijoin prefilter: when the filtered order keyset fits
    # under the driver cap (it is a *filtered fraction* of the fact
    # table, not the table), broadcast it and prune lineitem BEFORE the
    # partials — the join shuffle then moves only matching rows. A
    # corpus whose keyset exceeds the cap skips the prefilter; the join
    # itself never needs driver state either way.
    from ..state.collect import EdgeCapExceeded, iter_capped_batches

    # materialize the (small) filtered orders once: the keyset scan and
    # the union below otherwise each re-execute the read+filter
    o_side = o_side.materialize()
    keyset_ref = None
    try:
        keys: list[int] = []
        key_ds = o_side.map_batches(
            lambda b: b.select(["l_orderkey"]), batch_format="pyarrow"
        )
        for b in iter_capped_batches(key_ds, context="shipping_priority semijoin keys"):
            keys.extend(b.column("l_orderkey").to_pylist())
        keyset_ref = ray.put(pa.array(sorted(keys), pa.int64()))
    except EdgeCapExceeded:
        keyset_ref = None  # keyset too large: fall back to the full shuffle

    import functools

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])
    li_side = li.map_batches(
        functools.partial(li_partial, keyset_ref=keyset_ref), batch_format="pyarrow"
    )

    # the one shuffle: both sides hash-partition by l_orderkey; the
    # merge is plain sums (date_us is 0 on lineitem rows, so its sum IS
    # the order date; n_order/n_li > 0 encode inner-join presence)
    merged = (
        o_side.union(li_side)
        .groupby("l_orderkey")
        .sum(["rev_c", "date_us", "n_order", "n_li"])
    )

    def finish(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.greater(batch.column("sum(n_order)"), 0),
            pc.greater(batch.column("sum(n_li)"), 0),
        )
        t = batch.filter(keep)
        return pa.table(
            {
                "l_orderkey": t.column("l_orderkey"),
                "o_orderdate": pc.cast(t.column("sum(date_us)"), pa.timestamp("us")),
                "revenue": pc.divide(
                    pc.cast(t.column("sum(rev_c)"), pa.float64()), pa.scalar(100.0)
                ),
            }
        )

    return (
        merged.map_batches(finish, batch_format="pyarrow")
        .sort(["revenue", "l_orderkey"], descending=[True, False])
        .limit(10)
    )


def top_customers_per_segment(sf_dir: str) -> ray.data.Dataset:
    """Grouped top-k: 3 highest-balance customers per market segment
    (the window-function analogue), through ``skew.grouped_topk``: a
    block-local top-3-per-segment combiner runs BEFORE the shuffle, so
    at most 3 × n_segments rows leave each block even though the key
    has only ~5 values."""
    from ..functions.skew import grouped_topk

    ds = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment", "c_acctbal"])
    return grouped_topk(ds, "c_mktsegment", "c_acctbal", 3, id_col="c_custkey")


def events_json_extract(sf_dir: str) -> ray.data.Dataset:
    """Semi-structured extraction: parse the JSON ``props`` column and
    aggregate the extracted field per event type (the engine's answer
    to the reference's stringified-literal columns — parsed once into
    typed columns at the boundary, never re-parsed downstream)."""
    import json

    ds = _read(sf_dir, "events", ["event_id", "event_type", "props"])

    def extract(batch: pa.Table) -> pa.Table:
        ks = []
        for s in batch.column("props").to_pylist():
            try:
                v = json.loads(s).get("k") if s else None
            except (ValueError, AttributeError):
                v = None
            # poison-row tolerance: non-integer k (float/str/obj) becomes
            # NULL instead of crashing the Arrow cast for the whole batch
            # (the fixture only carries ints, so oracle parity holds)
            if not isinstance(v, int) or isinstance(v, bool):
                v = None
            ks.append(v)
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "k": pa.array(ks, pa.int64()),
            }
        )

    reduced = _partial_groupby_sum(
        ds.map_batches(extract, batch_format="pyarrow"),
        ["event_type"], ["k"], count_as="n",
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "n": batch.column("n"),
                "sum_k": batch.column("k_sum"),
            }
        )

    return reduced.map_batches(finish, batch_format="pyarrow")
