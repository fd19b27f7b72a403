"""Layout-differential harness for every operator that reduces through
``shuffle.sorted_reduce``.

Each operator runs on the same rows laid out three ways — one block,
seven blocks, and seven blocks with a 4 KiB ``target_max_block_size``
set on the input Dataset's own context — and its output must be
byte-identical after a canonical sort. Where a direct SQL statement of
the rule exists (``dedup_triples``, ``exact_dedup``, evalx per-class
counts, the temporal joins, ``hash_join``, ``grouped_topk``,
``salted_group_sum``, ``top_customers_per_segment``) the output is also
checked against DuckDB, elsewhere against a pure-Python replay.
Zero-row and null-key inputs ride the same harness.
"""

from __future__ import annotations

import duckdb
import numpy as np
import pyarrow as pa
import pytest
import ray

from jamie_ray import evalx
from jamie_ray.functions import (
    bpe, dedup_docs, graph, index, join, lm, sampling, similarity, sketch, skew, temporal, urlnorm,
)
from jamie_ray.shuffle import run_bounds, sorted_reduce
from jamie_ray.stages.dedup import dedup_triples
from jamie_ray.stages.link import link_triples

LAYOUTS = ("one_block", "seven_blocks", "seven_small_blocks")


def _layout(table: pa.Table, layout: str):
    if layout == "one_block":
        return ray.data.from_arrow(table)
    n = table.num_rows
    parts = [table.slice(i * n // 7, (i + 1) * n // 7 - i * n // 7) for i in range(7)]
    ds = ray.data.from_arrow(parts)
    if layout == "seven_small_blocks":
        # the Dataset's own context copy, never the global singleton
        ds.context.target_max_block_size = 4096
    return ds


def _table(ds) -> pa.Table | None:
    blocks = ray.get(ds.to_arrow_refs())
    blocks = [b for b in blocks if b.num_rows] or blocks[:1]
    return pa.concat_tables(blocks).combine_chunks() if blocks else None


def _canonical(tbl: pa.Table | None) -> pa.Table | None:
    if tbl is None or tbl.num_rows == 0:
        return None
    keys = [
        (f.name, "ascending")
        for f in tbl.schema
        if not pa.types.is_nested(f.type) and not pa.types.is_binary(f.type)
    ]
    return tbl.sort_by(keys)


def _same_on_every_layout(run, *tables: pa.Table) -> pa.Table | None:
    outs = [_canonical(_table(run(*(_layout(t, lay) for t in tables)))) for lay in LAYOUTS]
    base = outs[0]
    for lay, out in zip(LAYOUTS[1:], outs[1:]):
        if base is None or out is None:
            assert base is None and out is None, lay
            continue
        assert out.schema == base.schema, lay
        assert out.equals(base), f"{lay} differs from one_block"
    return base


# -- inputs ------------------------------------------------------------------

_WORDS = [f"w{i}" for i in range(40)]


def _docs(n: int = 48, seed: int = 0, with_null: bool = False) -> pa.Table:
    """Docs with exact copies, shared paragraphs, shared 12-token spans
    and one-word near-dups of long texts."""
    rng = np.random.default_rng(seed)
    shared_para = "boiler plate paragraph shared by many documents"
    span = " ".join(f"span{i}" for i in range(12))
    texts = []
    for d in range(n):
        kind = d % 6
        if kind == 0 and d >= 6:
            texts.append(texts[d - 6])  # exact copy
            continue
        words = [_WORDS[int(i)] for i in rng.integers(0, len(_WORDS), 30)]
        body = " ".join(words)
        if kind == 1:
            texts.append(body + "\n" + shared_para)
        elif kind == 2:
            texts.append(span + " " + body)
        elif kind == 3 and d >= 6:
            base = texts[d - 6].split()
            base[-1] = "changed"
            texts.append(" ".join(base))
        else:
            texts.append(body)
    if with_null:
        texts[3] = None
        texts[9] = None
    return pa.table(
        {"doc_id": pa.array(range(n), pa.int64()), "text": pa.array(texts, pa.string())}
    )


def _linked(n: int = 240, seed: int = 1) -> pa.Table:
    rng = np.random.default_rng(seed)
    subj = rng.integers(0, 6, n)
    obj = rng.integers(0, 5, n)
    return pa.table(
        {
            "subj_id": pa.array(subj * 1000003 - 7, pa.int64()),
            "pred": pa.array([["r1", "r2", "r3"][i] for i in rng.integers(0, 3, n)]),
            "obj_id": pa.array(obj * 7919 + 3, pa.int64()),
            "subj_canon": pa.array([f"s{i}" for i in subj]),
            "obj_canon": pa.array([f"o{i}" for i in obj]),
            "subj_type": pa.array([["d", "cc"][i] for i in rng.integers(0, 2, n)]),
            "obj_type": pa.array(["TIMEX3"] * n),
            "subj_mod": pa.array([["_", "positive", "negative"][i] for i in rng.integers(0, 3, n)]),
            "url": pa.array([f"u{i}" for i in rng.integers(0, 9, n)]),
            "chunk_id": pa.array(rng.integers(0, 4, n), pa.int64()),
        }
    )


def _triples_raw(n: int = 200, seed: int = 2) -> pa.Table:
    rng = np.random.default_rng(seed)
    ents = ["Tokyo", "tokyo", "TOKYO ", "Osaka", "osaka city", "Kyoto", "kyoto-fu", "Nara"]
    return pa.table(
        {
            "subj": pa.array([ents[i] for i in rng.integers(0, len(ents), n)]),
            "pred": pa.array([["r1", "r2"][i] for i in rng.integers(0, 2, n)]),
            "obj": pa.array([ents[i] for i in rng.integers(0, len(ents), n)]),
            "subj_type": pa.array(["d"] * n),
            "obj_type": pa.array(["d"] * n),
            "subj_mod": pa.array(["_"] * n),
            "url": pa.array([f"u{i}" for i in rng.integers(0, 5, n)]),
            "chunk_id": pa.array(rng.integers(0, 3, n), pa.int64()),
        }
    )


_CLASSES = ["r1", "r2", "N", "O", "_", "OO"]


def _eval_side(n: int, seed: int, null_url: bool = False) -> pa.Table:
    rng = np.random.default_rng(seed)
    urls = [f"u{i}" for i in rng.integers(0, 6, n)]
    if null_url:
        urls = [None if i % 5 == 0 else u for i, u in enumerate(urls)]
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "chunk_id": pa.array(rng.integers(0, 3, n), pa.int64()),
            "subj": pa.array([f"s{i}" for i in rng.integers(0, 3, n)]),
            "obj": pa.array([f"o{i}" for i in rng.integers(0, 3, n)]),
            "pred": pa.array([_CLASSES[i] for i in rng.integers(0, len(_CLASSES), n)]),
        }
    )


def _edges(n: int = 150, seed: int = 3) -> pa.Table:
    rng = np.random.default_rng(seed)
    pairs = rng.integers(-40, 80, size=(n, 2))
    return pa.table(
        {"id_a": pa.array(pairs[:, 0], pa.int64()), "id_b": pa.array(pairs[:, 1], pa.int64())}
    )


def _empty_like(tbl: pa.Table) -> pa.Table:
    return tbl.slice(0, 0)


# -- the operators -----------------------------------------------------------

_DOC_OPS = {
    "exact_dedup": lambda ds: dedup_docs.exact_dedup(ds),
    "paragraph_dedup": lambda ds: dedup_docs.paragraph_dedup(ds),
    "span_dedup": lambda ds: dedup_docs.span_dedup(ds, min_len=8),
    "simhash_pairs": lambda ds: dedup_docs.simhash_pairs(ds, max_hamming=3),
    "minhash_driver": lambda ds: dedup_docs.minhash_clusters(ds, threshold=0.7),
    "minhash_verify_shuffle": lambda ds: dedup_docs.minhash_clusters(
        ds, threshold=0.7, driver_verify_pairs=0
    ),
    "minhash_cc_distributed": lambda ds: dedup_docs.minhash_clusters(
        ds, threshold=0.7, cc="distributed"
    ),
    "minhash_candidate_shuffle": lambda ds: dedup_docs.minhash_clusters(
        ds, threshold=0.7, cc="distributed", candidate_path="shuffle"
    ),
    "inverted_index": lambda ds: index.inverted_index(ds, max_postings=5),
    "term_df": lambda ds: index.term_df(ds, min_df=2),
}


@pytest.mark.parametrize("op", sorted(_DOC_OPS))
def test_doc_operator_layout_invariant(ray_session, op):
    out = _same_on_every_layout(_DOC_OPS[op], _docs())
    assert out is not None and out.num_rows > 0


@pytest.mark.parametrize("op", ["exact_dedup", "paragraph_dedup", "inverted_index", "term_df"])
def test_doc_operator_zero_rows(ray_session, op):
    assert _same_on_every_layout(_DOC_OPS[op], _empty_like(_docs())) is None


@pytest.mark.parametrize("flag_path", ["broadcast", "shuffle", "bloom"])
def test_incremental_dedup_layout_invariant(ray_session, flag_path):
    new, old = _docs(seed=5, with_null=True), _docs(n=30, seed=0)
    out = _same_on_every_layout(
        lambda n, o: dedup_docs.incremental_dedup(n, o, flag_path=flag_path), new, old
    )
    flags = dict(zip(out.column("doc_id").to_pylist(), out.column("in_previous").to_pylist()))
    old_texts = set(old.column("text").to_pylist())
    want = {
        i: int(t is not None and t in old_texts)
        for i, t in zip(new.column("doc_id").to_pylist(), new.column("text").to_pylist())
    }
    assert flags == want


def _exact_oracle(docs: pa.Table) -> pa.Table:
    con = duckdb.connect()
    con.register("docs", docs)
    tbl = con.execute(
        "SELECT md5(text) AS text_hash, min(doc_id) AS doc_id, count(*) AS n_dups "
        "FROM docs GROUP BY 1"
    ).arrow()
    con.close()
    return tbl


@pytest.mark.parametrize("with_null", [False, True])
def test_exact_dedup_vs_duckdb(ray_session, with_null):
    docs = _docs(with_null=with_null)
    out = _same_on_every_layout(_DOC_OPS["exact_dedup"], docs)
    assert out.equals(_canonical(_exact_oracle(docs).cast(out.schema)))


def _dedup_oracle(linked: pa.Table) -> pa.Table:
    con = duckdb.connect()
    con.register("linked", linked)
    order = "ORDER BY url, chunk_id, subj_mod, subj_type, obj_type"
    cols = ", ".join(
        f"first({src} {order}) AS {dst}"
        for src, dst in [
            ("subj_canon", "subj"), ("obj_canon", "obj"), ("subj_type", "subj_type"),
            ("obj_type", "obj_type"), ("subj_mod", "subj_mod"), ("url", "url"),
            ("chunk_id", "chunk_id"),
        ]
    )
    tbl = con.execute(
        f"SELECT subj_id, pred, obj_id, {cols}, count(*) AS n_sources "
        "FROM linked GROUP BY subj_id, pred, obj_id"
    ).arrow()
    con.close()
    return tbl


def test_dedup_triples_layout_invariant_vs_duckdb(ray_session):
    linked = _linked()
    out = _same_on_every_layout(dedup_triples, linked)
    want = _dedup_oracle(linked).select(out.column_names).cast(out.schema)
    assert out.equals(_canonical(want))


def _with_null_preds(linked: pa.Table) -> pa.Table:
    # every third row's pred is null, so the null run spans all 7 blocks
    preds = [None if i % 3 == 0 else p for i, p in enumerate(linked["pred"].to_pylist())]
    return linked.set_column(
        linked.schema.get_field_index("pred"), "pred", pa.array(preds, pa.string())
    )


@pytest.mark.parametrize("null_pred", [False, True])
def test_dedup_triples_writes_graph_order(ray_session, tmp_path, null_pred):
    """The written graph, read back in file-name order, is sorted on
    (subj_id, pred, obj_id) on every layout with no sort after the
    dedup, and equals the oracle in that order (a null pred last)."""
    import pyarrow.parquet as pq

    linked = _with_null_preds(_linked()) if null_pred else _linked()
    order = [(c, "ascending") for c in ("subj_id", "pred", "obj_id")]
    for lay in LAYOUTS:
        out = tmp_path / lay
        dedup_triples(_layout(linked, lay)).write_parquet(str(out))
        got = pa.concat_tables(
            [pq.read_table(f) for f in sorted(out.glob("*.parquet"))]
        ).combine_chunks()
        assert got.equals(got.sort_by(order)), lay
        want = _dedup_oracle(linked).select(got.column_names).cast(got.schema)
        assert got.equals(want.sort_by(order)), lay
    assert (got.column("pred").null_count > 0) == null_pred


def test_dedup_triples_zero_rows(ray_session):
    assert _same_on_every_layout(dedup_triples, _empty_like(_linked())) is None


def test_link_triples_layout_invariant(ray_session):
    out = _same_on_every_layout(
        lambda ds: link_triples(ds, threshold=0.3, cache_input=False), _triples_raw()
    )
    # some surfaces did merge: fewer distinct ids than surfaces
    assert len(set(out.column("subj_id").to_pylist())) < len(
        set(out.column("subj").to_pylist())
    )


_CC_OPS = {
    "connected_components": lambda ds: graph.connected_components(ds),
    "component_pairs": lambda ds: graph.component_pairs(ds),
    "assign_components": lambda ds: graph.assign_components(
        ds.map_batches(lambda b: pa.table({"doc_id": b.column("id_a")}), batch_format="pyarrow"),
        graph.connected_components(ds),
    ),
}


@pytest.mark.parametrize("op", sorted(_CC_OPS))
def test_graph_operator_layout_invariant(ray_session, op):
    out = _same_on_every_layout(_CC_OPS[op], _edges())
    assert out.num_rows > 0


def test_connected_components_zero_rows(ray_session):
    assert _same_on_every_layout(
        _CC_OPS["connected_components"], _empty_like(_edges())
    ) is None


def _groups(n: int = 400, seed: int = 4, with_null: bool = False) -> pa.Table:
    rng = np.random.default_rng(seed)
    g = [f"g{i}" for i in rng.integers(0, 12, n)]
    if with_null:
        g = [None if i % 7 == 0 else x for i, x in enumerate(g)]
    return pa.table(
        {
            "g": pa.array(g, pa.string()),
            "v": pa.array(rng.integers(0, 50, n), pa.int64()),
            "hot": pa.array(np.minimum(rng.geometric(0.3, n), 9), pa.int64()),
        }
    )


@pytest.mark.parametrize("with_null", [False, True])
def test_kmv_distinct_layout_invariant(ray_session, with_null):
    t = _groups(with_null=with_null)
    out = _same_on_every_layout(lambda ds: sketch.kmv_distinct(ds, "g", "v"), t)
    want = {}
    for g, v in zip(t.column("g").to_pylist(), t.column("v").to_pylist()):
        want.setdefault(g, set()).add(v)
    got = dict(zip(out.column("g").to_pylist(), out.column("n_distinct").to_pylist()))
    assert got == {g: len(v) for g, v in want.items()}


def test_heavy_hitters_layout_invariant(ray_session):
    t = _groups()
    out = _same_on_every_layout(lambda ds: sketch.heavy_hitters(ds, "hot", min_count=40), t)
    vals, counts = np.unique(t.column("hot").to_numpy(), return_counts=True)
    want = {int(v): int(c) for v, c in zip(vals, counts) if c >= 40}
    assert dict(zip(out.column("hot").to_pylist(), out.column("n").to_pylist())) == want


# -- evalx -------------------------------------------------------------------

_EVAL_ORACLE = """
WITH g AS (SELECT url, chunk_id, subj, obj, pred, count(*) AS n FROM gold GROUP BY ALL),
     p AS (SELECT url, chunk_id, subj, obj, pred, count(*) AS n FROM pred GROUP BY ALL),
     j AS (
  SELECT coalesce(g.pred, p.pred) AS cls, coalesce(g.n, 0) AS gn, coalesce(p.n, 0) AS pn
  FROM g FULL OUTER JOIN p
    ON g.url IS NOT DISTINCT FROM p.url AND g.chunk_id = p.chunk_id
   AND g.subj = p.subj AND g.obj = p.obj AND g.pred = p.pred
)
SELECT cls, sum(least(gn, pn))::BIGINT, sum(pn - least(gn, pn))::BIGINT,
       sum(gn - least(gn, pn))::BIGINT
FROM j WHERE cls NOT IN ('N', 'O', '_', 'OO') GROUP BY cls
"""


@pytest.mark.parametrize("null_url", [False, True])
def test_evaluate_triples_layouts_vs_duckdb(ray_session, null_url):
    gold, pred = _eval_side(300, 7, null_url), _eval_side(280, 8, null_url)
    results = [
        evalx.evaluate_triples(_layout(gold, lay), _layout(pred, lay)) for lay in LAYOUTS
    ]
    assert all(r == results[0] for r in results[1:])
    con = duckdb.connect()
    con.register("gold", gold)
    con.register("pred", pred)
    want = {cls: (t, f, n) for cls, t, f, n in con.execute(_EVAL_ORACLE).fetchall()}
    con.close()
    got = {cls: tuple(v[3:6]) for cls, v in results[0]["per_class"].items()}
    assert got == want


def test_evaluate_triples_zero_rows(ray_session):
    gold = _empty_like(_eval_side(10, 1))
    r = evalx.evaluate_triples(_layout(gold, "seven_blocks"), _layout(gold, "one_block"))
    assert r["per_class"] == {} and r["counts"] == {"tps": 0, "fps": 0, "fns": 0}


# -- the primitive itself ----------------------------------------------------


def test_sorted_reduce_every_key_reaches_one_call(ray_session):
    """With a tiny block size, each key's rows all reach exactly one
    ``fn`` call (and there is more than one call)."""
    import uuid

    rng = np.random.default_rng(0)
    n = 3000
    keys = rng.integers(0, 50, n)
    t = pa.table(
        {
            "k": pa.array(keys, pa.int64()),
            "pad": pa.array([f"{i:08d}" * 4 for i in range(n)]),
        }
    )

    def fn(block: pa.Table) -> pa.Table:
        block = block.sort_by("k")
        starts, ends = run_bounds(block, "k")
        call = uuid.uuid4().hex
        return pa.table(
            {
                "k": block.column("k").take(pa.array(starts, pa.int64())),
                "n": pa.array(ends - starts, pa.int64()),
                "call": pa.array([call] * len(starts), pa.string()),
            }
        )

    out = _table(sorted_reduce(_layout(t, "seven_small_blocks"), "k", fn))
    ks = out.column("k").to_pylist()
    assert len(ks) == len(set(ks)) == 50  # one row per key: never split
    counts = dict(zip(ks, out.column("n").to_pylist()))
    vals, cnt = np.unique(keys, return_counts=True)
    assert counts == {int(v): int(c) for v, c in zip(vals, cnt)}
    assert len(set(out.column("call").to_pylist())) > 1


def test_run_bounds_nulls_and_multi_column():
    t = pa.table(
        {
            "a": pa.array([1, 1, 1, 2, None, None], pa.int64()),
            "b": pa.array(["x", "x", "y", "y", None, None], pa.string()),
        }
    )
    s, e = run_bounds(t, ["a", "b"])
    assert s.tolist() == [0, 2, 3, 4] and e.tolist() == [2, 3, 4, 6]
    s, e = run_bounds(t, "a")
    assert s.tolist() == [0, 3, 4] and e.tolist() == [3, 4, 6]
    s, e = run_bounds(t.slice(0, 0), "a")
    assert s.tolist() == [] and e.tolist() == []


# -- cap records keyed by the truncated run ----------------------------------


def _hot_docs() -> pa.Table:
    """Ten identical docs (a hot minhash band in all 8 bands) plus
    distinct docs; ``hot`` occurs in 20 docs (a hot index term)."""
    same = "one two three four five six seven eight nine ten eleven twelve"
    texts = [same] * 10 + [
        f"hot {_WORDS[i]} {_WORDS[(i * 7 + 3) % 40]} tail{i} extra{i} words{i}"
        for i in range(20)
    ]
    return pa.table(
        {"doc_id": pa.array(range(len(texts)), pa.int64()), "text": pa.array(texts)}
    )


def _cap_totals_per_layout(run) -> list[dict]:
    from jamie_ray.state.caps import cap_totals, new_cap_counters

    out = []
    for lay in LAYOUTS:
        caps = new_cap_counters()
        run(_layout(_hot_docs(), lay), caps).take_all()
        out.append(cap_totals(caps))
    return out


def test_minhash_cap_totals_layout_invariant(ray_session):
    totals = _cap_totals_per_layout(
        lambda ds, caps: dedup_docs.minhash_clusters(
            ds, threshold=0.5, max_group=4, cap_counters=caps
        )
    )
    # 10 identical docs share all 8 bands; a cap of 4 drops 6 per band
    assert totals == [{"minhash_truncated_candidates": 48}] * 3


def test_inverted_index_cap_totals_layout_invariant(ray_session):
    docs = _hot_docs()
    df: dict[str, set[int]] = {}
    for d, t in zip(docs.column("doc_id").to_pylist(), docs.column("text").to_pylist()):
        for term in t.split():
            df.setdefault(term, set()).add(d)
    want = sum(max(0, len(v) - 3) for v in df.values())
    assert want >= 17  # the planted hot term alone drops 17 postings
    totals = _cap_totals_per_layout(
        lambda ds, caps: index.inverted_index(ds, max_postings=3, cap_counters=caps)
    )
    assert totals == [{"inverted_index_truncated_postings": want}] * 3


# -- the sites that moved off groupby().map_groups ---------------------------

_T0 = 1_704_067_200_000_000  # 2024-01-01T00:00 in microseconds


def _events(n: int = 300, seed: int = 9, null_keys: bool = True) -> pa.Table:
    """Events keyed by a string ``user_id`` (every third null when
    ``null_keys``), whole-minute timestamps over six hours (ts ties),
    a unique ``event_id`` and a small ``value`` (value ties)."""
    rng = np.random.default_rng(seed)
    keys = [f"u{i}" for i in rng.integers(0, 9, n)]
    if null_keys:
        keys = [None if i % 3 == 0 else k for i, k in enumerate(keys)]
    return pa.table(
        {
            "event_id": pa.array(rng.permutation(n), pa.int64()),
            "user_id": pa.array(keys, pa.string()),
            "ts": pa.array(_T0 + rng.integers(0, 360, n) * 60_000_000, pa.timestamp("us")),
            "value": pa.array(rng.integers(0, 20, n), pa.int64()),
        }
    )


def _orders(n: int = 120, seed: int = 10, null_keys: bool = True) -> pa.Table:
    rng = np.random.default_rng(seed)
    keys = [f"u{i}" for i in rng.integers(0, 9, n)]
    if null_keys:
        keys = [None if i % 4 == 0 else k for i, k in enumerate(keys)]
    return pa.table(
        {
            "o_custkey": pa.array(keys, pa.string()),
            "o_orderkey": pa.array(rng.permutation(n) * 10, pa.int64()),
            "o_orderdate": pa.array(
                _T0 + rng.integers(0, 360, n) * 60_000_000, pa.timestamp("us")
            ),
        }
    )


def _duckdb(sql: str, **tables: pa.Table) -> list[tuple]:
    con = duckdb.connect()
    for name, tbl in tables.items():
        con.register(name, tbl)
    rows = con.execute(sql).fetchall()
    con.close()
    return rows


def _sessions_oracle(t: pa.Table, gap_us: int) -> dict:
    rows = sorted(
        zip(
            t.column("user_id").to_pylist(),
            t.column("ts").cast(pa.int64()).to_pylist(),
            t.column("event_id").to_pylist(),
        ),
        key=lambda r: (r[0] is None, r[0] or "", r[1], r[2]),
    )
    out, prev = {}, None
    for key, ts, eid in rows:
        if prev is None or prev[0] != key:
            session = 0
        elif ts - prev[1] > gap_us:
            session += 1
        out[eid] = session
        prev = (key, ts)
    return out


@pytest.mark.parametrize("null_keys", [False, True])
def test_sessionize_layouts_vs_oracle(ray_session, null_keys):
    t = _events(null_keys=null_keys)
    out = _same_on_every_layout(lambda ds: temporal.sessionize(ds, gap_minutes=30), t)
    got = dict(zip(out.column("event_id").to_pylist(), out.column("session_id").to_pylist()))
    assert got == _sessions_oracle(t, 30 * 60 * 1_000_000)
    assert max(got.values()) > 0  # some key does split into sessions


_ASOF_SQL = """
SELECT event_id, o_orderkey FROM (
  SELECT e.event_id, o.o_orderkey, row_number() OVER (
    PARTITION BY e.event_id ORDER BY o.o_orderdate DESC, o.o_orderkey DESC) AS rn
  FROM ev e JOIN od o
    ON o.o_custkey IS NOT DISTINCT FROM e.user_id AND o.o_orderdate <= e.ts
) WHERE rn = 1
"""

_RANGE_SQL = """
SELECT e.event_id, o.o_orderkey FROM ev e JOIN od o
  ON o.o_custkey IS NOT DISTINCT FROM e.user_id
 AND o.o_orderdate >= e.ts - INTERVAL 30 MINUTE AND o.o_orderdate <= e.ts
"""

_TEMPORAL_KW = dict(
    left_key="user_id", right_key="o_custkey", left_ts="ts",
    right_ts="o_orderdate", right_cols=["o_orderkey", "o_orderdate"],
)

_TEMPORAL_OPS = {
    "asof": (lambda e, o: temporal.asof_join(e, o, **_TEMPORAL_KW), _ASOF_SQL),
    "asof_salted": (
        lambda e, o: temporal.asof_join(e, o, bucket_seconds=3600.0, **_TEMPORAL_KW),
        _ASOF_SQL,
    ),
    "range": (
        lambda e, o: temporal.range_join(
            e, o, lower_seconds=-1800.0, upper_seconds=0.0, **_TEMPORAL_KW
        ),
        _RANGE_SQL,
    ),
    "range_salted": (
        lambda e, o: temporal.range_join(
            e, o, lower_seconds=-1800.0, upper_seconds=0.0, bucket_seconds=1800.0,
            **_TEMPORAL_KW,
        ),
        _RANGE_SQL,
    ),
}


@pytest.mark.parametrize("null_keys", [False, True])
@pytest.mark.parametrize("op", sorted(_TEMPORAL_OPS))
def test_temporal_join_layouts_vs_duckdb(ray_session, op, null_keys):
    """Null keys form one key, as in ``GROUP BY`` (the oracle's
    ``IS NOT DISTINCT FROM``)."""
    run, sql = _TEMPORAL_OPS[op]
    ev, od = _events(null_keys=null_keys), _orders(null_keys=null_keys)
    out = _same_on_every_layout(run, ev, od)
    got = sorted(zip(out.column("event_id").to_pylist(), out.column("o_orderkey").to_pylist()))
    want = sorted(_duckdb(sql, ev=ev, od=od))
    assert got == want and len(got) > 0


_STRING_KEYED_OPS = {
    "sessionize": lambda e, o: temporal.sessionize(e),
    "asof_join": _TEMPORAL_OPS["asof"][0],
    "range_join": _TEMPORAL_OPS["range"][0],
    "grouped_topk": lambda e, o: skew.grouped_topk(e, "user_id", "value", 3, id_col="event_id"),
    "group_sample": lambda e, o: sampling.group_sample(e, 4, "user_id", id_col="event_id"),
    "salted_group_sum": lambda e, o: skew.salted_group_sum(e, "user_id", ["value"], n_salts=4),
    "hash_join": lambda e, o: join.hash_join(e, o, "user_id", right_on="o_custkey", how="left"),
}


@pytest.mark.parametrize("op", sorted(_STRING_KEYED_OPS))
def test_string_keyed_operator_zero_rows(ray_session, op):
    ev, od = _empty_like(_events()), _empty_like(_orders())
    assert _same_on_every_layout(_STRING_KEYED_OPS[op], ev, od) is None


@pytest.mark.parametrize("null_keys", [False, True])
def test_grouped_topk_layouts_vs_duckdb(ray_session, null_keys):
    t = _events(null_keys=null_keys)
    out = _same_on_every_layout(lambda e: _STRING_KEYED_OPS["grouped_topk"](e, None), t)
    want = _duckdb(
        "SELECT event_id FROM (SELECT *, row_number() OVER (PARTITION BY user_id "
        "ORDER BY value DESC, event_id) AS rn FROM t) WHERE rn <= 3",
        t=t,
    )
    assert sorted(out.column("event_id").to_pylist()) == sorted(r[0] for r in want)


@pytest.mark.parametrize("null_keys", [False, True])
def test_group_sample_layouts_vs_oracle(ray_session, null_keys):
    from jamie_ray.hashing import stable_hash64

    t = _events(null_keys=null_keys)
    out = _same_on_every_layout(lambda e: _STRING_KEYED_OPS["group_sample"](e, None), t)
    u = sampling._id_uniform(t.column("event_id"), stable_hash64("group_sample", "") & 0xFFFFFFFF)
    by_key: dict = {}
    for key, eid, ui in zip(t.column("user_id").to_pylist(), t.column("event_id").to_pylist(), u):
        by_key.setdefault(key, []).append((ui, eid))
    want = sorted(eid for v in by_key.values() for _, eid in sorted(v)[:4])
    assert sorted(out.column("event_id").to_pylist()) == want


@pytest.mark.parametrize("null_keys", [False, True])
def test_salted_group_sum_layouts_vs_duckdb(ray_session, null_keys):
    t = _events(null_keys=null_keys)
    out = _same_on_every_layout(lambda e: _STRING_KEYED_OPS["salted_group_sum"](e, None), t)
    got = sorted(out.to_pylist(), key=lambda r: (r["user_id"] is None, r["user_id"] or ""))
    want = _duckdb(
        "SELECT user_id, sum(value)::BIGINT, count(*) FROM t GROUP BY user_id "
        "ORDER BY user_id NULLS LAST",
        t=t,
    )
    assert [(r["user_id"], r["value_sum"], r["n"]) for r in got] == want


@pytest.mark.parametrize("null_keys", [False, True])
def test_hopping_window_agg_layouts_vs_duckdb(ray_session, null_keys):
    """Null group keys form one group per window, on every layout."""
    t = _events(null_keys=null_keys)
    out = _same_on_every_layout(
        lambda e: temporal.hopping_window_agg(
            e, size_seconds=3600.0, hop_seconds=1800.0,
            value_col="value", group_cols=["user_id"],
        ),
        t,
    )
    got = list(zip(
        out.column("window_start").cast(pa.int64()).to_pylist(),
        out.column("user_id").to_pylist(),
        out.column("n").to_pylist(),
        out.column("sum_value").to_pylist(),
    ))
    want = _duckdb(
        "SELECT k * 1800000000, user_id, count(*), sum(value)::DOUBLE FROM ("
        " SELECT user_id, value, unnest(range((epoch_us(ts) - 3600000000) // 1800000000"
        " + 1, epoch_us(ts) // 1800000000 + 1)) AS k FROM t) GROUP BY ALL",
        t=t,
    )
    assert sorted(got, key=str) == sorted(want, key=str) and len(got) > 0


_JOIN_SQL = {
    "inner": "SELECT e.event_id, o.o_orderkey FROM ev e JOIN od o ON e.user_id = o.o_custkey",
    "left": "SELECT e.event_id, o.o_orderkey FROM ev e LEFT JOIN od o ON e.user_id = o.o_custkey",
    "semi": "SELECT e.event_id, NULL FROM ev e SEMI JOIN od o ON e.user_id = o.o_custkey",
    "anti": "SELECT e.event_id, NULL FROM ev e ANTI JOIN od o ON e.user_id = o.o_custkey",
}


@pytest.mark.parametrize("how", sorted(_JOIN_SQL))
def test_hash_join_salted_layouts_vs_duckdb(ray_session, how):
    """Plain, ``hot_keys`` and ``auto_salt`` joins give the SQL rows on
    every layout (null keys never match)."""
    ev, od = _events(), _orders()
    want = sorted(_duckdb(_JOIN_SQL[how], ev=ev, od=od), key=str)
    for kw in ({}, {"hot_keys": {"u1": 3, "u4": 2}}, {"auto_salt": True}):
        out = _same_on_every_layout(
            lambda e, o: join.hash_join(e, o, "user_id", right_on="o_custkey", how=how, **kw),
            ev, od,
        )
        orderkeys = (
            out.column("o_orderkey").to_pylist()
            if "o_orderkey" in out.column_names
            else [None] * out.num_rows
        )
        got = sorted(zip(out.column("event_id").to_pylist(), orderkeys), key=str)
        assert got == want, kw


def _relational_layouts(monkeypatch, tbl: pa.Table, query) -> pa.Table | None:
    from jamie_ray.pipelines import relational

    def run(ds):
        monkeypatch.setattr(relational, "_read", lambda sf_dir, name, columns=None: ds)
        return query(relational)("unused")

    return _same_on_every_layout(run, tbl)


@pytest.mark.parametrize("empty", [False, True])
def test_distinct_event_types_layouts(ray_session, monkeypatch, empty):
    types = [None if i % 5 == 0 else f"t{i % 7}" for i in range(200)]
    t = pa.table({"event_type": pa.array(types, pa.string())})
    if empty:
        t = _empty_like(t)
    out = _relational_layouts(monkeypatch, t, lambda r: r.distinct_event_types)
    got = [] if out is None else out.column("event_type").to_pylist()
    assert sorted(got, key=str) == sorted(set(t.column("event_type").to_pylist()), key=str)


def test_top_customers_per_segment_layouts_vs_duckdb(ray_session, monkeypatch):
    rng = np.random.default_rng(12)
    t = pa.table(
        {
            "c_custkey": pa.array(rng.permutation(300), pa.int64()),
            "c_mktsegment": pa.array([f"s{i}" for i in rng.integers(0, 5, 300)]),
            "c_acctbal": pa.array(rng.integers(0, 40, 300) / 4.0, pa.float64()),
        }
    )
    out = _relational_layouts(monkeypatch, t, lambda r: r.top_customers_per_segment)
    want = _duckdb(
        "SELECT c_custkey FROM (SELECT *, row_number() OVER (PARTITION BY c_mktsegment "
        "ORDER BY c_acctbal DESC, c_custkey) AS rn FROM t) WHERE rn <= 3",
        t=t,
    )
    assert sorted(out.column("c_custkey").to_pylist()) == sorted(r[0] for r in want)


def test_url_dedup_layouts_vs_oracle(ray_session):
    hosts = ["a.example", "www.a.example", "B.example", "c.example"]
    urls = [
        None if i % 9 == 0 else f"https://{hosts[i % 4]}/p{i % 6}?utm_source=x#frag{i}"
        for i in range(120)
    ]
    t = pa.table({"doc_id": pa.array(range(120), pa.int64()), "url": pa.array(urls)})
    out = _same_on_every_layout(urlnorm.url_dedup, t)
    want: dict = {}
    for d, u in zip(range(120), urls):
        c = urlnorm.canonicalize_url(u)
        if c is not None:
            lo, n = want.get(c, (d, 0))
            want[c] = (min(lo, d), n + 1)
    cols = (out.column(k).to_pylist() for k in ("canonical_url", "doc_id", "n_dups"))
    got = {c: (d, n) for c, d, n in zip(*cols)}
    assert got == want


def _embeddings(n: int = 60, seed: int = 13) -> pa.Table:
    """Near-copies of a few base vectors, so LSH buckets and clusters
    hold verified pairs."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(6, 8))
    vecs = base[rng.integers(0, 6, n)] + rng.normal(scale=0.02, size=(n, 8))
    return pa.table(
        {
            "vec_id": pa.array(range(n), pa.int64()),
            "embedding": pa.array(vecs.tolist(), pa.list_(pa.float64())),
        }
    )


@pytest.mark.parametrize("op", ["embedding_near_dup", "semantic_dedup"])
def test_similarity_verify_layout_invariant(ray_session, op):
    run = {
        "embedding_near_dup": lambda ds: similarity.embedding_near_dup(ds, 0.99, n_planes=4),
        "semantic_dedup": lambda ds: similarity.semantic_dedup(ds, 0.99, n_centroids=4),
    }[op]
    out = _same_on_every_layout(run, _embeddings())
    assert out.num_rows > 0


def _summed(rows: list[dict], key, summary) -> tuple[dict, int]:
    """(key -> n of the data rows, sum of n over the summary rows)."""
    data = {key(r): r["n"] for r in rows if not summary(r)}
    return data, sum(r["n"] for r in rows if summary(r))


@pytest.mark.parametrize("min_freq", [1, 9])
def test_word_counts_layouts_vs_oracle(ray_session, min_freq):
    from collections import Counter

    from jamie_ray.functions.text_analysis import ws_tokens

    docs = _docs()
    c = Counter(w for t in docs.column("text").to_pylist() for w in ws_tokens(t))
    kept = {w: n for w, n in c.items() if n >= min_freq}
    want = (kept, sum(n for n in c.values() if n < min_freq))
    for lay in LAYOUTS:
        rows = bpe.word_counts(_layout(docs, lay), min_freq=min_freq).take_all()
        assert _summed(rows, lambda r: r["word"], lambda r: r["word"] is None) == want, lay
    assert want[1] > 0 or min_freq == 1


@pytest.mark.parametrize("min_freq", [1, 3])
def test_ngram_counts_layouts_vs_oracle(ray_session, min_freq):
    from collections import Counter

    from jamie_ray.functions.text_analysis import ws_tokens

    docs = _docs()
    c: Counter = Counter()
    for t in docs.column("text").to_pylist():
        toks = ws_tokens(t)
        c.update((1, w) for w in toks)
        c.update((2, a + " " + b) for a, b in zip(toks, toks[1:]))
    uni = [n for (o, _), n in c.items() if o == 1]
    want_grams = {k: n for k, n in c.items() if n >= min_freq}
    for lay in LAYOUTS:
        rows = lm.ngram_counts(_layout(docs, lay), min_freq=min_freq).take_all()
        grams = {(r["order"], r["gram"]): r["n"] for r in rows if r["order"]}
        totals: dict = {}
        for r in rows:
            if not r["order"]:
                totals[r["gram"]] = totals.get(r["gram"], 0) + r["n"]
        assert grams == want_grams, lay
        assert totals == {"__total__": sum(uni), "__types__": len(uni)}, lay


@pytest.mark.parametrize("null_keys", [False, True])
def test_events_hourly_layouts_vs_duckdb(ray_session, monkeypatch, null_keys):
    """The relational combiner + reduce (``_partial_groupby_sum``) over
    a two-column key whose string half is null in every third row."""
    ev = _events(null_keys=null_keys)
    t = pa.table(
        {
            "ts": ev.column("ts"),
            "event_type": ev.column("user_id"),
            "value": ev.column("value").cast(pa.float64()),
        }
    )
    out = _relational_layouts(monkeypatch, t, lambda r: r.events_hourly)
    got = list(zip(
        out.column("hour").to_pylist(),
        out.column("event_type").to_pylist(),
        out.column("n").to_pylist(),
        out.column("sum_value").to_pylist(),
    ))
    want = _duckdb(
        "SELECT date_trunc('hour', ts), event_type, count(*), sum(value) FROM t GROUP BY ALL",
        t=t,
    )
    assert sorted(got, key=str) == sorted(want, key=str) and len(got) > 0



# -- structural guard --------------------------------------------------------


def _source_nodes():
    """``(path under jamie_ray/, node)`` for every ast node of the
    package source."""
    import ast
    import pathlib

    import jamie_ray

    root = pathlib.Path(jamie_ray.__file__).parent
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            yield str(path.relative_to(root)), node


def test_no_per_group_dispatch_in_ported_modules():
    """``jamie_ray.runs`` is gone, no ``.map_groups(`` call is left
    anywhere in ``jamie_ray/``, and no public ``n_buckets`` /
    ``num_buckets`` dispatch knob came back."""
    import ast
    import importlib.util
    import inspect

    from jamie_ray.evalx import evaluate_datasets

    assert importlib.util.find_spec("jamie_ray.runs") is None
    offenders = [
        f"{path}:{node.lineno}"
        for path, node in _source_nodes()
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "map_groups"
    ]
    assert offenders == []
    fns = [
        dedup_triples, evaluate_datasets, dedup_docs.exact_dedup,
        dedup_docs.incremental_dedup, dedup_docs.paragraph_dedup,
        dedup_docs.span_dedup, dedup_docs.simhash_pairs, graph.component_pairs,
        graph.connected_components, graph.assign_components, bpe.word_counts,
        bpe.train_bpe, lm.ngram_counts, sampling.group_sample, skew.grouped_topk,
    ]
    assert [f.__name__ for f in fns if "n_buckets" in inspect.signature(f).parameters] == []
    params = inspect.signature(join.hash_join).parameters
    assert "num_buckets" not in params


def test_side_counts_go_through_run_counters():
    """Kernels send side counts through ``RunCounters.record``: no
    ``.record.remote(`` call is left in ``jamie_ray/`` outside
    ``state/caps.py``, and only ``state/caps.py`` names the
    ``CapCounters`` actor class (so only it creates one)."""
    import ast

    caps = "state/caps.py"
    remote_records = [
        f"{path}:{node.lineno}"
        for path, node in _source_nodes()
        if path != caps
        and isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "remote"
        and isinstance(node.func.value, ast.Attribute)
        and node.func.value.attr == "record"
    ]
    assert remote_records == []
    actor_class = [
        f"{path}:{node.lineno}"
        for path, node in _source_nodes()
        if path != caps
        and (
            (isinstance(node, ast.Name) and node.id == "CapCounters")
            or (isinstance(node, ast.Attribute) and node.attr == "CapCounters")
            or (
                isinstance(node, ast.ImportFrom)
                and any(a.name == "CapCounters" for a in node.names)
            )
        )
    ]
    assert actor_class == []
