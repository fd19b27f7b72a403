"""Inverted index + doc_top_terms (functions/index.py).

The exactness bar is the same as the driver's: the distributed results
must equal an independent single-process reference — here a DuckDB
replica of the oracle SQL and a pure-Python postings builder.
"""

import duckdb
import pyarrow as pa
import pytest

DOCS = [
    (1, "the cat sat on the mat"),
    (2, "the dog sat"),
    (3, "cat dog cat   dog"),  # double space -> empty-token filter
    (4, " leading and trailing "),
    (5, ""),  # empty doc: no terms, no top-k rows
    (6, "ＵＮＩＱ 漢字 the"),  # non-ascii terms: byte order == codepoint order
]


def _docs_table():
    return pa.table(
        {
            "doc_id": pa.array([d for d, _ in DOCS], pa.int64()),
            "text": pa.array([t for _, t in DOCS], pa.string()),
        }
    )


def _py_postings():
    post = {}
    for d, t in DOCS:
        for term in set(t.split()):
            post.setdefault(term, set()).add(d)
    return {k: sorted(v) for k, v in post.items()}


def test_inverted_index_exact(ray_session):
    import ray

    from jamie_ray.functions.index import inverted_index

    ds = ray.data.from_arrow(_docs_table()).repartition(3)
    got = {
        r["term"]: (r["df"], list(r["postings"]))
        for r in inverted_index(ds).take_all()
    }
    exp = {k: (len(v), v) for k, v in _py_postings().items()}
    assert got == exp


def test_inverted_index_min_df_and_cap(ray_session):
    import ray

    from jamie_ray.functions.index import inverted_index
    from jamie_ray.state.caps import cap_totals, new_cap_counters

    ds = ray.data.from_arrow(_docs_table()).repartition(2)
    caps = new_cap_counters()
    got = {
        r["term"]: (r["df"], list(r["postings"]))
        for r in inverted_index(
            ds, min_df=2, max_postings=1, cap_counters=caps
        ).take_all()
    }
    exp = {
        k: (len(v), v[:1]) for k, v in _py_postings().items() if len(v) >= 2
    }
    assert got == exp
    # df stays exact while postings truncate, and the drop is counted
    dropped = sum(len(v) - 1 for v in _py_postings().values() if len(v) >= 2)
    totals = cap_totals(caps)
    assert totals.get("inverted_index_truncated_postings", 0) == dropped


def test_term_df_matches_index(ray_session):
    import ray

    from jamie_ray.functions.index import term_df

    ds = ray.data.from_arrow(_docs_table()).repartition(3)
    got = {r["term"]: r["df"] for r in term_df(ds).take_all()}
    assert got == {k: len(v) for k, v in _py_postings().items()}


def _duckdb_top_terms(k=3, min_df=1):
    con = duckdb.connect()
    con.register("documents", _docs_table())
    return con.execute(
        rf"""
        WITH toks AS (
          SELECT doc_id,
                 unnest(list_filter(string_split_regex(text, '\s+'),
                                    x -> x <> '')) AS term
          FROM documents
        ), tf AS (
          SELECT doc_id, term, count(*) AS tf FROM toks GROUP BY doc_id, term
        ), dfs AS (
          SELECT term, count(DISTINCT doc_id) AS df FROM toks GROUP BY term
        )
        SELECT doc_id, term, tf, df, rank FROM (
          SELECT t.doc_id, t.term, t.tf, d.df,
                 row_number() OVER (PARTITION BY t.doc_id
                   ORDER BY t.tf DESC, d.df ASC, t.term ASC) AS rank
          FROM tf t JOIN dfs d ON t.term = d.term
          WHERE d.df >= {min_df}
        ) WHERE rank <= {k}
        ORDER BY doc_id, rank
        """
    ).fetchall()


@pytest.mark.parametrize("min_df", [1, 2])
def test_doc_top_terms_matches_duckdb(ray_session, min_df):
    import ray

    from jamie_ray.functions.index import doc_top_terms

    ds = ray.data.from_arrow(_docs_table()).repartition(3)
    rows = doc_top_terms(ds, k=3, min_df=min_df).take_all()
    got = sorted(
        (r["doc_id"], r["term"], r["tf"], r["df"], r["rank"]) for r in rows
    )
    assert got == sorted(tuple(r) for r in _duckdb_top_terms(3, min_df))


# ---------------------------------------------------------------------------
# materialized term index (build once, bucket-pruned probe)
# ---------------------------------------------------------------------------

def test_term_index_prunes_read_and_matches_scan(ray_session, tmp_path):
    import os

    import ray

    from jamie_ray.functions.index import (
        build_term_index,
        inverted_index,
        lookup_postings,
        term_probe_partitions,
    )

    ds = ray.data.from_arrow(_docs_table()).repartition(3)
    out = str(tmp_path / "tidx")
    meta = build_term_index(ds, out)
    assert meta["n_buckets"] == 1024

    all_parts = [d for d in os.listdir(out) if d.startswith("bucket=")]
    probe = term_probe_partitions(out, ["cat", "dog"])
    # the probe plan touches strictly fewer partitions than the index
    assert 0 < len(probe) < len(all_parts)
    assert all(os.path.basename(p).startswith("bucket=") for p in probe)

    got = {
        r["term"]: (r["df"], list(r["postings"]))
        for r in lookup_postings(out, ["cat", "dog", "nosuchterm"]).to_pylist()
    }
    exp = {
        r["term"]: (r["df"], list(r["postings"]))
        for r in inverted_index(ray.data.from_arrow(_docs_table())).take_all()
        if r["term"] in ("cat", "dog")
    }
    assert got == exp

    # a completed index refuses accidental rebuild
    with pytest.raises(FileExistsError):
        build_term_index(ds, out)


def test_term_index_refresh_appends_generation(ray_session, tmp_path):
    """refresh_term_index: only the new docs' buckets gain gen- files,
    and lookup merges df/postings across generations."""
    import glob
    import os

    import ray

    from jamie_ray.functions.index import (
        build_term_index,
        lookup_postings,
        refresh_term_index,
    )

    out = str(tmp_path / "tidx_r")
    build_term_index(ray.data.from_arrow(_docs_table()), out)
    files_before = set(glob.glob(os.path.join(out, "bucket=*", "*.parquet")))

    # a crashed earlier attempt at gen 2 left a partial file — the
    # refresh must wipe it before redoing the move
    some_bucket = os.path.dirname(sorted(files_before)[0])
    junk = os.path.join(some_bucket, "gen-0002-999999.parquet")
    with open(junk, "w") as f:
        f.write("partial")

    new = pa.table(
        {
            "doc_id": pa.array([10, 11], pa.int64()),
            "text": pa.array(["cat boat", "boat"], pa.string()),
        }
    )
    res = refresh_term_index(out, ray.data.from_arrow(new))
    assert res["generation"] == 2
    assert not os.path.exists(junk)

    files_after = set(glob.glob(os.path.join(out, "bucket=*", "*.parquet")))
    added = files_after - files_before
    assert added and all("gen-0002-" in os.path.basename(f) for f in added)
    # untouched buckets gained nothing
    touched = set(res["partitions_touched"])
    assert all(os.path.basename(os.path.dirname(f)) in touched for f in added)

    got = {
        r["term"]: (r["df"], list(r["postings"]))
        for r in lookup_postings(out, ["cat", "boat", "dog"]).to_pylist()
    }
    # cat: gen1 docs {1,3} + gen2 doc {10}, merged sorted
    assert got["cat"] == (3, [1, 3, 10])
    assert got["boat"] == (2, [10, 11])  # new term, new generation only
    assert got["dog"] == (2, [2, 3])  # untouched term unchanged


def test_term_index_partial_build_is_wiped(ray_session, tmp_path):
    import os

    import ray

    from jamie_ray.functions.index import build_term_index, lookup_postings

    out = str(tmp_path / "tidx2")
    # simulate a crashed build: directory exists, no completion meta
    os.makedirs(os.path.join(out, "bucket=7"))
    with open(os.path.join(out, "bucket=7", "junk.parquet"), "w") as f:
        f.write("not parquet")
    ds = ray.data.from_arrow(_docs_table())
    build_term_index(ds, out)
    got = lookup_postings(out, ["cat"]).to_pylist()
    assert got and got[0]["term"] == "cat"


# ---------------------------------------------------------------------------
# tokenisation-twin property: Arrow RE2 \s+ split == DuckDB RE2 \s+ split
# ---------------------------------------------------------------------------

from hypothesis import given, settings, strategies as st

_texty = st.text(
    alphabet=st.characters(
        whitelist_categories=("L", "N", "P", "Zs", "Cc"),
        whitelist_characters=" \t\n\r　漢字かなカナ",
    ),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_texty, min_size=1, max_size=4))
def test_flat_term_doc_matches_duckdb_split(texts):
    """The engine-side tokenizer kernel (_flat_term_doc: pyarrow RE2
    split on \\s+ + empty filter) must agree with the oracle-side
    DuckDB string_split_regex on arbitrary unicode — this seam is what
    makes the doc_top_terms oracle exact."""
    import duckdb
    import pyarrow as pa

    from jamie_ray.functions.index import _flat_term_doc

    batch = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    got = sorted(
        zip(
            _flat_term_doc(batch, "text", "doc_id").column("doc_id").to_pylist(),
            _flat_term_doc(batch, "text", "doc_id").column("term").to_pylist(),
        )
    )
    con = duckdb.connect()
    con.register("d", batch)
    exp = sorted(
        con.execute(
            r"""SELECT doc_id, unnest(list_filter(
                    string_split_regex(text, '\s+'), x -> x <> '')) AS term
                FROM d ORDER BY doc_id"""
        ).fetchall()
    )
    assert got == [tuple(r) for r in exp]


def test_doc_top_terms_vocab_cap_fails_loudly(ray_session):
    import ray

    from jamie_ray.functions.index import doc_top_terms
    from jamie_ray.state.collect import EdgeCapExceeded

    ds = ray.data.from_arrow(_docs_table())
    with pytest.raises(EdgeCapExceeded, match="min_df"):
        doc_top_terms(ds, k=2, vocab_cap=3)


def test_doc_top_terms_spill_dir_executes_upstream_once(ray_session, tmp_path):
    """A DERIVED input with spill_dir= executes its upstream exactly
    once: the (id, text) projection spills to parquet and both operator
    passes (df + score) re-read from disk."""
    import ray
    import ray.data

    from jamie_ray.functions.index import doc_top_terms

    @ray.remote
    class Counter:
        def __init__(self):
            self.n = 0

        def add(self, k):
            self.n += k

        def get(self):
            return self.n

    counter = Counter.remote()
    base = ray.data.from_arrow(_docs_table())

    def expensive_upstream(batch):
        ray.get(counter.add.remote(len(batch["doc_id"])))
        return batch

    derived = base.map_batches(expensive_upstream, batch_format="pandas")
    spill = str(tmp_path / "spill")
    got = sorted(
        (r["doc_id"], r["term"], r["tf"], r["df"], r["rank"])
        for r in doc_top_terms(derived, k=3, spill_dir=spill).take_all()
    )
    assert got == sorted(tuple(r) for r in _duckdb_top_terms(3, 1))
    assert ray.get(counter.get.remote()) == len(DOCS)


def test_cli_index_lookup_topterms(ray_session, tmp_path, capsys):
    import glob
    import json

    import pyarrow.parquet as pq

    from jamie_ray.__main__ import main

    docs = str(tmp_path / "docs.parquet")
    pq.write_table(_docs_table(), docs)

    idx = str(tmp_path / "idx")
    main(["index", "--docs", docs, "--out", idx])
    meta = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert meta["n_buckets"] == 1024

    main(["lookup", "--index", idx, "--terms", "cat,nosuchterm"])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["rows"] == [
        {"term": "cat", "df": 2, "postings": [1, 3]}
    ]
    assert out["n_partitions_read"] >= 1

    tt = str(tmp_path / "tt")
    main(["topterms", "--docs", docs, "--out", tt, "--k", "3"])
    got = pq.read_table(sorted(glob.glob(f"{tt}/*.parquet")))
    rows = sorted(
        zip(*[got.column(c).to_pylist() for c in ["doc_id", "term", "tf", "df", "rank"]])
    )
    assert rows == sorted(tuple(r) for r in _duckdb_top_terms(3, 1))


def test_cli_ann_build_and_query(ray_session, tmp_path, capsys):
    import json

    import pyarrow as pa
    import pyarrow.parquet as pq

    from jamie_ray.__main__ import main

    emb = str(tmp_path / "emb.parquet")
    vecs = [
        {"vec_id": 0, "embedding": [1.0, 0.0]},
        {"vec_id": 1, "embedding": [0.9, 0.1]},
        {"vec_id": 2, "embedding": [0.0, 1.0]},
        {"vec_id": 3, "embedding": [-1.0, 0.0]},
    ]
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array([v["vec_id"] for v in vecs], pa.int64()),
                "embedding": pa.array(
                    [v["embedding"] for v in vecs], pa.list_(pa.float64())
                ),
            }
        ),
        emb,
    )
    idx = str(tmp_path / "annidx")
    main(["ann-build", "--embeddings", emb, "--out", idx, "--n-centroids", "2"])
    meta = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert meta["kind"] == "ivf"

    main(["ann-query", "--index", idx, "--query", "1.0,0.0", "--k", "2",
          "--n-probe", "1"])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["rows"][0]["vec_id"] == 0
    assert out["n_partitions_read"] == 1


def test_cli_ann_build_reports_real_partition_count(ray_session, tmp_path, capsys):
    """n_partitions in the ann-build output counts occupied partition
    dirs on disk (the review found the old meta key was always null)."""
    import json

    import pyarrow as pa
    import pyarrow.parquet as pq

    from jamie_ray.__main__ import main

    emb = str(tmp_path / "emb.parquet")
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array([0, 1, 2, 3], pa.int64()),
                "embedding": pa.array(
                    [[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [-1.0, 0.0]],
                    pa.list_(pa.float64()),
                ),
            }
        ),
        emb,
    )
    idx = str(tmp_path / "annidx2")
    main(["ann-build", "--embeddings", emb, "--out", idx, "--n-centroids", "2"])
    meta = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert meta["n_partitions"] == 2


def test_inverted_index_rejects_non_integer_ids(ray_session):
    import pytest
    import ray.data

    from jamie_ray.functions.index import inverted_index

    docs = ray.data.from_items([{"doc_id": "a", "text": "x y"}])
    with pytest.raises(Exception, match="integer"):
        inverted_index(docs).take_all()


def test_refresh_rejects_bucket_count_drift(ray_session, tmp_path, monkeypatch):
    """An index hashed with a different n_buckets than the current
    module constant must refuse to refresh — gen files would land in
    partitions the probe never reads."""
    import json
    import os

    import pytest
    import ray.data

    from jamie_ray.functions import index as idx

    docs = ray.data.from_items(
        [{"doc_id": i, "text": f"alpha beta t{i}"} for i in range(6)]
    )
    d = str(tmp_path / "ti")
    idx.build_term_index(docs, d)
    meta_path = os.path.join(d, idx._IDX_META)
    with open(meta_path) as f:
        meta = json.load(f)
    meta["n_buckets"] = 2048  # simulate an index built by another build
    with open(meta_path, "w") as f:
        json.dump(meta, f)
    with pytest.raises(ValueError, match="rebuild the index"):
        idx.refresh_term_index(d, docs)


def test_cli_index_refresh_reads_recorded_id_col(ray_session, tmp_path, capsys):
    """index --refresh reads the id column the build recorded: an index
    built with --id-col uid refreshes without repeating the flag."""
    import json

    import pyarrow.parquet as pq

    from jamie_ray.__main__ import main

    docs = str(tmp_path / "docs.parquet")
    pq.write_table(_docs_table().rename_columns(["uid", "text"]), docs)
    new = str(tmp_path / "new.parquet")
    pq.write_table(
        pa.table({"uid": pa.array([10], pa.int64()), "text": ["cat boat"]}), new
    )
    idx = str(tmp_path / "idx")
    main(["index", "--docs", docs, "--out", idx, "--id-col", "uid"])
    main(["index", "--docs", new, "--out", idx, "--refresh"])
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["command"] == "index" and res["generation"] == 2

    main(["lookup", "--index", idx, "--terms", "cat,boat"])
    rows = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["rows"]
    assert {r["term"]: r["postings"] for r in rows} == {
        "cat": [1, 3, 10],
        "boat": [10],
    }


def test_refresh_reads_recorded_text_col(ray_session, tmp_path, capsys):
    """An index built from a ``body`` column refreshes without the
    column named again, through the library and through
    ``index --refresh``; a meta written before ``text_col`` was
    recorded refreshes from ``text``."""
    import json
    import os

    import pyarrow.parquet as pq
    import ray

    from jamie_ray.__main__ import main
    from jamie_ray.functions import index as idx

    body = _docs_table().rename_columns(["doc_id", "body"])
    lib = str(tmp_path / "lib")
    meta = idx.build_term_index(ray.data.from_arrow(body), lib, text_col="body")
    assert meta["text_col"] == "body"
    new = pa.table({"doc_id": pa.array([10], pa.int64()), "body": ["cat boat"]})
    assert idx.refresh_term_index(lib, ray.data.from_arrow(new))["generation"] == 2
    got = {r["term"]: r["postings"] for r in idx.lookup_postings(lib, ["boat"]).to_pylist()}
    assert got == {"boat": [10]}

    docs, new_path = str(tmp_path / "docs.parquet"), str(tmp_path / "new.parquet")
    pq.write_table(body, docs)
    pq.write_table(new, new_path)
    cli = str(tmp_path / "cli")
    main(["index", "--docs", docs, "--out", cli, "--text-col", "body"])
    main(["index", "--docs", new_path, "--out", cli, "--refresh"])
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["generation"] == 2

    old = str(tmp_path / "old")
    idx.build_term_index(ray.data.from_arrow(_docs_table()), old)
    meta_path = os.path.join(old, idx._IDX_META)
    with open(meta_path) as f:
        meta = json.load(f)
    del meta["text_col"]
    with open(meta_path, "w") as f:
        json.dump(meta, f)
    new_text = new.rename_columns(["doc_id", "text"])
    assert idx.refresh_term_index(old, ray.data.from_arrow(new_text))["generation"] == 2


def test_cli_ann_build_refresh_reads_recorded_columns(ray_session, tmp_path, capsys):
    """ann-build --refresh reads the id and vector columns the build
    recorded, not the --id-col/--vec-col defaults."""
    import json

    import pyarrow.parquet as pq

    from jamie_ray.__main__ import main

    def emb_table(ids, vecs):
        return pa.table(
            {
                "uid": pa.array(ids, pa.int64()),
                "vec": pa.array(vecs, pa.list_(pa.float64())),
            }
        )

    emb = str(tmp_path / "emb.parquet")
    pq.write_table(
        emb_table([0, 1, 2, 3], [[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [-1.0, 0.0]]),
        emb,
    )
    new = str(tmp_path / "new.parquet")
    pq.write_table(emb_table([7], [[1.0, 0.0]]), new)
    idx = str(tmp_path / "annidx")
    main([
        "ann-build", "--embeddings", emb, "--out", idx, "--n-centroids", "2",
        "--id-col", "uid", "--vec-col", "vec",
    ])
    main(["ann-build", "--embeddings", new, "--out", idx, "--refresh"])
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["command"] == "ann-build" and res["generation"] == 2

    main(["ann-query", "--index", idx, "--query", "1.0,0.0", "--k", "2",
          "--n-probe", "1"])
    rows = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["rows"]
    assert sorted(r["uid"] for r in rows) == [0, 7]
