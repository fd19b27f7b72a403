"""Inverted index + per-document distinctive-term ranking.

The missing retrieval-side primitives of an LLM data pipeline: build a
term -> postings index over a documents table, and rank each document's
terms by a tf-idf-flavoured key. The reference engine has no analogue
(its corpus ops stop at CoNLL/XML conversion); these are the brief's
"operations a large-scale training-data pipeline would need".

Tokenisation is the shared whitespace rule (``TOKEN_RE = \\S+`` from
``text_analysis.py``), written once and mirrored verbatim in the DuckDB
oracle (``string_split_regex(text, '\\s+')`` + empty filter) so the two
sides cannot drift.

Exactness discipline: ranks are computed over INTEGER keys only
(``tf`` desc, ``df`` asc, ``term`` asc) — no float idf enters the
ordering, so the DuckDB ``row_number()`` oracle matches bit-for-bit
with no rounding reconciliation.

Physical plans (the 100-TB shapes):

- ``inverted_index``: block-local Arrow ``group_by(term, doc)``
  combiner dedups within-document repetitions BEFORE anything moves
  (the big reduction: a term occurring 100× in a doc ships once), then
  ONE sorted shuffle on the term (``shuffle.sorted_reduce``) whose
  reducer builds (term, df, postings) for every term run of a sorted
  block with numpy. Postings rows are bounded by ``max_postings``
  (stopword-shaped terms), with each truncated term reported to the
  ``state/caps.py`` counter actor — never silent.
- ``doc_top_terms``: document-frequency table via the same deduped
  pair combiner + one small ``group_by(term)`` per block and a sorted
  reduce on the term; the (term -> df) map is ``ray.put`` ONCE and
  read through ``worker_cache.cached_get`` in every scoring task
  (broadcast, not re-shipped per batch); per-document tf + top-k runs
  fully inside ``map_batches`` with numpy lexsort — each doc's text
  lives in one row, so no second shuffle is needed. The broadcast is
  bounded by ``min_df`` pruning; at vocabulary sizes beyond worker
  memory, raise ``min_df`` (documented contract) — rare terms can't
  enter any top-k that requires df >= min_df anyway.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from ..hashing import stable_hash64
from ..shuffle import run_bounds, sorted_reduce

_N_BUCKETS = 1024
_WS_SPLIT_RE = r"\s+"  # split twin of text_analysis.TOKEN_RE (\S+)


def _term_buckets(terms: pa.ChunkedArray | pa.Array) -> pa.Array:
    """hash-bucket per term, hashing each DISTINCT term once: the
    Python ``stable_hash64`` loop runs over the dictionary (vocab-sized
    per block), not the row stream."""
    enc = pc.dictionary_encode(terms)
    enc = enc.combine_chunks() if isinstance(enc, pa.ChunkedArray) else enc
    uniq = enc.dictionary.to_pylist()
    bucket_by_uniq = np.asarray(
        [stable_hash64(t) & (_N_BUCKETS - 1) for t in uniq], dtype=np.int64
    )
    idx = enc.indices.to_numpy(zero_copy_only=False)
    return pa.array(bucket_by_uniq[idx], pa.int64())


def _term_doc_pairs(batch: pa.Table, text_col: str, id_col: str) -> pa.Table:
    """Block-local combiner: (id, text) -> DISTINCT (term, doc) pairs.

    Fully vectorised: one regex split kernel, one flatten with parent
    indices, one Arrow group_by for the distinct. Within-document
    repetitions never leave the block.
    """
    flat = _flat_term_doc(batch, text_col, id_col)
    return flat.group_by(["term", "doc_id"]).aggregate([])


def _flat_term_doc(batch: pa.Table, text_col: str, id_col: str) -> pa.Table:
    """(id, text) -> one (term, doc_id) row per token occurrence.

    Doc ids must be integers (postings are ``list<int64>`` on disk) —
    checked loudly here rather than failing as an opaque ArrowInvalid
    deep inside a Ray task."""
    if not pa.types.is_integer(batch.schema.field(id_col).type):
        raise TypeError(
            f"inverted index: id column {id_col!r} must be an integer "
            f"type (postings are int64 lists), got "
            f"{batch.schema.field(id_col).type}"
        )
    text = pc.fill_null(batch.column(text_col), "")
    toks = pc.split_pattern_regex(text, _WS_SPLIT_RE)
    toks = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
    doc_ids = batch.column(id_col).to_numpy(zero_copy_only=False)
    # parent index per flattened token (list offsets -> repeat counts)
    offsets = toks.offsets.to_numpy(zero_copy_only=False)
    counts = np.diff(offsets)
    pairs = pa.table(
        {
            "term": toks.flatten(),
            "doc_id": pa.array(np.repeat(doc_ids, counts), pa.int64()),
        }
    )
    # drop the empty strings a leading/trailing/double space produces
    return pairs.filter(pc.not_equal(pairs.column("term"), ""))


def inverted_index(
    docs,
    text_col: str = "text",
    id_col: str = "doc_id",
    min_df: int = 1,
    max_postings: int | None = None,
    cap_counters=None,
):
    """documents -> (term, df, postings) — one row per distinct term.

    ``df`` is the exact document frequency; ``postings`` is the sorted
    list of doc ids containing the term, truncated to ``max_postings``
    when set (``df`` stays exact, so truncation is always visible, and
    the dropped count is reported to ``cap_counters`` when provided —
    the ``state/caps.py`` contract: no silent caps).
    """

    def merge(block: pa.Table) -> pa.Table:
        block = block.sort_by([("term", "ascending"), ("doc_id", "ascending")])
        # distinct (term, doc) pairs: a doc id repeated across input
        # blocks counts once
        block = block.take(run_bounds(block, ["term", "doc_id"])[0])
        starts, ends = run_bounds(block, "term")
        df = ends - starts
        keep = df >= min_df
        starts, df = starts[keep], df[keep]
        n_post = df if max_postings is None else np.minimum(df, max_postings)
        if cap_counters is not None:
            for s, n in zip(starts[df > n_post], (df - n_post)[df > n_post]):
                cap_counters.record(
                    "inverted_index_truncated_postings",
                    stable_hash64(block.column("term")[int(s)].as_py()),
                    int(n),
                )
        # row index of every kept posting: each run's first n_post rows
        offsets = np.concatenate([[0], np.cumsum(n_post)]).astype(np.int32)
        rows = np.arange(offsets[-1]) - np.repeat(offsets[:-1] - starts, n_post)
        doc_ids = block.column("doc_id").take(pa.array(rows, pa.int64()))
        return pa.table(
            {
                "term": block.column("term").take(pa.array(starts, pa.int64())),
                "df": pa.array(df, pa.int64()),
                "postings": pa.ListArray.from_arrays(
                    pa.array(offsets, pa.int32()), doc_ids.combine_chunks()
                ),
            }
        )

    return sorted_reduce(
        docs.map_batches(
            lambda b: _term_doc_pairs(b, text_col, id_col), batch_format="pyarrow"
        ),
        "term",
        merge,
    )


_IDX_META = "_term_index_meta.json"


def _term_meta(index_dir: str) -> dict:
    """A completed index's meta; an index written before ``text_col``
    was recorded was built from ``"text"``."""
    import json
    import os

    with open(os.path.join(index_dir, _IDX_META)) as f:
        return {"text_col": "text", **json.load(f)}


def build_term_index(
    docs,
    out_dir: str,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    min_df: int = 1,
    max_postings: int | None = None,
    cap_counters=None,
) -> dict:
    """Materialize :func:`inverted_index` as hive-partitioned parquet
    keyed by the term-hash bucket (``bucket=<b>/...``), so a probe for
    any set of terms reads ONLY those terms' bucket partitions — the
    100-TB repeated-lookup shape (the ``build_ann_index`` pattern,
    applied to the retrieval index).

    All-or-nothing like the ANN build: an ``out_dir`` without a
    completion meta (a crashed build) is wiped and rebuilt; one WITH a
    meta raises — at scale an accidental rebuild is hours, so
    overwriting must be deliberate. Returns the meta dict.
    """
    import json
    import os
    import shutil

    meta_path = os.path.join(out_dir, _IDX_META)
    if os.path.exists(meta_path):
        raise FileExistsError(
            f"build_term_index: {out_dir} already holds a completed "
            "index; remove it explicitly to rebuild"
        )
    if os.path.exists(out_dir):
        shutil.rmtree(out_dir)  # crashed partial build — wipe and redo

    idx = inverted_index(
        docs,
        text_col=text_col,
        id_col=id_col,
        min_df=min_df,
        max_postings=max_postings,
        cap_counters=cap_counters,
    )
    # derive the on-disk partition key from the term (vocab-sized
    # work): the merge shuffle sorts on the term itself
    idx.map_batches(
        lambda b: b.append_column("bucket", _term_buckets(b.column("term"))),
        batch_format="pyarrow",
    ).write_parquet(out_dir, partition_cols=["bucket"])
    meta = {
        "format_version": 1,
        "n_buckets": _N_BUCKETS,
        "min_df": min_df,
        "max_postings": max_postings,
        "id_col": id_col,
        "text_col": text_col,
    }
    with open(meta_path, "w") as f:
        json.dump(meta, f)
    return meta


def refresh_term_index(index_dir: str, new_docs, *, cap_counters=None) -> dict:
    """Append a new generation of documents to a completed
    :func:`build_term_index` WITHOUT rebuilding (the
    ``refresh_ann_index`` pattern): the new docs' inverted index is
    computed alone, then written as ``gen-<N>-*`` files inside the
    touched ``bucket=`` partitions — term hashing is stable, so a
    term's postings always land in its existing bucket and
    :func:`lookup_postings` (which merges per-term rows across
    generations) sees both the original build and every refresh.
    ``new_docs`` are read through the id and text columns the build
    recorded.

    Caveats, stated loudly:

    - append-only snapshots: ``new_docs`` ids must be NEW — an updated
      doc under an existing id double-counts in df and postings;
    - the build's ``min_df`` is applied PER GENERATION, so a term whose
      df only crosses ``min_df`` when generations are combined stays
      pruned until a full rebuild (per-generation pruning is a lower
      bound on the exact global index);
    - ``max_postings`` too is PER GENERATION: a hot term's MERGED
      postings (lookup concatenates generations) can exceed the cap
      and are not the first-N ids of the combined corpus until a full
      rebuild — refresh-time truncation is reported via
      ``cap_counters`` (the no-silent-caps contract).

    Crash-safe and idempotent like the ANN refresh: staged write, a
    re-run deletes this generation's partially-moved files first, meta
    replaced atomically as the commit point.
    """
    import glob
    import json
    import os
    import shutil

    meta_path = os.path.join(index_dir, _IDX_META)
    meta = _term_meta(index_dir)
    if int(meta["n_buckets"]) != _N_BUCKETS:
        # the on-disk layout is hashed with the RECORDED bucket count;
        # refreshing with a different module constant would write gen
        # files into partitions the probe never reads — terms silently
        # invisible to lookups
        raise ValueError(
            f"refresh_term_index: index was built with n_buckets="
            f"{meta['n_buckets']} but this build hashes with "
            f"{_N_BUCKETS} — rebuild the index instead of refreshing"
        )
    new_gen = int(meta.get("generations", 1)) + 1

    for f_ in glob.glob(
        os.path.join(index_dir, "bucket=*", f"gen-{new_gen:04d}-*.parquet")
    ):
        os.remove(f_)

    idx = inverted_index(
        new_docs,
        text_col=meta["text_col"],
        id_col=meta["id_col"],
        min_df=int(meta["min_df"]),
        # max_postings applies PER GENERATION (like min_df, documented
        # below): a lookup concatenates generations, so a hot term's
        # merged postings can exceed max_postings until a full rebuild;
        # truncation is reported through cap_counters, never silent
        max_postings=meta["max_postings"],
        cap_counters=cap_counters,
    )
    staging = os.path.join(
        os.path.dirname(os.path.abspath(index_dir)) or ".",
        f".{os.path.basename(index_dir)}-staging-gen{new_gen}",
    )
    shutil.rmtree(staging, ignore_errors=True)
    idx.map_batches(
        lambda b: b.append_column("bucket", _term_buckets(b.column("term"))),
        batch_format="pyarrow",
    ).write_parquet(staging, partition_cols=["bucket"])

    touched: list[str] = []
    for pdir in sorted(glob.glob(os.path.join(staging, "bucket=*"))):
        part = os.path.basename(pdir)
        dst = os.path.join(index_dir, part)
        os.makedirs(dst, exist_ok=True)
        for i, f_ in enumerate(sorted(glob.glob(os.path.join(pdir, "*.parquet")))):
            os.replace(f_, os.path.join(dst, f"gen-{new_gen:04d}-{i:06d}.parquet"))
        touched.append(part)
    shutil.rmtree(staging, ignore_errors=True)

    meta["generations"] = new_gen
    tmp = meta_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(meta, f)
    os.replace(tmp, meta_path)
    return {"generation": new_gen, "partitions_touched": touched}


def term_probe_partitions(index_dir: str, terms: list[str]) -> list[str]:
    """The bucket partition directories a lookup would read — exposed
    so tests can assert the pruned read touches nothing else. Vacant
    buckets (no directory written) are dropped."""
    import os

    n = int(_term_meta(index_dir)["n_buckets"])
    buckets = sorted({stable_hash64(t) & (n - 1) for t in terms})
    dirs = [os.path.join(index_dir, f"bucket={b}") for b in buckets]
    return [d for d in dirs if os.path.isdir(d)]


def lookup_postings(index_dir: str, terms: list[str]) -> pa.Table:
    """(term, df, postings) for the requested terms, reading ONLY their
    bucket partitions (I/O pruning, not just compute pruning). Terms
    absent from the corpus (or pruned by the build's ``min_df``) simply
    have no row."""
    import glob
    import os

    import ray.data as rd

    paths = term_probe_partitions(index_dir, terms)
    files = [
        f
        for d in paths
        for f in sorted(glob.glob(os.path.join(d, "*.parquet")))
    ]
    if not files:
        return pa.table(
            {
                "term": pa.array([], pa.string()),
                "df": pa.array([], pa.int64()),
                "postings": pa.array([], pa.list_(pa.int64())),
            }
        )
    want = pa.array(sorted(set(terms)), pa.string())
    out = rd.read_parquet(files, columns=["term", "df", "postings"]).map_batches(
        lambda b: b.filter(pc.is_in(b.column("term"), value_set=want)),
        batch_format="pyarrow",
    )
    tbl = pa.Table.from_pylist(out.take_all())
    if tbl.num_rows == 0:
        return pa.table(
            {
                "term": pa.array([], pa.string()),
                "df": pa.array([], pa.int64()),
                "postings": pa.array([], pa.list_(pa.int64())),
            }
        )
    # a refreshed index (refresh_term_index) holds one row per term PER
    # GENERATION; merge them here — df sums, postings concatenate
    # sorted (requested-terms-sized work, never corpus-sized)
    merged: dict[str, tuple[int, list[int]]] = {}
    for r in tbl.to_pylist():
        df0, post0 = merged.get(r["term"], (0, []))
        merged[r["term"]] = (df0 + int(r["df"]), post0 + list(r["postings"]))
    terms_out = sorted(merged)
    return pa.table(
        {
            "term": pa.array(terms_out, pa.string()),
            "df": pa.array([merged[t][0] for t in terms_out], pa.int64()),
            "postings": pa.array(
                [sorted(merged[t][1]) for t in terms_out], pa.list_(pa.int64())
            ),
        }
    )


def term_df(
    docs,
    text_col: str = "text",
    id_col: str = "doc_id",
    min_df: int = 1,
):
    """documents -> (term, df) exact document frequencies.

    Same deduped-pair combiner as :func:`inverted_index`, but the
    shuffle carries only (term, partial_df) — block-local group_by
    counts distinct docs per term first, so the exchange volume is
    vocabulary-sized per block, independent of corpus length.
    """

    def partial(batch: pa.Table) -> pa.Table:
        pairs = _term_doc_pairs(batch, text_col, id_col)
        agg = pairs.group_by("term").aggregate([("doc_id", "count")])
        return pa.table(
            {
                "term": agg.column("term"),
                "pdf": agg.column("doc_id_count"),
            }
        )

    def reduce_block(block: pa.Table) -> pa.Table:
        agg = block.group_by("term").aggregate([("pdf", "sum")])
        tbl = pa.table(
            {
                "term": agg.column("term"),
                "df": pc.cast(agg.column("pdf_sum"), pa.int64()),
            }
        )
        if min_df > 1:
            tbl = tbl.filter(pc.greater_equal(tbl.column("df"), min_df))
        return tbl

    return sorted_reduce(
        docs.map_batches(partial, batch_format="pyarrow"), "term", reduce_block
    )


def doc_top_terms(
    docs,
    k: int = 5,
    text_col: str = "text",
    id_col: str = "doc_id",
    min_df: int = 1,
    vocab_cap: int = 5_000_000,
    spill_dir: str | None = None,
):
    """documents -> (doc_id, term, tf, df, rank): each document's top-k
    most distinctive terms, ranked by the integer-exact tf-idf key
    (tf desc, df asc, term asc) with rank 1..k.

    Terms with df < ``min_df`` are excluded from ranking (and from the
    broadcast — the lever that bounds the df map at huge vocabularies).
    The driver-side df collection is hard-capped (``vocab_cap``, the
    ``state/collect.py`` loud-failure contract): a vocabulary past the
    cap raises ``EdgeCapExceeded`` telling the user to raise ``min_df``
    instead of silently OOMing the driver.
    """
    from ..state.collect import iter_capped_batches

    # the operator consumes ``docs`` twice (df pass + score pass); a
    # DERIVED input with expensive upstream compute should be spilled
    # to parquet once — the minhash_clusters(spill_dir=) pattern
    if spill_dir is not None:
        from .dedup_docs import _spill_input

        docs = _spill_input(docs, spill_dir, [id_col, text_col])

    # 1. exact df table, collected small (vocab-sized after min_df) and
    #    broadcast once — every scoring task reads it via cached_get
    df_tbl = term_df(docs, text_col=text_col, id_col=id_col, min_df=min_df)
    df_map: dict[str, int] = {}
    for b in iter_capped_batches(
        df_tbl,
        cap=vocab_cap,
        context=f"doc_top_terms df map (raise min_df, currently {min_df})",
    ):
        df_map.update(
            zip(b.column("term").to_pylist(), b.column("df").to_pylist())
        )
    df_ref = ray.put(df_map)

    def score(batch: pa.Table) -> pa.Table:
        from ..state.worker_cache import cached_get

        dfm = cached_get(df_ref, "doc_top_terms_df")
        flat = _flat_term_doc(batch, text_col, id_col)
        tf = flat.group_by(["doc_id", "term"]).aggregate([("term", "count")])
        d = tf.column("doc_id").to_numpy(zero_copy_only=False)
        f = tf.column("term_count").to_numpy(zero_copy_only=False)
        # df lookup once per DISTINCT term (dict indices fan it back out)
        enc = pc.dictionary_encode(tf.column("term"))
        enc = enc.combine_chunks() if isinstance(enc, pa.ChunkedArray) else enc
        uniq = enc.dictionary.to_pylist()
        df_by_uniq = np.asarray([dfm.get(x, 0) for x in uniq], dtype=np.int64)
        idx = enc.indices.to_numpy(zero_copy_only=False)
        df_arr = df_by_uniq[idx]
        t = np.asarray(uniq, dtype=object)[idx]
        keep = df_arr >= 1  # min_df pruning already happened in dfm
        d, t, f, df_arr = d[keep], t[keep], f[keep], df_arr[keep]
        # lexsort: last key is primary -> (doc asc, tf desc, df asc, term asc)
        order = np.lexsort((t, df_arr, -f, d))
        d, t, f, df_arr = d[order], t[order], f[order], df_arr[order]
        # rank within doc, take first k (d is sorted: run-boundary scan)
        if len(d):
            new_doc = np.empty(len(d), dtype=bool)
            new_doc[0] = True
            new_doc[1:] = d[1:] != d[:-1]
            run_starts = np.flatnonzero(new_doc)
            rank = np.arange(len(d)) - np.repeat(run_starts, np.diff(
                np.append(run_starts, len(d))
            )) + 1
        else:
            rank = np.empty(0, dtype=np.int64)
        keep = rank <= k
        return pa.table(
            {
                "doc_id": pa.array(d[keep], pa.int64()),
                "term": pa.array(list(t[keep]), pa.string()),
                "tf": pa.array(f[keep], pa.int64()),
                "df": pa.array(df_arr[keep], pa.int64()),
                "rank": pa.array(rank[keep], pa.int64()),
            }
        )

    return docs.map_batches(score, batch_format="pyarrow")
