"""CLI entry point: ``python -m jamie_ray <command>``.

The reference is driven entirely by per-script CLI flags
(/root/reference/clinical_joint.py:113-227, data_converter.py:111-155);
this module is the equivalent single front door, and the unit you point
``ray job submit`` at on a cluster:

    ray job submit --working-dir . -- python -m jamie_ray graph \
        --pages s3://bucket/pages/ --out s3://bucket/graph/ --shards 256

Commands
--------
- ``extract``      pages parquet -> (url, text) parquet
- ``chunks``       pages parquet -> chunks parquet
- ``triples``      pages parquet -> raw triples parquet (joint|pipeline)
- ``graph``        full resumable materialize (link + dedup + sorted write)
- ``eval``         triple P/R/F1 of pred parquet vs gold parquet
- ``synth``        write a deterministic synthetic pages corpus
- ``convert``      format converter (the data_converter.py analogue):
                   any reader (tagged parquet / gold-XML parquet /
                   multihead-CoNLL parquet / i2b2 directory) to any
                   writer (tagged / conll / xml / brat / pmhs / triples)
- ``index``        documents parquet -> materialized term index
                   (bucket-partitioned postings, probe-pruned reads)
- ``lookup``       term lookup against a materialized index
- ``topterms``     documents parquet -> per-doc top-k distinctive terms
- ``ann-build``    embeddings parquet -> materialized ANN index
- ``ann-query``    top-k cosine probe of a materialized ANN index
- ``dedup-paras``  documents parquet -> keep-first paragraph dedup
- ``decontam``     flag corpus docs sharing word n-grams with a
                   benchmark parquet (broadcast set, no shuffle)
- ``clean``        composite cleaning: quality gate + exact dedup +
                   paragraph dedup + near-dup collapse
- ``bpe``          documents parquet -> trained BPE merge table

Every command guards ``ray.init`` with ``is_initialized`` so it works
both standalone and under a driver that already initialised Ray.
"""

from __future__ import annotations

import argparse
import json
import sys


def _ensure_ray() -> None:
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")


def _pq_num_rows(path: str) -> int:
    """Row count of a parquet file or directory from FILE METADATA only
    — never reads data pages, so counting a just-written corpus-scale
    output stays O(files) on the driver."""
    import os

    import pyarrow.parquet as _pq

    if os.path.isfile(path):
        return _pq.ParquetFile(path).metadata.num_rows
    total = 0
    for root, _dirs, files in os.walk(path):
        for f in files:
            if f.endswith(".parquet"):
                total += _pq.ParquetFile(os.path.join(root, f)).metadata.num_rows
    return total


def cmd_extract(args) -> None:
    _ensure_ray()
    from .pipelines import kg

    ds = kg.extracted_pages(
        kg.read_pages(args.pages), lang=args.lang, decode_errors=args.decode_errors
    )
    ds.write_parquet(args.out)
    print(json.dumps({"command": "extract", "out": args.out}))


def cmd_chunks(args) -> None:
    _ensure_ray()
    from .pipelines import kg

    ds = kg.chunk_pages(
        kg.extracted_pages(
            kg.read_pages(args.pages), lang=args.lang, decode_errors=args.decode_errors
        ),
        analyzer=args.analyzer,
    )
    ds.write_parquet(args.out)
    print(json.dumps({"command": "chunks", "out": args.out}))


def cmd_triples(args) -> None:
    _ensure_ray()
    from .pipelines import kg

    ds = kg.build_triples(
        args.pages,
        lang=args.lang,
        mode=args.mode,
        analyzer=args.analyzer,
        decode_errors=args.decode_errors,
    )
    ds.write_parquet(args.out)
    print(json.dumps({"command": "triples", "mode": args.mode, "out": args.out}))


def cmd_graph(args) -> None:
    _ensure_ray()
    from .pipelines import kg

    summary = kg.materialize_graph(
        args.pages,
        args.out,
        lang=args.lang,
        n_shards=args.shards,
        analyzer=args.analyzer,
        decode_errors=args.decode_errors,
    )
    print(json.dumps({"command": "graph", **summary}))


def cmd_conlleval(args) -> None:
    import sys

    from .evalx import conlleval_report

    if args.file == "-":
        text = sys.stdin.read()
    else:
        with open(args.file, encoding="utf-8") as f:
            text = f.read()
    print(conlleval_report(text))


def cmd_eval(args) -> None:
    _ensure_ray()
    import ray.data

    from .evalx import evaluate_mod_task, evaluate_triples

    gold = ray.data.read_parquet(args.gold)
    pred = ray.data.read_parquet(args.pred)
    if args.attrib:
        # attribute-task mode (reference clinical_cert.py:41): inputs
        # are ENTITY tables (mention/ner_tag/mod), scored on the chosen
        # family's modality attribute
        res = evaluate_mod_task(gold, pred, args.attrib, f1_mode=args.f1_mode)
    else:
        res = evaluate_triples(gold, pred, f1_mode=args.f1_mode)
    p, r, f1 = res["micro" if args.f1_mode == "micro" else "macro"]
    print(
        json.dumps(
            {
                "command": "eval",
                "p": round(p, 6),
                "r": round(r, 6),
                "f1": round(f1, 6),
                "counts": res["counts"],
                "per_class": {
                    k: [round(v[0], 6), round(v[1], 6), round(v[2], 6)]
                    for k, v in res["per_class"].items()
                },
            }
        )
    )


def cmd_convert(args) -> None:
    """Any supported annotation format -> any output format
    (/root/reference/data_converter.py:111-155 front-door parity,
    composed from the engine's reader/writer batch kernels)."""
    _ensure_ray()
    import ray.data

    if args.from_fmt == "i2b2":
        from .stages.i2b2 import read_i2b2

        tagged = read_i2b2(args.inp, args.collection)
        # drop the error side channel before the format writers
        tagged = tagged.map_batches(
            lambda b: b.drop_columns(["anno_errors"]), batch_format="pyarrow"
        )
    elif args.from_fmt == "goldxml":
        from .stages.gold_xml import gold_xml_to_tagged_batch

        tagged = ray.data.read_parquet(args.inp).map_batches(
            gold_xml_to_tagged_batch, batch_format="pyarrow"
        )
    elif args.from_fmt == "conll":
        from .stages.conll import conll_text_to_tagged_batch

        _merged = bool(getattr(args, "merged", False))
        tagged = ray.data.read_parquet(args.inp).map_batches(
            lambda b, _m=_merged: conll_text_to_tagged_batch(b, merged=_m),
            batch_format="pyarrow",
        )
    elif args.from_fmt == "brat":
        from .stages.brat import brat_to_tagged_batch

        tagged = ray.data.read_parquet(args.inp).map_batches(
            brat_to_tagged_batch, batch_format="pyarrow"
        )
    elif args.from_fmt == "pmhs":
        from .stages.pmhs import pmhs_to_tagged_batch

        tagged = ray.data.read_parquet(args.inp).map_batches(
            pmhs_to_tagged_batch, batch_format="pyarrow"
        )
    else:  # tagged parquet
        tagged = ray.data.read_parquet(args.inp)

    if args.to_fmt == "tagged":
        out_ds = tagged
    elif args.to_fmt == "conll":
        from .stages.conll import tagged_to_conll_batch

        _merged = bool(getattr(args, "merged", False))
        out_ds = tagged.map_batches(
            lambda b, _m=_merged: tagged_to_conll_batch(b, merged=_m),
            batch_format="pyarrow",
        )
    elif args.to_fmt == "xml":
        from .stages.format_out import tagged_to_xml_batch

        out_ds = tagged.map_batches(tagged_to_xml_batch, batch_format="pyarrow")
    elif args.to_fmt == "brat":
        from .stages.format_out import tagged_to_brat_batch

        out_ds = tagged.map_batches(tagged_to_brat_batch, batch_format="pyarrow")
    elif args.to_fmt == "pmhs":
        from .stages.pmhs import tagged_to_pmhs_batch

        out_ds = tagged.map_batches(tagged_to_pmhs_batch, batch_format="pyarrow")
    else:  # triples
        from .stages.assemble import assemble_batch

        out_ds = tagged.map_batches(assemble_batch, batch_format="pyarrow")

    out_ds.write_parquet(args.out)
    print(
        json.dumps(
            {
                "command": "convert",
                "from": args.from_fmt,
                "to": args.to_fmt,
                "out": args.out,
            }
        )
    )


def cmd_index(args) -> None:
    _ensure_ray()
    import ray.data

    from .functions.index import build_term_index

    docs = ray.data.read_parquet(args.docs, columns=[args.id_col, args.text_col])
    if getattr(args, "refresh", False):
        from .functions.index import refresh_term_index

        res = refresh_term_index(args.out, docs, text_col=args.text_col)
        print(json.dumps({"command": "index", "out": args.out, **res}))
        return
    meta = build_term_index(
        docs,
        args.out,
        text_col=args.text_col,
        id_col=args.id_col,
        min_df=args.min_df,
        max_postings=args.max_postings,
    )
    print(json.dumps({"command": "index", "out": args.out, **meta}))


def cmd_lookup(args) -> None:
    _ensure_ray()
    from .functions.index import lookup_postings, term_probe_partitions

    terms = [t for t in args.terms.split(",") if t]
    tbl = lookup_postings(args.index, terms)
    print(
        json.dumps(
            {
                "command": "lookup",
                "n_partitions_read": len(term_probe_partitions(args.index, terms)),
                "rows": tbl.to_pylist(),
            }
        )
    )


def cmd_topterms(args) -> None:
    _ensure_ray()
    import ray.data

    from .functions.index import doc_top_terms

    docs = ray.data.read_parquet(args.docs, columns=[args.id_col, args.text_col])
    out = doc_top_terms(
        docs, k=args.k, text_col=args.text_col, id_col=args.id_col, min_df=args.min_df
    )
    out.write_parquet(args.out)
    print(json.dumps({"command": "topterms", "out": args.out, "k": args.k}))


def cmd_ann_build(args) -> None:
    _ensure_ray()
    import ray.data

    from .functions.similarity import build_ann_index

    import os

    emb = ray.data.read_parquet(args.embeddings, columns=[args.id_col, args.vec_col])
    if getattr(args, "refresh", False):
        from .functions.similarity import refresh_ann_index

        res = refresh_ann_index(args.out, emb)
        print(json.dumps({"command": "ann-build", "out": args.out, **res}))
        return
    meta = build_ann_index(
        emb,
        args.out,
        kind=args.kind,
        id_col=args.id_col,
        vec_col=args.vec_col,
        n_centroids=args.n_centroids,
    )
    # occupied partition dirs on disk — accurate for both index kinds
    n_partitions = sum(
        1
        for d in os.listdir(args.out)
        if os.path.isdir(os.path.join(args.out, d))
    )
    print(
        json.dumps(
            {
                "command": "ann-build",
                "out": args.out,
                "kind": meta["kind"],
                "n_partitions": n_partitions,
            }
        )
    )


def cmd_ann_query(args) -> None:
    _ensure_ray()
    from .functions.similarity import ann_probe_partitions, knn_indexed

    query = [float(x) for x in args.query.split(",")]
    # probe plan computed ONCE and shared with the query
    paths = ann_probe_partitions(
        args.index, query, n_probe=args.n_probe, multiprobe=args.multiprobe
    )
    tbl = knn_indexed(
        args.index, query, k=args.k, n_probe=args.n_probe,
        multiprobe=args.multiprobe, paths=paths,
    )
    print(
        json.dumps(
            {
                "command": "ann-query",
                "n_partitions_read": len(paths),
                "rows": tbl.to_pylist(),
            }
        )
    )


def cmd_dedup_paras(args) -> None:
    _ensure_ray()
    import pyarrow.parquet as _pq
    import ray.data

    from .functions.dedup_docs import paragraph_dedup

    docs = ray.data.read_parquet(args.docs, columns=[args.id_col, args.text_col])
    paragraph_dedup(
        docs, text_col=args.text_col, id_col=args.id_col
    ).write_parquet(args.out)
    # stats from the written output (one cheap re-read of two columns)
    import glob as _glob

    n_docs = n_dropped = 0
    for f in sorted(_glob.glob(f"{args.out}/*.parquet")):
        t = _pq.read_table(f, columns=["n_dropped"])
        n_docs += t.num_rows
        n_dropped += sum(t.column("n_dropped").to_pylist())
    print(
        json.dumps(
            {
                "command": "dedup-paras",
                "out": args.out,
                "n_docs": n_docs,
                "n_paras_dropped": n_dropped,
            }
        )
    )


def cmd_url_dedup(args) -> None:
    _ensure_ray()
    import pyarrow.parquet as _pq
    import ray.data

    from .functions.urlnorm import url_dedup

    docs = ray.data.read_parquet(args.docs, columns=[args.id_col, args.url_col])
    url_dedup(
        docs,
        url_col=args.url_col,
        id_col=args.id_col,
        strip_www=not args.keep_www,
    ).write_parquet(args.out)
    import glob as _glob

    n_urls = n_rows = 0
    for f in sorted(_glob.glob(f"{args.out}/*.parquet")):
        t = _pq.read_table(f, columns=["n_dups"])
        n_urls += t.num_rows
        n_rows += sum(t.column("n_dups").to_pylist())
    print(
        json.dumps(
            {
                "command": "url-dedup",
                "out": args.out,
                "n_canonical_urls": n_urls,
                "n_input_rows": n_rows,
                "n_dropped": n_rows - n_urls,
            }
        )
    )


def cmd_pii(args) -> None:
    _ensure_ray()
    import pyarrow.parquet as _pq
    import ray.data

    from .functions.pii import mask_pii

    docs = ray.data.read_parquet(args.docs, columns=[args.id_col, args.text_col])
    mask_pii(docs, text_col=args.text_col).write_parquet(args.out)
    import glob as _glob

    totals = {"n_docs": 0, "n_emails": 0, "n_ips": 0, "n_phones": 0}
    for f in sorted(_glob.glob(f"{args.out}/*.parquet")):
        t = _pq.read_table(f, columns=["n_emails", "n_ips", "n_phones"])
        totals["n_docs"] += t.num_rows
        for c in ("n_emails", "n_ips", "n_phones"):
            totals[c] += sum(t.column(c).to_pylist())
    print(json.dumps({"command": "pii", "out": args.out, **totals}))


def cmd_lineclean(args) -> None:
    _ensure_ray()
    import ray.data

    from .functions.text_analysis import c4_filter_batch, c4_line_clean

    docs = ray.data.read_parquet(args.docs, columns=[args.id_col, args.text_col])
    rules = dict(
        min_words_per_line=args.min_words,
        min_kept_lines=args.min_lines,
        require_terminal_punct=not args.no_terminal_punct,
    )
    if args.annotate:
        out = c4_line_clean(docs, args.text_col, **rules)
    else:
        out = docs.map_batches(
            lambda b: c4_filter_batch(b, args.text_col, **rules),
            batch_format="pyarrow",
        )
    out.write_parquet(args.out)
    print(
        json.dumps(
            {
                "command": "lineclean",
                "out": args.out,
                "n_docs": _pq_num_rows(args.out),
                "annotate": bool(args.annotate),
            }
        )
    )


def cmd_passages(args) -> None:
    """Documents -> sliding-window passages (RAG / retrieval-corpus
    chunking): fixed token windows with overlap, one output row per
    passage. Streaming flat transform — no shuffle, no state."""
    _ensure_ray()
    import ray.data

    from .functions.text_analysis import passage_split

    docs = ray.data.read_parquet(args.docs, columns=[args.id_col, args.text_col])
    out = passage_split(
        docs,
        args.text_col,
        args.id_col,
        window=args.window,
        stride=args.stride,
    )
    out.write_parquet(args.out)
    print(
        json.dumps(
            {
                "command": "passages",
                "out": args.out,
                "n_passages": _pq_num_rows(args.out),
                "window": args.window,
                "stride": args.stride,
            }
        )
    )


def cmd_langid(args) -> None:
    _ensure_ray()
    import ray.data

    from .functions.classifiers import broadcast_model_bytes, lang_id_stage

    docs = ray.data.read_parquet(args.docs, columns=[args.id_col, args.text_col])
    model = broadcast_model_bytes(args.model) if args.model else None
    out = lang_id_stage(
        docs, backend=args.backend, model=model, text_col=args.text_col
    )
    if args.keep:
        import pyarrow.compute as _pc

        out = out.map_batches(
            lambda b: b.filter(_pc.equal(b.column("lang_pred"), args.keep)),
            batch_format="pyarrow",
        )
    out.write_parquet(args.out)
    import glob as _glob

    import pyarrow.parquet as _pq

    counts: dict[str, int] = {}
    n = 0
    for f in sorted(_glob.glob(f"{args.out}/*.parquet")):
        t = _pq.read_table(f, columns=["lang_pred"])
        n += t.num_rows
        for v in t.column("lang_pred").to_pylist():
            counts[v] = counts.get(v, 0) + 1
    print(
        json.dumps(
            {
                "command": "langid",
                "out": args.out,
                "backend": args.backend,
                "n_docs": n,
                "by_lang": dict(sorted(counts.items())),
            }
        )
    )


def cmd_dedup_inc(args) -> None:
    _ensure_ray()
    import pyarrow.parquet as _pq
    import ray.data

    from .functions.dedup_docs import incremental_dedup

    new = ray.data.read_parquet(args.docs, columns=[args.id_col, args.text_col])
    # the algorithm never uses old-side ids: read only the text column
    old = ray.data.read_parquet(args.prev, columns=[args.text_col])
    incremental_dedup(
        new,
        old,
        text_col=args.text_col,
        id_col=args.id_col,
        flag_path=args.flag_path,
        bloom_bits=args.bloom_bits,
    ).write_parquet(args.out)
    import glob as _glob

    n_docs = n_prev = 0
    for f in sorted(_glob.glob(f"{args.out}/*.parquet")):
        t = _pq.read_table(f, columns=["in_previous"])
        n_docs += t.num_rows
        n_prev += sum(t.column("in_previous").to_pylist())
    print(
        json.dumps(
            {
                "command": "dedup-inc",
                "out": args.out,
                "n_docs": n_docs,
                "n_in_previous": n_prev,
            }
        )
    )


def cmd_dedup_spans(args) -> None:
    _ensure_ray()
    import pyarrow.parquet as _pq
    import ray.data

    from .functions.dedup_docs import span_dedup

    docs = ray.data.read_parquet(args.docs, columns=[args.id_col, args.text_col])
    span_dedup(
        docs, text_col=args.text_col, id_col=args.id_col, min_len=args.min_len
    ).write_parquet(args.out)
    import glob as _glob

    n_docs = n_cut = 0
    for f in sorted(_glob.glob(f"{args.out}/*.parquet")):
        t = _pq.read_table(f, columns=["n_cut_tokens"])
        n_docs += t.num_rows
        n_cut += sum(t.column("n_cut_tokens").to_pylist())
    print(
        json.dumps(
            {
                "command": "dedup-spans",
                "out": args.out,
                "min_len": args.min_len,
                "n_docs": n_docs,
                "n_cut_tokens": n_cut,
            }
        )
    )


def cmd_export(args) -> None:
    """Parquet corpus -> JSONL or CSV shards (the inverse of
    ``ingest``): the interchange hand-off to training consumers that
    read line-delimited text. Streams shard-by-shard via the Dataset
    writers — never materializes the corpus."""
    _ensure_ray()
    import glob as _glob
    import os

    import ray.data

    cols = [c for c in (args.columns or "").split(",") if c] or None
    ds = ray.data.read_parquet(args.inp, columns=cols)
    if args.format == "jsonl":
        ds.write_json(args.out)
    elif args.format == "csv":
        ds.write_csv(args.out)
    else:
        raise SystemExit(f"export: unknown format {args.format!r}")
    n_files = len(
        [
            f
            for f in _glob.glob(os.path.join(args.out, "*"))
            if os.path.isfile(f)
        ]
    )
    print(
        json.dumps(
            {
                "command": "export",
                "out": args.out,
                "format": args.format,
                "n_files": n_files,
            }
        )
    )


def cmd_ingest(args) -> None:
    """JSONL / CSV / parquet corpus -> normalized documents parquet
    (`doc_id`, `text`, passthrough extras) — the webtext interchange
    front door; every downstream operator consumes the result."""
    _ensure_ray()
    import pyarrow as pa
    import ray.data

    fmt = args.format
    if fmt == "auto":
        low = args.inp.lower()
        fmt = (
            "jsonl"
            if low.endswith((".jsonl", ".json", ".ndjson"))
            else "csv"
            if low.endswith((".csv", ".tsv"))
            else "parquet"
        )
    if fmt == "jsonl":
        ds = ray.data.read_json(args.inp)
    elif fmt == "csv":
        ds = ray.data.read_csv(args.inp)
    elif fmt == "parquet":
        ds = ray.data.read_parquet(args.inp)
    else:
        raise SystemExit(f"ingest: unknown format {fmt!r}")

    id_col, text_col = args.id_col, args.text_col

    def normalize(b: pa.Table) -> pa.Table:
        for col in (id_col, text_col):
            if col not in b.column_names:
                raise ValueError(
                    f"ingest: column {col!r} missing from input "
                    f"(have {b.column_names})"
                )
        out = {"doc_id": b.column(id_col), "text": b.column(text_col)}
        for c in b.column_names:
            # skip the source columns AND any input column whose name
            # collides with the normalized targets (an extra literally
            # named doc_id/text would silently clobber them)
            if c not in (id_col, text_col, "doc_id", "text"):
                out[c] = b.column(c)
        return pa.table(out)

    ds.map_batches(normalize, batch_format="pyarrow").write_parquet(args.out)
    n = _pq_num_rows(args.out)
    print(json.dumps({"command": "ingest", "out": args.out, "format": fmt, "n_docs": n}))


def cmd_pack(args) -> None:
    _ensure_ray()
    import ray.data

    from .functions.packing import pack_sequences

    docs = ray.data.read_parquet(args.docs, columns=[args.id_col, args.text_col])
    assignments, n_seq = pack_sequences(
        docs,
        args.max_len,
        spill_dir=args.spill,
        id_col=args.id_col,
        text_col=args.text_col,
        drop_remainder=args.drop_remainder,
    )
    assignments.write_parquet(args.out)
    print(
        json.dumps(
            {
                "command": "pack",
                "out": args.out,
                "max_len": args.max_len,
                "n_sequences": n_seq,
            }
        )
    )


def cmd_join(args) -> None:
    _ensure_ray()
    import ray.data

    from .functions.join import hash_join

    left = ray.data.read_parquet(
        args.left, columns=args.left_cols.split(",") if args.left_cols else None
    )
    right = ray.data.read_parquet(
        args.right, columns=args.right_cols.split(",") if args.right_cols else None
    )
    joined = hash_join(
        left,
        right,
        args.on.split(","),
        right_on=args.right_on.split(",") if args.right_on else None,
        how=args.how,
        suffix=args.suffix,
        bloom_prune=args.bloom_prune,
        path=args.path,
    )
    joined.write_parquet(args.out)
    n = _pq_num_rows(args.out)
    print(
        json.dumps(
            {
                "command": "join",
                "out": args.out,
                "how": args.how,
                "n_rows": n,
            }
        )
    )


def cmd_compact(args) -> None:
    """Rewrite a parquet directory at a target file size — the
    operational fix for the tiny-file (or giant-file) problem that
    sharded/resumable runs accumulate at scale. Row-count preserving;
    column order preserved; block count derived from on-disk bytes."""
    _ensure_ray()
    import math
    import os

    import pyarrow.parquet as _pq
    import ray.data

    ds = ray.data.read_parquet(args.inp)
    total_bytes = 0
    for root, _dirs, files in os.walk(args.inp):
        for f in files:
            if f.endswith(".parquet"):
                total_bytes += os.path.getsize(os.path.join(root, f))
    if total_bytes == 0 and os.path.isfile(args.inp):
        total_bytes = os.path.getsize(args.inp)
    n_blocks = max(1, math.ceil(total_bytes / (args.target_mb * 1024 * 1024)))
    ds.repartition(n_blocks).write_parquet(args.out)
    n = _pq_num_rows(args.out)
    print(
        json.dumps(
            {
                "command": "compact",
                "out": args.out,
                "input_bytes": total_bytes,
                "n_files_target": n_blocks,
                "n_rows": n,
            }
        )
    )


def cmd_merge_graphs(args) -> None:
    """Merge materialized graph outputs (the monthly-snapshot KG
    update): union the graph parquet dirs, re-run the provenance
    dedup — its combiner SUMS pre-existing ``n_sources`` and keeps the
    lexicographic-min representative, so counts merge exactly and the
    result is layout-independent — and finish with the flagship's
    sorted write (``pipelines/kg.py`` finalize order)."""
    _ensure_ray()
    import ray.data

    from .stages.dedup import dedup_triples

    import os

    def graph_dir(g: str) -> str:
        # materialize_graph writes the sorted triples under <out>/graph
        # beside manifest.jsonl; accept either the run dir or the
        # parquet dir itself
        sub = os.path.join(g, "graph")
        return sub if os.path.isdir(sub) else g

    parts = [
        ray.data.read_parquet(graph_dir(g), file_extensions=["parquet"])
        for g in args.graphs
    ]
    ds = parts[0]
    for p in parts[1:]:
        ds = ds.union(p)
    merged = dedup_triples(ds).sort(["subj_id", "pred", "obj_id"])
    merged.write_parquet(args.out)
    import pyarrow.parquet as _pq

    t = _pq.read_table(args.out, columns=["n_sources"])
    print(
        json.dumps(
            {
                "command": "merge-graphs",
                "out": args.out,
                "n_graphs": len(args.graphs),
                "n_triples": t.num_rows,
                "n_sources_total": sum(t.column("n_sources").to_pylist()),
            }
        )
    )


def cmd_profile(args) -> None:
    _ensure_ray()
    import ray.data

    from .functions.profile import profile_columns

    ds = ray.data.read_parquet(
        args.inp, columns=args.cols.split(",") if args.cols else None
    )
    t = profile_columns(
        ds,
        cols=args.cols.split(",") if args.cols else None,
        kmv_k=args.kmv_k,
    )
    print(json.dumps({"command": "profile", "columns": t.to_pylist()}))


def cmd_cluster(args) -> None:
    """Embeddings -> deterministic k-means bucket per row
    (``centroid_id``); the user-facing coarse quantizer."""
    _ensure_ray()
    import ray.data

    from .functions.similarity import cluster_assign

    emb = ray.data.read_parquet(
        args.embeddings, columns=[args.id_col, args.vec_col]
    )
    cluster_assign(
        emb,
        n_centroids=args.n_centroids,
        id_col=args.id_col,
        vec_col=args.vec_col,
    ).write_parquet(args.out)
    print(
        json.dumps(
            {
                "command": "cluster",
                "out": args.out,
                "n_rows": _pq_num_rows(args.out),
                "n_centroids": args.n_centroids,
            }
        )
    )


def cmd_mix(args) -> None:
    """Weighted corpus mixture (Pile/LLaMA-style epoch weights) of
    several parquet corpora -> one tagged output corpus."""
    _ensure_ray()
    import ray.data

    from .functions.sampling import mix_corpora

    sources = []
    for spec in args.sources:
        try:
            name, rest = spec.split("=", 1)
            path, w = rest.rsplit(":", 1)
            weight = float(w)
        except ValueError:
            raise SystemExit(
                f"mix: bad --in {spec!r} (want name=path:weight)"
            )
        sources.append((name, ray.data.read_parquet(path), weight))
    mix_corpora(sources, id_col=args.id_col, salt=args.salt).write_parquet(
        args.out
    )
    print(
        json.dumps(
            {
                "command": "mix",
                "out": args.out,
                "n_rows": _pq_num_rows(args.out),
                "n_sources": len(sources),
            }
        )
    )


def cmd_topk(args) -> None:
    """Parquet -> deterministic top-k rows per key (value order +
    id tiebreak; block-local combiner before one coarse-bucket
    shuffle)."""
    _ensure_ray()
    import ray.data

    from .functions.skew import grouped_topk

    ds = ray.data.read_parquet(
        args.inp, columns=[args.id_col, args.key_col, args.value_col]
    )
    grouped_topk(
        ds,
        args.key_col,
        args.value_col,
        args.k,
        id_col=args.id_col,
        descending=not args.ascending,
    ).write_parquet(args.out)
    print(
        json.dumps(
            {
                "command": "topk",
                "out": args.out,
                "n_rows": _pq_num_rows(args.out),
                "k": args.k,
            }
        )
    )


def cmd_report(args) -> None:
    """Documents parquet -> one-page JSON data card (column profile +
    token/quality/language aggregates + approx token quantiles)."""
    _ensure_ray()
    import ray.data

    from .functions.profile import corpus_report

    ds = ray.data.read_parquet(args.docs)
    rep = corpus_report(
        ds,
        text_col=args.text_col,
        id_col=args.id_col,
        url_col=args.url_col,
        domain_phi=args.domain_phi,
    )
    out = {"command": "report", **rep}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(out, f, indent=2)
        print(json.dumps({"command": "report", "out": args.out,
                          "n_docs": rep["n_docs"]}))
    else:
        print(json.dumps(out))


def cmd_sample(args) -> None:
    _ensure_ray()
    import ray.data

    from .functions.sampling import hash_sample

    docs = ray.data.read_parquet(args.docs)
    kept = hash_sample(docs, args.rate, id_col=args.id_col, salt=args.salt)
    kept.write_parquet(args.out)
    n = _pq_num_rows(args.out)
    print(
        json.dumps(
            {"command": "sample", "out": args.out, "rate": args.rate, "n_kept": n}
        )
    )


def cmd_shuffle(args) -> None:
    _ensure_ray()
    import ray.data

    from .functions.sampling import deterministic_shuffle

    docs = ray.data.read_parquet(args.docs)
    deterministic_shuffle(docs, id_col=args.id_col, salt=args.salt).write_parquet(
        args.out
    )
    n = _pq_num_rows(args.out)
    print(
        json.dumps(
            {"command": "shuffle", "out": args.out, "salt": args.salt, "n_rows": n}
        )
    )


def cmd_group_sample(args) -> None:
    _ensure_ray()
    import pyarrow.parquet as _pq
    import ray.data

    from .functions.sampling import group_sample

    docs = ray.data.read_parquet(args.docs)
    group_sample(
        docs, args.k, args.key_col, id_col=args.id_col, salt=args.salt
    ).write_parquet(args.out)
    n = _pq_num_rows(args.out)
    print(
        json.dumps(
            {"command": "group-sample", "out": args.out, "k": args.k, "n_kept": n}
        )
    )


def cmd_lm(args) -> None:
    _ensure_ray()
    import ray.data

    from .functions.lm import score_perplexity, train_ngram_lm

    docs = ray.data.read_parquet(args.docs, columns=[args.id_col, args.text_col])
    train = (
        ray.data.read_parquet(args.train, columns=[args.id_col, args.text_col])
        if args.train
        else docs
    )
    lm = train_ngram_lm(train, text_col=args.text_col, min_freq=args.min_freq)
    if args.buckets:
        from .functions.lm import ppl_buckets

        ppl_buckets(docs, lm, text_col=args.text_col).write_parquet(args.out)
    else:
        score_perplexity(docs, lm, text_col=args.text_col).write_parquet(args.out)
    print(
        json.dumps(
            {
                "command": "lm",
                "out": args.out,
                "vocab_unigrams": len(lm.uni),
                "vocab_bigrams": len(lm.bi),
                "total_tokens": lm.total,
                "buckets": bool(args.buckets),
            }
        )
    )


def cmd_decontam(args) -> None:
    _ensure_ray()
    import pyarrow.parquet as _pq
    import ray.data

    from .functions.decontam import benchmark_ngram_set, decontaminate

    bench = ray.data.read_parquet(args.bench, columns=[args.text_col])
    grams = benchmark_ngram_set(bench, n=args.n, text_col=args.text_col)
    docs = ray.data.read_parquet(args.docs, columns=[args.id_col, args.text_col])
    decontaminate(
        docs, grams, n=args.n, text_col=args.text_col, hashed=args.hashed
    ).write_parquet(args.out)
    import glob as _glob

    n_docs = n_flagged = 0
    for f in sorted(_glob.glob(f"{args.out}/*.parquet")):
        t = _pq.read_table(f, columns=["contaminated"])
        n_docs += t.num_rows
        n_flagged += sum(t.column("contaminated").to_pylist())
    print(
        json.dumps(
            {
                "command": "decontam",
                "out": args.out,
                "n_bench_grams": len(grams),
                "n_docs": n_docs,
                "n_contaminated": n_flagged,
            }
        )
    )


def _parse_compress_band(spec: str | None) -> tuple[int, int] | None:
    """LO,HI -> (int, int), failing loudly BEFORE any pipeline work
    (a malformed band must not surface as a RayTaskError after the
    earlier stages already ran)."""
    if spec is None:
        return None
    parts = spec.split(",")
    try:
        lo, hi = (int(x) for x in parts)
    except ValueError:
        raise SystemExit(
            f"clean: bad --compress-band {spec!r} (want LO,HI integers, "
            f"micro units — e.g. 100000,750000)"
        )
    if lo > hi:
        raise SystemExit(f"clean: --compress-band lo > hi: {spec!r}")
    return (lo, hi)


def cmd_clean(args) -> None:
    _ensure_ray()
    import ray.data

    from .pipelines.clean import clean_corpus

    cols = [args.id_col, args.text_col] + ([args.url_col] if args.url_col else [])
    docs = ray.data.read_parquet(args.docs, columns=cols)
    lm = None
    if args.lm_train:
        from .functions.lm import train_ngram_lm

        lm = train_ngram_lm(
            ray.data.read_parquet(args.lm_train, columns=[args.text_col]),
            text_col=args.text_col,
            min_freq=2,
        )
    decontam_grams = None
    if args.decontam_bench:
        from .functions.decontam import benchmark_ngram_set

        decontam_grams = benchmark_ngram_set(
            ray.data.read_parquet(args.decontam_bench, columns=[args.text_col]),
            n=args.decontam_n,
            text_col=args.text_col,
        )
    cleaned, stats = clean_corpus(
        docs,
        args.spill,
        text_col=args.text_col,
        id_col=args.id_col,
        min_tokens=args.min_tokens,
        near_dup_threshold=args.near_dup_threshold,
        url_col=args.url_col,
        pii=args.pii,
        span_min_len=args.span_min_len,
        lm=lm,
        max_ppl=args.max_ppl,
        decontam_benchmark=decontam_grams,
        decontam_n=args.decontam_n,
        compress_band=_parse_compress_band(args.compress_band),
        keep_lang=args.keep_lang,
        lang_backend=args.lang_backend,
        lang_model=(
            __import__(
                "jamie_ray.functions.classifiers", fromlist=["broadcast_model_bytes"]
            ).broadcast_model_bytes(args.lang_model)
            if args.lang_model
            else None
        ),
        keep_quality=args.keep_quality,
        quality_model=(
            __import__(
                "jamie_ray.functions.classifiers", fromlist=["broadcast_model_bytes"]
            ).broadcast_model_bytes(args.quality_model)
            if args.quality_model
            else None
        ),
    )
    cleaned.write_parquet(args.out)
    print(json.dumps({"command": "clean", "out": args.out, **stats}))


def cmd_bpe(args) -> None:
    _ensure_ray()
    import pyarrow.parquet as _pq
    import ray.data

    from .functions.bpe import train_bpe

    docs = ray.data.read_parquet(args.docs, columns=[args.id_col, args.text_col])
    merges = train_bpe(
        docs,
        text_col=args.text_col,
        n_merges=args.merges,
        min_freq=args.min_freq,
        word_min_freq=args.word_min_freq,
    )
    _pq.write_table(merges, args.out)
    out = {"command": "bpe", "out": args.out, "n_merges": merges.num_rows}
    if args.word_min_freq:
        out["pruned_word_mass"] = int(
            merges.schema.metadata.get(b"pruned_word_mass", b"0")
        )
    if args.apply_out:
        from .functions.bpe import segment_corpus

        segment_corpus(docs, merges, text_col=args.text_col).write_parquet(
            args.apply_out
        )
        out["apply_out"] = args.apply_out
    print(json.dumps(out))


def cmd_train(args) -> None:
    _ensure_ray()
    import ray.data

    from .stages.train_joint import train_joint

    tagged = (
        args.conll
        if args.conll
        else ray.data.read_parquet(args.tagged)
    )
    history = train_joint(
        tagged,
        args.out,
        epochs=args.epochs,
        batch_size=args.batch_size,
        num_workers=args.workers,
        down_neg=args.down_neg,
        lr=args.lr,
        dev_ratio=args.dev_ratio,
        seed=args.seed,
        analyzer=args.analyzer,
    )
    print(
        json.dumps(
            {
                "command": "train",
                "out": args.out,
                "n_train": history["n_train"],
                "n_dev": history["n_dev"],
                "final_loss": history["loss"][-1],
                "best": history["best"],
            }
        )
    )


def cmd_synth(args) -> None:
    from .fixtures import write_corpus

    out = write_corpus(args.out, args.pages_n, overwrite=args.overwrite)
    print(json.dumps({"command": "synth", "out": out, "n_pages": args.pages_n}))


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(prog="jamie_ray")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--pages", required=True, help="pages parquet path/dir")
        p.add_argument("--out", required=True)
        p.add_argument("--lang", default="ja")
        p.add_argument(
            "--analyzer", default="mecab",
            help="registered morphological analyzer (juman|mecab|...)",
        )
        p.add_argument(
            "--decode-errors", dest="decode_errors", default="strict",
            choices=("strict", "replace"),
            help="utf-8 policy: strict quarantines mojibake pages, "
            "replace degrades them to U+FFFD",
        )

    p = sub.add_parser("extract", help="pages -> normalized text")
    common(p)
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("chunks", help="pages -> trunk chunks")
    common(p)
    p.set_defaults(fn=cmd_chunks)

    p = sub.add_parser("triples", help="pages -> raw triples")
    common(p)
    p.add_argument("--mode", choices=("joint", "pipeline"), default="joint")
    p.set_defaults(fn=cmd_triples)

    p = sub.add_parser("graph", help="full resumable graph materialize")
    common(p)
    p.add_argument("--shards", type=int, default=8)
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("eval", help="triple P/R/F1 (pred vs gold parquet)")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--f1-mode", choices=("micro", "macro"), default="micro")
    p.add_argument(
        "--attrib",
        choices=("cert", "ttype", "state"),
        default=None,
        help="evaluate one modality-attribute task over ENTITY tables "
        "instead of triples (reference clinical_cert.py -a)",
    )
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser(
        "conlleval",
        help="span P/R/FB1 report over a token<TAB>gold<TAB>pred file "
        "(the reference's conlleval shell hook, in-repo)",
    )
    p.add_argument("--file", required=True, help="conll eval file; - for stdin")
    p.set_defaults(fn=cmd_conlleval)

    p = sub.add_parser("convert", help="annotation-format converter")
    p.add_argument("--from", dest="from_fmt", required=True,
                   choices=("tagged", "goldxml", "conll", "i2b2", "brat", "pmhs"))
    p.add_argument("--to", dest="to_fmt", required=True,
                   choices=("tagged", "conll", "xml", "brat", "pmhs", "triples"))
    p.add_argument("--in", dest="inp", required=True,
                   help="input parquet path (or i2b2 data dir)")
    p.add_argument("--out", required=True)
    p.add_argument("--collection", default="beth", help="i2b2 collection name")
    p.add_argument(
        "--merged", action="store_true",
        help="CoNLL merged-label mode (reference read_conll(is_merged=True)): "
        "read/write B-tag_modality folded labels instead of separate columns",
    )
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("index", help="documents -> materialized term index")
    p.add_argument("--docs", required=True, help="documents parquet path")
    p.add_argument("--out", required=True, help="index directory")
    p.add_argument("--text-col", dest="text_col", default="text")
    p.add_argument("--id-col", dest="id_col", default="doc_id")
    p.add_argument("--min-df", dest="min_df", type=int, default=1)
    p.add_argument("--max-postings", dest="max_postings", type=int, default=None)
    p.add_argument(
        "--refresh", action="store_true",
        help="append docs as a new generation of an EXISTING index "
        "(refresh_term_index) instead of building from scratch",
    )
    p.set_defaults(fn=cmd_index)

    p = sub.add_parser("lookup", help="term lookup against a term index")
    p.add_argument("--index", required=True, help="index directory")
    p.add_argument("--terms", required=True, help="comma-separated terms")
    p.set_defaults(fn=cmd_lookup)

    p = sub.add_parser("topterms", help="documents -> per-doc top-k terms")
    p.add_argument("--docs", required=True, help="documents parquet path")
    p.add_argument("--out", required=True, help="output parquet dir")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--text-col", dest="text_col", default="text")
    p.add_argument("--id-col", dest="id_col", default="doc_id")
    p.add_argument("--min-df", dest="min_df", type=int, default=1)
    p.set_defaults(fn=cmd_topterms)

    p = sub.add_parser(
        "ann-build", help="embeddings -> materialized partition-pruned ANN index"
    )
    p.add_argument("--embeddings", required=True, help="embeddings parquet path/dir")
    p.add_argument("--out", required=True)
    p.add_argument("--kind", default="ivf", choices=("ivf", "lsh"))
    p.add_argument("--id-col", dest="id_col", default="vec_id")
    p.add_argument("--vec-col", dest="vec_col", default="embedding")
    p.add_argument("--n-centroids", dest="n_centroids", type=int, default=16)
    p.add_argument(
        "--refresh", action="store_true",
        help="append embeddings as a new generation of an EXISTING "
        "index (refresh_ann_index, frozen quantizer) instead of building",
    )
    p.set_defaults(fn=cmd_ann_build)

    p = sub.add_parser("ann-query", help="top-k cosine probe of an ANN index")
    p.add_argument("--index", required=True)
    p.add_argument("--query", required=True, help="comma-separated floats")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--n-probe", dest="n_probe", type=int, default=2)
    p.add_argument("--multiprobe", type=int, default=0)
    p.set_defaults(fn=cmd_ann_query)

    p = sub.add_parser(
        "dedup-paras", help="documents -> keep-first paragraph dedup"
    )
    p.add_argument("--docs", required=True, help="documents parquet path/dir")
    p.add_argument("--out", required=True)
    p.add_argument("--id-col", dest="id_col", default="doc_id")
    p.add_argument("--text-col", dest="text_col", default="text")
    p.set_defaults(fn=cmd_dedup_paras)

    p = sub.add_parser(
        "url-dedup", help="pages -> keep-first dedup by canonical URL"
    )
    p.add_argument("--docs", required=True, help="pages parquet path/dir")
    p.add_argument("--out", required=True)
    p.add_argument("--id-col", dest="id_col", default="doc_id")
    p.add_argument("--url-col", dest="url_col", default="url")
    p.add_argument(
        "--keep-www",
        action="store_true",
        help="do not strip a leading www. from hosts",
    )
    p.set_defaults(fn=cmd_url_dedup)

    p = sub.add_parser(
        "pii", help="documents -> PII-masked corpus (<EMAIL>/<IP>/<PHONE>)"
    )
    p.add_argument("--docs", required=True, help="documents parquet path/dir")
    p.add_argument("--out", required=True)
    p.add_argument("--id-col", dest="id_col", default="doc_id")
    p.add_argument("--text-col", dest="text_col", default="text")
    p.set_defaults(fn=cmd_pii)

    p = sub.add_parser(
        "lineclean",
        help="documents -> C4-style line-level cleaning (Raffel et al. "
        "2020 s2.2: terminal punct / min words / javascript line rules; "
        "brace / lorem-ipsum / min-kept doc rules)",
    )
    p.add_argument("--docs", required=True, help="documents parquet path/dir")
    p.add_argument("--out", required=True)
    p.add_argument("--id-col", dest="id_col", default="doc_id")
    p.add_argument("--text-col", dest="text_col", default="text")
    p.add_argument("--min-words", dest="min_words", type=int, default=5)
    p.add_argument("--min-lines", dest="min_lines", type=int, default=3)
    p.add_argument(
        "--no-terminal-punct",
        dest="no_terminal_punct",
        action="store_true",
        help="drop the terminal-punctuation line rule",
    )
    p.add_argument(
        "--annotate",
        action="store_true",
        help="keep every doc and append clean_text/n_lines/n_kept "
        "instead of filtering + rewriting text",
    )
    p.set_defaults(fn=cmd_lineclean)

    p = sub.add_parser(
        "passages",
        help="documents -> sliding-window passages (fixed token "
        "windows with overlap; the RAG retrieval-chunk shape)",
    )
    p.add_argument("--docs", required=True, help="documents parquet path/dir")
    p.add_argument("--out", required=True)
    p.add_argument("--id-col", dest="id_col", default="doc_id")
    p.add_argument("--text-col", dest="text_col", default="text")
    p.add_argument("--window", type=int, default=256, help="tokens per passage")
    p.add_argument(
        "--stride",
        type=int,
        default=128,
        help="tokens between passage starts (must be <= window)",
    )
    p.set_defaults(fn=cmd_passages)

    p = sub.add_parser(
        "langid",
        help="documents -> + lang_pred (heuristic or fasttext backend)",
    )
    p.add_argument("--docs", required=True, help="documents parquet path/dir")
    p.add_argument("--out", required=True)
    p.add_argument("--backend", default="heuristic", choices=("heuristic", "fasttext"))
    p.add_argument("--model", default=None, help="fasttext .bin path (fasttext backend)")
    p.add_argument("--keep", default=None, help="keep only this lang_pred (filter)")
    p.add_argument("--id-col", dest="id_col", default="doc_id")
    p.add_argument("--text-col", dest="text_col", default="text")
    p.set_defaults(fn=cmd_langid)

    p = sub.add_parser(
        "dedup-inc",
        help="flag new-corpus docs whose exact text exists in a previous snapshot",
    )
    p.add_argument("--docs", required=True, help="NEW documents parquet path/dir")
    p.add_argument("--prev", required=True, help="previous-snapshot parquet path/dir")
    p.add_argument("--out", required=True)
    p.add_argument("--id-col", dest="id_col", default="doc_id")
    p.add_argument("--text-col", dest="text_col", default="text")
    p.add_argument(
        "--flag-path",
        dest="flag_path",
        default="broadcast",
        choices=["broadcast", "shuffle", "bloom"],
        help="broadcast = exact (overlap set under the cap); shuffle = "
        "exact, zero driver collections; bloom = approximate one-sided "
        "(driver holds ~bloom-bits/8 bytes, rounded up to whole slices, "
        "at ANY corpus size)",
    )
    p.add_argument(
        "--bloom-bits",
        dest="bloom_bits",
        type=int,
        default=1 << 27,
        help="bloom filter size in bits (~10-15 per distinct old doc "
        "for ~1%% FP); only with --flag-path bloom",
    )
    p.set_defaults(fn=cmd_dedup_inc)

    p = sub.add_parser(
        "dedup-spans",
        help="cut verbatim-repeated token runs (>= min-len) keeping first occurrence",
    )
    p.add_argument("--docs", required=True, help="documents parquet path/dir")
    p.add_argument("--out", required=True)
    p.add_argument("--id-col", dest="id_col", default="doc_id")
    p.add_argument("--text-col", dest="text_col", default="text")
    p.add_argument("--min-len", dest="min_len", type=int, default=50)
    p.set_defaults(fn=cmd_dedup_spans)

    p = sub.add_parser(
        "ingest",
        help="JSONL/CSV/parquet corpus -> normalized documents parquet",
    )
    p.add_argument("--in", dest="inp", required=True, help="input path/dir")
    p.add_argument("--out", required=True)
    p.add_argument(
        "--format", default="auto", choices=["auto", "jsonl", "csv", "parquet"]
    )
    p.add_argument("--id-col", dest="id_col", default="doc_id")
    p.add_argument("--text-col", dest="text_col", default="text")
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser(
        "export",
        help="parquet corpus -> JSONL/CSV shards (the inverse of ingest)",
    )
    p.add_argument("--in", dest="inp", required=True, help="parquet path/dir")
    p.add_argument("--out", required=True)
    p.add_argument("--format", default="jsonl", choices=["jsonl", "csv"])
    p.add_argument(
        "--columns",
        default=None,
        help="comma-separated column subset (pruned at the read)",
    )
    p.set_defaults(fn=cmd_export)

    p = sub.add_parser(
        "pack",
        help="documents -> fixed-token-budget training-sequence assignments",
    )
    p.add_argument("--docs", required=True, help="documents parquet path/dir")
    p.add_argument("--out", required=True)
    p.add_argument("--spill", required=True, help="parquet scratch dir")
    p.add_argument("--max-len", dest="max_len", type=int, required=True)
    p.add_argument("--id-col", dest="id_col", default="doc_id")
    p.add_argument("--text-col", dest="text_col", default="text")
    p.add_argument(
        "--drop-remainder", dest="drop_remainder", action="store_true",
        help="drop the final partial sequence",
    )
    p.set_defaults(fn=cmd_pack)

    p = sub.add_parser(
        "join",
        help="distributed equi-join of two parquet tables (both sides large)",
    )
    p.add_argument("--left", required=True, help="left parquet path/dir")
    p.add_argument("--right", required=True, help="right parquet path/dir")
    p.add_argument("--out", required=True)
    p.add_argument("--on", required=True, help="comma-separated left key columns")
    p.add_argument(
        "--right-on", dest="right_on", default=None,
        help="comma-separated right key columns (default: same as --on)",
    )
    p.add_argument(
        "--how", default="inner",
        choices=("inner", "left", "right", "full", "semi", "anti"),
    )
    p.add_argument("--suffix", default="_r", help="suffix for colliding right columns")
    p.add_argument(
        "--bloom-prune", dest="bloom_prune", default=None,
        choices=("left", "right"),
        help="pre-shuffle bloom prune of this side by the other side's keys",
    )
    p.add_argument(
        "--path", default="bucketed",
        choices=("bucketed", "broadcast"),
        help="sorted shuffle on the key (default) or small-right broadcast",
    )
    p.add_argument(
        "--left-cols", dest="left_cols", default=None,
        help="comma-separated column prune for the left read",
    )
    p.add_argument(
        "--right-cols", dest="right_cols", default=None,
        help="comma-separated column prune for the right read",
    )
    p.set_defaults(fn=cmd_join)

    p = sub.add_parser(
        "merge-graphs",
        help="merge materialized graphs (provenance-summing dedup + sorted write)",
    )
    p.add_argument(
        "--graph", dest="graphs", action="append", required=True,
        help="graph parquet dir (repeat per snapshot)",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_merge_graphs)

    p = sub.add_parser(
        "profile",
        help="per-column profile: counts, nulls, min/max, distinct (KMV)",
    )
    p.add_argument("--in", dest="inp", required=True, help="parquet path/dir")
    p.add_argument("--cols", default=None, help="comma-separated column subset")
    p.add_argument("--kmv-k", dest="kmv_k", type=int, default=8192)
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser(
        "report",
        help="documents -> one-page JSON data card (column profile + "
        "token/quality/language aggregates + approx token quantiles)",
    )
    p.add_argument("--docs", required=True, help="documents parquet path/dir")
    p.add_argument("--id-col", dest="id_col", default="doc_id")
    p.add_argument("--text-col", dest="text_col", default="text")
    p.add_argument("--out", default=None, help="write the card to a JSON file")
    p.add_argument(
        "--url-col",
        dest="url_col",
        default=None,
        help="add per-domain concentration (exact counts of domains "
        "holding >= --domain-phi of the corpus)",
    )
    p.add_argument(
        "--domain-phi", dest="domain_phi", type=float, default=0.001
    )
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser(
        "topk",
        help="top-k rows per key (deterministic value order + id tiebreak)",
    )
    p.add_argument("--in", dest="inp", required=True, help="parquet path/dir")
    p.add_argument("--out", required=True)
    p.add_argument("--key-col", dest="key_col", required=True)
    p.add_argument("--value-col", dest="value_col", required=True)
    p.add_argument("--id-col", dest="id_col", default="doc_id")
    p.add_argument("-k", "--k", type=int, required=True)
    p.add_argument("--ascending", action="store_true", help="smallest-k instead")
    p.set_defaults(fn=cmd_topk)

    p = sub.add_parser(
        "cluster",
        help="embeddings -> deterministic k-means centroid_id per row",
    )
    p.add_argument("--embeddings", required=True, help="embeddings parquet path/dir")
    p.add_argument("--out", required=True)
    p.add_argument("--id-col", dest="id_col", default="vec_id")
    p.add_argument("--vec-col", dest="vec_col", default="embedding")
    p.add_argument(
        "--n-centroids", dest="n_centroids", type=int, default=16
    )
    p.set_defaults(fn=cmd_cluster)

    p = sub.add_parser(
        "mix",
        help="weighted mixture of parquet corpora (name=path:weight, "
        "w>1 = floor(w) full epochs + fractional sample)",
    )
    p.add_argument(
        "--in",
        dest="sources",
        action="append",
        required=True,
        help="repeatable: name=path:weight",
    )
    p.add_argument("--out", required=True)
    p.add_argument("--id-col", dest="id_col", default="doc_id")
    p.add_argument("--salt", default="")
    p.set_defaults(fn=cmd_mix)

    p = sub.add_parser(
        "compact",
        help="rewrite a parquet dir at a target file size (tiny-file repair)",
    )
    p.add_argument("--in", dest="inp", required=True, help="parquet path/dir")
    p.add_argument("--out", required=True)
    p.add_argument(
        "--target-mb", dest="target_mb", type=int, default=256,
        help="target bytes per output file (default 256 MiB)",
    )
    p.set_defaults(fn=cmd_compact)

    p = sub.add_parser(
        "sample",
        help="deterministic hash sample of a parquet corpus (reproducible, nested)",
    )
    p.add_argument("--docs", required=True, help="documents parquet path/dir")
    p.add_argument("--out", required=True)
    p.add_argument("--rate", type=float, required=True, help="keep probability in [0,1]")
    p.add_argument("--id-col", dest="id_col", default="doc_id")
    p.add_argument("--salt", default="", help="hash-family salt (same salt => nested samples)")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser(
        "shuffle",
        help="deterministic global reorder by hash of id (per-epoch "
        "training-order randomization; same salt => same order on any "
        "layout)",
    )
    p.add_argument("--docs", required=True, help="documents parquet path/dir")
    p.add_argument("--out", required=True)
    p.add_argument("--id-col", dest="id_col", default="doc_id")
    p.add_argument("--salt", default="", help="order salt (one per epoch)")
    p.set_defaults(fn=cmd_shuffle)

    p = sub.add_parser(
        "group-sample",
        help="balanced per-group sample: keep k deterministic rows per key value",
    )
    p.add_argument("--docs", required=True, help="documents parquet path/dir")
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, required=True, help="rows kept per group")
    p.add_argument("--key-col", dest="key_col", required=True)
    p.add_argument("--id-col", dest="id_col", default="doc_id")
    p.add_argument("--salt", default="")
    p.set_defaults(fn=cmd_group_sample)

    p = sub.add_parser(
        "lm",
        help="train an n-gram LM (optionally on --train) and score each doc's perplexity",
    )
    p.add_argument("--docs", required=True, help="documents parquet path/dir to score")
    p.add_argument(
        "--train", default=None, help="training corpus parquet (default: --docs itself)"
    )
    p.add_argument("--out", required=True)
    p.add_argument("--id-col", dest="id_col", default="doc_id")
    p.add_argument("--text-col", dest="text_col", default="text")
    p.add_argument("--min-freq", dest="min_freq", type=int, default=1)
    p.add_argument(
        "--buckets",
        action="store_true",
        help="CCNet head/middle/tail: tag each doc with its exact "
        "corpus-wide perplexity tercile instead of raw scores only",
    )
    p.set_defaults(fn=cmd_lm)

    p = sub.add_parser(
        "train",
        help="train the joint NER/MOD/REL heads (the reference --do_train loop)",
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--conll", help="multihead CoNLL training file")
    src.add_argument("--tagged", help="tagged-chunks parquet path/dir")
    p.add_argument("--out", required=True, help="checkpoint dir (best dev model)")
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=16)
    p.add_argument("--workers", type=int, default=2)
    p.add_argument(
        "--down-neg",
        dest="down_neg",
        type=float,
        default=1.0,
        help="keep fraction for 'N' relation pairs (deterministic hash draw)",
    )
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--dev-ratio", dest="dev_ratio", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=1029)
    p.add_argument("--analyzer", default="mecab")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser(
        "decontam",
        help="flag corpus docs sharing word n-grams with a benchmark parquet",
    )
    p.add_argument("--docs", required=True, help="corpus documents parquet")
    p.add_argument("--bench", required=True, help="benchmark documents parquet")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--id-col", default="doc_id")
    p.add_argument("--text-col", default="text")
    p.add_argument(
        "--hashed",
        action="store_true",
        help="broadcast 64-bit gram hashes instead of strings (big benchmarks)",
    )
    p.set_defaults(fn=cmd_decontam)

    p = sub.add_parser(
        "clean",
        help="documents -> quality gate + exact/paragraph/near-dup cleaned corpus",
    )
    p.add_argument("--docs", required=True, help="documents parquet path/dir")
    p.add_argument("--out", required=True)
    p.add_argument("--spill", required=True, help="parquet scratch dir")
    p.add_argument("--id-col", dest="id_col", default="doc_id")
    p.add_argument("--text-col", dest="text_col", default="text")
    p.add_argument("--min-tokens", dest="min_tokens", type=int, default=5)
    p.add_argument(
        "--near-dup-threshold", dest="near_dup_threshold", type=float, default=0.8
    )
    p.add_argument(
        "--url-col",
        dest="url_col",
        default=None,
        help="enable canonical-URL keep-first dedup as stage 0",
    )
    p.add_argument(
        "--pii",
        action="store_true",
        help="append the PII-masking pass (<EMAIL>/<IP>/<PHONE>) as the last stage",
    )
    p.add_argument(
        "--span-min-len",
        dest="span_min_len",
        type=int,
        default=None,
        help="enable exact-substring dedup of verbatim runs >= N tokens",
    )
    p.add_argument(
        "--lm-train",
        dest="lm_train",
        default=None,
        help="trusted-corpus parquet: train a bigram LM and gate on --max-ppl",
    )
    p.add_argument(
        "--decontam-bench",
        dest="decontam_bench",
        default=None,
        help="benchmark parquet: drop docs sharing any --decontam-n-gram with it",
    )
    p.add_argument(
        "--compress-band",
        dest="compress_band",
        default=None,
        help="LO,HI micro band on the deflate-compression ratio (drop "
        "outside: below = repetition, above = noise); docs under 200 "
        "utf-8 bytes always pass",
    )
    p.add_argument(
        "--decontam-n", dest="decontam_n", type=int, default=3
    )
    p.add_argument(
        "--max-ppl",
        dest="max_ppl",
        type=float,
        default=None,
        help="drop docs whose per-token perplexity under the --lm-train LM exceeds this",
    )
    p.add_argument(
        "--keep-lang",
        dest="keep_lang",
        default=None,
        help="enable the language gate: keep only docs classified as this lang",
    )
    p.add_argument(
        "--lang-backend",
        dest="lang_backend",
        default="heuristic",
        choices=("heuristic", "fasttext"),
    )
    p.add_argument(
        "--lang-model",
        dest="lang_model",
        default=None,
        help="fasttext .bin path (lang-backend=fasttext)",
    )
    p.add_argument(
        "--keep-quality",
        dest="keep_quality",
        default=None,
        help="enable the model quality gate: keep only docs the "
        "--quality-model classifies as this label (e.g. hq)",
    )
    p.add_argument(
        "--quality-model",
        dest="quality_model",
        default=None,
        help="supervised fasttext .bin path for --keep-quality",
    )
    p.set_defaults(fn=cmd_clean)

    p = sub.add_parser("bpe", help="documents -> trained BPE merge table")
    p.add_argument("--docs", required=True, help="documents parquet path/dir")
    p.add_argument("--out", required=True, help="output parquet FILE")
    p.add_argument("--id-col", dest="id_col", default="doc_id")
    p.add_argument("--text-col", dest="text_col", default="text")
    p.add_argument("--merges", type=int, default=200)
    p.add_argument("--min-freq", dest="min_freq", type=int, default=2)
    p.add_argument(
        "--word-min-freq", dest="word_min_freq", type=int, default=None,
        help="prune word types below this count DISTRIBUTED-side before "
        "the driver collect (the corpus-scale path; pruned mass is "
        "recorded in the output metadata)",
    )
    p.add_argument(
        "--apply-out", dest="apply_out", default=None,
        help="also segment the corpus with the trained merges -> parquet dir",
    )
    p.set_defaults(fn=cmd_bpe)

    p = sub.add_parser("synth", help="deterministic synthetic pages corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--pages-n", type=int, default=1000)
    p.add_argument("--overwrite", action="store_true")
    p.set_defaults(fn=cmd_synth)

    args = ap.parse_args(argv)
    args.fn(args)


if __name__ == "__main__":
    main(sys.argv[1:])
