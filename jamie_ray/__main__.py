"""CLI entry point: ``python -m jamie_ray <command>``.

The reference is driven entirely by per-script CLI flags (its
``clinical_joint.py:113-227`` and ``data_converter.py:111-155``); this
module is the equivalent single front door, and the unit you point
``ray job submit`` at on a cluster:

    ray job submit --working-dir . -- python -m jamie_ray graph \
        --pages s3://bucket/pages/ --out s3://bucket/graph/ --shards 256

``python -m jamie_ray --help`` lists every command; the list is built
from :data:`COMMANDS`. Each command is one entry there: its name, its
help, its flags and a ``run(args)`` that returns one of

- ``(Dataset, summary)``: :func:`main` writes the Dataset to ``--out``
  as parquet, then fills the summary from the written output
  (:data:`ROWS`, :class:`Sum`, callables; see :func:`_summarize`);
- a summary dict, for commands that write their own output or none;
- a text report, printed as is.

:func:`main` starts Ray (guarded with ``is_initialized``, so a command
works both standalone and under a driver that already initialised Ray)
and prints ``{"command": name, **summary}`` as one JSON line. A new
command is one entry with no hand-written read, write or print.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Command:
    name: str
    help: str
    flags: tuple
    run: Callable
    ray: bool = True


COMMANDS: list[Command] = []


def command(name: str, help: str, *flags, ray: bool = True):
    """Register the decorated ``run(args)`` as subcommand ``name``."""

    def register(run):
        COMMANDS.append(Command(name, help, flags, run, ray))
        return run

    return register


def opt(*names, **kw):
    """One flag: ``add_argument`` arguments, declared once."""
    return names, kw


def one_of(*flags):
    """A required group of mutually exclusive :func:`opt` flags."""
    return (), {"one_of": flags}


PAGES = (
    opt("--pages", required=True, help="pages parquet path/dir"),
    opt("--out", required=True),
    opt("--lang", default="ja"),
    opt("--analyzer", default="mecab",
        help="registered morphological analyzer (juman|mecab|...)"),
    opt("--decode-errors", default="strict", choices=("strict", "replace"),
        help="utf-8 policy: strict quarantines mojibake pages, "
        "replace degrades them to U+FFFD"),
)
DOCS_IO = (
    opt("--docs", required=True, help="documents parquet path/dir"),
    opt("--out", required=True),
    opt("--id-col", default="doc_id"),
)
DOCS = DOCS_IO + (opt("--text-col", default="text"),)
EMBEDDINGS = (
    opt("--embeddings", required=True, help="embeddings parquet path/dir"),
    opt("--out", required=True),
    opt("--id-col", default="vec_id"),
    opt("--vec-col", default="embedding"),
    opt("--n-centroids", type=int, default=16),
)


class Sum(str):
    """Summary value: the total of this column over the written output."""


ROWS = object()  # summary value: the written output's row count


def _parquet_files(path: str) -> list[str]:
    if os.path.isfile(path):
        return [path]
    return sorted(
        os.path.join(root, f)
        for root, _dirs, files in os.walk(path)
        for f in files
        if f.endswith(".parquet")
    )


def _summarize(out: str, summary: dict) -> dict:
    """Fill ``summary`` from the parquet just written to ``out``: ROWS
    from file metadata only (never data pages, so counting a
    corpus-scale output stays O(files) on the driver), ``Sum(col)`` from
    that one column, and a callable from the keys resolved before it."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    cols = [v for v in summary.values() if isinstance(v, Sum)]
    n, sums = 0, dict.fromkeys(cols, 0)
    for f in _parquet_files(out):
        with pq.ParquetFile(f) as pf:
            n += pf.metadata.num_rows
            if cols:
                t = pf.read(columns=cols)
                for c in cols:
                    sums[c] += pc.sum(t.column(c)).as_py() or 0
    done: dict = {}
    for k, v in summary.items():
        if v is ROWS:
            v = n
        elif isinstance(v, Sum):
            v = sums[v]
        elif callable(v):
            v = v(done)
        done[k] = v
    return done


def _read(path, cols=None, **kw):
    import ray.data

    return ray.data.read_parquet(path, columns=cols, **kw)


def _docs(a, path=None):
    """``--docs`` (or ``path``) pruned to ``--id-col``/``--text-col``."""
    return _read(path or a.docs, [a.id_col, a.text_col])


def _cols(spec: str | None) -> list[str] | None:
    return ([c for c in spec.split(",") if c] or None) if spec else None


def _pages(a):
    from .pipelines import kg

    return kg.extracted_pages(
        kg.read_pages(a.pages), lang=a.lang, decode_errors=a.decode_errors
    )


@command("extract", "pages -> normalized text", *PAGES)
def _extract(a):
    return _pages(a), {"out": a.out}


@command("chunks", "pages -> trunk chunks", *PAGES)
def _chunks(a):
    from .pipelines import kg

    return kg.chunk_pages(_pages(a), analyzer=a.analyzer), {"out": a.out}


@command(
    "triples", "pages -> raw triples", *PAGES,
    opt("--mode", choices=("joint", "pipeline"), default="joint"),
)
def _triples(a):
    from .pipelines import kg

    ds = kg.build_triples(
        a.pages, lang=a.lang, mode=a.mode, analyzer=a.analyzer,
        decode_errors=a.decode_errors,
    )
    return ds, {"mode": a.mode, "out": a.out}


@command(
    "graph", "full resumable graph materialize", *PAGES,
    opt("--shards", type=int, default=8),
)
def _graph(a):
    from .pipelines import kg

    return kg.materialize_graph(
        a.pages, a.out, lang=a.lang, n_shards=a.shards, analyzer=a.analyzer,
        decode_errors=a.decode_errors,
    )


@command(
    "eval", "triple P/R/F1 (pred vs gold parquet)",
    opt("--gold", required=True),
    opt("--pred", required=True),
    opt("--f1-mode", choices=("micro", "macro"), default="micro"),
    opt("--attrib", choices=("cert", "ttype", "state"), default=None,
        help="evaluate one modality-attribute task over ENTITY tables "
        "instead of triples (reference clinical_cert.py -a)"),
)
def _eval(a):
    from .evalx import evaluate_mod_task, evaluate_triples

    gold, pred = _read(a.gold), _read(a.pred)
    if a.attrib:
        # attribute-task mode (reference clinical_cert.py:41): inputs
        # are ENTITY tables (mention/ner_tag/mod), scored on the chosen
        # family's modality attribute
        res = evaluate_mod_task(gold, pred, a.attrib, f1_mode=a.f1_mode)
    else:
        res = evaluate_triples(gold, pred, f1_mode=a.f1_mode)

    def prf(v):
        return [round(x, 6) for x in v[:3]]

    p, r, f1 = prf(res[a.f1_mode])
    per_class = {k: prf(v) for k, v in res["per_class"].items()}
    return {"p": p, "r": r, "f1": f1, "counts": res["counts"], "per_class": per_class}


@command(
    "conlleval",
    "span P/R/FB1 report over a token<TAB>gold<TAB>pred file "
    "(the reference's conlleval shell hook, in-repo)",
    opt("--file", required=True, help="conll eval file; - for stdin"),
    ray=False,
)
def _conlleval(a):
    from .evalx import conlleval_report

    if a.file == "-":
        return conlleval_report(sys.stdin.read())
    with open(a.file, encoding="utf-8") as f:
        return conlleval_report(f.read())


@command(
    "convert", "annotation-format converter",
    opt("--from", dest="from_fmt", required=True,
        choices=("tagged", "goldxml", "conll", "i2b2", "brat", "pmhs")),
    opt("--to", dest="to_fmt", required=True,
        choices=("tagged", "conll", "xml", "brat", "pmhs", "triples")),
    opt("--in", dest="inp", required=True,
        help="input parquet path (or i2b2 data dir)"),
    opt("--out", required=True),
    opt("--collection", default="beth", help="i2b2 collection name"),
    opt("--merged", action="store_true",
        help="CoNLL merged-label mode (reference read_conll(is_merged=True)): "
        "read/write B-tag_modality folded labels instead of separate columns"),
)
def _convert(a):
    """Any supported annotation format -> any output format (the
    reference ``data_converter.py:111-155`` front door), composed from
    the engine's reader/writer batch kernels."""
    import functools

    from .stages.assemble import assemble_batch
    from .stages.brat import brat_to_tagged_batch
    from .stages.conll import conll_text_to_tagged_batch, tagged_to_conll_batch
    from .stages.format_out import tagged_to_brat_batch, tagged_to_xml_batch
    from .stages.gold_xml import gold_xml_to_tagged_batch
    from .stages.i2b2 import read_i2b2
    from .stages.pmhs import pmhs_to_tagged_batch, tagged_to_pmhs_batch

    readers = {
        "goldxml": gold_xml_to_tagged_batch,
        "conll": functools.partial(conll_text_to_tagged_batch, merged=a.merged),
        "brat": brat_to_tagged_batch,
        "pmhs": pmhs_to_tagged_batch,
    }
    writers = {
        "conll": functools.partial(tagged_to_conll_batch, merged=a.merged),
        "xml": tagged_to_xml_batch,
        "brat": tagged_to_brat_batch,
        "pmhs": tagged_to_pmhs_batch,
        "triples": assemble_batch,
    }
    if a.from_fmt == "i2b2":
        # drop the error side channel before the format writers
        tagged = read_i2b2(a.inp, a.collection).drop_columns(["anno_errors"])
    elif a.from_fmt in readers:
        tagged = _read(a.inp).map_batches(readers[a.from_fmt], batch_format="pyarrow")
    else:  # tagged parquet
        tagged = _read(a.inp)
    out = tagged
    if a.to_fmt in writers:
        out = tagged.map_batches(writers[a.to_fmt], batch_format="pyarrow")
    return out, {"from": a.from_fmt, "to": a.to_fmt, "out": a.out}


@command(
    "index", "documents -> materialized term index", *DOCS,
    opt("--docs", required=True, help="documents parquet path"),
    opt("--out", required=True, help="index directory"),
    opt("--min-df", type=int, default=1),
    opt("--max-postings", type=int, default=None),
    opt("--refresh", action="store_true",
        help="append docs as a new generation of an EXISTING index "
        "(refresh_term_index) instead of building from scratch"),
)
def _index(a):
    from .functions.index import _term_meta, build_term_index, refresh_term_index

    if a.refresh:
        # refresh_term_index reads the columns the build recorded,
        # whatever --id-col/--text-col say now
        meta = _term_meta(a.out)
        docs = _read(a.docs, [meta["id_col"], meta["text_col"]])
        return {"out": a.out, **refresh_term_index(a.out, docs)}
    meta = build_term_index(
        _docs(a), a.out, text_col=a.text_col, id_col=a.id_col, min_df=a.min_df,
        max_postings=a.max_postings,
    )
    return {"out": a.out, **meta}


@command(
    "lookup", "term lookup against a term index",
    opt("--index", required=True, help="index directory"),
    opt("--terms", required=True, help="comma-separated terms"),
)
def _lookup(a):
    from .functions.index import lookup_postings, term_probe_partitions

    terms = [t for t in a.terms.split(",") if t]
    tbl = lookup_postings(a.index, terms)
    n_read = len(term_probe_partitions(a.index, terms))
    return {"n_partitions_read": n_read, "rows": tbl.to_pylist()}


@command(
    "topterms", "documents -> per-doc top-k terms", *DOCS,
    opt("--docs", required=True, help="documents parquet path"),
    opt("--out", required=True, help="output parquet dir"),
    opt("--k", type=int, default=5),
    opt("--min-df", type=int, default=1),
)
def _topterms(a):
    from .functions.index import doc_top_terms

    ds = doc_top_terms(
        _docs(a), k=a.k, text_col=a.text_col, id_col=a.id_col, min_df=a.min_df
    )
    return ds, {"out": a.out, "k": a.k}


@command(
    "ann-build", "embeddings -> materialized partition-pruned ANN index",
    *EMBEDDINGS,
    opt("--kind", default="ivf", choices=("ivf", "lsh")),
    opt("--refresh", action="store_true",
        help="append embeddings as a new generation of an EXISTING "
        "index (refresh_ann_index, frozen quantizer) instead of building"),
)
def _ann_build(a):
    from .functions.similarity import _ann_meta, build_ann_index, refresh_ann_index

    if a.refresh:
        # refresh_ann_index reads the columns the build recorded,
        # whatever --id-col/--vec-col say now
        meta = _ann_meta(a.out)
        emb = _read(a.embeddings, [meta["id_col"], meta["vec_col"]])
        return {"out": a.out, **refresh_ann_index(a.out, emb)}
    meta = build_ann_index(
        _read(a.embeddings, [a.id_col, a.vec_col]), a.out, kind=a.kind,
        id_col=a.id_col, vec_col=a.vec_col, n_centroids=a.n_centroids,
    )
    # occupied partition dirs on disk — accurate for both index kinds
    n_partitions = sum(os.path.isdir(os.path.join(a.out, d)) for d in os.listdir(a.out))
    return {"out": a.out, "kind": meta["kind"], "n_partitions": n_partitions}


@command(
    "ann-query", "top-k cosine probe of an ANN index",
    opt("--index", required=True),
    opt("--query", required=True, help="comma-separated floats"),
    opt("--k", type=int, default=10),
    opt("--n-probe", type=int, default=2),
    opt("--multiprobe", type=int, default=0),
)
def _ann_query(a):
    from .functions.similarity import ann_probe_partitions, knn_indexed

    query = [float(x) for x in a.query.split(",")]
    # probe plan computed ONCE and shared with the query
    paths = ann_probe_partitions(
        a.index, query, n_probe=a.n_probe, multiprobe=a.multiprobe
    )
    tbl = knn_indexed(
        a.index, query, k=a.k, n_probe=a.n_probe, multiprobe=a.multiprobe,
        paths=paths,
    )
    return {"n_partitions_read": len(paths), "rows": tbl.to_pylist()}


@command("dedup-paras", "documents -> keep-first paragraph dedup", *DOCS)
def _dedup_paras(a):
    from .functions.dedup_docs import paragraph_dedup

    ds = paragraph_dedup(_docs(a), text_col=a.text_col, id_col=a.id_col)
    return ds, {
        "out": a.out, "n_docs": ROWS, "n_paras_dropped": Sum("n_dropped"),
    }


@command(
    "url-dedup", "pages -> keep-first dedup by canonical URL", *DOCS_IO,
    opt("--docs", required=True, help="pages parquet path/dir"),
    opt("--url-col", default="url"),
    opt("--keep-www", action="store_true",
        help="do not strip a leading www. from hosts"),
)
def _url_dedup(a):
    from .functions.urlnorm import url_dedup

    ds = url_dedup(
        _read(a.docs, [a.id_col, a.url_col]), url_col=a.url_col, id_col=a.id_col,
        strip_www=not a.keep_www,
    )
    return ds, {
        "out": a.out,
        "n_canonical_urls": ROWS,
        "n_input_rows": Sum("n_dups"),
        "n_dropped": lambda s: s["n_input_rows"] - s["n_canonical_urls"],
    }


@command("pii", "documents -> PII-masked corpus (<EMAIL>/<IP>/<PHONE>)", *DOCS)
def _pii(a):
    from .functions.pii import mask_pii

    return mask_pii(_docs(a), text_col=a.text_col), {
        "out": a.out,
        "n_docs": ROWS,
        "n_emails": Sum("n_emails"),
        "n_ips": Sum("n_ips"),
        "n_phones": Sum("n_phones"),
    }


@command(
    "lineclean",
    "documents -> C4-style line-level cleaning (Raffel et al. "
    "2020 s2.2: terminal punct / min words / javascript line rules; "
    "brace / lorem-ipsum / min-kept doc rules)",
    *DOCS,
    opt("--min-words", type=int, default=5),
    opt("--min-lines", type=int, default=3),
    opt("--no-terminal-punct", action="store_true",
        help="drop the terminal-punctuation line rule"),
    opt("--annotate", action="store_true",
        help="keep every doc and append clean_text/n_lines/n_kept "
        "instead of filtering + rewriting text"),
)
def _lineclean(a):
    from .functions.text_analysis import c4_filter_batch, c4_line_clean

    text_col = a.text_col
    rules = dict(
        min_words_per_line=a.min_words,
        min_kept_lines=a.min_lines,
        require_terminal_punct=not a.no_terminal_punct,
    )
    if a.annotate:
        out = c4_line_clean(_docs(a), text_col, **rules)
    else:
        out = _docs(a).map_batches(
            lambda b: c4_filter_batch(b, text_col, **rules), batch_format="pyarrow"
        )
    return out, {"out": a.out, "n_docs": ROWS, "annotate": bool(a.annotate)}


@command(
    "passages",
    "documents -> sliding-window passages (fixed token "
    "windows with overlap; the RAG retrieval-chunk shape)",
    *DOCS,
    opt("--window", type=int, default=256, help="tokens per passage"),
    opt("--stride", type=int, default=128,
        help="tokens between passage starts (must be <= window)"),
)
def _passages(a):
    """Documents -> sliding-window passages (RAG / retrieval-corpus
    chunking): fixed token windows with overlap, one output row per
    passage. Streaming flat transform — no shuffle, no state."""
    from .functions.text_analysis import passage_split

    ds = passage_split(_docs(a), a.text_col, a.id_col, window=a.window, stride=a.stride)
    return ds, {
        "out": a.out, "n_passages": ROWS, "window": a.window, "stride": a.stride,
    }


def _histogram(path: str, col: str) -> dict:
    import collections

    import pyarrow.parquet as pq

    counts = collections.Counter()
    for f in _parquet_files(path):
        counts.update(pq.read_table(f, columns=[col]).column(col).to_pylist())
    return dict(sorted(counts.items()))


@command(
    "langid", "documents -> + lang_pred (heuristic or fasttext backend)", *DOCS,
    opt("--backend", default="heuristic", choices=("heuristic", "fasttext")),
    opt("--model", default=None, help="fasttext .bin path (fasttext backend)"),
    opt("--keep", default=None, help="keep only this lang_pred (filter)"),
)
def _langid(a):
    from .functions.classifiers import broadcast_model_bytes, lang_id_stage

    model = broadcast_model_bytes(a.model) if a.model else None
    out = lang_id_stage(_docs(a), backend=a.backend, model=model, text_col=a.text_col)
    if a.keep:
        import pyarrow.compute as pc

        keep = a.keep
        out = out.map_batches(
            lambda b: b.filter(pc.equal(b.column("lang_pred"), keep)),
            batch_format="pyarrow",
        )
    return out, {
        "out": a.out,
        "backend": a.backend,
        "n_docs": ROWS,
        "by_lang": lambda s: _histogram(s["out"], "lang_pred"),
    }


@command(
    "dedup-inc",
    "flag new-corpus docs whose exact text exists in a previous snapshot",
    *DOCS,
    opt("--docs", required=True, help="NEW documents parquet path/dir"),
    opt("--prev", required=True, help="previous-snapshot parquet path/dir"),
    opt("--flag-path", default="broadcast", choices=["broadcast", "shuffle", "bloom"],
        help="broadcast = exact (overlap set under the cap); shuffle = "
        "exact, zero driver collections; bloom = approximate one-sided "
        "(driver holds ~bloom-bits/8 bytes, rounded up to whole slices, "
        "at ANY corpus size)"),
    opt("--bloom-bits", type=int, default=1 << 27,
        help="bloom filter size in bits (~10-15 per distinct old doc "
        "for ~1%% FP); only with --flag-path bloom"),
)
def _dedup_inc(a):
    from .functions.dedup_docs import incremental_dedup

    # the algorithm never uses old-side ids: read only the text column
    old = _read(a.prev, [a.text_col])
    ds = incremental_dedup(
        _docs(a), old, text_col=a.text_col, id_col=a.id_col,
        flag_path=a.flag_path, bloom_bits=a.bloom_bits,
    )
    return ds, {"out": a.out, "n_docs": ROWS, "n_in_previous": Sum("in_previous")}


@command(
    "dedup-spans",
    "cut verbatim-repeated token runs (>= min-len) keeping first occurrence",
    *DOCS,
    opt("--min-len", type=int, default=50),
)
def _dedup_spans(a):
    from .functions.dedup_docs import span_dedup

    ds = span_dedup(_docs(a), text_col=a.text_col, id_col=a.id_col, min_len=a.min_len)
    return ds, {
        "out": a.out,
        "min_len": a.min_len,
        "n_docs": ROWS,
        "n_cut_tokens": Sum("n_cut_tokens"),
    }


_FORMAT_OF_SUFFIX = {
    ".jsonl": "jsonl", ".json": "jsonl", ".ndjson": "jsonl",
    ".csv": "csv", ".tsv": "csv", ".parquet": "parquet",
}


def _ingest_format(path: str) -> str:
    """A file's format from its suffix (anything else reads as
    parquet); a directory's from its data files' suffixes, which must
    agree. Names starting with ``.`` or ``_`` are skipped, as Ray's
    readers skip them."""
    if not os.path.isdir(path):
        return _FORMAT_OF_SUFFIX.get(os.path.splitext(path.lower())[1], "parquet")
    suffixes = {
        os.path.splitext(f.lower())[1]
        for root, _dirs, files in os.walk(path)
        for f in files
        if not f.startswith((".", "_"))
    }
    formats = {_FORMAT_OF_SUFFIX.get(s) for s in suffixes}
    if len(formats) != 1 or None in formats:
        raise SystemExit(
            f"ingest: cannot tell the format of {path!r} from its file "
            f"suffixes {sorted(suffixes)}; pass --format jsonl|csv|parquet"
        )
    return formats.pop()


@command(
    "ingest", "JSONL/CSV/parquet corpus -> normalized documents parquet",
    opt("--in", dest="inp", required=True, help="input path/dir"),
    opt("--out", required=True),
    opt("--format", default="auto", choices=["auto", "jsonl", "csv", "parquet"]),
    opt("--id-col", default="doc_id"),
    opt("--text-col", default="text"),
)
def _ingest(a):
    """JSONL / CSV / parquet corpus -> normalized documents parquet
    (`doc_id`, `text`, passthrough extras) — the webtext interchange
    front door; every downstream operator consumes the result."""
    import pyarrow as pa
    import ray.data

    fmt = _ingest_format(a.inp) if a.format == "auto" else a.format
    read = {"jsonl": ray.data.read_json, "csv": ray.data.read_csv}.get(fmt, _read)
    id_col, text_col = a.id_col, a.text_col

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

    ds = read(a.inp).map_batches(normalize, batch_format="pyarrow")
    return ds, {"out": a.out, "format": fmt, "n_docs": ROWS}


@command(
    "export", "parquet corpus -> JSONL/CSV shards (the inverse of ingest)",
    opt("--in", dest="inp", required=True, help="parquet path/dir"),
    opt("--out", required=True),
    opt("--format", default="jsonl", choices=["jsonl", "csv"]),
    opt("--columns", default=None,
        help="comma-separated column subset (pruned at the read)"),
)
def _export(a):
    """Parquet corpus -> JSONL or CSV shards (the inverse of
    ``ingest``): the interchange hand-off to training consumers that
    read line-delimited text. Streams shard-by-shard via the Dataset
    writers — never materializes the corpus."""
    import glob

    ds = _read(a.inp, _cols(a.columns))
    (ds.write_json if a.format == "jsonl" else ds.write_csv)(a.out)
    n_files = sum(os.path.isfile(f) for f in glob.glob(os.path.join(a.out, "*")))
    return {"out": a.out, "format": a.format, "n_files": n_files}


@command(
    "pack", "documents -> fixed-token-budget training-sequence assignments", *DOCS,
    opt("--spill", required=True, help="parquet scratch dir"),
    opt("--max-len", type=int, required=True),
    opt("--drop-remainder", action="store_true",
        help="drop the final partial sequence"),
)
def _pack(a):
    from .functions.packing import pack_sequences

    ds, n_seq = pack_sequences(
        _docs(a), a.max_len, spill_dir=a.spill, id_col=a.id_col,
        text_col=a.text_col, drop_remainder=a.drop_remainder,
    )
    return ds, {"out": a.out, "max_len": a.max_len, "n_sequences": n_seq}


@command(
    "join", "distributed equi-join of two parquet tables (both sides large)",
    opt("--left", required=True, help="left parquet path/dir"),
    opt("--right", required=True, help="right parquet path/dir"),
    opt("--out", required=True),
    opt("--on", required=True, help="comma-separated left key columns"),
    opt("--right-on", default=None,
        help="comma-separated right key columns (default: same as --on)"),
    opt("--how", default="inner",
        choices=("inner", "left", "right", "full", "semi", "anti")),
    opt("--suffix", default="_r", help="suffix for colliding right columns"),
    opt("--bloom-prune", default=None, choices=("left", "right"),
        help="pre-shuffle bloom prune of this side by the other side's keys"),
    opt("--path", default="bucketed", choices=("bucketed", "broadcast"),
        help="sorted shuffle on the key (default) or small-right broadcast"),
    opt("--left-cols", default=None,
        help="comma-separated column prune for the left read"),
    opt("--right-cols", default=None,
        help="comma-separated column prune for the right read"),
)
def _join(a):
    from .functions.join import hash_join

    joined = hash_join(
        _read(a.left, _cols(a.left_cols)),
        _read(a.right, _cols(a.right_cols)),
        a.on.split(","),
        right_on=_cols(a.right_on),
        how=a.how,
        suffix=a.suffix,
        bloom_prune=a.bloom_prune,
        path=a.path,
    )
    return joined, {"out": a.out, "how": a.how, "n_rows": ROWS}


@command(
    "merge-graphs",
    "merge materialized graphs (provenance-summing dedup + sorted write)",
    opt("--graph", dest="graphs", action="append", required=True,
        help="graph parquet dir (repeat per snapshot)"),
    opt("--out", required=True),
)
def _merge_graphs(a):
    """Merge materialized graph outputs (the monthly-snapshot KG
    update): union the graph parquet dirs, re-run the provenance
    dedup — its combiner SUMS pre-existing ``n_sources`` and keeps the
    lexicographic-min representative, so counts merge exactly and the
    result is layout-independent; its blocks come out in the
    flagship's graph order (``pipelines/kg.py`` finalize)."""
    from .stages.dedup import dedup_triples

    def graph_dir(g: str) -> str:
        # materialize_graph writes the sorted triples under <out>/graph
        # beside manifest.jsonl; accept either the run dir or the
        # parquet dir itself
        sub = os.path.join(g, "graph")
        return sub if os.path.isdir(sub) else g

    parts = [_read(graph_dir(g), file_extensions=["parquet"]) for g in a.graphs]
    ds = parts[0].union(*parts[1:]) if parts[1:] else parts[0]
    return dedup_triples(ds), {
        "out": a.out,
        "n_graphs": len(a.graphs),
        "n_triples": ROWS,
        "n_sources_total": Sum("n_sources"),
    }


@command(
    "profile", "per-column profile: counts, nulls, min/max, distinct (KMV)",
    opt("--in", dest="inp", required=True, help="parquet path/dir"),
    opt("--cols", default=None, help="comma-separated column subset"),
    opt("--kmv-k", type=int, default=8192),
)
def _profile(a):
    from .functions.profile import profile_columns

    cols = _cols(a.cols)
    t = profile_columns(_read(a.inp, cols), cols=cols, kmv_k=a.kmv_k)
    return {"columns": t.to_pylist()}


@command(
    "report",
    "documents -> one-page JSON data card (column profile + "
    "token/quality/language aggregates + approx token quantiles)",
    *DOCS,
    opt("--out", default=None, help="write the card to a JSON file"),
    opt("--url-col", default=None,
        help="add per-domain concentration (exact counts of domains "
        "holding >= --domain-phi of the corpus)"),
    opt("--domain-phi", type=float, default=0.001),
)
def _report(a):
    from .functions.profile import corpus_report

    rep = corpus_report(
        _read(a.docs), text_col=a.text_col, id_col=a.id_col, url_col=a.url_col,
        domain_phi=a.domain_phi,
    )
    if not a.out:
        return rep
    with open(a.out, "w", encoding="utf-8") as f:
        json.dump({"command": "report", **rep}, f, indent=2)
    return {"out": a.out, "n_docs": rep["n_docs"]}


@command(
    "topk", "top-k rows per key (deterministic value order + id tiebreak)",
    opt("--in", dest="inp", required=True, help="parquet path/dir"),
    opt("--out", required=True),
    opt("--key-col", required=True),
    opt("--value-col", required=True),
    opt("--id-col", default="doc_id"),
    opt("-k", "--k", type=int, required=True),
    opt("--ascending", action="store_true", help="smallest-k instead"),
)
def _topk(a):
    """Parquet -> deterministic top-k rows per key (value order + id
    tiebreak; block-local combiner, then one sorted-block reduce on the
    key)."""
    from .functions.skew import grouped_topk

    ds = grouped_topk(
        _read(a.inp, [a.id_col, a.key_col, a.value_col]), a.key_col, a.value_col,
        a.k, id_col=a.id_col, descending=not a.ascending,
    )
    return ds, {"out": a.out, "n_rows": ROWS, "k": a.k}


@command(
    "cluster", "embeddings -> deterministic k-means centroid_id per row",
    *EMBEDDINGS,
)
def _cluster(a):
    """Embeddings -> deterministic k-means bucket per row
    (``centroid_id``); the user-facing coarse quantizer."""
    from .functions.similarity import cluster_assign

    ds = cluster_assign(
        _read(a.embeddings, [a.id_col, a.vec_col]), n_centroids=a.n_centroids,
        id_col=a.id_col, vec_col=a.vec_col,
    )
    return ds, {"out": a.out, "n_rows": ROWS, "n_centroids": a.n_centroids}


@command(
    "mix",
    "weighted mixture of parquet corpora (name=path:weight, "
    "w>1 = floor(w) full epochs + fractional sample)",
    opt("--in", dest="sources", action="append", required=True,
        help="repeatable: name=path:weight"),
    opt("--out", required=True),
    opt("--id-col", default="doc_id"),
    opt("--salt", default=""),
)
def _mix(a):
    """Weighted corpus mixture (Pile/LLaMA-style epoch weights) of
    several parquet corpora -> one tagged output corpus."""
    from .functions.sampling import mix_corpora

    sources = []
    for spec in a.sources:
        try:
            name, rest = spec.split("=", 1)
            path, w = rest.rsplit(":", 1)
            weight = float(w)
        except ValueError:
            raise SystemExit(f"mix: bad --in {spec!r} (want name=path:weight)")
        sources.append((name, _read(path), weight))
    ds = mix_corpora(sources, id_col=a.id_col, salt=a.salt)
    return ds, {"out": a.out, "n_rows": ROWS, "n_sources": len(sources)}


@command(
    "compact", "rewrite a parquet dir at a target file size (tiny-file repair)",
    opt("--in", dest="inp", required=True, help="parquet path/dir"),
    opt("--out", required=True),
    opt("--target-mb", type=int, default=256,
        help="target bytes per output file (default 256 MiB)"),
)
def _compact(a):
    """Rewrite a parquet directory at a target file size — the
    operational fix for the tiny-file (or giant-file) problem that
    sharded/resumable runs accumulate at scale. Row-count preserving;
    column order preserved; block count derived from on-disk bytes."""
    import math

    total_bytes = sum(os.path.getsize(f) for f in _parquet_files(a.inp))
    n_blocks = max(1, math.ceil(total_bytes / (a.target_mb * 1024 * 1024)))
    return _read(a.inp).repartition(n_blocks), {
        "out": a.out,
        "input_bytes": total_bytes,
        "n_files_target": n_blocks,
        "n_rows": ROWS,
    }


@command(
    "sample",
    "deterministic hash sample of a parquet corpus (reproducible, nested)",
    *DOCS_IO,
    opt("--rate", type=float, required=True, help="keep probability in [0,1]"),
    opt("--salt", default="", help="hash-family salt (same salt => nested samples)"),
)
def _sample(a):
    from .functions.sampling import hash_sample

    ds = hash_sample(_read(a.docs), a.rate, id_col=a.id_col, salt=a.salt)
    return ds, {"out": a.out, "rate": a.rate, "n_kept": ROWS}


@command(
    "shuffle",
    "deterministic global reorder by hash of id (per-epoch "
    "training-order randomization; same salt => same order on any "
    "layout)",
    *DOCS_IO,
    opt("--salt", default="", help="order salt (one per epoch)"),
)
def _shuffle(a):
    from .functions.sampling import deterministic_shuffle

    ds = deterministic_shuffle(_read(a.docs), id_col=a.id_col, salt=a.salt)
    return ds, {"out": a.out, "salt": a.salt, "n_rows": ROWS}


@command(
    "group-sample",
    "balanced per-group sample: keep k deterministic rows per key value",
    *DOCS_IO,
    opt("--k", type=int, required=True, help="rows kept per group"),
    opt("--key-col", required=True),
    opt("--salt", default=""),
)
def _group_sample(a):
    from .functions.sampling import group_sample

    ds = group_sample(_read(a.docs), a.k, a.key_col, id_col=a.id_col, salt=a.salt)
    return ds, {"out": a.out, "k": a.k, "n_kept": ROWS}


@command(
    "lm",
    "train an n-gram LM (optionally on --train) and score each doc's perplexity",
    *DOCS,
    opt("--docs", required=True, help="documents parquet path/dir to score"),
    opt("--train", default=None,
        help="training corpus parquet (default: --docs itself)"),
    opt("--min-freq", type=int, default=1),
    opt("--buckets", action="store_true",
        help="CCNet head/middle/tail: tag each doc with its exact "
        "corpus-wide perplexity tercile instead of raw scores only"),
)
def _lm(a):
    from .functions.lm import ppl_buckets, score_perplexity, train_ngram_lm

    docs = _docs(a)
    train = _docs(a, a.train) if a.train else docs
    lm = train_ngram_lm(train, text_col=a.text_col, min_freq=a.min_freq)
    score = ppl_buckets if a.buckets else score_perplexity
    return score(docs, lm, text_col=a.text_col), {
        "out": a.out,
        "vocab_unigrams": len(lm.uni),
        "vocab_bigrams": len(lm.bi),
        "total_tokens": lm.total,
        "buckets": bool(a.buckets),
    }


@command(
    "train", "train the joint NER/MOD/REL heads (the reference --do_train loop)",
    one_of(
        opt("--conll", help="multihead CoNLL training file"),
        opt("--tagged", help="tagged-chunks parquet path/dir"),
    ),
    opt("--out", required=True, help="checkpoint dir (best dev model)"),
    opt("--epochs", type=int, default=20),
    opt("--batch-size", type=int, default=16),
    opt("--workers", type=int, default=2),
    opt("--down-neg", type=float, default=1.0,
        help="keep fraction for 'N' relation pairs (deterministic hash draw)"),
    opt("--lr", type=float, default=0.05),
    opt("--dev-ratio", type=float, default=0.2),
    opt("--seed", type=int, default=1029),
    opt("--analyzer", default="mecab"),
)
def _train(a):
    from .stages.train_joint import train_joint

    history = train_joint(
        a.conll if a.conll else _read(a.tagged), a.out, epochs=a.epochs,
        batch_size=a.batch_size, num_workers=a.workers, down_neg=a.down_neg,
        lr=a.lr, dev_ratio=a.dev_ratio, seed=a.seed, analyzer=a.analyzer,
    )
    return {
        "out": a.out,
        "n_train": history["n_train"],
        "n_dev": history["n_dev"],
        "final_loss": history["loss"][-1],
        "best": history["best"],
    }


@command(
    "decontam", "flag corpus docs sharing word n-grams with a benchmark parquet",
    *DOCS,
    opt("--docs", required=True, help="corpus documents parquet"),
    opt("--bench", required=True, help="benchmark documents parquet"),
    opt("--n", type=int, default=8),
    opt("--hashed", action="store_true",
        help="broadcast 64-bit gram hashes instead of strings (big benchmarks)"),
)
def _decontam(a):
    from .functions.decontam import benchmark_ngram_set, decontaminate

    grams = benchmark_ngram_set(_read(a.bench, [a.text_col]), n=a.n, text_col=a.text_col)
    ds = decontaminate(_docs(a), grams, n=a.n, text_col=a.text_col, hashed=a.hashed)
    return ds, {
        "out": a.out,
        "n_bench_grams": len(grams),
        "n_docs": ROWS,
        "n_contaminated": Sum("contaminated"),
    }


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


@command(
    "clean", "documents -> quality gate + exact/paragraph/near-dup cleaned corpus",
    *DOCS,
    opt("--spill", required=True, help="parquet scratch dir"),
    opt("--min-tokens", type=int, default=5),
    opt("--near-dup-threshold", type=float, default=0.8),
    opt("--url-col", default=None,
        help="enable canonical-URL keep-first dedup as stage 0"),
    opt("--pii", action="store_true",
        help="append the PII-masking pass (<EMAIL>/<IP>/<PHONE>) as the last stage"),
    opt("--span-min-len", type=int, default=None,
        help="enable exact-substring dedup of verbatim runs >= N tokens"),
    opt("--lm-train", default=None,
        help="trusted-corpus parquet: train a bigram LM and gate on --max-ppl"),
    opt("--decontam-bench", default=None,
        help="benchmark parquet: drop docs sharing any --decontam-n-gram with it"),
    opt("--compress-band", default=None,
        help="LO,HI micro band on the deflate-compression ratio (drop "
        "outside: below = repetition, above = noise); docs under 200 "
        "utf-8 bytes always pass"),
    opt("--decontam-n", type=int, default=3),
    opt("--max-ppl", type=float, default=None,
        help="drop docs whose per-token perplexity under the --lm-train LM exceeds this"),
    opt("--keep-lang", default=None,
        help="enable the language gate: keep only docs classified as this lang"),
    opt("--lang-backend", default="heuristic", choices=("heuristic", "fasttext")),
    opt("--lang-model", default=None, help="fasttext .bin path (lang-backend=fasttext)"),
    opt("--keep-quality", default=None,
        help="enable the model quality gate: keep only docs the "
        "--quality-model classifies as this label (e.g. hq)"),
    opt("--quality-model", default=None,
        help="supervised fasttext .bin path for --keep-quality"),
)
def _clean(a):
    from .functions.classifiers import broadcast_model_bytes
    from .functions.decontam import benchmark_ngram_set
    from .functions.lm import train_ngram_lm
    from .pipelines.clean import clean_corpus

    band = _parse_compress_band(a.compress_band)
    lm = grams = None
    if a.lm_train:
        lm = train_ngram_lm(
            _read(a.lm_train, [a.text_col]), text_col=a.text_col, min_freq=2
        )
    if a.decontam_bench:
        grams = benchmark_ngram_set(
            _read(a.decontam_bench, [a.text_col]), n=a.decontam_n, text_col=a.text_col
        )

    def model(path):
        return broadcast_model_bytes(path) if path else None

    cols = [a.id_col, a.text_col] + ([a.url_col] if a.url_col else [])
    cleaned, stats = clean_corpus(
        _read(a.docs, cols), a.spill, text_col=a.text_col, id_col=a.id_col,
        min_tokens=a.min_tokens, near_dup_threshold=a.near_dup_threshold,
        url_col=a.url_col, pii=a.pii, span_min_len=a.span_min_len, lm=lm,
        max_ppl=a.max_ppl, decontam_benchmark=grams, decontam_n=a.decontam_n,
        compress_band=band, keep_lang=a.keep_lang, lang_backend=a.lang_backend,
        lang_model=model(a.lang_model), keep_quality=a.keep_quality,
        quality_model=model(a.quality_model),
    )
    return cleaned, {"out": a.out, **stats}


@command(
    "bpe", "documents -> trained BPE merge table", *DOCS,
    opt("--out", required=True, help="output parquet FILE"),
    opt("--merges", type=int, default=200),
    opt("--min-freq", type=int, default=2),
    opt("--word-min-freq", type=int, default=None,
        help="prune word types below this count DISTRIBUTED-side before "
        "the driver collect (the corpus-scale path; pruned mass is "
        "recorded in the output metadata)"),
    opt("--apply-out", default=None,
        help="also segment the corpus with the trained merges -> parquet dir"),
)
def _bpe(a):
    import pyarrow.parquet as pq

    from .functions.bpe import segment_corpus, train_bpe

    docs = _docs(a)
    merges = train_bpe(
        docs, text_col=a.text_col, n_merges=a.merges, min_freq=a.min_freq,
        word_min_freq=a.word_min_freq,
    )
    pq.write_table(merges, a.out)
    out = {"out": a.out, "n_merges": merges.num_rows}
    if a.word_min_freq:
        out["pruned_word_mass"] = int(
            merges.schema.metadata.get(b"pruned_word_mass", b"0")
        )
    if a.apply_out:
        segment_corpus(docs, merges, text_col=a.text_col).write_parquet(a.apply_out)
        out["apply_out"] = a.apply_out
    return out


@command(
    "synth", "deterministic synthetic pages corpus",
    opt("--out", required=True),
    opt("--pages-n", type=int, default=1000),
    opt("--overwrite", action="store_true"),
    ray=False,
)
def _synth(a):
    from .fixtures import write_corpus

    out = write_corpus(a.out, a.pages_n, overwrite=a.overwrite)
    return {"out": out, "n_pages": a.pages_n}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="jamie_ray")
    sub = ap.add_subparsers(dest="command", required=True)
    for c in COMMANDS:
        p = sub.add_parser(c.name, help=c.help)
        p.set_defaults(cmd=c)
        # a command's own flag replaces the shared group's flag of the
        # same name (e.g. its --docs help) and keeps that flag's place
        flags = {names[0] if names else "": (names, kw) for names, kw in c.flags}
        for names, kw in flags.values():
            if not names:
                group = p.add_mutually_exclusive_group(required=True)
                for n, k in kw["one_of"]:
                    group.add_argument(*n, **k)
            else:
                p.add_argument(*names, **kw)
    return ap


def main(argv: list[str] | None = None) -> None:
    args = build_parser().parse_args(argv)
    c = args.cmd
    if c.ray:
        import ray

        if not ray.is_initialized():
            ray.init(address="local", include_dashboard=False, logging_level="ERROR")
    res = c.run(args)
    if isinstance(res, tuple):
        ds, summary = res
        ds.write_parquet(args.out)
        res = _summarize(args.out, summary)
    print(res if isinstance(res, str) else json.dumps({"command": c.name, **res}))


if __name__ == "__main__":
    main(sys.argv[1:])
