"""Column profiler — the corpus-QA front door a 100-TB ingest wants
before any pipeline runs: per-column row/null counts, typed min/max,
and distinct counts (exact below the sketch size, KMV estimate
beyond), in ONE streaming pass.

Shape: every block emits one WIDE partial row (per column: count,
null count, typed min/max, the k smallest value hashes); the driver
reduces one row per block — bounded at any corpus size — with typed
Python compares for min/max and sorted-union-truncate for the KMV
sketches (the ``functions/sketch.py`` estimator). No shuffle at all.

No reference analogue (the reference never profiles its corpora);
brief-driven, composing the engine's sketch family.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..hashing import stable_hash64

_KMV_SEED = "kmv"  # same hash family as sketch.kmv_distinct


def _profilable(t: pa.DataType) -> bool:
    return (
        pa.types.is_integer(t)
        or pa.types.is_floating(t)
        or pa.types.is_boolean(t)
        or pa.types.is_string(t)
        or pa.types.is_large_string(t)
        or pa.types.is_temporal(t)
    )


def profile_columns(ds, cols=None, *, kmv_k: int = 8192) -> pa.Table:
    """Dataset -> one profile row per column:
    (column, n, n_null, n_distinct, distinct_exact, min, max).

    ``n_distinct`` is exact while a column's true distinct count stays
    below ``kmv_k`` (``distinct_exact`` says which regime a row is in);
    beyond that it is the standard KMV estimate ``(k-1) * 2^64 / h_k``.
    ``min``/``max`` are rendered with ``str()`` so the output schema is
    uniform across column types (null for all-null or unprofilable
    columns). Deterministic on any block layout: counts are sums,
    min/max are order-free reduces, the hash set is layout-free.
    """
    schema = ds.schema().base_schema
    cols = list(cols) if cols is not None else list(schema.names)
    for c in cols:
        if c not in schema.names:
            raise KeyError(f"profile_columns: no column {c!r}")
    types = {c: schema.field(c).type for c in cols}

    def partial(batch: pa.Table) -> pa.Table:
        out: dict = {}
        for c in cols:
            col = batch.column(c)
            out[f"{c}__n"] = pa.array([len(col)], pa.int64())
            out[f"{c}__null"] = pa.array([col.null_count], pa.int64())
            valid = col.drop_null()
            ok = _profilable(types[c]) and len(valid) > 0
            if ok:
                mm = pc.min_max(col)
                mn, mx = mm["min"].as_py(), mm["max"].as_py()
            else:
                mn = mx = None
            out[f"{c}__min"] = pa.array([mn], types[c] if _profilable(types[c]) else pa.null())
            out[f"{c}__max"] = pa.array([mx], types[c] if _profilable(types[c]) else pa.null())
            if ok:
                hs = np.unique(
                    np.array(
                        [stable_hash64(_KMV_SEED, v) for v in valid.to_pylist()],
                        dtype=np.uint64,
                    )
                )[:kmv_k].tolist()
            else:
                hs = []
            out[f"{c}__kmv"] = pa.array([hs], pa.list_(pa.uint64()))
        return pa.table(out)

    # one partial row per block through the driver — bounded
    rows = ds.map_batches(partial, batch_format="pyarrow").take_all()

    out_rows = []
    for c in cols:
        n = sum(r[f"{c}__n"] for r in rows)
        n_null = sum(r[f"{c}__null"] for r in rows)
        mins = [r[f"{c}__min"] for r in rows if r[f"{c}__min"] is not None]
        maxs = [r[f"{c}__max"] for r in rows if r[f"{c}__max"] is not None]
        merged: np.ndarray = np.array([], dtype=np.uint64)
        for r in rows:
            hs = r[f"{c}__kmv"]
            if len(hs):
                merged = np.unique(np.concatenate([merged, np.asarray(hs, np.uint64)]))[
                    :kmv_k
                ]
        if len(merged) < kmv_k:
            n_distinct, exact = len(merged), True
        else:
            n_distinct = int((kmv_k - 1) * (2**64) / int(merged[-1]))
            exact = False
        if not _profilable(types[c]):
            n_distinct, exact = 0, False
        out_rows.append(
            {
                "column": c,
                "n": n,
                "n_null": n_null,
                "n_distinct": n_distinct,
                "distinct_exact": exact,
                "min": str(min(mins)) if mins else None,
                "max": str(max(maxs)) if maxs else None,
            }
        )
    return pa.Table.from_pylist(
        out_rows,
        schema=pa.schema(
            [
                ("column", pa.string()),
                ("n", pa.int64()),
                ("n_null", pa.int64()),
                ("n_distinct", pa.int64()),
                ("distinct_exact", pa.bool_()),
                ("min", pa.string()),
                ("max", pa.string()),
            ]
        ),
    )


def corpus_report(
    ds,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    url_col: str | None = None,
    domain_phi: float = 0.001,
    kmv_k: int = 8192,
    quantile_k: int = 4096,
) -> dict:
    """One-command corpus data card over a documents table — the
    profiling front door a new corpus gets before any cleaning run.
    Up to five streaming scans, every driver collection bounded:

    1. :func:`profile_columns` over every column (per-block partials);
    2. ONE chained text pass (``token_count_batch`` →
       ``quality_score_batch`` → ``lang_id_batch``) emitting a single
       partial row per block — integer sums plus the heuristic
       language histogram (closed set ``ja|en|other|''``), so the
       reduce is layout-free and bit-deterministic;
    3. one-pass approximate token-count quantiles
       (``sketch.quantiles_approx`` hash reservoir, p50/p90/p99);
    4. with ``url_col``: the two ``sketch.heavy_hitters`` passes
       (Misra-Gries candidates, then exact counts) for ``top_domains``.

    A derived input re-executes its upstream once per scan: pass a
    source-backed Dataset (a parquet read, as the CLI does).

    Returns a plain JSON-serializable dict. Mean columns are integer
    micro units (floor division), the repo-wide oracle discipline.
    """
    import pyarrow.compute as pc

    from .sketch import quantiles_approx
    from .text_analysis import (
        lang_id_batch,
        quality_score_batch,
        token_count_batch,
    )

    LANGS = ("ja", "en", "other", "")

    def text_partial(batch: pa.Table) -> pa.Table:
        # NULL text counts as the empty document everywhere in the
        # card (0 tokens, lang 'empty') — never silently skipped
        i = batch.schema.get_field_index(text_col)
        batch = batch.set_column(
            i,
            text_col,
            pc.coalesce(batch.column(text_col), pa.scalar("", pa.string())),
        )
        b = lang_id_batch(
            quality_score_batch(
                token_count_batch(batch, text_col=text_col),
                text_col=text_col,
            ),
            text_col=text_col,
        )
        row: dict = {
            "n_docs": [batch.num_rows],
            "sum_tokens": [
                int(pc.sum(b.column("n_tokens")).as_py() or 0)
            ],
            "sum_bpe": [int(pc.sum(b.column("n_bpe")).as_py() or 0)],
            "sum_quality_micro": [
                int(pc.sum(b.column("quality_micro")).as_py() or 0)
            ],
        }
        preds = b.column("lang_pred")
        for lang in LANGS:
            key = f"lang_{lang or 'empty'}"
            row[key] = [
                int(
                    pc.sum(
                        pc.cast(pc.equal(preds, lang), pa.int64())
                    ).as_py()
                    or 0
                )
            ]
        return pa.table({k: pa.array(v, pa.int64()) for k, v in row.items()})

    partials = ds.map_batches(text_partial, batch_format="pyarrow").take_all()
    totals: dict = {}
    for r in partials:  # one short row per block — bounded by block count
        for k_, v in r.items():
            totals[k_] = totals.get(k_, 0) + int(v)
    n_docs = totals.get("n_docs", 0)

    def tok_rows(b: pa.Table) -> pa.Table:
        # NULL text counts as 0 tokens (the quantile kernel rejects
        # nulls loudly; the sums above already treat null as 0)
        t = token_count_batch(b, text_col=text_col)
        return pa.table(
            {
                id_col: t.column(id_col),
                "n_tokens": pc.coalesce(
                    t.column("n_tokens"), pa.scalar(0, pa.int64())
                ),
            }
        )

    tok_ds = ds.map_batches(tok_rows, batch_format="pyarrow")
    if n_docs > 0:
        qt = quantiles_approx(
            tok_ds, "n_tokens", [0.5, 0.9, 0.99], id_col=id_col, k=quantile_k
        )
        tok_quantiles = {
            f"p{int(q * 100)}": v
            for q, v in zip(
                [0.5, 0.9, 0.99], qt.column("value").to_pylist()
            )
        }
    else:
        tok_quantiles = {}

    top_domains: list[dict] | None = None
    if url_col is not None and n_docs > 0:
        # per-domain concentration: exact counts of every domain
        # holding >= domain_phi of the corpus (Misra-Gries candidates
        # + exact second pass — functions/sketch.py), the crawl-health
        # signal a data card leads with
        from .sketch import heavy_hitters
        from .urlnorm import add_domain

        doms = add_domain(ds, url_col=url_col).map_batches(
            lambda b: b.select(["domain"]).filter(
                pc.is_valid(b.column("domain"))
            ),
            batch_format="pyarrow",
        )
        # size the MG summary to the requested phi: heavy_hitters
        # requires k >= 1/phi (recall bound) and its default k=1024
        # would reject any phi below ~0.001
        hh_k = max(1024, int(1.0 / domain_phi) + 1)
        hh = heavy_hitters(doms, "domain", phi=domain_phi, k=hh_k)
        rows = hh.take_all()  # <= k rows by construction (MG summary)
        rows.sort(key=lambda r: (-int(r["n"]), r["domain"]))
        top_domains = [
            {"domain": r["domain"], "n": int(r["n"])} for r in rows
        ]

    out = {
        "n_docs": n_docs,
        "columns": profile_columns(ds, kmv_k=kmv_k).to_pylist(),
        "text": {
            "sum_tokens": totals.get("sum_tokens", 0),
            "sum_bpe": totals.get("sum_bpe", 0),
            "mean_tokens_micro": (
                totals.get("sum_tokens", 0) * 1_000_000 // n_docs
                if n_docs
                else 0
            ),
            "mean_quality_micro": (
                totals.get("sum_quality_micro", 0) // n_docs if n_docs else 0
            ),
            "token_count_quantiles_approx": tok_quantiles,
            "lang_counts": {
                (lang or "empty"): totals.get(f"lang_{lang or 'empty'}", 0)
                for lang in LANGS
            },
        },
    }
    if top_domains is not None:
        out["top_domains"] = top_domains
    return out
