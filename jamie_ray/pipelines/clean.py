"""Composite corpus-cleaning pipeline — the canonical training-data
preparation chain (cf. Gopher/C4/RefinedWeb-style pipelines in the
public literature), composed from this engine's first-class operators:

0. **URL dedup** (opt-in, ``url_col=``): keep-first by canonical URL
   (``urlnorm.url_dedup``) — the cheap crawl-level pass that removes
   re-crawls under cosmetic URL variants before any content hashing;
1. **quality gate** (vectorized ``map_batches``): drop docs below a
   token floor, above a repetition ceiling (``repetition_batch``), or
   below a quality-score floor (``quality_score_batch``); opt-in
   language / model-quality / perplexity / benchmark-decontamination
   gates follow in that order;
2. **exact dedup**: keep only each distinct text's minimum doc id
   (``exact_dedup``; the broadcast hash->winner map covers only
   DUPLICATED texts — bounded by duplicate mass);
3. **paragraph dedup**: cross-corpus keep-first boilerplate removal
   (``paragraph_dedup``) rewriting the surviving texts;
4. **near-dup collapse**: minhash-LSH clusters over the cleaned text
   (``minhash_clusters``), keeping each cluster's representative
   (``cluster_id == doc_id`` — the min id, the engine-wide rule).

Returns the cleaned Dataset plus a stats dict of per-stage drop
counts. Every stage streams; the only driver state is the exact-dup
winner map and the near-dup LOSER id set, both duplicate-mass-bounded
and loudly capped (``state/collect.py``). Each stage's output text is
spilled to parquet once (``spill_dir``) because the downstream dedup
operators are multi-pass — the shape ``materialize_graph`` finalize
gives ``link_triples(cache_input=False)``: write once, re-read per
pass.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray

DEFAULT_MIN_TOKENS = 5
DEFAULT_MAX_DUP3GRAM = 500_000  # micro units: >50% repeated 3-grams
DEFAULT_MIN_QUALITY = 0  # micro units; 0 = disabled


def clean_corpus(
    docs,
    spill_dir: str,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    line_clean: bool = False,
    gopher: bool = False,
    compress_band: tuple[int, int] | None = None,
    compress_min_bytes: int = 200,
    min_tokens: int = DEFAULT_MIN_TOKENS,
    max_dup3gram_micro: int = DEFAULT_MAX_DUP3GRAM,
    min_quality_micro: int = DEFAULT_MIN_QUALITY,
    near_dup_threshold: float = 0.8,
    url_col: str | None = None,
    pii: bool = False,
    span_min_len: int | None = None,
    lm=None,
    max_ppl: float | None = None,
    decontam_benchmark=None,
    decontam_n: int = 3,
    decontam_hashed: bool = False,
    keep_lang: str | None = None,
    lang_backend: str = "heuristic",
    lang_model=None,
    keep_quality: str | None = None,
    quality_model=None,
    embeddings=None,
    semantic_threshold: float = 0.9,
    semantic_id_col: str = "doc_id",
    semantic_vec_col: str = "embedding",
    semantic_n_centroids: int = 16,
):
    """documents -> (cleaned Dataset ``(doc_id, text)``, stats dict).

    ``spill_dir`` (required): parquet scratch for the post-paragraph
    text, re-read by the multi-pass near-dup stage. Stats fields:
    ``n_input``, ``n_after_quality``, ``n_after_exact``,
    ``n_after_near_dup`` (paragraph dedup rewrites text but never
    drops documents, so it has no count of its own), plus
    ``n_after_url`` when ``url_col`` is given (keep-first by
    canonical URL, default ``strip_www`` canonicalization).

    ``line_clean=True`` enables the C4-style line-level cleaning pass
    (``text_analysis.c4_filter_batch`` — terminal-punct / min-words /
    javascript line rules; brace / lorem-ipsum / min-kept-lines doc
    rules) right before the heuristic quality gate: surviving docs
    carry their kept lines re-joined with ``\\n``. Stats gain
    ``n_after_line_clean``.

    ``gopher=True`` extends the heuristic quality gate with the
    Gopher §A1.1 document thresholds (``text_analysis.
    gopher_quality_batch``: mean word length in [3, 10], symbol-to-
    word <= 0.1, alpha-word >= 0.8, bullet lines <= 0.9, ellipsis
    lines <= 0.3) in the SAME streaming pass — no extra scan, no
    stat of its own (drops fold into ``n_after_quality``).

    ``compress_band=(lo, hi)`` extends the heuristic quality gate with
    the RefinedWeb/Dolma-style deflate-compressibility band
    (``text_analysis.compression_ratio_batch``, micro units): docs
    whose ``compress_micro`` falls OUTSIDE ``[lo, hi]`` are dropped —
    below = pathological repetition, above = incompressible noise.
    Docs shorter than ``compress_min_bytes`` utf-8 bytes always pass
    (zlib header overhead dominates tiny inputs and the ratio is
    meaningless there). Same streaming pass, drops fold into
    ``n_after_quality``.

    ``pii=True`` appends the PII-masking pass (``functions/pii.py``:
    email/IPv4/phone sentinels) as the LAST stage — after dedup, so
    masking can't merge documents that differed only in their PII,
    and streaming, so it adds no pass over the spill. Output keeps
    the ``(doc_id, text)`` contract (per-doc counts are available via
    the standalone ``mask_pii``).

    ``span_min_len=N`` enables the exact-substring pass
    (``dedup_docs.span_dedup``) between paragraph dedup and near-dup:
    verbatim-repeated runs of >= N tokens survive only at their first
    occurrence. Note it whitespace-normalizes the surviving text
    (single-space join) — leave it off when byte-exact text matters
    downstream.

    ``keep_lang="ja"`` enables the language gate right after the
    heuristic quality gate: documents whose ``lang_pred`` differs are
    dropped. ``lang_backend`` selects the classifier —
    ``"heuristic"`` (default; the deterministic CJK/latin kernel,
    oracle-checkable) or ``"fasttext"`` (a REAL trained model via the
    optional ``fasttext`` package; pass ``lang_model=`` a path or a
    ``classifiers.broadcast_model_bytes`` ref — loud ImportError when
    the package is missing). Stats gain ``n_after_lang``.

    ``keep_quality="hq"`` + ``quality_model=`` enable the GPT-3/CCNet
    model-based quality gate right after the language gate: a trained
    supervised fastText classifier (path or
    ``classifiers.broadcast_model_bytes`` ref — loud ImportError when
    the optional package is missing) scores every document and only
    those predicted as ``keep_quality`` survive. Distinct from the
    heuristic ``min_quality_micro`` floor, which stays deterministic
    and oracle-checkable. Stats gain ``n_after_quality_model``.

    ``embeddings=`` enables the SemDeDup stage (``similarity.
    semantic_dedup``) AFTER near-dup: pass a source-backed embeddings
    Dataset keyed by the same ids (``semantic_id_col`` /
    ``semantic_vec_col``); documents whose vector is a semantic
    duplicate of a lower-id cluster member at ``semantic_threshold``
    are dropped (keep-first). The embeddings are first restricted to
    the SURVIVING corpus (one semi-join shuffle), so a doc an earlier
    gate removed can never be the kept representative. Docs without a
    vector are always kept. Stats gain ``n_after_semantic``.

    ``decontam_benchmark=`` enables the benchmark-decontamination gate
    (``functions/decontam.py``, Brown et al. 2020 app. C shape) right
    after the perplexity gate and BEFORE the dedup stages (a dropped
    doc can then never be a kept dedup representative): documents
    sharing any word ``decontam_n``-gram with the benchmark are
    removed. Accepts a set/iterable of gram strings, a prior
    ``ray.put`` ref, or — with ``decontam_hashed=True`` — 64-bit gram
    hashes (8 B/gram broadcast for very large benchmarks). The
    contaminated-ID set is collected under the edge cap (bounded by
    contamination mass, the near-dup LOSER-set convention) and the
    drop pass streams. Stats gain ``n_after_decontam``.

    ``lm=`` + ``max_ppl=`` enable the CCNet-style perplexity gate
    (Wenzek et al. 2020): pass a trained :class:`~jamie_ray.functions.
    lm.NgramLM` (or a prior ``ray.put`` ref — typically trained on a
    TRUSTED corpus, not the one being cleaned) and documents whose
    per-token perplexity exceeds ``max_ppl`` are dropped right after
    the heuristic quality gate (broadcast LM, streaming, no extra
    spill pass). Stats gain ``n_after_lm``. Empty docs (NaN ppl) are
    dropped by this gate — min_tokens normally removes them first.
    """
    import os

    from ..functions.dedup_docs import (
        exact_dedup,
        minhash_clusters,
        paragraph_dedup,
    )
    from ..functions.text_analysis import (
        quality_score_batch,
        repetition_batch,
        token_count_batch,
    )
    from ..state.collect import iter_capped_batches
    from ..state.worker_cache import cached_get

    from ..functions.dedup_docs import _spill_input

    # argument-pairing validation UP FRONT: these are checkable before
    # any work starts, and a mid-pipeline raise would land only after
    # several full corpus passes (hours at real scale)
    if (keep_quality is None) != (quality_model is None):
        raise ValueError(
            "clean_corpus: keep_quality and quality_model must be given together"
        )
    if (lm is None) != (max_ppl is None):
        raise ValueError("clean_corpus: lm and max_ppl must be given together")
    if compress_band is not None:
        try:
            lo_b, hi_b = (int(x) for x in compress_band)
        except (TypeError, ValueError):
            raise ValueError(
                f"clean_corpus: compress_band must be (lo, hi) ints, "
                f"got {compress_band!r}"
            )
        if lo_b > hi_b:
            raise ValueError(
                f"clean_corpus: compress_band lo > hi: {compress_band!r}"
            )
        compress_band = (lo_b, hi_b)

    # spill the raw input FIRST: a derived upstream executes exactly
    # once (the repo-wide spill contract), n_input reads from parquet
    # metadata, and every later pass is source-backed
    input_cols = [id_col, text_col] + ([url_col] if url_col else [])
    docs = _spill_input(docs, os.path.join(spill_dir, "input"), input_cols)
    n_input = docs.count()

    n_after_url: int | None = None
    if url_col is not None:
        # stage 0: keep-first by canonical URL. Same broadcast shape as
        # the exact-dup stage: the n_dups > 1 filter runs distributed-
        # side so the capped driver map covers only DUPLICATED canonical
        # URLs — bounded by re-crawl mass, never one row per page.
        from ..functions.urlnorm import canonicalize_url, url_dedup

        url_winners_ds = url_dedup(
            docs, url_col=url_col, id_col=id_col
        ).map_batches(
            lambda b: b.filter(pc.greater(b.column("n_dups"), 1)).select(
                ["canonical_url", id_col]
            ),
            batch_format="pyarrow",
        )
        win_by_url: dict[str, int] = {}
        for b in iter_capped_batches(
            url_winners_ds, context="clean_corpus url-dup winner map"
        ):
            win_by_url.update(
                zip(
                    b.column("canonical_url").to_pylist(),
                    b.column(id_col).to_pylist(),
                )
            )
        url_win_ref = ray.put(win_by_url)

        def drop_losing_urls(b: pa.Table) -> pa.Table:
            wins = cached_get(url_win_ref, "clean_url_win_map")
            mask = [
                (w is None) or (w == i)
                for i, w in (
                    (i, wins.get(canonicalize_url(u)))
                    for i, u in zip(
                        b.column(id_col).to_pylist(),
                        b.column(url_col).to_pylist(),
                    )
                )
            ]
            return b.filter(pa.array(mask, pa.bool_())).select(
                [id_col, text_col]
            )

        docs = _spill_input(
            docs.map_batches(drop_losing_urls, batch_format="pyarrow"),
            os.path.join(spill_dir, "url"),
            [id_col, text_col],
        )
        n_after_url = docs.count()

    n_after_line_clean: int | None = None
    if line_clean:
        # C4-style line-level cleaning (Raffel et al. 2020 §2.2) right
        # before the heuristic quality gate: rewrites text to the kept
        # lines and drops brace/lorem/too-few-line docs. Streaming, no
        # shuffle; one spill so the multi-pass stages below re-read the
        # REWRITTEN text (the repo-wide spill contract).
        from ..functions.text_analysis import c4_filter_batch

        docs = _spill_input(
            docs.map_batches(
                lambda b: c4_filter_batch(b, text_col),
                batch_format="pyarrow",
            ),
            os.path.join(spill_dir, "linec"),
            [id_col, text_col],
        )
        n_after_line_clean = docs.count()

    def quality_gate(b: pa.Table) -> pa.Table:
        b = repetition_batch(
            quality_score_batch(
                token_count_batch(b, text_col=text_col), text_col=text_col
            ),
            text_col=text_col,
        )
        keep = pc.and_(
            pc.and_(
                pc.greater_equal(b.column("n_tokens"), min_tokens),
                pc.less_equal(b.column("dup3gram_micro"), max_dup3gram_micro),
            ),
            pc.greater_equal(b.column("quality_micro"), min_quality_micro),
        )
        if gopher:
            # Gopher §A1.1 document thresholds over the integer-exact
            # signal columns (same streaming pass, no extra scan):
            # mean word length in [3, 10], symbol-to-word <= 0.1,
            # alpha-word fraction >= 0.8, bullet lines <= 0.9,
            # ellipsis lines <= 0.3
            from ..functions.text_analysis import gopher_quality_batch

            b = gopher_quality_batch(b, text_col=text_col)
            for col, lo, hi in (
                ("mean_word_len_micro", 3_000_000, 10_000_000),
                ("symbol_word_micro", None, 100_000),
                ("alpha_word_micro", 800_000, None),
                ("bullet_line_micro", None, 900_000),
                ("ellipsis_line_micro", None, 300_000),
            ):
                if lo is not None:
                    keep = pc.and_(keep, pc.greater_equal(b.column(col), lo))
                if hi is not None:
                    keep = pc.and_(keep, pc.less_equal(b.column(col), hi))
        out = b.filter(keep)
        if compress_band is not None:
            # AFTER the cheap masks: zlib is the heaviest per-row
            # kernel in this pass, so it only runs on rows every
            # earlier rule already kept (ANDed masks — semantics
            # identical, drops still fold into n_after_quality)
            from ..functions.text_analysis import compression_ratio_batch

            lo, hi = compress_band
            out = compression_ratio_batch(out, text_col=text_col)
            nbytes = pc.binary_length(
                pc.cast(
                    pc.coalesce(
                        out.column(text_col), pa.scalar("", pa.string())
                    ),
                    pa.binary(),
                )
            )
            small = pc.less(nbytes, compress_min_bytes)
            in_band = pc.and_(
                pc.greater_equal(out.column("compress_micro"), lo),
                pc.less_equal(out.column("compress_micro"), hi),
            )
            out = out.filter(pc.or_(small, in_band))
        return out.select([id_col, text_col])

    # downstream stages are multi-pass: spill the gated text once
    gated = _spill_input(
        docs.map_batches(quality_gate, batch_format="pyarrow"),
        os.path.join(spill_dir, "gated"),
        [id_col, text_col],
    )
    n_after_quality = gated.count()

    n_after_lang: int | None = None
    if keep_lang is not None:
        # language gate: classify with the selected backend, keep only
        # keep_lang. Streaming for the heuristic; an actor pool for the
        # model backend (load once per actor). One extra spill so the
        # fasttext actors never re-run on the multi-pass stages below.
        from ..functions.classifiers import lang_id_stage

        langed = lang_id_stage(
            gated, backend=lang_backend, model=lang_model, text_col=text_col
        ).map_batches(
            lambda b: b.filter(
                pc.equal(b.column("lang_pred"), keep_lang)
            ).select([id_col, text_col]),
            batch_format="pyarrow",
        )
        gated = _spill_input(
            langed, os.path.join(spill_dir, "lang"), [id_col, text_col]
        )
        n_after_lang = gated.count()

    n_after_quality_model: int | None = None
    if keep_quality is not None:
        # model-based quality gate (GPT-3/CCNet shape): broadcast-once
        # fastText classifier in an actor pool, keep only docs
        # predicted as keep_quality. One spill so the actors never
        # re-run on the multi-pass stages below.
        from ..functions.classifiers import fasttext_classify

        gated = _spill_input(
            fasttext_classify(
                gated,
                quality_model,
                out_prefix="quality",
                keep=keep_quality,
                text_col=text_col,
            ).map_batches(
                lambda b: b.select([id_col, text_col]), batch_format="pyarrow"
            ),
            os.path.join(spill_dir, "qmodel"),
            [id_col, text_col],
        )
        n_after_quality_model = gated.count()

    n_after_lm: int | None = None
    if lm is not None:
        # CCNet-style perplexity gate: broadcast the (trusted-corpus)
        # LM once, drop docs scoring worse than max_ppl — streaming,
        # per-doc fixed-order sums, no shuffle
        import math

        from ..functions.text_analysis import ws_tokens

        lm_ref = lm if isinstance(lm, ray.ObjectRef) else ray.put(lm)

        def lm_gate(b: pa.Table) -> pa.Table:
            model = cached_get(lm_ref, "clean_lm_gate")
            keep = []
            for t in b.column(text_col).to_pylist():
                toks = ws_tokens(t)
                if not toks:
                    keep.append(False)
                    continue
                lp = model.logprob(toks)
                keep.append(math.exp(-lp / len(toks)) <= max_ppl)
            return b.filter(pa.array(keep, pa.bool_()))

        gated = _spill_input(
            gated.map_batches(lm_gate, batch_format="pyarrow"),
            os.path.join(spill_dir, "lm"),
            [id_col, text_col],
        )
        n_after_lm = gated.count()

    n_after_decontam: int | None = None
    if decontam_benchmark is not None:
        # benchmark decontamination (broadcast gram set + streaming
        # flag pass): collect only CONTAMINATED ids under the cap —
        # bounded by contamination mass, never one id per clean doc
        from ..functions.decontam import decontaminate

        contaminated_ids = decontaminate(
            gated,
            decontam_benchmark,
            n=decontam_n,
            text_col=text_col,
            hashed=decontam_hashed,
        ).map_batches(
            lambda b: b.filter(
                pc.equal(b.column("contaminated"), 1)
            ).select([id_col]),
            batch_format="pyarrow",
        )
        bad_ids: set = set()
        for b in iter_capped_batches(
            contaminated_ids, context="clean_corpus decontam id set"
        ):
            bad_ids.update(b.column(id_col).to_pylist())
        bad_ref = ray.put(frozenset(bad_ids))

        def drop_contaminated(b: pa.Table) -> pa.Table:
            bad = cached_get(bad_ref, "clean_decontam_ids")
            mask = [i not in bad for i in b.column(id_col).to_pylist()]
            return b.filter(pa.array(mask, pa.bool_()))

        gated = _spill_input(
            gated.map_batches(drop_contaminated, batch_format="pyarrow"),
            os.path.join(spill_dir, "decontam"),
            [id_col, text_col],
        )
        n_after_decontam = gated.count()

    # exact dedup: the broadcast must distinguish "unique text" (keep)
    # from "losing duplicate" (drop), so it carries the winner id PER
    # duplicated HASH. The n_dups > 1 filter runs DISTRIBUTED-side so
    # the capped driver collection sees only duplicated groups —
    # bounded by duplicate mass, never one row per distinct text.
    dup_winners_ds = exact_dedup(
        gated, text_col=text_col, id_col=id_col
    ).map_batches(
        lambda b: b.filter(pc.greater(b.column("n_dups"), 1)).select(
            ["text_hash", id_col]
        ),
        batch_format="pyarrow",
    )
    win_by_hash: dict[str, int] = {}
    for b in iter_capped_batches(
        dup_winners_ds, context="clean_corpus exact-dup winner map"
    ):
        win_by_hash.update(
            zip(
                b.column("text_hash").to_pylist(),
                b.column(id_col).to_pylist(),
            )
        )
    win_ref = ray.put(win_by_hash)

    def drop_losing_dups(b: pa.Table) -> pa.Table:
        from ..functions.text_analysis import fingerprint_batch

        wins = cached_get(win_ref, "clean_exact_win_map")
        b2 = fingerprint_batch(b, text_col)
        mask = [
            (w is None) or (w == i)
            for i, w in (
                (i, wins.get(h))
                for i, h in zip(
                    b2.column(id_col).to_pylist(),
                    b2.column("text_hash").to_pylist(),
                )
            )
        ]
        return b.filter(pa.array(mask, pa.bool_()))

    exact_kept = _spill_input(
        gated.map_batches(drop_losing_dups, batch_format="pyarrow"),
        os.path.join(spill_dir, "exact"),
        [id_col, text_col],
    )
    n_after_exact = exact_kept.count()

    # paragraph dedup rewrites text (never drops docs)
    cleaned = _spill_input(
        paragraph_dedup(exact_kept, text_col=text_col, id_col=id_col).map_batches(
            lambda b: pa.table(
                {id_col: b.column(id_col), text_col: b.column("clean_text")}
            ),
            batch_format="pyarrow",
        ),
        os.path.join(spill_dir, "para"),
        [id_col, text_col],
    )

    if span_min_len is not None:
        # opt-in exact-substring pass (also rewrites, never drops):
        # after paragraph dedup (coarse boilerplate first, so spans
        # only pay for what paragraphs missed), before near-dup
        # (minhash shingles are token-based, so the space-joined
        # rewrite is transparent to it)
        from ..functions.dedup_docs import span_dedup

        cleaned = _spill_input(
            span_dedup(
                cleaned, text_col=text_col, id_col=id_col, min_len=span_min_len
            ).map_batches(
                lambda b: pa.table(
                    {id_col: b.column(id_col), text_col: b.column("clean_text")}
                ),
                batch_format="pyarrow",
            ),
            os.path.join(spill_dir, "span"),
            [id_col, text_col],
        )

    # near-dup collapse: keep cluster representatives. Collect only
    # the NON-representatives (doc_id != cluster_id) — bounded by
    # near-dup mass, unlike the representative set, which is
    # corpus-scale (every singleton represents itself). The filter
    # runs distributed-side so the capped collection never streams
    # the full per-doc cluster table through the driver.
    clusters = minhash_clusters(
        cleaned, text_col=text_col, id_col=id_col, threshold=near_dup_threshold
    )
    losers_ds = clusters.map_batches(
        lambda b: b.filter(
            pc.invert(pc.equal(b.column(id_col), b.column("cluster_id")))
        ).select([id_col]),
        batch_format="pyarrow",
    )
    drop_ids: set[int] = set()
    for b in iter_capped_batches(
        losers_ds, context="clean_corpus near-dup losers"
    ):
        drop_ids.update(b.column(id_col).to_pylist())
    drop_ref = ray.put(drop_ids)

    def drop_near_dups(b: pa.Table) -> pa.Table:
        drops = cached_get(drop_ref, "clean_near_dup_drops")
        mask = [i not in drops for i in b.column(id_col).to_pylist()]
        return b.filter(pa.array(mask, pa.bool_()))

    final = cleaned.map_batches(drop_near_dups, batch_format="pyarrow")

    n_after_semantic: int | None = None
    if embeddings is not None:
        # opt-in SemDeDup stage: AFTER near-dup (text-level dedup is
        # cheaper, so semantic only pays for what survived) and before
        # PII. Same loser-collection shape as near-dup: only rows with
        # dup_of >= 0 (bounded by semantic-duplicate mass, never
        # corpus-scale) cross the driver, then a broadcast drop filter.
        # A doc without a vector is always kept.
        #
        # The embeddings are first RESTRICTED to the surviving corpus
        # (one bucketed semi-join shuffle) — a vector whose doc an
        # earlier gate already dropped must not act as a lower-id
        # representative, or its surviving semantic twin would be
        # dropped too and the content would vanish entirely
        # (keep-first promises the kept representative is in the
        # OUTPUT). The restricted table spills once because the
        # clusterer is multi-pass.
        from ..functions.join import hash_join
        from ..functions.similarity import semantic_dedup

        # spill the post-near-dup corpus ONCE: this stage consumes it
        # twice (the semi-join's survivor ids + the final drop pass),
        # and re-executing the drop filter over the full cleaned text
        # is a whole extra corpus pass (the module's spill contract)
        final = _spill_input(
            final, os.path.join(spill_dir, "pre_semantic"), [id_col, text_col]
        )
        emb_surv = hash_join(
            embeddings,
            final.select_columns([id_col]),
            on=semantic_id_col,
            right_on=id_col,
            how="semi",
        )
        emb_surv = _spill_input(
            emb_surv,
            os.path.join(spill_dir, "sem_emb"),
            [semantic_id_col, semantic_vec_col],
        )
        sem_flags = semantic_dedup(
            emb_surv,
            threshold=semantic_threshold,
            id_col=semantic_id_col,
            vec_col=semantic_vec_col,
            n_centroids=semantic_n_centroids,
        )
        sem_losers_ds = sem_flags.map_batches(
            lambda b: b.filter(
                pc.greater_equal(b.column("dup_of"), 0)
            ).select([semantic_id_col]),
            batch_format="pyarrow",
        )
        sem_drops: set[int] = set()
        for b in iter_capped_batches(
            sem_losers_ds, context="clean_corpus semantic-dup losers"
        ):
            sem_drops.update(b.column(semantic_id_col).to_pylist())
        sem_ref = ray.put(sem_drops)

        def drop_semantic_dups(b: pa.Table) -> pa.Table:
            drops = cached_get(sem_ref, "clean_semantic_drops")
            mask = [i not in drops for i in b.column(id_col).to_pylist()]
            return b.filter(pa.array(mask, pa.bool_()))

        final = _spill_input(
            final.map_batches(drop_semantic_dups, batch_format="pyarrow"),
            os.path.join(spill_dir, "semantic"),
            [id_col, text_col],
        )
        n_after_semantic = final.count()

    if pii:
        from ..functions.pii import pii_mask_batch

        final = final.map_batches(
            lambda b: pii_mask_batch(b, text_col=text_col).select(
                [id_col, text_col]
            ),
            batch_format="pyarrow",
        )
    stats = {
        "n_input": n_input,
        "n_after_quality": n_after_quality,
        "n_after_exact": n_after_exact,
        "n_after_near_dup": n_after_exact - len(drop_ids),
    }
    if n_after_url is not None:
        stats["n_after_url"] = n_after_url
    if n_after_line_clean is not None:
        stats["n_after_line_clean"] = n_after_line_clean
    if n_after_lm is not None:
        stats["n_after_lm"] = n_after_lm
    if n_after_decontam is not None:
        stats["n_after_decontam"] = n_after_decontam
    if n_after_lang is not None:
        stats["n_after_lang"] = n_after_lang
    if n_after_quality_model is not None:
        stats["n_after_quality_model"] = n_after_quality_model
    if n_after_semantic is not None:
        stats["n_after_semantic"] = n_after_semantic
    return final, stats
