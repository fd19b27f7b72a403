"""Composite corpus-cleaning pipeline — the canonical training-data
preparation chain (cf. Gopher/C4/RefinedWeb-style pipelines in the
public literature), composed from this engine's first-class operators:

1. **per-row gates**, in one pass: URL drop (opt-in ``url_col=``,
   keep-first by canonical URL), C4 line cleaning, the heuristic
   quality gate (token floor and repetition ceiling, then the Gopher
   thresholds and the compress band), language, model quality, LM
   perplexity and benchmark decontamination, in that order (all
   opt-in but the heuristic quality gate). One plain-task kernel
   (:func:`_gate_pass`) tags each row with the first gate that
   rejects it; :class:`_GatedSink` writes the survivors to
   ``spill_dir/gated`` and returns each write task's per-gate drop
   tally, so every ``n_after_*`` count is exact under task retry. The
   two fastText gates run in their actor pools between two halves of
   the kernel, in the same execution;
2. **exact dedup**: keep only each distinct text's minimum doc id
   (``exact_dedup``; the broadcast hash->winner map covers only
   DUPLICATED texts — bounded by duplicate mass);
3. **paragraph dedup**: cross-corpus keep-first boilerplate removal
   (``paragraph_dedup``) rewriting the surviving texts;
4. **near-dup collapse**: minhash-LSH clusters over the cleaned text
   (``minhash_clusters``), keeping each cluster's representative
   (``cluster_id == doc_id`` — the min id, the engine-wide rule).

Returns the cleaned Dataset plus a stats dict of per-stage counts.
Every stage streams; the only driver state is the URL and exact-dup
winner maps and the near-dup LOSER id set, all duplicate-mass-bounded
and loudly capped (``state/collect.py``). A stage's input spills to
parquet (``spill_dir``) only when the stage reads it twice — the raw
input under ``url_col=``, the gated text, and the input of each
multi-pass dedup stage — the shape ``materialize_graph`` finalize
gives ``link_triples(cache_input=False)``.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
from ray.data import Datasink
from ray.data.block import BlockAccessor

DEFAULT_MIN_TOKENS = 5
DEFAULT_MAX_DUP3GRAM = 500_000  # micro units: >50% repeated 3-grams
# the compress band passes docs shorter than this many utf-8 bytes:
# zlib's header overhead dominates tiny inputs and the ratio means
# nothing there
COMPRESS_MIN_BYTES = 200
# Gopher §A1.1 document thresholds over the integer-exact signal
# columns: mean word length in [3, 10], symbol-to-word <= 0.1,
# alpha-word fraction >= 0.8, bullet lines <= 0.9, ellipsis lines <= 0.3
_GOPHER_BOUNDS = (
    ("mean_word_len_micro", 3_000_000, 10_000_000),
    ("symbol_word_micro", None, 100_000),
    ("alpha_word_micro", 800_000, None),
    ("bullet_line_micro", None, 900_000),
    ("ellipsis_line_micro", None, 300_000),
)
_GATE = "__gate"  # index of the first gate that rejected the row; -1 = kept


def _gate_pass(batch: pa.Table, *, gates, id_col: str, text_col: str) -> pa.Table:
    """Run ``gates`` (``(index, fn)`` pairs, ``fn(rows) -> (rows, keep)``;
    a gate may rewrite the text) over the rows no earlier gate rejected.

    Returns ``(id, text, __gate)``: the surviving rows, tagged -1, then
    every rejected row with a null text and the index of the gate that
    rejected it. Null in a ``keep`` mask rejects."""
    tag = (
        batch.column(_GATE).to_numpy().copy()
        if _GATE in batch.column_names
        else np.full(batch.num_rows, -1, np.int32)
    )
    idx = np.flatnonzero(tag == -1)
    live = batch.take(idx)
    for k, fn in gates:
        if not live.num_rows:
            break
        live, keep = fn(live)
        keep = pc.fill_null(keep, False).to_numpy(zero_copy_only=False)
        tag[idx[~keep]] = k
        idx = idx[keep]
        live = live.filter(keep)
    dropped = np.flatnonzero(tag >= 0)
    text_type = live.schema.field(text_col).type
    return pa.concat_tables(
        [
            pa.table(
                {
                    id_col: live.column(id_col),
                    text_col: live.column(text_col),
                    _GATE: pa.array(np.full(live.num_rows, -1, np.int32)),
                }
            ),
            pa.table(
                {
                    id_col: batch.column(id_col).take(dropped),
                    text_col: pa.nulls(len(dropped), text_type),
                    _GATE: pa.array(tag[dropped]),
                }
            ),
        ]
    )


class _GatedSink(Datasink):
    """Writes the rows no gate rejected, as plain ``(id, text)``
    parquet, to ``<path>/<task_idx>.parquet``; a retried task
    overwrites its own file. Each write task returns
    ``[rows in, drops at gate 0, drops at gate 1, ...]`` and
    ``on_write_complete`` sums them into ``tally``: Ray Data keeps one
    return per finished task, so the counts are exact."""

    def __init__(self, path: str, cols: list[str], n_gates: int):
        self.path, self.cols = path, cols
        self.tally = [0] * (n_gates + 1)

    def on_write_start(self) -> None:
        os.makedirs(self.path, exist_ok=True)
        for stale in os.listdir(self.path):
            if stale.endswith(".parquet"):
                os.unlink(os.path.join(self.path, stale))

    def write(self, blocks, ctx) -> list[int]:
        tables = [BlockAccessor.for_block(b).to_arrow() for b in blocks]
        tables = [t for t in tables if t.num_rows]
        if not tables:
            return [0] * len(self.tally)
        t = pa.concat_tables(tables)
        tag = t.column(_GATE).to_numpy()
        # an empty survivor table still writes its schema
        pq.write_table(
            t.filter(tag == -1).select(self.cols),
            os.path.join(self.path, f"{ctx.task_idx:06d}.parquet"),
        )
        drops = np.bincount(tag[tag >= 0], minlength=len(self.tally) - 1)
        return [t.num_rows, *drops.tolist()]

    def on_write_complete(self, write_result) -> None:
        self.tally = np.sum([self.tally, *write_result.write_returns], axis=0).tolist()


def _winners(groups, key: str, id_col: str, context: str):
    """``ray.put`` of ``{key: winning id}`` over the groups of a
    keep-first dedup output (``key``, ``id_col`` = min id, ``n_dups``)
    that hold more than one doc. The ``n_dups > 1`` filter runs
    distributed-side, so the capped driver map covers only DUPLICATED
    keys — bounded by duplicate mass, never one row per doc."""
    from ..state.collect import iter_capped_batches

    dups = groups.map_batches(
        lambda b: b.filter(pc.greater(b.column("n_dups"), 1)).select([key, id_col]),
        batch_format="pyarrow",
    )
    wins: dict = {}
    for b in iter_capped_batches(dups, context=context):
        wins.update(zip(b.column(key).to_pylist(), b.column(id_col).to_pylist()))
    return ray.put(wins)


def _drop_ids(ds, losers, id_col: str, context: str):
    """``ds`` without the ids in the one-column Dataset ``losers``,
    which crosses the driver under the edge cap (``context`` names it
    in the error) and is broadcast to a plain-task filter. Returns the
    filtered Dataset and the number of distinct loser ids."""
    from ..state.collect import iter_capped_batches
    from ..state.worker_cache import cached_get

    ids: set = set()
    for b in iter_capped_batches(losers, context=context):
        ids.update(b.column(id_col).to_pylist())
    ref = ray.put(ids)

    def drop_listed(b: pa.Table) -> pa.Table:
        drops = cached_get(ref, "clean_" + context)
        keep = [i not in drops for i in b.column(id_col).to_pylist()]
        return b.filter(pa.array(keep, pa.bool_()))

    return ds.map_batches(drop_listed, batch_format="pyarrow"), len(ids)


def clean_corpus(
    docs,
    spill_dir: str,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    line_clean: bool = False,
    gopher: bool = False,
    compress_band: tuple[int, int] | None = None,
    min_tokens: int = DEFAULT_MIN_TOKENS,
    max_dup3gram_micro: int = DEFAULT_MAX_DUP3GRAM,
    near_dup_threshold: float = 0.8,
    url_col: str | None = None,
    pii: bool = False,
    span_min_len: int | None = None,
    lm=None,
    max_ppl: float | None = None,
    decontam_benchmark=None,
    decontam_n: int = 3,
    keep_lang: str | None = None,
    lang_backend: str = "heuristic",
    lang_model=None,
    keep_quality: str | None = None,
    quality_model=None,
    embeddings=None,
    semantic_threshold: float = 0.9,
    semantic_n_centroids: int = 16,
):
    """documents -> (cleaned Dataset ``(doc_id, text)``, stats dict).

    ``spill_dir`` (required): parquet scratch for the inputs of the
    stages that read twice (module docstring). Stats fields:
    ``n_input``, ``n_after_quality``, ``n_after_exact``,
    ``n_after_near_dup`` (paragraph dedup rewrites text but never
    drops documents, so it has no count of its own), plus
    ``n_after_url`` when ``url_col`` is given (keep-first by
    canonical URL, default ``strip_www`` canonicalization). Each
    ``n_after_<gate>`` counts the rows left after that gate and every
    gate before it in the module docstring's order.

    ``line_clean=True`` enables the C4-style line-level cleaning gate
    (``text_analysis.c4_line_clean_batch`` — terminal-punct /
    min-words / javascript line rules; brace / lorem-ipsum /
    min-kept-lines doc rules) right before the heuristic quality gate:
    surviving docs carry their kept lines re-joined with ``\\n``. Stats
    gain ``n_after_line_clean``.

    ``gopher=True`` extends the heuristic quality gate with the
    Gopher §A1.1 document thresholds (``text_analysis.
    gopher_quality_batch``: mean word length in [3, 10], symbol-to-
    word <= 0.1, alpha-word >= 0.8, bullet lines <= 0.9, ellipsis
    lines <= 0.3); drops fold into ``n_after_quality``.

    ``compress_band=(lo, hi)`` extends the heuristic quality gate with
    the RefinedWeb/Dolma-style deflate-compressibility band
    (``text_analysis.compression_ratio_batch``, micro units): docs
    whose ``compress_micro`` falls OUTSIDE ``[lo, hi]`` are dropped —
    below = pathological repetition, above = incompressible noise.
    Docs shorter than ``COMPRESS_MIN_BYTES`` (200) utf-8 bytes always
    pass. It runs after every other quality rule, on the rows they
    kept; drops fold into ``n_after_quality``.

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
    optional ``fasttext`` package, in an actor pool; pass
    ``lang_model=`` a path or a ``classifiers.broadcast_model_bytes``
    ref — loud ImportError when the package is missing). Stats gain
    ``n_after_lang``.

    ``keep_quality="hq"`` + ``quality_model=`` enable the GPT-3/CCNet
    model-based quality gate right after the language gate: a trained
    supervised fastText classifier (path or
    ``classifiers.broadcast_model_bytes`` ref — loud ImportError when
    the optional package is missing) scores every document in an actor
    pool and only those predicted as ``keep_quality`` survive. Stats
    gain ``n_after_quality_model``.

    ``lm=`` + ``max_ppl=`` enable the CCNet-style perplexity gate
    (Wenzek et al. 2020) after the model quality gate: pass a trained
    :class:`~jamie_ray.functions.lm.NgramLM` (or a prior ``ray.put``
    ref — typically trained on a TRUSTED corpus, not the one being
    cleaned) and documents whose per-token perplexity
    (``lm.score_batch``) exceeds ``max_ppl`` are dropped. Stats gain
    ``n_after_lm``. Empty docs (NaN ppl) are dropped by this gate —
    min_tokens normally removes them first.

    ``decontam_benchmark=`` enables the benchmark-decontamination gate
    (``functions/decontam.py``, Brown et al. 2020 app. C shape) right
    after the perplexity gate and BEFORE the dedup stages (a dropped
    doc can then never be a kept dedup representative): documents
    sharing any word ``decontam_n``-gram with the benchmark are
    removed. Accepts a set/iterable of gram strings or a prior
    ``ray.put`` ref of one. The flag is per row: where two rows share
    a doc id, only the contaminated one goes. Stats gain
    ``n_after_decontam``.

    ``embeddings=`` enables the SemDeDup stage (``similarity.
    semantic_dedup``) AFTER near-dup: pass a source-backed embeddings
    Dataset with an ``id_col`` column and an ``embedding`` vector
    column; documents whose vector is a semantic duplicate of a
    lower-id cluster member at ``semantic_threshold`` are dropped
    (keep-first). The embeddings are first restricted to the
    SURVIVING corpus (one semi-join shuffle), so a doc an earlier gate
    removed can never be the kept representative. Docs without a
    vector are always kept. Stats gain ``n_after_semantic``.
    """
    from ..functions.dedup_docs import (
        _spill_input,
        exact_dedup,
        minhash_clusters,
        paragraph_dedup,
    )
    from ..functions.text_analysis import repetition_batch, token_count_batch
    from ..state.worker_cache import cached_get

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

    # the gate list: kernel halves of (index, fn) gates, with the
    # actor-pool stages between them; ``names`` maps a gate index to
    # the stat it counts toward
    steps: list = [[]]
    names: list[str] = []

    def gate(name, fn):
        steps[-1].append((len(names), fn))
        names.append(name)

    def pool(stage):
        steps.extend([stage, []])

    if url_col is not None:
        # keep-first by canonical URL, the exact-dup stage's broadcast
        # shape. The winner map reads the input once and the gate pass
        # again, so the input spills first.
        from ..functions.urlnorm import canonicalize_url, url_dedup

        docs = _spill_input(
            docs, os.path.join(spill_dir, "input"), [id_col, text_col, url_col]
        )
        url_win_ref = _winners(
            url_dedup(docs, url_col=url_col, id_col=id_col),
            "canonical_url",
            id_col,
            "clean_corpus url-dup winner map",
        )

        def url_gate(t):
            wins = cached_get(url_win_ref, "clean_url_win_map")
            return t, pa.array(
                [
                    wins.get(canonicalize_url(u), i) == i
                    for i, u in zip(
                        t.column(id_col).to_pylist(), t.column(url_col).to_pylist()
                    )
                ],
                pa.bool_(),
            )

        gate("url", url_gate)

    if line_clean:
        # C4-style line-level cleaning (Raffel et al. 2020 §2.2): the
        # text becomes the kept lines; a dropped doc's is null
        from ..functions.text_analysis import c4_line_clean_batch

        def line_clean_gate(t):
            clean = c4_line_clean_batch(t, text_col, out_col="__c4").column("__c4")
            i = t.schema.get_field_index(text_col)
            return t.set_column(i, text_col, clean), pc.is_valid(clean)

        gate("line_clean", line_clean_gate)

    def quality_gate(t):
        s = repetition_batch(token_count_batch(t, text_col), text_col)
        return t, pc.and_(
            pc.greater_equal(s.column("n_tokens"), min_tokens),
            pc.less_equal(s.column("dup3gram_micro"), max_dup3gram_micro),
        )

    gate("quality", quality_gate)
    if gopher:
        from ..functions.text_analysis import gopher_quality_batch

        def gopher_gate(t):
            g = gopher_quality_batch(t, text_col)
            keep = pa.array(np.ones(t.num_rows, bool))
            for col, lo, hi in _GOPHER_BOUNDS:
                if lo is not None:
                    keep = pc.and_(keep, pc.greater_equal(g.column(col), lo))
                if hi is not None:
                    keep = pc.and_(keep, pc.less_equal(g.column(col), hi))
            return t, keep

        gate("quality", gopher_gate)
    if compress_band is not None:
        # last in the quality gate: zlib is its heaviest per-row
        # kernel, so it runs only on rows every other rule kept
        from ..functions.text_analysis import compression_ratio_batch

        def compress_gate(t):
            lo, hi = compress_band
            micro = compression_ratio_batch(t, text_col).column("compress_micro")
            nbytes = pc.binary_length(t.column(text_col))
            return t, pc.or_(
                pc.less(nbytes, COMPRESS_MIN_BYTES),
                pc.and_(pc.greater_equal(micro, lo), pc.less_equal(micro, hi)),
            )

        gate("quality", compress_gate)

    if keep_lang is not None:
        if lang_backend == "heuristic":
            from ..functions.text_analysis import lang_id_batch

            def lang_gate(t):
                pred = lang_id_batch(t, text_col).column("lang_pred")
                return t, pc.equal(pred, keep_lang)
        else:
            # fastText loads its model once per actor: the pool runs
            # between two halves of the kernel
            from ..functions.classifiers import lang_id_stage

            pool(
                lambda ds: lang_id_stage(
                    ds, backend=lang_backend, model=lang_model, text_col=text_col
                )
            )

            def lang_gate(t):
                return t, pc.equal(t.column("lang_pred"), keep_lang)

        gate("lang", lang_gate)

    if keep_quality is not None:
        from ..functions.classifiers import fasttext_classify

        pool(
            lambda ds: fasttext_classify(
                ds, quality_model, out_prefix="quality", text_col=text_col
            )
        )
        gate(
            "quality_model",
            lambda t: (t, pc.equal(t.column("quality_pred"), keep_quality)),
        )

    if lm is not None:
        from ..functions.lm import score_batch

        lm_ref = lm if isinstance(lm, ray.ObjectRef) else ray.put(lm)

        def lm_gate(t):
            ppl = score_batch(t, lm_ref, text_col=text_col).column("ppl")
            return t, pc.less_equal(ppl, max_ppl)

        gate("lm", lm_gate)

    if decontam_benchmark is not None:
        from ..functions.decontam import flag_batch

        bench_ref = (
            decontam_benchmark
            if isinstance(decontam_benchmark, ray.ObjectRef)
            else ray.put(frozenset(decontam_benchmark))
        )

        def decontam_gate(t):
            flags = flag_batch(t, bench_ref, n=decontam_n, text_col=text_col)
            return t, pc.equal(flags.column("contaminated"), 0)

        gate("decontam", decontam_gate)

    tagged = docs
    for step in steps:
        tagged = (
            tagged.map_batches(
                _gate_pass,
                fn_kwargs={"gates": step, "id_col": id_col, "text_col": text_col},
                batch_format="pyarrow",
            )
            if isinstance(step, list)
            else step(tagged)
        )
    sink = _GatedSink(os.path.join(spill_dir, "gated"), [id_col, text_col], len(names))
    tagged.write_datasink(sink)
    n_input, *drops = sink.tally
    # rows left after each gate; a stat counts after its last gate
    after = dict(zip(names, (n_input - np.cumsum(drops)).tolist()))
    gated = ray.data.read_parquet(sink.path)

    # exact dedup: the broadcast must distinguish "unique text" (keep)
    # from "losing duplicate" (drop), so it carries the winner id PER
    # duplicated HASH
    win_ref = _winners(
        exact_dedup(gated, text_col=text_col, id_col=id_col),
        "text_hash",
        id_col,
        "clean_corpus exact-dup winner map",
    )

    def drop_losing_dups(b: pa.Table) -> pa.Table:
        from ..functions.text_analysis import fingerprint_batch

        wins = cached_get(win_ref, "clean_exact_win_map")
        hashes = fingerprint_batch(b, text_col).column("text_hash").to_pylist()
        ids = b.column(id_col).to_pylist()
        keep = [wins.get(h, i) == i for i, h in zip(ids, hashes)]
        return b.filter(pa.array(keep, pa.bool_()))

    exact_kept = _spill_input(
        gated.map_batches(drop_losing_dups, batch_format="pyarrow"),
        os.path.join(spill_dir, "exact"),
        [id_col, text_col],
    )
    n_after_exact = exact_kept.count()

    def rewritten(b: pa.Table) -> pa.Table:
        return pa.table({id_col: b.column(id_col), text_col: b.column("clean_text")})

    # paragraph dedup rewrites text (never drops docs)
    cleaned = _spill_input(
        paragraph_dedup(exact_kept, text_col=text_col, id_col=id_col).map_batches(
            rewritten, batch_format="pyarrow"
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
            ).map_batches(rewritten, batch_format="pyarrow"),
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
    final, n_near_dups = _drop_ids(
        cleaned, losers_ds, id_col, "clean_corpus near-dup losers"
    )

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
            embeddings, final.select_columns([id_col]), on=id_col, how="semi"
        )
        emb_surv = _spill_input(
            emb_surv, os.path.join(spill_dir, "sem_emb"), [id_col, "embedding"]
        )
        sem_flags = semantic_dedup(
            emb_surv,
            threshold=semantic_threshold,
            id_col=id_col,
            vec_col="embedding",
            n_centroids=semantic_n_centroids,
        )
        sem_losers_ds = sem_flags.map_batches(
            lambda b: b.filter(
                pc.greater_equal(b.column("dup_of"), 0)
            ).select([id_col]),
            batch_format="pyarrow",
        )
        final, _ = _drop_ids(
            final, sem_losers_ds, id_col, "clean_corpus semantic-dup losers"
        )
        final = _spill_input(
            final, os.path.join(spill_dir, "semantic"), [id_col, text_col]
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
        "n_after_quality": after["quality"],
        "n_after_exact": n_after_exact,
        "n_after_near_dup": n_after_exact - n_near_dups,
    }
    for name in ("url", "line_clean", "lm", "decontam", "lang", "quality_model"):
        if name in after:
            stats[f"n_after_{name}"] = after[name]
    if n_after_semantic is not None:
        stats["n_after_semantic"] = n_after_semantic
    return final, stats
