"""The flagship KG-construction pipeline (SURVEY.md §4 physical plan).

    read_parquet(pages, columns=[url, html, lang])   # prune at the read
      -> filter(lang) + extract_text                  # one stateless mb, byte-pinned
      -> chunk                                        # stateless mb explode
      -> score (tasks; actor pool opt-in)             # batch-sized
      -> assemble                                     # stateless mb
      -> link (sorted_reduce on band + broadcast map) # shuffle #1
      -> dedup (combine + sorted_reduce on            # shuffle #2
         (subj_id, pred, obj_id): blocks in graph order)
      -> write_parquet + lineage

Everything before ``link`` is a straight-line streaming plan: blocks
flow with backpressure, nothing materializes the corpus. The driver
never iterates rows; the only driver-side state is the verified LSH
edge list (see ``stages/link.py``).

``materialize_graph`` cuts this plan at the assemble write: each
resumable shard stops at its raw triples on disk, and one finalize
pass runs link -> dedup over all of them. The call keeps its side
counts in the session's one counter actor (``state/caps.py``).
"""

from __future__ import annotations

import functools
import os
import time

import ray
import ray.data

from ..hashing import stable_hash64
from ..stages.assemble import assemble_batch, entities_batch
from ..stages.chunk import chunk_pages_batch
from ..stages.dedup import dedup_triples
from ..stages.extract import extract_batch, filter_lang_batch
from ..stages.link import link_triples
from ..stages.score import JointScorer, score_chunks_task
from ..state.lineage import append_manifest, read_manifest

DEFAULT_SCORER_BATCH = 64


def _batch_fingerprint(batch, col: str) -> int:
    # hash of the FULL ordered key column — (first, last, count) would
    # collide on re-crawl-heavy shards (two blocks bounded by the same
    # hot url), and a collision silently overwrites one block's counts
    # in the idempotent counter actor
    vals = batch.column(col).to_pylist()
    return stable_hash64("batchfp", batch.num_rows, "\x1f".join(
        "" if v is None else str(v) for v in vals
    ))


def _cluster_cpus() -> int:
    try:
        return max(1, int(ray.cluster_resources().get("CPU", 4)))
    except Exception:
        return 4


def default_scorer_concurrency() -> int:
    """Fixed-size actor pool sized to the cluster: the scorer is the
    CPU-bound bottleneck stage, so it gets most of the cores (fixed, not
    autoscaling — ramp-up latency would starve the pipeline on short
    runs; on a long run the two are equivalent)."""
    return max(2, _cluster_cpus() - 2)


def read_pages(pages_path: str, *, shard_filter=None) -> ray.data.Dataset:
    ds = ray.data.read_parquet(
        pages_path,
        columns=["url", "html", "lang"],
        override_num_blocks=_read_blocks(pages_path),
    )
    if shard_filter is not None:
        ds = ds.map_batches(shard_filter, batch_format="pyarrow")
    return ds


def _read_blocks(pages_path) -> int:
    """Read blocks to ask for: ~6 per CPU, but no empty split, and
    whole files spread evenly once the files are that many or more.

    ~6 blocks per core: enough waves that the last one's stragglers
    cost little (measured ~7% at 16 cpus vs 2 blocks/core), still few
    enough that task overhead stays negligible. Ray 2.49 reads ``n``
    blocks out of ``f`` parquet files as ``min(n, f)`` read tasks of
    whole files (``np.array_split``), and with ``n > f`` cuts each
    task's output into ``ceil(n / f)`` blocks. So:

    - fewer files than ``6 × cpus`` (a small-scale corpus is one file):
      each file is cut into ``ceil(6 × cpus / f)`` blocks, as a plain
      ``6 × cpus`` request does, but into no more blocks than the
      smallest file has rows: an empty split is a block with no
      schema, which ``pa.concat_tables`` of the output rejects. The
      row counts come from the parquet footers.
    - at least ``6 × cpus`` files: whole files, ``f // (6 × cpus)`` or
      fewer per block (up to ``2 × 6 × cpus`` blocks). A plain request
      groups 8 files at one CPU as 2,2,1,1,1,1: the double blocks are
      the first two, and the consumer's first batch waits for both.
      Here each of the 8 files is its own block: at one core that
      moved ``triples_stream``'s first batch from 0.92 to 0.63 s, and
      cost ~8% of its rows/s for the extra read and map tasks.
    - no file listed here (nested partitions): ``6 × cpus``.
    """
    import pyarrow.parquet as pq

    target = _cluster_cpus() * 6
    files = _input_parquet_files(pages_path)
    if not files:
        return target
    if len(files) >= target:
        return -(-len(files) // (len(files) // target))
    per_file = min(
        -(-target // len(files)),
        min(pq.read_metadata(f).num_rows for f in files),
    )
    return len(files) * max(1, per_file)


def extracted_pages(
    pages: ray.data.Dataset, lang: str = "ja", decode_errors: str = "strict"
) -> ray.data.Dataset:
    def extract(b):
        # one kernel: Ray calls no map on an empty block but passes it on
        # with no schema, so a separate lang filter that empties a block
        # would leave the extract output of that block schema-less
        return extract_batch(filter_lang_batch(b, lang), decode_errors=decode_errors)

    return pages.map_batches(extract, batch_format="pyarrow")


def chunk_pages(
    extracted: ray.data.Dataset,
    len_limit: int | None = None,
    analyzer: str = "mecab",
) -> ray.data.Dataset:
    from ..stages.chunk import DEFAULT_LEN_LIMIT
    from ..stages.extract import healthy_batch

    limit = len_limit or DEFAULT_LEN_LIMIT

    def kernel(b):
        if "error" in b.column_names:  # drop quarantined pages explicitly
            b = healthy_batch(b)
        return chunk_pages_batch(b, limit, analyzer)

    return extracted.map_batches(kernel, batch_format="pyarrow")


def score_chunks(
    chunks: ray.data.Dataset,
    *,
    concurrency: int | None = None,
    batch_size: int = DEFAULT_SCORER_BATCH,
    model_cost_layers: int = 0,
    use_actors: bool = False,
    model="mock",
    hf_kwargs: dict | None = None,
    analyzer: str = "mecab",
) -> ray.data.Dataset:
    """Scoring stage, two physical shapes:

    - tasks (default for the mock): per-worker singleton model, fuses
      with the surrounding stateless stages (not with the read: Ray
      2.49 fuses no read into a map with a ``batch_size=``), zero
      per-job pool startup;
    - actor pool (``use_actors=True``, forced for non-mock backends):
      the shape a real transformer needs (heavy weights / GPUs) —
      ``__init__`` loads once per actor.

    ``model`` selects the backend (see ``JointScorer.__init__``):
    "mock", "hf:<checkpoint_dir>", or a predict()-bearing object.
    """
    if use_actors or model != "mock":
        return chunks.map_batches(
            JointScorer,
            fn_constructor_kwargs={
                "model_cost_layers": model_cost_layers,
                "model": model,
                "hf_kwargs": hf_kwargs,
                "analyzer": analyzer,
            },
            concurrency=concurrency or default_scorer_concurrency(),
            batch_size=batch_size,
            batch_format="pyarrow",
        )
    return chunks.map_batches(
        functools.partial(
            score_chunks_task,
            model_cost_layers=model_cost_layers,
            analyzer=analyzer,
        ),
        batch_size=batch_size,
        batch_format="pyarrow",
    )


def build_triples(
    pages_path: str,
    *,
    lang: str = "ja",
    concurrency: int | None = None,
    batch_size: int = DEFAULT_SCORER_BATCH,
    shard_filter=None,
    model_cost_layers: int = 0,
    mode: str = "joint",
    len_limit: int | None = None,
    use_actors: bool = False,
    model="mock",
    hf_kwargs: dict | None = None,
    analyzer: str = "mecab",
    decode_errors: str = "strict",
) -> ray.data.Dataset:
    """pages parquet -> raw mention-level triples Dataset (streaming).

    ``mode="joint"`` (default, the reference's production path) or
    ``mode="pipeline"`` (the legacy 3-stage NER -> modality -> relation
    architecture; see ``stages/pipeline_mode.py``).

    ``analyzer`` selects the registered morphological analyzer (the
    reference's juman|mecab choice, utils.py:30-42) for chunking AND
    scoring — the two must agree; ``decode_errors`` selects strict vs
    lossy utf-8 at extraction (see ``stages/extract.py``).
    """
    if mode == "pipeline" and (model != "mock" or hf_kwargs or use_actors):
        # the 3-stage pipeline scorer has no pluggable-model seam: a
        # caller handing it a trained backend must hear that BEFORE any
        # read starts, not get mock-model triples with no error
        raise ValueError(
            "build_triples: mode='pipeline' supports only the mock "
            "3-stage scorer (model/hf_kwargs/use_actors don't apply) "
            "— use mode='joint' for pluggable backends"
        )
    pages = read_pages(pages_path, shard_filter=shard_filter)
    chunks = chunk_pages(
        extracted_pages(pages, lang, decode_errors=decode_errors),
        len_limit=len_limit,
        analyzer=analyzer,
    )
    if mode == "pipeline":
        from ..stages.pipeline_mode import score_chunks_pipeline

        tagged = score_chunks_pipeline(chunks)
    else:
        tagged = score_chunks(
            chunks,
            concurrency=concurrency,
            batch_size=batch_size,
            model_cost_layers=model_cost_layers,
            use_actors=use_actors,
            model=model,
            hf_kwargs=hf_kwargs,
            analyzer=analyzer,
        )
    return tagged.map_batches(assemble_batch, batch_format="pyarrow")


def build_entities(pages_path: str, *, lang: str = "ja") -> ray.data.Dataset:
    """pages parquet -> entity-mention rows (the mod_entities view)."""
    pages = read_pages(pages_path)
    chunks = chunk_pages(extracted_pages(pages, lang))
    tagged = score_chunks(chunks)
    return tagged.map_batches(entities_batch, batch_format="pyarrow")


def build_graph(
    pages_path: str,
    *,
    lang: str = "ja",
    concurrency: int | None = None,
    batch_size: int = DEFAULT_SCORER_BATCH,
    model_cost_layers: int = 0,
    mode: str = "joint",
    len_limit: int | None = None,
    use_actors: bool = False,
    link_threshold: float | None = None,
) -> ray.data.Dataset:
    """Full pipeline through linking + dedup, in graph order (sorted on
    (subj_id, pred, obj_id), as :func:`materialize_graph` writes it)."""
    from ..stages.link import DEFAULT_THRESHOLD

    triples = build_triples(
        pages_path,
        lang=lang,
        concurrency=concurrency,
        batch_size=batch_size,
        model_cost_layers=model_cost_layers,
        mode=mode,
        len_limit=len_limit,
        use_actors=use_actors,
    )
    linked = link_triples(triples, threshold=link_threshold or DEFAULT_THRESHOLD)
    return dedup_triples(linked)


def materialize_graph(
    pages_path: str,
    out_dir: str,
    *,
    lang: str = "ja",
    n_shards: int = 8,
    concurrency: int | None = None,
    batch_size: int = DEFAULT_SCORER_BATCH,
    analyzer: str = "mecab",
    decode_errors: str = "strict",
    _fail_after_checkpoint: int | None = None,
) -> dict:
    """Resumable sorted graph materialize (north rule's final write).

    1. **Shards — heavy, resumable**: the input is split into
       ``n_shards`` shards; each unfinished shard runs read -> extract
       -> chunk -> score -> assemble and writes its raw mention-level
       triples to ``out_dir/shard=N/``, then appends its lineage record.
       That parquet is the checkpoint: a rerun reads the manifest and
       skips finished shards, so finished shards are never rescored
       (hours per shard at 100 TB). A shard killed before its record
       lands reruns in full, after clearing its orphan files.

       Shard assignment prefers **file-level pruning**: with a
       multi-file input (the real 100 TB layout), shard N reads only
       its own files — no full-corpus rescan per shard. A single-file
       input (small-scale fixtures) falls back to a ``hash(url)``
       row filter, which does rescan and is flagged in lineage.
    2. **Finalize — one global pass**: a single ``link_triples`` over
       every shard file, then dedup, whose reduce on (subj_id, pred,
       obj_id) emits graph order, and the write of ``out_dir/graph/``. That is
       :func:`build_graph`'s plan over the same triples, so a link
       chain that crosses shards resolves to one entity and the
       materialized graph equals ``build_graph`` by construction.
       Finalize runs on every call (a full rewrite, idempotent).

    Returns the run summary: shards run/skipped, graph rows, and the
    finalize link's blocking-cap truncations
    (``n_truncated_candidates``; an empty dict = no recall lost).
    """
    import pyarrow as pa

    from ..state.caps import cap_totals, new_cap_counters

    done = read_manifest(out_dir)
    # resume guard: a rerun with a different n_shards (or input) would
    # skip manifest shards from the OLD partitioning and finalize over
    # range(new n_shards) only — silently dropping the other shards'
    # triples from the final graph. Every recorded fingerprint embeds
    # "<pages_path>#...[shard/n_shards]..."; refuse any mismatch.
    for s, rec in sorted(done.items()):
        fp = rec.get("input_fingerprint", "")
        if not fp.startswith(f"{pages_path}#") or f"[{s}/{n_shards}]" not in fp:
            raise ValueError(
                f"materialize_graph: manifest shard {s} was produced by a "
                f"different run configuration ({fp!r}) — this run has "
                f"pages_path={pages_path!r}, n_shards={n_shards}. Resume "
                "with the ORIGINAL parameters or start a fresh out_dir."
            )
    summary = {"shards_total": n_shards, "shards_skipped": len(done), "shards_run": 0}

    input_files = _input_parquet_files(pages_path)
    by_files = len(input_files) >= n_shards
    # this call's records in the session's one counter actor (an actor
    # is a worker-process start): the shard taps record lineage under
    # "<name>/<shard>" as side aggregates of the one shard pipeline,
    # FIRE-AND-FORGET with idempotency keys (a retried task overwrites
    # its own keys), and the finalize link records its cap truncations.
    # close() drops them however the call ends.
    counters = new_cap_counters()
    try:
        for shard in range(n_shards):
            if shard in done:
                continue
            t0 = time.time()

            if by_files:
                shard_input = [
                    f for i, f in enumerate(input_files) if i % n_shards == shard
                ]
                shard_filter = None
                fingerprint = f"files[{shard}/{n_shards}]:{len(shard_input)}"
            else:
                shard_input = pages_path

                def shard_filter(batch, _shard=shard):
                    urls = batch.column("url").to_pylist()
                    mask = pa.array(
                        [stable_hash64("shard", u) % n_shards == _shard for u in urls]
                    )
                    return batch.filter(mask)

                fingerprint = f"urlhash[{shard}/{n_shards}] (single-file rescan)"

            def tap_pages(b, _shard=shard):
                import pyarrow.compute as _pc

                q = _pc.sum(_pc.not_equal(b.column("error"), "")).as_py() or 0
                key = _batch_fingerprint(b, "url")
                counters.record(f"pages/{_shard}", key, b.num_rows - q)
                if q:
                    counters.record(f"quarantined_pages/{_shard}", key, q)
                return b

            def tap_chunks(b, _shard=shard):
                key = stable_hash64(
                    _batch_fingerprint(b, "url"),
                    b.column("chunk_id")[0].as_py() if b.num_rows else -1,
                    b.column("chunk_id")[-1].as_py() if b.num_rows else -1,
                )
                counters.record(f"chunks/{_shard}", key, b.num_rows)
                return b

            pages = read_pages(shard_input, shard_filter=shard_filter)
            extracted = extracted_pages(
                pages, lang, decode_errors=decode_errors
            ).map_batches(tap_pages, batch_format="pyarrow")
            chunks = chunk_pages(extracted, analyzer=analyzer).map_batches(
                tap_chunks, batch_format="pyarrow"
            )
            tagged = score_chunks(
                chunks,
                concurrency=concurrency,
                batch_size=batch_size,
                analyzer=analyzer,
            )
            triples = tagged.map_batches(assemble_batch, batch_format="pyarrow")
            shard_dir = f"{out_dir}/shard={shard}"
            os.makedirs(shard_dir, exist_ok=True)
            # resume crash window: a prior run may have died after writing
            # parquet but before its manifest append — the shard is not in
            # the manifest, so clear any orphan files or the finalize pass
            # would read both copies and double-count provenance
            for stale in _parquet_files(shard_dir):
                os.unlink(stale)
            triples.write_parquet(shard_dir)
            if _fail_after_checkpoint == shard:
                raise RuntimeError(
                    f"injected kill after the triples of shard {shard}"
                )
            totals = cap_totals(counters)  # settled read (state/caps.py)
            append_manifest(
                out_dir,
                {
                    "shard": shard,
                    "n_pages": totals.get(f"pages/{shard}", 0),
                    "n_chunks": totals.get(f"chunks/{shard}", 0),
                    # raw mention-level triples (linking and dedup run once,
                    # in finalize)
                    "n_triples": int(_count_parquet_rows(shard_dir)),
                    "n_quarantined_pages": totals.get(f"quarantined_pages/{shard}", 0),
                    "input_fingerprint": f"{pages_path}#{fingerprint}",
                    "wall_time_s": round(time.time() - t0, 3),
                },
            )
            summary["shards_run"] += 1

        # finalize: ONE link over every shard's triples, then the dedup,
        # whose blocks come out in graph order (idempotent full rewrite)
        shard_files = [
            f
            for s in range(n_shards)
            for f in _parquet_files(f"{out_dir}/shard={s}")
        ]
        graph_dir = f"{out_dir}/graph"
        os.makedirs(graph_dir, exist_ok=True)
        for stale in _parquet_files(graph_dir):
            os.unlink(stale)
        # blocking-cap observability (no-silent-caps rule): hot-band
        # truncations inside the linker; best-effort — see state/caps.py: a
        # worker dying post-task pre-flush can undercount
        if shard_files:
            # the shard files are source-backed, so link re-reads them for
            # its second pass instead of caching an object-store copy
            linked = link_triples(
                ray.data.read_parquet(shard_files),
                cap_counters=counters,
                cache_input=False,
            )
            dedup_triples(linked).write_parquet(graph_dir)
        summary["n_triples"] = _count_parquet_rows(graph_dir)
        summary["n_truncated_candidates"] = {
            k: int(v)
            for k, v in sorted(cap_totals(counters).items())
            if "/" not in k  # the link's counters, not shard lineage
        }
    finally:
        counters.close()
    return summary


def _input_parquet_files(pages_path) -> list[str]:
    """Enumerate the concrete parquet files behind an input path."""
    if isinstance(pages_path, (list, tuple)):
        return [f for p in pages_path for f in _input_parquet_files(p)]
    if os.path.isdir(pages_path):
        return _parquet_files(pages_path)
    return [pages_path] if str(pages_path).endswith(".parquet") else []


def _parquet_files(d: str) -> list[str]:
    if not os.path.isdir(d):
        return []
    return sorted(
        os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet")
    )


def _count_parquet_rows(d: str) -> int:
    import pyarrow.parquet as pq

    return sum(pq.read_metadata(f).num_rows for f in _parquet_files(d))
