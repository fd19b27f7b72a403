"""Exact triple deduplication with provenance (SURVEY.md O6).

The reference keeps duplicate triples (one per sentence occurrence);
the north rule requires a deduplicated graph. Pattern: vectorized key
derivation -> **local pre-aggregation inside map_batches** (the
combiner: collapses duplicates within each block before any network
move) -> one ``shuffle.sorted_reduce`` on ``triple_key`` over the
already-reduced rows, which re-runs the same combiner once per sorted
block. Provenance is deterministic: ``n_sources`` sums occurrence
counts; the kept (url, chunk_id) is the lexicographic min.

The combiner is pure Arrow/numpy (VERDICT r1 item 6): the triple key is
``mix64(subj_id) ^ mix64(pred_hash) ^ mix64(obj_id)`` with distinct
seeds (pred hashed once per dictionary value, not per row), and the
min-representative rule is ``sort_by`` + ordered ``group_by(...,
use_threads=False)`` with ``first``/``sum`` aggregates — no per-row
Python anywhere.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..hashing import mix64, stable_hash64
from ..shuffle import sorted_reduce

# triple_key derivation seeds (any change re-keys the shuffle only; the
# key is dropped from the output, so values never reach an oracle)
_S_SUBJ, _S_PRED, _S_OBJ = 11, 12, 13

_OUT_COLS = [
    "triple_key", "subj_id", "pred", "obj_id", "subj", "obj",
    "subj_type", "obj_type", "subj_mod", "n_sources", "url", "chunk_id",
]

# the deterministic-representative ordering: lexicographic min over
# (provenance, attributes), so the kept attributes (notably subj_mod,
# which can differ between occurrences of the same triple) never depend
# on block layout
_ORDER_COLS = ["url", "chunk_id", "subj_mod", "subj_type", "obj_type"]


def _triple_keys(batch: pa.Table) -> pa.Array:
    """Vectorized int64 key over (subj_id, pred, obj_id)."""
    subj = batch.column("subj_id").to_numpy(zero_copy_only=False).view(np.uint64)
    obj = batch.column("obj_id").to_numpy(zero_copy_only=False).view(np.uint64)
    enc = pc.dictionary_encode(batch.column("pred")).combine_chunks()
    if isinstance(enc, pa.ChunkedArray):  # single chunk after combine
        enc = enc.chunk(0)
    dict_hashes = np.array(
        [stable_hash64("pred", v) for v in enc.dictionary.to_pylist()],
        dtype=np.uint64,
    )
    pred_h = dict_hashes[enc.indices.to_numpy(zero_copy_only=False)]
    key = mix64(subj, _S_SUBJ) ^ mix64(pred_h, _S_PRED) ^ mix64(obj, _S_OBJ)
    return pa.array(key.view(np.int64), pa.int64())


def _local_combine(batch: pa.Table) -> pa.Table:
    """Combiner: one row per triple key within this block."""
    names = batch.column_names
    # first pass sees linked rows (subj_canon/obj_canon); the merge pass
    # sees already-combined rows whose subj/obj ARE the canonical surfaces
    subj_surface = "subj_canon" if "subj_canon" in names else "subj"
    obj_surface = "obj_canon" if "obj_canon" in names else "obj"
    counts = (
        batch.column("n_sources")
        if "n_sources" in names
        else pa.array(np.ones(batch.num_rows, dtype=np.int64), pa.int64())
    )
    work = pa.table(
        {
            "triple_key": _triple_keys(batch) if batch.num_rows else pa.array([], pa.int64()),
            "subj_id": batch.column("subj_id"),
            "pred": batch.column("pred"),
            "obj_id": batch.column("obj_id"),
            "subj": batch.column(subj_surface),
            "obj": batch.column(obj_surface),
            "subj_type": batch.column("subj_type"),
            "obj_type": batch.column("obj_type"),
            "subj_mod": batch.column("subj_mod"),
            "n_sources": counts,
            "url": batch.column("url"),
            "chunk_id": batch.column("chunk_id"),
        }
    )
    ordered = work.sort_by(
        [("triple_key", "ascending")] + [(c, "ascending") for c in _ORDER_COLS]
    )
    gb = ordered.group_by(["triple_key"], use_threads=False).aggregate(
        [
            ("subj_id", "first"), ("pred", "first"), ("obj_id", "first"),
            ("subj", "first"), ("obj", "first"),
            ("subj_type", "first"), ("obj_type", "first"), ("subj_mod", "first"),
            ("n_sources", "sum"), ("url", "first"), ("chunk_id", "first"),
        ]
    )
    # rename by NAME (strip the _first/_sum suffixes), never by
    # position — pyarrow's output column order is an implementation
    # detail (CLAUDE.md r2 gotcha)
    strip = {f"{c}_first": c for c in _OUT_COLS} | {"n_sources_sum": "n_sources"}
    gb = gb.rename_columns([strip.get(c, c) for c in gb.column_names])
    return gb.select(_OUT_COLS)


def dedup_triples(linked):
    """linked triples Dataset -> deduplicated graph rows Dataset.

    The subj/obj columns of the output carry the canonical surfaces.
    The combiner is associative and commutative (min-representative +
    count sum), so re-running it over each sorted block — which holds
    whole ``triple_key`` runs — yields one exact row per key.
    """
    combined = linked.map_batches(_local_combine, batch_format="pyarrow")
    out = sorted_reduce(combined, "triple_key", _local_combine)
    return out.drop_columns(["triple_key"])
