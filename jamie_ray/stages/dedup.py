"""Exact triple deduplication with provenance (SURVEY.md O6).

The reference keeps duplicate triples (one per sentence occurrence);
the north rule requires a deduplicated graph. Pattern: **local
pre-aggregation inside map_batches** (the combiner: collapses
duplicates within each block before any network move) -> one
``shuffle.sorted_reduce`` on the triple (subj_id, pred, obj_id) over
the already-reduced rows, which re-runs the same combiner once per
sorted block. Provenance is deterministic: ``n_sources`` sums
occurrence counts; the kept (url, chunk_id) is the lexicographic min.

The reduce key is the graph order: the shuffle range-partitions on
(subj_id, pred, obj_id) and the combiner emits its rows sorted on it,
so the output blocks, read in order, ARE the sorted graph — no second
sort. A null ``pred`` sorts last, as in ``sort_by``.

The combiner is pure Arrow (VERDICT r1 item 6): ``sort_by`` + ordered
``group_by(..., use_threads=False)`` with ``first``/``sum`` aggregates,
grouped on the pred's null-free dictionary codes
(``shuffle.null_codes``) — no per-row Python anywhere.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..shuffle import null_codes, sorted_reduce

GRAPH_ORDER = ["subj_id", "pred", "obj_id"]

_OUT_COLS = [
    "subj_id", "pred", "obj_id", "subj", "obj",
    "subj_type", "obj_type", "subj_mod", "n_sources", "url", "chunk_id",
]

# the deterministic-representative ordering: lexicographic min over
# (provenance, attributes), so the kept attributes (notably subj_mod,
# which can differ between occurrences of the same triple) never depend
# on block layout
_ORDER_COLS = ["url", "chunk_id", "subj_mod", "subj_type", "obj_type"]


def _local_combine(batch: pa.Table) -> pa.Table:
    """Combiner: one row per triple within this block, in graph order."""
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
            "subj_id": batch.column("subj_id"),
            "__pred": null_codes(batch.column("pred")).indices,
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
    # ordered (single-threaded) "first" keeps each triple's min row
    ordered = work.sort_by([(c, "ascending") for c in _ORDER_COLS])
    gb = ordered.group_by(["subj_id", "__pred", "obj_id"], use_threads=False).aggregate(
        [
            ("pred", "first"), ("subj", "first"), ("obj", "first"),
            ("subj_type", "first"), ("obj_type", "first"), ("subj_mod", "first"),
            ("n_sources", "sum"), ("url", "first"), ("chunk_id", "first"),
        ]
    )
    # rename by NAME (strip the _first/_sum suffixes), never by
    # position — pyarrow's output column order is an implementation
    # detail (CLAUDE.md r2 gotcha)
    strip = {f"{c}_first": c for c in _OUT_COLS} | {"n_sources_sum": "n_sources"}
    gb = gb.rename_columns([strip.get(c, c) for c in gb.column_names])
    return gb.select(_OUT_COLS).sort_by([(c, "ascending") for c in GRAPH_ORDER])


def dedup_triples(linked):
    """linked triples Dataset -> deduplicated graph rows Dataset, in
    graph order: its blocks, in order, are sorted on (subj_id, pred,
    obj_id).

    The subj/obj columns of the output carry the canonical surfaces.
    The combiner is associative and commutative (min-representative +
    count sum), so re-running it over each sorted block — which holds
    whole triple runs — yields one exact row per triple.
    """
    combined = linked.map_batches(_local_combine, batch_format="pyarrow")
    return sorted_reduce(combined, GRAPH_ORDER, _local_combine)
