"""Triple assembly: tagged_chunks -> mention-level triples.

Re-implements the five derived views of the reference's
``MultiheadConll`` document object (/root/reference/data_objects.py:
166-265) as pure functions over Arrow list columns inside one
``map_batches`` kernel:

- entity spans        (update_entities, via bio_to_spans)
- modality entities   (update_mod_entities — LAST-token rule, :226-229)
- rel triplets        (update_rel_triplets — skip 'N', :231-238)
- span resolution     (update_rel_detailed_triplets dict, :240-249)
- mention triplets    (update_rel_mention_triplets — drop pairs whose
                       anchor is not an entity last token, :251-265)

Sentinel restore on token surfaces ( [JASP]->U+3000, [SEP]->newline )
follows data_objects.py:210.

Almost every relation cell is ``'N'``, so Arrow finds the work before
any Python runs. ``rels`` and ``heads`` are ``list<list<…>>`` columns:
flattening each twice gives one row per (chunk, tail, position) pair,
``list_parent_indices`` and the rebased list offsets recover the chunk,
the tail token and the position inside the cell, and only the non-``'N'``
pairs are kept. ``restore_tokens`` and ``bio_to_spans`` then run once
per chunk that holds such a pair (:func:`_decode_rows`) and never for
the others. Output order is the reference's walk: chunk, then tail,
then position in the cell.

Ragged cells (a CoNLL cell with more rels than heads, or a chunk with
more rel cells than head cells) keep the reference's ``zip`` rule: a
pair counts only if its tail is below the chunk's number of head cells
and its position is below that head cell's length; its head is read at
the head cell's own offset plus that position.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..labels import restore_tokens, bio_to_spans
from ..schemas import TRIPLES


def _offsets(lists: pa.Array) -> np.ndarray:
    """List offsets rebased to the flattened values (a sliced list
    array's offsets need not start at 0)."""
    off = lists.offsets.to_numpy()
    return off - off[0]


def _decode_rows(batch: pa.Table, rows: np.ndarray):
    """Yield (url, chunk_id, restored tokens, entity spans, mod) for
    ``rows`` only: the per-chunk Python both kernels keep, run where
    Arrow found work."""
    sub = batch.select(["url", "chunk_id", "tokens", "ner", "mod"]).take(rows)
    for url, cid, toks, ner, mod in zip(*(c.to_pylist() for c in sub.columns)):
        yield url, cid, restore_tokens(toks), bio_to_spans(ner), mod


def assemble_batch(batch: pa.Table) -> pa.Table:
    """map_batches kernel: tagged_chunks -> triples rows."""
    rel_cells = batch.column("rels").combine_chunks()
    cells = pc.list_flatten(rel_cells)
    rel = pc.list_flatten(cells)
    pair = np.flatnonzero(pc.not_equal(rel, "N").to_numpy(zero_copy_only=False))
    # (chunk, tail, position) of every non-'N' pair
    cell = np.asarray(pc.list_parent_indices(cells))[pair]
    pos = pair - _offsets(cells)[cell]
    chunk = np.asarray(pc.list_parent_indices(rel_cells))[cell]
    tail = cell - _offsets(rel_cells)[chunk]

    # ragged cells: the head cell and its position must exist (zip rule)
    head_cells = batch.column("heads").combine_chunks()
    h_cell_off = _offsets(head_cells)
    keep = tail < np.diff(h_cell_off)[chunk]
    pair, pos, chunk, tail = pair[keep], pos[keep], chunk[keep], tail[keep]
    h_cells = pc.list_flatten(head_cells)
    h_pair_off = _offsets(h_cells)
    h_cell = h_cell_off[chunk] + tail
    keep = pos < np.diff(h_pair_off)[h_cell]
    pair, chunk, tail = pair[keep], chunk[keep], tail[keep]
    head = pc.list_flatten(h_cells).to_numpy()[h_pair_off[h_cell[keep]] + pos[keep]]
    pred = rel.take(pair).to_pylist()

    out: dict[str, list] = {name: [] for name in TRIPLES.names}
    rows, first = np.unique(chunk, return_index=True)
    bounds = np.append(first, len(chunk)).tolist()
    for i, (url, cid, toks, spans, mod) in enumerate(_decode_rows(batch, rows)):
        # last-token -> (tag, start, end); ends are unique by construction
        sent_dic = {e[2] - 1: e for e in spans}
        lo, hi = bounds[i], bounds[i + 1]
        for tail_id, head_id, rel_tag in zip(
            tail[lo:hi].tolist(), head[lo:hi].tolist(), pred[lo:hi]
        ):
            # mention-level rule: both anchors must be entity last
            # tokens (data_objects.py:261)
            if tail_id not in sent_dic or head_id not in sent_dic:
                continue
            t_tag, t_start, t_end = sent_dic[tail_id]
            h_tag, h_start, h_end = sent_dic[head_id]
            out["subj"].append("".join(toks[t_start:t_end]))
            out["pred"].append(rel_tag)
            out["obj"].append("".join(toks[h_start:h_end]))
            out["subj_type"].append(t_tag)
            out["obj_type"].append(h_tag)
            out["subj_mod"].append(mod[t_end - 1])
            out["url"].append(url)
            out["chunk_id"].append(cid)

    return pa.Table.from_pydict(out, schema=TRIPLES)


def entities_batch(batch: pa.Table) -> pa.Table:
    """map_batches kernel: tagged_chunks -> entity-mention rows
    (the mod_entities view, data_objects.py:226-229). Only rows whose
    ``ner`` holds a tag other than exactly ``'O'`` are decoded: an
    all-``'O'`` row has no span, while any other first tag (even
    ``'OO'``) opens one under ``bio_to_spans``' preserved quirk."""
    ner = batch.column("ner").combine_chunks()
    tagged = pc.not_equal(pc.list_flatten(ner), "O").to_numpy(zero_copy_only=False)
    rows = np.unique(np.asarray(pc.list_parent_indices(ner))[tagged])

    out: dict[str, list] = {k: [] for k in ("url", "chunk_id", "mention", "ner_tag", "mod")}
    for url, cid, toks, spans, mod in _decode_rows(batch, rows):
        for tag, start, end in spans:
            out["url"].append(url)
            out["chunk_id"].append(cid)
            out["mention"].append("".join(toks[start:end]))
            out["ner_tag"].append(tag)
            out["mod"].append(mod[end - 1])
    return pa.table(
        {
            "url": pa.array(out["url"], pa.string()),
            "chunk_id": pa.array(out["chunk_id"], pa.int32()),
            "mention": pa.array(out["mention"], pa.string()),
            "ner_tag": pa.array(out["ner_tag"], pa.string()),
            "mod": pa.array(out["mod"], pa.string()),
        }
    )
