"""Pipeline-mode scoring: three separate stages (reference A3/A4/A5).

The reference's legacy architecture runs NER, modality and relation
models in sequence over re-serialized files
(/root/reference/clinical_pipeline_ner.py, clinical_pipeline_mod.py,
clinical_pipeline_rel.py). Here each model is one ``map_batches`` stage
over the Arrow IR — no file round-trips — and the stage boundaries
carry exactly what the reference's do:

1. **NER** (BertCRF analogue, model.py:69-125): chunk text -> tokens +
   BIO tags;
2. **modality** (ModalityClassifier analogue, model.py:158-206): spans
   are *derived from the predicted BIO* (span-mask pooling input), one
   modality per span, riding the span's LAST token;
3. **relation** (PipelineRelation analogue, model.py:209-255 + the
   pair enumeration of utils.py:2148-2385 M17): all ordered span pairs
   per sentence segment, decisions anchored at span last tokens.

With the deterministic mock rules, pipeline mode produces output
IDENTICAL to the joint scorer — asserted in tests — which mirrors the
reference's contract that both modes emit the same CoNLL shape.
"""

from __future__ import annotations

import pyarrow as pa

from ..labels import bio_to_spans
from ..mockmodel import (
    gazetteer_lengths,
    gazetteer_mentions,
    gazetteer_tokens,
    modality_for,
    relation_for,
)
from ..tokenization import analyze


def _segments(tokens: list[str]) -> list[tuple[int, int]]:
    """[SEP]-delimited sentence segment bounds (start, end) in word coords."""
    bounds = []
    start = 0
    for i, t in enumerate(tokens):
        if t == "[SEP]":
            bounds.append((start, i))
            start = i + 1
    bounds.append((start, len(tokens)))
    return bounds


class NerStage:
    """Stage 1: text -> tokens + BIO (gazetteer mock of BertCRF)."""

    def __init__(self) -> None:
        self.gazetteer = gazetteer_tokens()
        self.lengths = gazetteer_lengths()

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_tokens, out_ner = [], []
        for text in batch.column("text").to_pylist():
            tokens = analyze(text)
            ner = ["O"] * len(tokens)
            for seg_start, seg_end in _segments(tokens):
                for s, e, tag in gazetteer_mentions(
                    tokens, seg_start, seg_end, self.gazetteer, self.lengths
                ):
                    ner[s] = f"B-{tag}"
                    for j in range(s + 1, e):
                        ner[j] = f"I-{tag}"
            out_tokens.append(tokens)
            out_ner.append(ner)
        return pa.table(
            {
                "url": batch.column("url"),
                "chunk_id": batch.column("chunk_id"),
                "tokens": pa.array(out_tokens, pa.list_(pa.string())),
                "ner": pa.array(out_ner, pa.list_(pa.string())),
            }
        )


def _spans_per_segment(tokens, ner):
    """Predicted spans grouped by sentence segment with per-segment
    ordinals — the unit both downstream stages key their rules on."""
    spans = bio_to_spans(ner)
    per_seg = []
    for seg_start, seg_end in _segments(tokens):
        seg_spans = [sp for sp in spans if sp[1] >= seg_start and sp[2] <= seg_end]
        per_seg.append(seg_spans)
    return per_seg


def modality_stage(batch: pa.Table) -> pa.Table:
    """Stage 2: + mod column (span-derived, last-token rule)."""
    out_mod = []
    for tokens, ner in zip(
        batch.column("tokens").to_pylist(), batch.column("ner").to_pylist()
    ):
        mod = ["_"] * len(tokens)
        for seg_spans in _spans_per_segment(tokens, ner):
            for k, (tag, s, e) in enumerate(seg_spans):
                mention = "".join(tokens[s:e])
                mod[e - 1] = modality_for(tag, mention, k)
        out_mod.append(mod)
    return batch.append_column("mod", pa.array(out_mod, pa.list_(pa.string())))


def relation_stage(batch: pa.Table) -> pa.Table:
    """Stage 3: + rels/heads columns via ordered span-pair enumeration."""
    out_rels, out_heads = [], []
    for tokens, ner in zip(
        batch.column("tokens").to_pylist(), batch.column("ner").to_pylist()
    ):
        n = len(tokens)
        rels: list[list[str]] = [["N"] for _ in range(n)]
        heads: list[list[int]] = [[i] for i in range(n)]
        for seg_spans in _spans_per_segment(tokens, ner):
            mstrs = ["".join(tokens[s:e]) for _, s, e in seg_spans]
            for a in range(len(seg_spans)):
                for b in range(len(seg_spans)):
                    if a == b:
                        continue
                    pred = relation_for(mstrs[a], mstrs[b], a, b)
                    if pred is None:
                        continue
                    tail = seg_spans[a][2] - 1
                    head = seg_spans[b][2] - 1
                    if heads[tail] == [tail] and rels[tail] == ["N"]:
                        heads[tail] = [head]
                        rels[tail] = [pred]
                    else:
                        heads[tail].append(head)
                        rels[tail].append(pred)
        out_rels.append(rels)
        out_heads.append(heads)
    return batch.append_column(
        "rels", pa.array(out_rels, pa.list_(pa.list_(pa.string())))
    ).append_column("heads", pa.array(out_heads, pa.list_(pa.list_(pa.int32()))))


def score_chunks_pipeline(chunks):
    """chunks Dataset -> tagged_chunks Dataset via the 3-stage path."""
    tagged = chunks.map_batches(NerStage, concurrency=(1, 4), batch_format="pyarrow")
    tagged = tagged.map_batches(modality_stage, batch_format="pyarrow")
    tagged = tagged.map_batches(relation_stage, batch_format="pyarrow")
    # column parity with the joint scorer output (incl. the quarantine
    # column — the three-stage mock never fails, so it is empty)
    def finalize(b: pa.Table) -> pa.Table:
        b = b.append_column("score_error", pa.array([""] * b.num_rows, pa.string()))
        return b.select(
            ["url", "chunk_id", "tokens", "ner", "mod", "rels", "heads", "score_error"]
        )

    return tagged.map_batches(finalize, batch_format="pyarrow")
