"""Scoring stage: chunks -> tagged_chunks (the flagship actor-pool stage).

Mirrors the reference's joint inference path end to end:

  model forward (CRF decode -> modality argmax -> selection cells)
      /root/reference/model.py:641-709
  selection_decode -> SPO index triples
      /root/reference/model.py:728-770
  subword -> word realignment and CoNLL row emission
      /root/reference/clinical_joint.py:87-102, utils.py:1831-1892

The model itself is swappable behind ``ScorerModel``: v0 ships
``MockJointModel`` — a deterministic gazetteer tagger + hash-driven
modality/relation rules (see ``mockmodel.py``) with the exact output
contract of ``JointNerModReExtractor`` (subword BIO tags, subword
modality tags, sparse selection cells). A real transformer drops in by
implementing the same three-output interface; the actor pool, batching
and decode path do not change.

Run it as ``ds.map_batches(JointScorer, concurrency=N, batch_size=B,
batch_format="pyarrow")`` — stateful setup happens once per actor in
``__init__`` (gazetteer build ~ model load).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..labels import (
    match_mod_label,
    match_ner_label,
    sbwmod2mod,
    sbwner2ner,
    sbwrel2head,
    sbwtok2tok_alignment,
    selection_decode,
    word_to_sbw_last_index,
)
from ..mockmodel import (
    REL_VOCAB,
    gazetteer_lengths,
    gazetteer_mentions,
    gazetteer_tokens,
    modality_for,
    relation_for,
)
from ..tokenization import analyze, subword_tokenize

_REL_INDEX = {r: i for i, r in enumerate(REL_VOCAB)}


class MockJointModel:
    """Deterministic stand-in for the BERT joint model.

    Produces, per chunk: word tokens, word BIO tags, word modality tags,
    and word-level relations — then expands them to the subword-level
    prediction contract (tags over ``[CLS] + pieces + [SEP]`` plus
    sparse selection cells anchored at last subwords) exactly as the
    trained reference model would emit them.
    """

    def __init__(self, analyzer: str = "mecab") -> None:
        self.analyzer = analyzer
        self.gazetteer = gazetteer_tokens(analyzer)
        # by first token: at each position try only widths that can match
        self.lengths = gazetteer_lengths(analyzer)

    # -- word-level tagging (the "forward pass") -------------------------

    def tag_words(
        self, tokens: list[str]
    ) -> tuple[list[str], list[str], list[tuple[tuple[int, int], str, tuple[int, int]]]]:
        """Greedy gazetteer match per ``[SEP]``-delimited sentence segment.

        Returns (word BIO tags, word modality tags, relations) where each
        relation is ((subj_start, subj_end), pred, (obj_start, obj_end))
        in global word coordinates.
        """
        n = len(tokens)
        ner = ["O"] * n
        mod = ["_"] * n
        relations: list[tuple[tuple[int, int], str, tuple[int, int]]] = []

        seg_start = 0
        while seg_start < n:
            seg_end = seg_start
            while seg_end < n and tokens[seg_end] != "[SEP]":
                seg_end += 1
            mentions = gazetteer_mentions(
                tokens, seg_start, seg_end, self.gazetteer, self.lengths
            )
            for s, e, tag in mentions:
                ner[s] = f"B-{tag}"
                for j in range(s + 1, e):
                    ner[j] = f"I-{tag}"
            # modality + relations keyed by mention string and ordinal
            mstrs = ["".join(tokens[s:e]) for s, e, _ in mentions]
            for k, (s, e, tag) in enumerate(mentions):
                mod[e - 1] = modality_for(tag, mstrs[k], k)
            for a in range(len(mentions)):
                for b in range(len(mentions)):
                    if a == b:
                        continue
                    pred = relation_for(mstrs[a], mstrs[b], a, b)
                    if pred is not None:
                        relations.append(
                            (mentions[a][:2], pred, mentions[b][:2])
                        )
            seg_start = seg_end + 1
        return ner, mod, relations

    # -- subword-level prediction contract --------------------------------

    def predict(
        self, text: str
    ) -> tuple[list[str], list[str], list[str], list[tuple[int, str, int]]]:
        """chunk text -> (sbw_toks, sbw_ner, sbw_mod, selection cells).

        ``sbw_toks`` includes the ``[CLS]``/``[SEP]`` wrap; cells are in
        wrap-inclusive coordinates sorted row-major (s, p, o) like the
        dense ``nonzero`` of the reference (model.py:751).
        """
        tokens = analyze(text, self.analyzer)
        w_ner, w_mod, relations = self.tag_words(tokens)

        pieces = subword_tokenize(tokens)
        sbw_ner = ["O"] + match_ner_label(pieces, w_ner) + ["O"]
        sbw_mod = ["_"] + match_mod_label(pieces, w_mod) + ["_"]
        sbw_toks = ["[CLS]"] + pieces + ["[SEP]"]

        _, aligned_ids = sbwtok2tok_alignment(sbw_toks)
        w2last = word_to_sbw_last_index(aligned_ids)

        cells = sorted(
            (
                w2last[subj_span[1] - 1 + 1],  # +1: [CLS] occupies word 0
                pred,
                w2last[obj_span[1] - 1 + 1],
            )
            for subj_span, pred, obj_span in relations
        )
        cells.sort(key=lambda c: (c[0], _REL_INDEX[c[1]], c[2]))
        return sbw_toks, sbw_ner, sbw_mod, cells


class _CostEmulator:
    """Deterministic compute stand-in for the transformer forward pass.

    The mock tagger costs ~0.3 ms/chunk; a BERT-base forward costs
    ~50-300 ms/chunk on CPU — two to three orders of magnitude. Pipeline
    benchmarks run with this emulator enabled so the measured scaling
    reflects a model-bound workload (the real deployment), not Ray's
    fixed overhead on a near-zero-cost stage. The work is a fixed chain
    of float32 matmuls proportional to the subword length — same shape
    as encoder layers — and its output feeds nothing (results are
    bitwise identical with or without it).
    """

    HIDDEN = 256

    def __init__(self, n_layers: int) -> None:
        self.n_layers = n_layers
        # deterministic weights, built once per worker/actor
        rng = np.arange(self.HIDDEN * self.HIDDEN, dtype=np.float64)
        w = ((rng * 2654435761.0) % 1021.0 / 1021.0 - 0.5).astype(np.float32)
        self.weight = w.reshape(self.HIDDEN, self.HIDDEN)

    def burn(self, n_subwords: int) -> None:
        if self.n_layers <= 0:
            return
        h = np.ones((max(8, n_subwords), self.HIDDEN), dtype=np.float32)
        for _ in range(self.n_layers):
            h = np.tanh(h @ self.weight)


class JointScorer:
    """map_batches callable: chunks table -> tagged_chunks table.

    Runs as an actor pool (``concurrency=N``) or as plain tasks — model
    state is built once per actor in ``__init__``; the task path uses
    :func:`score_chunks_task` whose module-level singleton gives the
    same build-once behavior per worker process.

    ``model_cost_layers`` > 0 enables the :class:`_CostEmulator` (used
    by bench; correctness runs leave it at 0).
    """

    def __init__(
        self,
        model="mock",
        model_cost_layers: int = 0,
        hf_kwargs: dict | None = None,
        analyzer: str | None = None,
    ) -> None:
        """``model`` selects the backend behind the predict() contract:

        - ``"mock"`` (default): the deterministic gazetteer model;
        - ``"hf:<checkpoint_dir>"``: the transformers backend
          (``stages/hf_model.py``) — optional torch/transformers
          import, weights load HERE (once per actor); ``hf_kwargs``
          passes label vocabularies etc.;
        - ``"w2v"`` / ``"w2v:<artifact_dir>"``: the non-BERT
          w2v+BiLSTM NER encoder (``stages/w2v_lstm.py``, the
          reference's ``--non_bert`` path) — pure numpy, embeddings
          load once per actor from the artifact dir;
        - ``"trained:<checkpoint_dir>"``: a ``train_joint`` checkpoint
          (``stages/train_joint.py`` — the engine's ``--do_train``
          output): frozen encoder + trained joint heads, loaded once
          per actor;
        - any object with a ``predict(text)`` method: direct injection
          (user-supplied backends, tests).
        """
        # analyzer=None means "backend default": mock/w2v tokenize with
        # mecab; the trained: backend restores the checkpoint's
        # RECORDED analyzer (meta.json) — a truthy scorer default here
        # would silently override it and mismatch train/inference
        # tokenization
        if model == "mock":
            self.model = MockJointModel(analyzer=analyzer or "mecab")
        elif isinstance(model, str) and model.startswith("hf:"):
            from .hf_model import HFJointModel

            self.model = HFJointModel(model[3:], **(hf_kwargs or {}))
        elif isinstance(model, str) and model.startswith("trained:"):
            from .train_joint import TrainedJointModel

            self.model = TrainedJointModel(
                model[len("trained:"):], analyzer=analyzer, **(hf_kwargs or {})
            )
        elif isinstance(model, str) and (model == "w2v" or model.startswith("w2v:")):
            from .w2v_lstm import W2VLSTMModel

            self.model = W2VLSTMModel(
                model[4:] or None if model.startswith("w2v:") else None,
                analyzer=analyzer or "mecab",  # chunking/scoring agree
                **(hf_kwargs or {}),
            )
        elif hasattr(model, "predict"):
            self.model = model
        else:
            raise ValueError(
                f"unknown scorer model {model!r}: expected 'mock', "
                "'hf:<checkpoint_dir>', or an object with predict()"
            )
        self.cost = _CostEmulator(model_cost_layers)

    def __call__(self, batch: pa.Table) -> pa.Table:
        # length-bucketed batching (SURVEY.md §4 skew note): process the
        # batch in n_subwords order so a real model pads each micro-batch
        # to near-uniform length. Output rows are keyed (url, chunk_id),
        # so reordering is free.
        if "n_subwords" in batch.column_names:
            import pyarrow.compute as pc

            batch = batch.take(pc.sort_indices(batch.column("n_subwords")))
        urls = batch.column("url").to_pylist()
        cids = batch.column("chunk_id").to_pylist()
        texts = batch.column("text").to_pylist()

        out_tokens: list[list[str]] = []
        out_ner: list[list[str]] = []
        out_mod: list[list[str]] = []
        out_rels: list[list[list[str]]] = []
        out_heads: list[list[list[int]]] = []

        out_errors: list[str] = []
        for text in texts:
            # poison-chunk quarantine: a chunk whose scoring fails keeps
            # its row (empty labels + error string) instead of killing
            # the task or silently vanishing (reference prints-and-skips,
            # utils.py:868-880)
            try:
                sbw_toks, sbw_ner, sbw_mod, cells = self.model.predict(text)
                self.cost.burn(len(sbw_toks))
                rel_ix_triplets = selection_decode(sbw_ner, cells)

                # realignment exactly as clinical_joint.py:87-98
                w_tok, aligned_ids = sbwtok2tok_alignment(sbw_toks)
                w_ner = sbwner2ner(sbw_ner, aligned_ids)
                w_mod = sbwmod2mod(sbw_mod, aligned_ids)
                w_rel, w_head = sbwrel2head(rel_ix_triplets, aligned_ids)
                w_tok = w_tok[1:-1]
                w_ner = w_ner[1:-1]
                w_mod = w_mod[1:-1]
                if not (
                    len(w_tok) == len(w_ner) == len(w_mod) == len(w_rel) == len(w_head)
                ):
                    raise AssertionError("realignment length mismatch")
            except AssertionError:
                # engine-invariant violations are bugs, not poison data —
                # fail loudly instead of quietly dropping triples
                raise
            except Exception as ex:
                out_tokens.append([])
                out_ner.append([])
                out_mod.append([])
                out_rels.append([])
                out_heads.append([])
                out_errors.append(f"{type(ex).__name__}: {ex}"[:500])
                continue

            out_tokens.append(w_tok)
            out_ner.append(w_ner)
            out_mod.append(w_mod)
            out_rels.append(w_rel)
            out_heads.append(w_head)
            out_errors.append("")

        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "chunk_id": pa.array(cids, pa.int32()),
                "tokens": pa.array(out_tokens, pa.list_(pa.string())),
                "ner": pa.array(out_ner, pa.list_(pa.string())),
                "mod": pa.array(out_mod, pa.list_(pa.string())),
                "rels": pa.array(out_rels, pa.list_(pa.list_(pa.string()))),
                "heads": pa.array(out_heads, pa.list_(pa.list_(pa.int32()))),
                "score_error": pa.array(out_errors, pa.string()),
            }
        )


# ---------------------------------------------------------------------------
# Task-based scorer path (per-worker singleton; SURVEY.md §7.2)
# ---------------------------------------------------------------------------

_TASK_SCORERS: dict[tuple[int, str], "JointScorer"] = {}


def score_chunks_task(
    batch: pa.Table, model_cost_layers: int = 0, analyzer: str = "mecab"
) -> pa.Table:
    """Plain-task scorer kernel with a module-level per-worker singleton.

    For the cheap deterministic mock, long-lived Ray worker processes
    make per-job actor-pool startup the dominant fixed cost; a cached
    task function gives the same build-once state without it. A real
    transformer (heavy weights, GPUs) should use the actor-pool path.
    """
    key = (model_cost_layers, analyzer)
    scorer = _TASK_SCORERS.get(key)
    if scorer is None:
        scorer = JointScorer(model_cost_layers=model_cost_layers, analyzer=analyzer)
        _TASK_SCORERS[key] = scorer
    return scorer(batch)
