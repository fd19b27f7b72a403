"""Optional transformers-backed scorer model (the real-model seam).

The engine's decode/alignment algebra runs behind ONE contract —
``model.predict(text) -> (sbw_toks, sbw_ner, sbw_mod, cells)`` (see
``stages/score.py``). This module fulfills that contract with a real
transformer checkpoint of the reference architecture
(``JointNerModReExtractor``, /root/reference/model.py:598-780: BERT
encoder + CRF NER head + modality classifier + head-selection relation
matrix):

- the checkpoint directory holds the HF tokenizer files plus a
  TorchScript export ``joint_model.pt`` whose
  ``forward(input_ids, attention_mask)`` returns
  ``(ner_tag_ids [B,T], mod_tag_ids [B,T], sel_scores [B,T,R,T])`` —
  the reference model's three decoded outputs (model.py:641-709). A
  TorchScript export (one ``torch.jit.trace`` on the reference side)
  avoids importing the reference's class definition here;
- :func:`decode_forward_outputs` converts those arrays to the predict()
  contract — label-id lookup plus the reference's row-major ``nonzero``
  cell ordering (model.py:751) — and is pure numpy, so the whole
  decode half of the backend is TESTED in this repo without torch;
- torch/transformers are OPTIONAL: this sandbox ships neither, so
  construction raises a clean ImportError naming the pip install. The
  mock backend (``mockmodel.py``) keeps the engine fully functional and
  exercises the identical downstream path.

Run shape: pass ``model="hf:<checkpoint_dir>"`` to
:class:`~jamie_ray.stages.score.JointScorer` (or to ``build_triples`` /
``score_chunks``); the scorer then runs as an actor pool so weights
load once per actor in ``__init__``.
"""

from __future__ import annotations

import numpy as np

from ..mockmodel import REL_VOCAB


def decode_forward_outputs(
    ner_ids,
    mod_ids,
    sel_scores,
    *,
    ner_labels: list[str],
    mod_labels: list[str],
    rel_vocab: list[str] | None = None,
    threshold: float = 0.5,
):
    """Model forward outputs (one sequence) -> predict() tail.

    ``ner_ids``/``mod_ids``: int arrays of length T (wrap-inclusive);
    ``sel_scores``: float array [T, R, T] of head-selection
    probabilities. Returns (sbw_ner, sbw_mod, cells) where cells are
    ``(subj_sbw, rel_name, obj_sbw)`` sorted row-major on
    (s, rel_index, o) — exactly the reference's
    ``selection_logits.nonzero()`` order (model.py:751).
    """
    rel_vocab = rel_vocab or list(REL_VOCAB)
    ner_ids = np.asarray(ner_ids)
    mod_ids = np.asarray(mod_ids)
    sel = np.asarray(sel_scores)
    sbw_ner = [ner_labels[i] for i in ner_ids.tolist()]
    sbw_mod = [mod_labels[i] for i in mod_ids.tolist()]
    hot = np.argwhere(sel > threshold)  # row-major (s, p, o) like nonzero
    # the reference vocab carries an explicit 'N' (no-relation) class;
    # selection_decode skips it (model.py:745) — so do we
    cells = [
        (int(s), rel_vocab[int(p)], int(o))
        for s, p, o in hot
        if rel_vocab[int(p)] != "N"
    ]
    return sbw_ner, sbw_mod, cells


def _labels_from_json(path: str) -> list[str]:
    """label->index json (the reference's *2ix.json) -> index-ordered
    label list."""
    import json

    with open(path, encoding="utf-8") as f:
        vocab = json.load(f)
    return [k for k, _ in sorted(vocab.items(), key=lambda kv: kv[1])]


class HFJointModel:
    """predict()-contract backend over a TorchScript reference export.

    Stateful setup (tokenizer + weights) happens in ``__init__`` — once
    per scorer actor. ``predict`` mirrors the reference preprocessing:
    mecab-style wakati via the engine's ``analyze`` (tokenization.py),
    per-word HF wordpiece (utils.py's convert path), ``[CLS]/[SEP]``
    wrap, single forward, then :func:`decode_forward_outputs`.
    """

    def __init__(
        self,
        model_dir: str,
        *,
        ner_labels: list[str] | None = None,
        mod_labels: list[str] | None = None,
        rel_vocab: list[str] | None = None,
        threshold: float = 0.5,
        device: str = "cpu",
    ) -> None:
        try:
            import torch
            from transformers import AutoTokenizer
        except ImportError as ex:
            raise ImportError(
                "the transformers scorer backend needs the real-model "
                "extras: `pip install torch transformers`. The engine "
                "remains fully functional with the deterministic mock "
                "backend (model='mock')."
            ) from ex
        # label vocabularies default to the checkpoint's own json files
        # (the reference's ner2ix/mod2ix/rel2ix.json, copied verbatim by
        # scripts/export_torchscript.py) — `hf:<dir>` needs no arguments
        if ner_labels is None:
            ner_labels = _labels_from_json(f"{model_dir}/ner2ix.json")
        if mod_labels is None:
            mod_labels = _labels_from_json(f"{model_dir}/mod2ix.json")
        if rel_vocab is None:
            import os

            if os.path.exists(f"{model_dir}/rel2ix.json"):
                rel_vocab = _labels_from_json(f"{model_dir}/rel2ix.json")
        self._torch = torch
        self.tokenizer = AutoTokenizer.from_pretrained(model_dir)
        self.model = torch.jit.load(f"{model_dir}/joint_model.pt", map_location=device)
        self.model.eval()
        self.device = device
        self.ner_labels = ner_labels
        self.mod_labels = mod_labels
        self.rel_vocab = rel_vocab or list(REL_VOCAB)
        self.threshold = threshold

    def predict(self, text: str):
        from ..tokenization import analyze

        torch = self._torch
        words = analyze(text)
        pieces: list[str] = []
        for w in words:
            pieces.extend(self.tokenizer.tokenize(w) or ["[UNK]"])
        sbw_toks = ["[CLS]"] + pieces + ["[SEP]"]
        ids = self.tokenizer.convert_tokens_to_ids(sbw_toks)
        input_ids = torch.tensor([ids], dtype=torch.long, device=self.device)
        attention = torch.ones_like(input_ids)
        with torch.no_grad():
            ner_ids, mod_ids, sel = self.model(input_ids, attention)
        sbw_ner, sbw_mod, cells = decode_forward_outputs(
            ner_ids[0].cpu().numpy(),
            mod_ids[0].cpu().numpy(),
            sel[0].cpu().numpy(),
            ner_labels=self.ner_labels,
            mod_labels=self.mod_labels,
            rel_vocab=self.rel_vocab,
            threshold=self.threshold,
        )
        return sbw_toks, sbw_ner, sbw_mod, cells
