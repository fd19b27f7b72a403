"""Non-BERT encoder path: w2v embeddings + BiLSTM tagger (reference
``--non_bert``, /root/reference/clinical_pipeline_ner.py:82-89 — the
legacy pre-transformer architecture: pre-trained word2vec lookup +
BiLSTM + per-token softmax emissions).

This module demonstrates that the engine's ``predict()`` seam admits
the non-BERT architecture end to end, pure numpy (no torch):

- **artifacts**: embeddings load from ``model_dir`` in ``__init__``
  (once per scorer actor/worker — the S12 w2v-loader pattern):
  ``embeddings.npz`` holding the matrix + ``w2v_vocab.json`` holding
  token -> row. ``save_w2v`` / ``load_w2v`` in ``state/artifacts.py``
  write/read the pair.
- **fallback weights**: without an artifact dir, weights derive
  deterministically from token hashes, so the full forward
  (embed -> BiLSTM -> emissions -> constrained BIO decode) runs and is
  tested in-sandbox; a trained export drops into the same arrays.
- **contract**: ``predict(text)`` returns the exact tuple the joint
  scorer consumes (wrap-inclusive subword tokens/BIO/mod + selection
  cells). This is an NER-stage encoder (pipeline mode A3), so mod is
  all ``_`` and cells are empty — compose with the pipeline-mode
  modality/relation stages for the full three-stage architecture.

The tagger is untrained in-sandbox, so its LABELS are arbitrary —
what is pinned by tests is the seam: artifact load-in-init, shape
discipline, valid BIO transitions (constrained greedy decode),
determinism, and composition through ``JointScorer``/``score_chunks``.
"""

from __future__ import annotations

import numpy as np

from ..hashing import mix64, stable_hash64
from ..tokenization import analyze, subword_tokenize

DEFAULT_DIM = 32
DEFAULT_HIDDEN = 16


def _hash_vector(token: str, dim: int, salt: str = "w2v") -> np.ndarray:
    """Deterministic stand-in embedding for an out-of-artifact token
    (the reference maps OOV to a shared <UNK> row; a hash vector keeps
    distinct tokens distinct, which exercises the LSTM better)."""
    base = np.full(dim, stable_hash64(salt, token) % (1 << 31), dtype=np.uint64)
    u = mix64(base + np.arange(dim, dtype=np.uint64))
    return (u.astype(np.float64) / float(1 << 64)) * 2.0 - 1.0


def _hash_matrix(shape: tuple[int, int], seed: int) -> np.ndarray:
    u = mix64(np.arange(shape[0] * shape[1], dtype=np.uint64), seed=seed)
    return ((u.astype(np.float64) / float(1 << 64)) * 2.0 - 1.0).reshape(shape) * 0.5


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


class _LSTMCell:
    """Plain numpy LSTM cell with deterministic (or loaded) weights."""

    def __init__(self, dim: int, hidden: int, seed: int) -> None:
        self.w = _hash_matrix((4 * hidden, dim + hidden), seed)
        self.b = np.zeros(4 * hidden)
        self.hidden = hidden

    def run(self, xs: np.ndarray) -> np.ndarray:
        h = np.zeros(self.hidden)
        c = np.zeros(self.hidden)
        out = np.empty((len(xs), self.hidden))
        for t, x in enumerate(xs):
            z = self.w @ np.concatenate([x, h]) + self.b
            i, f, g, o = np.split(z, 4)
            c = _sigmoid(f) * c + _sigmoid(i) * np.tanh(g)
            h = _sigmoid(o) * np.tanh(c)
            out[t] = h
        return out


class W2VLSTMModel:
    """predict()-contract NER backend over w2v + BiLSTM (non-BERT)."""

    def __init__(self, model_dir: str | None = None, *, analyzer: str = "mecab") -> None:
        # stateful setup once per actor/worker: artifact load + weights
        from ..state.artifacts import default_vocabs

        self.analyzer = analyzer
        self.dim = DEFAULT_DIM
        self.vocab: dict[str, int] = {}
        self.matrix: np.ndarray | None = None
        if model_dir is not None:
            from ..state.artifacts import load_w2v

            self.vocab, self.matrix = load_w2v(model_dir)
            self.dim = int(self.matrix.shape[1])
        n2ix = default_vocabs()["ner2ix"]
        self.ner_labels = [k for k, _ in sorted(n2ix.items(), key=lambda kv: kv[1])]
        self.fwd = _LSTMCell(self.dim, DEFAULT_HIDDEN, seed=11)
        self.bwd = _LSTMCell(self.dim, DEFAULT_HIDDEN, seed=13)
        self.emission = _hash_matrix(
            (len(self.ner_labels), 2 * DEFAULT_HIDDEN), seed=17
        )

    def _embed(self, tokens: list[str]) -> np.ndarray:
        out = np.empty((len(tokens), self.dim))
        for i, t in enumerate(tokens):
            row = self.vocab.get(t)
            out[i] = (
                self.matrix[row]
                if row is not None and self.matrix is not None
                else _hash_vector(t, self.dim)
            )
        return out

    def _decode_bio(self, scores: np.ndarray) -> list[str]:
        """Constrained greedy decode: ``I-x`` is only reachable after
        ``B-x``/``I-x`` — emissions can't produce invalid transitions
        (the CRF's hard constraint, enforced without one)."""
        labels = self.ner_labels
        out: list[str] = []
        prev = "O"
        for row in scores:
            order = np.argsort(-row)
            for ix in order:
                lab = labels[int(ix)]
                if lab.startswith("I-") and prev[2:] != lab[2:]:
                    continue
                out.append(lab)
                prev = lab
                break
        return out

    def predict(
        self, text: str
    ) -> tuple[list[str], list[str], list[str], list[tuple[int, str, int]]]:
        words = analyze(text, self.analyzer)
        if not words:
            return ["[CLS]", "[SEP]"], ["O", "O"], ["_", "_"], []
        x = self._embed(words)
        h = np.concatenate([self.fwd.run(x), self.bwd.run(x[::-1])[::-1]], axis=1)
        word_ner = self._decode_bio(h @ self.emission.T)

        # expand word labels to the subword contract exactly like the
        # joint scorer (first subword keeps B-, continuations get I-)
        from ..labels import match_ner_label

        pieces = subword_tokenize(words)
        sbw_ner = ["O"] + match_ner_label(pieces, word_ner) + ["O"]
        sbw_toks = ["[CLS]"] + pieces + ["[SEP]"]
        sbw_mod = ["_"] * len(sbw_toks)
        return sbw_toks, sbw_ner, sbw_mod, []
