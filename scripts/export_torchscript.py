"""Export the reference's trained ``JointNerModReExtractor`` to the
TorchScript contract ``jamie_ray`` consumes (``stages/hf_model.py``).

Run this NEXT TO THE REFERENCE CODEBASE (racerandom/JaMIE) in an
environment with torch + transformers + pytorch-crf installed — i.e.
the environment the model was trained in. It is a one-command bridge
from the reference's saved checkpoint to this engine's ``hf:<dir>``
scorer backend:

    python scripts/export_torchscript.py \
        --saved-model /path/to/jamie/checkpoint \
        --out /path/to/export_dir \
        [--max-len 512]

Inputs (the reference's test-mode checkpoint layout,
clinical_joint.py:446-486):
    saved_model/model.pt       — torch.save of the WHOLE module
    saved_model/ner2ix.json    — BIO label vocab
    saved_model/mod2ix.json    — modality vocab
    saved_model/rel2ix.json    — relation vocab (includes 'N')
    saved_model/<tokenizer files>

Outputs (what ``HFJointModel`` loads):
    out/joint_model.pt         — TorchScript module whose
                                 forward(input_ids, attention_mask)
                                 returns (ner_ids [B,T], mod_ids [B,T],
                                 sel_probs [B,T,R,T])
    out/ner2ix.json mod2ix.json rel2ix.json  — copied vocabs
    out/<tokenizer files>      — copied

Export strategy: the reference forward interleaves a CRF Viterbi
decode between the encoder and the modality/relation heads
(model.py:641-709 — mod head consumes the embedding of the DECODED ner
tag), so a plain ``torch.jit.trace`` of the whole module would freeze
data-dependent control flow. Instead:

1. the BERT encoder is ``torch.jit.trace``-d alone (pure tensor ops,
   shape-generic) with ``strict=False``;
2. the CRF Viterbi decode is re-implemented below as a script-friendly
   batched tensor loop over the CRF's learned ``start_transitions`` /
   ``transitions`` / ``end_transitions`` (identical argmax recursion to
   pytorch-crf's ``decode``; verified against it at export time on
   random emissions before writing the artifact);
3. the wrapper (traced encoder + scripted viterbi + the copied linear
   heads, sigmoid on the selection logits) is ``torch.jit.script``-ed.

The exported ``sel_probs`` are probabilities; the engine applies the
reference's ``> 0.5`` cut (model.py:775) inside
``decode_forward_outputs``, which also skips the 'N' predicate exactly
like ``selection_decode`` (model.py:745). Pass the rel vocab order
from rel2ix.json so predicate indices line up.

This script cannot run in the engine's own sandbox (no torch there by
design); the decode half of the backend is tested in-repo against a
saved forward-output fixture (tests/test_score_backends.py).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil


def build_viterbi_module(torch, crf):
    """Script-friendly batched Viterbi over the CRF's learned params.

    Same recursion as pytorch-crf's ``decode`` (viterbi max-product with
    backpointers), but pure tensor ops so ``torch.jit.script`` compiles
    it. Assumes a full (all-ones) mask — the engine scores one unpadded
    sequence per forward.
    """
    nn = torch.nn

    class Viterbi(nn.Module):
        def __init__(self, start, trans, end):
            super().__init__()
            self.register_buffer("start", start.detach().clone())
            self.register_buffer("trans", trans.detach().clone())
            self.register_buffer("end", end.detach().clone())

        def forward(self, emissions):
            # emissions: [B, T, N] -> best tag path ids [B, T]
            B, T, N = emissions.shape
            score = self.start.unsqueeze(0) + emissions[:, 0]  # [B, N]
            history = torch.zeros(B, T, N, dtype=torch.long, device=emissions.device)
            for t in range(1, T):
                # [B, N_prev, N_next]
                cand = score.unsqueeze(2) + self.trans.unsqueeze(0) + emissions[:, t].unsqueeze(1)
                score, idx = cand.max(dim=1)
                history[:, t] = idx
            score = score + self.end.unsqueeze(0)
            best_last = score.argmax(dim=1)  # [B]
            path = torch.zeros(B, T, dtype=torch.long, device=emissions.device)
            path[:, T - 1] = best_last
            for t in range(T - 2, -1, -1):
                path[:, t] = history[:, t + 1].gather(
                    1, path[:, t + 1].unsqueeze(1)
                ).squeeze(1)
            return path

    return Viterbi(crf.start_transitions, crf.transitions, crf.end_transitions)


def main() -> None:
    import torch

    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--saved-model", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--max-len", type=int, default=512)
    args = ap.parse_args()

    model = torch.load(os.path.join(args.saved_model, "model.pt"), map_location="cpu")
    model.eval()

    with open(os.path.join(args.saved_model, "rel2ix.json")) as f:
        rel2ix = json.load(f)

    # 1. trace the encoder (shape-generic tensor ops)
    ex_ids = torch.ones(1, 16, dtype=torch.long)
    ex_mask = torch.ones(1, 16, dtype=torch.long)

    class Encoder(torch.nn.Module):
        def __init__(self, bert):
            super().__init__()
            self.bert = bert

        def forward(self, ids, mask):
            _, _, hiddens = self.bert(ids, attention_mask=mask,
                                      token_type_ids=torch.zeros_like(ids))
            return hiddens[6], hiddens[12]  # low_o, high_o (model.py:650-652)

    encoder = torch.jit.trace(Encoder(model.encoder), (ex_ids, ex_mask), strict=False)

    # 2. scripted viterbi, verified against pytorch-crf before export
    viterbi = build_viterbi_module(torch, model.crf_tagger)
    with torch.no_grad():
        em = torch.randn(2, 11, len(model.ner_vocab))
        want = model.crf_tagger.decode(em)
        got = viterbi(em).tolist()
        assert got == want, "scripted viterbi diverges from pytorch-crf decode"

    # 3. full wrapper: encoder -> viterbi ner -> mod head -> sel head
    class Joint(torch.nn.Module):
        """Inference-only re-expression of model.py:644-709: emissions
        from low_o, viterbi ner, mod head over cat(low_o, ner_emb),
        selection head over cat(high_o, ner_emb, mod_emb) with
        tanh-after-broadcast-sum and the bias-free rel_h2o projection
        (dropout is identity in eval)."""

        def __init__(self):
            super().__init__()
            self.encoder = encoder
            self.viterbi = viterbi
            self.crf_emission = model.crf_emission
            self.ner_emb = model.ner_emb
            self.mod_emb = model.mod_emb
            self.mod_h2o = model.mod_h2o
            self.rel_h2o = model.rel_h2o
            self.sel_u = torch.nn.Parameter(model.sel_u_mat.detach().clone())
            self.sel_v = torch.nn.Parameter(model.sel_v_mat.detach().clone())
            self.activation = torch.nn.Tanh()

        def forward(self, ids, mask):
            low_o, high_o = self.encoder(ids, mask)
            ner_logits = self.crf_emission(low_o)
            ner_ids = self.viterbi(ner_logits)                       # [B, T]
            ner_vec = self.ner_emb(ner_ids)
            mod_ids = self.mod_h2o(
                torch.cat((low_o, ner_vec), dim=2)                   # model.py:671
            ).argmax(dim=-1)                                         # [B, T]
            mod_vec = self.mod_emb(mod_ids)
            o = torch.cat((high_o, ner_vec, mod_vec), dim=-1)        # model.py:685
            u = o.matmul(self.sel_u.t())                             # [B, T, R_emb]
            v = o.matmul(self.sel_v.t())
            uv = u.unsqueeze(2) + v.unsqueeze(1)                     # [B, T, T, R_emb]
            # tanh AFTER the broadcast sum, then the bias-free relation
            # projection, [B, T, R, T] (model.py:690-695)
            sel_logits = self.rel_h2o(self.activation(uv)).transpose(2, 3)
            return ner_ids, mod_ids, torch.sigmoid(sel_logits)

    joint = torch.jit.script(Joint())

    os.makedirs(args.out, exist_ok=True)
    joint.save(os.path.join(args.out, "joint_model.pt"))
    for name in os.listdir(args.saved_model):
        if name == "model.pt":
            continue
        shutil.copy2(
            os.path.join(args.saved_model, name), os.path.join(args.out, name)
        )
    print(
        json.dumps(
            {
                "out": args.out,
                "rel_vocab": [k for k, _ in sorted(rel2ix.items(), key=lambda kv: kv[1])],
                "usage": "build_triples(pages_path, model='hf:%s')" % args.out,
            }
        )
    )


if __name__ == "__main__":
    main()
