"""Real-model seam tests: the predict() contract is backend-agnostic.

The sandbox has no torch/transformers, so the HF backend is covered at
three seams: (1) its pure-numpy decode half runs for real, (2) backend
injection through JointScorer/score_chunks produces output identical to
the mock path, (3) missing extras fail with a clean install message.
"""

import numpy as np
import pyarrow as pa
import pytest

from jamie_ray.mockmodel import REL_VOCAB
from jamie_ray.stages.hf_model import decode_forward_outputs
from jamie_ray.stages.score import JointScorer, MockJointModel


def test_decode_forward_outputs_matches_reference_order():
    """Cells come out row-major on (s, rel_index, o) — the reference's
    selection nonzero order (model.py:751)."""
    ner_labels = ["O", "B-d", "I-d"]
    mod_labels = ["_", "positive"]
    T, R = 5, len(REL_VOCAB)
    sel = np.zeros((T, R, T))
    sel[3, 1, 1] = 0.9
    sel[1, 0, 3] = 0.8
    sel[1, 2, 2] = 0.7
    sel[1, 0, 2] = 0.6  # same (s, p) as (1,0,3): o ascending
    ner, mod, cells = decode_forward_outputs(
        [0, 1, 2, 1, 0],
        [0, 0, 1, 0, 0],
        sel,
        ner_labels=ner_labels,
        mod_labels=mod_labels,
    )
    assert ner == ["O", "B-d", "I-d", "B-d", "O"]
    assert mod == ["_", "_", "positive", "_", "_"]
    assert cells == [
        (1, REL_VOCAB[0], 2),
        (1, REL_VOCAB[0], 3),
        (1, REL_VOCAB[2], 2),
        (3, REL_VOCAB[1], 1),
    ]
    # threshold is strict
    _, _, none = decode_forward_outputs(
        [0], [0], np.zeros((1, R, 1)), ner_labels=ner_labels, mod_labels=mod_labels
    )
    assert none == []


class _InjectedBackend:
    """Stand-in for a real transformer: same contract, delegates to the
    mock so output equality is checkable bit-for-bit."""

    def __init__(self) -> None:
        self.inner = MockJointModel()
        self.calls = 0

    def predict(self, text):
        self.calls += 1
        return self.inner.predict(text)


def _chunk_batch():
    return pa.table(
        {
            "url": pa.array(["u1", "u2"], pa.string()),
            "chunk_id": pa.array([0, 0], pa.int32()),
            "text": pa.array(["発熱あり。", "これは発熱と咳。"], pa.string()),
        }
    )


def test_injected_backend_equals_mock():
    mock_out = JointScorer()(_chunk_batch())
    inj = _InjectedBackend()
    inj_out = JointScorer(model=inj)(_chunk_batch())
    assert inj.calls == 2
    assert mock_out.equals(inj_out)


def test_injected_backend_through_actor_pool(ray_session):
    """A non-mock backend routes through the actor-pool shape and the
    full pipeline output is unchanged.

    The backend class is function-LOCAL on purpose: cloudpickle then
    ships it by value to the actor (a module-level class in ``tests.*``
    would pickle by reference, which workers cannot import)."""
    import ray.data

    from jamie_ray.pipelines.kg import score_chunks

    class LocalInjected:
        def __init__(self) -> None:
            self.inner = MockJointModel()

        def predict(self, text):
            return self.inner.predict(text)

    chunks = ray.data.from_arrow(_chunk_batch())
    base = sorted(
        map(tuple, (tuple(r.values()) for r in
            score_chunks(ray.data.from_arrow(_chunk_batch())).take_all()))
    )
    via_obj = sorted(
        map(tuple, (tuple(r.values()) for r in
            score_chunks(chunks, model=LocalInjected(), concurrency=1).take_all()))
    )
    assert base == via_obj


def test_hf_backend_missing_extras_message():
    try:
        import transformers  # noqa: F401

        pytest.skip("transformers installed; ImportError path not reachable")
    except ImportError:
        pass
    from jamie_ray.stages.hf_model import HFJointModel

    with pytest.raises(ImportError, match="pip install torch transformers"):
        HFJointModel("/nonexistent", ner_labels=["O"], mod_labels=["_"])


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="unknown scorer model"):
        JointScorer(model="bert-base")


def test_scorer_shape_follows_backend(ray_session, tmp_path, monkeypatch):
    """The backend alone picks the scorer's physical shape: "mock" is a
    task map whose kernel runs outside any actor, an injected predict()
    object an actor pool whose predict() runs inside one actor."""
    import re

    import ray
    import ray.data

    from jamie_ray.pipelines import kg

    marks = tmp_path / "actor_ids"

    class LocalInjected:
        def __init__(self) -> None:
            self.inner = MockJointModel()

        def predict(self, text):
            with open(marks, "a") as f:
                f.write(f"{ray.get_runtime_context().get_actor_id()}\n")
            return self.inner.predict(text)

    def op_names(ds):
        stats = ds.materialize().stats()
        return re.findall(r"^Operator \d+ (\S+):", stats, re.M)

    task_marks = tmp_path / "task_actor_ids"
    kernel = kg.score_chunks_task

    def score_chunks_task(batch, **kw):
        with open(task_marks, "a") as f:
            f.write(f"{ray.get_runtime_context().get_actor_id()}\n")
        return kernel(batch, **kw)

    monkeypatch.setattr(kg, "score_chunks_task", score_chunks_task)
    names = op_names(kg.score_chunks(ray.data.from_arrow(_chunk_batch())))
    assert task_marks.read_text().split() == ["None"]
    assert names == ["FromArrow", "MapBatches(score_chunks_task)"]

    names = op_names(
        kg.score_chunks(
            ray.data.from_arrow(_chunk_batch()), model=LocalInjected(), concurrency=1
        )
    )
    assert names == ["FromArrow", "MapBatches(JointScorer)"]
    ids = marks.read_text().split()
    assert len(ids) == 2 and len(set(ids)) == 1 and ids[0] != "None"


def test_decode_half_against_saved_forward_fixture():
    """tests/data/hf_forward.npz holds saved forward outputs in the
    TorchScript export contract (ner ids, mod ids, sel probs with a
    saturated 'N' channel, reference-style vocab with 'N' leading);
    decode_forward_outputs must reproduce the known predict() outputs —
    including skipping the 'N' predicate like selection_decode
    (model.py:745)."""
    import os

    from jamie_ray.stages.score import _REL_INDEX

    path = os.path.join(os.path.dirname(__file__), "data", "hf_forward.npz")
    fx = np.load(path, allow_pickle=False)
    ner_labels = [str(x) for x in fx["ner_labels"]]
    mod_labels = [str(x) for x in fx["mod_labels"]]
    rel_vocab = [str(x) for x in fx["rel_vocab"]]
    assert rel_vocab[0] == "N"
    m = MockJointModel()
    for i, text in enumerate(str(x) for x in fx["texts"]):
        want_toks, want_ner, want_mod, want_cells = m.predict(text)
        got_ner, got_mod, got_cells = decode_forward_outputs(
            fx[f"ner_{i}"], fx[f"mod_{i}"], fx[f"sel_{i}"],
            ner_labels=ner_labels, mod_labels=mod_labels, rel_vocab=rel_vocab,
        )
        assert got_ner == want_ner
        assert got_mod == want_mod
        # decode order is row-major (s, p_index, o) over the REFERENCE
        # vocab; re-sort the expectation the same way before comparing
        want_sorted = sorted(want_cells, key=lambda c: (c[0], rel_vocab.index(c[1]), c[2]))
        assert got_cells == want_sorted
        assert all(p != "N" for _, p, _ in got_cells)


def test_checkpoint_vocab_json_loader(tmp_path):
    import json

    from jamie_ray.stages.hf_model import _labels_from_json

    (tmp_path / "ner2ix.json").write_text(json.dumps({"O": 0, "B-d": 1, "I-d": 2}))
    assert _labels_from_json(str(tmp_path / "ner2ix.json")) == ["O", "B-d", "I-d"]


def test_export_recipe_in_repo():
    """The TorchScript export recipe ships with the repo and documents
    the checkpoint layout it consumes (clinical_joint.py:446-486)."""
    import os

    p = os.path.join(os.path.dirname(__file__), "..", "scripts", "export_torchscript.py")
    src = open(p, encoding="utf-8").read()
    for needle in ("joint_model.pt", "ner2ix.json", "Viterbi", "torch.jit"):
        assert needle in src


# ---- non-BERT (w2v + BiLSTM) encoder path ---------------------------------

def test_w2v_lstm_contract_and_determinism():
    """The non-BERT path (reference --non_bert) fulfills the predict()
    contract: wrap-inclusive aligned outputs, VALID BIO transitions
    (constrained decode), deterministic across instances."""
    from jamie_ray.stages.w2v_lstm import W2VLSTMModel

    m1, m2 = W2VLSTMModel(), W2VLSTMModel()
    for text in ["発熱あり。", "左肺に陰影、手術は翌週。", ""]:
        toks, ner, mod, cells = m1.predict(text)
        assert toks[0] == "[CLS]" and toks[-1] == "[SEP]"
        assert len(toks) == len(ner) == len(mod)
        assert cells == [] and all(x == "_" for x in mod)
        prev = "O"
        for lab in ner:
            if lab.startswith("I-"):
                assert prev[2:] == lab[2:], f"invalid BIO: {prev} -> {lab}"
            prev = lab
        assert m2.predict(text) == (toks, ner, mod, cells)


def test_w2v_artifact_roundtrip_and_scorer_wiring(tmp_path):
    """Embeddings persist via the artifact contract, load once in
    __init__, and change the forward (artifact rows vs hash vectors);
    JointScorer routes model='w2v:<dir>' through the backend."""
    import numpy as np

    from jamie_ray.state.artifacts import load_w2v, save_w2v
    from jamie_ray.stages.w2v_lstm import DEFAULT_DIM, W2VLSTMModel

    vocab = {"発熱": 0, "あり": 1}
    matrix = np.arange(2 * DEFAULT_DIM, dtype=np.float64).reshape(2, -1) / 100.0
    save_w2v(str(tmp_path), vocab, matrix)
    v2, m2 = load_w2v(str(tmp_path))
    assert v2 == vocab and np.array_equal(m2, matrix)

    with_art = W2VLSTMModel(str(tmp_path))
    assert np.array_equal(with_art._embed(["発熱"])[0], matrix[0])
    no_art = W2VLSTMModel()
    assert not np.array_equal(no_art._embed(["発熱"])[0], matrix[0])

    scorer = JointScorer(model=f"w2v:{tmp_path}")
    out = scorer(_chunk_batch())
    assert out.num_rows == 2
    assert out.column("score_error").to_pylist() == ["", ""]
