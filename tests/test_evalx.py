"""Evaluator parity tests — hand-counted fixtures per TupleEvaluator
(/root/reference/clinical_eval.py:54-108)."""

import pytest

from jamie_ray import evalx


def test_calculate_f1_guards():
    assert evalx.calculate_f1(0, 0, 0) == (0.0, 0.0, 0.0)
    p, r, f1 = evalx.calculate_f1(2, 1, 1)
    assert (p, r) == (2 / 3, 2 / 3)
    assert f1 == pytest.approx(2 / 3)


def test_match_tuples_multiset_removal():
    gold = [("a", "x", "r1"), ("a", "x", "r1"), ("b", "y", "r2")]
    pred = [("a", "x", "r1"), ("c", "z", "r1")]
    counts = evalx.match_tuples(gold, pred)
    # one of the two duplicate golds matches (removal!), one is a fn
    assert counts["r1"] == [1, 1, 1]
    assert counts["r2"] == [0, 0, 1]


def test_match_tuples_skips_n_o_classes():
    gold = [("a", "x", "N"), ("b", "y", "O"), ("c", "z", "_")]
    pred = [("q", "w", "OO")]
    assert evalx.match_tuples(gold, pred) == {}


def test_match_tuples_rel_col():
    gold = [("r1", "a"), ("r2", "b")]
    pred = [("r1", "a")]
    counts = evalx.match_tuples(gold, pred, rel_col=0)
    assert counts["r1"] == [1, 0, 0]
    assert counts["r2"] == [0, 0, 1]


def test_evaluate_datasets_distributed(ray_session):
    import ray.data

    gold = ray.data.from_items(
        [
            {"url": "u1", "chunk_id": 0, "subj": "a", "obj": "b", "pred": "r1"},
            {"url": "u1", "chunk_id": 0, "subj": "a", "obj": "c", "pred": "r2"},
            {"url": "u2", "chunk_id": 1, "subj": "d", "obj": "e", "pred": "r1"},
        ]
    )
    pred = ray.data.from_items(
        [
            {"url": "u1", "chunk_id": 0, "subj": "a", "obj": "b", "pred": "r1"},
            # wrong sentence — must NOT match u2's gold (grouping matters)
            {"url": "u1", "chunk_id": 0, "subj": "d", "obj": "e", "pred": "r1"},
        ]
    )
    res = evalx.evaluate_triples(gold, pred)
    assert res["counts"] == {"tps": 1, "fps": 1, "fns": 2}
    p, r, f1 = res["micro"]
    assert p == 0.5 and r == pytest.approx(1 / 3)
    assert res["per_class"]["r1"][3:] == (1, 1, 1)
    assert res["per_class"]["r2"][3:] == (0, 0, 1)


def test_self_evaluation_is_perfect(ray_session):
    import ray.data

    rows = [
        {"url": "u", "chunk_id": i % 3, "subj": f"s{i}", "obj": "o", "pred": "r"}
        for i in range(20)
    ]
    ds1 = ray.data.from_items(rows)
    ds2 = ray.data.from_items(list(reversed(rows)))
    res = evalx.evaluate_triples(ds1, ds2)
    assert res["micro"] == (1.0, 1.0, 1.0)


# ---- conlleval (reference shell hook, in-repo) ----------------------------

def test_conlleval_report_exact_counts():
    from jamie_ray.evalx import conlleval_lines, conlleval_report

    # sentence 1: one d span matched, one d span missed by pred
    s1 = conlleval_lines(
        ["発", "熱", "x", "肺", "炎"],
        ["B-d", "I-d", "O", "B-d", "I-d"],
        ["B-d", "I-d", "O", "O", "O"],
    )
    # sentence 2: pred invents an 'a' span; I-after-O starts a chunk
    # (conlleval's lenient repair) on the gold side
    s2 = conlleval_lines(
        ["左", "肺"],
        ["O", "I-a"],
        ["B-a", "I-a"],
    )
    report = conlleval_report(s1 + s2)
    lines = report.split("\n")
    assert lines[0] == (
        "processed 7 tokens with 3 phrases; found: 2 phrases; correct: 1."
    )
    # token accuracy: 4/7 correct (B-d, I-d, O, then O vs I-a, B-a miss)
    assert "accuracy:  57.14%" in lines[1]
    assert "precision:  50.00%" in lines[1]
    assert "recall:  33.33%" in lines[1]
    # per-type rows exist for both types
    assert any(l.strip().startswith("a:") for l in lines[2:])
    assert any(l.strip().startswith("d:") for l in lines[2:])


def test_conlleval_malformed_line_skipped_not_fatal():
    """A line with fewer than 3 fields is skipped and counted — one
    malformed line must not kill the whole report (r3 advice)."""
    from jamie_ray.evalx import conlleval_lines, conlleval_report

    good = conlleval_lines(["a", "b"], ["B-d", "O"], ["B-d", "O"])
    rep = conlleval_report(good + "\ntoken O\n")
    assert "processed 2 tokens" in rep
    assert "skipped 1 malformed" in rep


def test_conlleval_perfect_prediction():
    from jamie_ray.evalx import conlleval_lines, conlleval_report

    block = conlleval_lines(["a", "b", "c"], ["B-d", "I-d", "O"], ["B-d", "I-d", "O"])
    rep = conlleval_report(block)
    assert "accuracy: 100.00%" in rep and "FB1: 100.00" in rep


def test_conlleval_cli(tmp_path):
    import subprocess
    import sys

    from jamie_ray.evalx import conlleval_lines

    f = tmp_path / "pred.conll"
    f.write_text(
        conlleval_lines(["a", "b"], ["B-d", "O"], ["B-d", "O"]), encoding="utf-8"
    )
    out = subprocess.run(
        [sys.executable, "-m", "jamie_ray", "conlleval", "--file", str(f)],
        capture_output=True, text=True, cwd="/root/repo",
    )
    assert out.returncode == 0
    assert "FB1: 100.00" in out.stdout


# ---------------------------------------------------------------------------
# attribute-task selection (reference clinical_cert.py:41 -a knob)
# ---------------------------------------------------------------------------

def test_mask_attrib_batch_vectorized():
    import pyarrow as pa

    batch = pa.table(
        {
            "ner_tag": ["d", "TIMEX3", "r", "a"],
            "mod": ["positive", "DATE", "executed", "_"],
        }
    )
    out = evalx.mask_attrib_batch(batch, "cert")
    assert out.column("mod").to_pylist() == ["positive", "_", "_", "_"]
    out = evalx.mask_attrib_batch(batch, "state")
    assert out.column("mod").to_pylist() == ["_", "_", "executed", "_"]


def test_unknown_attrib_task_raises():
    import pyarrow as pa

    with pytest.raises(ValueError, match="wrong attrib"):
        evalx.mask_attrib_batch(pa.table({"ner_tag": [], "mod": []}), "nope")


def test_evaluate_mod_task_fixture(ray_session):
    """The three attribute tasks against the generator's entity table:
    self-eval is 1.0 per task, and each family's gold support matches a
    hand count over the table — the tasks are genuinely distinct."""
    import pyarrow.compute as pc
    import ray.data

    from jamie_ray import fixtures

    ents = fixtures.generate(60)["expected_entities"]
    gold = ray.data.from_arrow(ents)
    pred = ray.data.from_arrow(ents)
    supports = {}
    for task, tags in evalx.ATTRIB_TASK_TAGS.items():
        res = evalx.evaluate_mod_task(gold, pred, task)
        assert res["micro"] == (1.0, 1.0, 1.0), task
        supports[task] = res["counts"]["tps"]
        # hand count: family rows whose mod is a real class
        import pyarrow as pa

        mask = pc.and_(
            pc.is_in(ents["ner_tag"], value_set=pa.array(tags)),
            pc.invert(
                pc.is_in(ents["mod"], value_set=pa.array(["N", "O", "_", "OO"]))
            ),
        )
        assert res["counts"]["tps"] == pc.sum(mask).as_py()
    # the fixture plants all three attribute classes
    assert all(n > 0 for n in supports.values())
    assert len(set(supports.values())) > 1


def test_evaluate_mod_task_isolates_tasks(ray_session):
    """Corrupting one disease certainty hurts mod_cert ONLY."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from jamie_ray import fixtures

    ents = fixtures.generate(40)["expected_entities"]
    mods = ents["mod"].to_pylist()
    tags = ents["ner_tag"].to_pylist()
    i = next(
        k for k, (t, m) in enumerate(zip(tags, mods)) if t == "d" and m != "_"
    )
    mods[i] = "negative" if mods[i] != "negative" else "positive"
    bad = ents.set_column(
        ents.schema.get_field_index("mod"), "mod", pa.array(mods, pa.string())
    )
    gold = ray.data.from_arrow(ents)
    pred = ray.data.from_arrow(bad)
    assert evalx.evaluate_mod_task(gold, pred, "cert")["micro"][2] < 1.0
    assert evalx.evaluate_mod_task(gold, pred, "ttype")["micro"] == (1.0, 1.0, 1.0)
    assert evalx.evaluate_mod_task(gold, pred, "state")["micro"] == (1.0, 1.0, 1.0)


# ---- vectorized block counts vs the per-sentence reference matcher -------

from collections import defaultdict  # noqa: E402

import numpy as np  # noqa: E402
import pyarrow as pa  # noqa: E402
from hypothesis import given, settings, strategies as st  # noqa: E402

_CLS = st.sampled_from(["r1", "r2", "N", "O", "_", "OO", None])
_FIELD = st.sampled_from(["a", "b", None])
_ROW = st.tuples(
    st.sampled_from(["u1", "u2", None]),  # url
    st.integers(0, 1),  # chunk_id
    _FIELD,
    _FIELD,
    _CLS,
    st.integers(0, 1),  # side
)


def _partials_vs_reference(rows, rel_col):
    tuple_cols = ["cls", "x", "y"] if rel_col == 0 else ["x", "y", "cls"]
    table = pa.table(
        {
            "url": pa.array([r[0] for r in rows], pa.string()),
            "chunk_id": pa.array([r[1] for r in rows], pa.int64()),
            "x": pa.array([r[2] for r in rows], pa.string()),
            "y": pa.array([r[3] for r in rows], pa.string()),
            "cls": pa.array([r[4] for r in rows], pa.string()),
            "__side": pa.array([r[5] for r in rows], pa.int8()),
        }
    )
    keys = ["url", "chunk_id", *tuple_cols]
    got_tbl = evalx._block_partials(table, keys, tuple_cols[rel_col])
    got = {
        c: (t, f, n)
        for c, t, f, n in zip(*(got_tbl.column(k).to_pylist() for k in got_tbl.column_names))
    }

    sentences: dict = defaultdict(lambda: ([], []))
    for url, chunk, x, y, cls, side in rows:
        vals = {"x": x, "y": y, "cls": cls}
        sentences[(url, chunk)][side].append(tuple(vals[c] for c in tuple_cols))
    want: dict = defaultdict(lambda: [0, 0, 0])
    for gold, pred in sentences.values():
        for cls, c in evalx.match_tuples(gold, pred, rel_col).items():
            for i in range(3):
                want[cls][i] += c[i]
    return got, {c: tuple(v) for c, v in want.items()}


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_ROW, max_size=60), rel_col=st.sampled_from([-1, 0]))
def test_block_partials_match_reference_matcher(rows, rel_col):
    """One block of whole sentences: the Arrow count rule
    (tps = min(gold_n, pred_n) per distinct tuple) equals
    ``match_tuples`` summed over the sentences — duplicate tuples on
    both sides, skip classes, None fields and rel_col=0 included."""
    got, want = _partials_vs_reference(rows, rel_col)
    assert got == want


@pytest.mark.parametrize("rel_col", [-1, 0])
def test_block_partials_large_block_with_null_keys(rel_col):
    """Hundreds of distinct tuples with null fields in one block:
    pyarrow's multi-key ``group_by`` mis-groups null string keys once
    its hash table grows, which small blocks never show."""
    rng = np.random.default_rng(rel_col + 5)
    pick = lambda vals: vals[int(rng.integers(0, len(vals)))]  # noqa: E731
    urls = [f"u{i}" for i in range(6)] + [None]
    fields = [f"f{i}" for i in range(5)] + [None]
    classes = ["r1", "r2", "N", "O", "_", "OO", None]
    rows = [
        (pick(urls), int(rng.integers(0, 3)), pick(fields), pick(fields),
         pick(classes), int(rng.integers(0, 2)))
        for _ in range(1500)
    ]
    got, want = _partials_vs_reference(rows, rel_col)
    assert got == want


def test_f1_mode_rejects_unknown_values():
    with pytest.raises(ValueError, match="f1_mode"):
        evalx.evaluate_datasets(None, None, ["subj", "obj", "pred"], f1_mode="mirco")
    with pytest.raises(ValueError, match="f1_mode"):
        evalx.evaluate_triples(None, None, f1_mode="MICRO")
