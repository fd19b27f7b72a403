"""The assemble kernels against the per-(token, head) loop they replace.

``assemble_batch`` and ``entities_batch`` find their work with Arrow
list kernels and decode only the chunks that have some. The loops
below are the previous kernels, kept verbatim as oracles: every
random tagged table must give an ``equal()`` table, including ragged
rels/heads cells, sliced and multi-chunk columns and zero-row batches.
"""

import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

from jamie_ray import schemas
from jamie_ray.labels import bio_to_spans, restore_tokens
from jamie_ray.stages import assemble


# -- oracles: the previous per-pair loops ------------------------------------

def oracle_assemble(batch: pa.Table) -> pa.Table:
    urls = batch.column("url").to_pylist()
    cids = batch.column("chunk_id").to_pylist()
    tokens_col = batch.column("tokens").to_pylist()
    ner_col = batch.column("ner").to_pylist()
    mod_col = batch.column("mod").to_pylist()
    rels_col = batch.column("rels").to_pylist()
    heads_col = batch.column("heads").to_pylist()

    out: dict[str, list] = {
        k: []
        for k in ("subj", "pred", "obj", "subj_type", "obj_type", "subj_mod", "url", "chunk_id")
    }

    for url, cid, toks, ner, mod, rels, heads in zip(
        urls, cids, tokens_col, ner_col, mod_col, rels_col, heads_col
    ):
        toks = restore_tokens(toks)
        entities = bio_to_spans(ner)
        sent_dic = {e[2] - 1: e for e in entities}

        for tail_id, (head_ids, rel_tags) in enumerate(zip(heads, rels)):
            for head_id, rel in zip(head_ids, rel_tags):
                if rel == "N":
                    continue
                if tail_id not in sent_dic or head_id not in sent_dic:
                    continue
                t_tag, t_start, t_end = sent_dic[tail_id]
                h_tag, h_start, h_end = sent_dic[head_id]
                out["subj"].append("".join(toks[t_start:t_end]))
                out["pred"].append(rel)
                out["obj"].append("".join(toks[h_start:h_end]))
                out["subj_type"].append(t_tag)
                out["obj_type"].append(h_tag)
                out["subj_mod"].append(mod[t_end - 1])
                out["url"].append(url)
                out["chunk_id"].append(cid)

    return pa.table(
        {
            "subj": pa.array(out["subj"], pa.string()),
            "pred": pa.array(out["pred"], pa.string()),
            "obj": pa.array(out["obj"], pa.string()),
            "subj_type": pa.array(out["subj_type"], pa.string()),
            "obj_type": pa.array(out["obj_type"], pa.string()),
            "subj_mod": pa.array(out["subj_mod"], pa.string()),
            "url": pa.array(out["url"], pa.string()),
            "chunk_id": pa.array(out["chunk_id"], pa.int32()),
        }
    )


def oracle_entities(batch: pa.Table) -> pa.Table:
    urls = batch.column("url").to_pylist()
    cids = batch.column("chunk_id").to_pylist()
    tokens_col = batch.column("tokens").to_pylist()
    ner_col = batch.column("ner").to_pylist()
    mod_col = batch.column("mod").to_pylist()

    out: dict[str, list] = {k: [] for k in ("url", "chunk_id", "mention", "ner_tag", "mod")}
    for url, cid, toks, ner, mod in zip(urls, cids, tokens_col, ner_col, mod_col):
        toks = restore_tokens(toks)
        for tag, start, end in bio_to_spans(ner):
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


# -- strategies ---------------------------------------------------------------

_token = st.sampled_from(["あ", "熱", "ナカ", "[JASP]", "[SEP]", "x[SEP]y", "痛[JASP]"])
_ner_tag = st.sampled_from(["O", "O", "OO", "B-d", "B-d", "I-d", "B-a", "B-a", "I-a", "I-TIMEX3"])
_rel = st.sampled_from(["N", "N", "on", "before", "TrAP"])


def _head(n):
    # mostly in range, sometimes negative or past the last token
    return st.one_of(st.integers(0, max(n - 1, 0)), st.integers(-2, n + 1))


@st.composite
def raw_chunks(draw):
    """One tagged chunk with none of the writer's constraints: any BIO
    run (``I-`` starts, ``'OO'``), sentinel tokens, several heads per
    tail, heads on non-last, negative or out-of-range tokens, and
    ragged cells (rels and heads of different lengths, per cell and
    per chunk). Empty chunks and all-``'N'`` chunks come up often."""
    n = draw(st.integers(0, 8))
    tokens = [draw(_token) for _ in range(n)]
    ner_kind = draw(st.integers(0, 4))
    if ner_kind == 0:
        ner = ["O"] * n
    elif ner_kind == 1:  # a lone 'OO' at position 0 opens a span
        ner = [draw(st.sampled_from(["O", "OO"])) for _ in range(n)]
    else:
        ner = [draw(_ner_tag) for _ in range(n)]
    mod = [draw(st.sampled_from(["_", "positive", "negative"])) for _ in range(n)]
    all_n = draw(st.integers(0, 3)) == 0
    n_rel_cells = max(0, n + draw(st.sampled_from([0, 0, 0, -1, 1])))
    n_head_cells = max(0, n + draw(st.sampled_from([0, 0, 0, -1, 1])))
    rels, heads = [], []
    for _ in range(max(n_rel_cells, n_head_cells)):
        width = draw(st.integers(1, 3))
        rel_w = max(0, width + draw(st.sampled_from([0, 0, 0, -1, 1])))
        if all_n:
            rels.append(["N"] * rel_w)
        else:
            rels.append([draw(_rel) for _ in range(rel_w)])
        heads.append([draw(_head(n)) for _ in range(width)])
    return tokens, ner, mod, rels[:n_rel_cells], heads[:n_head_cells]


def _table(chunks, url="u"):
    cols = list(zip(*chunks)) if chunks else [[]] * 5
    return pa.table(
        {
            "url": pa.array([f"{url}{i % 3}" for i in range(len(chunks))], pa.string()),
            "chunk_id": pa.array(range(len(chunks)), pa.int32()),
            "tokens": pa.array(cols[0], pa.list_(pa.string())),
            "ner": pa.array(cols[1], pa.list_(pa.string())),
            "mod": pa.array(cols[2], pa.list_(pa.string())),
            "rels": pa.array(cols[3], pa.list_(pa.list_(pa.string()))),
            "heads": pa.array(cols[4], pa.list_(pa.list_(pa.int32()))),
        },
        schema=schemas.TAGGED_CHUNKS,
    )


@st.composite
def tagged_tables(draw):
    """A batch as ``map_batches`` may hand it over: plain, sliced, or
    concatenated from pieces (so every column has several chunks)."""
    chunks = draw(st.lists(raw_chunks(), max_size=6))
    t = _table(chunks)
    shape = draw(st.sampled_from(["plain", "slice", "concat", "concat+slice"]))
    if "concat" in shape and len(chunks) > 1:
        cut = draw(st.integers(1, len(chunks) - 1))
        t = pa.concat_tables([_table(chunks[:cut]), _table(chunks[cut:], url="v")])
    if "slice" in shape:
        k = draw(st.integers(0, t.num_rows))
        t = t.slice(k, draw(st.integers(0, t.num_rows - k)))
    return t


# -- differential tests -------------------------------------------------------

@given(tagged_tables())
@settings(max_examples=150, deadline=None)
def test_assemble_matches_loop_oracle(t):
    got = assemble.assemble_batch(t)
    assert got.schema == schemas.TRIPLES
    assert got.equals(oracle_assemble(t))


@given(tagged_tables())
@settings(max_examples=150, deadline=None)
def test_entities_matches_loop_oracle(t):
    assert assemble.entities_batch(t).equals(oracle_entities(t))


def test_zero_row_batches_keep_schema():
    empty = _table([])
    assert assemble.assemble_batch(empty).equals(schemas.TRIPLES.empty_table())
    assert assemble.assemble_batch(empty).equals(oracle_assemble(empty))
    one = _table([(["熱"], ["B-d"], ["_"], [["on"]], [[0]])])
    assert assemble.assemble_batch(one).num_rows == 1
    assert assemble.assemble_batch(one.slice(1)).equals(schemas.TRIPLES.empty_table())
    assert assemble.entities_batch(empty).equals(oracle_entities(empty))


def test_ragged_cells_follow_zip():
    """More rels than heads in a cell, and more rel cells than head
    cells in a chunk: the extra rels have no head and yield nothing."""
    chunk = (
        ["熱", "痛", "あ"],
        ["B-d", "B-a", "B-d"],
        ["_", "_", "_"],
        [["N", "on", "before"], ["TrAP"], ["on"]],
        [[0, 1], [0]],
    )
    t = _table([chunk])
    got = assemble.assemble_batch(t)
    assert got.equals(oracle_assemble(t))
    assert list(zip(got["subj"].to_pylist(), got["pred"].to_pylist(), got["obj"].to_pylist())) == [
        ("熱", "on", "痛"),
        ("痛", "TrAP", "熱"),
    ]


def test_entities_lone_oo_opens_a_span():
    t = _table([(["a", "b"], ["OO", "O"], ["m", "_"], [], []),
                (["a", "b"], ["O", "OO"], ["_", "_"], [], [])])
    got = assemble.entities_batch(t)
    assert got.equals(oracle_entities(t))
    assert got.to_pylist() == [
        {"url": "u0", "chunk_id": 0, "mention": "a", "ner_tag": "", "mod": "m"}
    ]


# -- structural guard: decode runs only where a candidate is -------------------

def _count_calls(monkeypatch):
    calls = {"restore_tokens": 0, "bio_to_spans": 0}

    def counted(name, fn):
        def wrapper(*a, **kw):
            calls[name] += 1
            return fn(*a, **kw)
        return wrapper

    monkeypatch.setattr(assemble, "restore_tokens", counted("restore_tokens", restore_tokens))
    monkeypatch.setattr(assemble, "bio_to_spans", counted("bio_to_spans", bio_to_spans))
    return calls


def _chunk(rel):
    # a rel on a non-entity tail still makes the chunk a candidate
    return (["熱", "痛", "あ"], ["B-d", "O", "B-a"], ["_"] * 3,
            [["N"], [rel], ["N", "N"]], [[0], [2], [2, 0]])


@pytest.mark.parametrize("hot", [[], [3], [0, 4, 5]])
def test_assemble_decodes_only_candidate_chunks(monkeypatch, hot):
    t = _table([_chunk("on" if i in hot else "N") for i in range(6)])
    calls = _count_calls(monkeypatch)
    assemble.assemble_batch(t)
    assert calls == {"restore_tokens": len(hot), "bio_to_spans": len(hot)}


def test_entities_decode_only_tagged_rows(monkeypatch):
    plain = (["あ", "熱"], ["O", "O"], ["_", "_"], [["N"], ["N"]], [[0], [1]])
    tagged = (["あ", "熱"], ["O", "B-d"], ["_", "_"], [["N"], ["N"]], [[0], [1]])
    calls = _count_calls(monkeypatch)
    assemble.entities_batch(_table([plain] * 4))
    assert calls == {"restore_tokens": 0, "bio_to_spans": 0}
    assemble.entities_batch(_table([plain, tagged, plain, tagged, plain]))
    assert calls == {"restore_tokens": 2, "bio_to_spans": 2}
