"""CoNLL round-trip + XML/brat formatter tests."""

import pyarrow as pa

from jamie_ray.stages import conll, format_out


def _tagged_batch():
    return pa.table(
        {
            "url": pa.array(["https://x/p1"], pa.string()),
            "chunk_id": pa.array([0], pa.int32()),
            "tokens": pa.array([["これは", "急性", "肺炎", "です", "。"]], pa.list_(pa.string())),
            "ner": pa.array([["O", "B-d", "I-d", "O", "O"]], pa.list_(pa.string())),
            "mod": pa.array([["_", "_", "positive", "_", "_"]], pa.list_(pa.string())),
            "rels": pa.array(
                [[["N"], ["N"], ["region"], ["N"], ["N"]]], pa.list_(pa.list_(pa.string()))
            ),
            "heads": pa.array(
                [[[0], [1], [4], [3], [4]]], pa.list_(pa.list_(pa.int32()))
            ),
        }
    )


def test_conll_roundtrip():
    batch = _tagged_batch()
    text_tab = conll.tagged_to_conll_batch(batch)
    text = text_tab.column("conll")[0].as_py()
    assert text.startswith("#doc https://x/p1#0\n")
    assert "1\t急性\tB-d\t_\t['N']\t[1]" in text
    back = conll.conll_text_to_tagged_batch(text_tab)
    for col in ("url", "chunk_id", "tokens", "ner", "mod", "rels", "heads"):
        assert back.column(col).to_pylist() == batch.column(col).to_pylist()


def test_conll_reader_rejects_eval_injection():
    # the reference uses eval() here (data_objects.py:213) — we must not
    bad = "#doc x#0\n0\ttok\tO\t_\t__import__('os')\t[0]\n"
    import pytest

    with pytest.raises((ValueError, SyntaxError)):
        conll.conll_to_chunks(bad)


def test_xml_formatter():
    out = format_out.tagged_to_xml_batch(_tagged_batch())
    xml = out.column("xml")[0].as_py()
    assert '<d tid="T1" certainty="positive">急性肺炎</d>' in xml
    # no brel: the relation target (token 4) is not an entity last token
    assert "brel" not in xml


def test_xml_formatter_with_relation():
    batch = pa.table(
        {
            "url": pa.array(["u"], pa.string()),
            "chunk_id": pa.array([0], pa.int32()),
            "tokens": pa.array([["肺炎", "と", "発熱"]], pa.list_(pa.string())),
            "ner": pa.array([["B-d", "O", "B-f"]], pa.list_(pa.string())),
            "mod": pa.array([["negative", "_", "_"]], pa.list_(pa.string())),
            "rels": pa.array([[["feature"], ["N"], ["N"]]], pa.list_(pa.list_(pa.string()))),
            "heads": pa.array([[[2], [1], [2]]], pa.list_(pa.list_(pa.int32()))),
        }
    )
    xml = format_out.tagged_to_xml_batch(batch).column("xml")[0].as_py()
    assert '<brel rid="R1" arg1="T1" arg2="T2" reltype="feature" />' in xml


def test_brat_formatter():
    out = format_out.tagged_to_brat_batch(_tagged_batch())
    txt = out.column("brat_txt")[0].as_py()
    ann = out.column("brat_ann")[0].as_py()
    assert txt == "これは急性肺炎です。\n"
    # span 急性肺炎 = chars [3, 7)
    assert "T1\td 3 7\t急性肺炎" in ann
    assert "A1\tpositive T1 positive" in ann


def test_pmhs_formatter():
    import json

    from jamie_ray.stages import pmhs

    out = pmhs.tagged_to_pmhs_batch(_tagged_batch())
    obj = json.loads(out.column("pmhs")[0].as_py())
    assert obj["text"] == "これは急性肺炎です。"
    assert obj["bio"] == ["O", "B-d", "I-d", "O", "O"]
    assert obj["selection"] == [{"subject": 2, "predicate": "region", "object": 4}]
    # target (token 4) is not an entity last token -> no mention-level spo
    assert obj["spo_list"] == []


def test_winnow_fingerprints():
    from jamie_ray.functions.text_analysis import winnow_fingerprints

    a = winnow_fingerprints("the quick brown fox jumps over the lazy dog" * 3)
    assert a == winnow_fingerprints("the quick brown fox jumps over the lazy dog" * 3)
    assert len(a) > 0
    # shared long substring -> shared fingerprint (winnowing guarantee)
    shared = "a common shared long substring appears here exactly"
    f1 = set(winnow_fingerprints("XXX " + shared + " YYY unrelated tail one"))
    f2 = set(winnow_fingerprints("ZZZ prefix two " + shared + " WWW"))
    assert f1 & f2
    # short text
    assert winnow_fingerprints("ab") == []


def test_winnow_wraps_without_warnings():
    """The rolling hash wraps mod 2**64 on purpose; it must do so in
    array ops, which wrap silently, and still match the independent
    Python-int Horner hash."""
    import warnings

    import pyarrow as pa

    from jamie_ray.fixtures import _winnow_expected
    from jamie_ray.functions.text_analysis import winnow_batch, winnow_fingerprints

    texts = ["abcdefghij" * 3, "熱が出た。" * 9, "short", "x" * 8]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [winnow_fingerprints(t) for t in texts]
        batch = winnow_batch(pa.table({"text": pa.array(texts + [None], pa.string())}))
    assert got == [_winnow_expected(t) for t in texts]
    assert batch.column("fingerprints").to_pylist() == got + [[]]


# ---- brat reader (S9 input direction, r3) ---------------------------------

def test_brat_reader_error_counting():
    from jamie_ray.stages.brat import parse_brat

    txt = "発熱あり\n"
    # dangling tid in R line + off-boundary T offset + surface mismatch
    ann = (
        "T1\td 0 2\t発熱\n"
        "A1\tpositive T1 positive\n"
        "R1\ton Arg1:T1 Arg2:T9\n"
        "T2\ta 1 3\t熱あ\n"      # begin=1 is inside token '発熱'
        "T3\ta 2 4\tXX\n"       # boundary ok, surface mismatch
    )
    r = parse_brat(txt, ann)
    assert r["ner"][0] == "B-d"
    assert r["mod"][r["ner"].index("B-d") + 1] == "positive" or "positive" in r["mod"]
    assert r["anno_errors"] == 3


def test_brat_reader_dct_and_relations():
    from jamie_ray.stages.brat import parse_brat
    from jamie_ray.stages.format_out import chunk_to_brat

    tokens = ["発熱", "昨日", "手術"]
    ner = ["B-d", "B-TIMEX3", "B-r"]
    mod = ["positive", "DATE", "_"]
    rels = [["on"], ["N"], ["before"]]
    heads = [[0], [1], [1]]  # self-rel on token 0 (DCT), 2->1 relation
    txt, ann = chunk_to_brat(tokens, ner, mod, rels, heads)
    r = parse_brat(txt, ann)
    assert r["anno_errors"] == 0
    assert r["tokens"] == tokens and r["ner"] == ner and r["mod"] == mod
    assert r["rels"] == rels and r["heads"] == heads


def test_pmhs_reader_roundtrip_and_errors():
    from jamie_ray.stages.pmhs import chunk_to_pmhs, parse_pmhs

    tokens = ["発熱", "昨日", "手術"]
    ner = ["B-d", "B-TIMEX3", "B-r"]
    rels = [["on"], ["N"], ["before", "on"]]
    heads = [[1], [1], [0, 1]]
    j = chunk_to_pmhs(tokens, ner, rels, heads)
    r = parse_pmhs(j)
    assert r["anno_errors"] == 0
    assert r["tokens"] == tokens and r["ner"] == ner
    assert r["rels"] == rels and r["heads"] == heads
    assert r["mod"] == ["_", "_", "_"]  # pmhs carries no modality

    import json as _json

    bad = _json.dumps(
        {"text": "発熱", "bio": ["B-d", "I-d", "I-d"],  # wrong bio length
         "spo_list": [], "selection": [{"subject": 9, "predicate": "on", "object": 0}]}
    )
    rb = parse_pmhs(bad)
    assert rb["anno_errors"] == 2  # length mismatch + out-of-range cell

    # a missing / non-string predicate is counted, never appended as None
    bad_pred = _json.dumps(
        {"text": "発熱", "bio": ["B-d"], "spo_list": [],
         "selection": [
             {"subject": 0, "object": 0},               # predicate missing
             {"subject": 0, "object": 0, "predicate": 7},  # non-string
         ]}
    )
    rp = parse_pmhs(bad_pred)
    assert rp["anno_errors"] == 2
    assert rp["rels"] == [["N"]] and rp["heads"] == [[0]]


def test_conll_merged_mode_roundtrip():
    """M14: the merged-label variant (reference read_conll(is_merged=True),
    utils.py:1113-1120) — writer folds modality into the BIO tag, reader
    splits it back; the round-trip equals the separate-column path."""
    batch = _tagged_batch()
    merged_tab = conll.tagged_to_conll_batch(batch, merged=True)
    text = merged_tab.column("conll")[0].as_py()
    # merged tag is in the NER column, placeholder in the mod column
    assert "2\t肺炎\tI-d_positive\t_\t" in text
    assert "1\t急性\tB-d\t_\t" in text  # '_' modality leaves tag unchanged
    back = conll.conll_text_to_tagged_batch(merged_tab, merged=True)
    for col in ("url", "chunk_id", "tokens", "ner", "mod", "rels", "heads"):
        assert back.column(col).to_pylist() == batch.column(col).to_pylist()


def test_conll_merged_triples_equal_separate_path():
    """Merged-format corpora assemble to the SAME triples as the
    separate-column format (the M14 'done' gate)."""
    from jamie_ray.stages import assemble

    # two entities with a relation between them so assembly yields rows
    batch = pa.table(
        {
            "url": pa.array(["https://x/p2"], pa.string()),
            "chunk_id": pa.array([0], pa.int32()),
            "tokens": pa.array(
                [["左", "肺", "に", "急性", "肺炎", "。"]], pa.list_(pa.string())
            ),
            "ner": pa.array(
                [["B-a", "I-a", "O", "B-d", "I-d", "O"]], pa.list_(pa.string())
            ),
            "mod": pa.array(
                [["_", "_", "_", "_", "positive", "_"]], pa.list_(pa.string())
            ),
            "rels": pa.array(
                [[["N"], ["N"], ["N"], ["N"], ["region"], ["N"]]],
                pa.list_(pa.list_(pa.string())),
            ),
            "heads": pa.array(
                [[[0], [1], [2], [3], [1], [5]]], pa.list_(pa.list_(pa.int32()))
            ),
        }
    )
    sep = conll.conll_text_to_tagged_batch(conll.tagged_to_conll_batch(batch))
    mrg = conll.conll_text_to_tagged_batch(
        conll.tagged_to_conll_batch(batch, merged=True), merged=True
    )
    t_sep = assemble.assemble_batch(sep)
    t_mrg = assemble.assemble_batch(mrg)
    assert t_mrg.to_pylist() == t_sep.to_pylist()
    assert t_sep.num_rows > 0


def test_split_merged_quirks_match_reference():
    """Quirk-preserving: the reference's split_merged (utils.py:1421-1426)
    rejoins the head WITHOUT the delimiter — double-merged or
    underscore-bearing tags mangle identically here."""
    assert conll.split_merged("B-d_positive") == ("B-d", "positive")
    assert conll.split_merged("O") == ("O", "_")
    # head rejoined without the delimiter — deliberate reference quirk
    assert conll.split_merged("B-d_positive_general") == ("B-dpositive", "general")
    assert conll.merge_modality("B-d", "_") == "B-d"
    assert conll.merge_modality("I-a", "suspicious") == "I-a_suspicious"


def test_conll_reader_reference_bare_doc_headers():
    """The reference writes one bare '#doc {file}' header per sentence
    (utils.py:831): sentences of one doc must get DISTINCT chunk_ids,
    not all collapse onto (url, 0)."""
    from jamie_ray.stages.conll import conll_to_chunks

    text = (
        "#doc fileA\n0\tx\tO\t_\t['N']\t[0]\n\n"
        "#doc fileA\n0\ty\tO\t_\t['N']\t[0]\n\n"
        "#doc fileB\n0\tz\tO\t_\t['N']\t[0]\n"
    )
    rows = conll_to_chunks(text)
    keys = [(r["url"], r["chunk_id"]) for r in rows]
    assert len(keys) == len(set(keys)) == 3
    assert [(u, c) for u, c in keys] == [("fileA", 0), ("fileA", 1), ("fileB", 0)]


def test_conll_reader_five_column_no_modality_variant():
    """The reference's contains_modality=False files have 5 columns
    (utils.py:835-840): read with mod='_', not a crash."""
    from jamie_ray.stages.conll import conll_to_chunks

    rows = conll_to_chunks("#doc f\n0\tfoo\tB-C\t['N']\t[0]\n")
    assert rows[0]["mod"] == ["_"] and rows[0]["ner"] == ["B-C"]


def test_conll_reader_synthetic_urls_never_collide():
    """Headerless blocks and comment headers draw from ONE synthetic
    counter — no two sentences may share a synthetic (url, chunk_id)."""
    from jamie_ray.stages.conll import conll_to_chunks

    text = "0\ta\tO\t_\t['N']\t[0]\n\n## line 1\n0\tb\tO\t_\t['N']\t[0]\n"
    rows = conll_to_chunks(text)
    keys = [(r["url"], r["chunk_id"]) for r in rows]
    assert len(keys) == len(set(keys)) == 2
