"""Property-based tests (hypothesis) for the core algebra — the
reference has no randomized testing at all (SURVEY.md §5); these pin
the invariants the whole pipeline depends on for arbitrary input."""

from hypothesis import given, settings, strategies as st

from jamie_ray import labels as L
from jamie_ray import textnorm as tn
from jamie_ray import tokenization as tk
from jamie_ray.stages.chunk import chunk_pack

# -- strategies -------------------------------------------------------------

_tags = st.sampled_from(["d", "a", "f", "TIMEX3"])


@st.composite
def bio_sequences(draw):
    n = draw(st.integers(1, 12))
    out = []
    for _ in range(n):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            out.append("O")
        else:
            out.append(("B-" if kind == 1 else "I-") + draw(_tags))
    return out


_text = st.text(
    alphabet=st.characters(
        whitelist_categories=("Lu", "Ll", "Nd", "Lo", "Po", "Zs"),
        max_codepoint=0x9FFF,
    ),
    max_size=120,
)

# words starting with the literal WordPiece continuation marker "##"
# are excluded: a surface token "##" is indistinguishable from a
# continuation piece — the classic WordPiece ambiguity, which the
# reference inherits from its tokenizer (utils.py WordPiece path), so
# the subword<->word roundtrip contract does not cover them
_words = st.lists(
    st.text(
        alphabet=st.characters(min_codepoint=0x21, max_codepoint=0x7E),
        min_size=1,
        max_size=9,
    ).filter(lambda w: not w.startswith("##")),
    min_size=1,
    max_size=10,
)


# -- properties -------------------------------------------------------------

@given(bio_sequences())
def test_bio_spans_partition_tagged_positions(tags):
    spans = L.bio_to_spans(tags)
    covered = set()
    for tag, s, e in spans:
        assert 0 <= s < e <= len(tags)
        assert not (set(range(s, e)) & covered), "spans overlap"
        covered |= set(range(s, e))
    # every non-O position is covered; every O position is not
    for i, t in enumerate(tags):
        assert (i in covered) == (t != "O")


@given(bio_sequences())
def test_find_entity_always_contains_anchor(tags):
    for pos in range(len(tags)):
        ent = L.find_entity(pos, tags)
        assert pos in ent
        assert ent == sorted(ent)


@given(_words)
def test_subword_fusion_is_identity(words):
    pieces = tk.subword_tokenize(words)
    fused, aligned = L.sbwtok2tok_alignment(pieces)
    assert fused == words
    assert len(aligned) == len(pieces)
    assert aligned[-1] == len(words) - 1


@given(_words)
def test_subword_len_agrees_with_tokenize(words):
    assert tk.subword_len(words) == len(tk.subword_tokenize(words))


@given(_text)
def test_wakati_preserves_characters(text):
    # tokens partition the input chars (spaces become U+3000 same-length)
    toks = tk.wakati(text)
    rebuilt = "".join(toks)
    assert len(rebuilt) == len(text)
    for a, b in zip(rebuilt, text):
        assert a == b or (a == "　" and b.isspace())


@given(_text)
def test_analyze_deterministic_and_sentinel_clean(text):
    t1 = tk.analyze(text)
    assert t1 == tk.analyze(text)
    # no empty tokens, no consecutive [JASP]
    assert all(t1), t1
    for a, b in zip(t1, t1[1:]):
        assert not (a == b == "[JASP]")


@given(_text)
def test_width_fold_idempotent(text):
    once = tn.han_to_zen(text)
    assert tn.han_to_zen(once) == once


@given(st.lists(_text.filter(lambda s: s.strip()), min_size=0, max_size=8))
@settings(deadline=None, max_examples=40)
def test_chunk_pack_budget_and_no_loss(lines):
    lines = [ln.replace("\n", " ").replace("\r", " ") for ln in lines if ln.strip()]
    trunks, lens, assignment = chunk_pack(lines, len_limit=64)
    # budget: every trunk fits (split fallback included)
    for n in lens:
        assert n <= 62
    # no loss: every line index assigned, in order
    flat = [i for ids in assignment for i in ids]
    assert sorted(set(flat)) == list(range(len(lines)))


@given(st.text(max_size=200))
def test_extract_text_total(html):
    # the extractor must be total on arbitrary input
    out = tn.extract_text(html)
    assert isinstance(out, str)


# -- gold-XML roundtrip property --------------------------------------------

@st.composite
def tagged_chunks(draw):
    """Random tagged-chunk rows under the writer's representable
    constraints: non-overlapping spans, MOD_DICT modalities, at most
    one relation per (tail, head) span pair (the writer's span2rel dict
    collapses duplicates by design)."""
    from jamie_ray.stages.format_out import MOD_DICT

    n = draw(st.integers(2, 14))
    # token alphabet restricted to analyze()-fixed-points (kana/kanji):
    # pipeline tokens are always analyzer output, so half-width chars
    # that the reader's re-analysis would width-fold are out of domain
    tok = st.text(
        alphabet=st.sampled_from(list("あいうえ漢字熱痛ナカ")), min_size=1, max_size=4
    )
    tokens = [draw(tok) for _ in range(n)]
    ner = ["O"] * n
    mod = ["_"] * n
    spans = []
    i = 0
    while i < n:
        if draw(st.booleans()) and i < n:
            w = min(draw(st.integers(1, 2)), n - i)
            tag = draw(st.sampled_from(["d", "a", "TIMEX3"]))
            ner[i] = f"B-{tag}"
            for j in range(i + 1, i + w):
                ner[j] = f"I-{tag}"
            # modality classes are tag-conditioned like the reference
            # reader (utils.py:769-784): certainty only on d, type only
            # on TIMEX3, state on anything — other combos are outside
            # the reference's data model and don't round-trip
            legal = ["_"] + [
                m
                for m, cls in MOD_DICT.items()
                if cls == "state"
                or (cls == "certainty" and tag == "d")
                or (cls == "type" and tag == "TIMEX3")
            ]
            m = draw(st.sampled_from(legal))
            mod[i + w - 1] = m
            spans.append((i, i + w))
            i += w + 1
        else:
            i += 1
    rels = [["N"] for _ in range(n)]
    heads = [[k] for k in range(n)]
    anchors = [e - 1 for _, e in spans]
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(anchors or [0]), st.sampled_from(anchors or [0])),
            max_size=4,
            unique=True,
        )
    ) if anchors else []
    for t, h in pairs:
        r = draw(st.sampled_from(["on", "before", "TrAP"]))
        if rels[t] == ["N"] and heads[t] == [t]:
            rels[t] = [r]
            heads[t] = [h]
        else:
            rels[t].append(r)
            heads[t].append(h)
    return tokens, ner, mod, rels, heads


@given(tagged_chunks())
@settings(max_examples=60, deadline=None)
def test_gold_xml_roundtrip_property(chunk):
    """writer -> reader -> assemble equals direct assemble for ANY
    representable tagged chunk (triple surfaces survive re-tokenization
    because mention strings and tid-anchored relations are
    index-free)."""
    import pyarrow as pa

    from jamie_ray.stages.assemble import assemble_batch
    from jamie_ray.stages.format_out import chunk_to_xml
    from jamie_ray.stages.gold_xml import gold_xml_to_tagged_batch

    tokens, ner, mod, rels, heads = chunk

    def tagged_table(t, nr, md, rl, hd):
        return pa.table(
            {
                "url": pa.array(["u"], "string"),
                "chunk_id": pa.array([0], pa.int32()),
                "tokens": pa.array([t], pa.list_(pa.string())),
                "ner": pa.array([nr], pa.list_(pa.string())),
                "mod": pa.array([md], pa.list_(pa.string())),
                "rels": pa.array([rl], pa.list_(pa.list_(pa.string()))),
                "heads": pa.array([hd], pa.list_(pa.list_(pa.int32()))),
            }
        )

    direct = assemble_batch(tagged_table(tokens, ner, mod, rels, heads))
    xml = chunk_to_xml(tokens, ner, mod, rels, heads)
    back = gold_xml_to_tagged_batch(
        pa.table(
            {
                "url": pa.array(["u"], "string"),
                "chunk_id": pa.array([0], pa.int32()),
                "xml": pa.array([xml], "string"),
            }
        )
    )
    via = assemble_batch(back)
    key = lambda t: sorted(
        zip(*[t.column(c).to_pylist() for c in sorted(t.column_names)])
    ) if t.num_rows else []
    assert key(direct) == key(via)


@st.composite
def analyzer_tagged_chunks(draw):
    """Tagged chunks over ANALYZER-CONSISTENT token sequences: brat's
    .txt carries no in-band token boundaries (unlike gold-XML, where
    entity tags split the text into separately-tokenized segments), so
    the reader re-derives tokens by re-analysis — the representable
    domain is exactly token sequences the analyzer itself produces
    (which pipeline tokens always are)."""
    from hypothesis import assume

    from jamie_ray.stages.format_out import MOD_DICT

    text = draw(
        st.text(
            alphabet=st.sampled_from(list("あいう漢字熱痛ナカABC")),
            min_size=2,
            max_size=24,
        )
    )
    tokens = tk.analyze(text)
    assume(len(tokens) >= 2)
    n = len(tokens)
    ner = ["O"] * n
    mod = ["_"] * n
    spans = []
    i = 0
    while i < n:
        if draw(st.booleans()):
            w = min(draw(st.integers(1, 2)), n - i)
            tag = draw(st.sampled_from(["d", "a", "TIMEX3"]))
            ner[i] = f"B-{tag}"
            for j in range(i + 1, i + w):
                ner[j] = f"I-{tag}"
            legal = ["_"] + [
                m
                for m, cls in MOD_DICT.items()
                if cls == "state"
                or (cls == "certainty" and tag == "d")
                or (cls == "type" and tag == "TIMEX3")
            ]
            mod[i + w - 1] = draw(st.sampled_from(legal))
            spans.append((i, i + w))
            i += w + 1
        else:
            i += 1
    rels = [["N"] for _ in range(n)]
    heads = [[k] for k in range(n)]
    anchors = [e - 1 for _, e in spans]
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(anchors or [0]), st.sampled_from(anchors or [0])),
            max_size=4,
            unique=True,
        )
    ) if anchors else []
    for t, h in pairs:
        r = draw(st.sampled_from(["on", "before", "TrAP"]))
        if rels[t] == ["N"] and heads[t] == [t]:
            rels[t] = [r]
            heads[t] = [h]
        else:
            rels[t].append(r)
            heads[t].append(h)
    return tokens, ner, mod, rels, heads


@given(analyzer_tagged_chunks())
@settings(max_examples=60, deadline=None)
def test_brat_roundtrip_property(chunk):
    """brat writer -> brat reader -> assemble equals direct assemble
    for any analyzer-consistent tagged chunk (char offsets land on
    token boundaries because the writer emits them from the same token
    fusion the reader re-derives)."""
    import pyarrow as pa

    from jamie_ray.stages.assemble import assemble_batch
    from jamie_ray.stages.brat import parse_brat
    from jamie_ray.stages.format_out import chunk_to_brat

    tokens, ner, mod, rels, heads = chunk

    def tagged_table(t, nr, md, rl, hd):
        return pa.table(
            {
                "url": pa.array(["u"], "string"),
                "chunk_id": pa.array([0], pa.int32()),
                "tokens": pa.array([t], pa.list_(pa.string())),
                "ner": pa.array([nr], pa.list_(pa.string())),
                "mod": pa.array([md], pa.list_(pa.string())),
                "rels": pa.array([rl], pa.list_(pa.list_(pa.string()))),
                "heads": pa.array([hd], pa.list_(pa.list_(pa.int32()))),
            }
        )

    direct = assemble_batch(tagged_table(tokens, ner, mod, rels, heads))
    txt, ann = chunk_to_brat(tokens, ner, mod, rels, heads)
    r = parse_brat(txt, ann)
    assert r["anno_errors"] == 0
    via = assemble_batch(
        tagged_table(r["tokens"], r["ner"], r["mod"], r["rels"], r["heads"])
    )
    key = lambda t: sorted(
        zip(*[t.column(c).to_pylist() for c in sorted(t.column_names)])
    ) if t.num_rows else []
    assert key(direct) == key(via)


@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        min_size=1,
        max_size=300,
    ),
    st.integers(1, 64),
)
@settings(max_examples=15, deadline=None)
def test_quantiles_exact_property(vals, stride):
    """quantiles_exact equals single-machine rank select for arbitrary
    finite float lists and sample strides (duplicates, negatives,
    tiny/degenerate inputs included)."""
    import ray.data

    from jamie_ray.functions.sketch import quantiles_exact

    ds = ray.data.from_items([{"value": float(v)} for v in vals])
    qs = [0.0, 0.3, 0.5, 0.77, 1.0]
    out = quantiles_exact(ds, "value", qs, sample_stride=stride)
    sv = sorted(float(v) for v in vals)
    n = len(sv)
    got = dict(zip(out.column("q").to_pylist(), out.column("value").to_pylist()))
    import math

    expected = {q: sv[int(math.floor(q * (n - 1)))] for q in qs}
    assert got == expected


def test_paragraph_dedup_matches_bruteforce_random():
    """paragraph_dedup equals a single-machine brute-force replay of
    the keep-first rule on seeded random corpora (cross-doc repeats,
    within-doc repeats, whitespace-only paragraphs, empty docs)."""
    import numpy as np
    import ray.data

    from jamie_ray.functions.dedup_docs import paragraph_dedup

    from jamie_ray.functions.text_analysis import is_re2_blank

    # includes RE2-blank ("", "  ", "\t") and NOT-RE2-blank ("\xa0":
    # NBSP is \S to RE2, so it deduplicates like content) paragraphs
    pool = [f"para {i} tok{i}" for i in range(8)] + ["", "  ", "\t", "\xa0"]
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        docs = []
        for d in range(25):
            n = int(rng.integers(0, 6))
            paras = [pool[int(rng.integers(0, len(pool)))] for _ in range(n)]
            docs.append({"doc_id": d, "text": "\n".join(paras)})
        got = {
            r["doc_id"]: (r["clean_text"], r["n_paras"], r["n_dropped"])
            for r in paragraph_dedup(ray.data.from_items(docs)).take_all()
        }
        seen: set[str] = set()
        for d in docs:
            paras = d["text"].split("\n")
            kept, dropped = [], 0
            for p in paras:
                if is_re2_blank(p):
                    kept.append(p)
                elif p not in seen:
                    seen.add(p)
                    kept.append(p)
                else:
                    dropped += 1
            assert got[d["doc_id"]] == (
                "\n".join(kept),
                len(paras),
                dropped,
            ), f"seed {seed} doc {d['doc_id']}"


def test_bpe_train_matches_occurrence_replay_random():
    """train_bpe (distributed word count + frequency-table merge loop)
    equals fixtures._bpe_expected (occurrence-level replay) on seeded
    random corpora — two structurally different implementations of the
    same merge algebra."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from jamie_ray.fixtures import BPE_N_MERGES, _bpe_expected
    from jamie_ray.functions.bpe import train_bpe

    toks = ["aa", "ab", "abc", "ba", "bb", "ca", "cab", "x"]
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        texts = [
            " ".join(
                toks[int(rng.integers(0, len(toks)))]
                for _ in range(int(rng.integers(0, 12)))
            )
            for _ in range(30)
        ]
        docs = ray.data.from_items(
            [{"doc_id": i, "text": t} for i, t in enumerate(texts)]
        ).repartition(4)
        got = train_bpe(docs, n_merges=BPE_N_MERGES, min_freq=2)
        exp = _bpe_expected(texts)
        assert got.to_pylist() == exp.to_pylist(), f"seed {seed}"


@settings(max_examples=150, deadline=None)
@given(
    st.text(
        alphabet=st.characters(
            whitelist_categories=("L", "N", "P", "Zs", "Cc"),
            whitelist_characters=" \t\n\r\x0b\x0c\xa0　漢字かなカナ",
        ),
        max_size=80,
    )
)
def test_ws_tokens_matches_duckdb_split(text):
    """ws_tokens (the Python RE2-\\s-exact tokenizer behind
    repetition_batch and BPE) must agree with DuckDB's RE2
    string_split_regex on arbitrary unicode incl. NBSP / \\v /
    ideographic space — the seam that keeps the SQL oracles exact."""
    import duckdb

    from jamie_ray.functions.text_analysis import is_re2_blank, ws_tokens

    con = duckdb.connect()
    exp = con.execute(
        r"""SELECT list_filter(string_split_regex(?, '\s+'), x -> x <> '')""",
        [text],
    ).fetchone()[0]
    assert ws_tokens(text) == exp
    blank_sql = con.execute(
        "SELECT trim(?, chr(9)||chr(10)||chr(12)||chr(13)||' ') = ''", [text]
    ).fetchone()[0]
    assert is_re2_blank(text) == blank_sql
