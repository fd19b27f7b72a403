"""Text analysis ops over a documents table: language ID, quality
scoring, token counting, fingerprinting.

All kernels are fully vectorized ``pyarrow.compute`` string ops (no
Python row loops) and each has an exact DuckDB-SQL twin in
``__ray_entry__.oracle_sql`` — the regexes are written once here and
shared with the SQL strings so the two sides cannot drift.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# shared regexes (RE2-compatible: both Arrow and DuckDB accept these)
TOKEN_RE = r"\S+"
BPE_RE = r"[A-Za-z]+|[0-9]|[^\sA-Za-z0-9]"
CJK_RE = r"[\x{3040}-\x{30ff}\x{4e00}-\x{9fff}]"
LATIN_RE = r"[A-Za-z]"
PUNCT_RE = r"[!-/:-@\[-`{-~]"
# boundary-free on purpose: ^/$ anchors behave differently between the
# Arrow and DuckDB regex engines; double-space consumption is symmetric
STOPWORD_RE = r" (the|a|an|of|to|and|in|is|it|that) "

# quality-score weights (deterministic linear model over count ratios)
_Q_LEN_NORM = 500.0


def token_count_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """(id cols..., text) -> + n_tokens (whitespace) + n_bpe (BPE-ish)."""
    text = batch.column(text_col)
    n_tokens = pc.count_substring_regex(text, TOKEN_RE)
    n_bpe = pc.count_substring_regex(text, BPE_RE)
    return batch.append_column(
        "n_tokens", pc.cast(n_tokens, pa.int64())
    ).append_column("n_bpe", pc.cast(n_bpe, pa.int64()))


def lang_id_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """n-gram-free heuristic language ID: CJK char fraction vs latin.

    lang_pred = 'ja' if cjk/len > 0.2, else 'en' if latin/len > 0.5,
    else 'other' ('' for empty text).
    """
    text = batch.column(text_col)
    n_chars = pc.cast(pc.utf8_length(text), pa.float64())
    cjk = pc.cast(pc.count_substring_regex(text, CJK_RE), pa.float64())
    latin = pc.cast(pc.count_substring_regex(text, LATIN_RE), pa.float64())
    safe_len = pc.max_element_wise(n_chars, pa.scalar(1.0))
    cjk_frac = pc.divide(cjk, safe_len)
    latin_frac = pc.divide(latin, safe_len)
    pred = pc.if_else(
        pc.equal(n_chars, 0.0),
        pa.scalar(""),
        pc.if_else(
            pc.greater(cjk_frac, 0.2),
            pa.scalar("ja"),
            pc.if_else(pc.greater(latin_frac, 0.5), pa.scalar("en"), pa.scalar("other")),
        ),
    )
    return batch.append_column("lang_pred", pred)


def quality_score_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Deterministic quality score, emitted as integer micro-units:

    score = 0.4*min(len/500, 1) + 0.3*(1 - punct_ratio) + 0.3*min(stop_hits/5, 1)
    quality_micro = floor(score * 1e6 + 0.5)   (int64)

    Integer output makes the cross-engine comparison exact: the score's
    expression tree is replicated operation-for-operation in the DuckDB
    oracle, so the doubles are bit-identical and the floor is too.
    """
    text = batch.column(text_col)
    n_chars = pc.cast(pc.utf8_length(text), pa.float64())
    safe_len = pc.max_element_wise(n_chars, pa.scalar(1.0))
    punct = pc.cast(pc.count_substring_regex(text, PUNCT_RE), pa.float64())
    stops = pc.cast(pc.count_substring_regex(text, STOPWORD_RE), pa.float64())
    len_term = pc.min_element_wise(pc.divide(n_chars, pa.scalar(_Q_LEN_NORM)), pa.scalar(1.0))
    punct_term = pc.subtract(pa.scalar(1.0), pc.divide(punct, safe_len))
    stop_term = pc.min_element_wise(pc.divide(stops, pa.scalar(5.0)), pa.scalar(1.0))
    score = pc.add(
        pc.add(
            pc.multiply(len_term, pa.scalar(0.4)),
            pc.multiply(punct_term, pa.scalar(0.3)),
        ),
        pc.multiply(stop_term, pa.scalar(0.3)),
    )
    micro = pc.cast(
        pc.floor(pc.add(pc.multiply(score, pa.scalar(1_000_000.0)), pa.scalar(0.5))),
        pa.int64(),
    )
    return batch.append_column("quality_micro", micro)


def winnow_fingerprints(
    text: str, k: int = 8, window: int = 16
) -> list[int]:
    """Winnowing document fingerprints over a character rolling hash.

    Classic scheme (Schleimer, Wilkerson, Aiken, SIGMOD'03): k-gram
    rolling hashes -> per-window minimum (rightmost min wins) ->
    deduplicated fingerprint sequence. Guarantees any shared substring
    of length >= window+k-1 yields a shared fingerprint. Deterministic;
    int64-signed values for Arrow friendliness.
    """
    n = len(text)
    if n < k:
        return []
    codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32).astype(np.uint64)
    # rolling hash of all k-grams, vectorized via cumulative powers; the
    # hash wraps mod 2**64 on purpose, and uint64 array ops wrap silently
    # where scalar ops warn
    pows = np.full(k, 1_000_003, dtype=np.uint64)
    pows[0] = 1
    pows = np.cumprod(pows)  # base**i
    m = n - k + 1
    grams = np.zeros(m, dtype=np.uint64)
    for j in range(k):  # k is small; m-length vector ops inside
        grams = grams + codes[j : j + m] * pows[k - 1 - j]
    if m <= window:
        return [int(x) - (1 << 64) if int(x) >= (1 << 63) else int(x)
                for x in [grams.min()]]
    # sliding-window minima via stride tricks
    sw = np.lib.stride_tricks.sliding_window_view(grams, window)
    mins = sw.min(axis=1)
    out: list[int] = []
    prev = None
    for v in mins:
        if prev is None or v != prev:
            iv = int(v)
            out.append(iv - (1 << 64) if iv >= (1 << 63) else iv)
            prev = v
    return out


def winnow_batch(
    batch: pa.Table, text_col: str = "text", k: int = 8, window: int = 16
) -> pa.Table:
    """+ fingerprints column: winnowed rolling-hash fingerprint list."""
    fps = [
        winnow_fingerprints(t or "", k, window)
        for t in batch.column(text_col).to_pylist()
    ]
    return batch.append_column("fingerprints", pa.array(fps, pa.list_(pa.int64())))


def fingerprint_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """+ text_hash column: md5 hex of the raw text (exact-dedup key;
    md5 chosen because DuckDB exposes the identical function)."""
    hashes = [
        hashlib.md5(t.encode("utf-8")).hexdigest() if t is not None else None
        for t in batch.column(text_col).to_pylist()
    ]
    return batch.append_column("text_hash", pa.array(hashes, pa.string()))


# RE2's \s is exactly [\t\n\f\r ] (no \v, no Unicode spaces) — verified
# empirically against BOTH DuckDB and pyarrow; Python re's \s is wider
# (NBSP, \v, U+2000...), so Python-side tokenizers must use THIS class
# to stay bit-exact with the '\s+' in the SQL oracles
# (tests/test_properties.py::test_ws_tokens_matches_duckdb_split).
WS_RE2_CLASS = "[\t\n\x0c\r ]"
_WS_RE2_SPLIT = re.compile(WS_RE2_CLASS + "+")


def ws_tokens(text: str | None) -> list[str]:
    """RE2-exact ``\\s+`` tokenization (the DuckDB
    ``string_split_regex(text, '\\s+')`` twin), empties dropped."""
    return [t for t in _WS_RE2_SPLIT.split(text or "") if t]


def is_re2_blank(text: str) -> bool:
    """True iff ``text`` contains only RE2-whitespace characters —
    the twin of DuckDB ``trim(x, chr(9)||chr(10)||chr(12)||chr(13)||' ') = ''``."""
    return text.strip("\t\n\x0c\r ") == ""


def gopher_quality_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Gopher-style document quality signals (Rae et al. 2021 §A1.1 —
    public literature), all integer-exact micro-unit columns so the
    DuckDB twin compares bit-for-bit (the ``repetition_batch``
    discipline — integer products and floor division only, no float
    path at all):

    - ``mean_word_len_micro``: ``total_token_chars * 1e6 //
      n_tokens`` (0 for empty docs). Gopher keeps docs whose mean is
      in [3, 10].
    - ``symbol_word_micro``: ``(count('#') + count('...') +
      count('…')) * 1e6 // n_tokens`` — the symbol-to-word ratio
      (Gopher keeps <= 0.1). Non-overlapping substring counts on both
      engines.
    - ``alpha_word_micro``: fraction of words containing at least one
      ``[A-Za-z]`` character (Gopher keeps >= 0.8).
    - ``bullet_line_micro``: fraction of lines starting with a bullet
      marker (``•``, ``- ``, ``* `` after leading-RE2-blank strip;
      Gopher drops docs above 0.9).
    - ``ellipsis_line_micro``: fraction of lines ending with ``...``
      or ``…`` after trailing-RE2-blank strip (Gopher drops above
      0.3).

    Words are the RE2-exact ``\\s+`` split (:func:`ws_tokens` twin);
    lines are the ``\\n`` split. All counts are Arrow kernels over the
    flattened token/line arrays — zero Python row loops.
    """
    n = batch.num_rows
    text = pc.coalesce(batch.column(text_col), pa.scalar("", pa.string()))
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()

    n_tok = pc.cast(pc.count_substring_regex(text, _WORD_RUN_RE), pa.int64())
    n_tok_np = n_tok.to_numpy()
    safe_tok = np.maximum(n_tok_np, 1)

    # mean word length: token chars = chars - RE2-blank chars
    n_chars = pc.cast(pc.utf8_length(text), pa.int64()).to_numpy()
    n_blank = pc.cast(
        pc.count_substring_regex(text, WS_RE2_CLASS), pa.int64()
    ).to_numpy()
    mean_wl = (n_chars - n_blank) * 1_000_000 // safe_tok
    mean_wl[n_tok_np == 0] = 0

    # symbol-to-word ratio
    sym = (
        pc.count_substring(text, "#").to_numpy().astype(np.int64)
        + pc.count_substring(text, "...").to_numpy().astype(np.int64)
        + pc.count_substring(text, "…").to_numpy().astype(np.int64)
    )
    sym_micro = sym * 1_000_000 // safe_tok
    sym_micro[n_tok_np == 0] = 0

    # alpha-word fraction over the flattened token array
    toks = pc.split_pattern_regex(text, WS_RE2_CLASS + "+")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    tok_lens = pc.list_value_length(toks).to_numpy().astype(np.int64)
    flat_tok = toks.flatten()
    tok_parent = np.repeat(np.arange(n, dtype=np.int64), tok_lens)
    is_word = pc.not_equal(flat_tok, pa.scalar("")).to_numpy(zero_copy_only=False)
    has_alpha = pc.match_substring_regex(flat_tok, LATIN_RE).to_numpy(
        zero_copy_only=False
    )
    alpha_cnt = np.bincount(
        tok_parent[is_word & has_alpha], minlength=n
    ).astype(np.int64)
    alpha_micro = alpha_cnt * 1_000_000 // safe_tok
    alpha_micro[n_tok_np == 0] = 0

    # line-level bullet / ellipsis fractions
    lines = pc.split_pattern(text, "\n")
    if isinstance(lines, pa.ChunkedArray):
        lines = lines.combine_chunks()
    line_lens = pc.list_value_length(lines).to_numpy().astype(np.int64)
    flat_line = lines.flatten()
    line_parent = np.repeat(np.arange(n, dtype=np.int64), line_lens)
    lt = pc.utf8_ltrim(flat_line, characters=_LINE_RTRIM)
    bullet = pc.or_(
        pc.starts_with(lt, pattern="•"),
        pc.or_(pc.starts_with(lt, pattern="- "), pc.starts_with(lt, pattern="* ")),
    ).to_numpy(zero_copy_only=False)
    rt = pc.utf8_rtrim(flat_line, characters=_LINE_RTRIM)
    ellipsis = pc.or_(
        pc.ends_with(rt, pattern="..."), pc.ends_with(rt, pattern="…")
    ).to_numpy(zero_copy_only=False)
    bullet_cnt = np.bincount(line_parent[bullet], minlength=n).astype(np.int64)
    ellipsis_cnt = np.bincount(line_parent[ellipsis], minlength=n).astype(np.int64)
    safe_lines = np.maximum(line_lens, 1)
    bullet_micro = bullet_cnt * 1_000_000 // safe_lines
    ellipsis_micro = ellipsis_cnt * 1_000_000 // safe_lines

    return (
        batch.append_column("mean_word_len_micro", pa.array(mean_wl, pa.int64()))
        .append_column("symbol_word_micro", pa.array(sym_micro, pa.int64()))
        .append_column("alpha_word_micro", pa.array(alpha_micro, pa.int64()))
        .append_column("bullet_line_micro", pa.array(bullet_micro, pa.int64()))
        .append_column(
            "ellipsis_line_micro", pa.array(ellipsis_micro, pa.int64())
        )
    )


# --- C4-style line-level cleaning (Raffel et al. 2020, §2.2 — public
# literature; the reference has no web-cleaning stage, this is
# brief-driven like the rest of the LLM-data family). Shared ASCII
# case-class regexes: Python re, Arrow RE2 and DuckDB RE2 all agree on
# these, unlike lower()/ignore_case which can diverge on non-ASCII.
C4_BANNED_LINE_RE = "[Jj][Aa][Vv][Aa][Ss][Cc][Rr][Ii][Pp][Tt]"
C4_BANNED_DOC_RE = "[Ll][Oo][Rr][Ee][Mm] [Ii][Pp][Ss][Uu][Mm]"
C4_TERMINAL_PUNCT = (".", "!", "?", '"')
# RE2 blanks minus \n (a split line can never contain \n)
_LINE_RTRIM = "\t\x0c\r "
# one "word" = one maximal run of non-RE2-blank characters — the exact
# count of non-empty tokens in the SQL twin's string_split_regex('\s+')
_WORD_RUN_RE = "[^\t\n\x0c\r ]+"


def c4_line_clean_batch(
    batch: pa.Table,
    text_col: str = "text",
    *,
    min_words_per_line: int = 5,
    min_kept_lines: int = 3,
    require_terminal_punct: bool = True,
    out_col: str = "clean_text",
) -> pa.Table:
    """C4 line-level cleaning rules, fully vectorized (zero row loops).

    Line rules (a line is kept iff ALL hold):
      - >= ``min_words_per_line`` words (RE2 ``\\s+`` token count);
      - ends in terminal punctuation ``. ! ? \"`` after stripping
        trailing RE2 blanks (skipped if ``require_terminal_punct`` is
        False);
      - does not contain "javascript" (ASCII-case-insensitive).
    Document rules (the whole doc is dropped — ``out_col`` NULL — iff
    ANY holds, each tested on the ORIGINAL text):
      - contains ``{`` anywhere;
      - contains "lorem ipsum" (ASCII-case-insensitive);
      - fewer than ``min_kept_lines`` lines survive the line rules.

    Appends ``out_col`` (kept lines re-joined with ``\\n``; NULL for a
    dropped doc), ``n_lines`` and ``n_kept`` (both int64; counted even
    for dropped docs). NULL input text is treated as ``""``. The
    DuckDB twin lives in ``__ray_entry__.oracle_sql`` (``c4`` view of
    ``docs_line_suite``) and is byte-exact on ``out_col``.
    """
    n = batch.num_rows
    text = pc.coalesce(batch.column(text_col), pa.scalar("", pa.string()))
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    lines = pc.split_pattern(text, "\n")
    if isinstance(lines, pa.ChunkedArray):
        lines = lines.combine_chunks()
    lengths = pc.list_value_length(lines).to_numpy().astype(np.int64)
    flat = lines.flatten()
    # per-line keep mask — all Arrow kernels over the flat line array
    words_ok = pc.greater_equal(
        pc.count_substring_regex(flat, _WORD_RUN_RE),
        pa.scalar(min_words_per_line, pa.int32()),
    )
    keep = pc.and_(
        words_ok,
        pc.invert(pc.match_substring_regex(flat, C4_BANNED_LINE_RE)),
    )
    if require_terminal_punct:
        rtrimmed = pc.utf8_rtrim(flat, characters=_LINE_RTRIM)
        terminal = pc.ends_with(rtrimmed, pattern=C4_TERMINAL_PUNCT[0])
        for p in C4_TERMINAL_PUNCT[1:]:
            terminal = pc.or_(terminal, pc.ends_with(rtrimmed, pattern=p))
        keep = pc.and_(keep, terminal)
    keep_np = keep.to_numpy(zero_copy_only=False)
    parent = np.repeat(np.arange(n, dtype=np.int64), lengths)
    kept_counts = np.bincount(parent[keep_np], minlength=n).astype(np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(kept_counts, out=offsets[1:])
    kept_list = pa.LargeListArray.from_arrays(
        pa.array(offsets, pa.int64()), flat.filter(keep)
    )
    joined = pc.binary_join(kept_list, "\n")
    drop = pc.or_(
        pc.or_(
            pc.match_substring(text, "{"),
            pc.match_substring_regex(text, C4_BANNED_DOC_RE),
        ),
        pa.array(kept_counts < min_kept_lines),
    )
    clean = pc.if_else(drop, pa.scalar(None, pa.string()), joined)
    return (
        batch.append_column(out_col, clean)
        .append_column("n_lines", pa.array(lengths, pa.int64()))
        .append_column("n_kept", pa.array(kept_counts, pa.int64()))
    )


def c4_line_clean(
    ds,
    text_col: str = "text",
    *,
    min_words_per_line: int = 5,
    min_kept_lines: int = 3,
    require_terminal_punct: bool = True,
    out_col: str = "clean_text",
):
    """Dataset wrapper of :func:`c4_line_clean_batch` — streaming, no
    shuffle, no state. Dropped docs keep their row with a NULL
    ``out_col`` so callers can count/inspect them; use
    :func:`c4_filter` to apply the drop."""
    return ds.map_batches(
        lambda b: c4_line_clean_batch(
            b,
            text_col,
            min_words_per_line=min_words_per_line,
            min_kept_lines=min_kept_lines,
            require_terminal_punct=require_terminal_punct,
            out_col=out_col,
        ),
        batch_format="pyarrow",
    )


def c4_filter_batch(
    batch: pa.Table,
    text_col: str = "text",
    **rules,
) -> pa.Table:
    """Apply :func:`c4_line_clean_batch` as a gate: dropped docs are
    filtered out and ``text_col`` is REPLACED by the cleaned text
    (schema unchanged — the ``clean_corpus`` stage contract)."""
    out = c4_line_clean_batch(batch, text_col, out_col="__c4_clean", **rules)
    out = out.filter(pc.is_valid(out.column("__c4_clean")))
    i = out.schema.get_field_index(text_col)
    out = out.set_column(i, text_col, out.column("__c4_clean"))
    return out.drop_columns(["__c4_clean", "n_lines", "n_kept"])


def repetition_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Gopher-style repetition quality signals (Rae et al. 2021,
    "Scaling Language Models: ... Gopher" §A1.1 — public literature),
    integer-exact so the DuckDB oracle compares bit-for-bit:

    - ``top2gram_micro``: characters covered by the single most
      frequent token 2-gram as a fraction of total token characters,
      in micro units — ``(count * (len(a)+len(b)) * 1e6) //
      total_token_chars``. Tie-break: higher count, then
      lexicographically smallest ``"a b"``.
    - ``dup3gram_micro``: fraction of token-3-gram OCCURRENCES that
      are repeats — ``((n3 - distinct3) * 1e6) // n3``.

    Both are 0 for docs too short to form the n-gram. Tokens are the
    RE2-exact ``\\s+`` split (:func:`ws_tokens` — bit-exact with the
    SQL ``string_split_regex(text, '\\s+')``)."""
    from collections import Counter

    top2: list[int] = []
    dup3: list[int] = []
    for t in batch.column(text_col).to_pylist():
        toks = ws_tokens(t)
        total_chars = sum(len(x) for x in toks)
        if len(toks) < 2 or total_chars == 0:
            top2.append(0)
        else:
            counts = Counter(zip(toks, toks[1:]))
            # max count, then lexicographically smallest "a b"
            best = min(counts.items(), key=lambda kv: (-kv[1], f"{kv[0][0]} {kv[0][1]}"))
            (a, b), c = best
            top2.append(c * (len(a) + len(b)) * 1_000_000 // total_chars)
        n3 = max(0, len(toks) - 2)
        if n3 == 0:
            dup3.append(0)
        else:
            distinct3 = len({(toks[i], toks[i + 1], toks[i + 2]) for i in range(n3)})
            dup3.append((n3 - distinct3) * 1_000_000 // n3)
    return batch.append_column(
        "top2gram_micro", pa.array(top2, pa.int64())
    ).append_column("dup3gram_micro", pa.array(dup3, pa.int64()))


def passage_split_batch(
    batch: pa.Table,
    text_col: str = "text",
    id_col: str = "doc_id",
    *,
    window: int = 256,
    stride: int = 128,
) -> pa.Table:
    """Sliding-window passage splitter (the RAG / retrieval-corpus
    preprocessing shape: fixed token windows with overlap) — fully
    vectorized, zero Python row loops.

    Tokens are the RE2-exact ``\\s+`` split with empties dropped
    (:func:`ws_tokens` / the SQL ``string_split_regex`` twin). For a
    doc with ``n > 0`` tokens, passages start at ``0, stride,
    2*stride, ...`` with ``ceil(max(n - window, 0) / stride) + 1``
    passages total (integer ceil — no float path), so every token is
    covered and only the last passage may be shorter than ``window``.
    Docs with no tokens (NULL / empty / all-blank text) emit zero
    rows. Passage text re-joins its tokens with single spaces —
    original inter-token whitespace is NOT preserved (the standard
    retrieval-chunk normalization; use span offsets from
    ``start_tok``/``n_tok`` against :func:`ws_tokens` when byte
    fidelity matters).

    Output rows: ``(id_col, passage_id, start_tok, n_tok,
    passage_text)`` — one per passage, in (input row, passage_id)
    order. Requires ``0 < stride <= window`` (contiguous or
    overlapping windows; a gap would silently drop tokens).
    """
    if not (0 < stride <= window):
        raise ValueError(
            f"passage_split: need 0 < stride <= window, got "
            f"stride={stride} window={window}"
        )
    n = batch.num_rows
    id_type = batch.schema.field(id_col).type
    empty = pa.table(
        {
            id_col: pa.array([], id_type),
            "passage_id": pa.array([], pa.int64()),
            "start_tok": pa.array([], pa.int64()),
            "n_tok": pa.array([], pa.int64()),
            "passage_text": pa.array([], pa.string()),
        }
    )
    if n == 0:
        return empty
    text = pc.coalesce(batch.column(text_col), pa.scalar("", pa.string()))
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    toks = pc.split_pattern_regex(text, WS_RE2_CLASS + "+")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    raw_lens = pc.list_value_length(toks).to_numpy().astype(np.int64)
    flat = toks.flatten()
    nonempty = pc.not_equal(flat, pa.scalar(""))
    ne_np = nonempty.to_numpy(zero_copy_only=False)
    raw_parent = np.repeat(np.arange(n, dtype=np.int64), raw_lens)
    ntok = np.bincount(raw_parent[ne_np], minlength=n).astype(np.int64)
    flat_ne = flat.filter(nonempty)
    tok_base = np.zeros(n, dtype=np.int64)
    np.cumsum(ntok[:-1], out=tok_base[1:])

    # passages per doc: integer ceil, 0 for token-free docs
    p = np.where(
        ntok > 0,
        (np.maximum(ntok - window, 0) + stride - 1) // stride + 1,
        0,
    )
    total_p = int(p.sum())
    if total_p == 0:
        return empty
    pbase = np.zeros(n, dtype=np.int64)
    np.cumsum(p[:-1], out=pbase[1:])
    doc_of = np.repeat(np.arange(n, dtype=np.int64), p)
    within = np.arange(total_p, dtype=np.int64) - np.repeat(pbase, p)
    start = within * stride
    plen = np.minimum(window, ntok[doc_of] - start)

    # gather token indices for every (overlapping) window
    total_t = int(plen.sum())
    tbase = np.zeros(total_p + 1, dtype=np.int64)
    np.cumsum(plen, out=tbase[1:])
    pass_of_tok = np.repeat(np.arange(total_p, dtype=np.int64), plen)
    tok_within = np.arange(total_t, dtype=np.int64) - np.repeat(
        tbase[:-1], plen
    )
    gidx = tok_base[doc_of[pass_of_tok]] + start[pass_of_tok] + tok_within
    taken = pc.take(flat_ne, pa.array(gidx, pa.int64()))
    if isinstance(taken, pa.ChunkedArray):
        taken = taken.combine_chunks()
    windows = pa.LargeListArray.from_arrays(pa.array(tbase, pa.int64()), taken)
    ptext = pc.binary_join(windows, " ")
    ids = pc.take(batch.column(id_col), pa.array(doc_of, pa.int64()))
    return pa.table(
        {
            id_col: ids,
            "passage_id": pa.array(within, pa.int64()),
            "start_tok": pa.array(start, pa.int64()),
            "n_tok": pa.array(plen, pa.int64()),
            "passage_text": ptext,
        }
    )


def passage_split(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    *,
    window: int = 256,
    stride: int = 128,
):
    """Dataset wrapper of :func:`passage_split_batch` — streaming
    flat transform, no shuffle, no state; row count grows by the
    overlap factor (~``window/stride`` x tokens), so pair it with a
    small ``batch_size`` upstream for very long documents."""
    if not (0 < stride <= window):
        raise ValueError(
            f"passage_split: need 0 < stride <= window, got "
            f"stride={stride} window={window}"
        )
    return ds.map_batches(
        lambda b: passage_split_batch(
            b, text_col, id_col, window=window, stride=stride
        ),
        batch_format="pyarrow",
    )


def compression_ratio_batch(
    batch: pa.Table, text_col: str = "text", *, level: int = 6
) -> pa.Table:
    """Deflate-compression quality signal (the RefinedWeb / Dolma
    "compressibility" heuristic — public literature): highly
    repetitive boilerplate compresses far below normal prose, while
    random gibberish barely compresses at all, so a band filter on the
    ratio catches both failure modes the n-gram signals can miss.

    Appends ``compress_micro`` (int64): ``len(zlib.compress(utf8)) *
    1e6 // len(utf8)`` — integer micro units, bit-deterministic (zlib
    with a fixed ``level`` is a deterministic function of its input;
    pinned by the replay test). 0 for NULL/empty text (no bytes to
    judge — callers gate on token floors first). The per-row zlib call
    is the whole kernel (C code releasing the GIL), the
    ``repetition_batch`` precedent for loop-acceptable batch ops.

    Typical prose lands ~200k-600k micro; ``> ~750k`` is
    noise-like (printable high-entropy text caps near ~840k — 6.55
    bits/char through an 8-bit coder), ``< ~100k`` is pathological
    repetition.
    """
    import zlib

    out = []
    for t in batch.column(text_col).to_pylist():
        if not t:
            out.append(0)
            continue
        raw = t.encode("utf-8")
        out.append(len(zlib.compress(raw, level)) * 1_000_000 // len(raw))
    return batch.append_column("compress_micro", pa.array(out, pa.int64()))
