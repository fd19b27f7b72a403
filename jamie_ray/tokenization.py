"""Deterministic segmentation + subword tokenization.

Stands in for the reference's MeCab wakati + BERT WordPiece pair
(/root/reference/utils.py:28-60 ``MorphologicalAnalyzer`` and
``BertTokenizer.tokenize`` call sites, e.g. utils.py:662,826). Those
components are external models; this engine pins *deterministic* rules
with the exact same output algebra:

- the analyzer emits surface tokens, applies the ``[JASP]``/``[SEP]``
  sentinel pipeline and per-token ``han_to_zen`` exactly as
  utils.py:47-60 does, and dedups consecutive ``[JASP]``;
- the subword tokenizer emits WordPiece-shaped pieces (continuations
  prefixed ``##``, special tokens kept whole) so every downstream
  alignment rule (first-subword / last-subword / anchor−1, see
  ``labels.py``) is exercised identically.

Everything is a pure function of the input string — no model files, no
state — so extracted artifacts are reproducible bit-for-bit.
"""

from __future__ import annotations

import unicodedata

from .textnorm import han_to_zen

SPECIAL_TOKENS = ("[JASP]", "[SEP]", "[CLS]", "[PAD]", "[UNK]")

# subword piece width (chars) for the deterministic WordPiece stand-in
_PIECE = 3
# kanji "word" width for the deterministic wakati stand-in
_KANJI_RUN = 2


# per-process caches: the character and token vocabularies are tiny
# relative to the token stream, so these turn per-char class checks and
# per-token width folds into dict hits (semantics unchanged)
_CHAR_CLASS_CACHE: dict[str, str] = {}
_H2Z_TOKEN_CACHE: dict[str, str] = {}
_CACHE_CAP = 1 << 20


def _char_class(ch: str) -> str:
    cls = _CHAR_CLASS_CACHE.get(ch)
    if cls is None:
        cls = _char_class_uncached(ch)
        if len(_CHAR_CLASS_CACHE) < _CACHE_CAP:
            _CHAR_CLASS_CACHE[ch] = cls
    return cls


def _char_class_uncached(ch: str) -> str:
    cp = ord(ch)
    if ch == "　" or ch.isspace():
        return "sp"
    if 0x3040 <= cp <= 0x309F:
        return "hira"
    if 0x30A0 <= cp <= 0x30FF or cp == 0xFF70 or 0xFF66 <= cp <= 0xFF9D:
        return "kata"
    if 0x4E00 <= cp <= 0x9FFF or 0x3400 <= cp <= 0x4DBF:
        return "kanji"
    if ch.isalnum():
        # latin / digits / full-width alnum group together
        return "alnum"
    cat = unicodedata.category(ch)
    if cat.startswith(("P", "S")):
        return "punct"
    return "other"


def _wakati_with(text: str, char_class) -> list[str]:
    toks: list[str] = []
    run: list[str] = []
    run_cls = ""

    def flush() -> None:
        nonlocal run
        if not run:
            return
        s = "".join(run)
        if run_cls == "kanji" and len(s) > _KANJI_RUN:
            toks.extend(s[i : i + _KANJI_RUN] for i in range(0, len(s), _KANJI_RUN))
        else:
            toks.append(s)
        run = []

    for ch in text:
        cls = char_class(ch)
        if cls in ("sp", "punct"):
            flush()
            run_cls = cls
            toks.append("　" if cls == "sp" else ch)
            run_cls = ""
            continue
        if cls != run_cls:
            flush()
            run_cls = cls
        run.append(ch)
    flush()
    return toks


def wakati(text: str) -> list[str]:
    """Deterministic word segmentation (MeCab ``-Owakati`` stand-in).

    Splits on character-class boundaries; each space (incl. U+3000)
    becomes its own token; punctuation chars are singleton tokens; long
    kanji runs are chunked to ``_KANJI_RUN`` chars. Pure function.
    """
    return _wakati_with(text, _char_class)


def _char_class_juman(ch: str) -> str:
    cls = _char_class(ch)
    if cls == "alnum" and ch.isdigit():
        return "digit"
    return cls


def wakati_juman(text: str) -> list[str]:
    """Second registered analyzer (the reference's ``juman`` branch,
    utils.py:30-42): same contract as :func:`wakati` but digit runs
    segment apart from letter runs (``MRI2023`` -> ``MRI``/``2023``),
    the JUMAN-style finer morpheme boundary. Deterministic stand-in —
    a real JUMAN/MeCab binding plugs in via
    :func:`register_analyzer`."""
    return _wakati_with(text, _char_class_juman)


# ---------------------------------------------------------------------------
# genuine tagger adapters (optional dependencies)
# ---------------------------------------------------------------------------

# per-process tagger singletons: taggers are expensive to construct and
# NOT picklable, so the adapter functions below are module-level (every
# Ray worker resolves them by name through the registry) and build
# their tagger lazily on first call in each process
_REAL_TAGGERS: dict[str, object] = {}


def wakati_mecab_real(text: str) -> list[str]:
    """Genuine MeCab ``-Owakati`` adapter (reference utils.py:36-42).

    Returns the raw wakati token list; :func:`analyze` applies the
    exact ``[JASP]``/``[SEP]`` sentinel repair of utils.py:47-60 on
    top, so composing ``analyze(text, "mecab_real")`` reproduces the
    reference's mecab branch with the real tagger. Tokens are split on
    ASCII space ONLY — ideographic-space tokens (``　``) must survive
    into the join for the ``　 SEP 　 -> [SEP]`` fold to fire.

    Requires the optional ``mecab-python3`` package (plus a dictionary,
    e.g. ``unidic-lite``); selecting this analyzer without it fails
    loudly at first use.
    """
    tagger = _REAL_TAGGERS.get("mecab")
    if tagger is None:
        try:
            import MeCab  # type: ignore[import-not-found]
        except ImportError as ex:
            raise ImportError(
                "analyzer 'mecab_real' needs the optional mecab-python3 "
                "package (pip install mecab-python3 unidic-lite); the "
                "in-repo deterministic 'mecab' analyzer needs nothing"
            ) from ex
        tagger = MeCab.Tagger("-Owakati")
        _REAL_TAGGERS["mecab"] = tagger
    out = tagger.parse(text)
    return [t for t in out.rstrip("\n").split(" ") if t]


def wakati_juman_real(text: str) -> list[str]:
    """Genuine JUMAN adapter (reference utils.py:33-35, 46-47): morpheme
    surface forms (``midasi``) from pyknp. The reference's juman branch
    returns these directly without the mecab sentinel repair; under this
    engine's unified :func:`analyze` contract the repair runs for every
    analyzer — a deliberate, documented deviation that keeps the
    ``[JASP]``/``[SEP]`` invariants analyzer-independent.

    Requires the optional ``pyknp`` package and a ``jumanpp``/``juman``
    binary on PATH.
    """
    tagger = _REAL_TAGGERS.get("juman")
    if tagger is None:
        try:
            from pyknp import Juman  # type: ignore[import-not-found]
        except ImportError as ex:
            raise ImportError(
                "analyzer 'juman_real' needs the optional pyknp package "
                "(pip install pyknp) and a juman/jumanpp binary; the "
                "in-repo deterministic 'juman' analyzer needs nothing"
            ) from ex
        tagger = Juman()
        _REAL_TAGGERS["juman"] = tagger
    return [m.midasi for m in tagger.analysis(text).mrph_list()]


# analyzer registry (SURVEY.md §2.9 user-extension surface): the
# reference hard-wires a juman|mecab flag (utils.py:30-42); here the
# analyzer is a named pure function str -> tokens, selectable per
# pipeline via the entry points' ``analyzer=`` and extensible by users.
# 'mecab'/'juman' are the deterministic in-repo taggers (always
# available); 'mecab_real'/'juman_real' wrap the genuine optional
# bindings and fail loudly at first use when those aren't installed.
ANALYZERS: dict[str, object] = {
    "mecab": wakati,
    "juman": wakati_juman,
    "mecab_real": wakati_mecab_real,
    "juman_real": wakati_juman_real,
}
DEFAULT_ANALYZER = "mecab"


def register_analyzer(name: str, fn) -> None:
    """Register a segmentation function (str -> list[str]) under a name."""
    if name in ANALYZERS:
        raise ValueError(f"analyzer {name!r} already registered")
    ANALYZERS[name] = fn


def get_analyzer(name: str):
    try:
        return ANALYZERS[name]
    except KeyError:
        raise KeyError(
            f"unknown analyzer {name!r}; registered: {sorted(ANALYZERS)}"
        ) from None


def analyze(text: str, analyzer: str = DEFAULT_ANALYZER) -> list[str]:
    """The full analyzer contract of utils.py:47-60 (mecab branch).

    1. ascii space -> ideographic space;
    2. wakati (the ``analyzer`` registry entry);
    3. join with spaces, fold ``　 SEP 　`` -> `` [SEP] ``,
       remaining ideographic spaces -> ``[JASP]`` sentinels;
    4. per token: keep ``[JASP]``, else ``han_to_zen`` then restore a
       width-folded ``［ＳＥＰ］`` back to ``[SEP]``;
    5. collapse consecutive ``[JASP]``.
    """
    text = text.replace(" ", "　")
    joined = " ".join(get_analyzer(analyzer)(text))
    joined = joined.replace("　 SEP 　", " [SEP] ").replace("　", "[JASP]")
    segments = joined.split()
    segments = [_fold_token(tok) for tok in segments]
    refined: list[str] = []
    for i, seg in enumerate(segments):
        if i > 0 and seg == segments[i - 1] == "[JASP]":
            continue
        refined.append(seg)
    return refined


def _fold_token(tok: str) -> str:
    out = _H2Z_TOKEN_CACHE.get(tok)
    if out is None:
        out = (
            "[JASP]"
            if "[JASP]" in tok
            else han_to_zen(tok).replace("［ＳＥＰ］", "[SEP]")
        )
        if len(_H2Z_TOKEN_CACHE) < _CACHE_CAP:
            _H2Z_TOKEN_CACHE[tok] = out
    return out


def subword_tokenize(tokens: list[str]) -> list[str]:
    """WordPiece-shaped deterministic subword split.

    Special tokens stay whole; other tokens are cut into fixed-width
    pieces with ``##`` continuation prefixes (the shape every alignment
    rule in ``labels.py`` keys on).
    """
    pieces: list[str] = []
    for tok in tokens:
        if tok in SPECIAL_TOKENS or len(tok) <= _PIECE:
            pieces.append(tok)
            continue
        pieces.append(tok[:_PIECE])
        pieces.extend("##" + tok[i : i + _PIECE] for i in range(_PIECE, len(tok), _PIECE))
    return pieces


def subword_len(tokens: list[str]) -> int:
    """Subword length of a token sequence (utils.py:651-664 equivalent,
    used for the trunk-packing budget)."""
    n = 0
    for tok in tokens:
        if tok in SPECIAL_TOKENS or len(tok) <= _PIECE:
            n += 1
        else:
            n += 1 + (len(tok) - _PIECE + _PIECE - 1) // _PIECE
    return n


def explore_unk(bpe_x: list[str], ori_x: list[str]) -> list[str]:
    """Restore original surfaces for ``[UNK]`` pieces
    (semantics of /root/reference/utils.py:170-185)."""
    ix = 0
    out: list[str] = []
    for tok in bpe_x:
        if not tok.startswith("##"):
            out.append(ori_x[ix] if tok == "[UNK]" else tok)
            ix += 1
        else:
            out.append(tok)
    if len(out) != len(bpe_x):
        raise AssertionError("explore_unk length mismatch")
    return out
