"""Deterministic mock of the joint extraction model.

The reference's flagship stage is a BERT joint model
(``JointNerModReExtractor``, /root/reference/model.py:598-780) producing
(a) BIO entity tags, (b) a modality tag per token, (c) a sparse set of
relation selection cells. v0 of this engine ships a *deterministic*
stand-in with the exact same output contract (SURVEY.md §7.1 step 4):
a gazetteer tagger + hash-driven modality/relation rules, so the full
pipeline and its P/R harness run without GPUs, and a real transformer
drops in behind the same interface later.

Every decision is a pure function of surfaces + in-sentence mention
ordinals via ``stable_hash64`` — the fixture generator replays these
rules through an independent code path (no BIO/subword machinery) to
produce the expected triple set, which makes the e2e P/R gate a real
test of the decode/alignment algebra.
"""

from __future__ import annotations

from functools import lru_cache

from .hashing import stable_hash64
from .tokenization import analyze

# surface -> NER tag (reference tag inventory, data_objects.py:11-25).
# Surfaces are chosen so that wakati boundaries survive composition in
# generated sentences (kanji/katakana/latin mentions between hiragana
# filler; see fixtures.py).
GAZETTEER_SURFACES: dict[str, str] = {
    # diseases (d) — get certainty modality
    "急性肺炎": "d", "肺癌": "d", "心不全": "d", "糖尿病": "d",
    "高血圧": "d", "インフルエンザ": "d", "脳梗塞": "d", "胃潰瘍": "d",
    # anatomical (a)
    "左肺": "a", "右肺": "a", "心臓": "a", "肝臓": "a", "上葉": "a",
    # features (f)
    "陰影": "f", "結節": "f", "腫瘤": "f",
    # change (c)
    "増大": "c", "縮小": "c", "改善": "c",
    # tests (t-test)
    "MRI": "t-test", "CT": "t-test", "レントゲン": "t-test", "血液検査": "t-test",
    # medicine keys (m-key) — may get state modality
    "アスピリン": "m-key", "ステロイド": "m-key",
    # remedies (r) — may get state modality
    "手術": "r", "化学療法": "r", "放射線治療": "r",
    # clinical context (cc)
    "入院": "cc", "退院": "cc", "外来": "cc",
    # time expressions (TIMEX3) — get type modality
    "昨日": "TIMEX3", "本日": "TIMEX3", "三日前": "TIMEX3", "翌週": "TIMEX3",
}

CERTAINTY = ("positive", "suspicious", "negative", "general")
STATE = ("executed", "negated", "scheduled", "other")
TIMEX_TYPE = ("DATE", "TIME", "DURATION", "SET")
REL_VOCAB = ("region", "feature", "change", "value", "timex", "compare")

# how often an ordered mention pair gets a relation (1 in N)
_REL_MOD = 3
_STATE_MOD = 2


@lru_cache(maxsize=8)
def gazetteer_tokens(analyzer: str = "mecab") -> dict[tuple[str, ...], str]:
    """Gazetteer keyed by post-analyze token tuples (what the scorer
    actually sees — so keys are computed under the SAME analyzer the
    scorer runs with), value = NER tag."""
    return {
        tuple(analyze(surf, analyzer)): tag
        for surf, tag in GAZETTEER_SURFACES.items()
    }


@lru_cache(maxsize=8)
def gazetteer_lengths(analyzer: str = "mecab") -> dict[str, tuple[int, ...]]:
    """Gazetteer key lengths by first token, longest first: the only
    match widths worth trying at a position that holds that token."""
    by_first: dict[str, set[int]] = {}
    for key in gazetteer_tokens(analyzer):
        by_first.setdefault(key[0], set()).add(len(key))
    return {t: tuple(sorted(ws, reverse=True)) for t, ws in by_first.items()}


def gazetteer_mentions(
    tokens: list[str],
    start: int,
    end: int,
    gazetteer: dict[tuple[str, ...], str],
    lengths: dict[str, tuple[int, ...]],
) -> list[tuple[int, int, str]]:
    """Greedy longest-first gazetteer matches in ``tokens[start:end]``,
    left to right: one (start, end, tag) per mention."""
    mentions = []
    i = start
    while i < end:
        for w in lengths.get(tokens[i], ()):
            tag = gazetteer.get(tuple(tokens[i : i + w])) if w <= end - i else None
            if tag is not None:
                mentions.append((i, i + w, tag))
                i += w
                break
        else:
            i += 1
    return mentions


def mention_string(surface: str, analyzer: str = "mecab") -> str:
    """The mention string the pipeline will emit for a surface: fused
    post-analyze tokens (width-folded), with sentinel restore
    (data_objects.py:210 semantics)."""
    return (
        "".join(analyze(surface, analyzer))
        .replace("[JASP]", "　")
        .replace("[SEP]", "\n")
    )


# both rules are pure functions of (surfaces, ordinals) and are asked
# for every mention and every ordered mention pair of every chunk, but
# the keys repeat (2,000 benchmark pages ask relation_for 38k times
# over 5.8k keys): memoized, most asks skip the blake2b hashes. Bounded
# at ~16k keys, a few MB per worker
@lru_cache(maxsize=1 << 14)
def modality_for(tag: str, surface: str, ordinal: int) -> str:
    """Deterministic modality per the reference's attribute rules
    (utils.py:769-784): d -> certainty, TIMEX3 -> type, r/m-key ->
    state (sometimes), else '_'."""
    h = stable_hash64("mod", surface, ordinal)
    if tag == "d":
        return CERTAINTY[h % len(CERTAINTY)]
    if tag == "TIMEX3":
        return TIMEX_TYPE[h % len(TIMEX_TYPE)]
    if tag in ("r", "m-key"):
        return STATE[h % len(STATE)] if h % _STATE_MOD == 0 else "_"
    return "_"


@lru_cache(maxsize=1 << 14)
def relation_for(
    subj_surface: str, obj_surface: str, subj_ord: int, obj_ord: int
) -> str | None:
    """Deterministic relation decision for an ordered in-sentence mention
    pair; None = no relation (the 'N' cell)."""
    if subj_ord == obj_ord:
        return None
    h = stable_hash64("rel", subj_surface, obj_surface, subj_ord, obj_ord)
    if h % _REL_MOD != 0:
        return None
    # independent hash for the predicate: h % 3 == 0 correlates with
    # h % 6, which would collapse the vocabulary to two predicates
    hp = stable_hash64("relp", subj_surface, obj_surface, subj_ord, obj_ord)
    return REL_VOCAB[hp % len(REL_VOCAB)]
