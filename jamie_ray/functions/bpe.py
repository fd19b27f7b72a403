"""Distributed BPE vocabulary training (Sennrich et al. 2016, "Neural
Machine Translation of Rare Words with Subword Units" — public
literature; the reference consumes pretrained subword vocabs, SURVEY
§2.2 M5, but never trains one — this is the training-data-pipeline
sibling).

Physical plan — the honest 100-TB shape of BPE training:

1. **distributed word count** (the only corpus-scale work): per-block
   ``Counter`` over the ``\\s+`` tokens — so the one sorted shuffle
   on the word (``shuffle.sorted_reduce``) carries ``(word, n)``
   partials bounded by block-distinct words, not token occurrences —
   then one Arrow ``group_by(word).sum`` merge per sorted block;
2. the merged **vocabulary** (distinct words + frequencies) is
   collected under a loud cap: BPE's merge loop is a function of the
   word-frequency table, which scales with vocabulary (Heaps' law),
   not corpus size — this is how every practical BPE trainer works;
3. the **merge loop** runs driver-side on the frequency table: count
   adjacent symbol pairs weighted by word frequency, take the max
   (ties -> lexicographically smallest pair), fuse, repeat.

Determinism: pure integer counts; the tie rule is total; no RNG.
Words are split to character symbols with NO end-of-word marker (the
simplest public variant; documented contract, mirrored by the
fixture's independent replay in ``fixtures._bpe_expected``).
"""

from __future__ import annotations

from collections import Counter

import pyarrow as pa
import pyarrow.compute as pc

from ..shuffle import sorted_reduce
from .text_analysis import ws_tokens


def word_counts(
    docs,
    text_col: str = "text",
    *,
    min_freq: int = 1,
):
    """documents -> Dataset ``(word, n)``, one row per distinct word.

    ``min_freq > 1`` prunes word types with total count below it
    INSIDE the merge of each sorted block — distributed-side, before
    anything reaches the driver (the ``lm.py`` summary-row trick). The
    pruned mass is not silent: each block that dropped types emits one
    summary row with ``word = null`` and ``n = pruned occurrence
    mass``, so callers can account for exactly how many occurrences
    the threshold removed.
    """

    def partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for t in batch.column(text_col).to_pylist():
            c.update(ws_tokens(t))
        words = sorted(c)
        return pa.table(
            {
                "word": pa.array(words, pa.string()),
                "n": pa.array([c[w] for w in words], pa.int64()),
            }
        )

    def merge(block: pa.Table) -> pa.Table:
        gb = block.group_by(["word"]).aggregate([("n", "sum")])
        # aggregates selected BY NAME (<col>_<agg>), never positionally
        t = pa.table({"word": gb.column("word"), "n": gb.column("n_sum")})
        if min_freq > 1:
            keep = pc.greater_equal(t.column("n"), min_freq)
            pruned_mass = pc.sum(
                t.filter(pc.invert(keep)).column("n")
            ).as_py()
            t = t.filter(keep)
            if pruned_mass:
                t = pa.concat_tables(
                    [
                        t,
                        pa.table(
                            {
                                "word": pa.array([None], pa.string()),
                                "n": pa.array([pruned_mass], pa.int64()),
                            }
                        ),
                    ]
                )
        return t

    return sorted_reduce(docs.map_batches(partial, batch_format="pyarrow"), "word", merge)


def _pair_stats(vocab: dict[tuple[str, ...], int]) -> Counter:
    stats: Counter = Counter()
    for syms, freq in vocab.items():
        for i in range(len(syms) - 1):
            stats[(syms[i], syms[i + 1])] += freq
    return stats


def _merge_vocab(
    vocab: dict[tuple[str, ...], int], pair: tuple[str, str]
) -> dict[tuple[str, ...], int]:
    a, b = pair
    fused = a + b
    out: dict[tuple[str, ...], int] = {}
    for syms, freq in vocab.items():
        merged: list[str] = []
        i = 0
        while i < len(syms):
            if i < len(syms) - 1 and syms[i] == a and syms[i + 1] == b:
                merged.append(fused)
                i += 2
            else:
                merged.append(syms[i])
                i += 1
        key = tuple(merged)
        out[key] = out.get(key, 0) + freq
    return out


def train_bpe(
    docs,
    text_col: str = "text",
    n_merges: int = 40,
    min_freq: int = 2,
    *,
    vocab_cap: int | None = None,
    word_min_freq: int | None = None,
) -> pa.Table:
    """Train ``n_merges`` BPE merges over the corpus; returns an Arrow
    table ``(rank, lhs, rhs, freq)`` — ``rank`` is merge order,
    ``freq`` the weighted pair count at merge time. Stops early when no
    pair reaches ``min_freq`` (fewer rows than ``n_merges``).

    ``vocab_cap`` bounds the driver-side word-frequency collection
    (default ``state.collect.DEFAULT_EDGE_CAP``) — crossing it raises
    ``EdgeCapExceeded`` loudly rather than OOMing the driver.

    ``word_min_freq`` is the 100-TB path: word types with total corpus
    count below it are pruned DISTRIBUTED-side, inside the merge of
    each sorted block, so the driver only ever holds the frequent types
    (Heaps'-law tail stays on the cluster; standard subword-trainer
    vocabulary thresholding, cf. SentencePiece/subword-nmt). Merges
    are then computed over the surviving types only — an approximation
    whose per-pair error is bounded by the pruned occurrence mass,
    which is recorded loudly in the returned table's schema metadata
    (``pruned_word_mass``) instead of being dropped silently.
    """
    from ..state.collect import DEFAULT_EDGE_CAP, iter_capped_batches

    cap = vocab_cap or DEFAULT_EDGE_CAP
    vocab: dict[tuple[str, ...], int] = {}
    pruned_mass = 0
    for b in iter_capped_batches(
        word_counts(docs, text_col, min_freq=word_min_freq or 1),
        cap=cap,
        context="bpe vocabulary",
    ):
        for w, n in zip(b.column("word").to_pylist(), b.column("n").to_pylist()):
            if w is None:  # per-block pruned-mass summary row
                pruned_mass += n
                continue
            vocab[tuple(w)] = vocab.get(tuple(w), 0) + n

    ranks: list[int] = []
    lefts: list[str] = []
    rights: list[str] = []
    freqs: list[int] = []
    for rank in range(n_merges):
        stats = _pair_stats(vocab)
        if not stats:
            break
        # max count, ties -> lexicographically smallest (left, right)
        (a, b), freq = min(stats.items(), key=lambda kv: (-kv[1], kv[0]))
        if freq < min_freq:
            break
        ranks.append(rank)
        lefts.append(a)
        rights.append(b)
        freqs.append(freq)
        vocab = _merge_vocab(vocab, (a, b))
    out = pa.table(
        {
            "rank": pa.array(ranks, pa.int64()),
            "lhs": pa.array(lefts, pa.string()),
            "rhs": pa.array(rights, pa.string()),
            "freq": pa.array(freqs, pa.int64()),
        }
    )
    return out.replace_schema_metadata(
        {
            b"word_min_freq": str(word_min_freq or 1).encode(),
            b"pruned_word_mass": str(pruned_mass).encode(),
        }
    )


def _apply_word(w: str, prio: dict[tuple[str, str], int]) -> list[str]:
    """Greedy best-priority merge application to one word — the ONE
    copy of the fuse loop shared by :func:`apply_bpe` and
    :func:`segment_corpus`."""
    syms = list(w)
    while len(syms) > 1:
        best_i, best_p = -1, None
        for i in range(len(syms) - 1):
            p = prio.get((syms[i], syms[i + 1]))
            if p is not None and (best_p is None or p < best_p):
                best_i, best_p = i, p
        if best_p is None:
            break
        syms[best_i : best_i + 2] = [syms[best_i] + syms[best_i + 1]]
    return syms


def apply_bpe(text: str, merges: list[tuple[str, str]]) -> list[str]:
    """Segment ``text``'s words with a trained merge list (priority =
    list order — the standard greedy application)."""
    prio = {pair: i for i, pair in enumerate(merges)}
    out: list[str] = []
    for w in ws_tokens(text):
        out.extend(_apply_word(w, prio))
    return out


def segment_corpus(docs, merges_table: pa.Table, text_col: str = "text"):
    """documents -> documents + (bpe_tokens, n_bpe_tokens), applying a
    trained merge table — the corpus-scale consumer of
    :func:`train_bpe` (train once on a sample, segment 100 TB with the
    broadcast merge table). The priority dict is built ONCE on the
    driver and rides ``ray.put``; plain-task batches read it through
    ``state.worker_cache.cached_get``, which also holds each worker's
    vocabulary-bounded word -> segmentation memo (reset with the
    table)."""
    import ray as _ray

    from ..state.worker_cache import cached_get

    prio = {
        pair: i
        for i, pair in enumerate(
            zip(
                merges_table.column("lhs").to_pylist(),
                merges_table.column("rhs").to_pylist(),
            )
        )
    }
    ref = _ray.put(prio)

    def segment(batch: pa.Table) -> pa.Table:
        table, memo = cached_get(ref, "bpe_segment", lambda p: (p, {}))
        toks_out: list[list[str]] = []
        for t in batch.column(text_col).to_pylist():
            row: list[str] = []
            for w in ws_tokens(t):
                syms = memo.get(w)
                if syms is None:
                    syms = _apply_word(w, table)
                    if len(memo) < (1 << 20):  # vocabulary-bounded memo
                        memo[w] = syms
                row.extend(syms)
            toks_out.append(row)
        return batch.append_column(
            "bpe_tokens", pa.array(toks_out, pa.list_(pa.string()))
        ).append_column(
            "n_bpe_tokens", pa.array([len(r) for r in toks_out], pa.int64())
        )

    return docs.map_batches(segment, batch_format="pyarrow")
