"""N-gram language-model perplexity scoring — the CCNet-style quality
signal (Wenzek et al. 2020, "CCNet: Extracting High Quality Monolingual
Datasets from Web Crawl Data"; Brown et al. 2020 §2.2 — public
literature): train a small LM on a trusted corpus, score every candidate
document's perplexity under it, and filter/bucket on the score. The
reference consumes pretrained neural models (SURVEY §2.3 A1) but its
pipeline has no corpus-quality scorer; this is the training-data-
pipeline sibling, kept deliberately classical (add-k-smoothed bigram
LM) so it is bit-deterministic and oracle-checkable.

Physical plan — the honest 100-TB shape:

1. **distributed count pass** (the only corpus-scale work): ONE
   streaming ``map_batches`` over the training docs emits per-block
   ``Counter`` partials for unigrams AND bigrams together —
   ``(order, gram, n)`` rows bounded by block-distinct grams, not token
   occurrences — then one sorted shuffle on ``(order, gram)``
   (``shuffle.sorted_reduce``) with an Arrow ``group_by(order,
   gram).sum`` merge per sorted block, pruned to ``min_freq``
   DISTRIBUTED-side so the driver never sees the unpruned tail;
2. the pruned count table is collected under a loud cap
   (:class:`~jamie_ray.state.collect.EdgeCapExceeded`) into a small
   :class:`NgramLM` — LM vocabulary scales with Heaps' law, not corpus
   size, and CCNet's own LMs are O(100 MB); a corpus whose pruned
   bigram table blows the cap needs a higher ``min_freq``, loudly;
3. **scoring** is the canonical broadcast pattern: ``ray.put`` the LM
   once, one streaming ``map_batches`` pass computes each doc's
   log-probability in its own fixed token order — no shuffle, no
   distributed float sum, so scores are bit-deterministic regardless
   of block layout (pinned by ``test_lm.py``).

Smoothing: add-k (Lidstone). First token is scored by the smoothed
unigram, subsequent tokens by the smoothed bigram conditional
``(C(w1 w2) + k) / (C(w1) + k*V)`` with ``V`` the trained unigram
vocabulary size (+1 for the catch-all unseen type). Tokenization is
the RE2-exact ``\\s+`` split (:func:`ws_tokens`) shared with every
SQL-twinned kernel in this repo.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..shuffle import sorted_reduce
from .text_analysis import ws_tokens

__all__ = ["NgramLM", "ngram_counts", "train_ngram_lm", "score_batch", "score_perplexity"]

_MICRO = 1_000_000


@dataclass(frozen=True)
class NgramLM:
    """Frozen count tables of a trained bigram LM (picklable, shipped
    via ``ray.put`` once). ``v`` counts trained unigram types + 1 so an
    unseen type always has smoothed mass."""

    uni: dict[str, int]
    bi: dict[str, int]
    total: int
    v: int
    k: float = 1.0

    def logprob(self, tokens: list[str]) -> float:
        """Sum of natural-log token probabilities, in token order (one
        doc = one fixed-order float sum = deterministic)."""
        if not tokens:
            return 0.0
        kv = self.k * self.v
        lp = math.log(
            (self.uni.get(tokens[0], 0) + self.k) / (self.total + kv)
        )
        for i in range(1, len(tokens)):
            big = tokens[i - 1] + " " + tokens[i]
            lp += math.log(
                (self.bi.get(big, 0) + self.k)
                / (self.uni.get(tokens[i - 1], 0) + kv)
            )
        return lp


def ngram_counts(
    docs,
    text_col: str = "text",
    *,
    min_freq: int = 1,
):
    """training docs -> Dataset ``(order, gram, n)`` — unigram
    (``order=1``) and bigram (``order=2``) counts in one pass, one
    sorted shuffle of per-block-distinct partials, pruned to
    ``n >= min_freq`` distributed-side. Bigrams never cross document
    boundaries. Each sorted block additionally emits two ``order=0`` summary
    rows (``__total__`` unigram token mass, ``__types__`` distinct
    unigram types) computed BEFORE pruning, so the trainer recovers
    exact smoothing denominators without a second corpus pass."""

    def partial(batch: pa.Table) -> pa.Table:
        c1: Counter = Counter()
        c2: Counter = Counter()
        for t in batch.column(text_col).to_pylist():
            toks = ws_tokens(t)
            c1.update(toks)
            c2.update(
                toks[i] + " " + toks[i + 1] for i in range(len(toks) - 1)
            )
        k1, k2 = sorted(c1), sorted(c2)
        grams = k1 + k2
        orders = [1] * len(k1) + [2] * len(k2)
        ns = [c1[g] for g in k1] + [c2[g] for g in k2]
        return pa.table(
            {
                "order": pa.array(orders, pa.int8()),
                "gram": pa.array(grams, pa.string()),
                "n": pa.array(ns, pa.int64()),
            }
        )

    def merge(block: pa.Table) -> pa.Table:
        gb = block.group_by(["order", "gram"]).aggregate([("n", "sum")])
        # aggregates selected BY NAME (<col>_<agg>), never positionally
        out = pa.table(
            {
                "order": gb.column("order"),
                "gram": gb.column("gram"),
                "n": gb.column("n_sum"),
            }
        )
        # per-block UNPRUNED denominator stats as order=0 summary rows
        # (each gram lives in exactly one sorted block, so driver-summing
        # the per-block summaries is exact): __total__ = token mass,
        # __types__ = distinct unigram types in this block
        is_uni = pc.equal(out.column("order"), 1)
        uni_rows = out.filter(is_uni)
        summary = pa.table(
            {
                "order": pa.array([0, 0], pa.int8()),
                "gram": pa.array(["__total__", "__types__"], pa.string()),
                "n": pa.array(
                    [
                        int(pc.sum(uni_rows.column("n")).as_py() or 0),
                        uni_rows.num_rows,
                    ],
                    pa.int64(),
                ),
            }
        )
        if min_freq > 1:
            out = out.filter(pc.greater_equal(out.column("n"), min_freq))
        return pa.concat_tables([summary, out])

    return sorted_reduce(
        docs.map_batches(partial, batch_format="pyarrow"), ["order", "gram"], merge
    )


def train_ngram_lm(
    docs,
    text_col: str = "text",
    *,
    min_freq: int = 1,
    k: float = 1.0,
    vocab_cap: int | None = None,
) -> NgramLM:
    """Train an add-``k`` bigram LM over ``docs``. The driver-side
    collection of the pruned count table is bounded by ``vocab_cap``
    (default ``state.collect.DEFAULT_EDGE_CAP``) and raises
    ``EdgeCapExceeded`` loudly past it.

    ``total`` (the unigram denominator) and ``v`` are the UNPRUNED
    token mass / type count: pruning drops rare *types* from the tables
    (they fall back to the unseen-mass path) but must not deflate the
    denominators. Both come from the count pass's per-block ``order=0``
    summary rows — exact integers, no extra corpus pass."""
    from ..state.collect import DEFAULT_EDGE_CAP, iter_capped_batches

    cap = vocab_cap or DEFAULT_EDGE_CAP
    counts = ngram_counts(docs, text_col, min_freq=min_freq)
    uni: dict[str, int] = {}
    bi: dict[str, int] = {}
    total = 0
    n_types = 0
    for b in iter_capped_batches(counts, cap=cap, context="ngram LM counts"):
        for o, g, n in zip(
            b.column("order").to_pylist(),
            b.column("gram").to_pylist(),
            b.column("n").to_pylist(),
        ):
            if o == 0:
                if g == "__total__":
                    total += n
                else:
                    n_types += n
            else:
                (uni if o == 1 else bi)[g] = n
    return NgramLM(uni=uni, bi=bi, total=total, v=n_types + 1, k=k)


def score_perplexity(
    docs,
    lm: NgramLM | "ray.ObjectRef",
    *,
    text_col: str = "text",
):
    """Score each doc's perplexity under ``lm`` (an :class:`NgramLM` or
    an ``ObjectRef`` from a prior ``ray.put``, re-used across calls).

    Output: the input's non-text columns + ``n_tokens``,
    ``logprob_micro`` (natural-log probability x 1e6, rounded — the
    integer determinism key: each doc's sum runs in its own fixed token
    order, so the value is bit-stable under any block layout) and
    ``ppl`` (per-token perplexity ``exp(-logprob/n_tokens)``; NaN for
    empty docs). Filtering is the caller's one-liner so the scores stay
    observable. The LM rides the object store once; the plain-task map
    runs :func:`score_batch`."""
    ref = lm if isinstance(lm, ray.ObjectRef) else ray.put(lm)

    def score(b: pa.Table) -> pa.Table:
        return score_batch(b, ref, text_col=text_col)

    return docs.map_batches(score, batch_format="pyarrow")


def score_batch(batch: pa.Table, lm, *, text_col: str = "text") -> pa.Table:
    """One block of :func:`score_perplexity` under ``lm`` (an
    :class:`NgramLM`, or a ``ray.put`` ref each worker fetches once
    through ``state.worker_cache.cached_get``)."""
    from ..state.worker_cache import cached_get

    model: NgramLM = cached_get(lm, "lm_score_perplexity")
    n_tokens, lp_micro, ppl = [], [], []
    for t in batch.column(text_col).to_pylist():
        toks = ws_tokens(t)
        lp = model.logprob(toks)
        n_tokens.append(len(toks))
        lp_micro.append(round(lp * _MICRO))
        ppl.append(math.exp(-lp / len(toks)) if toks else float("nan"))
    out = batch.drop_columns([text_col])
    out = out.append_column("n_tokens", pa.array(n_tokens, pa.int64()))
    out = out.append_column("logprob_micro", pa.array(lp_micro, pa.int64()))
    return out.append_column("ppl", pa.array(ppl, pa.float64()))


def ppl_buckets(
    docs,
    lm: NgramLM | "ray.ObjectRef",
    *,
    qs: tuple[float, ...] = (1.0 / 3.0, 2.0 / 3.0),
    labels: tuple[str, ...] = ("head", "middle", "tail"),
    text_col: str = "text",
    spill_dir: str | None = None,
):
    """CCNet's head/middle/tail corpus split (Wenzek et al. 2020 §4.3):
    score every doc's perplexity under the trusted-corpus LM, then tag
    each with its EXACT corpus-wide perplexity bucket (default:
    terciles — 'head' = lowest perplexity).

    Scored rows spill to parquet ONCE (``spill_dir`` or a fresh
    tempdir): the exact-quantile pass reads the data three times, and
    a derived pipeline would re-score the corpus per pass. Empty docs
    (``ppl`` NaN) are excluded from the thresholds and land in bucket
    ``-1`` with a null label. Returns the scored+tagged Dataset.
    """
    import tempfile

    from .dedup_docs import _spill_input
    from .sketch import quantile_buckets

    spill = spill_dir or tempfile.mkdtemp(prefix="jamie_ppl_")
    # the shared spill helper CLEARS stale *.parquet first — a reused
    # spill_dir (crash rerun, second corpus) must not mix old rows into
    # the thresholds (cols=None keeps the full scored row)
    scored = _spill_input(
        score_perplexity(docs, lm, text_col=text_col), spill, None
    )
    return quantile_buckets(
        scored, "ppl", qs, out_col="ppl_bucket", labels=labels,
        nan_policy="bucket_null",
    )
