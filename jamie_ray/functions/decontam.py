"""Benchmark decontamination over a documents table.

Every serious LLM training-data pipeline removes training documents
that overlap an evaluation benchmark (Brown et al. 2020 appendix C;
Chowdhery et al. 2022 §6; Rae et al. 2021 — public literature): a
training doc sharing word n-grams with a held-out benchmark leaks the
eval set into training and must be flagged or dropped.

Scale shape — the benchmark is SMALL by definition (eval sets are
megabytes) while the corpus is the 100-TB side, so this is the
canonical broadcast pattern, never a shuffle join:

1. one streaming pass over the *benchmark* docs: per-block DISTINCT
   n-grams (set union inside ``map_batches``), streamed to the driver
   under a hard cap (:class:`~jamie_ray.state.collect.EdgeCapExceeded`
   like every driver-side collection in this repo — a "benchmark" big
   enough to blow the cap is a misconfigured input, fail loudly);
2. ``ray.put`` the frozen gram set ONCE;
3. one streaming ``map_batches`` pass over the corpus counts each
   doc's distinct grams and how many fall in the benchmark set —
   no shuffle, no join, corpus never leaves its blocks.

Exactness: grams are compared as strings built from the RE2-exact
``\\s+`` tokenization (:func:`~jamie_ray.functions.text_analysis.ws_tokens`),
bit-exact with the DuckDB ``string_split_regex(text, '\\s+')`` twin in
``__ray_entry__.oracle_sql``. ``hashed=True`` hashes the benchmark
ONCE on the driver and broadcasts a sorted ``uint64`` array (8 B/gram
— the shape for a very large benchmark) at a documented
~|bench|·|doc grams|/2^64 false-positive collision risk; the default
stays exact. Corpus-side gram hashing goes through a per-worker
vocabulary cache (the ``dedup_docs._SHINGLE_HASH_CACHE`` argument
applies verbatim: real text repeats grams heavily, so the blake2b
cost is vocabulary-sized, not occurrence-sized).

n-gram convention matches ``doc_ngram_jaccard`` (and its SQL twin):
empty text -> no grams; <= n tokens -> the whole doc as one gram;
else all contiguous n-grams joined with a single space.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
import pyarrow as pa
import ray

from ..hashing import stable_hash64
from ..state.collect import DEFAULT_EDGE_CAP, iter_capped_batches
from .text_analysis import ws_tokens

__all__ = ["doc_grams", "benchmark_ngram_set", "flag_batch", "decontaminate", "gram_hash"]

# per-worker gram-hash cache (vocabulary-sized, capped)
_GRAM_HASH_CACHE: dict[str, int] = {}
_GRAM_CACHE_CAP = 1 << 20


def gram_hash(g: str) -> int:
    """``stable_hash64`` of a gram string through the per-worker cache
    — the SAME function on the benchmark and corpus sides, so hashed
    membership is exactly string membership minus 2^-64 collisions."""
    h = _GRAM_HASH_CACHE.get(g)
    if h is None:
        h = stable_hash64(g)
        if len(_GRAM_HASH_CACHE) < _GRAM_CACHE_CAP:
            _GRAM_HASH_CACHE[g] = h
    return h


def _to_hash_array(grams) -> np.ndarray:
    """Sorted uint64 hash array from gram strings or precomputed 64-bit
    ints (``int`` or ``np.integer`` — e.g. ``hash_str_array`` output).

    Accepts any iterable, including len-less generators (materialized
    once so ``np.fromiter`` can be given an exact count)."""
    grams = grams if hasattr(grams, "__len__") else list(grams)
    arr = np.fromiter(
        (g if isinstance(g, (int, np.integer)) else gram_hash(g) for g in grams),
        dtype=np.uint64,
        count=len(grams),
    )
    arr.sort()
    return arr


def doc_grams(text: str | None, n: int = 3) -> set[str]:
    """Distinct word ``n``-grams of ``text`` (see module docstring for
    the short-doc convention shared with the SQL oracle)."""
    toks = ws_tokens(text)
    if not toks:
        return set()
    if len(toks) <= n:
        return {" ".join(toks)}
    return {" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)}


def benchmark_ngram_set(
    bench_ds: ray.data.Dataset,
    *,
    n: int = 3,
    text_col: str = "text",
    cap: int = DEFAULT_EDGE_CAP,
) -> frozenset[str]:
    """One pass over the (small) benchmark: per-block distinct grams,
    capped driver union. Raises ``EdgeCapExceeded`` past ``cap``."""

    def block_grams(batch: pa.Table) -> pa.Table:
        grams: set[str] = set()
        for t in batch.column(text_col).to_pylist():
            grams |= doc_grams(t, n)
        # sorted for deterministic block output (helps caching/tests)
        return pa.table({"g": pa.array(sorted(grams), pa.string())})

    per_block = bench_ds.map_batches(block_grams, batch_format="pyarrow")
    out: set[str] = set()
    # iter_capped_batches bounds streamed (pre-union) rows, and the
    # union is never larger, so no separate post-union check is needed
    for batch in iter_capped_batches(per_block, cap, context="benchmark n-gram set"):
        out.update(batch.column("g").to_pylist())
    return frozenset(out)


def _grams_lookup(grams):
    # a caller's pre-put ref may hold any iterable of gram strings
    return grams if isinstance(grams, frozenset) else frozenset(grams)


def _hashes_lookup(grams) -> np.ndarray:
    # decontaminate() already ships a sorted uint64 array; a caller's
    # pre-put ref of raw grams is hashed here, once per worker. Sorted
    # for O(log n) searchsorted membership.
    return np.sort(grams) if isinstance(grams, np.ndarray) else _to_hash_array(grams)


def _hits(grams: set[str], bench: frozenset[str] | np.ndarray) -> int:
    """Distinct ``grams`` found in the benchmark lookup (a gram set, or
    the sorted uint64 hash array of the ``hashed`` path)."""
    if not isinstance(bench, np.ndarray):
        return len(grams & bench)
    if not grams:
        return 0
    h = np.fromiter((gram_hash(g) for g in grams), dtype=np.uint64, count=len(grams))
    idx = np.searchsorted(bench, h)
    in_range = idx < len(bench)
    hits = np.zeros(len(h), dtype=bool)
    hits[in_range] = bench[idx[in_range]] == h[in_range]
    return int(hits.sum())


def decontaminate(
    docs_ds: ray.data.Dataset,
    benchmark: frozenset[str] | Iterable[str] | "ray.ObjectRef",
    *,
    n: int = 3,
    text_col: str = "text",
    hashed: bool = False,
) -> ray.data.Dataset:
    """Flag corpus docs sharing any word ``n``-gram with ``benchmark``.

    Output: the input's non-text columns + ``n_grams`` (distinct grams
    in the doc), ``n_hits`` (distinct grams also in the benchmark) and
    ``contaminated`` (0/1 int). Filtering/dropping is the caller's
    one-liner (``pc.equal(contaminated, 0)``) so the counts stay
    observable.

    ``benchmark`` may be a plain set/iterable of gram strings, an
    ``ObjectRef`` from a prior ``ray.put`` (shipped verbatim, re-used
    across calls), or — with ``hashed=True`` — gram strings OR 64-bit
    ``stable_hash64`` ints (``int``/``np.integer``); either way the
    hashed path broadcasts ONE sorted uint64 array, hashed on the
    driver, so the 8 B/gram object-store footprint is realized and
    workers never re-hash the benchmark. The flag pass is a plain-task
    map of :func:`flag_batch`.
    """
    if isinstance(benchmark, ray.ObjectRef):
        ref = benchmark
    elif hashed:
        ref = ray.put(_to_hash_array(benchmark))
    else:
        ref = ray.put(
            benchmark if isinstance(benchmark, frozenset) else frozenset(benchmark)
        )

    def flag(b: pa.Table) -> pa.Table:
        return flag_batch(b, ref, n=n, text_col=text_col, hashed=hashed)

    return docs_ds.map_batches(flag, batch_format="pyarrow")


def flag_batch(
    batch: pa.Table, ref, *, n: int = 3, text_col: str = "text", hashed: bool = False
) -> pa.Table:
    """One block of :func:`decontaminate`, against the benchmark
    ``ref`` (a ``ray.put`` gram set, or the sorted hash array when
    ``hashed``), which each worker fetches once through
    ``state.worker_cache.cached_get``."""
    from ..state.worker_cache import cached_get

    bench = (
        cached_get(ref, "decontam_hashes", _hashes_lookup)
        if hashed
        else cached_get(ref, "decontam_grams", _grams_lookup)
    )
    n_grams, n_hits = [], []
    for t in batch.column(text_col).to_pylist():
        grams = doc_grams(t, n)
        n_grams.append(len(grams))
        n_hits.append(_hits(grams, bench))
    out = batch.drop_columns([text_col])
    out = out.append_column("n_grams", pa.array(n_grams, pa.int64()))
    out = out.append_column("n_hits", pa.array(n_hits, pa.int64()))
    return out.append_column(
        "contaminated",
        pa.array([1 if h > 0 else 0 for h in n_hits], pa.int64()),
    )
