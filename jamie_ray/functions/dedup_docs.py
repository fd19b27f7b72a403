"""Document deduplication family (first-class components per the brief):

- **exact**: md5 key -> block-local combine -> sorted reduce on
  ``text_hash`` keeping min doc_id + duplicate count;
- **minhash-LSH near-dup**: word-shingle minhash -> banded blocking ->
  verified Jaccard pairs -> union-find clusters (same machinery as the
  entity linker, over documents);
- **simhash**: 64-bit simhash per doc + hamming-banded candidate pairs;
- **n-gram Jaccard**: the exact verifier used inside the LSH path,
  exposed standalone for pair scoring.

Scale notes: every op pre-reduces inside ``map_batches`` before its one
sorted shuffle (``shuffle.sorted_reduce``: sort on the real key, one
reducer call per sorted block — never a per-group dispatch); cluster
merging collects only *edges* to the driver (pairs that survived
verification), never the corpus.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from ..hashing import mix64_multi, stable_hash64
from ..shuffle import run_bounds, sorted_reduce
from ..state.union_find import UnionFind

N_HASHES = 32
N_BANDS = 8
ROWS_PER_BAND = N_HASHES // N_BANDS
SHINGLE_W = 3  # word shingles


# per-worker hash caches: real text repeats tokens/shingles heavily, so
# caching turns the per-doc blake2b cost into a vocabulary-sized one
_TOKEN_HASH_CACHE: dict[str, int] = {}
_SHINGLE_HASH_CACHE: dict[str, int] = {}
_CACHE_CAP = 1 << 20


def _cached_hash(value: str, cache: dict[str, int], salt: str) -> int:
    h = cache.get(value)
    if h is None:
        h = stable_hash64(salt, value)
        if len(cache) < _CACHE_CAP:
            cache[value] = h
    return h


def word_shingles(text: str, w: int = SHINGLE_W) -> set[str]:
    toks = text.split()
    if len(toks) <= w:
        return {" ".join(toks)} if toks else set()
    return {" ".join(toks[i : i + w]) for i in range(len(toks) - w + 1)}


def ngram_jaccard(a: str, b: str, w: int = SHINGLE_W) -> float:
    sa, sb = word_shingles(a, w), word_shingles(b, w)
    inter = len(sa & sb)
    return inter / (len(sa) + len(sb) - inter) if inter else 0.0


# -- exact dedup ------------------------------------------------------------

def exact_dedup(docs, text_col: str = "text", id_col: str = "doc_id"):
    """documents -> (text_hash, doc_id=min, n_dups) one row per distinct text.

    Pure-Arrow combiner: each block pre-reduces with ``group_by`` (min
    id + count per hash) so the one shuffle carries (block × distinct)
    rows. The shuffle sorts on ``text_hash`` and re-runs the same
    ``group_by`` once per sorted block (``shuffle.sorted_reduce``), over
    every hash the block holds.
    """
    from .text_analysis import fingerprint_batch

    def reduce_partials(batch: pa.Table) -> pa.Table:
        gb = batch.group_by(["text_hash"]).aggregate(
            [(id_col, "min"), ("n_dups", "sum")]
        )
        # select aggregates BY NAME (<col>_<agg>) — both are int64, so a
        # positional rename would silently swap them if pyarrow ever
        # reorders its group_by output (CLAUDE.md rule)
        return pa.table(
            {
                "text_hash": gb.column("text_hash"),
                id_col: gb.column(f"{id_col}_min"),
                "n_dups": gb.column("n_dups_sum"),
            }
        )

    def local(batch: pa.Table) -> pa.Table:
        batch = fingerprint_batch(batch, text_col)
        ones = pa.table(
            {
                "text_hash": batch.column("text_hash"),
                id_col: batch.column(id_col),
                "n_dups": pa.array([1] * batch.num_rows, pa.int64()),
            }
        )
        return reduce_partials(ones)

    combined = docs.map_batches(local, batch_format="pyarrow")
    return sorted_reduce(combined, "text_hash", reduce_partials)


def incremental_dedup(
    new_docs,
    old_docs,
    text_col: str = "text",
    id_col: str = "doc_id",
    *,
    edge_cap: int | None = None,
    flag_path: str = "broadcast",
    bloom_bits: int = 1 << 27,
    bloom_hashes: int = 7,
):
    """Cross-snapshot exact dedup — the incremental-crawl workflow
    (monthly Common-Crawl-style snapshots: drop new documents whose
    text already exists in the PREVIOUS corpus; cf. the CC-index dedup
    step in public pipeline writeups, e.g. CCNet §3).

    NULL text never matches (SQL ``NULL != NULL`` semantics): null-text
    rows are always ``in_previous = 0``. Intra-new duplicates are NOT
    collapsed here — compose with :func:`exact_dedup`; the two concerns
    stay orthogonal.

    Two flag paths (the minhash ``candidate_path`` convention):

    - ``flag_path="broadcast"`` (default): both corpora reduce to
      per-block DISTINCT ``(text_hash, side)`` rows (~25 B per
      block-distinct text), ONE sorted shuffle on ``text_hash`` (one
      reducer call per sorted block) emits only hashes present on
      BOTH sides, the overlap set is
      collected under ``edge_cap`` and broadcast, and a streaming pass
      returns the NEW docs' non-text columns + ``in_previous`` (0/1
      int64). Right when overlap is small (a genuinely-fresh crawl);
      for monthly snapshots where MOST text persists, the overlap is
      corpus-scale and this path fails loudly on the cap — use:
    - ``flag_path="shuffle"``: the new side ships one ``(text_hash,
      id)`` row per document (old side stays per-block distinct with
      a typed null id), and the SAME sorted shuffle emits ``(id_col,
      in_previous)`` directly — ZERO driver-side collections at any
      overlap mass. Output schema is narrower
      (id + flag only); join back on ``id_col`` if other columns are
      needed.
    - ``flag_path="bloom"``: APPROXIMATE — a Bloom filter over the
      OLD corpus's text hashes replaces both the overlap set and the
      corpus-scale shuffle of new-side rows. Per-block distinct old
      hashes emit ``(slice, bit_position)`` 16-byte rows (k positions
      per hash via Kirsch-Mitzenmacher double hashing), ONE sorted
      shuffle on the slice range-partitions the bit space, each slice
      builds its bitmap shard, and the driver assembles ``bloom_bits/8`` bytes
      rounded up to whole slices (under one extra slice, ~1/256 of the
      filter) — bounded by the CALLER-CHOSEN filter size, never by
      corpus size (16 MiB for the default ``bloom_bits=2**27``). The
      flag pass is then streaming over the new corpus (same full
      output schema as ``"broadcast"``). One-sided error: a genuinely
      new doc may flag ``in_previous=1`` with probability ~
      ``(1 - exp(-k*n_old/m))**k`` (conservative over-drop — the
      standard dedup trade); a persisted doc is NEVER missed. Size
      ``bloom_bits ~ 10-15 bits per distinct old doc`` for ~1% FP.

    Both inputs are consumed once (broadcast additionally re-reads the
    new corpus for the flag pass) — pass source-backed Datasets.
    """
    import pyarrow.compute as pc

    from ..hashing import hash_str_array
    from ..state.collect import DEFAULT_EDGE_CAP, iter_capped_batches
    from ..state.worker_cache import cached_get
    from .text_analysis import fingerprint_batch

    if flag_path not in ("broadcast", "shuffle", "bloom"):
        raise ValueError(f"incremental_dedup: unknown flag_path {flag_path!r}")
    cap = edge_cap or DEFAULT_EDGE_CAP

    if flag_path == "bloom":
        N_SLICES = 256
        m = int(bloom_bits)
        k = int(bloom_hashes)
        if m < 64 or k < 1:
            raise ValueError(
                f"incremental_dedup: need bloom_bits >= 64 and "
                f"bloom_hashes >= 1, got {bloom_bits}/{bloom_hashes}"
            )
        # byte-aligned contiguous bit-space slices: the shuffle key is
        # the slice, so each slice builds an independent bitmap shard
        # and the driver reassembles m/8 bytes (rounded up to whole
        # slices; the bits past m stay 0) in slice order
        slice_bits = (-(-m // N_SLICES) + 7) // 8 * 8
        slice_bytes = slice_bits // 8
        n_slices = -(-m // slice_bits)

        def _positions(hs: list[str]) -> np.ndarray:
            # Kirsch-Mitzenmacher double hashing: k positions from two
            # base hashes, pos_i = (h1 + i*h2) mod m (h2 forced odd);
            # uint64 wraparound is deliberate
            h1 = hash_str_array(hs, seed=101)
            h2 = hash_str_array(hs, seed=202) | np.uint64(1)
            ks = np.arange(k, dtype=np.uint64)
            return (h1[:, None] + ks[None, :] * h2[:, None]) % np.uint64(m)

        def old_positions(batch: pa.Table) -> pa.Table:
            batch = fingerprint_batch(batch, text_col)
            batch = batch.filter(pc.is_valid(batch.column("text_hash")))
            gb = batch.group_by(["text_hash"]).aggregate([])
            hs = gb.column("text_hash").to_pylist()
            if not hs:
                return pa.table(
                    {
                        "slice": pa.array([], pa.int64()),
                        "pos": pa.array([], pa.int64()),
                    }
                )
            pos = np.unique(_positions(hs).ravel()).astype(np.int64)
            return pa.table(
                {
                    "slice": pa.array(pos // slice_bits, pa.int64()),
                    "pos": pa.array(pos, pa.int64()),
                }
            )

        def build_slices(block: pa.Table) -> pa.Table:
            block = block.sort_by("slice")
            sl = block.column("slice").to_numpy()
            pos = block.column("pos").to_numpy()
            out_s, out_bits = [], []
            for a, e in zip(*run_bounds(block, "slice")):
                s = int(sl[a])
                bits = np.zeros(slice_bytes, dtype=np.uint8)
                p = pos[a:e] - s * slice_bits
                np.bitwise_or.at(bits, p >> 3, (1 << (p & 7)).astype(np.uint8))
                out_s.append(s)
                out_bits.append(bits.tobytes())
            return pa.table(
                {
                    "slice": pa.array(out_s, pa.int64()),
                    "bits": pa.array(out_bits, pa.binary()),
                }
            )

        slices = sorted_reduce(
            old_docs.map_batches(old_positions, batch_format="pyarrow"),
            "slice",
            build_slices,
        )
        bitmap = np.zeros(n_slices * slice_bytes, dtype=np.uint8)
        # structurally bounded collection: <= n_slices rows totalling
        # m/8 bytes rounded up to whole slices, independent of corpus
        # size — so a small caller edge_cap (sized for overlap sets)
        # must not trip here
        for b in iter_capped_batches(
            slices,
            cap=max(cap, n_slices + 1),
            context="incremental dedup bloom slices",
        ):
            for s, raw in zip(
                b.column("slice").to_pylist(), b.column("bits").to_pylist()
            ):
                bitmap[s * slice_bytes : (s + 1) * slice_bytes] = (
                    np.frombuffer(raw, np.uint8)
                )
        bits_ref = ray.put(bitmap)

        def flag_bloom(batch: pa.Table) -> pa.Table:
            bm = cached_get(bits_ref, "incremental_dedup_bloom")
            b2 = fingerprint_batch(batch, text_col)
            hs = b2.column("text_hash").to_pylist()
            flags = np.zeros(len(hs), dtype=np.int64)
            valid = [i for i, h in enumerate(hs) if h is not None]
            if valid:
                pos = _positions([hs[i] for i in valid])
                hit = (
                    (bm[pos >> np.uint64(3)] >> (pos & np.uint64(7)).astype(np.uint8))
                    & np.uint8(1)
                ).all(axis=1)
                flags[valid] = hit.astype(np.int64)
            out = batch.drop_columns([text_col])
            return out.append_column(
                "in_previous", pa.array(flags, pa.int64())
            )

        return new_docs.map_batches(flag_bloom, batch_format="pyarrow")

    ship_ids = flag_path == "shuffle"
    id_type = (
        new_docs.schema().base_schema.field(id_col).type
        if ship_ids
        else pa.int64()
    )

    def hashes(side: int):
        def f(batch: pa.Table) -> pa.Table:
            batch = fingerprint_batch(batch, text_col)
            if side == 1 and ship_ids:
                # null text never matches, but its id must still be
                # flagged (in_previous = 0): keep the row with its null
                # hash — flag_block emits 0 for it
                return pa.table(
                    {
                        "text_hash": batch.column("text_hash"),
                        "side": pa.array(np.ones(batch.num_rows, np.int8)),
                        "id": batch.column(id_col),
                    }
                )
            # null text never matches: drop it from the shuffle
            batch = batch.filter(pc.is_valid(batch.column("text_hash")))
            gb = batch.group_by(["text_hash"]).aggregate([])
            out = {
                "text_hash": gb.column("text_hash"),
                "side": pa.array(np.full(gb.num_rows, side, np.int8)),
            }
            if ship_ids:
                out["id"] = pa.nulls(gb.num_rows, id_type)
            return pa.table(out)

        return f

    both = new_docs.map_batches(hashes(1), batch_format="pyarrow").union(
        old_docs.map_batches(hashes(0), batch_format="pyarrow")
    )

    def overlap(block: pa.Table) -> pa.Table:
        gb = block.group_by(["text_hash"]).aggregate(
            [("side", "min"), ("side", "max")]
        )
        hit = pc.and_(
            pc.equal(gb.column("side_min"), 0), pc.equal(gb.column("side_max"), 1)
        )
        return pa.table({"text_hash": gb.filter(hit).column("text_hash")})

    if ship_ids:

        def flag_block(block: pa.Table) -> pa.Table:
            prev = overlap(block).column("text_hash").combine_chunks()
            new_rows = block.filter(pc.equal(block.column("side"), 1))
            flags = pc.is_in(new_rows.column("text_hash"), value_set=prev)
            return pa.table(
                {
                    id_col: new_rows.column("id"),
                    "in_previous": pc.cast(flags, pa.int64()),
                }
            )

        return sorted_reduce(both, "text_hash", flag_block)

    seen: set[str] = set()
    for b in iter_capped_batches(
        sorted_reduce(both, "text_hash", overlap),
        cap=cap,
        context="incremental dedup overlap",
    ):
        seen.update(b.column("text_hash").to_pylist())
    seen_ref = ray.put(frozenset(seen))

    def flag(batch: pa.Table) -> pa.Table:
        prev = cached_get(seen_ref, "incremental_dedup_overlap")
        b2 = fingerprint_batch(batch, text_col)
        flags = [
            1 if (h is not None and h in prev) else 0
            for h in b2.column("text_hash").to_pylist()
        ]
        out = batch.drop_columns([text_col])
        return out.append_column("in_previous", pa.array(flags, pa.int64()))

    return new_docs.map_batches(flag, batch_format="pyarrow")


def _spill_input(docs, spill_dir: str, cols: list[str] | None):
    """Write a DERIVED input's needed columns (all columns when
    ``cols`` is None) to parquet ONCE and return a source-backed
    Dataset over them — so a multi-pass operator re-reads from disk
    instead of re-executing upstream compute per pass (the shape
    ``materialize_graph`` finalize gives ``link_triples(cache_input=False)``)."""
    import os

    import ray.data as _rd

    os.makedirs(spill_dir, exist_ok=True)
    for stale in os.listdir(spill_dir):
        if stale.endswith(".parquet"):
            os.unlink(os.path.join(spill_dir, stale))
    if cols is not None:
        docs = docs.map_batches(
            lambda b: b.select(cols), batch_format="pyarrow"
        )
    docs.write_parquet(spill_dir)
    return _rd.read_parquet(spill_dir)


# -- minhash-LSH near-dup ---------------------------------------------------

def _doc_shingle_hashes(text: str) -> np.ndarray:
    """Sorted distinct 64-bit shingle hashes of ``text`` (uint64).

    Hash-set Jaccard over these equals string-shingle Jaccard barring a
    64-bit collision inside one pair's union — negligible, and
    deterministic either way (same hashes every run)."""
    sh = sorted(word_shingles(text))
    if not sh:
        return np.empty(0, dtype=np.uint64)
    return np.array(
        [_cached_hash(s, _SHINGLE_HASH_CACHE, "dsh") for s in sh], dtype=np.uint64
    )


def _bands_from_hashes(hashes: np.ndarray) -> list[int]:
    if hashes.size == 0:
        return []
    sig = mix64_multi(hashes, np.arange(101, 101 + N_HASHES, dtype=np.uint64)).min(axis=1)
    out = []
    for b in range(N_BANDS):
        rows = sig[b * ROWS_PER_BAND : (b + 1) * ROWS_PER_BAND]
        v = stable_hash64("dband", b, *rows.tolist())
        out.append(v - (1 << 64) if v >= (1 << 63) else v)
    return out


def _doc_bands(text: str) -> list[int]:
    return _bands_from_hashes(_doc_shingle_hashes(text))


# below this many candidate pairs, pair verification happens on the
# driver over the collected candidate hash sets — one less all-to-all
# stage. The collection is guarded twice: the row cap (EdgeCap) and a
# HASH budget (signature rows carry whole shingle-hash sets, so bytes,
# not rows, are the real bound); crossing either falls back to the
# sorted verify shuffle (the 100-TB path).
DRIVER_VERIFY_PAIRS = 100_000
DRIVER_VERIFY_HASH_BUDGET = 20_000_000  # ~160 MB of raw hash payload


def _verify_shuffle_join(docs, cand_ds, text_col: str, id_col: str, threshold: float):
    """Fully-distributed exact-Jaccard verification: candidate
    membership rows shuffle-join the corpus's shingle-hash sets on the
    doc id, then pairs verify inside one sorted shuffle on ``(lo, hi)``
    — no driver collection, no broadcast. Returns the verified edge
    Dataset ``(id_a, id_b)``.

    Cost model (why this is the opt-in path): EVERY doc's hash set
    enters the first shuffle (a corpus-scale exchange, ~the distinct
    shingle mass), vs the default broadcast filter that ships hashes
    for candidate docs only. Per-reducer memory is one sorted block's
    share of doc hash sets."""

    def member(batch: pa.Table) -> pa.Table:
        a = batch.column("id_a").to_numpy(zero_copy_only=False)
        b = batch.column("id_b").to_numpy(zero_copy_only=False)
        key = np.concatenate([a, b])
        lo = np.concatenate([np.minimum(a, b)] * 2)
        hi = np.concatenate([np.maximum(a, b)] * 2)
        n = len(key)
        return pa.table(
            {
                "key_doc": pa.array(key, pa.int64()),
                "lo": pa.array(lo, pa.int64()),
                "hi": pa.array(hi, pa.int64()),
                "hashes": pa.array([[]] * n, pa.list_(pa.int64())),
                "is_doc": pa.array(np.zeros(n, np.int8), pa.int8()),
            }
        )

    def doc_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        hashes = [
            _doc_shingle_hashes(t or "").astype(np.int64).tolist()
            for t in batch.column(text_col).to_pylist()
        ]
        n = len(ids)
        return pa.table(
            {
                "key_doc": pa.array(np.asarray(ids, dtype=np.int64), pa.int64()),
                "lo": pa.array(np.zeros(n, np.int64), pa.int64()),
                "hi": pa.array(np.zeros(n, np.int64), pa.int64()),
                "hashes": pa.array(hashes, pa.list_(pa.int64())),
                "is_doc": pa.array(np.ones(n, np.int8), pa.int8()),
            }
        )

    def join_hashes(block: pa.Table) -> pa.Table:
        block = block.sort_by(
            [("key_doc", "ascending"), ("is_doc", "descending")]
        )
        is_doc = block.column("is_doc").to_numpy()
        docs_ = block.column("key_doc").to_numpy()
        los = block.column("lo").to_numpy()
        his = block.column("hi").to_numpy()
        hash_col = block.column("hashes")
        out = {"lo": [], "hi": [], "doc": [], "hashes": []}
        for s, e in zip(*run_bounds(block, "key_doc")):
            if is_doc[s] != 1:
                continue  # candidate references a doc absent from the corpus
            hashes = hash_col[int(s)].as_py()
            # a pair found by several LSH bands reaches here once PER
            # band — emit the doc's hash set once per distinct pair, not
            # per emission, or the pair shuffle (this path's dominant
            # cost) multiplies by the band-collision factor
            seen: set[tuple[int, int]] = set()
            for i in range(s, e):
                if is_doc[i] == 1:
                    continue
                lo, hi = int(los[i]), int(his[i])
                if (lo, hi) in seen:
                    continue
                seen.add((lo, hi))
                out["lo"].append(lo)
                out["hi"].append(hi)
                out["doc"].append(int(docs_[s]))
                out["hashes"].append(hashes)
        return pa.table(
            {
                "lo": pa.array(out["lo"], pa.int64()),
                "hi": pa.array(out["hi"], pa.int64()),
                "doc": pa.array(out["doc"], pa.int64()),
                "hashes": pa.array(out["hashes"], pa.list_(pa.int64())),
            }
        )

    def verify_pairs(block: pa.Table) -> pa.Table:
        block = block.sort_by(
            [("lo", "ascending"), ("hi", "ascending"), ("doc", "ascending")]
        )
        los = block.column("lo").to_numpy()
        his = block.column("hi").to_numpy()
        docs_ = block.column("doc").to_pylist()
        hashes = block.column("hashes").to_pylist()
        a_out: list[int] = []
        b_out: list[int] = []
        for s, e in zip(*run_bounds(block, ["lo", "hi"])):
            sides: dict[int, set[int]] = {}
            for i in range(s, e):
                sides.setdefault(docs_[i], set(hashes[i]))
            if len(sides) != 2:
                continue  # a side was absent -> unverifiable
            ha, hb = sides.values()
            inter = len(ha & hb)
            j = inter / (len(ha) + len(hb) - inter) if inter else 0.0
            if j >= threshold:
                a_out.append(int(los[s]))
                b_out.append(int(his[s]))
        return pa.table(
            {
                "id_a": pa.array(a_out, pa.int64()),
                "id_b": pa.array(b_out, pa.int64()),
            }
        )

    joined = sorted_reduce(
        cand_ds.map_batches(member, batch_format="pyarrow").union(
            docs.map_batches(doc_rows, batch_format="pyarrow")
        ),
        "key_doc",
        join_hashes,
    )
    return sorted_reduce(joined, ["lo", "hi"], verify_pairs)


def minhash_clusters(
    docs,
    text_col: str = "text",
    id_col: str = "doc_id",
    threshold: float = 0.8,
    max_group: int = 128,
    edge_cap: int | None = None,
    cap_counters=None,
    driver_verify_pairs: int = DRIVER_VERIFY_PAIRS,
    spill_dir: str | None = None,
    cc: str = "driver",
    candidate_path: str = "broadcast",
):
    """documents -> (doc_id, cluster_id) for every doc; cluster_id = min
    doc_id of its near-duplicate cluster (singletons map to themselves).

    Physical plan (the 100-TB shape — the band shuffle carries IDS, not
    document payloads):

    1. band expansion ships only ``(band_key, doc_id)`` — 16
       bytes/row × 8 bands, independent of document size;
    2. a sorted shuffle on ``band_key`` (one reducer call per sorted
       block, walking its band runs) emits *candidate pairs* (ids only;
       each truncated band is reported to ``cap_counters`` under its
       own ``band_key``);
    3. candidate pairs are collected (capped — tiny: bounded by true
       duplicate mass + LSH false-positive mass) and broadcast;
    4. a second pass over the input computes shingle-hash sets ONLY for
       candidate docs and verifies exact Jaccard from the hash sets —
       at the driver when the pair set is small
       (``driver_verify_pairs``: driver bytes stay bounded by the
       capped collection, and one all-to-all stage disappears), else
       inside one sorted shuffle on the pair index over candidate rows;
    5. verified edges -> driver union-find -> broadcast assign (as
       before).

    ``edge_cap`` bounds every driver-side collection (candidate pairs,
    candidate signatures, verified edges); ``cap_counters`` (see
    ``state/caps.py``) makes per-band truncation observable.

    ``cc`` selects the cluster merger: ``"driver"`` (default) is the
    capped driver-side union-find; ``"distributed"`` runs the verify
    as the sorted shuffle and merges with the alternating-star
    connected-components operator (``functions/graph.py``), removing
    the union-find AND (via the ``graph.assign_components`` shuffle
    join when the broadcast map crosses ``edge_cap``) the
    component-map state from the driver. Precisely what remains
    driver-side in distributed mode: the CANDIDATE-PAIR collection of
    step 3 (and the pair-map broadcast that locates candidate docs) —
    bounded by duplicate+LSH-false-positive mass and failing loudly at
    ``edge_cap``.

    ``candidate_path="shuffle"`` (requires ``cc="distributed"``)
    removes THAT too: candidates stay a Dataset, every doc's
    shingle-hash set ships through a sorted shuffle join against the
    candidate membership rows, and verification runs per pair group —
    ZERO driver-side collections end-to-end (candidates -> verify ->
    connected components -> shuffle assign). The cost is a
    corpus-scale shuffle of hash sets (vs the broadcast membership
    filter that touches only candidate docs), which is why it is not
    the default: pick it when duplicate mass itself is too big for any
    single machine. Output is bit-identical across all modes (roots
    are component-minimum ids; ``tests/test_functions.py`` asserts
    equality on the planted corpus).

    The input Dataset is consumed three times (bands, candidate-doc
    signatures, cluster assign); each pass streams from the source —
    nothing materializes the corpus. Pass a source-backed Dataset
    (``read_parquet``) — or, for a DERIVED pipeline whose upstream
    compute is expensive, pass ``spill_dir``: the (id, text) columns
    are written there as partitioned Parquet ONCE and all three passes
    re-read from disk, so upstream executes exactly once and memory
    stays bounded at any scale (a source-backed input, made for you).
    """
    if spill_dir is not None:
        docs = _spill_input(docs, spill_dir, [id_col, text_col])

    def expand(batch: pa.Table) -> pa.Table:
        out_band: list[int] = []
        out_id: list[int] = []
        for i, t in zip(
            batch.column(id_col).to_pylist(), batch.column(text_col).to_pylist()
        ):
            for bd in _doc_bands(t or ""):
                out_band.append(bd)
                out_id.append(i)
        return pa.table(
            {
                "band_key": pa.array(out_band, pa.int64()),
                id_col: pa.array(out_id, pa.int64()),
            }
        )

    def candidates(block: pa.Table) -> pa.Table:
        # one block = many whole bands: sort by (band_key, id), walk runs
        block = block.sort_by([("band_key", "ascending"), (id_col, "ascending")])
        bands = block.column("band_key").to_numpy()
        all_ids = block.column(id_col).to_pylist()
        pair_set: set[tuple[int, int]] = set()
        for s, e in zip(*run_bounds(block, "band_key")):
            ids = all_ids[s:e]
            if len(ids) > max_group:
                if cap_counters is not None:
                    cap_counters.record(
                        "minhash_truncated_candidates",
                        int(bands[s]),
                        len(ids) - max_group,
                    )
                ids = ids[:max_group]
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    if ids[i] != ids[j]:
                        pair_set.add((ids[i], ids[j]))
        ordered = sorted(pair_set)
        return pa.table(
            {
                "id_a": pa.array([p[0] for p in ordered], pa.int64()),
                "id_b": pa.array([p[1] for p in ordered], pa.int64()),
            }
        )

    cand_ds = sorted_reduce(
        docs.map_batches(expand, batch_format="pyarrow"), "band_key", candidates
    )

    from ..state.collect import DEFAULT_EDGE_CAP, iter_capped_batches

    if candidate_path not in ("broadcast", "shuffle"):
        raise ValueError(
            f"minhash_clusters: unknown candidate_path {candidate_path!r}"
        )
    if candidate_path == "shuffle":
        if cc != "distributed":
            raise ValueError(
                "minhash_clusters: candidate_path='shuffle' requires "
                "cc='distributed' (a driver union-find would defeat the "
                "zero-driver-state point of the shuffle join)"
            )
        from .graph import assign_components, component_pairs

        # no materialize here: cand_ds and the verified edge Dataset
        # are each consumed exactly once (component_pairs materializes
        # the canonicalized edges itself before iterating)
        comp_ds = component_pairs(
            _verify_shuffle_join(docs, cand_ds, text_col, id_col, threshold),
            "id_a",
            "id_b",
        ).materialize()
        ids_ds = docs.map_batches(
            lambda t: t.select([id_col]), batch_format="pyarrow"
        )
        return assign_components(ids_ds, comp_ds, id_col=id_col)

    cap = edge_cap or DEFAULT_EDGE_CAP
    pair_set: set[tuple[int, int]] = set()
    for b in iter_capped_batches(cand_ds, cap=cap, context="minhash candidate pairs"):
        pair_set.update(
            zip(b.column("id_a").to_pylist(), b.column("id_b").to_pylist())
        )
    pairs = sorted(pair_set)

    uf = UnionFind()

    def verify_at_driver() -> None:
        # small candidate set: collect the candidate docs' hash sets
        # and verify at the driver — no verify shuffle. The collection
        # is bounded in BYTES, not just rows: each row carries a whole
        # shingle-hash set, so a separate hash budget raises
        # EdgeCapExceeded (caught by the caller, which falls back to
        # the distributed verify) before the driver holds corpus-scale
        # signature data.
        from ..state.collect import EdgeCapExceeded

        cand_ids = {i for p in pairs for i in p}
        ids_ref = ray.put(cand_ids)

        def sigs_once(batch: pa.Table) -> pa.Table:
            from ..state.worker_cache import cached_get

            wanted = cached_get(ids_ref, "minhash_cand_ids")
            out_id, out_hashes = [], []
            for i, t in zip(
                batch.column(id_col).to_pylist(), batch.column(text_col).to_pylist()
            ):
                if i in wanted:
                    out_id.append(i)
                    out_hashes.append(
                        _doc_shingle_hashes(t or "").astype(np.int64).tolist()
                    )
            return pa.table(
                {
                    id_col: pa.array(out_id, pa.int64()),
                    "hashes": pa.array(out_hashes, pa.list_(pa.int64())),
                }
            )

        sets: dict[int, set[int]] = {}
        n_hashes = 0
        for b in iter_capped_batches(
            docs.map_batches(sigs_once, batch_format="pyarrow"),
            cap=cap,
            context="minhash candidate signatures",
        ):
            for i, hs in zip(
                b.column(id_col).to_pylist(), b.column("hashes").to_pylist()
            ):
                n_hashes += len(hs)
                if n_hashes > DRIVER_VERIFY_HASH_BUDGET:
                    raise EdgeCapExceeded(
                        "minhash driver verify: candidate signature mass "
                        f"({n_hashes} hashes) exceeds the driver budget "
                        f"({DRIVER_VERIFY_HASH_BUDGET}) — falling back to "
                        "the distributed verify shuffle"
                    )
                sets[i] = set(hs)
        for a, b_ in pairs:
            ha, hb = sets.get(a), sets.get(b_)
            if ha is None or hb is None:
                continue
            inter = len(ha & hb)
            j = inter / (len(ha) + len(hb) - inter) if inter else 0.0
            if j >= threshold:
                uf.union(a, b_)

    def verified_edges_ds():
        # doc_id -> [pair index] lookup, broadcast once; the signature
        # pass touches ONLY candidate docs (everything else streams past)
        pair_map: dict[int, list[int]] = {}
        for idx, (a, b) in enumerate(pairs):
            pair_map.setdefault(a, []).append(idx)
            pair_map.setdefault(b, []).append(idx)
        # one broadcast object carries both directions of the lookup —
        # workers fetch it once (worker_cache), tasks never re-ship it
        pair_ref = ray.put((pair_map, pairs))

        def sigs(batch: pa.Table) -> pa.Table:
            from ..state.worker_cache import cached_get

            pm, _ = cached_get(pair_ref, "minhash_pair_map")
            out_pair, out_id, out_hashes = [], [], []
            for i, t in zip(
                batch.column(id_col).to_pylist(), batch.column(text_col).to_pylist()
            ):
                hit = pm.get(i)
                if not hit:
                    continue
                hs = _doc_shingle_hashes(t or "").astype(np.int64).tolist()
                for pidx in hit:
                    out_pair.append(pidx)
                    out_id.append(i)
                    out_hashes.append(hs)
            return pa.table(
                {
                    "pair_idx": pa.array(out_pair, pa.int64()),
                    id_col: pa.array(out_id, pa.int64()),
                    "hashes": pa.array(out_hashes, pa.list_(pa.int64())),
                }
            )

        def verify(block: pa.Table) -> pa.Table:
            from ..state.worker_cache import cached_get

            _, pair_list = cached_get(pair_ref, "minhash_pair_map")
            block = block.sort_by([("pair_idx", "ascending"), (id_col, "ascending")])
            pidxs = block.column("pair_idx").to_numpy()
            ids = block.column(id_col).to_pylist()
            hashes = block.column("hashes").to_pylist()
            a_out, b_out = [], []
            for s, e in zip(*run_bounds(block, "pair_idx")):
                # one distinct hash set per side (duplicate doc_id rows
                # in a pathological input collapse to one)
                sides: dict[int, set[int]] = {}
                for i in range(s, e):
                    sides.setdefault(ids[i], set(hashes[i]))
                if len(sides) != 2:
                    continue  # a side was absent -> unverifiable
                ha, hb = sides.values()
                inter = len(ha & hb)
                j = inter / (len(ha) + len(hb) - inter) if inter else 0.0
                if j >= threshold:
                    pidx = int(pidxs[s])
                    a_out.append(pair_list[pidx][0])
                    b_out.append(pair_list[pidx][1])
            return pa.table(
                {
                    "id_a": pa.array(a_out, pa.int64()),
                    "id_b": pa.array(b_out, pa.int64()),
                }
            )

        return sorted_reduce(
            docs.map_batches(sigs, batch_format="pyarrow"), "pair_idx", verify
        )

    def verify_distributed() -> None:
        for b in iter_capped_batches(
            verified_edges_ds(), cap=cap, context="minhash near-dup edges"
        ):
            for a, bb in zip(
                b.column("id_a").to_pylist(), b.column("id_b").to_pylist()
            ):
                uf.union(a, bb)

    if cc not in ("driver", "distributed"):
        raise ValueError(f"minhash_clusters: unknown cc mode {cc!r}")

    if cc == "distributed":
        comp: dict = {}
        if pairs:
            from ..state.collect import EdgeCapExceeded
            from .graph import assign_components, component_pairs

            # the lean CC variant: map-assignment tolerates duplicate
            # (node, root) rows and absent singletons (.get(i, i)).
            # No materialize on the edge Dataset — component_pairs
            # consumes it once into its own materialized canonical set
            comp_ds = component_pairs(
                verified_edges_ds(), "id_a", "id_b"
            ).materialize()
            try:
                for b in iter_capped_batches(
                    comp_ds, cap=cap, context="minhash component map"
                ):
                    comp.update(
                        zip(
                            b.column("node").to_pylist(),
                            b.column("root").to_pylist(),
                        )
                    )
            except EdgeCapExceeded:
                # component map itself beyond driver memory: assign via
                # the sorted shuffle join — the merge/assign half no
                # longer holds driver state (the candidate-pair
                # collection remains the one capped driver-side bound;
                # see the cc= docstring paragraph)
                ids_ds = docs.map_batches(
                    lambda t: t.select([id_col]), batch_format="pyarrow"
                )
                return assign_components(ids_ds, comp_ds, id_col=id_col)
    else:
        if pairs:
            if len(pairs) <= driver_verify_pairs:
                from ..state.collect import EdgeCapExceeded

                try:
                    verify_at_driver()
                except EdgeCapExceeded:
                    uf = UnionFind()  # discard any partial unions
                    verify_distributed()
            else:
                verify_distributed()
        comp = uf.components()
    # the component map rides the object store once and plain tasks
    # read it through the per-worker cache: an actor pool here spent
    # seconds starting per call for a map that runs in milliseconds
    comp_ref = ray.put(comp)

    def assign(batch: pa.Table) -> pa.Table:
        from ..state.worker_cache import cached_get

        roots = cached_get(comp_ref, "minhash_components")
        ids = batch.column(id_col).to_pylist()
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "cluster_id": pa.array([roots.get(i, i) for i in ids], pa.int64()),
            }
        )

    return docs.map_batches(assign, batch_format="pyarrow")


# -- simhash ----------------------------------------------------------------

def simhash64(text: str) -> int:
    """Classic 64-bit simhash over whitespace tokens (unsigned)."""
    toks = text.split()
    if not toks:
        return 0
    hashes = np.array(
        [_cached_hash(t, _TOKEN_HASH_CACHE, "simh") for t in toks], dtype=np.uint64
    )
    bits = ((hashes[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)).astype(
        np.int64
    )
    votes = bits.sum(axis=0) * 2 - len(toks)
    out = np.uint64(0)
    for b in range(64):
        if votes[b] > 0:
            out |= np.uint64(1) << np.uint64(b)
    return int(out)


def simhash_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    sigs = [simhash64(t or "") for t in batch.column(text_col).to_pylist()]
    signed = [s - (1 << 64) if s >= (1 << 63) else s for s in sigs]
    return batch.append_column("simhash", pa.array(signed, pa.int64()))


def simhash_pairs(
    docs,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_hamming: int = 3,
    max_group: int = 512,
    cap_counters=None,
):
    """Near-dup candidate pairs by simhash banding.

    The 64 signature bits are banded into ``max_hamming + 1`` chunks —
    by pigeonhole, any pair within the hamming budget shares at least
    one unchanged chunk — grouped by chunk value, and verified with the
    exact hamming distance. Larger budgets mean narrower chunks (less
    selective keys); the per-key cap (``max_group``) bounds the
    quadratic verify, and every truncation is reported to
    ``cap_counters`` (``state/caps.py``) so recall loss is observable.

    ``max_hamming`` > 15 is rejected loudly: 64 bits split into at most
    16 four-bit chunks, and the pigeonhole guarantee needs
    ``max_hamming + 1`` chunks — a silently capped chunk count would
    lose exactly the pairs at the budget boundary.

    Both shuffles are sorted reduces on the real key (``chunk_key``,
    then ``(id_a, id_b)`` for the cross-chunk distinct) with run-scans
    inside each sorted block — never one dispatch per near-singleton
    key (the repo shuffle rule).
    """
    if max_hamming < 0:
        raise ValueError(f"simhash_pairs: max_hamming {max_hamming} < 0")
    if max_hamming > 15:
        raise ValueError(
            f"simhash_pairs: max_hamming {max_hamming} > 15 — 64-bit "
            "signatures band into at most 16 chunks, so the pigeonhole "
            "candidate guarantee stops at hamming 15; use minhash_clusters "
            "for looser similarity"
        )
    n_chunks = max_hamming + 1
    # chunk bit boundaries: 64 bits split as evenly as possible
    widths = [64 // n_chunks + (1 if c < 64 % n_chunks else 0) for c in range(n_chunks)]
    offsets = [sum(widths[:c]) for c in range(n_chunks)]

    def expand(batch: pa.Table) -> pa.Table:
        batch = simhash_batch(batch, text_col)
        out_key, out_id, out_sig = [], [], []
        for i, s in zip(
            batch.column(id_col).to_pylist(), batch.column("simhash").to_pylist()
        ):
            u = s + (1 << 64) if s < 0 else s
            for c in range(n_chunks):
                chunk = (u >> offsets[c]) & ((1 << widths[c]) - 1)
                # cheap deterministic mix of (chunk index, chunk value)
                # into int64; collisions only add candidates, which the
                # exact-hamming verify rejects
                key = ((c * 0x9E3779B97F4A7C15) ^ chunk) & 0x7FFFFFFFFFFFFFFF
                out_key.append(key)
                out_id.append(i)
                out_sig.append(s)
        return pa.table(
            {
                "chunk_key": pa.array(out_key, pa.int64()),
                id_col: pa.array(out_id, pa.int64()),
                "simhash": pa.array(out_sig, pa.int64()),
            }
        )

    def verify(block: pa.Table) -> pa.Table:
        # one block = many whole chunk keys: sort, walk runs
        block = block.sort_by(
            [("chunk_key", "ascending"), (id_col, "ascending")]
        )
        keys = block.column("chunk_key").to_numpy()
        ids = block.column(id_col).to_pylist()
        sigs = block.column("simhash").to_pylist()
        a_out, b_out, d_out = [], [], []
        for s, e in zip(*run_bounds(block, "chunk_key")):
            rows = sorted(set(zip(ids[s:e], sigs[s:e])))
            if len(rows) > max_group:  # deterministic cap on the verify
                if cap_counters is not None:
                    cap_counters.record(
                        "simhash_truncated_candidates",
                        int(keys[s]),
                        len(rows) - max_group,
                    )
                rows = rows[:max_group]
            for i in range(len(rows)):
                for j in range(i + 1, len(rows)):
                    if rows[i][0] == rows[j][0]:
                        continue
                    d = bin(
                        (rows[i][1] ^ rows[j][1]) & ((1 << 64) - 1)
                    ).count("1")
                    if d <= max_hamming:
                        a_out.append(rows[i][0])
                        b_out.append(rows[j][0])
                        d_out.append(d)
        return pa.table(
            {
                "id_a": pa.array(a_out, pa.int64()),
                "id_b": pa.array(b_out, pa.int64()),
                "hamming": pa.array(d_out, pa.int64()),
            }
        )

    pairs = sorted_reduce(
        docs.map_batches(expand, batch_format="pyarrow"), "chunk_key", verify
    )

    # pairs found via multiple chunks appear multiple times — a distinct
    # per sorted block on (id_a, id_b) (duplicates of one pair always
    # share a block), never one dispatch per pair
    def pair_distinct(block: pa.Table) -> pa.Table:
        return (
            block.group_by(["id_a", "id_b", "hamming"], use_threads=False)
            .aggregate([])
            .sort_by([("id_a", "ascending"), ("id_b", "ascending")])
            .select(["id_a", "id_b", "hamming"])
        )

    return sorted_reduce(pairs, ["id_a", "id_b"], pair_distinct)


def _first_occurrence_winners(pos_col: str):
    """Shared keep-first winner kernel for the paragraph/span dedups:
    each sorted block holds whole ``(h1, h2)`` runs; sort by (h1, h2,
    doc, position) and keep the FIRST row of every run longer than one
    row — the winning occurrence of a duplicated 128-bit content key.
    One kernel, parameterized by the position column name, so a fix
    lands in both dedups at once."""

    def winners(block: pa.Table) -> pa.Table:
        block = block.select(["h1", "h2", "doc", pos_col]).sort_by(
            [
                ("h1", "ascending"),
                ("h2", "ascending"),
                ("doc", "ascending"),
                (pos_col, "ascending"),
            ]
        )
        starts, ends = run_bounds(block, ["h1", "h2"])
        return block.take(starts[ends - starts > 1])

    return winners


# -- paragraph-level exact dedup --------------------------------------------

def paragraph_dedup(
    docs,
    text_col: str = "text",
    id_col: str = "doc_id",
    *,
    edge_cap: int | None = None,
    spill_dir: str | None = None,
):
    """Cross-corpus keep-first paragraph dedup (the boilerplate-removal
    pass of a training-data pipeline; cf. Lee et al. 2022,
    "Deduplicating Training Data Makes Language Models Better" — public
    literature; the reference has no analogue).

    Rule: documents are newline-separated paragraph lists. A paragraph
    occurrence survives iff it is blank (RE2-whitespace-only —
    structure, never deduped; ``text_analysis.is_re2_blank``, the
    bit-exact twin of the SQL oracle's custom-charset ``trim``) or it
    is the FIRST occurrence of that exact string in the corpus,
    ordered by ``(doc_id, paragraph_index)``. Output: one row
    per document — ``(doc_id, clean_text, n_paras, n_dropped)`` with
    ``clean_text`` the newline-join of survivors.

    Physical plan (the 100-TB shape):

    1. explode ships ``(h1, h2, doc_id, idx)`` — 32 bytes per
       paragraph, never the text; ``(h1, h2)`` are two independently
       keyed 64-bit hashes (128-bit identity: a false merge needs a
       simultaneous collision in both families);
    2. a sorted shuffle on ``(h1, h2)`` finds, per hash pair with >1
       occurrence, the min ``(doc_id, idx)`` winner — only DUPLICATED
       paragraphs leave the shuffle;
    3. the winner map is collected under ``edge_cap`` (bounded by
       distinct duplicated-paragraph count, i.e. boilerplate mass, not
       corpus size) and broadcast via ``ray.put``;
    4. a second streaming pass rebuilds each document from survivors.

    The input is consumed twice — pass a source-backed Dataset, or for
    a derived pipeline pass ``spill_dir`` (the needed columns are
    written to parquet once and both passes re-read from disk).
    """
    from ..hashing import hash_str_array
    from ..state.collect import DEFAULT_EDGE_CAP, iter_capped_batches
    from ..state.worker_cache import cached_get
    from .text_analysis import is_re2_blank

    if spill_dir is not None:
        docs = _spill_input(docs, spill_dir, [id_col, text_col])
    cap = edge_cap or DEFAULT_EDGE_CAP

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        texts = batch.column(text_col).to_pylist()
        out_doc: list[int] = []
        out_idx: list[int] = []
        paras: list[str] = []
        for d, t in zip(ids, texts):
            for j, p in enumerate((t or "").split("\n")):
                if is_re2_blank(p):
                    continue  # blank: always kept, never shuffled
                out_doc.append(d)
                out_idx.append(j)
                paras.append(p)
        h1 = hash_str_array(paras, seed=1).astype(np.int64)
        h2 = hash_str_array(paras, seed=2).astype(np.int64)
        return pa.table(
            {
                "h1": pa.array(h1, pa.int64()),
                "h2": pa.array(h2, pa.int64()),
                "doc": pa.array(out_doc, pa.int64()),
                "idx": pa.array(out_idx, pa.int64()),
            }
        )

    win_ds = sorted_reduce(
        docs.map_batches(explode, batch_format="pyarrow"),
        ["h1", "h2"],
        _first_occurrence_winners("idx"),
    )
    win_map: dict[tuple[int, int], tuple[int, int]] = {}
    for b in iter_capped_batches(win_ds, cap=cap, context="paragraph dedup winners"):
        for h1, h2, d, j in zip(
            b.column("h1").to_pylist(),
            b.column("h2").to_pylist(),
            b.column("doc").to_pylist(),
            b.column("idx").to_pylist(),
        ):
            win_map[(h1, h2)] = (d, j)
    win_ref = ray.put(win_map)

    def rebuild(batch: pa.Table) -> pa.Table:
        wm = cached_get(win_ref, "paragraph_dedup_winners")
        ids = batch.column(id_col).to_pylist()
        texts = batch.column(text_col).to_pylist()
        out_text: list[str] = []
        out_n: list[int] = []
        out_drop: list[int] = []
        for d, t in zip(ids, texts):
            paras = (t or "").split("\n")
            body = [p for p in paras if not is_re2_blank(p)]
            h1 = hash_str_array(body, seed=1).astype(np.int64)
            h2 = hash_str_array(body, seed=2).astype(np.int64)
            kept: list[str] = []
            dropped = 0
            k = 0
            for j, p in enumerate(paras):
                if is_re2_blank(p):
                    kept.append(p)
                    continue
                w = wm.get((int(h1[k]), int(h2[k])))
                k += 1
                if w is None or w == (d, j):
                    kept.append(p)
                else:
                    dropped += 1
            out_text.append("\n".join(kept))
            out_n.append(len(paras))
            out_drop.append(dropped)
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "clean_text": pa.array(out_text, pa.string()),
                "n_paras": pa.array(out_n, pa.int64()),
                "n_dropped": pa.array(out_drop, pa.int64()),
            }
        )

    return docs.map_batches(rebuild, batch_format="pyarrow")


def span_dedup(
    docs,
    text_col: str = "text",
    id_col: str = "doc_id",
    *,
    min_len: int = 50,
    edge_cap: int | None = None,
    spill_dir: str | None = None,
):
    """Cross-corpus exact-substring dedup at token granularity — the
    ExactSubstr pass of Lee et al. 2022 ("Deduplicating Training Data
    Makes Language Models Better" §4.1 — public literature; they use a
    suffix array on one machine, this is the distributed window-hash
    equivalent).

    Rule: any run of ``>= min_len`` tokens (RE2-exact ``ws_tokens``)
    that occurs verbatim elsewhere in the corpus survives only at its
    FIRST occurrence, ordered by ``(doc_id, token position)``. Every
    length-``min_len`` token window is keyed by two independent
    Karp-Rabin polynomial hashes over per-token blake2b hashes
    (128-bit identity, two (seed, base) families); a non-winner
    occurrence of a duplicated window cuts its ``[pos, pos+min_len)``
    token interval, and overlapping cuts merge — so a shared run of
    length M >= L is matched at starts ``s..s+M-L`` and excised as
    exactly ``[s, s+M)``.

    Output: one row per document — ``(doc_id, clean_text, n_tokens,
    n_cut_tokens)``. ``clean_text`` is the SINGLE-SPACE join of
    surviving tokens (token-level dedup is whitespace-normalizing by
    construction; run it before, not after, byte-exact stages).

    Physical plan (the 100-TB shape): the explode ships
    ``(h1, h2, doc_id, pos)`` — 32 bytes per token occurrence, never
    text — through ONE sorted shuffle on ``(h1, h2)``; only DUPLICATED
    windows leave it; the winner map is capped by duplicate mass and
    broadcast; a second streaming pass rebuilds documents. Window
    hashing is O(tokens) per doc: each token is blake2b-hashed once
    (8 bytes per token enter the keys, independent of ``min_len``) and
    the rolling windows come from vectorized prefix sums. Input is
    consumed twice — pass a source-backed Dataset or ``spill_dir``.
    """
    from ..hashing import hash_str_array
    from ..state.collect import DEFAULT_EDGE_CAP, iter_capped_batches
    from ..state.worker_cache import cached_get
    from .text_analysis import ws_tokens

    if min_len < 2:
        raise ValueError(f"span_dedup: min_len {min_len} must be >= 2")
    if spill_dir is not None:
        docs = _spill_input(docs, spill_dir, [id_col, text_col])
    cap = edge_cap or DEFAULT_EDGE_CAP

    # Karp-Rabin over per-token blake2b hashes: each token is hashed
    # ONCE (8 bytes enter the window key, not the token's characters),
    # and the L-window polynomial H_i = sum_j x_{i+j} * B^(L-1-j)
    # (wraparound uint64) is computed for ALL positions in O(n) via
    # prefix sums of x_k * B^(-k) — B odd is invertible mod 2^64. Two
    # independent (seed, base) families give the 128-bit identity;
    # window equality == token-hash-sequence equality, so distinct
    # windows can only alias through a per-family collision.
    _B1, _B2 = 0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F  # odd constants
    _INV1 = np.uint64(pow(_B1, -1, 1 << 64))
    _INV2 = np.uint64(pow(_B2, -1, 1 << 64))

    def _rolling(x: np.ndarray, base: int, inv: np.uint64) -> np.ndarray:
        n = len(x)
        m = n - min_len + 1
        with np.errstate(over="ignore"):
            pw = np.cumprod(
                np.full(n, np.uint64(base), dtype=np.uint64), dtype=np.uint64
            )  # pw[i] = B^(i+1)
            ipw = np.concatenate(
                [
                    [np.uint64(1)],
                    np.cumprod(
                        np.full(n - 1, inv, dtype=np.uint64), dtype=np.uint64
                    ),
                ]
            )  # ipw[k] = B^(-k)
            y = x * ipw
            s = np.concatenate([[np.uint64(0)], np.cumsum(y, dtype=np.uint64)])
            win = s[min_len:] - s[:-min_len]  # sum x_k B^(-k), k=i..i+L-1
            # multiply by B^(i+L-1): pw[i+L-2] = B^(i+L-1)
            return win * pw[min_len - 2 : min_len - 2 + m]

    def _window_hashes(toks: list[str]):
        n = len(toks)
        if n < min_len:
            return None, None
        x1 = hash_str_array(toks, seed=3)
        x2 = hash_str_array(toks, seed=4)
        return (
            _rolling(x1, _B1, _INV1).astype(np.int64),
            _rolling(x2, _B2, _INV2).astype(np.int64),
        )

    def explode(batch: pa.Table) -> pa.Table:
        out_h1: list[np.ndarray] = []
        out_h2: list[np.ndarray] = []
        out_doc: list[int] = []
        out_pos: list[int] = []
        for d, t in zip(
            batch.column(id_col).to_pylist(),
            batch.column(text_col).to_pylist(),
        ):
            h1, h2 = _window_hashes(ws_tokens(t))
            if h1 is None:
                continue
            out_h1.append(h1)
            out_h2.append(h2)
            out_doc.extend([d] * len(h1))
            out_pos.extend(range(len(h1)))
        h1a = (
            np.concatenate(out_h1) if out_h1 else np.empty(0, dtype=np.int64)
        )
        h2a = (
            np.concatenate(out_h2) if out_h2 else np.empty(0, dtype=np.int64)
        )
        return pa.table(
            {
                "h1": pa.array(h1a, pa.int64()),
                "h2": pa.array(h2a, pa.int64()),
                "doc": pa.array(out_doc, pa.int64()),
                "pos": pa.array(out_pos, pa.int64()),
            }
        )

    win_ds = sorted_reduce(
        docs.map_batches(explode, batch_format="pyarrow"),
        ["h1", "h2"],
        _first_occurrence_winners("pos"),
    )
    win_map: dict[tuple[int, int], tuple[int, int]] = {}
    for b in iter_capped_batches(win_ds, cap=cap, context="span dedup winners"):
        for h1, h2, d, p in zip(
            b.column("h1").to_pylist(),
            b.column("h2").to_pylist(),
            b.column("doc").to_pylist(),
            b.column("pos").to_pylist(),
        ):
            win_map[(h1, h2)] = (d, p)
    win_ref = ray.put(win_map)

    def rebuild(batch: pa.Table) -> pa.Table:
        wm = cached_get(win_ref, "span_dedup_winners")
        ids = batch.column(id_col).to_pylist()
        texts = batch.column(text_col).to_pylist()
        out_text: list[str] = []
        out_n: list[int] = []
        out_cut: list[int] = []
        for d, t in zip(ids, texts):
            toks = ws_tokens(t)
            h1, h2 = _window_hashes(toks)
            cut = np.zeros(len(toks), dtype=bool)
            if h1 is not None:
                for p in range(len(h1)):
                    w = wm.get((int(h1[p]), int(h2[p])))
                    if w is not None and w != (d, p):
                        cut[p : p + min_len] = True
            kept = [tok for tok, c in zip(toks, cut) if not c]
            out_text.append(" ".join(kept))
            out_n.append(len(toks))
            out_cut.append(int(cut.sum()))
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "clean_text": pa.array(out_text, pa.string()),
                "n_tokens": pa.array(out_n, pa.int64()),
                "n_cut_tokens": pa.array(out_cut, pa.int64()),
            }
        )

    return docs.map_batches(rebuild, batch_format="pyarrow")
