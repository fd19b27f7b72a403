"""Tests for the training-data ops: dedup family, similarity search,
multimodal plumbing, text analysis kernels."""

import numpy as np
import pyarrow as pa
import pytest

from jamie_ray.functions import dedup_docs, multimodal, similarity, text_analysis


# ---- text analysis --------------------------------------------------------

def _docs_table():
    return pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": [
                "the cat sat on the mat",
                "日本語のテキストです。",
                "",
                "a b  c!!!",
            ],
        }
    )


def test_token_count():
    out = text_analysis.token_count_batch(_docs_table())
    assert out.column("n_tokens").to_pylist() == [6, 1, 0, 3]


def test_lang_id():
    out = text_analysis.lang_id_batch(_docs_table())
    assert out.column("lang_pred").to_pylist() == ["en", "ja", "", "other"]


def test_fingerprint_matches_hashlib():
    import hashlib

    out = text_analysis.fingerprint_batch(_docs_table())
    assert out.column("text_hash").to_pylist()[0] == hashlib.md5(
        b"the cat sat on the mat"
    ).hexdigest()


def test_quality_micro_range():
    out = text_analysis.quality_score_batch(_docs_table())
    for v in out.column("quality_micro").to_pylist():
        assert 0 <= v <= 1_000_000


# ---- dedup family ---------------------------------------------------------

def test_word_shingles_and_jaccard():
    assert dedup_docs.ngram_jaccard("a b c d", "a b c d") == 1.0
    assert dedup_docs.ngram_jaccard("a b c d", "x y z w") == 0.0
    assert 0 < dedup_docs.ngram_jaccard("a b c d e", "a b c d x") < 1


def test_simhash_properties():
    a = dedup_docs.simhash64("the quick brown fox jumps over the lazy dog")
    b = dedup_docs.simhash64("the quick brown fox jumps over the lazy cat")
    c = dedup_docs.simhash64("completely unrelated words entirely different")
    assert a == dedup_docs.simhash64("the quick brown fox jumps over the lazy dog")
    ham_ab = bin(a ^ b).count("1")
    ham_ac = bin(a ^ c).count("1")
    assert ham_ab < ham_ac
    assert dedup_docs.simhash64("") == 0


def test_exact_dedup(ray_session):
    import ray.data

    docs = ray.data.from_items(
        [
            {"doc_id": 10, "text": "same text"},
            {"doc_id": 3, "text": "same text"},
            {"doc_id": 7, "text": "other"},
        ]
    )
    rows = {r["text_hash"]: r for r in dedup_docs.exact_dedup(docs).take_all()}
    assert len(rows) == 2
    dup = [r for r in rows.values() if r["n_dups"] == 2][0]
    assert dup["doc_id"] == 3  # min doc id kept


def test_minhash_clusters(ray_session):
    import ray.data

    near = "the quick brown fox jumps over the lazy dog and keeps running fast"
    docs = ray.data.from_items(
        [
            {"doc_id": 1, "text": near},
            {"doc_id": 2, "text": near + " today"},
            {"doc_id": 3, "text": "an entirely different document about ray data pipelines"},
        ]
    )
    got = {r["doc_id"]: r["cluster_id"] for r in
           dedup_docs.minhash_clusters(docs, threshold=0.5).take_all()}
    assert got[1] == got[2] == 1
    assert got[3] == 3


def test_simhash_pairs(ray_session):
    import ray.data

    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    docs = ray.data.from_items(
        [
            {"doc_id": 1, "text": base},
            {"doc_id": 2, "text": base},  # identical -> hamming 0
            {"doc_id": 3, "text": "nothing in common with those tokens at all here"},
        ]
    )
    pairs = dedup_docs.simhash_pairs(docs, max_hamming=3).take_all()
    assert {(p["id_a"], p["id_b"]) for p in pairs} == {(1, 2)}


# ---- similarity -----------------------------------------------------------

def _emb_ds(ray):
    vecs = [
        {"vec_id": 0, "embedding": [1.0, 0.0, 0.0]},
        {"vec_id": 1, "embedding": [0.9, 0.1, 0.0]},
        {"vec_id": 2, "embedding": [0.0, 1.0, 0.0]},
        {"vec_id": 3, "embedding": [-1.0, 0.0, 0.0]},
    ]
    return ray.data.from_items(vecs)


def test_knn_bruteforce(ray_session):
    import ray

    out = similarity.knn_bruteforce(_emb_ds(ray), [1.0, 0.0, 0.0], k=2)
    assert out.column("vec_id").to_pylist() == [0, 1]
    assert out.column("score").to_pylist()[0] == 1.0


def test_knn_bruteforce_batch_equals_per_query(ray_session):
    """m queries in one scan == m single-query runs (same tie contract),
    with query_id mapping back to the input row."""
    import ray

    queries = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]]
    batch = similarity.knn_bruteforce_batch(
        _emb_ds(ray).repartition(2), queries, k=3
    )
    for j, q in enumerate(queries):
        single = similarity.knn_bruteforce(_emb_ds(ray), q, k=3)
        part = batch.filter(
            __import__("pyarrow").compute.equal(batch.column("query_id"), j)
        )
        assert part.column("vec_id").to_pylist() == single.column(
            "vec_id"
        ).to_pylist()
        assert part.column("score").to_pylist() == single.column(
            "score"
        ).to_pylist()


def test_knn_lsh_subset_of_bruteforce(ray_session):
    import ray

    exact = similarity.knn_bruteforce(_emb_ds(ray), [1.0, 0.0, 0.0], k=4)
    approx = similarity.knn_lsh(_emb_ds(ray), [1.0, 0.0, 0.0], k=4)
    # every approx hit must be a real vector with its exact score
    exact_map = dict(
        zip(exact.column("vec_id").to_pylist(), exact.column("score").to_pylist())
    )
    for vid, score in zip(
        approx.column("vec_id").to_pylist(), approx.column("score").to_pylist()
    ):
        assert exact_map[vid] == score


def test_embedding_near_dup(ray_session):
    import ray

    pairs = similarity.embedding_near_dup(_emb_ds(ray), threshold=0.95).take_all()
    found = {(p["id_a"], p["id_b"]) for p in pairs}
    assert (0, 1) in found
    assert all(p["cosine"] >= 0.95 for p in pairs)


def test_semantic_dedup_keep_first(ray_session):
    """SemDeDup shape: within a cluster, every vector at cosine >=
    threshold to a lower-id member is a dup of the SMALLEST such id."""
    import ray

    vecs = [
        {"vec_id": 0, "embedding": [1.0, 0.0, 0.0]},
        {"vec_id": 1, "embedding": [0.99, 0.01, 0.0]},   # near-dup of 0
        {"vec_id": 2, "embedding": [0.98, 0.02, 0.0]},   # near-dup of 0 AND 1
        {"vec_id": 3, "embedding": [0.0, 1.0, 0.0]},     # its own direction
        {"vec_id": 4, "embedding": [-1.0, 0.0, 0.0]},    # opposite
    ]
    out = similarity.semantic_dedup(
        ray.data.from_items(vecs), threshold=0.95, n_centroids=2, n_iter=2
    ).take_all()
    by_id = {r["vec_id"]: r for r in out}
    assert sorted(by_id) == [0, 1, 2, 3, 4]  # one row per vector
    assert by_id[0]["dup_of"] == -1  # keeper (lowest id)
    # 1 and 2 dup to the MINIMUM qualifying id (0), not the nearest
    if by_id[1]["cluster"] == by_id[0]["cluster"]:
        assert by_id[1]["dup_of"] == 0
        assert by_id[2]["dup_of"] == 0
    assert by_id[3]["dup_of"] == -1
    assert by_id[4]["dup_of"] == -1


def test_semantic_dedup_chain_keeps_far_end(ray_session):
    """Greedy leader rule: a dup always points at a KEPT row. In the
    chain A~B, B~C, A!~C: B dups to A, but C stays a KEEPER — marking C
    a dup of the already-dropped B would erase C's content with no
    near-duplicate surviving."""
    import math

    import ray

    th = math.radians(16)  # cos 16deg ~ 0.961 >= 0.95; cos 32deg ~ 0.848 < 0.95
    vecs = [
        {"vec_id": 0, "embedding": [1.0, 0.0]},
        {"vec_id": 1, "embedding": [math.cos(th), math.sin(th)]},
        {"vec_id": 2, "embedding": [math.cos(2 * th), math.sin(2 * th)]},
    ]
    out = similarity.semantic_dedup(
        ray.data.from_items(vecs), threshold=0.95, n_centroids=1, n_iter=1
    ).take_all()
    by_id = {r["vec_id"]: r["dup_of"] for r in out}
    assert by_id[0] == -1
    assert by_id[1] == 0      # within threshold of keeper 0
    assert by_id[2] == -1     # NOT a dup of dropped 1; beyond threshold of 0


def test_semantic_dedup_block_layout_invariant(ray_session):
    """Output is a pure function of the input (deterministic centroids
    + id-sorted within-cluster gram): repartitioning must not move a
    single row."""
    import numpy as np
    import ray

    from jamie_ray.hashing import mix64

    idx = np.arange(60 * 8, dtype=np.uint64)
    mat = ((mix64(idx, seed=11).astype(np.float64) / float(1 << 64)) * 2 - 1).reshape(
        60, 8
    )
    emb = pa.table(
        {
            "vec_id": pa.array(range(60), pa.int64()),
            "embedding": pa.array([v.tolist() for v in mat], pa.list_(pa.float64())),
        }
    )
    a = similarity.semantic_dedup(
        ray.data.from_arrow(emb), threshold=0.8, n_centroids=4, n_iter=2
    ).take_all()
    b = similarity.semantic_dedup(
        ray.data.from_arrow(emb).repartition(7), threshold=0.8, n_centroids=4, n_iter=2
    ).take_all()
    key = lambda r: r["vec_id"]
    assert sorted(a, key=key) == sorted(b, key=key)


def test_semantic_dedup_max_group_cap_counted(ray_session):
    """An oversize cluster keeps its max_group smallest ids as the
    comparison set; overflow members come back as keepers and the loss
    is recorded via cap_counters — never silent."""
    import ray

    from jamie_ray.state.caps import cap_totals, new_cap_counters

    # 6 identical vectors -> one cluster of 6; max_group=3 -> ids 3..5
    # are beyond the comparison set
    vecs = [{"vec_id": i, "embedding": [1.0, 0.0]} for i in range(6)]
    counters = new_cap_counters()
    out = similarity.semantic_dedup(
        ray.data.from_items(vecs),
        threshold=0.9,
        n_centroids=1,
        n_iter=1,
        max_group=3,
        cap_counters=counters,
    ).take_all()
    by_id = {r["vec_id"]: r["dup_of"] for r in out}
    assert by_id[0] == -1 and by_id[1] == 0 and by_id[2] == 0
    # overflow members emitted as keepers (uncompared), not dropped
    assert by_id[3] == -1 and by_id[4] == -1 and by_id[5] == -1
    assert cap_totals(counters).get("semantic_dedup_truncated", 0) == 3


# ---- multimodal -----------------------------------------------------------

def test_decode_strict_raises():
    dec = multimodal.DecodeImage(strict=True)
    batch = multimodal.synthetic_media(2)
    with pytest.raises(NotImplementedError):
        dec(batch)


def test_decode_fake_deterministic(ray_session):
    import ray.data

    media = ray.data.from_arrow(multimodal.synthetic_media(8))
    decoded = media.map_batches(
        multimodal.DecodeImage, concurrency=1, batch_size=4, batch_format="pyarrow"
    )
    rows = sorted(decoded.take_all(), key=lambda r: r["media_id"])
    assert len(rows) == 8
    for r in rows:
        assert len(r["pixels"]) == r["width"] * r["height"]
    # deterministic across runs
    decoded2 = ray.data.from_arrow(multimodal.synthetic_media(8)).map_batches(
        multimodal.DecodeImage, concurrency=1, batch_size=4, batch_format="pyarrow"
    )
    rows2 = sorted(decoded2.take_all(), key=lambda r: r["media_id"])
    assert [list(r["pixels"]) for r in rows] == [list(r["pixels"]) for r in rows2]


def test_resize_and_features():
    batch = multimodal.synthetic_media(4)
    dec = multimodal.DecodeImage(strict=False)
    decoded = dec(batch)
    resized = multimodal.resize_stub(decoded, target=8)
    assert all(len(p) == 64 for p in resized.column("pixels").to_pylist())
    feats = multimodal.ImageFeatures()(resized)
    assert all(len(f) == 10 for f in feats.column("features").to_pylist())


def test_simhash_pairs_rejects_unbandable_budget(ray_session):
    """64-bit signatures band into at most 16 chunks, so the pigeonhole
    guarantee stops at hamming 15 — a larger budget must fail loudly,
    not silently lose exactly the boundary-distance pairs."""
    import pytest
    import ray.data

    from jamie_ray.functions import dedup_docs as dd

    docs = ray.data.from_items([{"doc_id": 0, "text": "a"}])
    with pytest.raises(ValueError, match="at most 16 chunks"):
        dd.simhash_pairs(docs, max_hamming=16)
    with pytest.raises(ValueError, match="< 0"):
        dd.simhash_pairs(docs, max_hamming=-1)


def test_simhash_pairs_recall_at_higher_hamming(ray_session):
    """Banding must adapt to max_hamming: a pair differing by one bit
    in each 16-bit quarter (hamming 4) must still be found when the
    budget allows it (code-review finding)."""
    import ray.data

    from jamie_ray.functions import dedup_docs as dd

    base = dd.simhash64("alpha beta gamma delta epsilon zeta eta theta")

    # monkey-free: synthesize two docs whose hashes we control by
    # patching simhash_batch's input through a fake text->hash mapping
    # is intrusive; instead verify the banding math directly
    flipped = base ^ ((1 << 2) | (1 << 18) | (1 << 34) | (1 << 50))
    h = bin(base ^ flipped).count("1")
    assert h == 4

    def chunks_of(u, n_chunks):
        widths = [64 // n_chunks + (1 if c < 64 % n_chunks else 0) for c in range(n_chunks)]
        offs = [sum(widths[:c]) for c in range(n_chunks)]
        return [(u >> offs[c]) & ((1 << widths[c]) - 1) for c in range(n_chunks)]

    # with 4 chunks (old behavior) no chunk survives
    assert all(
        x != y for x, y in zip(chunks_of(base, 4), chunks_of(flipped, 4))
    )
    # with max_hamming+1 = 5 chunks at least one chunk matches
    assert any(
        x == y for x, y in zip(chunks_of(base, 5), chunks_of(flipped, 5))
    )


def test_knn_partial_cut_uses_rounded_key(ray_session):
    """Block-local top-k must cut by the rounded score (the oracle's
    sort key) so boundary near-ties agree (code-review finding)."""
    import ray.data

    # two vectors whose scores round equal; the lower vec_id must win
    vecs = [
        {"vec_id": 5, "embedding": [1.0, 0.0000004]},
        {"vec_id": 2, "embedding": [1.0, -0.0000004]},
        {"vec_id": 9, "embedding": [0.0, 1.0]},
    ]
    ds = ray.data.from_items(vecs)
    out = similarity.knn_bruteforce(ds, [1.0, 0.0], k=1)
    assert out.column("vec_id").to_pylist() == [2]


def test_salted_group_sum_matches_plain(ray_session):
    import ray.data

    from jamie_ray.functions.skew import salted_group_sum

    # one hot key (80% of rows) + tail keys
    rows = [
        {"k": "hot" if i % 5 != 0 else f"cold{i % 7}", "x": i, "y": i * 2}
        for i in range(500)
    ]
    ds = ray.data.from_items(rows)
    got = {
        r["k"]: (r["x_sum"], r["y_sum"], r["n"])
        for r in salted_group_sum(ds, "k", ["x", "y"], n_salts=8).take_all()
    }
    # plain python oracle
    exp = {}
    for r in rows:
        c = exp.setdefault(r["k"], [0, 0, 0])
        c[0] += r["x"]
        c[1] += r["y"]
        c[2] += 1
    assert got == {k: tuple(v) for k, v in exp.items()}


# ---- planted-fixture oracles (near-dup family) ----------------------------

def test_planted_near_dup_fixtures(ray_session, tmp_path):
    """The generator's expected tables ARE the operator outputs: twins
    share LSH buckets by construction, unplanted pairs are provably far,
    and the simhash expected set is a banding-free brute force."""
    import ray.data

    from jamie_ray import fixtures

    tabs = fixtures.generate(300)

    emb = ray.data.from_arrow(tabs["embeddings_nd"])
    got = pa.Table.from_pylist(
        similarity.embedding_near_dup(emb, threshold=0.9).take_all()
    )
    exp = tabs["expected_near_dup"]
    assert exp.num_rows > 0
    key = lambda t: sorted(
        zip(t["id_a"].to_pylist(), t["id_b"].to_pylist(), t["cosine"].to_pylist())
    )
    assert key(got) == key(exp)

    docs = ray.data.from_arrow(tabs["documents_nd"])
    got_cl = pa.Table.from_pylist(
        dedup_docs.minhash_clusters(docs, threshold=0.8).take_all()
    )
    exp_cl = tabs["expected_minhash_clusters"]
    pairs = lambda t: sorted(
        zip(t["doc_id"].to_pylist(), t["cluster_id"].to_pylist())
    )
    assert pairs(got_cl) == pairs(exp_cl)
    assert any(d != c for d, c in pairs(exp_cl))  # non-trivial clusters

    got_sh = pa.Table.from_pylist(
        dedup_docs.simhash_pairs(docs, max_hamming=8).take_all()
    )
    exp_sh = tabs["expected_simhash_pairs"]
    assert exp_sh.num_rows > 0
    trip = lambda t: sorted(
        zip(t["id_a"].to_pylist(), t["id_b"].to_pylist(), t["hamming"].to_pylist())
    )
    assert trip(got_sh) == trip(exp_sh)


def test_edge_cap_guard_rail(ray_session):
    """Driver-side edge collection fails loudly past the cap instead of
    OOMing (VERDICT r1 item 10)."""
    import ray.data

    from jamie_ray.state.collect import iter_capped_batches

    ds = ray.data.range(100)
    with pytest.raises(RuntimeError, match="exceeded its cap"):
        for _ in iter_capped_batches(ds, cap=10, context="test edges"):
            pass
    # under the cap: passes through every row
    total = sum(b.num_rows for b in iter_capped_batches(ds, cap=1000))
    assert total == 100


def test_knn_lsh_recall_on_planted_twins(ray_session):
    """Single-probe LSH kNN must find a query's planted near-duplicate:
    the fixture guarantees each twin shares its base's bucket, so the
    twin is always inside the probed bucket (recall 1.0 on that pair)."""
    import ray.data

    from jamie_ray import fixtures

    tabs = fixtures.generate(300)
    emb = tabs["embeddings_nd"]
    pairs = tabs["expected_near_dup"]
    ids = emb["vec_id"].to_pylist()
    vecs = emb["embedding"].to_pylist()
    ds = ray.data.from_arrow(emb)
    hits = 0
    checked = 0
    for a, b in list(zip(pairs["id_a"].to_pylist(), pairs["id_b"].to_pylist()))[:5]:
        q = vecs[ids.index(a)]
        out = similarity.knn_lsh(ds, q, k=5)
        got = out["vec_id"].to_pylist()
        assert a in got  # the query itself shares its own bucket
        checked += 1
        if b in got:
            hits += 1
    assert checked == 5 and hits == 5


def test_knn_lsh_multiprobe_recall_dial(ray_session):
    """Multiprobe probes supersets of buckets: results grow monotonically
    toward the brute-force set as probes increase."""
    import ray.data

    from jamie_ray import fixtures

    tabs = fixtures.generate(300)
    vecs = tabs["embeddings_nd"]["embedding"].to_pylist()
    ds = ray.data.from_arrow(tabs["embeddings_nd"])
    q = vecs[3]
    exact = set(similarity.knn_bruteforce(ds, q, k=10)["vec_id"].to_pylist())
    r0 = set(similarity.knn_lsh(ds, q, k=10)["vec_id"].to_pylist())
    r4 = set(similarity.knn_lsh(ds, q, k=10, multiprobe=4)["vec_id"].to_pylist())
    # more probes -> at least as many results and at least as much of
    # the exact top-k recovered (top-k truncation means strict subset
    # relations are not guaranteed, counts are)
    assert len(r4) >= len(r0)
    assert len(r4 & exact) >= len(r0 & exact)


def test_video_frame_sampling(ray_session):
    import ray.data

    media = multimodal.synthetic_media(10, kind="video")
    nf = media["n_frames"].to_pylist()
    expected_rows = sum((n + 3) // 4 for n in nf)
    frames = (
        ray.data.from_arrow(media)
        .map_batches(
            multimodal.SampleFrames,
            fn_constructor_kwargs={"stride": 4, "strict": False},
            concurrency=1, batch_format="pyarrow",
        )
        .take_all()
    )
    assert len(frames) == expected_rows
    # frames of one video differ (seeded by frame_idx) but reproduce
    f0 = [r for r in frames if r["media_id"] == 0]
    assert len({tuple(r["pixels"]) for r in f0}) == len(f0)
    again = multimodal.SampleFrames(stride=4)(media)
    assert again.num_rows == expected_rows


def test_video_strict_marks_codec_boundary():
    import pytest as _pytest

    media = multimodal.synthetic_media(2, kind="video")
    with _pytest.raises(NotImplementedError, match="video frame decode"):
        multimodal.SampleFrames(strict=True)(media)


def test_audio_decode_and_features():
    media = multimodal.synthetic_media(4, kind="audio")
    decoded = multimodal.DecodeAudio()(media)
    wav = decoded["waveform"][0].as_py()
    assert len(wav) == 16_000 and all(-1.0 <= v <= 1.0 for v in wav)
    feats = multimodal.AudioFeatures(window=1024)(decoded)
    f = feats["features"][0].as_py()
    assert len(f) == 2 * (16_000 // 1024)
    import pytest as _pytest

    with _pytest.raises(NotImplementedError, match="audio decode"):
        multimodal.DecodeAudio(strict=True)(media)


# ---- cap observability (no-silent-caps rule) ------------------------------

def test_cap_counters_minhash(ray_session):
    """An over-cap band reports its dropped candidate count; an
    uncapped run reports nothing."""
    import ray.data

    from jamie_ray.state.caps import cap_totals, new_cap_counters

    same = "one two three four five six seven eight nine ten eleven twelve"
    docs = ray.data.from_items([{"doc_id": i, "text": same} for i in range(10)])

    counters = new_cap_counters()
    got = {
        r["doc_id"]: r["cluster_id"]
        for r in dedup_docs.minhash_clusters(
            docs, threshold=0.5, max_group=4, cap_counters=counters
        ).take_all()
    }
    totals = cap_totals(counters)
    # 10 identical docs share all 8 bands; cap 4 drops 6 per band
    assert totals.get("minhash_truncated_candidates", 0) > 0
    # the surviving ids still cluster
    assert got[0] == 0 and got[1] == 0

    uncapped = new_cap_counters()
    dedup_docs.minhash_clusters(
        docs, threshold=0.5, max_group=64, cap_counters=uncapped
    ).take_all()
    assert cap_totals(uncapped) == {}


def test_cap_counters_embedding_and_simhash(ray_session):
    import ray.data

    from jamie_ray.state.caps import cap_totals, new_cap_counters

    vecs = [{"vec_id": i, "embedding": [1.0, 0.0, 0.0]} for i in range(6)]
    counters = new_cap_counters()
    similarity.embedding_near_dup(
        ray.data.from_items(vecs), threshold=0.9, max_group=2, cap_counters=counters
    ).take_all()
    assert cap_totals(counters).get("embedding_near_dup_truncated", 0) == 4

    docs = ray.data.from_items(
        [{"doc_id": i, "text": "alpha beta gamma delta epsilon"} for i in range(5)]
    )
    counters2 = new_cap_counters()
    dedup_docs.simhash_pairs(
        docs, max_hamming=3, max_group=2, cap_counters=counters2
    ).take_all()
    assert cap_totals(counters2).get("simhash_truncated_candidates", 0) > 0


def test_cap_counters_link(ray_session):
    from jamie_ray.stages import link
    from jamie_ray.state.caps import cap_totals, new_cap_counters

    surfaces = [f"surface {chr(97 + i)}" for i in range(8)]
    group = pa.table(
        {
            "band_key": pa.array([1] * 8, pa.int64()),
            "norm": pa.array(surfaces, pa.string()),
            "surface": pa.array(surfaces, pa.string()),
        }
    )
    counters = new_cap_counters()
    link.candidate_edges_group(group, max_group=3, cap_counters=counters)
    assert cap_totals(counters).get("link_truncated_candidates", 0) == 5


def test_knn_lsh_n_planes_settings(ray_session):
    """Planted-twin recall holds at two bucket-count settings: planes
    are prefix-stable (n-plane matrix = first n rows of the m-plane
    matrix), so a 12-plane bucket match implies a 6-plane match."""
    import ray.data

    from jamie_ray import fixtures

    planes6 = similarity._planes(8, n_planes=6)
    planes12 = similarity._planes(8, n_planes=12)
    assert np.array_equal(planes12[:6], planes6)

    tabs = fixtures.generate(300)
    emb = tabs["embeddings_nd"]
    pairs = tabs["expected_near_dup"]
    ids = emb["vec_id"].to_pylist()
    vecs = emb["embedding"].to_pylist()
    ds = ray.data.from_arrow(emb)
    for n_planes in (6, 12):
        a, b = pairs["id_a"][0].as_py(), pairs["id_b"][0].as_py()
        out = similarity.knn_lsh(ds, vecs[ids.index(a)], k=5, n_planes=n_planes)
        got = out["vec_id"].to_pylist()
        assert a in got and b in got


def test_media_and_signature_expected_tables(ray_session):
    """The generator's independent implementations agree with the
    engine kernels: simhash (scalar bit votes vs vectorized numpy),
    winnowing (per-position loops vs stride tricks), audio features
    (plumbing through the actor stages + explode)."""
    import ray.data

    from jamie_ray import fixtures

    tabs = fixtures.generate(60)

    docs = tabs["documents_nd"]
    got_sigs = dedup_docs.simhash_batch(docs).select(["doc_id", "simhash"])
    exp_sigs = tabs["expected_simhash_sigs"]
    assert got_sigs.to_pylist() == exp_sigs.to_pylist()

    got_win = text_analysis.winnow_batch(docs)
    exp_by_doc: dict[int, list[int]] = {}
    for r in tabs["expected_winnow"].to_pylist():
        exp_by_doc.setdefault(r["doc_id"], []).append(r["fingerprint"])
    for d, fps in zip(
        got_win.column("doc_id").to_pylist(),
        got_win.column("fingerprints").to_pylist(),
    ):
        assert fps == exp_by_doc.get(d, [])

    media = ray.data.from_arrow(
        multimodal.synthetic_media(fixtures.N_MEDIA_AUDIO, kind="audio")
    )
    got_audio = (
        media.map_batches(
            multimodal.DecodeAudio, fn_constructor_kwargs={"strict": False},
            concurrency=1, batch_size=16, batch_format="pyarrow",
        )
        .map_batches(
            multimodal.AudioFeatures, concurrency=1, batch_size=32,
            batch_format="pyarrow",
        )
        .map_batches(multimodal.explode_features, batch_format="pyarrow")
        .take_all()
    )
    key = lambda r: (r["media_id"], r["feat_idx"])
    exp_audio = sorted(tabs["expected_audio_features"].to_pylist(), key=key)
    assert sorted(got_audio, key=key) == exp_audio


# ---- mergeable sketches ---------------------------------------------------

def test_kmv_distinct_exact_and_estimate(ray_session):
    import ray.data

    from jamie_ray.functions import sketch

    rows = [
        {"g": "a", "v": i % 7} for i in range(100)
    ] + [{"g": "b", "v": i} for i in range(50)]
    out = {
        r["g"]: r["n_distinct"]
        for r in sketch.kmv_distinct(
            ray.data.from_items(rows), "g", "v", k=64
        ).take_all()
    }
    # below k the sketch holds the whole set: exact
    assert out == {"a": 7, "b": 50}

    # beyond k: the KMV estimate lands within ~2/sqrt(k) of the truth
    big = [{"g": "x", "v": i} for i in range(20000)]
    est = sketch.kmv_distinct(ray.data.from_items(big), "g", "v", k=1024).take_all()
    n = est[0]["n_distinct"]
    assert abs(n - 20000) / 20000 < 0.1


def test_heavy_hitters_exact_and_guarded(ray_session):
    import pytest
    import ray.data

    from jamie_ray.functions import sketch

    # 3 heavy users among a long tail; two-pass MG must return the
    # exact heavy set with exact counts
    rows = (
        [{"u": "heavy1"}] * 300
        + [{"u": "heavy2"}] * 200
        + [{"u": "heavy3"}] * 120
        + [{"u": f"tail{i}"} for i in range(400)]
    )
    ds = ray.data.from_items(rows)
    out = {
        r["u"]: r["n"]
        for r in sketch.heavy_hitters(ds, "u", min_count=100, k=64).take_all()
    }
    assert out == {"heavy1": 300, "heavy2": 200, "heavy3": 120}

    # recall bound violated -> loud failure, not silent loss
    with pytest.raises(ValueError, match="recall bound"):
        sketch.heavy_hitters(ds, "u", min_count=2, k=16)
    with pytest.raises(ValueError, match="exactly one"):
        sketch.heavy_hitters(ds, "u")


def test_misra_gries_update_semantics():
    from jamie_ray.functions.sketch import _mg_update

    c: dict = {}
    for v in ["a", "a", "b", "c"]:  # k=3: c finds counters full
        _mg_update(c, v, 3)
    # c triggers decrement-all instead of inserting: a:2->1, b evicted
    assert c == {"a": 1}
    _mg_update(c, "d", 3)  # the freed slot admits the next new item
    assert c == {"a": 1, "d": 1}


def test_minhash_both_verify_paths_identical(ray_session):
    """The adaptive verify cutover is semantics-free: driver-side
    verification (small candidate sets) and the bucketed verify
    shuffle (the 100-TB path, forced via driver_verify_pairs=0...1)
    produce identical clusters on the planted fixture."""
    import ray.data

    from jamie_ray import fixtures

    tabs = fixtures.generate(200)
    docs = ray.data.from_arrow(tabs["documents_nd"])
    key = lambda rows: sorted((r["doc_id"], r["cluster_id"]) for r in rows)
    via_driver = key(
        dedup_docs.minhash_clusters(docs, threshold=0.8).take_all()
    )
    via_shuffle = key(
        dedup_docs.minhash_clusters(
            docs, threshold=0.8, driver_verify_pairs=1
        ).take_all()
    )
    assert via_driver == via_shuffle
    exp = key(tabs["expected_minhash_clusters"].to_pylist())
    assert via_driver == exp


def test_minhash_hash_budget_fallback(ray_session, monkeypatch):
    """Crossing the driver-verify hash budget falls back to the
    distributed verify shuffle with identical results (the byte-bound
    guard from the r3 review)."""
    import ray.data

    from jamie_ray.functions import dedup_docs as dd

    near = "the quick brown fox jumps over the lazy dog and keeps running fast"
    docs = ray.data.from_items(
        [
            {"doc_id": 1, "text": near},
            {"doc_id": 2, "text": near + " today"},
            {"doc_id": 3, "text": "an entirely different document entirely"},
        ]
    )
    monkeypatch.setattr(dd, "DRIVER_VERIFY_HASH_BUDGET", 3)
    got = {
        r["doc_id"]: r["cluster_id"]
        for r in dd.minhash_clusters(docs, threshold=0.5).take_all()
    }
    assert got[1] == got[2] == 1 and got[3] == 3


def test_quantiles_exact_matches_numpy(ray_session):
    """Exact distributed quantiles equal the single-machine rank
    select, across both answer paths (duplicate-run direct hit and
    between-samples window fetch)."""
    import ray.data

    from jamie_ray.functions import sketch

    vals = ([7.0] * 500          # heavy duplicate run
            + [float(i) / 10 for i in range(1500)]
            + [-3.5] * 20)
    ds = ray.data.from_items([{"value": v} for v in vals])
    qs = [0.0, 0.25, 0.5, 0.9, 1.0]
    out = sketch.quantiles_exact(ds, "value", qs, sample_stride=64)
    sv = sorted(vals)
    n = len(sv)
    expected = {q: sv[int(q * (n - 1))] for q in qs}
    got = dict(zip(out.column("q").to_pylist(), out.column("value").to_pylist()))
    assert got == expected

    import pytest

    from jamie_ray.state.collect import EdgeCapExceeded

    # one block + huge stride -> only the endpoints are sampled, so the
    # median's window is nearly the whole column and must trip the cap
    one_block = ray.data.from_arrow(
        pa.table({"value": pa.array(vals, pa.float64())})
    )
    with pytest.raises(EdgeCapExceeded, match="quantile window"):
        sketch.quantiles_exact(
            one_block, "value", [0.5], sample_stride=100_000, window_cap=10
        )


def test_quantiles_nan_raises_loudly(ray_session):
    """A NaN in the column must fail loudly in the sample pass — a
    NaN would silently shift every searchsorted rank otherwise."""
    import pytest
    import ray.data

    from jamie_ray.functions import sketch

    ds = ray.data.from_items(
        [{"value": 1.0}, {"value": float("nan")}, {"value": 2.0}]
    )
    with pytest.raises((ValueError, Exception), match="NaN"):
        sketch.quantiles_exact(ds, "value", [0.5])


def test_quantiles_approx_accuracy_and_exact_regime(ray_session):
    """One-pass hash-reservoir quantiles: rank error within the
    binomial bound at k << n, and EXACT when k >= n (the sample is the
    whole column)."""
    import ray.data

    from jamie_ray.functions import sketch

    n = 8000
    ds = ray.data.from_items(
        [{"doc_id": i, "value": float(i)} for i in range(n)]
    )
    k = 1024
    out = sketch.quantiles_approx(ds, "value", [0.25, 0.5, 0.9], k=k)
    got = dict(zip(out.column("q").to_pylist(), out.column("value").to_pylist()))
    for q, v in got.items():
        # 5-sigma binomial rank bound
        tol = 5.0 * (q * (1 - q) / k) ** 0.5 * n + 1
        assert abs(v - q * (n - 1)) <= tol, (q, v, tol)

    exact = sketch.quantiles_approx(ds, "value", [0.0, 0.5, 1.0], k=n)
    sv = list(range(n))
    for q, v in zip(exact.column("q").to_pylist(), exact.column("value").to_pylist()):
        assert v == float(sv[int(q * (n - 1))])


def test_quantiles_approx_layout_invariant_and_loud(ray_session):
    import pytest
    import ray.data

    from jamie_ray.functions import sketch

    rows = [{"doc_id": i, "value": float((i * 37) % 101)} for i in range(500)]
    a = sketch.quantiles_approx(
        ray.data.from_items(rows), "value", [0.5, 0.9], k=64
    )
    b = sketch.quantiles_approx(
        ray.data.from_items(rows).repartition(9), "value", [0.5, 0.9], k=64
    )
    assert a.equals(b)
    c = sketch.quantiles_approx(
        ray.data.from_items(rows), "value", [0.5, 0.9], k=64, salt="other"
    )
    assert not c.equals(a)  # different salt -> different reservoir

    nan_ds = ray.data.from_items(
        [{"doc_id": 1, "value": 1.0}, {"doc_id": 2, "value": float("nan")}]
    )
    with pytest.raises(Exception, match="NaN"):
        sketch.quantiles_approx(nan_ds, "value", [0.5])
    with pytest.raises(ValueError, match="outside"):
        sketch.quantiles_approx(ray.data.from_items(rows), "value", [1.5])


def test_heavy_hitters_many_blocks_bounded_merge(ray_session):
    """Exactness is layout-invariant: the incremental driver-side MG
    merge (state <= k-1 entries between batches) returns the same
    exact heavy set when the input is split across many small blocks,
    each contributing its own (k-1)-entry summary."""
    import ray.data

    from jamie_ray.functions import sketch

    rows = (
        [{"u": "heavy1"}] * 300
        + [{"u": "heavy2"}] * 200
        + [{"u": f"tail{i}"} for i in range(500)]
    )
    ds = ray.data.from_items(rows).repartition(40)
    out = {
        r["u"]: r["n"]
        for r in sketch.heavy_hitters(ds, "u", min_count=100, k=64).take_all()
    }
    assert out == {"heavy1": 300, "heavy2": 200}


def test_ivf_centroids_block_layout_invariant(ray_session):
    """The IVF k-means centroids are BIT-identical across block
    layouts: integer-scaled partial sums make the distributed
    accumulation exact, so summation order cannot perturb them."""
    import ray.data

    from jamie_ray import fixtures

    tabs = fixtures.generate(300)
    emb = tabs["embeddings_nd"]
    a = similarity.ivf_centroids(ray.data.from_arrow(emb), n_centroids=8, n_iter=2)
    b = similarity.ivf_centroids(
        ray.data.from_arrow(emb).repartition(7), n_centroids=8, n_iter=2
    )
    assert np.array_equal(a, b)


def test_knn_ivf_finds_planted_twin(ray_session):
    import ray.data

    from jamie_ray import fixtures

    tabs = fixtures.generate(300)
    emb = tabs["embeddings_nd"]
    pairs = tabs["expected_near_dup"]
    ids = emb["vec_id"].to_pylist()
    vecs = emb["embedding"].to_pylist()
    ds = ray.data.from_arrow(emb)
    a, b = pairs["id_a"][0].as_py(), pairs["id_b"][0].as_py()
    out = similarity.knn_ivf(ds, vecs[ids.index(a)], k=5, n_centroids=8, n_probe=2)
    got = out["vec_id"].to_pylist()
    # the twin is ~cos 0.93+ of the base: same or adjacent centroid,
    # and n_probe=2 covers both
    assert a in got and b in got


def test_mg_reduce_is_subtractive_not_truncating():
    """The merge reduction must subtract the k-th largest count, not
    keep the top k-1 by rank: every survivor's count drops by exactly
    kth, at most k-1 items survive, and the per-item undercount added
    by the reduction is bounded by kth (the mergeable-summaries
    guarantee a rank truncation would break)."""
    from jamie_ray.functions.sketch import _mg_reduce

    merged = {"a": 10, "b": 7, "c": 5, "d": 5, "e": 2, "f": 1}
    out = _mg_reduce(dict(merged), k=4)  # kth largest (4th) = 5
    assert out == {"a": 5, "b": 2}
    assert len(out) <= 3
    # under k-1 items: untouched
    small = {"a": 3, "b": 1}
    assert _mg_reduce(dict(small), k=4) == small


def test_ann_index_ivf_prunes_read_and_matches_scan(ray_session, tmp_path):
    """The materialized IVF index: (a) the probe plan touches ONLY the
    probed partition dirs — strictly fewer files than the whole index;
    (b) the pruned-read result is IDENTICAL to the scan-shaped knn_ivf
    with the same (deterministic) quantizer and probe count."""
    import glob

    import ray.data

    from jamie_ray import fixtures

    tabs = fixtures.generate(300)
    emb = tabs["embeddings_nd"]
    ids = emb["vec_id"].to_pylist()
    vecs = emb["embedding"].to_pylist()
    q = vecs[ids.index(0)]
    ds = ray.data.from_arrow(emb)

    idx = str(tmp_path / "ivf_idx")
    meta = similarity.build_ann_index(
        ds, idx, kind="ivf", n_centroids=8, n_iter=2
    )
    assert meta["kind"] == "ivf" and meta["n_centroids"] == 8

    all_parts = sorted(glob.glob(f"{idx}/ann_part=*"))
    all_files = glob.glob(f"{idx}/ann_part=*/*.parquet")
    probed = similarity.ann_probe_partitions(idx, q, n_probe=2)
    probed_files = [f for d in probed for f in glob.glob(f"{d}/*.parquet")]
    # file-count assertion: the probe reads a strict subset of the index
    assert len(probed) == 2 < len(all_parts)
    assert 0 < len(probed_files) < len(all_files)
    assert all(any(f.startswith(d) for d in probed) for f in probed_files)

    got = similarity.knn_indexed(idx, q, k=5, n_probe=2)
    want = similarity.knn_ivf(ds, q, k=5, n_centroids=8, n_iter=2, n_probe=2)
    assert got.to_pylist() == want.to_pylist()

    # a completed index refuses silent overwrite
    import pytest

    with pytest.raises(FileExistsError):
        similarity.build_ann_index(ds, idx, kind="ivf")


def test_refresh_ann_index_appends_generation(ray_session, tmp_path):
    """refresh_ann_index: the quantizer is frozen, only the new
    vectors' partitions gain gen- files, and probes see BOTH
    generations (an appended near-twin of the query shows up in the
    indexed top-k alongside the original build's vectors)."""
    import glob

    import ray.data

    from jamie_ray import fixtures

    tabs = fixtures.generate(300)
    emb = tabs["embeddings_nd"]
    ids = emb["vec_id"].to_pylist()
    vecs = emb["embedding"].to_pylist()
    q = vecs[ids.index(0)]
    ds = ray.data.from_arrow(emb)

    idx = str(tmp_path / "ivf_idx_r")
    meta0 = similarity.build_ann_index(ds, idx, kind="ivf", n_centroids=8, n_iter=2)
    files_before = set(glob.glob(f"{idx}/ann_part=*/*.parquet"))
    before = similarity.knn_indexed(idx, q, k=5, n_probe=2)

    # new generation: an exact copy of the query vector under a fresh id
    new_id = max(ids) + 1000
    new = pa.table(
        {
            "vec_id": pa.array([new_id], pa.int64()),
            "embedding": pa.array([list(q)], pa.list_(pa.float32())),
        }
    )
    res = similarity.refresh_ann_index(idx, ray.data.from_arrow(new))
    assert res["generation"] == 2
    assert len(res["partitions_touched"]) == 1  # one vector -> one cell

    added = set(glob.glob(f"{idx}/ann_part=*/*.parquet")) - files_before
    assert added and all("gen-0002-" in f for f in added)
    assert all(
        f.split("/")[-2] in res["partitions_touched"] for f in added
    )  # untouched partitions not rewritten

    # quantizer frozen: centroids in the meta are byte-identical
    import json
    import os

    with open(os.path.join(idx, "_ann_meta.json")) as f:
        meta1 = json.load(f)
    assert meta1["centroids"] == meta0["centroids"]
    assert meta1["generations"] == 2

    after = similarity.knn_indexed(idx, q, k=5, n_probe=2)
    got_ids = after.column("vec_id").to_pylist()
    assert new_id in got_ids  # new generation visible
    assert set(before.column("vec_id").to_pylist()[:4]) & set(got_ids)  # old too
    # the exact copy scores a perfect cosine
    by_id = dict(zip(got_ids, after.column("score").to_pylist()))
    assert by_id[new_id] == 1.0


def test_ann_index_lsh_matches_scan(ray_session, tmp_path):
    """The LSH-partitioned index returns exactly what the scan-shaped
    knn_lsh computes for the same (dim, seed, n_planes) contract,
    including the multiprobe expansion."""
    import ray.data

    from jamie_ray import fixtures

    tabs = fixtures.generate(300)
    emb = tabs["embeddings_nd"]
    ids = emb["vec_id"].to_pylist()
    vecs = emb["embedding"].to_pylist()
    q = vecs[ids.index(0)]
    ds = ray.data.from_arrow(emb)

    idx = str(tmp_path / "lsh_idx")
    similarity.build_ann_index(ds, idx, kind="lsh", n_planes=6)
    for mp in (0, 2):
        got = similarity.knn_indexed(idx, q, k=5, multiprobe=mp)
        want = similarity.knn_lsh(ds, q, k=5, n_planes=6, multiprobe=mp)
        assert got.to_pylist() == want.to_pylist(), f"multiprobe={mp}"


def test_ann_index_partial_build_is_wiped(ray_session, tmp_path):
    """A crashed build (partitions on disk, no completion meta) must be
    wiped and rebuilt, not appended to."""
    import glob
    import os

    import ray.data

    from jamie_ray import fixtures

    tabs = fixtures.generate(300)
    ds = ray.data.from_arrow(tabs["embeddings_nd"])
    idx = str(tmp_path / "crashed_idx")
    similarity.build_ann_index(ds, idx, kind="ivf", n_centroids=4, n_iter=1)
    n_files = len(glob.glob(f"{idx}/ann_part=*/*.parquet"))
    os.remove(os.path.join(idx, "_ann_meta.json"))  # simulate crash
    similarity.build_ann_index(ds, idx, kind="ivf", n_centroids=4, n_iter=1)
    assert len(glob.glob(f"{idx}/ann_part=*/*.parquet")) == n_files


def test_minhash_spill_dir_executes_upstream_once(ray_session, tmp_path):
    """A DERIVED input with spill_dir= executes its upstream exactly
    once: the (id, text) projection is spilled to parquet and all three
    operator passes re-read from disk instead of re-running upstream
    compute per pass."""
    import ray
    import ray.data

    @ray.remote
    class Counter:
        def __init__(self):
            self.n = 0

        def add(self, k):
            self.n += k

        def get(self):
            return self.n

    counter = Counter.remote()
    near = "the quick brown fox jumps over the lazy dog and keeps running fast"
    base = ray.data.from_items(
        [
            {"doc_id": 1, "text": near, "extra": "x"},
            {"doc_id": 2, "text": near + " today", "extra": "y"},
            {"doc_id": 3, "text": "an entirely different document", "extra": "z"},
        ]
    )

    def expensive_upstream(batch):
        ray.get(counter.add.remote(len(batch["doc_id"])))
        return batch

    derived = base.map_batches(expensive_upstream, batch_format="pandas")
    got = {
        r["doc_id"]: r["cluster_id"]
        for r in dedup_docs.minhash_clusters(
            derived, threshold=0.5, spill_dir=str(tmp_path / "mh_spill")
        ).take_all()
    }
    assert got[1] == got[2] == 1 and got[3] == 3
    assert ray.get(counter.get.remote()) == 3  # once per row, not 3x


def test_minhash_distributed_cc_identical(ray_session):
    """cc="distributed" (alternating-star connected components + no
    driver union-find) produces bit-identical clusters to the default
    driver merge on the planted fixture — the EdgeCapExceeded remedy
    is semantics-free."""
    import ray.data

    from jamie_ray import fixtures

    tabs = fixtures.generate(200)
    docs = ray.data.from_arrow(tabs["documents_nd"])
    key = lambda rows: sorted((r["doc_id"], r["cluster_id"]) for r in rows)
    via_driver = key(
        dedup_docs.minhash_clusters(docs, threshold=0.8).take_all()
    )
    via_cc = key(
        dedup_docs.minhash_clusters(
            docs, threshold=0.8, cc="distributed"
        ).take_all()
    )
    assert via_cc == via_driver
    assert via_cc == key(tabs["expected_minhash_clusters"].to_pylist())


def test_minhash_distributed_cc_shuffle_assign(ray_session, monkeypatch):
    """When even the component map crosses the cap, cc="distributed"
    degrades to the bucketed shuffle-join assign with identical
    output (nothing driver-side scales with duplicate mass)."""
    import ray.data

    from jamie_ray import fixtures
    from jamie_ray.state import collect

    real_iter = collect.iter_capped_batches

    def capped(ds, cap=collect.DEFAULT_EDGE_CAP, context="edge list"):
        if context == "minhash component map":
            raise collect.EdgeCapExceeded(context)
        return real_iter(ds, cap=cap, context=context)

    monkeypatch.setattr(collect, "iter_capped_batches", capped)
    tabs = fixtures.generate(200)
    docs = ray.data.from_arrow(tabs["documents_nd"])
    key = lambda rows: sorted((r["doc_id"], r["cluster_id"]) for r in rows)
    via_shuffle_assign = key(
        dedup_docs.minhash_clusters(
            docs, threshold=0.8, cc="distributed"
        ).take_all()
    )
    assert via_shuffle_assign == key(
        tabs["expected_minhash_clusters"].to_pylist()
    )


def test_paragraph_dedup_rules(ray_session):
    """Keep-first across the corpus, within-doc repeats dropped,
    whitespace-only paragraphs always kept, empty documents survive."""
    import ray.data

    docs = ray.data.from_items(
        [
            {"doc_id": 1, "text": "alpha beta\nshared boiler\nunique one"},
            {"doc_id": 2, "text": "shared boiler\n\nunique two\nshared boiler"},
            {"doc_id": 3, "text": ""},
            {"doc_id": 4, "text": "  \nshared boiler"},
        ]
    )
    got = {
        r["doc_id"]: (r["clean_text"], r["n_paras"], r["n_dropped"])
        for r in dedup_docs.paragraph_dedup(docs).take_all()
    }
    assert got[1] == ("alpha beta\nshared boiler\nunique one", 3, 0)
    # doc 2: both copies of the boiler drop (first occurrence is doc 1),
    # the empty paragraph stays
    assert got[2] == ("\nunique two", 4, 2)
    assert got[3] == ("", 1, 0)
    assert got[4] == ("  ", 2, 1)


def test_paragraph_dedup_cap_is_loud(ray_session):
    import pytest
    import ray.data

    from jamie_ray.state.collect import EdgeCapExceeded

    docs = ray.data.from_items(
        [{"doc_id": i, "text": "dup a\ndup b\ndup c"} for i in range(4)]
    )
    with pytest.raises(EdgeCapExceeded):
        dedup_docs.paragraph_dedup(docs, edge_cap=1).take_all()


def test_repetition_metrics_hand_computed():
    """top2gram / dup3gram micro fractions against hand calculation."""
    batch = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": [
                # "ab cd" appears twice; tokens ab,cd,ab,cd,ef = 10 chars
                # covered = 2 * 4 = 8 -> 8_000_000 // 10 = 800000
                "ab cd ab cd ef",
                # all distinct 2-grams (count 1 each); tie -> smallest
                # "aa bb" (4 chars) of 6 total -> 666666
                "aa bb cc",
                "single",
                "",
            ],
        }
    )
    out = text_analysis.repetition_batch(batch)
    assert out.column("top2gram_micro").to_pylist() == [800000, 666666, 0, 0]
    # doc 1: 3-grams (ab,cd,ab),(cd,ab,cd),(ab,cd,ef) all distinct -> 0
    assert out.column("dup3gram_micro").to_pylist()[0] == 0
    # repeated 3-gram: "x y x y x y" -> 4 occurrences, 2 distinct -> 500000
    rep = text_analysis.repetition_batch(
        pa.table({"doc_id": pa.array([9], pa.int64()), "text": ["x y x y x y"]})
    )
    assert rep.column("dup3gram_micro").to_pylist() == [500000]


def test_bpe_train_hand_computed(ray_session):
    """Merges on a tiny corpus against hand calculation, and the
    early-stop below min_freq."""
    import ray.data

    from jamie_ray.functions import bpe

    docs = ray.data.from_items([{"doc_id": 1, "text": "low low lower"}])
    out = bpe.train_bpe(docs, n_merges=10, min_freq=2)
    assert out.to_pylist() == [
        {"rank": 0, "lhs": "l", "rhs": "o", "freq": 3},
        {"rank": 1, "lhs": "lo", "rhs": "w", "freq": 3},
    ]


def test_bpe_apply_greedy():
    from jamie_ray.functions import bpe

    merges = [("l", "o"), ("lo", "w")]
    assert bpe.apply_bpe("low lower slow", merges) == [
        "low", "low", "e", "r", "s", "low",
    ]
    assert bpe.apply_bpe("", merges) == []


def test_bpe_vocab_cap_is_loud(ray_session):
    import pytest
    import ray.data

    from jamie_ray.functions import bpe
    from jamie_ray.state.collect import EdgeCapExceeded

    docs = ray.data.from_items(
        [{"doc_id": i, "text": f"w{i}a w{i}b w{i}c"} for i in range(10)]
    )
    with pytest.raises(EdgeCapExceeded):
        bpe.train_bpe(docs, vocab_cap=3)


def test_bpe_word_counts_merge_across_blocks(ray_session):
    import ray.data

    from jamie_ray.functions import bpe

    docs = ray.data.from_items(
        [{"doc_id": i, "text": "shared unique%d" % i} for i in range(6)]
    ).repartition(3)
    got = {
        r["word"]: r["n"] for r in bpe.word_counts(docs).take_all()
    }
    assert got["shared"] == 6
    assert all(got[f"unique{i}"] == 1 for i in range(6))


def test_paragraph_dedup_spill_dir_executes_upstream_once(ray_session, tmp_path):
    """Same contract as minhash spill_dir: a derived input's upstream
    runs once; both operator passes re-read the spilled parquet."""
    import ray
    import ray.data

    @ray.remote
    class Counter:
        def __init__(self):
            self.n = 0

        def add(self, k):
            self.n += k

        def get(self):
            return self.n

    counter = Counter.remote()
    base = ray.data.from_items(
        [
            {"doc_id": 1, "text": "keep one\nshared boiler"},
            {"doc_id": 2, "text": "shared boiler\nkeep two"},
        ]
    )

    def expensive_upstream(batch):
        ray.get(counter.add.remote(len(batch["doc_id"])))
        return batch

    derived = base.map_batches(expensive_upstream, batch_format="pandas")
    got = {
        r["doc_id"]: r["clean_text"]
        for r in dedup_docs.paragraph_dedup(
            derived, spill_dir=str(tmp_path / "pd_spill")
        ).take_all()
    }
    assert got[1] == "keep one\nshared boiler"
    assert got[2] == "keep two"
    assert ray.get(counter.get.remote()) == 2  # once per row, not 2x


def test_cli_dedup_paras_and_bpe(ray_session, tmp_path, capsys):
    import glob
    import json

    import pyarrow.parquet as pq

    from jamie_ray.__main__ import main

    docs = str(tmp_path / "docs.parquet")
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": ["low low lower\nboiler", "boiler\nother text"],
            }
        ),
        docs,
    )

    out = str(tmp_path / "clean")
    main(["dedup-paras", "--docs", docs, "--out", out])
    stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert stats["n_docs"] == 2 and stats["n_paras_dropped"] == 1
    rows = {
        r["doc_id"]: r["clean_text"]
        for f in sorted(glob.glob(f"{out}/*.parquet"))
        for r in pq.read_table(f).to_pylist()
    }
    assert rows[2] == "other text"

    merges_out = str(tmp_path / "merges.parquet")
    seg_out = str(tmp_path / "segmented")
    main(["bpe", "--docs", docs, "--out", merges_out, "--merges", "2",
          "--apply-out", seg_out])
    stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert stats["n_merges"] == 2
    got = pq.read_table(merges_out).to_pylist()
    # (e,r) appears in boiler x2 + lower + other = 4, the corpus max
    assert got[0]["lhs"] == "e" and got[0]["rhs"] == "r" and got[0]["freq"] == 4
    seg = {
        r["doc_id"]: r["n_bpe_tokens"]
        for f in sorted(glob.glob(f"{seg_out}/*.parquet"))
        for r in pq.read_table(f).to_pylist()
    }
    assert set(seg) == {1, 2} and all(n > 0 for n in seg.values())


def test_bpe_segment_corpus_matches_apply(ray_session):
    """segment_corpus (actor-pool broadcast apply) equals the scalar
    apply_bpe on every row, with per-word memoization transparent."""
    import ray.data

    from jamie_ray.functions import bpe

    docs = ray.data.from_items(
        [
            {"doc_id": 1, "text": "low lower slowest low"},
            {"doc_id": 2, "text": ""},
            {"doc_id": 3, "text": "low low"},
        ]
    )
    merges_tbl = bpe.train_bpe(docs, n_merges=5, min_freq=2)
    merges = list(
        zip(
            merges_tbl.column("lhs").to_pylist(),
            merges_tbl.column("rhs").to_pylist(),
        )
    )
    out = {
        r["doc_id"]: (r["bpe_tokens"], r["n_bpe_tokens"])
        for r in bpe.segment_corpus(docs, merges_tbl).take_all()
    }
    for row in [
        {"doc_id": 1, "text": "low lower slowest low"},
        {"doc_id": 2, "text": ""},
        {"doc_id": 3, "text": "low low"},
    ]:
        exp = bpe.apply_bpe(row["text"], merges)
        assert out[row["doc_id"]] == (exp, len(exp))


def test_minhash_shuffle_join_candidate_path_identical(ray_session):
    """candidate_path="shuffle" (zero driver-side collections:
    candidates -> shuffle-join verify -> CC -> shuffle assign) produces
    bit-identical clusters to the default broadcast path on the
    planted fixture."""
    import ray.data

    from jamie_ray import fixtures

    tabs = fixtures.generate(200)
    docs = ray.data.from_arrow(tabs["documents_nd"])
    key = lambda rows: sorted((r["doc_id"], r["cluster_id"]) for r in rows)
    via_shuffle = key(
        dedup_docs.minhash_clusters(
            docs, threshold=0.8, cc="distributed", candidate_path="shuffle"
        ).take_all()
    )
    assert via_shuffle == key(tabs["expected_minhash_clusters"].to_pylist())


def test_minhash_shuffle_join_requires_distributed_cc(ray_session):
    import ray.data

    docs = ray.data.from_items([{"doc_id": 1, "text": "a b c"}])
    with pytest.raises(ValueError, match="requires"):
        dedup_docs.minhash_clusters(docs, candidate_path="shuffle")


def test_clean_corpus_stage_semantics(ray_session, tmp_path):
    """Each cleaning stage drops exactly the docs its rule names:
    too-short (quality gate), losing exact duplicates, shared
    paragraphs rewritten, near-dup cluster losers."""
    import ray.data

    from jamie_ray.pipelines.clean import clean_corpus

    near = "the quick brown fox jumps over the lazy dog and keeps running"
    docs = ray.data.from_items(
        [
            {"doc_id": 1, "text": "too short"},                       # quality
            {"doc_id": 2, "text": near},                               # rep
            {"doc_id": 3, "text": near},                               # exact dup
            {"doc_id": 4, "text": near + " again today"},              # near dup
            {"doc_id": 5, "text": "shared boiler one two three\nunique five six seven eight nine"},
            {"doc_id": 6, "text": "shared boiler one two three\nother totally different text here ok"},
        ]
    )
    cleaned, stats = clean_corpus(
        docs, str(tmp_path / "spill"), min_tokens=5, near_dup_threshold=0.5
    )
    rows = {r["doc_id"]: r["text"] for r in cleaned.take_all()}
    assert stats["n_input"] == 6
    assert stats["n_after_quality"] == 5            # doc 1 gone
    assert stats["n_after_exact"] == 4              # doc 3 gone
    assert stats["n_after_near_dup"] == 3           # doc 4 gone
    assert set(rows) == {2, 5, 6}
    assert rows[2] == near
    # doc 6 lost the shared boiler paragraph to doc 5 (keep-first)
    assert rows[5].startswith("shared boiler")
    assert rows[6] == "other totally different text here ok"


def test_clean_corpus_url_stage(ray_session, tmp_path):
    """url_col= enables keep-first canonical-URL dedup as stage 0:
    a re-crawl under a cosmetic URL variant is dropped even though
    its TEXT differs (so no later stage would catch it)."""
    import ray.data

    from jamie_ray.pipelines.clean import clean_corpus

    docs = ray.data.from_items(
        [
            {
                "doc_id": 1,
                "url": "https://www.Example.com/p/1/?utm_source=x",
                "text": "first crawl of the page body with many tokens",
            },
            {
                # same canonical URL, different text: only stage 0 drops it
                "doc_id": 2,
                "url": "https://example.com:443/p/1#frag",
                "text": "second crawl body that drifted slightly over time",
            },
            {
                "doc_id": 3,
                "url": "https://example.com/p/2",
                "text": "a completely different page kept as is today",
            },
        ]
    )
    cleaned, stats = clean_corpus(
        docs, str(tmp_path / "spill"), min_tokens=3, url_col="url"
    )
    assert stats["n_input"] == 3
    assert stats["n_after_url"] == 2  # doc 2 lost to doc 1 (keep-first)
    assert stats["n_after_near_dup"] == 2
    assert {r["doc_id"] for r in cleaned.take_all()} == {1, 3}


def test_clean_corpus_lang_gate_heuristic(ray_session, tmp_path):
    """keep_lang= drops documents the selected classifier labels with
    another language; heuristic backend is the deterministic default."""
    import ray.data

    from jamie_ray.pipelines.clean import clean_corpus

    docs = ray.data.from_items(
        [
            {"doc_id": 1, "text": "左肺に急性肺炎の陰影を認める。経過観察を継続する。"},
            {"doc_id": 2, "text": "an english document with plenty of latin words inside"},
            {"doc_id": 3, "text": "胸部ＣＴで異常なし。外来で再診の予定とする。"},
        ]
    )
    cleaned, stats = clean_corpus(
        docs, str(tmp_path / "spill"), min_tokens=1, keep_lang="ja"
    )
    assert stats["n_after_lang"] == 2  # doc 2 classified 'en', dropped
    assert {r["doc_id"] for r in cleaned.take_all()} == {1, 3}


def test_clean_corpus_semantic_stage(ray_session, tmp_path):
    """embeddings= enables SemDeDup after near-dup: a doc whose VECTOR
    near-duplicates a lower-id doc is dropped even though its text
    passes every text-level stage; docs without a vector are kept."""
    import ray.data

    from jamie_ray.pipelines.clean import clean_corpus

    docs = ray.data.from_items(
        [
            {"doc_id": 1, "text": "completely original text about lung findings today"},
            {"doc_id": 2, "text": "unrelated wording yet semantically the same content"},
            {"doc_id": 3, "text": "a genuinely different third document kept as is"},
            {"doc_id": 4, "text": "fourth document with no embedding row at all here"},
        ]
    )
    emb = ray.data.from_items(
        [
            {"doc_id": 1, "embedding": [1.0, 0.0, 0.0]},
            {"doc_id": 2, "embedding": [0.99, 0.01, 0.0]},  # semantic twin of 1
            {"doc_id": 3, "embedding": [0.0, 1.0, 0.0]},
        ]
    )
    cleaned, stats = clean_corpus(
        docs,
        str(tmp_path / "spill"),
        min_tokens=3,
        embeddings=emb,
        semantic_threshold=0.95,
        semantic_n_centroids=2,
    )
    assert {r["doc_id"] for r in cleaned.take_all()} == {1, 3, 4}
    assert stats["n_after_semantic"] == 3  # doc 2 lost to doc 1


def test_clean_corpus_semantic_respects_earlier_drops(ray_session, tmp_path):
    """A vector whose doc an EARLIER gate already removed must not act
    as the lower-id representative: doc 1 fails the token floor, so its
    surviving semantic twin doc 2 is KEPT (dropping it would erase the
    content from the output entirely — keep-first promises the kept
    representative is in the output)."""
    import ray.data

    from jamie_ray.pipelines.clean import clean_corpus

    docs = ray.data.from_items(
        [
            {"doc_id": 1, "text": "too short"},  # dropped by min_tokens
            {"doc_id": 2, "text": "a long enough surviving document about findings"},
            {"doc_id": 3, "text": "a genuinely different third document kept as is"},
        ]
    )
    emb = ray.data.from_items(
        [
            {"doc_id": 1, "embedding": [1.0, 0.0, 0.0]},
            {"doc_id": 2, "embedding": [0.99, 0.01, 0.0]},  # twin of DROPPED 1
            {"doc_id": 3, "embedding": [0.0, 1.0, 0.0]},
        ]
    )
    cleaned, stats = clean_corpus(
        docs,
        str(tmp_path / "spill"),
        min_tokens=3,
        embeddings=emb,
        semantic_threshold=0.95,
        semantic_n_centroids=2,
    )
    assert {r["doc_id"] for r in cleaned.take_all()} == {2, 3}
    assert stats["n_after_semantic"] == 2


def test_lang_id_stage_backend_errors(ray_session):
    """The seam fails loudly: unknown backend and fasttext-without-model
    raise immediately (never a silent heuristic fallback)."""
    import ray.data

    from jamie_ray.functions.classifiers import lang_id_stage

    docs = ray.data.from_items([{"doc_id": 1, "text": "hello"}])
    with pytest.raises(ValueError, match="unknown backend"):
        lang_id_stage(docs, backend="nope")
    with pytest.raises(ValueError, match="needs model="):
        lang_id_stage(docs, backend="fasttext")


def test_fasttext_langid_real_model(ray_session, tmp_path):
    """Skip-if-missing live test: a REAL fastText model flows through
    the actor-pool seam (train a tiny supervised model on the spot —
    the public lid.176.bin isn't in this container)."""
    fasttext = pytest.importorskip("fasttext")
    import ray.data

    from jamie_ray.functions.classifiers import (
        broadcast_model_bytes,
        lang_id_stage,
    )

    train = tmp_path / "train.txt"
    train.write_text(
        "\n".join(
            ["__label__en the quick brown fox jumps over the lazy dog"] * 50
            + ["__label__ja 左肺 に 急性 肺炎 の 陰影 を 認める"] * 50
        )
    )
    model = fasttext.train_supervised(str(train), dim=16, epoch=5, minCount=1)
    mpath = str(tmp_path / "lid.bin")
    model.save_model(mpath)

    docs = ray.data.from_items(
        [
            {"doc_id": 1, "text": "the quick brown fox jumps"},
            {"doc_id": 2, "text": "左肺 に 肺炎 の 陰影"},
        ]
    )
    out = lang_id_stage(
        docs,
        backend="fasttext",
        model=broadcast_model_bytes(mpath),
        concurrency=1,
    ).take_all()
    by_id = {r["doc_id"]: r for r in out}
    assert by_id[1]["lang_pred"] == "en"
    assert by_id[2]["lang_pred"] == "ja"
    assert all(0.0 <= r["lang_conf"] <= 1.0 for r in out)

    # the generic classifier gate (quality-classifier shape): same
    # model, custom column prefix + keep filter
    from jamie_ray.functions.classifiers import fasttext_classify

    kept = fasttext_classify(
        docs,
        broadcast_model_bytes(mpath),
        out_prefix="quality",
        keep="en",
        concurrency=1,
    ).take_all()
    assert [r["doc_id"] for r in kept] == [1]
    assert kept[0]["quality_pred"] == "en"

    # the clean_corpus model-quality gate end-to-end: only docs the
    # classifier predicts as keep_quality survive, stats record it
    from jamie_ray.pipelines.clean import clean_corpus

    corpus = ray.data.from_items(
        [
            {"doc_id": 1, "text": "the quick brown fox jumps over the dog"},
            {"doc_id": 2, "text": "左肺 に 肺炎 の 陰影 を 認める 所見"},
            {"doc_id": 3, "text": "the lazy dog jumps over the quick fox"},
        ]
    )
    cleaned, stats = clean_corpus(
        corpus,
        str(tmp_path / "spill_q"),
        keep_quality="en",
        quality_model=broadcast_model_bytes(mpath),
    )
    assert sorted(r["doc_id"] for r in cleaned.take_all()) == [1, 3]
    assert stats["n_after_quality_model"] == 2


def test_clean_corpus_quality_model_requires_pair(ray_session, tmp_path):
    """keep_quality / quality_model must be given together (validated
    before any execution — runs without the optional fasttext dep)."""
    import ray.data

    from jamie_ray.pipelines.clean import clean_corpus

    docs = ray.data.from_items([{"doc_id": 1, "text": "a b c d e f"}])
    with pytest.raises(ValueError, match="keep_quality"):
        clean_corpus(docs, str(tmp_path / "s1"), keep_quality="hq")
    with pytest.raises(ValueError, match="keep_quality"):
        clean_corpus(docs, str(tmp_path / "s2"), quality_model="/nope.bin")


def test_clean_corpus_span_stage(ray_session, tmp_path):
    """span_min_len= enables exact-substring excision between
    paragraph dedup and near-dup: a verbatim run shared by two
    otherwise-distinct docs survives only in the first."""
    import ray.data

    from jamie_ray.pipelines.clean import clean_corpus

    shared = "this exact legal disclaimer sentence repeats everywhere online"
    docs = ray.data.from_items(
        [
            {"doc_id": 1, "text": f"first article body {shared} unique ending one"},
            {"doc_id": 2, "text": f"second piece totally different start {shared} other closing words"},
        ]
    )
    cleaned, stats = clean_corpus(
        docs,
        str(tmp_path / "spill"),
        min_tokens=3,
        near_dup_threshold=0.95,
        span_min_len=5,
    )
    rows = {r["doc_id"]: r["text"] for r in cleaned.take_all()}
    assert set(rows) == {1, 2}
    assert shared in rows[1]
    assert shared not in rows[2]
    assert rows[2].startswith("second piece totally different start")


def test_clean_corpus_lm_gate(ray_session, tmp_path):
    """lm= + max_ppl= drops high-perplexity docs right after the
    heuristic gate (CCNet shape: LM trained on a trusted corpus)."""
    import math

    import pytest
    import ray.data

    from jamie_ray.functions.lm import train_ngram_lm
    from jamie_ray.pipelines.clean import clean_corpus

    trusted = ray.data.from_items(
        [
            {"doc_id": i, "text": "the cat sat on the mat and the dog sat too"}
            for i in range(3)
        ]
    )
    lm = train_ngram_lm(trusted)
    good = "the cat sat on the mat and the dog sat too"
    bad = "zx qv glorp wibble frunk zaxxon blorp quux nine ten"
    def ppl(t):
        toks = t.split()
        return math.exp(-lm.logprob(toks) / len(toks))
    cut = (ppl(good) + ppl(bad)) / 2
    docs = ray.data.from_items(
        [{"doc_id": 1, "text": good}, {"doc_id": 2, "text": bad}]
    )
    cleaned, stats = clean_corpus(
        docs, str(tmp_path / "spill"), min_tokens=3, lm=lm, max_ppl=cut
    )
    assert stats["n_after_quality"] == 2
    assert stats["n_after_lm"] == 1
    assert {r["doc_id"] for r in cleaned.take_all()} == {1}
    with pytest.raises(ValueError, match="together"):
        clean_corpus(docs, str(tmp_path / "spill2"), lm=lm)


def test_clean_corpus_pii_stage(ray_session, tmp_path):
    """pii=True masks AFTER dedup: two docs that differ only in their
    email survive as two docs (masking can't merge them), and the
    survivors' text carries sentinels."""
    import ray.data

    from jamie_ray.functions.pii import MASK_EMAIL
    from jamie_ray.pipelines.clean import clean_corpus

    docs = ray.data.from_items(
        [
            {"doc_id": 1, "text": "contact alice@example.com for the quarterly report details"},
            {"doc_id": 2, "text": "contact bob@example.com for the quarterly report details"},
            {"doc_id": 3, "text": "a completely different page kept as is today"},
        ]
    )
    cleaned, stats = clean_corpus(
        docs, str(tmp_path / "spill"), min_tokens=3, near_dup_threshold=0.99, pii=True
    )
    rows = {r["doc_id"]: r["text"] for r in cleaned.take_all()}
    assert stats["n_after_exact"] == 3  # masking runs after dedup
    assert set(rows) == {1, 2, 3}
    assert rows[1] == f"contact {MASK_EMAIL} for the quarterly report details"
    assert rows[2] == rows[1]
    assert "@" not in rows[1]
    assert rows[3] == "a completely different page kept as is today"


def test_cli_clean(ray_session, tmp_path, capsys):
    import glob
    import json

    import pyarrow.parquet as pq

    from jamie_ray.__main__ import main

    docs = str(tmp_path / "docs.parquet")
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": [
                    "tiny",
                    "a perfectly reasonable document with enough tokens",
                    "a perfectly reasonable document with enough tokens",
                ],
            }
        ),
        docs,
    )
    out = str(tmp_path / "cleaned")
    main([
        "clean", "--docs", docs, "--out", out,
        "--spill", str(tmp_path / "spill"), "--min-tokens", "3",
    ])
    stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert stats["n_input"] == 3 and stats["n_after_near_dup"] == 1
    rows = [
        r
        for f in sorted(glob.glob(f"{out}/*.parquet"))
        for r in pq.read_table(f).to_pylist()
    ]
    assert [r["doc_id"] for r in rows] == [2]


def test_bpe_word_min_freq_prunes_distributed_side(ray_session):
    """The 100-TB BPE path (r4 VERDICT item 3): a corpus whose word-TYPE
    count exceeds the driver cap but whose frequent-type count doesn't
    trains WITHOUT EdgeCapExceeded when word_min_freq prunes the tail
    distributed-side, and — because the rare types here are single
    characters (pair-free) — produces merges identical to the uncapped
    replay. The pruned occurrence mass is recorded, not silent."""
    import ray.data

    from jamie_ray.functions import bpe
    from jamie_ray.state.collect import EdgeCapExceeded

    # 500 distinct single-char rare words (one occurrence each) + a few
    # frequent multi-char types
    rare = " ".join(chr(0x4E00 + i) for i in range(500))
    docs_rows = [
        {"doc_id": 0, "text": rare},
        {"doc_id": 1, "text": "banana banana banana bandana bandana"},
        {"doc_id": 2, "text": "banana banana bandana"},
    ]
    CAP = 60  # << 503 word types; >= frequent types + one summary row per block

    docs = ray.data.from_items(list(docs_rows))
    with pytest.raises(EdgeCapExceeded):
        bpe.train_bpe(docs, vocab_cap=CAP)

    pruned = bpe.train_bpe(
        ray.data.from_items(list(docs_rows)),
        vocab_cap=CAP,
        word_min_freq=2,
        n_merges=10,
    )
    full = bpe.train_bpe(
        ray.data.from_items(list(docs_rows)), n_merges=10
    )
    assert pruned.select(["rank", "lhs", "rhs", "freq"]).to_pylist() == \
        full.select(["rank", "lhs", "rhs", "freq"]).to_pylist()
    assert pruned.num_rows > 0
    # 500 pruned single-occurrence types -> mass 500, recorded loudly
    assert int(pruned.schema.metadata[b"pruned_word_mass"]) == 500
    assert int(full.schema.metadata[b"pruned_word_mass"]) == 0


def test_quantiles_approx_duplicate_id_tie_layout_invariant(ray_session):
    """Duplicate ids share a reservoir key u; when tied rows straddle
    the per-block cut, the partial must cut by the driver's (u, v) key
    or different layouts ship different pairs (code-review finding)."""
    import ray.data

    from jamie_ray.functions import sketch

    rows = []
    for i in range(60):
        rows.append({"doc_id": i % 20, "value": float(i)})  # each id 3x
    a = sketch.quantiles_approx(
        ray.data.from_items(rows), "value", [0.3, 0.7], k=10
    )
    b = sketch.quantiles_approx(
        ray.data.from_items(rows).repartition(11), "value", [0.3, 0.7], k=10
    )
    assert a.equals(b)


def test_heavy_hitters_rejects_nulls(ray_session):
    import pytest
    import ray.data

    from jamie_ray.functions import sketch

    ds = ray.data.from_items([{"v": "a"}, {"v": None}, {"v": "a"}])
    with pytest.raises(Exception, match="null"):
        sketch.heavy_hitters(ds, "v", min_count=1, k=16).take_all()


def test_quantiles_exact_rejects_out_of_range_q(ray_session):
    import pytest
    import ray.data

    from jamie_ray.functions import sketch

    ds = ray.data.from_items([{"value": float(i)} for i in range(10)])
    with pytest.raises(ValueError, match="outside"):
        sketch.quantiles_exact(ds, "value", [-0.1])


def test_group_sample_tolerates_empty_blocks(ray_session):
    """An upstream filter can empty whole blocks; the combiner's typed
    empty output must not break block schema unification."""
    import ray.data

    from jamie_ray.functions.sampling import group_sample

    docs = ray.data.from_items(
        [{"doc_id": i, "lang": "en" if i < 30 else "ja"} for i in range(60)]
    ).repartition(6).filter(lambda r: r["lang"] == "en")
    out = group_sample(docs, 5, "lang").take_all()
    assert len(out) == 5 and all(r["lang"] == "en" for r in out)


def test_connected_components_rejects_null_endpoints(ray_session):
    import pytest
    import ray.data

    from jamie_ray.functions.graph import connected_components

    edges = ray.data.from_items([{"a": 1, "b": None}])
    with pytest.raises(Exception, match="null"):
        connected_components(edges, "a", "b").take_all()


def test_running_counts_does_not_leak_preserve_order(ray_session):
    import ray.data

    from jamie_ray.functions.streaming import running_counts

    events = ray.data.from_items(
        [{"ts": i, "event_type": "x"} for i in range(8)]
    )
    before = events.context.execution_options.preserve_order
    running_counts(events).take_all()
    assert events.context.execution_options.preserve_order == before


def test_gopher_quality_matches_duckdb_on_c4_fixture():
    """gopher_quality_batch vs a DuckDB replay over the planted
    multi-line C4 corpus (bullet/ellipsis fractions non-degenerate
    only on multi-line text) plus hand-built signal docs."""
    import duckdb

    from jamie_ray.fixtures import _generate_docs_c4
    from jamie_ray.functions.text_analysis import gopher_quality_batch

    base = _generate_docs_c4(60)
    extra = pa.table(
        {
            "doc_id": pa.array([1000, 1001, 1002, 1003], pa.int64()),
            "text": [
                "- bullet a b c\n* bullet d e f\n• g h i\nplain tail line",
                "dots end here...\nuni ellipsis here…\t \nclean line",
                "# sym ## heavy ... text … x",
                "",
            ],
        }
    )
    t = pa.concat_tables([base, extra])
    eng = gopher_quality_batch(t).to_pylist()
    con = duckdb.connect()
    con.register("t", t)
    ora = con.sql(r"""
        SELECT doc_id,
          CASE WHEN n_tok = 0 THEN 0
               ELSE (length(txt) - nblank) * 1000000 // n_tok END AS mean_word_len_micro,
          CASE WHEN n_tok = 0 THEN 0
               ELSE ((length(txt) - length(replace(txt,'#','')))
                    + (length(txt) - length(replace(txt,'...',''))) // 3
                    + (length(txt) - length(replace(txt,'…','')))) * 1000000 // n_tok
          END AS symbol_word_micro,
          CASE WHEN n_tok = 0 THEN 0
               ELSE len(list_filter(string_split_regex(txt,'\s+'),
                     x -> x <> '' AND regexp_matches(x,'[A-Za-z]'))) * 1000000 // n_tok
          END AS alpha_word_micro,
          len(list_filter(string_split(txt, chr(10)), l ->
              starts_with(ltrim(l, chr(9)||chr(12)||chr(13)||' '), '•')
              OR starts_with(ltrim(l, chr(9)||chr(12)||chr(13)||' '), '- ')
              OR starts_with(ltrim(l, chr(9)||chr(12)||chr(13)||' '), '* ')))
              * 1000000 // greatest(len(string_split(txt, chr(10))), 1)
              AS bullet_line_micro,
          len(list_filter(string_split(txt, chr(10)), l ->
              ends_with(rtrim(l, chr(9)||chr(12)||chr(13)||' '), '...')
              OR ends_with(rtrim(l, chr(9)||chr(12)||chr(13)||' '), '…')))
              * 1000000 // greatest(len(string_split(txt, chr(10))), 1)
              AS ellipsis_line_micro
        FROM (
          SELECT doc_id, coalesce(text,'') AS txt,
                 len(regexp_extract_all(coalesce(text,''), '\S+')) AS n_tok,
                 len(regexp_extract_all(coalesce(text,''), '\s')) AS nblank
          FROM t
        ) ORDER BY doc_id
    """).arrow().to_pylist()
    cols = [
        "mean_word_len_micro",
        "symbol_word_micro",
        "alpha_word_micro",
        "bullet_line_micro",
        "ellipsis_line_micro",
    ]
    got = sorted(({c: r[c] for c in ["doc_id"] + cols} for r in eng),
                 key=lambda r: r["doc_id"])
    assert got == ora
    # the extras exercise each signal away from zero
    by_id = {r["doc_id"]: r for r in got}
    assert by_id[1000]["bullet_line_micro"] == 750_000
    assert by_id[1001]["ellipsis_line_micro"] == 666_666
    assert by_id[1002]["symbol_word_micro"] > 100_000
    assert by_id[1003]["mean_word_len_micro"] == 0


def test_clean_corpus_gopher_gate(ray_session, tmp_path):
    """gopher=True drops the symbol-heavy / low-alpha / bullet-wall
    docs in the same quality pass; clean docs survive untouched."""
    import ray

    from jamie_ray.pipelines.clean import clean_corpus

    good = "alpha words flow nicely here and keep a sane mean length."
    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": [
                good,
                "# ## ### #### some words here",  # symbol-to-word > 0.1
                "1 2 3 4 5 6 7 8 9 0",  # alpha-word fraction 0
                "- a b c d\n- e f g h\n- i j k l",  # 100% bullet lines
            ],
        }
    )
    cleaned, stats = clean_corpus(
        ray.data.from_arrow(t),
        str(tmp_path / "spill"),
        gopher=True,
        min_tokens=1,
        max_dup3gram_micro=1_000_000,
    )
    assert {r["doc_id"] for r in cleaned.take_all()} == {0}
    assert stats["n_after_quality"] == 1


def test_clean_corpus_decontam_stage(ray_session, tmp_path):
    """decontam_benchmark= drops docs sharing a benchmark n-gram BEFORE
    the dedup stages; clean docs and the stats field survive."""
    import ray.data

    from jamie_ray.pipelines.clean import clean_corpus

    docs = ray.data.from_items(
        [
            # shares the 3-gram "the quick brown" with the benchmark
            {"doc_id": 1, "text": "the quick brown fox jumps over the lazy dog"},
            {"doc_id": 2, "text": "a completely unrelated page kept as is today"},
            # contaminated duplicate pair: BOTH drop (decontam runs
            # before exact dedup, so neither can be a kept winner)
            {"doc_id": 3, "text": "answer key the quick brown fox appears here verbatim"},
            {"doc_id": 4, "text": "answer key the quick brown fox appears here verbatim"},
        ]
    )
    cleaned, stats = clean_corpus(
        docs,
        str(tmp_path / "spill"),
        min_tokens=3,
        near_dup_threshold=0.99,
        decontam_benchmark=["the quick brown"],
        decontam_n=3,
    )
    rows = {r["doc_id"]: r["text"] for r in cleaned.take_all()}
    assert set(rows) == {2}
    assert stats["n_after_decontam"] == 1
    assert stats["n_after_quality"] == 4  # decontam runs after quality


def test_clean_corpus_decontam_no_hits_is_noop(ray_session, tmp_path):
    import ray.data

    from jamie_ray.pipelines.clean import clean_corpus

    docs = ray.data.from_items(
        [
            {"doc_id": 1, "text": "page one with enough tokens to pass the floor"},
            {"doc_id": 2, "text": "page two with enough tokens to pass the floor"},
        ]
    )
    cleaned, stats = clean_corpus(
        docs,
        str(tmp_path / "spill"),
        min_tokens=3,
        near_dup_threshold=0.99,
        decontam_benchmark=["totally absent benchmark gram"],
    )
    assert stats["n_after_decontam"] == 2
    assert {r["doc_id"] for r in cleaned.take_all()} == {1, 2}


def test_compression_ratio_signal():
    """Deterministic replay + the three regimes the band gate targets:
    prose compresses moderately, repetition collapses, noise stays
    near/above 1.0."""
    import zlib

    from jamie_ray.functions.text_analysis import compression_ratio_batch

    prose = (
        "The committee reviewed the quarterly findings and noted that "
        "several regional offices had reported improved throughput "
        "after the scheduling changes were introduced last spring. "
    ) * 4
    repeat = "spam ham " * 200
    import hashlib

    raw = b"".join(
        hashlib.blake2b(str(i).encode(), digest_size=64).digest()
        for i in range(32)
    )
    noise = "".join(chr(33 + (b % 94)) for b in raw)
    t = pa.table({"text": pa.array([prose, repeat, noise, None, ""])})
    got = compression_ratio_batch(t).column("compress_micro").to_pylist()
    # bit-exact replay of the definition
    for text, micro in zip([prose, repeat, noise], got):
        raw = text.encode("utf-8")
        assert micro == len(zlib.compress(raw, 6)) * 1_000_000 // len(raw)
    assert got[3] == 0 and got[4] == 0
    p, r, n = got[0], got[1], got[2]
    assert r < 100_000              # pathological repetition
    assert 100_000 < p < 750_000    # ordinary prose
    assert n > 750_000              # noise-like (printable-entropy cap)


def test_clean_corpus_compress_band_gate(ray_session, tmp_path):
    import ray.data

    from jamie_ray.pipelines.clean import clean_corpus

    prose = (
        "The committee reviewed the quarterly findings and noted that "
        "several regional offices had reported improved throughput. "
    ) * 4
    repeat = "spam ham " * 200
    import hashlib

    raw = b"".join(
        hashlib.blake2b(str(i).encode(), digest_size=64).digest()
        for i in range(40)
    )
    noise = " ".join(
        "".join(chr(33 + (b % 94)) for b in raw[i * 8 : (i + 1) * 8])
        for i in range(len(raw) // 8)
    )
    docs = ray.data.from_items(
        [
            {"doc_id": 1, "text": prose},
            {"doc_id": 2, "text": repeat},
            {"doc_id": 3, "text": noise},
            # short doc: always passes the band (byte floor)
            {"doc_id": 4, "text": "tiny page kept regardless of ratio"},
        ]
    )
    cleaned, stats = clean_corpus(
        docs,
        str(tmp_path / "spill"),
        min_tokens=3,
        max_dup3gram_micro=1_000_000,  # let the repetition doc reach the band
        near_dup_threshold=0.99,
        compress_band=(100_000, 750_000),
    )
    kept = {r["doc_id"] for r in cleaned.take_all()}
    assert kept == {1, 4}
    assert stats["n_after_quality"] == 2


def test_clean_corpus_all_optins_compose(ray_session, tmp_path):
    """Every opt-in stage enabled at once: the chain runs end-to-end,
    each gate drops exactly the one doc planted for it, the stats dict
    carries every count in its fixed key order, and the kept rows are
    the same over one block and four."""
    import ray.data

    from jamie_ray.functions.lm import train_ngram_lm
    from jamie_ray.pipelines.clean import clean_corpus

    good = (
        "This page stays through every gate today.\n"
        "It has several ordinary lines of text in it.\n"
        "Each line ends with terminal punctuation marks."
    )
    weather = (
        "A second page that differs in every single word.\n"
        "Its lines are ordinary sentences about the weather.\n"
        "Rain fell on the hills and the rivers rose slowly.\n"
        "Write to rain@example.com for the weather report today."
    )
    gardens = (
        "A third page whose vector copies the second page.\n"
        "Its words are about gardens and planting flowers.\n"
        "Tulips bloom in spring after the long cold winter."
    )
    bench = (
        "the quick brown fox shares a benchmark gram here.\n"
        "so this document must be decontaminated away now.\n"
        "three lines keep the line cleaner satisfied too."
    )
    rows = [
        {"doc_id": 1, "url": "https://www.example.com/a?utm_source=x", "text": good},
        # canonical-URL dup of 1
        {"doc_id": 2, "url": "https://example.com/a", "text": good},
        # shares a benchmark 3-gram
        {"doc_id": 3, "url": "https://other.example.com/b", "text": bench},
        # one kept line: fails the line cleaner's min-kept-lines rule
        {
            "doc_id": 4,
            "url": "https://example.com/c",
            "text": "Only one line here has enough words to keep.\nshort line\nanother",
        },
        # alpha-word fraction 0.5: fails the Gopher gate
        {
            "doc_id": 5,
            "url": "https://example.com/d",
            "text": "12 34 56 78 90 11 and.\n22 33 44 55 66 77 but.\n"
            "88 99 10 20 30 40 so.",
        },
        # heuristic lang 'ja'
        {
            "doc_id": 6,
            "url": "https://example.com/e",
            "text": "CT検査で左肺 MRI所見あり PET画像で陰影 ECG異常なし X線で確認した.\n"
            "CT再検査 MRI追加 PET不要 ECG正常 X線で経過観察.\n"
            "CT結果を説明 MRI予約済み PET検討中 ECG毎月 X線は来週.",
        },
        # words the trusted LM never saw: perplexity ~93
        {
            "doc_id": 7,
            "url": "https://example.com/f",
            "text": "Zorblax quintevar mollusk grindle parapet oxbow.\n"
            "Fennimore clavicle jubjub wistful drainpipe kelp.\n"
            "Quagmire tessellate obelisk nimbus fjord plover.",
        },
        # exact dup of 1
        {"doc_id": 8, "url": "https://example.com/g", "text": good},
        # whitespace variant of 1: a near dup
        {
            "doc_id": 9,
            "url": "https://example.com/h",
            "text": good.replace("every gate", "every  gate")
            .replace("ordinary lines", "ordinary  lines")
            .replace("terminal punctuation", "terminal  punctuation"),
        },
        {"doc_id": 10, "url": "https://example.com/i", "text": weather},
        # its vector is a semantic twin of 10's
        {"doc_id": 11, "url": "https://example.com/j", "text": gardens},
    ]
    lm = train_ngram_lm(
        ray.data.from_items(
            [{"doc_id": 0, "text": " ".join([good, bench, weather, gardens])}] * 2
        )
    )
    emb = ray.data.from_items(
        [
            {"doc_id": 1, "embedding": [1.0, 0.0, 0.0]},
            {"doc_id": 2, "embedding": [0.0, 0.0, 1.0]},
            # 3's vector equals 10's, but decontam dropped 3 first
            {"doc_id": 3, "embedding": [0.0, 1.0, 0.0]},
            {"doc_id": 10, "embedding": [0.0, 1.0, 0.0]},
            {"doc_id": 11, "embedding": [0.0, 0.99, 0.01]},
        ]
    )
    want_stats = [
        ("n_input", 11),
        ("n_after_quality", 8),
        ("n_after_exact", 4),
        ("n_after_near_dup", 3),
        ("n_after_url", 10),
        ("n_after_line_clean", 9),
        ("n_after_lm", 6),
        ("n_after_decontam", 5),
        ("n_after_lang", 7),
        ("n_after_semantic", 2),
    ]
    want_rows = [
        (1, " ".join(good.split("\n"))),
        (10, " ".join(weather.split("\n")).replace("rain@example.com", "<EMAIL>")),
    ]
    for n_blocks in (1, 4):
        cleaned, stats = clean_corpus(
            ray.data.from_items(rows, override_num_blocks=n_blocks),
            str(tmp_path / f"spill{n_blocks}"),
            min_tokens=3,
            near_dup_threshold=0.9,
            url_col="url",
            line_clean=True,
            gopher=True,
            compress_band=(1, 999_999_999),
            keep_lang="en",
            lm=lm,
            max_ppl=60.0,
            decontam_benchmark=["the quick brown"],
            embeddings=emb,
            semantic_threshold=0.95,
            semantic_n_centroids=2,
            span_min_len=50,
            pii=True,
        )
        assert list(stats.items()) == want_stats, n_blocks
        got = sorted((r["doc_id"], r["text"]) for r in cleaned.take_all())
        assert got == want_rows, n_blocks


def test_cluster_assign_matches_quantizer(ray_session):
    """centroid_id equals the single-machine nearest-centroid replay;
    layout-deterministic; frozen-quantizer reuse matches."""
    import numpy as np
    import ray.data

    from jamie_ray.functions.similarity import (
        _ivf_assign,
        cluster_assign,
        ivf_centroids,
    )

    rng = np.random.default_rng(3)
    n, d = 80, 6
    vecs = rng.normal(size=(n, d)).round(3)
    tbl = pa.table(
        {
            "vec_id": pa.array(range(n), pa.int64()),
            "embedding": pa.array(
                [list(map(float, v)) for v in vecs],
                pa.list_(pa.float64()),
            ),
        }
    )
    ds = ray.data.from_arrow(tbl).repartition(4)
    cents = ivf_centroids(ds, n_centroids=5)
    got = {
        r["vec_id"]: r["centroid_id"]
        for r in cluster_assign(ds, n_centroids=5).take_all()
    }
    exp = _ivf_assign(vecs.astype(np.float64), cents)
    assert got == {i: int(exp[i]) for i in range(n)}
    # frozen quantizer reuse + different layout -> identical buckets
    got2 = {
        r["vec_id"]: r["centroid_id"]
        for r in cluster_assign(
            ray.data.from_arrow(tbl).repartition(7), centroids=cents
        ).take_all()
    }
    assert got2 == got


def test_cli_cluster_and_mix(ray_session, tmp_path):
    import json as _json
    import subprocess
    import sys

    import pyarrow.parquet as pq

    docs = pa.table(
        {
            "doc_id": pa.array(range(20), pa.int64()),
            "text": pa.array([f"doc {i} text" for i in range(20)], pa.string()),
        }
    )
    pq.write_table(docs, tmp_path / "docs.parquet")
    out = tmp_path / "mixed"
    r = subprocess.run(
        [
            sys.executable, "-m", "jamie_ray", "mix",
            "--in", f"a={tmp_path/'docs.parquet'}:2.0",
            "--in", f"b={tmp_path/'docs.parquet'}:0.5",
            "--out", str(out),
        ],
        capture_output=True, text=True, check=True,
    )
    info = _json.loads(r.stdout.strip().splitlines()[-1])
    t = pq.read_table(out)
    assert info["n_rows"] == t.num_rows
    from collections import Counter

    per = Counter(t.column("source").to_pylist())
    assert per["a"] == 40  # two full epochs
    assert 0 < per["b"] < 20  # fractional hash sample

    emb = pa.table(
        {
            "vec_id": pa.array(range(30), pa.int64()),
            "embedding": pa.array(
                [[float(i % 5), float(i % 3)] for i in range(30)],
                pa.list_(pa.float64()),
            ),
        }
    )
    pq.write_table(emb, tmp_path / "emb.parquet")
    cout = tmp_path / "clustered"
    r = subprocess.run(
        [
            sys.executable, "-m", "jamie_ray", "cluster",
            "--embeddings", str(tmp_path / "emb.parquet"),
            "--out", str(cout), "--n-centroids", "4",
        ],
        capture_output=True, text=True, check=True,
    )
    info = _json.loads(r.stdout.strip().splitlines()[-1])
    assert info["n_rows"] == 30
    ct = pq.read_table(cout)
    assert set(ct.column_names) == {"vec_id", "embedding", "centroid_id"}
    assert all(0 <= c < 4 for c in ct.column("centroid_id").to_pylist())


def test_review_fixes_cluster_band_phi(ray_session, tmp_path):
    """Round-5 review fixes: (a) cluster_assign rejects string id
    columns loudly up front; (b) corpus_report plumbs k through
    heavy_hitters so small domain_phi works; (c) clean_corpus
    validates compress_band shape eagerly."""
    import ray.data

    from jamie_ray.functions.profile import corpus_report
    from jamie_ray.functions.similarity import cluster_assign
    from jamie_ray.pipelines.clean import clean_corpus

    emb = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(["a", "b"], pa.string()),
                "embedding": pa.array(
                    [[1.0, 0.0], [0.0, 1.0]], pa.list_(pa.float64())
                ),
            }
        )
    )
    with pytest.raises(ValueError, match="integer"):
        cluster_assign(emb, n_centroids=2)

    # phi below 1/1024 used to hit heavy_hitters' default-k recall
    # bound; k is now sized from phi
    rows = [
        {
            "doc_id": i,
            "text": f"document {i} ordinary words here",
            "url": f"https://dom.example.org/p{i}",
        }
        for i in range(10)
    ]
    rep = corpus_report(
        ray.data.from_items(rows), url_col="url", domain_phi=0.0005
    )
    assert rep["top_domains"][0]["domain"] == "dom.example.org"

    docs = ray.data.from_items(
        [{"doc_id": 1, "text": "enough tokens to pass the floor here"}]
    )
    with pytest.raises(ValueError, match="compress_band"):
        clean_corpus(
            docs, str(tmp_path / "s"), compress_band=(100,)  # 1-tuple
        )
    with pytest.raises(ValueError, match="lo > hi"):
        clean_corpus(
            docs, str(tmp_path / "s2"), compress_band=(900, 100)
        )
