"""Broadcast-lookup maps run as plain tasks.

Every map whose only state is a ``ray.put`` broadcast reads it through
``state.worker_cache.cached_get`` inside a task ``map_batches`` — no
Ray Data actor pool (a ``MapWorker(...)`` actor) is started for it.
Each converted function is checked against an independent expected
output under a 1-block and a many-block layout, and the actor table is
checked for new ``MapWorker`` actors around the call."""

import contextlib
import math

import pyarrow as pa
import pytest
import ray

LAYOUTS = [1, 7]


def _map_worker_ids() -> set[str]:
    return {
        actor_id
        for actor_id, info in ray._private.state.actors().items()
        if info["ActorClassName"].startswith("MapWorker")
    }


@contextlib.contextmanager
def _no_new_map_workers():
    before = _map_worker_ids()
    yield
    new = _map_worker_ids() - before
    assert not new, f"actor pool started: {new}"


def _ds(table: pa.Table, n_blocks: int):
    import ray.data

    return ray.data.from_arrow(table).repartition(n_blocks)


def _rows(rows: list[dict]) -> list[tuple]:
    return sorted(tuple(sorted(r.items())) for r in rows)


@pytest.mark.parametrize("n_blocks", LAYOUTS)
def test_minhash_clusters_planted(ray_session, n_blocks):
    from jamie_ray import fixtures
    from jamie_ray.functions.dedup_docs import minhash_clusters

    planted = fixtures.generate_docs_nd(120)
    with _no_new_map_workers():
        got = minhash_clusters(
            _ds(planted["documents_nd"], n_blocks),
            threshold=fixtures.MINHASH_THRESHOLD,
        ).take_all()
    assert _rows(got) == _rows(planted["expected_minhash_clusters"].to_pylist())


@pytest.mark.parametrize("n_blocks", LAYOUTS)
@pytest.mark.parametrize("name", ["dim_revenue", "shipping_priority"])
def test_relational_broadcast_vs_duckdb(ray_session, monkeypatch, name, n_blocks):
    import duckdb
    import ray.data

    import __ray_entry__ as entrymod
    from jamie_ray.pipelines import relational
    from tests.test_queries import SF_DIR as sf

    con = duckdb.connect()
    for t in ("customer", "nation", "orders", "lineitem"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')")
    monkeypatch.setattr(
        relational,
        "_read",
        lambda sf_dir, table, columns=None: ray.data.read_parquet(
            f"{sf_dir}/{table}.parquet", columns=columns
        ).repartition(n_blocks),
    )
    with _no_new_map_workers():
        got = entrymod.queries()[name](sf).take_all()
    exp = pa.Table.from_pandas(
        con.execute(entrymod.oracle_sql()[name]).df(), preserve_index=False
    ).to_pylist()
    assert got and _rows(got) == _rows(exp)


_BENCH = ["the quick brown fox jumps", "pack my box with five dozen jugs"]
_CORPUS = [
    "we saw the quick brown fox today",
    "nothing shared with the benchmark at all",
    "pack my box with care",
    "",
    "quick brown",
]


def _expected_decontam(n: int) -> list[dict]:
    from jamie_ray.functions.decontam import doc_grams

    bench = set().union(*(doc_grams(t, n) for t in _BENCH))
    out = []
    for i, t in enumerate(_CORPUS):
        grams = doc_grams(t, n)
        hits = len(grams & bench)
        out.append(
            {"doc_id": i, "n_grams": len(grams), "n_hits": hits,
             "contaminated": int(hits > 0)}
        )
    return out


@pytest.mark.parametrize("n_blocks", LAYOUTS)
@pytest.mark.parametrize("hashed", [False, True])
def test_decontaminate(ray_session, hashed, n_blocks):
    from jamie_ray.functions.decontam import decontaminate, doc_grams

    grams = set().union(*(doc_grams(t, 3) for t in _BENCH))
    corpus = pa.table({"doc_id": list(range(len(_CORPUS))), "text": _CORPUS})
    with _no_new_map_workers():
        got = decontaminate(_ds(corpus, n_blocks), grams, n=3, hashed=hashed).take_all()
        # a caller's pre-put ref of raw gram strings is normalized per worker
        via_ref = decontaminate(
            _ds(corpus, n_blocks), ray.put(sorted(grams)), n=3, hashed=hashed
        ).take_all()
    assert _rows(got) == _rows(via_ref) == _rows(_expected_decontam(3))


@pytest.mark.parametrize("n_blocks", LAYOUTS)
def test_score_perplexity(ray_session, n_blocks):
    from jamie_ray.functions.lm import score_perplexity, train_ngram_lm
    from jamie_ray.functions.text_analysis import ws_tokens

    texts = [
        "the cat sat on the mat",
        "the dog sat on the log",
        "zq xv qq zz",
        "",
    ]
    docs = pa.table({"doc_id": list(range(len(texts))), "text": texts})
    lm = train_ngram_lm(_ds(docs, 1))
    with _no_new_map_workers():
        got = {r["doc_id"]: r for r in score_perplexity(_ds(docs, n_blocks), lm).take_all()}
    for i, t in enumerate(texts):
        toks = ws_tokens(t)
        lp = lm.logprob(toks)
        assert got[i]["n_tokens"] == len(toks)
        assert got[i]["logprob_micro"] == round(lp * 1_000_000)
        if toks:
            assert got[i]["ppl"] == math.exp(-lp / len(toks))
        else:
            assert math.isnan(got[i]["ppl"])


@pytest.mark.parametrize("n_blocks", LAYOUTS)
def test_segment_corpus(ray_session, n_blocks):
    from jamie_ray.functions import bpe

    texts = ["low lower slowest low", "", "low low newest", "widest lower"]
    docs = pa.table({"doc_id": list(range(len(texts))), "text": texts})
    merges_tbl = bpe.train_bpe(_ds(docs, 1), n_merges=6, min_freq=2)
    merges = list(
        zip(merges_tbl.column("lhs").to_pylist(), merges_tbl.column("rhs").to_pylist())
    )
    with _no_new_map_workers():
        got = {
            r["doc_id"]: (r["bpe_tokens"], r["n_bpe_tokens"])
            for r in bpe.segment_corpus(_ds(docs, n_blocks), merges_tbl).take_all()
        }
    for i, t in enumerate(texts):
        exp = bpe.apply_bpe(t, merges)
        assert got[i] == (exp, len(exp))


def test_clean_corpus_default_starts_no_actor_pool(ray_session, tmp_path):
    import ray.data

    from jamie_ray.pipelines.clean import clean_corpus

    near = "the quick brown fox jumps over the lazy dog and keeps running"
    docs = ray.data.from_items(
        [
            {"doc_id": 1, "text": near},
            {"doc_id": 2, "text": near},
            {"doc_id": 3, "text": near + " again today"},
            {"doc_id": 4, "text": "a completely different document about other things"},
        ]
    )
    with _no_new_map_workers():
        cleaned, stats = clean_corpus(
            docs, str(tmp_path / "spill"), min_tokens=5, near_dup_threshold=0.5
        )
        kept = {r["doc_id"] for r in cleaned.take_all()}
    assert stats["n_after_near_dup"] == 2
    assert kept == {1, 4}
